import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import gpgraphs
from gpgraphs import fields, graphs


def _drop_graphs():
    for field in fields._FIELD_CACHE.values():
        field.graphs.clear()


@pytest.fixture(autouse=True)
def fresh_graphs():
    """Each test starts and ends with no graph on a cached field.

    build_graph returns the field's own graph, so a result a test corrupts or counts
    would otherwise stay kept on it for the tests after.
    """
    _drop_graphs()
    yield
    _drop_graphs()


@pytest.fixture
def package_env():
    """Environment for a child interpreter that imports this checkout's gpgraphs."""
    src = str(Path(gpgraphs.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


@pytest.fixture
def run_optimized(package_env):
    """Runs a dedented script under python -O, which strips asserts; without -O the child exits 1."""
    guard = 'import sys\nif not sys.flags.optimize:\n    sys.exit("not running under -O")\n'
    return lambda script: subprocess.run([sys.executable, "-O", "-c", guard + textwrap.dedent(script)],
                                         capture_output=True, text=True, env=package_env)


# (_PYTHON_LEVEL_ARCS, _BLOCK_ARCS) of graphs.log_bfs: the Python loop on every
# level, numpy on every level, and the default switch between them with numpy
# blocks of at most 16 arcs, so that a level of 256 arcs or more reaches the
# target after several blocks, and one search hands levels from one kernel
# to the other
KERNEL_MODES = {"python": (2 ** 62, 1 << 18), "numpy": (0, 1 << 18), "tiny_blocks": (256, 16)}


@pytest.fixture(params=list(KERNEL_MODES))
def kernel_mode(request, monkeypatch):
    """Runs a test once in each mode of the BFS kernel."""
    python_arcs, block_arcs = KERNEL_MODES[request.param]
    monkeypatch.setattr(graphs, "_PYTHON_LEVEL_ARCS", python_arcs)
    monkeypatch.setattr(graphs, "_BLOCK_ARCS", block_arcs)
    return request.param
