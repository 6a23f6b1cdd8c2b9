import os
from pathlib import Path

import pytest

import gpgraphs


@pytest.fixture
def package_env():
    """Environment for a child interpreter that imports this checkout's gpgraphs."""
    src = str(Path(gpgraphs.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)
