"""Every function, class and public method of the library is reached from an entry point.

The entry points are `main` (which names every CLI command), `run_verification`,
`verify_field`, the package's module-level statements and every name that
bench/*.py references. The walk follows the names each reached definition
references, so a helper that only test-only code calls is not reached; such
code belongs in tests/oracles.py. Names are matched bare, without module or
class, so two definitions that share a name pass as soon as either is reached.
The library also holds no assert statement, which python -O would strip,
and the README's library example runs as printed.
"""

import ast
import contextlib
import io
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gpgraphs"


def _references(nodes) -> set[str]:
    names = (node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
             for outer in nodes for node in ast.walk(outer))
    return set(filter(None, names))


def test_every_library_name_is_reached_from_an_entry_point():
    definitions = []  # (qualified name, name, the nodes walked once it is reached)
    roots = {"main", "run_verification", "verify_field"}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):  # a public method is reached by name, the rest with its class
                public = [item for item in node.body
                          if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
                definitions.append((node.name, node.name, [n for n in node.body if n not in public]))
                definitions += [(f"{node.name}.{item.name}", item.name, [item]) for item in public]
            elif isinstance(node, ast.FunctionDef):
                definitions.append((node.name, node.name, [node]))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):  # imports are not callers
                roots |= _references([node])
    roots |= _references(ast.parse(path.read_text()) for path in (ROOT / "bench").glob("*.py"))
    reached, frontier = set(), roots
    while frontier:
        reached |= frontier
        frontier = _references(n for _, name, nodes in definitions if name in frontier for n in nodes) - reached
    assert [qualified for qualified, name, _ in definitions if name not in reached] == []


def test_the_library_has_no_assert():
    # python -O strips asserts; every law raises InvariantViolated through errors.check instead
    asserts = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert asserts == []


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"^## Library\n\n```python\n(.*?)^```", readme, re.M | re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[0] == "3 (3+0j) 1"  # the principal eigenvalue: str(entry) is the exact value
    assert lines[-1] == "3"
