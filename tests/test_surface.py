"""Every function, class and public method of the library has a caller in src/ or bench/.

One that only the tests call belongs in tests/oracles.py.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gpgraphs"

# the field model that witness returns and test_fields checks: elements with operators
ELEMENT_API = {"FieldElement.inverse", "FieldElement.is_zero", "FiniteField.elements",
               "FiniteField.omega", "FiniteField.one", "FiniteField.zero"}


def _referenced_name(node) -> str | None:
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def test_every_library_name_has_a_caller_in_src_or_bench():
    definitions = []  # (qualified name, name, node)
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((node.name, node.name, node))
            if isinstance(node, ast.ClassDef):
                definitions += [(f"{node.name}.{item.name}", item.name, item) for item in node.body
                                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    # the package's __init__ only re-exports, so its imports are not callers
    sources = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    references = Counter()
    for path in sources + list((ROOT / "bench").glob("*.py")):
        references.update(filter(None, map(_referenced_name, ast.walk(ast.parse(path.read_text())))))
    # a reference inside the definition itself, such as a recursive call, is not a caller
    unreferenced = [qualified for qualified, name, node in definitions
                    if qualified not in ELEMENT_API
                    and references[name] == sum(_referenced_name(inner) == name for inner in ast.walk(node))]
    assert unreferenced == []
