"""Every name a module of the package imports is used by that module.

No linter runs on this project, so the check is an AST scan: a name bound by
`import` or `from ... import` must be read somewhere in the same module
(as a name, or as the base of an attribute), or be listed in `__all__`.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rankforge"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            used |= {elt.value for elt in node.value.elts}
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_unused_imports(module):
    assert unused_imports(module.read_text()) == []


def test_scan_flags_an_unused_import():
    assert unused_imports("import os\nfrom .gf import PrimeField, FieldElem\n\nx = FieldElem\n") == ["line 1: os", "line 2: PrimeField"]
    assert unused_imports("from .gf import PrimeField\n__all__ = ['PrimeField']\n") == []
