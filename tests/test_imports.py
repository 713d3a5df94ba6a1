"""Every name a module of the package imports is used by that module, every
definition of the package is reached from outside the tests, except a pinned
few, and every benchmark script imports.

No linter runs on this project, so the first two checks are AST scans.  A
name bound by `import` or `from ... import` must be read somewhere in the
same module (as a name, or as the base of an attribute), or be listed in
`__all__`.  A module-level function or class, or a method, must be
referenced outside its own body somewhere in src/, demos/, perfbench/ or
benchmarks/.

Importing a script of benchmarks/ (the harness `ab.py` among them) checks
only the names it imports; tests/test_benchmarks.py runs one case of each
through the harness, which also checks the names a script records or
patches at run time.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rankforge"

# Definitions that only tests reach, each kept on purpose.
TEST_ONLY = {
    # the only statements of lemmas of the paper
    "explicit.base_stratum_orbit_check",
    "explicit.torus_factor",
    "weakpoly.density_certificate",
    # oracles the tests check the package against
    "explicit.ProductTorus.act_point",
    "geometry.AffineSubspace.contains_subspace",
    "geometry.AffineSubspace.from_span",
    "poly.AffineMap.apply",
    "rank.RankResult.decided",
    # perfbench/tracer.py patches it by name; it goes with ParallelContext
    "runtime.ParallelContext.map_chunks",
}


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


def unreferenced_definitions(package: dict[str, str], others: list[str]) -> list[str]:
    """Qualified names of the definitions in `package` (module name -> source)
    that nothing in `package` or `others` (sources) references outside their
    own body.

    A module-level definition is referenced by a name, an import alias or an
    attribute; a method only by an attribute, since a bare name that matches
    it is some other variable.  An attribute of a module bound by `import`
    (math.log) names that module's member and is not counted.  Dunder methods
    are called implicitly and are not scanned.
    """
    refs = []  # (module or None, kind, name, line)
    trees = {module: ast.parse(source) for module, source in package.items()}
    for module, tree in [*trees.items(), *((None, ast.parse(source)) for source in others)]:
        modules = {a.asname or a.name.split(".")[0] for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((module, "name", node.id, node.lineno))
            elif isinstance(node, ast.ImportFrom):
                refs.extend((module, "name", a.name, node.lineno) for a in node.names)
            elif isinstance(node, ast.Attribute) and not (isinstance(node.value, ast.Name) and node.value.id in modules - {"rankforge"}):
                refs.append((module, "attr", node.attr, node.lineno))

    found = []
    for module, tree in trees.items():
        defs = []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((f"{module}.{node.name}", {"name", "attr"}, node))
            if isinstance(node, ast.ClassDef):
                for child in node.body:
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and not child.name.endswith("__"):
                        defs.append((f"{module}.{node.name}.{child.name}", {"attr"}, child))
        for qualified, kinds, node in defs:
            if not any(
                kind in kinds and name == node.name and not (where == module and node.lineno <= line <= node.end_lineno)
                for where, kind, name, line in refs
            ):
                found.append(qualified)
    return found


def test_only_pinned_definitions_are_reached_from_tests_alone():
    package = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    others = [path.read_text() for folder in ("demos", "perfbench", "benchmarks") for path in sorted((ROOT / folder).rglob("*.py"))]
    assert set(unreferenced_definitions(package, others)) == TEST_ONLY


def test_scan_flags_a_definition_only_its_own_body_reaches():
    source = (
        "import math\n"
        "def used(): pass\n"
        "def alone(): return alone()\n"
        "class C:\n"
        "    def log(self): pass\n"
        "    def sub(self): pass\n"
        "    def kept(self): pass\n"
        "    def __len__(self): return 0\n"
        "def f(sub):\n"
        "    return math.log(sub) + used() + C().kept()\n"
    )
    assert unreferenced_definitions({"m": source}, []) == ["m.alone", "m.C.log", "m.C.sub", "m.f"]
    assert unreferenced_definitions({"m": source}, ["from rankforge.m import f, alone\nx.log\n"]) == ["m.C.sub"]


@pytest.mark.parametrize("script", sorted((ROOT / "benchmarks").glob("*.py")), ids=lambda path: path.name)
def test_benchmark_script_imports(monkeypatch, script):
    # a name a script imports from the package, or from a test module it
    # reuses, must still exist; only the module body runs, not main()
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(f"benchmark_{script.stem}", script)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
