"""No function of the package takes a `ctx` or `workers` parameter, except
those the benchmark in perfbench/ still passes one to.

Every computation in the package is serial, so such a parameter can only be
ignored.  PINNED is what goes once perfbench/workloads.py stops building a
ParallelContext and passing it (and `workers=1`) to these functions.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rankforge"

PINNED = {
    "acceptance.run_criterion",
    "analytic.bias",
    "analytic.gowers_norm",
    "analytic.gowers_norm_direct",
    "analytic.value_distribution",
    "geometry.enumerate_points",
    "runtime.ParallelContext.__init__",
}


def parallel_params(module: str, source: str) -> list[str]:
    """Qualified names of the functions in `source` with a ctx or workers parameter."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                names = {arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs}
                if names & {"ctx", "workers"}:
                    found.append(f"{prefix}{child.name}")
                visit(child, f"{prefix}{child.name}.")

    visit(ast.parse(source), f"{module}.")
    return found


def test_only_pinned_functions_take_ctx_or_workers():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found.update(parallel_params(path.stem, path.read_text()))
    assert found == PINNED


def test_scan_flags_ctx_and_workers():
    source = "def f(x, ctx=None): pass\nclass C:\n    def g(self, *, workers=1):\n        def h(ctx): pass\n"
    assert parallel_params("m", source) == ["m.f", "m.C.g", "m.C.g.h"]
    assert parallel_params("m", "def f(x, budget=None): pass\n") == []
