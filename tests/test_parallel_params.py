"""No function of the package takes a `ctx` or `workers` parameter, except
those the benchmark in perfbench/ still passes one to.

Every computation in the package is serial, so such a parameter can only be
ignored.  PINNED is what goes once perfbench/workloads.py stops building a
ParallelContext and passing it (and `workers=1`) to these functions.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rankforge.runtime import ParallelContext

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


def test_parallel_context_is_a_serial_stand_in():
    # one chunk, the whole range, in the calling thread; and importing the
    # package loads no thread pool
    assert ParallelContext(2).map_chunks(lambda lo, hi: (lo, hi), 7) == [(0, 7)]
    assert ParallelContext(2).map_chunks(lambda lo, hi: (lo, hi), 0) == []
    with pytest.raises(ValueError):
        ParallelContext(0)
    code = "import sys, rankforge\nassert 'concurrent.futures' not in sys.modules\n"
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
