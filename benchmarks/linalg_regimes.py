"""Exact linear algebra in its large regime: the panel route of `rref_mod`
against the plain Gauss-Jordan loop.  Options, output and the end-to-end
runs: see ab.py.

`solves`: the `rref_mod` inputs of the dual-path-extension criterion (its
weak-space and extension systems over F_7) with both sides above `PANEL`,
each timed by `rref_mod` (the panel route) and by the plain Gauss-Jordan
loop, which must agree.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import ab  # noqa: E402

from rankforge import linalg  # noqa: E402
from rankforge.linalg import PANEL, as_mod_array, rref_mod  # noqa: E402


def solve_row(A: np.ndarray, p: int, reps: int) -> dict:
    def plain_loop():
        M = as_mod_array(A, p)
        return M, linalg._gauss_jordan(M, p)

    def same(panel, plain):
        return np.array_equal(panel[0], plain[0]) and panel[1] == plain[1]

    row, (_, _, rank) = ab.compare(f"{A.shape}", ("panel", lambda: rref_mod(A, p)), ("plain_loop", plain_loop), same, reps)
    return {"shape": list(A.shape), "p": p, "rank": rank, **row}


def solves(reps: int) -> list[dict]:
    calls = ab.criterion_calls(linalg.rref_mod, ["dual-path-extension"])["dual-path-extension"]
    inputs = [(call.arguments["A"], call.arguments["p"]) for call in calls if min(np.shape(call.arguments["A"])) > PANEL]
    return [solve_row(np.asarray(A, dtype=np.int64), p, reps) for A, p in inputs]


if __name__ == "__main__":
    ab.main(cases={"solves": solves})
