"""Exact linear algebra in its large regime: the panel route of `rref_mod`
against the plain Gauss-Jordan loop.  Options, output and the end-to-end
runs: see ab.py.

`solves`: the `rref_mod` inputs of `weak_space` on xn d=2, n=3 over F_3
(261 points) with a = 3, whose propagation stalls, with both sides above
`PANEL`: the restriction system (78 x 261), the constraint chunks on the 73
seed columns, and the basis (71 x 261).  Each is timed by `rref_mod` (the
panel route) and by the plain Gauss-Jordan loop, which must agree.  No
acceptance criterion reaches this regime: since the weak space is computed
by propagation, no system of dual-path-extension has both sides above
`PANEL`.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import ab  # noqa: E402

from rankforge import linalg  # noqa: E402
from rankforge.catalog import xn_variety  # noqa: E402
from rankforge.linalg import PANEL, as_mod_array, rref_mod  # noqa: E402
from rankforge.weakpoly import weak_space  # noqa: E402


def solve_row(A: np.ndarray, p: int, reps: int) -> dict:
    def plain_loop():
        M = as_mod_array(A, p)
        return M, linalg._gauss_jordan(M, p)

    def same(panel, plain):
        return np.array_equal(panel[0], plain[0]) and panel[1] == plain[1]

    row, (_, _, rank) = ab.compare(f"{A.shape}", ("panel", lambda: rref_mod(A, p)), ("plain_loop", plain_loop), same, reps)
    return {"shape": list(A.shape), "p": p, "rank": rank, **row}


def solves(reps: int) -> list[dict]:
    with ab.recorded(linalg.rref_mod) as calls:
        weak_space(xn_variety(2, 3, 3).points(), 3)
    inputs = [(call.arguments["A"], call.arguments["p"]) for _, call, _ in calls if min(np.shape(call.arguments["A"])) > PANEL]
    return [solve_row(np.asarray(A, dtype=np.int64), p, reps) for A, p in inputs]


if __name__ == "__main__":
    ab.main(cases={"solves": solves})
