"""Exact linear algebra in its large regime and over F_2: each route of
`rref_mod` against the plain Gauss-Jordan loop.  Options, output and the
end-to-end runs: see ab.py.

`solves`: the `rref_mod` inputs of `weak_space` on xn d=2, n=3 over F_3
(261 points) with a = 3, whose propagation stalls, with both sides above
`PANEL`: the restriction system (78 x 261), the constraint chunks on the 73
seed columns, and the basis (71 x 261).  Each is timed by the panel route
(`linalg._gauss_jordan_panels`) and by the plain loop, which must agree;
`route` is the one `rref_mod` takes.  No acceptance criterion reaches this
regime: since the weak space is computed by propagation, no system of
dual-path-extension has both sides above `PANEL`.

`crossover`: random full-rank matrices over F_3 and F_7 on each side of
`PANEL_STEPS`, square, tall and wide, timed by both routes; `steps` is
`rref_steps(rows, cols)`, the quantity the route is chosen by.

`f2`: over F_2, the bit rows of `rref_mod` against the route they
replaced there: the plain loop on one batch of the 3 x 3 systems
rank-axioms hands to `rank_mod` (`matrices` of them, one call each), and
the panels on a random 1500 x 1500 matrix.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import ab  # noqa: E402

from rankforge import linalg  # noqa: E402
from rankforge.catalog import xn_variety  # noqa: E402
from rankforge.linalg import PANEL, as_mod_array, rref_mod, rref_steps  # noqa: E402
from rankforge.weakpoly import weak_space  # noqa: E402

CROSSOVER_SHAPES = (
    (72, 72), (128, 128), (136, 136), (144, 144), (150, 150), (160, 160), (192, 192), (256, 256),
    (78, 261), (261, 78), (400, 73), (96, 400), (400, 96), (128, 256), (256, 128), (80, 1000), (1000, 80),
)  # fmt: skip


def plain_loop(A: np.ndarray, p: int):
    M = as_mod_array(A, p)
    return M, linalg._gauss_jordan(M, p)


def panels(A: np.ndarray, p: int):
    M = as_mod_array(A, p)
    return M, linalg._gauss_jordan_panels(M, p)


def same_rref(a, b) -> bool:
    return np.array_equal(a[0], b[0]) and a[1] == b[1]


def route(A: np.ndarray, p: int) -> str:
    """The route `rref_mod` takes on A."""
    with ab.recorded(linalg._gauss_jordan_bits, linalg._gauss_jordan_panels, linalg._gauss_jordan) as calls:
        rref_mod(A, p)
    return {"_gauss_jordan_bits": "bit_rows", "_gauss_jordan_panels": "panels", "_gauss_jordan": "plain_loop"}[calls[0][0].__name__]


def solve_row(A: np.ndarray, p: int, reps: int) -> dict:
    row, (_, pivots) = ab.compare(f"{A.shape}", ("panels", lambda: panels(A, p)), ("plain_loop", lambda: plain_loop(A, p)), same_rref, reps)
    return {"shape": list(A.shape), "p": p, "steps": rref_steps(*A.shape), "rank": len(pivots), "route": route(A, p), **row}


def solves(reps: int) -> list[dict]:
    with ab.recorded(linalg.rref_mod) as calls:
        weak_space(xn_variety(2, 3, 3).points(), 3)
    inputs = [(call.arguments["A"], call.arguments["p"]) for _, call, _ in calls if min(np.shape(call.arguments["A"])) > PANEL]
    return [solve_row(np.asarray(A, dtype=np.int64), p, reps) for A, p in inputs]


def crossover(reps: int) -> list[dict]:
    rng = np.random.default_rng(1)
    return [solve_row(rng.integers(0, p, size=shape), p, reps) for p in (3, 7) for shape in CROSSOVER_SHAPES]


def battery_f2_systems() -> list[np.ndarray]:
    """The 3 x 3 systems over F_2 that rank-axioms hands to `rank_mod`: its
    sandwich matrices, and the polar matrices of its quadrics in 3 variables."""
    calls = ab.criterion_calls(linalg.rank_mod, ["rank-axioms"])["rank-axioms"]
    return [np.asarray(call.arguments["A"]) for call in calls if call.arguments["p"] == 2 and np.shape(call.arguments["A"]) == (3, 3)]


def f2(reps: int) -> list[dict]:
    batch = battery_f2_systems()
    row, _ = ab.compare(
        "battery 3 x 3 batch",
        ("bit_rows", lambda: [rref_mod(A, 2)[:2] for A in batch]),
        ("plain_loop", lambda: [plain_loop(A, 2) for A in batch]),
        lambda a, b: all(same_rref(x, y) for x, y in zip(a, b, strict=True)),
        reps,
    )
    A = np.random.default_rng(3).integers(0, 2, size=(1500, 1500))
    big, (_, pivots) = ab.compare("(1500, 1500)", ("bit_rows", lambda: rref_mod(A, 2)[:2]), ("panels", lambda: panels(A, 2)), same_rref, reps)
    return [{"shape": [3, 3], "matrices": len(batch), **row}, {"shape": [1500, 1500], "rank": len(pivots), **big}]


if __name__ == "__main__":
    ab.main(cases={"solves": solves, "crossover": crossover, "f2": f2})
