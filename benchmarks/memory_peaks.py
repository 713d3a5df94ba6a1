"""Streamed weak-space rows and chunked composition fibers, against the code
they replaced.  Options, output and the end-to-end runs: see ab.py.

`calls`: each call is run by the current code and by the code it replaced,
with its traced peak (tracemalloc, in MB) and its best time; the two results
must be equal.
- `weak_space F_7^4`: dual-path-extension's `weak_space` on the 385 points of
  the F_7^4 variety, against one dense matrix of all 4,160 constraint rows
  and its nullspace (`weak_space_one_shot` in tests/test_weakpoly.py);
  equal means the same basis bytes.
- `kappa_fibers F_3^12`: kappa-uniformity-trend's `kappa_fibers` at n = 3,
  m = 1 (531,441 maps), against the whole (maps, p^m) index table and one
  `np.unique` of every code (`kappa_fibers_one_shot` below); equal means the
  same fibers, counts and first-seen order.
- `extend_by_solve F_7^4`: the `solve_mod` calls of dual-path-extension's
  five extensions at n = 2, against solving [A | b | I] every time
  (`solve_always_tracked` below); equal means the same solutions.
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import ab  # noqa: E402
from test_weakpoly import weak_space_one_shot  # noqa: E402

from rankforge import linalg  # noqa: E402
from rankforge.domain import box  # noqa: E402
from rankforge.explicit import ExplicitVariety  # noqa: E402
from rankforge.geometry import kappa_fibers  # noqa: E402
from rankforge.gf import PrimeField  # noqa: E402
from rankforge.linalg import as_mod_array, rref_mod  # noqa: E402
from rankforge.poly import PolyFamily  # noqa: E402
from rankforge.weakpoly import extend_by_solve, weak_space  # noqa: E402


def kappa_fibers_one_shot(family: PolyFamily, m: int) -> dict:
    """The fiber counting chunks replaced: the box index of phi(t) for every
    affine map at once, and one np.unique over all the maps' codes."""
    field, p, n = family.field, family.field.p, family.n
    ncols = m + 1
    total_maps = p ** (n * ncols)
    vals = [box(field, n).eval_poly(P) for P in family]
    size = p**m
    sub = p**ncols
    row_digits = np.arange(sub, dtype=np.int64)[:, None] // p ** np.arange(ncols - 1, -1, -1) % p
    params = np.array([t + (1,) for t in itertools.product(range(p), repeat=m)], dtype=np.int64)
    table = row_digits @ params.reshape(size, ncols).T % p
    maps = np.arange(total_maps, dtype=np.int64)
    idx = np.zeros((total_maps, size), dtype=np.int64)
    for i in range(n):
        idx += table[maps // sub ** (n - 1 - i) % sub] * p ** (n - 1 - i)
    columns = [(ci, t) for ci in range(family.c) for t in range(size)]
    code = np.zeros(total_maps, dtype=np.int64)
    for ci, t in columns:
        code = code * p + vals[ci][idx[:, t]]
    _, first, counts = np.unique(code, return_index=True, return_counts=True)
    seen = np.argsort(first)
    keys = np.array([[vals[ci][idx[r, t]] for ci, t in columns] for r in first[seen]], dtype=np.int64)
    return dict(zip(map(tuple, keys), counts[seen].tolist()))


def solve_always_tracked(A, b, p: int):
    """`solve_mod` as it was before the certificate was tracked only for
    infeasible systems: one RREF of [A | b | I], the certificate the I part
    of the row whose pivot is b's column."""
    M = as_mod_array(A, p)
    rows, cols = M.shape
    bv = np.asarray(b, dtype=np.int64).reshape(-1) % p
    R, pivots, _ = rref_mod(np.concatenate([M, bv[:, None], np.eye(rows, dtype=np.int64)], axis=1), p)
    if cols in pivots:
        return None, R[pivots.index(cols), cols + 1 :].copy()
    x = np.zeros(cols, dtype=np.int64)
    for j, c in enumerate(pivots):
        if c < cols:
            x[c] = R[j, cols]
    return x, None


def extension_solves(X) -> list[tuple]:
    """The (A, b, p) of every solve_mod call of dual-path-extension's
    extend_by_solve on the F_7^4 weak-space basis."""
    with ab.recorded(linalg.solve_mod) as calls:
        for f in weak_space(X, 1).functions():
            extend_by_solve(f, 1)
    return [(call.arguments["A"], call.arguments["b"], call.arguments["p"]) for _, call, _ in calls]


def same_solutions(xs, ys) -> bool:
    return all((x is None) == (y is None) and (x is None or np.array_equal(x, y)) for (x, _), (y, _) in zip(xs, ys))


def cases(X, fam: PolyFamily) -> list[tuple]:
    """(name, new, replaced, same) on the points X and the family fam."""
    q, solves = X.field.p, extension_solves(X)

    def solve_all(solver):
        return lambda: [solver(A, b, p) for A, b, p in solves]

    return [
        (f"weak_space F_{q}^{X.n}", lambda: weak_space(X, 1).basis, lambda: weak_space_one_shot(X, 1), lambda a, b: a.tobytes() == b.tobytes()),
        (f"kappa_fibers F_{fam.field.p}^{2 * fam.n}", lambda: kappa_fibers(fam, 1).fibers, lambda: kappa_fibers_one_shot(fam, 1), lambda a, b: list(a.items()) == list(b.items())),
        (f"extend_by_solve F_{q}^{X.n} ({len(solves)} solves)", solve_all(linalg.solve_mod), solve_all(solve_always_tracked), same_solutions),
    ]


def calls(reps: int) -> list[dict]:
    fam = PolyFamily([ExplicitVariety(2, 3, PrimeField(3)).polynomial()])
    return [ab.compare(name, ("new", new), ("replaced", old), same, reps, peaks=True)[0] for name, new, old, same in cases(ExplicitVariety(2, 2, PrimeField(7)).points(), fam)]


if __name__ == "__main__":
    ab.main(cases={"calls": calls})
