"""Subspace growth, the extension census and integer-coded composition
fibers, against the code they replaced.  Options, output and the end-to-end
runs: see ab.py.

`subspaces`: the subspace enumerations the census-ratio criterion needs (for
X_2, X_3 and the degenerate family: the m = 1 subspaces inside W) and the
growths of dual-path-extension's `weak_space` calls, recorded at
`geometry.subspace_flats` while that criterion runs.  Each is timed by the
growth (`geometry.enumerate_subspaces_in`) and by the scan over every affine
subspace of k^n that it replaced (`scan_subspaces_in` in
tests/test_geometry.py); the two lists must be equal, in the same order.

`kappa`: the `kappa_fibers` calls of kappa-uniformity-trend, timed whole
(`kappa_fibers_s`), and the fiber counting they replaced (`dict_loop_s`: the
same map table, a (maps, c * p^m) key array and a dict over its rows; without
the interpolation of the 27 targets, which both share).  The two must give
the same items in the same order.

`parts`, `census`: `census_extension` on census-ratio's three calls (m = 1),
on X_3 over F_5 with m = 1 and 2, and on all of F_3^6 with m = 1, each with
W = {x0 = 0} or the degenerate family's hyperplane: the best time over --reps
runs (`census_s`), the tracemalloc peak of one more run (`peak_mb`), |Z|,
|Y| and a sha256 of Z and Y in order.
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import ab  # noqa: E402
from test_geometry import scan_subspaces_in  # noqa: E402

from rankforge import catalog, geometry  # noqa: E402
from rankforge.acceptance import run_criterion  # noqa: E402
from rankforge.domain import box  # noqa: E402
from rankforge.explicit import ExplicitVariety  # noqa: E402
from rankforge.geometry import Hyperplane, VarietyPoints, enumerate_points, kappa_fibers  # noqa: E402
from rankforge.gf import PrimeField  # noqa: E402
from rankforge.poly import MultiPoly, PolyFamily  # noqa: E402


def x0(n: int) -> Hyperplane:
    return Hyperplane((1,) + (0,) * (n - 1), 0)


def census_sets() -> list[tuple[str, object, Hyperplane]]:
    """(name, X, W) of census-ratio's three censuses."""
    sets = [(f"X_{n}", ExplicitVariety(2, n, PrimeField(3)).points(), x0(2 * n)) for n in (2, 3)]
    fam, wcoef = catalog.degenerate_census_family()
    return sets + [("degenerate", enumerate_points(fam), Hyperplane(wcoef, 0))]


def census_calls() -> list[tuple[str, object, int, object]]:
    return [(f"census {name} m=1 in W", X, 1, W) for name, X, W in census_sets()]


def weak_space_calls() -> list[tuple[str, object, int, object]]:
    with ab.recorded(geometry.subspace_flats) as calls:
        run_criterion("dual-path-extension")
    if not calls:
        raise SystemExit("dual-path-extension grew no flats through geometry.subspace_flats")
    args = [call.arguments for _, call, _ in calls]
    return [(f"weak_space F_{a['X'].field.p}^{a['X'].n} m={a['m']}", a["X"], a["m"], a.get("within")) for a in args]


def subspace_row(name: str, X, m: int, W, reps: int) -> dict:
    row, found = ab.compare(name, ("growth", lambda: geometry.enumerate_subspaces_in(X, m, within=W)), ("scan", lambda: scan_subspaces_in(X, m, W)), reps=reps)
    return {**row, "found": len(found)}


def subspaces(reps: int) -> dict:
    rows = [subspace_row(*call, reps) for call in census_calls() + weak_space_calls()]
    return {"calls": rows, "scan_s": sum(r["scan_s"] for r in rows), "growth_s": sum(r["growth_s"] for r in rows)}


def census(reps: int) -> list[dict]:
    X5 = ExplicitVariety(2, 3, PrimeField(5)).points()
    full = VarietyPoints(PolyFamily([MultiPoly.zero(PrimeField(3), 6)]), range(3**6))
    calls = [(f"census-ratio {name} m=1", X, W, 1) for name, X, W in census_sets()]
    calls += [(f"X_3 over F_5 m={m}", X5, x0(6), m) for m in (1, 2)] + [("all of F_3^6 m=1", full, x0(6), 1)]
    rows = []
    for name, X, W, m in calls:
        s, cen = ab.best_of(lambda: geometry.census_extension(X, W, m), reps)
        peak = ab.peak_mb(lambda: geometry.census_extension(X, W, m))
        rows.append({"call": name, "Z": len(cen.Z), "Y": len(cen.Y), "census_s": s, "peak_mb": peak, "sha256": ab.sha((cen.Z, cen.Y))})
    return rows


def fibers_by_dict_loop(family: PolyFamily, m: int) -> dict:
    """The fiber counting kappa_fibers replaced: a dict over the key tuples of
    a (maps, c * p^m) key array."""
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
    keys = np.zeros((total_maps, family.c * size), dtype=np.int64)
    for ci in range(family.c):
        keys[:, ci * size : (ci + 1) * size] = vals[ci][idx]
    fibers: dict = {}
    for row in map(tuple, keys):
        fibers[row] = fibers.get(row, 0) + 1
    return fibers


def kappa_row(n: int, reps: int) -> dict:
    fam = PolyFamily([ExplicitVariety(2, n, PrimeField(3)).polynomial()])
    row, stats = ab.compare(
        f"kappa X_{n} m=1",
        ("kappa_fibers", lambda: kappa_fibers(fam, 1)),
        ("dict_loop", lambda: fibers_by_dict_loop(fam, 1)),
        lambda stats, fibers: list(stats.fibers.items()) == list(fibers.items()),
        reps,
    )
    return {**row, "maps": stats.total_maps, "fibers": stats.attained}


if __name__ == "__main__":
    ab.main(cases={"subspaces": subspaces, "kappa": lambda reps: [kappa_row(n, reps) for n in (2, 3)]}, parts={"census": census})
