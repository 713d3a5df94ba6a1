"""Subspace growth and integer-coded composition fibers, against the code they
replaced, and end-to-end runs against a checkout of the parent commit.

    PYTHONPATH=src python3 benchmarks/geometry_growth.py [--reps 3]
        [--parent DIR --pairs 10] [--out BENCH_geometry.json]

Run it from the root of a checkout.  It writes one JSON object to --out and
prints it.

`subspaces`: the six subspace enumerations the census-ratio criterion needed
(for X_2, X_3 and the degenerate family: the m = 1 subspaces inside W and all
m = 2 subspaces) and the growths of dual-path-extension's `weak_space`
calls, recorded at `geometry.subspace_flats` while that criterion runs.
Each is timed by the growth
(`geometry.enumerate_subspaces_in`) and by the scan over every affine
subspace of k^n that it replaced (`scan_subspaces_in` in
tests/test_geometry.py); the two lists must be equal, in the same order.

`kappa`: the `kappa_fibers` calls of kappa-uniformity-trend, timed whole
(`kappa_fibers_s`), and the fiber counting they replaced (`dict_loop_s`: the
same map table, a (maps, c * p^m) key array and a dict over its rows; without
the interpolation of the 27 targets, which both share).  The two must give
the same items in the same order.  Times are the best of --reps runs
(default 3).

`end_to_end` (only with --parent): --pairs seeds per workload of
`perfbench/run.py --seconds 0 --trace 0`, each seed run once in the parent
checkout and once here, the side that runs first alternating by seed, with
every run's metrics; then one traced run (`--trace 1`, seed 1) of
acceptance-serial per side.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from test_geometry import scan_subspaces_in  # noqa: E402

from rankforge import catalog, geometry  # noqa: E402
from rankforge.acceptance import run_criterion  # noqa: E402
from rankforge.domain import box  # noqa: E402
from rankforge.explicit import ExplicitVariety  # noqa: E402
from rankforge.geometry import Hyperplane, enumerate_points, kappa_fibers  # noqa: E402
from rankforge.gf import PrimeField  # noqa: E402
from rankforge.poly import PolyFamily  # noqa: E402

WORKLOADS = ("acceptance-serial", "bigbox-threads")
E2E = ("wall_s", "cpu_s", "peak_rss_mb", "setup_s", "ok_frac")
TRACED = (
    "runtime.budget.charges",
    "runtime.budget.estimated_steps",
    "runtime.budget.refusals",
    "geometry.enumerate_subspaces_in.calls",
    "geometry.enumerate_subspaces_in.self_s",
    "geometry.census_extension.self_s",
    "geometry.kappa_fibers.self_s",
    "acceptance.census-ratio.wall_s",
    "acceptance.kappa-uniformity-trend.wall_s",
    "acceptance.dual-path-extension.wall_s",
)


def best_of(fn, reps: int) -> tuple[float, object]:
    times, out = [], None
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return min(times), out


def census_calls() -> list[tuple[str, object, int, object]]:
    F3 = PrimeField(3)
    sets = []
    for n in (2, 3):
        xn = ExplicitVariety(2, n, F3)
        sets.append((f"X_{n}", xn.points(), Hyperplane(tuple([1] + [0] * (xn.nvars - 1)), 0)))
    fam, wcoef = catalog.degenerate_census_family()
    sets.append(("degenerate", enumerate_points(fam), Hyperplane(wcoef, 0)))
    return [(f"census {name} m={m}{' in W' if w else ''}", X, m, w) for name, X, W in sets for m, w in ((1, W), (2, None))]


def weak_space_calls() -> list[tuple[str, object, int, object]]:
    """The growths dual-path-extension's weak_space calls make, recorded at
    the flats' array entry point, `geometry.subspace_flats`."""
    from rankforge import weakpoly

    calls = []
    original = weakpoly.subspace_flats

    def recording(X, m, within=None, budget=None):
        calls.append((f"weak_space F_{X.field.p}^{X.n} m={m}", X, m, within))
        return original(X, m, within=within, budget=budget)

    weakpoly.subspace_flats = recording
    try:
        run_criterion("dual-path-extension")
    finally:
        weakpoly.subspace_flats = original
    if not calls:
        raise SystemExit("dual-path-extension grew no flats through weakpoly.subspace_flats")
    return calls


def time_subspaces(reps: int) -> list[dict]:
    rows = []
    for name, X, m, W in census_calls() + weak_space_calls():
        scan_s, old = best_of(lambda: scan_subspaces_in(X, m, W), reps)
        grow_s, new = best_of(lambda: geometry.enumerate_subspaces_in(X, m, within=W), reps)
        if new != old:
            raise SystemExit(f"{name}: growth and scan disagree")
        rows.append({"call": name, "found": len(new), "scan_s": scan_s, "growth_s": grow_s})
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


def time_kappa(reps: int) -> list[dict]:
    rows = []
    for n in (2, 3):
        fam = PolyFamily([ExplicitVariety(2, n, PrimeField(3)).polynomial()])
        new_s, stats = best_of(lambda: kappa_fibers(fam, 1), reps)
        old_s, old = best_of(lambda: fibers_by_dict_loop(fam, 1), reps)
        if list(stats.fibers.items()) != list(old.items()):
            raise SystemExit(f"kappa n={n}: integer codes and dict loop disagree")
        rows.append({"call": f"kappa X_{n} m=1", "maps": stats.total_maps, "fibers": stats.attained, "kappa_fibers_s": new_s, "dict_loop_s": old_s})
    return rows


def run_perfbench(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    # Linux carries a process's peak RSS across exec, so a direct child would
    # report this process's peak as its own; a shell that forks first does not
    res = subprocess.run(["sh", "-c", '"$@"; exit $?', "sh", *cmd], cwd=checkout, capture_output=True, text=True, timeout=600)
    last = json.loads(res.stdout.strip().splitlines()[-1])
    return {"correct": last["correct"], **{k: v["value"] for k, v in last["metrics"].items()}}


def summary(runs: list[dict]) -> dict:
    out = {"runs": len(runs), "all_correct": all(r["correct"] for r in runs)}
    for name in E2E:
        vals = [r[name] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4, method="inclusive")
        out[name] = {"median": med, "q1": q1, "q3": q3}
    return out


def end_to_end(parent: Path, pairs: int, traced_metrics: tuple = TRACED, first_seed: int = 1) -> dict:
    result = {}
    for workload in WORKLOADS:
        sides: dict[str, list[dict]] = {"parent": [], "change": []}
        for seed in range(first_seed, first_seed + pairs):
            order = [("parent", parent), ("change", ROOT)]
            for side, checkout in order if seed % 2 else order[::-1]:
                sides[side].append(run_perfbench(checkout, workload, seed, 0))
        better = {
            name: sum(
                (c[name] > p[name]) if name == "ok_frac" else (c[name] < p[name])
                for p, c in zip(sides["parent"], sides["change"])
            )
            for name in E2E
        }
        result[workload] = {
            "parent": summary(sides["parent"]),
            "change": summary(sides["change"]),
            "change_better_pairs": better,
            "runs": {side: [{"seed": seed, **run} for seed, run in enumerate(runs, first_seed)] for side, runs in sides.items()},
        }
    traced = {}
    for side, checkout in (("parent", parent), ("change", ROOT)):
        run = run_perfbench(checkout, "acceptance-serial", 1, 1)
        traced[side] = {"correct": run["correct"], **{k: run[k] for k in traced_metrics}}
    return {"pairs": result, "traced_acceptance_serial": traced}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--parent", type=Path, help="root of a checkout of the parent commit")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_geometry.json")
    args = ap.parse_args()

    subspaces = time_subspaces(args.reps)
    doc = {
        "command": f"python3 benchmarks/geometry_growth.py --reps {args.reps}" + (f" --parent PARENT --pairs {args.pairs}" if args.parent else ""),
        "machine": {"nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0], "numpy": np.__version__},
        "subspaces": {
            "calls": subspaces,
            "scan_s": sum(r["scan_s"] for r in subspaces),
            "growth_s": sum(r["growth_s"] for r in subspaces),
        },
        "kappa": time_kappa(args.reps),
    }
    if args.parent is not None:
        doc["end_to_end"] = end_to_end(args.parent.resolve(), args.pairs)
    text = json.dumps(doc, indent=1)
    args.out.write_text(text + "\n")
    print(text)


if __name__ == "__main__":
    main()
