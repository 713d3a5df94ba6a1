"""Streamed weak-space rows and chunked composition fibers, against the code
they replaced, and end-to-end runs against a checkout of the parent commit.

    PYTHONPATH=src python3 benchmarks/memory_peaks.py [--reps 3]
        [--parent DIR --pairs 10] [--out BENCH_memory.json]

Run it from the root of a checkout.  It writes one JSON object to --out and
prints it.

`calls`: each call is run by the current code and by the code it replaced,
with its traced peak (tracemalloc, in MB) and its best time of --reps runs
(default 3), untraced; the two results must be equal.
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

`payloads` (only with --parent): the sha256 of every acceptance criterion's
`payload_bytes()` in the parent checkout and here.

`end_to_end` (only with --parent): --pairs seeds per workload of
`perfbench/run.py --seconds 0 --trace 0`, each seed run once in the parent
checkout and once here, the side that runs first alternating by seed; then
one traced run (`--trace 1`, seed 1) of acceptance-serial per side.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "benchmarks"))

from geometry_growth import end_to_end  # noqa: E402
from test_weakpoly import weak_space_one_shot  # noqa: E402

from rankforge import linalg  # noqa: E402
from rankforge.domain import box  # noqa: E402
from rankforge.explicit import ExplicitVariety  # noqa: E402
from rankforge.geometry import kappa_fibers  # noqa: E402
from rankforge.gf import PrimeField  # noqa: E402
from rankforge.linalg import as_mod_array, rref_mod  # noqa: E402
from rankforge.poly import PolyFamily  # noqa: E402
from rankforge.weakpoly import extend_by_solve, weak_space  # noqa: E402

TRACED = (
    "runtime.budget.refusals",
    "weakpoly.weak_space.self_s",
    "weakpoly.weak_space.rows",
    "geometry.kappa_fibers.self_s",
    "linalg.rref_mod.large.calls",
    "linalg.rref_mod.large.self_s",
    "linalg.rref_mod.large.cells",
    "linalg.solve_mod.tracked_bytes",
    "acceptance.dual-path-extension.wall_s",
    "acceptance.kappa-uniformity-trend.wall_s",
)

PAYLOADS = (
    "import hashlib, json\n"
    "from rankforge.acceptance import CRITERIA, run_criterion\n"
    "print(json.dumps({name: hashlib.sha256(run_criterion(name).payload_bytes()).hexdigest() for name in sorted(CRITERIA)}))\n"
)


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


def measure(fn, reps: int) -> tuple[float, float, object]:
    """(best time in s, traced peak in MB, result)."""
    times, out = [], None
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return min(times), peak / 2**20, out


def extension_solves() -> list[tuple]:
    """The (A, b, p) of every solve_mod call of dual-path-extension's
    extend_by_solve on the F_7^4 weak-space basis."""
    X = ExplicitVariety(2, 2, PrimeField(7)).points()
    calls = []
    original = linalg.solve_mod

    def recording(A, b, p):
        calls.append((np.array(A), np.array(b), p))
        return original(A, b, p)

    from rankforge import weakpoly

    weakpoly.solve_mod = recording
    try:
        for f in weak_space(X, 1).functions():
            extend_by_solve(f, 1)
    finally:
        weakpoly.solve_mod = original
    return calls


def compare(name: str, reps: int, new, old, same) -> dict:
    new_s, new_mb, new_out = measure(new, reps)
    old_s, old_mb, old_out = measure(old, reps)
    if not same(new_out, old_out):
        raise SystemExit(f"{name}: the current and the replaced code disagree")
    return {"call": name, "new_s": new_s, "new_peak_mb": new_mb, "replaced_s": old_s, "replaced_peak_mb": old_mb}


def time_calls(reps: int) -> list[dict]:
    X = ExplicitVariety(2, 2, PrimeField(7)).points()
    fam = PolyFamily([ExplicitVariety(2, 3, PrimeField(3)).polynomial()])
    solves = extension_solves()

    def solve_all(solver):
        return lambda: [solver(A, b, p) for A, b, p in solves]

    def same_solutions(xs, ys):
        return all((x is None) == (y is None) and (x is None or np.array_equal(x, y)) for (x, _), (y, _) in zip(xs, ys))

    return [
        compare("weak_space F_7^4", reps, lambda: weak_space(X, 1).basis, lambda: weak_space_one_shot(X, 1), lambda a, b: a.tobytes() == b.tobytes()),
        compare(
            "kappa_fibers F_3^12",
            reps,
            lambda: kappa_fibers(fam, 1).fibers,
            lambda: kappa_fibers_one_shot(fam, 1),
            lambda a, b: list(a.items()) == list(b.items()),
        ),
        compare(f"extend_by_solve F_7^4 ({len(solves)} solves)", reps, solve_all(linalg.solve_mod), solve_all(solve_always_tracked), same_solutions),
    ]


def payloads(checkout: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    res = subprocess.run([sys.executable, "-c", PAYLOADS], cwd=checkout, env=env, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(res.stdout)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--parent", type=Path, help="root of a checkout of the parent commit")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_memory.json")
    args = ap.parse_args()

    doc = {
        "command": f"python3 benchmarks/memory_peaks.py --reps {args.reps}" + (f" --parent PARENT --pairs {args.pairs}" if args.parent else ""),
        "machine": {"nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0], "numpy": np.__version__},
        "calls": time_calls(args.reps),
    }
    if args.parent is not None:
        parent = args.parent.resolve()
        before, after = payloads(parent), payloads(ROOT)
        doc["payloads"] = {"criteria": len(after), "identical": before == after, "parent": before, "change": after}
        doc["end_to_end"] = end_to_end(parent, args.pairs, TRACED)
    text = json.dumps(doc, indent=1)
    args.out.write_text(text + "\n")
    print(text)


if __name__ == "__main__":
    main()
