"""Whole-box evaluation: the transform's two layouts, here and in a checkout
of the parent commit.

    PYTHONPATH=src python3 benchmarks/transform_vs_loop.py [--parent DIR
        [--pairs 10]] [--out BENCH_box_transform.json]

Run it from the root of a checkout.  It writes one JSON object to --out and
prints it.  Each side is measured in its own child process, which imports
rankforge from that checkout's `src` and nothing else.

`cases`: a monomial, a sparse polynomial (three terms) and a random cubic on
boxes over p <= 5 up to 10^6 points, over p = 31, 101 and 1009, and on both
sides of the route choice (rows of p^(n-1) entries just below and above 2^11,
and p = 37 against p = 41, the last p whose stage fits 16 bits and the first
past it).  For each: the route `Box.eval_poly` takes here (`stages`,
`matmul` or `horner`), the best time of the whole-box `eval_poly` on each
side, and, here only, the best time of each layout on its own
(`Box._eval_transform`, the matmul, and `Box._eval_stages` where p <= 37).
The sha256 of the values must be equal on both sides and for both layouts.

`acceptance`: every whole-box `Box.eval_poly` call of the 14 criteria,
recorded while they run, each timed (best of 3) on both sides, summed by the
route it takes here; the per-call value hashes must be equal.

`end_to_end` (only with --pairs): --pairs seeds per workload of
`perfbench/run.py --seconds 0 --trace 0` (seeds 1 to --pairs, then the next
--pairs seeds held out), each seed run once in the parent checkout and once
here, the side that runs first alternating by seed; then one traced run
(`--trace 1`, seed 1) of each workload per side.  `claim` reads
bigbox-threads' `wall_s` off each set of pairs: the pairs the change wins,
and whether the median fell by more than the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

TRACED = (
    "domain.eval_poly.calls",
    "domain.eval_poly.self_s",
    "analytic.histogram_of_poly.self_s",
    "analytic.value_distribution.self_s",
    "geometry.enumerate_points.self_s",
    "explicit.explicit_extension.self_s",
    "rank.partition_rank.self_s",
    "acceptance.dual-path-extension.wall_s",
    "acceptance.bias-prank-consistency.wall_s",
)

# (p, n): every p <= 5 box up to 10^6 points and the bigbox workload's boxes,
# then pairs of boxes on either side of the crossover
CASES = (
    (2, 3), (3, 2), (2, 9), (2, 14), (3, 10), (5, 7), (2, 20), (3, 12), (5, 8),
    (2, 11), (2, 12), (3, 7), (3, 8), (5, 5), (5, 6), (7, 4), (7, 5), (13, 3), (13, 4),
    (31, 3), (31, 4), (37, 3), (37, 4), (41, 3), (41, 4),
    (101, 2), (101, 3), (1009, 2),
)  # fmt: skip
KINDS = ("monomial", "sparse", "cubic")


def best_of(fns: list, reps: int) -> list[float]:
    """The best time of each function over reps rounds, the functions
    interleaved within a round so that drift of the host hits them alike."""
    times = [[] for _ in fns]
    for _ in range(reps):
        for fn, ts in zip(fns, times):
            t0 = time.perf_counter()
            fn()
            ts.append(time.perf_counter() - t0)
    return [min(ts) for ts in times]


def sha(values: np.ndarray) -> str:
    return hashlib.sha256(np.asarray(values, dtype=np.int64).tobytes()).hexdigest()[:16]


def make_poly(field, n: int, kind: str, rng: random.Random):
    from rankforge.poly import MultiPoly, random_poly

    p = field.p
    if kind == "monomial":
        return MultiPoly.variable(field, n, 0)
    if kind == "sparse":  # three terms with random exponents below p
        return MultiPoly(field, n, {tuple(rng.randrange(p) for _ in range(n)): rng.randrange(1, p) for _ in range(3)})
    return random_poly(field, n, 3, rng)


def route(bx) -> str:
    from rankforge import domain

    if bx.n == 1:
        return "horner"
    takes_stages = getattr(domain, "_takes_stages", None)  # absent in the parent
    return "stages" if takes_stages and takes_stages(bx.field.p, bx.n) else "matmul"


def measure(layouts: bool) -> dict:
    """One side's numbers; `layouts` also times the two layouts on their own."""
    from rankforge.acceptance import CRITERIA, run_criterion
    from rankforge.domain import Box
    from rankforge.gf import PrimeField

    rng = random.Random(0)
    cases = []
    for p, n in CASES:
        F = PrimeField(p)
        bx = Box(F, n)
        reps = 5 if p**n > 10**5 else 30
        for kind in KINDS:
            P = make_poly(F, n, kind, rng)
            row = {"box": f"F_{p}^{n}", "poly": kind, "terms": len(P.terms), "sha256": sha(bx.eval_poly(P))}
            fns = {"eval_poly_s": lambda: bx.eval_poly(P)}
            if layouts:
                row["route"] = route(bx)
                fns["matmul_s"] = lambda: bx._eval_transform(P)
                if p <= 37:
                    fns["stages_s"] = lambda: bx._eval_stages(P)
                if any(sha(fn()) != row["sha256"] for fn in fns.values()):
                    raise SystemExit(f"F_{p}^{n} {kind}: the layouts disagree")
            row.update(zip(fns, best_of(list(fns.values()), reps)))
            cases.append(row)

    calls = []
    eval_poly = Box.eval_poly

    def recording(self, P, indices=None):
        if indices is None:
            calls.append(
                {
                    "box": f"F_{self.field.p}^{self.n}",
                    "route": route(self),
                    "sha256": sha(eval_poly(self, P)),
                    "s": best_of([lambda: eval_poly(self, P)], 3)[0],
                }
            )
        return eval_poly(self, P, indices)

    Box.eval_poly = recording
    try:
        for name in CRITERIA:
            run_criterion(name)
    finally:
        Box.eval_poly = eval_poly
    return {"cases": cases, "acceptance": calls}


def side(src: Path, layouts: bool) -> dict:
    env = {**os.environ, "PYTHONPATH": str(src)}
    cmd = [sys.executable, __file__, "--side-only"] + (["--layouts"] if layouts else [])
    res = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=1800, check=True)
    return json.loads(res.stdout)


def merge(change: dict, parent: dict | None) -> dict:
    cases = []
    for i, row in enumerate(change["cases"]):
        row = dict(row)
        if parent is not None:
            other = parent["cases"][i]
            if other["sha256"] != row["sha256"]:
                raise SystemExit(f"{row['box']} {row['poly']}: the parent and the change disagree")
            row["parent_eval_poly_s"] = other["eval_poly_s"]
        if "stages_s" in row:
            row["faster_layout"] = "stages" if row["stages_s"] < row["matmul_s"] else "matmul"
            row["route_is_faster_layout"] = row["faster_layout"] == row["route"]
        cases.append(row)
    by_route: dict = {}
    for i, call in enumerate(change["acceptance"]):
        agg = by_route.setdefault(call["route"], {"calls": 0, "s": 0.0, "parent_s": 0.0, "boxes": set()})
        agg["calls"] += 1
        agg["s"] += call["s"]
        agg["boxes"].add(call["box"])
        if parent is not None:
            other = parent["acceptance"][i]
            if other["sha256"] != call["sha256"] or other["box"] != call["box"]:
                raise SystemExit(f"acceptance call {i}: the parent and the change disagree")
            agg["parent_s"] += other["s"]
    for agg in by_route.values():
        agg["boxes"] = sorted(agg["boxes"])
        if parent is None:
            del agg["parent_s"]
    layout_rows = [r for r in cases if "route_is_faster_layout" in r]
    return {
        "cases": cases,
        "route_is_faster_layout": f"{sum(r['route_is_faster_layout'] for r in layout_rows)} of {len(layout_rows)}",
        "route_loses": [f"{r['box']} {r['poly']}" for r in layout_rows if not r["route_is_faster_layout"]],
        "acceptance": {"whole_box_calls": len(change["acceptance"]), "by_route": by_route},
    }


def claim(pairs: dict) -> dict:
    """bigbox-threads wall_s: pairs the change wins, and median gain against the parent's IQR."""
    run = pairs["bigbox-threads"]
    parent, change = run["parent"]["wall_s"], run["change"]["wall_s"]
    gain = parent["median"] - change["median"]
    return {
        "parent_median": parent["median"],
        "change_median": change["median"],
        "rel_change": -gain / parent["median"],
        "parent_iqr": parent["q3"] - parent["q1"],
        "change_better_pairs": run["change_better_pairs"]["wall_s"],
        "gain_exceeds_parent_iqr": gain > parent["q3"] - parent["q1"],
    }


def end_to_end_runs(parent: Path, pairs: int) -> dict:
    from geometry_growth import end_to_end, run_perfbench

    seeds = {
        f"seeds 1-{pairs}": end_to_end(parent, pairs, TRACED),
        f"seeds {pairs + 1}-{2 * pairs} (held out)": end_to_end(parent, pairs, TRACED, first_seed=pairs + 1),
    }
    traced = {}
    for side_name, checkout in (("parent", parent), ("change", ROOT)):
        run = run_perfbench(checkout, "bigbox-threads", 1, 1)
        traced[side_name] = {"correct": run["correct"], **{k: run[k] for k in TRACED[:5]}}
    return {
        "end_to_end": seeds,
        "traced_bigbox_threads": traced,
        "claim": {label: claim(run["pairs"]) for label, run in seeds.items()},
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, help="root of a checkout of the parent commit")
    ap.add_argument("--pairs", type=int, default=0, help="with --parent: end-to-end pairs per seed set")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_box_transform.json")
    ap.add_argument("--side-only", action="store_true", help="print this side's numbers as JSON and write nothing")
    ap.add_argument("--layouts", action="store_true", help="with --side-only: also time each layout")
    args = ap.parse_args()

    if args.side_only:
        print(json.dumps(measure(args.layouts)))
        return
    parent = side(args.parent.resolve() / "src", False) if args.parent else None
    change = side(ROOT / "src", True)
    doc = {
        "command": "python3 benchmarks/transform_vs_loop.py" + (f" --parent PARENT --pairs {args.pairs}" if args.parent else ""),
        "machine": {"nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0], "numpy": np.__version__},
        "route_rule": "stages when p (p-1)^2 < 2^16 and p^(n-1) >= 2^11, Horner when n = 1, else matmul",
        **merge(change, parent),
    }
    if args.parent and args.pairs:
        doc.update(end_to_end_runs(args.parent.resolve(), args.pairs))
    text = json.dumps(doc, indent=1)
    args.out.write_text(text + "\n")
    print(text)


if __name__ == "__main__":
    main()
