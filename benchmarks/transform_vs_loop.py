"""Whole-box evaluation and counting: the transform's three layouts, here and
in a checkout of the parent commit.

    PYTHONPATH=src python3 benchmarks/transform_vs_loop.py [--parent DIR
        [--pairs 10]] [--out BENCH_box_counts.json]

Run it from the root of a checkout.  It writes one JSON object to --out and
prints it.  Each side is measured in its own child processes, which import
rankforge from that checkout's `src` and nothing else.

`cases`: a monomial, a sparse polynomial (three terms) and a random cubic on
boxes over p <= 5 up to 10^6 points, over p = 31, 101 and 1009, and on both
sides of the route choice (rows of p^(n-1) entries just below and above 2^11,
and p = 37 against p = 41, the last p whose stage fits 16 bits and the first
past it).  For each: the route `Box.eval_poly` takes here (`packed`,
`stages`, `matmul` or `horner`), the best time of the whole-box `eval_poly`
and of `histogram_of_poly` on each side, and, here only, the best time of
each layout on its own (`Box._eval_transform`, the matmul;
`Box._eval_stages` where p <= 37; `Box._eval_packed` where p = 2, whose
words are unpacked only for the hash).  The sha256 of the values must be
equal on both sides and for every layout, and so must the histograms.

`f2_boxes`: `bias` of a random cubic over F_2^20 to F_2^26 (the largest box
the default budget admits), each box on each side in a fresh child process:
the best time of the call and the child's peak RSS, with nothing else
evaluated in that child.  The counts must be equal on both sides.

`acceptance`: every whole-box reduction of the 14 criteria (each call of
`histogram_of_poly`, `value_distribution` and `enumerate_points`) and every
whole-box `Box.eval_poly` call made outside them, recorded while they run,
each timed (best of 3) on both sides, summed by the route it takes here; the
per-call hashes must be equal.

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
F2_BOXES = (20, 21, 22, 23, 24, 25, 26)


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
    packs = getattr(domain, "_packs", None)  # absent in the parent
    if packs and packs(bx.field.p, bx.n):
        return "packed"
    return "stages" if domain._takes_stages(bx.field.p, bx.n) else "matmul"


def record_reductions(run) -> list[dict]:
    """Run `run()` and record every whole-box reduction it calls, and every
    whole-box eval_poly call made outside one, in call order; each is timed
    again (best of 3) after it first returns."""
    from rankforge import analytic, geometry
    from rankforge.domain import Box, box

    calls = []
    inside = [0]

    def record(op, bx, fn, digest):
        result = fn()
        calls.append({"op": op, "box": f"F_{bx.field.p}^{bx.n}", "route": route(bx), "sha256": sha(digest(result)), "s": best_of([fn], 3)[0]})
        return result

    def reduction(op, fn, digest):
        def wrapper(arg, *rest, **kw):
            inside[0] += 1
            try:
                return record(op, box(arg.field, arg.n), lambda: fn(arg, *rest, **kw), digest)
            finally:
                inside[0] -= 1

        return wrapper

    eval_poly = Box.eval_poly

    def recording(self, P, indices=None):
        if indices is None and not inside[0]:
            return record("eval_poly", self, lambda: eval_poly(self, P), lambda v: v)
        return eval_poly(self, P, indices)

    originals = {
        analytic.histogram_of_poly: reduction("histogram_of_poly", analytic.histogram_of_poly, lambda h: h.counts),
        analytic.value_distribution: reduction("value_distribution", analytic.value_distribution, lambda v: v.counts),
        geometry.enumerate_points: reduction("enumerate_points", geometry.enumerate_points, lambda X: X.indices),
    }
    # the package imports these by name, so replace every binding of them
    package = [m for name, m in sys.modules.items() if name == "rankforge" or name.startswith("rankforge.")]
    bound = [(m, key, value) for m in package for key, value in vars(m).items() if any(value is f for f in originals)]
    for m, key, value in bound:
        setattr(m, key, originals[value])
    Box.eval_poly = recording
    try:
        run()
    finally:
        Box.eval_poly = eval_poly
        for m, key, value in bound:
            setattr(m, key, value)
    return calls


def measure(layouts: bool) -> dict:
    """One side's numbers; `layouts` also times each layout on its own."""
    from rankforge.acceptance import CRITERIA, run_criterion
    from rankforge.analytic import histogram_of_poly
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
            row["histogram_sha256"] = sha(histogram_of_poly(P).counts)
            fns = {"eval_poly_s": lambda: bx.eval_poly(P), "histogram_s": lambda: histogram_of_poly(P)}
            layout_fns = {}
            if layouts:
                row["route"] = route(bx)
                layout_fns["matmul_s"] = lambda: bx._eval_transform(P)
                if p <= 37:
                    layout_fns["stages_s"] = lambda: bx._eval_stages(P)
                if p == 2 and n >= 2:
                    layout_fns["packed_s"] = lambda: bx._eval_packed(P)
                for name, fn in layout_fns.items():
                    values = fn()
                    if sha(bx._unpack(values) if name == "packed_s" else values) != row["sha256"]:
                        raise SystemExit(f"F_{p}^{n} {kind}: the layouts disagree")
            fns.update(layout_fns)
            row.update(zip(fns, best_of(list(fns.values()), reps)))
            cases.append(row)
    return {"cases": cases, "acceptance": record_reductions(lambda: [run_criterion(name) for name in CRITERIA])}


def f2_box(n: int) -> dict:
    """`bias` of a random cubic over F_2^n, alone in this process."""
    import resource

    from rankforge.analytic import bias
    from rankforge.gf import PrimeField
    from rankforge.poly import random_poly

    P = random_poly(PrimeField(2), n, 3, random.Random(n))
    result = bias(P)
    return {
        "box": f"F_2^{n}",
        "terms": len(P.terms),
        "counts": list(result.histogram.counts),
        "bias_s": best_of([lambda: bias(P)], 3)[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def child(src: Path, args: list[str]) -> dict:
    env = {**os.environ, "PYTHONPATH": str(src)}
    # Linux carries a process's peak RSS across exec, so a direct child would
    # report this process's peak as its own; a shell that forks first does not
    cmd = ["sh", "-c", '"$@"; exit $?', "sh", sys.executable, __file__, *args]
    res = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=1800, check=True)
    return json.loads(res.stdout)


def side(src: Path, layouts: bool) -> dict:
    doc = child(src, ["--side-only"] + (["--layouts"] if layouts else []))
    doc["f2_boxes"] = [child(src, ["--f2-box", str(n)]) for n in F2_BOXES]
    return doc


def merge(change: dict, parent: dict | None) -> dict:
    cases = []
    for i, row in enumerate(change["cases"]):
        row = dict(row)
        if parent is not None:
            other = parent["cases"][i]
            if (other["sha256"], other["histogram_sha256"]) != (row["sha256"], row["histogram_sha256"]):
                raise SystemExit(f"{row['box']} {row['poly']}: the parent and the change disagree")
            row["parent_eval_poly_s"] = other["eval_poly_s"]
            row["parent_histogram_s"] = other["histogram_s"]
        timed = [name for name in ("packed", "stages", "matmul") if f"{name}_s" in row]
        if len(timed) > 1:
            row["faster_layout"] = min(timed, key=lambda name: row[f"{name}_s"])
            row["route_is_faster_layout"] = row["faster_layout"] == row["route"]
        cases.append(row)
    f2_boxes = []
    for i, row in enumerate(change["f2_boxes"]):
        row = dict(row)
        if parent is not None:
            other = parent["f2_boxes"][i]
            if other["counts"] != row["counts"]:
                raise SystemExit(f"{row['box']}: the parent and the change disagree")
            row["parent_bias_s"] = other["bias_s"]
            row["parent_peak_rss_mb"] = other["peak_rss_mb"]
        f2_boxes.append(row)
    by_route: dict = {}
    for i, call in enumerate(change["acceptance"]):
        agg = by_route.setdefault(call["route"], {"calls": 0, "s": 0.0, "parent_s": 0.0, "ops": set(), "boxes": set()})
        agg["calls"] += 1
        agg["s"] += call["s"]
        agg["ops"].add(call["op"])
        agg["boxes"].add(call["box"])
        if parent is not None:
            other = parent["acceptance"][i]
            if (other["op"], other["box"], other["sha256"]) != (call["op"], call["box"], call["sha256"]):
                raise SystemExit(f"acceptance call {i}: the parent and the change disagree")
            agg["parent_s"] += other["s"]
    for agg in by_route.values():
        agg["ops"] = sorted(agg["ops"])
        agg["boxes"] = sorted(agg["boxes"])
        if parent is None:
            del agg["parent_s"]
    layout_rows = [r for r in cases if "route_is_faster_layout" in r]
    return {
        "cases": cases,
        "route_is_faster_layout": f"{sum(r['route_is_faster_layout'] for r in layout_rows)} of {len(layout_rows)}",
        "route_loses": [f"{r['box']} {r['poly']}" for r in layout_rows if not r["route_is_faster_layout"]],
        "f2_boxes": f2_boxes,
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
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_box_counts.json")
    ap.add_argument("--side-only", action="store_true", help="print this side's numbers as JSON and write nothing")
    ap.add_argument("--layouts", action="store_true", help="with --side-only: also time each layout")
    ap.add_argument("--f2-box", type=int, help="print one f2_boxes row for F_2^N as JSON and write nothing")
    args = ap.parse_args()

    if args.side_only:
        print(json.dumps(measure(args.layouts)))
        return
    if args.f2_box is not None:
        print(json.dumps(f2_box(args.f2_box)))
        return
    parent = side(args.parent.resolve() / "src", False) if args.parent else None
    change = side(ROOT / "src", True)
    doc = {
        "command": "python3 benchmarks/transform_vs_loop.py" + (f" --parent PARENT --pairs {args.pairs}" if args.parent else ""),
        "machine": {"nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0], "numpy": np.__version__},
        "route_rule": "Horner when n = 1, packed when p = 2, stages when p (p-1)^2 < 2^16 and p^(n-1) >= 2^11, else matmul",
        **merge(change, parent),
    }
    if args.parent and args.pairs:
        doc.update(end_to_end_runs(args.parent.resolve(), args.pairs))
    text = json.dumps(doc, indent=1)
    args.out.write_text(text + "\n")
    print(text)


if __name__ == "__main__":
    main()
