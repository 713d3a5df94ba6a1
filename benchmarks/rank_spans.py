"""The span search against the tuple walk it replaced, and end-to-end runs
against a checkout of the parent commit.

    PYTHONPATH=src python3 benchmarks/rank_spans.py [--reps 3]
        [--parent DIR --pairs 10] [--out BENCH_rank_spans.json]

Run it from the root of a checkout.  It writes one JSON object to --out and
prints it.

`quadrics`: `schmidt_rank(P, 4)` of 15 homogeneous quadrics over F_3 in 4
variables, drawn from `random.Random(1)` with one `randrange(3)` coefficient
per degree-2 monomial (x_i x_j, i <= j, in that order).  Each is decided by
the span search (`span_s`, best of --reps runs) and by the tuple walk it
replaced (`tuple_first` in tests/test_rank.py, patched in as
`_SpanSearch.first`; `tuple_s`, one run, since a rank-3 quadric takes it
about 15 s).

`criteria`: every `schmidt_rank` and `partition_rank` call that the
rank-axioms and bias-prank-consistency criteria make, recorded while they
run, then timed as one batch per criterion and function by each walk (best
of --reps runs).

Both parts require, call by call, the same `value`, `per_r` and
`exhaustive` from the two walks, and certificates that verify.

`end_to_end` (only with --parent): --pairs seeds per workload of
`perfbench/run.py --seconds 0 --trace 0` (seeds 1 to --pairs, then the next
--pairs seeds held out), each seed run once in the parent checkout and once
here, the side that runs first alternating by seed; then one traced run
(`--trace 1`, seed 1) of acceptance-serial per side.  `claim` reads the
acceptance-serial wall time off each set of pairs: the pairs the change wins,
and whether the median fell by more than the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from pathlib import Path
from unittest.mock import patch

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "benchmarks"))

from geometry_growth import end_to_end  # noqa: E402
from rank_layer import recorded  # noqa: E402
from test_rank import tuple_first  # noqa: E402

from rankforge import rank  # noqa: E402
from rankforge.gf import PrimeField  # noqa: E402
from rankforge.poly import MultilinearForm, MultiPoly  # noqa: E402

CRITERIA = ("rank-axioms", "bias-prank-consistency")
TRACED = (
    "rank.schmidt_rank.calls",
    "rank.schmidt_rank.self_s",
    "rank.partition_rank.calls",
    "rank.partition_rank.self_s",
    "rank.solves",
    "runtime.budget.charges",
    "runtime.budget.estimated_steps",
    "acceptance.rank-axioms.wall_s",
    "acceptance.bias-prank-consistency.wall_s",
)


def quadrics() -> list[MultiPoly]:
    F3, n = PrimeField(3), 4
    rng = random.Random(1)
    out = []
    for _ in range(15):
        terms = {}
        for i in range(n):
            for j in range(i, n):
                c = rng.randrange(3)
                if c:
                    e = [0] * n
                    e[i] += 1
                    e[j] += 1
                    terms[tuple(e)] = c
        out.append(MultiPoly(F3, n, terms))
    return out


def timed(fn, reps: int) -> tuple[float, object]:
    times, out = [], None
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return min(times), out


def by_tuples(fn, reps: int) -> tuple[float, object]:
    with patch.object(rank._SpanSearch, "first", tuple_first):
        return timed(fn, reps)


def check(res, obj) -> None:
    if res.certificate is not None:
        if isinstance(obj, MultilinearForm):
            res.certificate.verify_partition(obj)
        else:
            res.certificate.verify_schmidt(obj)


def same(spans, tuples, objs, what: str) -> None:
    for a, b, obj in zip(spans, tuples, objs, strict=True):
        if (a.value, a.per_r, a.exhaustive) != (b.value, b.per_r, b.exhaustive):
            raise SystemExit(f"{what}: the span search and the tuple walk disagree on {obj}")
        check(a, obj)
        check(b, obj)


def time_quadrics(reps: int) -> list[dict]:
    rows = []
    for k, P in enumerate(quadrics()):
        span_s, a = timed(lambda: rank.schmidt_rank(P, 4), reps)
        tuple_s, b = by_tuples(lambda: rank.schmidt_rank(P, 4), 1)
        same([a], [b], [P], f"quadric {k}")
        rows.append({"quadric": k, "poly": str(P), "value": a.value, "span_s": span_s, "tuple_s": tuple_s})
    return rows


def time_criteria(reps: int) -> dict:
    out = {}
    calls = {fn.__name__: recorded(fn, CRITERIA) for fn in (rank.schmidt_rank, rank.partition_rank)}
    for criterion in CRITERIA:
        row = {}
        for name, recorded_calls in calls.items():
            batch = recorded_calls[criterion]
            fn = getattr(rank, name)

            def run():
                return [fn(*a, **k) for a, k in batch]

            span_s, spans = timed(run, reps)
            tuple_s, tuples = by_tuples(run, reps)
            same(spans, tuples, [a[0] for a, _ in batch], f"{criterion} {name}")
            row[name] = {"calls": len(batch), "span_s": span_s, "tuple_s": tuple_s}
        out[criterion] = row
    return out


def claim(pairs: dict) -> dict:
    """acceptance-serial wall_s: pairs the change wins, and median gain against the parent's IQR."""
    run = pairs["acceptance-serial"]
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


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--parent", type=Path, help="root of a checkout of the parent commit")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_rank_spans.json")
    args = ap.parse_args()

    quads = time_quadrics(args.reps)
    doc = {
        "command": f"python3 benchmarks/rank_spans.py --reps {args.reps}" + (f" --parent PARENT --pairs {args.pairs}" if args.parent else ""),
        "machine": {"nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0], "numpy": np.__version__},
        "quadrics": {
            "calls": quads,
            "span_s": sum(r["span_s"] for r in quads),
            "tuple_s": sum(r["tuple_s"] for r in quads),
        },
        "criteria": time_criteria(args.reps),
    }
    if args.parent is not None:
        parent = args.parent.resolve()
        seeds = {
            f"seeds 1-{args.pairs}": end_to_end(parent, args.pairs, TRACED),
            f"seeds {args.pairs + 1}-{2 * args.pairs} (held out)": end_to_end(parent, args.pairs, TRACED, first_seed=args.pairs + 1),
        }
        doc["end_to_end"] = seeds
        doc["claim"] = {label: claim(run["pairs"]) for label, run in seeds.items()}
    text = json.dumps(doc, indent=1)
    args.out.write_text(text + "\n")
    print(text)


if __name__ == "__main__":
    main()
