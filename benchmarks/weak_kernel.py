"""The weak space as a shrinking kernel and bilinear certificates built on
read, here and in a checkout of the parent commit, and end-to-end runs
against that checkout.

    PYTHONPATH=src python3 benchmarks/weak_kernel.py [--reps 15]
        [--parent DIR --pairs 10] [--out BENCH_weak_kernel.json]

Run it from the root of a checkout.  It writes one JSON object to --out and
prints it.

`parts`: two calls, each timed over --reps runs (best and median), with a
sha256 of what it returned.
- `weak_space F_7^4`: dual-path-extension's `weak_space(X, 1)` on the 385
  points of the F_7^4 variety (832 lines, 4,160 constraint rows); the hash is
  of the basis bytes.
- `bilinear route`: the nonzero two-block `partition_rank` calls of
  bias-prank-consistency (no factor dictionary), recorded while it runs,
  timed as one batch that reads no certificate, as the criterion does; the
  hash is of every value, `per_r` and certificate pair, read after the
  timing.
With --parent the parts are also timed on the parent's `src`, by this file
run with `--parts-only` in a child process, and the hashes must be equal.

`end_to_end` (only with --parent): --pairs seeds per workload of
`perfbench/run.py --seconds 0 --trace 0` (seeds 1 to --pairs, then the next
--pairs seeds held out), each seed run once in the parent checkout and once
here, the side that runs first alternating by seed; then one traced run
(`--trace 1`, seed 1) of acceptance-serial per side.  `claim` reads
acceptance-serial's `cpu_s` and `wall_s` off each set of pairs: the pairs
the change wins, and whether the median fell by more than the parent's
interquartile range.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

from rank_layer import recorded  # noqa: E402

from rankforge import rank  # noqa: E402
from rankforge.explicit import ExplicitVariety  # noqa: E402
from rankforge.gf import PrimeField  # noqa: E402
from rankforge.weakpoly import weak_space  # noqa: E402

TRACED = (
    "poly.MultiPoly.constructed",
    "rank.partition_rank.calls",
    "rank.partition_rank.self_s",
    "linalg.rref_mod.large.calls",
    "linalg.rref_mod.large.cells",
    "weakpoly.weak_space.rows",
    "weakpoly.weak_space.self_s",
    "acceptance.dual-path-extension.wall_s",
    "acceptance.bias-prank-consistency.wall_s",
    "acceptance.rank-axioms.wall_s",
)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def timed(fn, reps: int) -> dict:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return {"s": min(times), "median_s": statistics.median(times)}


def parts(reps: int) -> dict:
    X = ExplicitVariety(2, 2, PrimeField(7)).points()
    ws = timed(lambda: weak_space(X, 1), reps)
    basis = weak_space(X, 1).basis
    batch = [
        (a, k)
        for a, k in recorded(rank.partition_rank, ["bias-prank-consistency"])["bias-prank-consistency"]
        if a[0].d == 2 and not a[0].is_zero()  # the criterion passes no factor dictionary
    ]
    route = timed(lambda: [rank.partition_rank(*a, **k) for a, k in batch], reps)
    results = [rank.partition_rank(*a, **k) for a, k in batch]
    read = [
        (
            r.value,
            r.per_r,
            None if r.certificate is None else [(J, sorted(Q.terms.items()), sorted(R.terms.items())) for J, Q, R in r.certificate.pairs],
        )
        for r in results
    ]
    return {
        "weak_space F_7^4": {**ws, "dim": len(basis), "sha256": hashlib.sha256(basis.tobytes()).hexdigest()},
        "bilinear route": {"calls": len(batch), **route, "sha256": sha(repr(read))},
    }


def parent_parts(parent: Path, reps: int) -> dict:
    env = {**os.environ, "PYTHONPATH": str(parent / "src")}
    res = subprocess.run(
        [sys.executable, __file__, "--parts-only", "--reps", str(reps)], env=env, capture_output=True, text=True, timeout=600, check=True
    )
    return json.loads(res.stdout)


def claim(pairs: dict) -> dict:
    """acceptance-serial cpu_s and wall_s: pairs the change wins, and median gain against the parent's IQR."""
    run = pairs["acceptance-serial"]
    out = {}
    for name in ("cpu_s", "wall_s"):
        parent, change = run["parent"][name], run["change"][name]
        gain = parent["median"] - change["median"]
        out[name] = {
            "parent_median": parent["median"],
            "change_median": change["median"],
            "rel_change": -gain / parent["median"],
            "parent_iqr": parent["q3"] - parent["q1"],
            "change_better_pairs": run["change_better_pairs"][name],
            "gain_exceeds_parent_iqr": gain > parent["q3"] - parent["q1"],
        }
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--reps", type=int, default=15)
    ap.add_argument("--parent", type=Path, help="root of a checkout of the parent commit")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_weak_kernel.json")
    ap.add_argument("--parts-only", action="store_true", help="print the parts as JSON and write nothing")
    args = ap.parse_args()

    if args.parts_only:
        print(json.dumps(parts(args.reps)))
        return
    doc = {
        "command": f"python3 benchmarks/weak_kernel.py --reps {args.reps}" + (f" --parent PARENT --pairs {args.pairs}" if args.parent else ""),
        "machine": {"nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0], "numpy": np.__version__},
        "parts": {"change": parts(args.reps)},
    }
    if args.parent is not None:
        parent = args.parent.resolve()
        doc["parts"]["parent"] = parent_parts(parent, args.reps)
        for name, part in doc["parts"]["change"].items():
            if part["sha256"] != doc["parts"]["parent"][name]["sha256"]:
                raise SystemExit(f"{name}: the parent and the change disagree")

        sys.path.insert(0, str(ROOT / "tests"))
        from geometry_growth import end_to_end

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
