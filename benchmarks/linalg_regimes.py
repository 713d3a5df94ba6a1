"""Exact linear algebra in its two regimes: the rank searches and the large solves.

    PYTHONPATH=src python3 benchmarks/linalg_regimes.py

Run it from the root of a checkout.  It prints one JSON object with two parts.

`searches`: every rank search (one `_SpanSearch.first(r)` call) that the
rank-axioms and bias-prank-consistency criteria make at workers=1, grouped by
criterion.  Each batch is timed twice on the same inputs: by the
prefix-shared search, and by the plain loop it replaced, one `solve_mod` per
combination in `itertools.combinations` order until the first hit.  The two
must return the same combination and solution.

`solves`: the `rref_mod` inputs of the dual-path-extension criterion (its
weak-space and extension systems over F_7) with both sides above `PANEL`,
each timed by `rref_mod` (the panel route) and by the plain Gauss-Jordan
loop, which must agree.  Times are the best of `--reps` runs (default 3).
"""

from __future__ import annotations

import argparse
import itertools
import json
import time

import numpy as np

from rankforge import linalg, rank, weakpoly
from rankforge.acceptance import run_criterion
from rankforge.linalg import PANEL, as_mod_array, rref_mod, solve_mod


def best_of(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def plain_search(blocks, target, p: int, r: int, tried: list | None = None):
    """The search as it was: one solve_mod per combination until the first hit."""
    for combo in itertools.combinations(range(len(blocks)), r):
        if tried is not None:
            tried.append(combo)
        A = np.concatenate([blocks[i] for i in combo], axis=1)
        x, _ = solve_mod(A, target, p)
        if x is not None:
            return combo, x
    return None


def same_hit(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return a[0] == b[0] and np.array_equal(a[1], b[1])


def searches(reps: int) -> dict:
    out = {}
    first = rank._SpanSearch.first
    for name in ("rank-axioms", "bias-prank-consistency"):
        batch = []

        def recording(self, r):
            batch.append(([self.block(i) for i in range(self.count)], self.target, self.p, r))
            return first(self, r)

        rank._SpanSearch.first = recording
        try:
            run_criterion(name, workers=1)
        finally:
            rank._SpanSearch.first = first

        def shared():
            # a fresh search per call, so block packing is timed too
            return [first(rank._SpanSearch(B, len(B), lambda block: block, t, p), r) for B, t, p, r in batch]

        def plain(tried=None):
            return [plain_search(B, t, p, r, tried) for B, t, p, r in batch]

        tried: list = []
        expect = plain(tried)
        if not all(same_hit(a, b) for a, b in zip(shared(), expect)):
            raise SystemExit(f"{name}: the two searches disagree")
        out[name] = {
            "searches": len(batch),
            "hits": sum(h is not None for h in expect),
            "plain_loop_solves": len(tried),
            "prefix_shared_s": best_of(shared, reps),
            "plain_loop_s": best_of(plain, reps),
        }
    return out


def solves(reps: int) -> list[dict]:
    inputs = []
    original = linalg.rref_mod

    def recording(A, p):
        if min(np.shape(A)) > PANEL:
            inputs.append((np.array(A, dtype=np.int64), p))
        return original(A, p)

    for m in (linalg, weakpoly):  # solve_mod and rref_extend_mod call linalg's
        m.rref_mod = recording
    try:
        run_criterion("dual-path-extension", workers=1)
    finally:
        for m in (linalg, weakpoly):
            m.rref_mod = original
    rows = []
    for A, p in inputs:
        R, pivots, rank_ = rref_mod(A, p)
        M = as_mod_array(A, p)
        if linalg._gauss_jordan(M, p) != pivots or not np.array_equal(M, R):
            raise SystemExit(f"{A.shape}: the two routes disagree")
        rows.append(
            {
                "shape": list(A.shape),
                "p": p,
                "rank": rank_,
                "panel_s": best_of(lambda: rref_mod(A, p), reps),
                "plain_loop_s": best_of(lambda: linalg._gauss_jordan(as_mod_array(A, p), p), reps),
            }
        )
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=3)
    args = parser.parse_args()
    print(json.dumps({"searches": searches(args.reps), "solves": solves(args.reps)}, indent=1))


if __name__ == "__main__":
    main()
