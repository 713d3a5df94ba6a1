"""Whole-box evaluation: the tensor-product transform against the term loop.

    PYTHONPATH=src python3 benchmarks/transform_vs_loop.py [--skip-acceptance]

Run it from the root of a checkout.  It prints one JSON object with two parts.

`cases`: for a monomial, a sparse polynomial and a random cubic on boxes from
8 points to 10^6 points, and over a large p, the best time of
`Box._eval_transform` and of the term-by-term loop `Box._eval_terms`, the loop
both on a cold box (building the digit table, as a fresh process does) and on
a warm one (table built beforehand).  Both routes are checked to agree.

`acceptance`: every whole-box `Box.eval_poly` call of the acceptance battery,
counted by the route it takes, with the summed times of both
routes on those calls (warm loop), and how many calls the rule that compared
n*p with the sum over terms of (1 + #variables) would have sent to the loop.
"""

from __future__ import annotations

import json
import random
import sys
import time

import numpy as np

from rankforge.domain import Box
from rankforge.gf import PrimeField
from rankforge.poly import MultiPoly, random_poly

# (p, n, kinds); the F_2^20 cubic loop takes about half a minute
CASES = (
    (2, 3, ("monomial", "sparse", "cubic")),
    (3, 2, ("monomial", "sparse", "cubic")),
    (2, 9, ("monomial", "sparse", "cubic")),
    (2, 14, ("monomial", "sparse", "cubic")),
    (3, 10, ("monomial", "sparse", "cubic")),
    (5, 7, ("monomial", "sparse", "cubic")),
    (2, 20, ("monomial", "sparse", "cubic")),
    (31, 4, ("monomial", "sparse")),
    (101, 3, ("monomial", "sparse")),
    (1009, 2, ("monomial", "sparse")),
)


def best_of(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def make_poly(field: PrimeField, n: int, kind: str, rng: random.Random) -> MultiPoly:
    p = field.p
    if kind == "monomial":
        return MultiPoly.variable(field, n, 0)
    if kind == "sparse":  # three terms with random exponents below p
        return MultiPoly(field, n, {tuple(rng.randrange(p) for _ in range(n)): rng.randrange(1, p) for _ in range(3)})
    return random_poly(field, n, 3, rng)


def cases() -> list[dict]:
    rng = random.Random(0)
    rows = []
    for p, n, kinds in CASES:
        F = PrimeField(p)
        for kind in kinds:
            P = make_poly(F, n, kind, rng)
            warm = Box(F, n)
            D = warm.digits()
            assert np.array_equal(warm._eval_transform(P), warm._eval_terms(P, D))
            reps = 1 if p**n * len(P.terms) > 10**7 else 3 if p**n > 10**5 else 100

            def cold_loop():
                bx = Box(F, n)
                bx._eval_terms(P, bx.digits())

            rows.append(
                {
                    "box": f"F_{p}^{n}",
                    "poly": kind,
                    "terms": len(P.terms),
                    "transform_s": best_of(lambda: warm._eval_transform(P), reps),
                    "loop_cold_s": best_of(cold_loop, reps),
                    "loop_warm_s": best_of(lambda: warm._eval_terms(P, D), reps),
                    "digit_table_bytes": D.nbytes,
                }
            )
    return rows


def acceptance_routes() -> dict:
    from rankforge.acceptance import CRITERIA, run_criterion

    calls = []
    eval_poly = Box.eval_poly

    def recording(self, P, indices=None):
        if indices is None:
            p, n = self.field.p, self.n
            D = self.digits()
            calls.append(
                {
                    "transform": n != 1,
                    "term_rule_transform": n == 0 or n * p <= sum(1 + sum(1 for e in m if e) for m in P.terms),
                    "transform_s": best_of(lambda: self._eval_transform(P), 3) if n != 1 else None,
                    "loop_warm_s": best_of(lambda: self._eval_terms(P, D), 3),
                }
            )
        return eval_poly(self, P, indices)

    Box.eval_poly = recording
    try:
        for name in CRITERIA:
            run_criterion(name)
    finally:
        Box.eval_poly = eval_poly
    by_transform = [c for c in calls if c["transform"]]
    term_rule_loop = [c for c in by_transform if not c["term_rule_transform"]]
    return {
        "whole_box_calls": len(calls),
        "transform_calls": len(by_transform),
        "loop_calls": len(calls) - len(by_transform),
        "on_transform_calls": {
            "transform_s": sum(c["transform_s"] for c in by_transform),
            "loop_warm_s": sum(c["loop_warm_s"] for c in by_transform),
            "calls_where_warm_loop_is_faster": sum(c["loop_warm_s"] < c["transform_s"] for c in by_transform),
        },
        "term_rule_loop_calls": {
            "calls": len(term_rule_loop),
            "transform_s": sum(c["transform_s"] for c in term_rule_loop),
            "loop_warm_s": sum(c["loop_warm_s"] for c in term_rule_loop),
            "calls_where_warm_loop_is_faster": sum(c["loop_warm_s"] < c["transform_s"] for c in term_rule_loop),
        },
    }


def main() -> None:
    out = {"cases": cases()}
    if "--skip-acceptance" not in sys.argv[1:]:
        out["acceptance"] = acceptance_routes()
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
