"""The span search against the tuple walk it replaced.  Options, output and
the end-to-end runs: see ab.py.

`quadrics`: `schmidt_rank(P, 4)` of 15 homogeneous quadrics over F_3 in 4
variables, drawn from `random.Random(1)` with one `randrange(3)` coefficient
per degree-2 monomial (x_i x_j, i <= j, in that order).  Each is decided by
the span search (`span_s`) and by the tuple walk it replaced (`tuple_first`
in tests/test_rank.py, patched in as `_SpanSearch.first`; `tuple_s`), one
run each, since a rank-3 quadric takes the tuple walk about 15 s.

`criteria`: every `schmidt_rank` and `partition_rank` call that the
rank-axioms and bias-prank-consistency criteria make, recorded while they
run, then timed as one batch per criterion and function by each walk.

Both parts require, call by call, the same `value`, `per_r` and
`exhaustive` from the two walks, and certificates that verify.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path
from unittest.mock import patch

sys.path.insert(0, str(Path(__file__).resolve().parent))

import ab  # noqa: E402
from test_rank import tuple_first  # noqa: E402

from rankforge import rank  # noqa: E402
from rankforge.gf import PrimeField  # noqa: E402
from rankforge.poly import MultilinearForm, MultiPoly  # noqa: E402

CRITERIA = ("rank-axioms", "bias-prank-consistency")


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


def check(res, obj) -> None:
    if res.certificate is not None:
        if isinstance(obj, MultilinearForm):
            res.certificate.verify_partition(obj)
        else:
            res.certificate.verify_schmidt(obj)


def by_tuples(fn):
    def run():
        with patch.object(rank._SpanSearch, "first", tuple_first):
            return fn()

    return run


def same(objs):
    """Whether two walks' results on objs agree call by call; checks every certificate."""

    def agree(spans, tuples):
        for a, b, obj in zip(spans, tuples, objs, strict=True):
            check(a, obj)
            check(b, obj)
        return all((a.value, a.per_r, a.exhaustive) == (b.value, b.per_r, b.exhaustive) for a, b in zip(spans, tuples))

    return agree


def walks(name: str, fn, objs, reps: int) -> tuple[dict, list]:
    return ab.compare(name, ("span", fn), ("tuple", by_tuples(fn)), same(objs), reps)


def quadric_rows(reps: int) -> dict:
    rows = []
    for k, P in enumerate(quadrics()):
        row, (res,) = walks(f"quadric {k}", lambda: [rank.schmidt_rank(P, 4)], [P], 1)
        rows.append({**row, "poly": str(P), "value": res.value})
    return {"calls": rows, "span_s": sum(r["span_s"] for r in rows), "tuple_s": sum(r["tuple_s"] for r in rows)}


def criteria(reps: int) -> dict:
    out = {criterion: {} for criterion in CRITERIA}
    for fn in (rank.schmidt_rank, rank.partition_rank):
        for criterion, batch in ab.criterion_calls(fn, CRITERIA).items():

            def run():
                return [fn(*call.args, **call.kwargs) for call in batch]

            row, _ = walks(f"{criterion} {fn.__name__}", run, [next(iter(call.arguments.values())) for call in batch], reps)
            out[criterion][fn.__name__] = {"calls": len(batch), "span_s": row["span_s"], "tuple_s": row["tuple_s"]}
    return out


if __name__ == "__main__":
    ab.main(cases={"quadrics": quadric_rows, "criteria": criteria})
