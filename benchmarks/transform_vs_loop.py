"""Whole-box evaluation and counting: the transform's three layouts, here and
in a checkout of the parent commit.  Options, output and the end-to-end runs:
see ab.py.  Every part runs in its own child process on each side, which
imports rankforge from that checkout's `src` and nothing else.

`cases`: a monomial, a sparse polynomial (three terms) and a random cubic on
boxes over p <= 5 up to 10^6 points, over p = 31, 101 and 1009, and on both
sides of the route choice (rows of p^(n-1) entries just below and above 2^11,
and p = 37 against p = 41, the last p whose stage fits 16 bits and the first
past it).  For each: the best time of the whole-box `eval_poly` and of
`histogram_of_poly` (over 10 * --reps rounds on boxes up to 10^5 points), and
here only, the route `Box.eval_poly` takes (`packed`, `stages`, `matmul` or
`horner`; Horner when n = 1, packed when p = 2, stages when p (p-1)^2 < 2^16
and p^(n-1) >= 2^11, else matmul) and the best time of each layout on its
own (`Box._eval_transform`, the matmul; `Box._eval_stages` where p <= 37;
`Box._eval_packed` where p = 2, whose bits are unpacked only for the hash),
which must all give the route's values.

`bias F_2^n`: `bias` of a random cubic over F_2^20 to F_2^26 (the largest box
the default budget admits), with nothing else evaluated in its child: the
best time of the call and the child's peak RSS.

`acceptance`: every whole-box reduction of the 14 criteria (each call of
`histogram_of_poly`, `value_distribution` and `enumerate_points`) and every
whole-box `Box.eval_poly` call made outside them, recorded while they run,
then each timed, summed by the route it takes.
"""

from __future__ import annotations

import random
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import ab  # noqa: E402

from rankforge import analytic, domain, geometry  # noqa: E402
from rankforge.domain import Box, box  # noqa: E402
from rankforge.gf import PrimeField  # noqa: E402
from rankforge.poly import MultiPoly, random_poly  # noqa: E402

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
LAYOUTS = ("packed", "stages", "matmul")
HERE = Path(domain.__file__).resolve().parent == ab.ROOT / "src" / "rankforge"  # the layouts are timed here only


def make_poly(field, n: int, kind: str, rng: random.Random):
    p = field.p
    if kind == "monomial":
        return MultiPoly.variable(field, n, 0)
    if kind == "sparse":  # three terms with random exponents below p
        return MultiPoly(field, n, {tuple(rng.randrange(p) for _ in range(n)): rng.randrange(1, p) for _ in range(3)})
    return random_poly(field, n, 3, rng)


def route(bx) -> str:
    if bx.n == 1:
        return "horner"
    if domain._packs(bx.field.p, bx.n):
        return "packed"
    return "stages" if domain._takes_stages(bx.field.p, bx.n) else "matmul"


def case_row(p: int, n: int, kind: str, rng: random.Random, reps: int) -> dict:
    bx = Box(PrimeField(p), n)
    P = make_poly(bx.field, n, kind, rng)
    fns = {"eval_poly": lambda: bx.eval_poly(P), "histogram": lambda: analytic.histogram_of_poly(P)}
    if HERE:
        fns["matmul"] = lambda: bx._eval_transform(P)
        if p <= 37:
            fns["stages"] = lambda: bx._eval_stages(P)
        if p == 2 and n >= 2:
            fns["packed"] = lambda: bx._eval_packed(P)
    timings = dict(zip(fns, ab.timed(list(fns.values()), reps if p**n > 10**5 else 10 * reps)))
    row = {"box": f"F_{p}^{n}", "poly": kind, "terms": len(P.terms), "sha256": ab.sha(timings["eval_poly"][2]), "histogram_sha256": ab.sha(timings["histogram"][2].counts)}
    row.update({f"{name}_s": t[0] for name, t in timings.items()})
    if HERE:
        row["route"] = route(bx)
        timed = [name for name in LAYOUTS if name in timings]
        for name in timed:
            values = timings[name][2]
            if ab.sha(bx._unpack(values) if name == "packed" else values) != row["sha256"]:
                raise SystemExit(f"F_{p}^{n} {kind}: the {name} layout and the route disagree")
        if len(timed) > 1:
            row["faster_layout"] = min(timed, key=lambda name: timings[name][0])
            row["route_is_faster_layout"] = row["faster_layout"] == row["route"]
    return row


def cases(reps: int) -> dict:
    rng = random.Random(0)
    rows = [case_row(p, n, kind, rng, reps) for p, n in CASES for kind in KINDS]
    if not HERE:
        return {"rows": rows}
    compared = [r for r in rows if "route_is_faster_layout" in r]
    return {
        "rows": rows,
        "route_is_faster_layout": f"{sum(r['route_is_faster_layout'] for r in compared)} of {len(compared)}",
        "route_loses": [f"{r['box']} {r['poly']}" for r in compared if not r["route_is_faster_layout"]],
    }


def f2_box(n: int, reps: int) -> dict:
    """`bias` of a random cubic over F_2^n, alone in this process."""
    P = random_poly(PrimeField(2), n, 3, random.Random(n))
    s, result = ab.best_of(lambda: analytic.bias(P), reps)
    return {"terms": len(P.terms), "sha256": ab.sha(result.histogram.counts), "bias_s": s, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


DIGESTS = {
    analytic.histogram_of_poly: lambda h: h.counts,
    analytic.value_distribution: lambda v: v.counts,
    geometry.enumerate_points: lambda X: X.indices,
    Box.eval_poly: lambda values: values,
}


def acceptance(reps: int) -> dict:
    from rankforge.acceptance import CRITERIA, run_criterion

    with ab.recorded(*DIGESTS) as calls:
        for name in CRITERIA:
            run_criterion(name)
    by_route, digests = {}, []
    for fn, call, nested in calls:
        if nested or call.arguments.get("indices") is not None:
            continue
        first = next(iter(call.arguments.values()))  # the polynomial, the family or the box
        bx = box(first.field, first.n)
        s, result = ab.best_of(lambda: fn(*call.args, **call.kwargs), reps)
        digests.append((fn.__name__, f"F_{bx.field.p}^{bx.n}", ab.sha(DIGESTS[fn](result))))
        agg = by_route.setdefault(route(bx), {"calls": 0, "s": 0.0, "ops": set(), "boxes": set()})
        agg["calls"] += 1
        agg["s"] += s
        agg["ops"].add(fn.__name__)
        agg["boxes"].add(digests[-1][1])
    for agg in by_route.values():
        agg["ops"], agg["boxes"] = sorted(agg["ops"]), sorted(agg["boxes"])
    return {"whole_box_calls": len(digests), "by_route": by_route, "sha256": ab.sha(digests)}


if __name__ == "__main__":
    f2_boxes = {f"bias F_2^{n}": (lambda reps, n=n: f2_box(n, reps)) for n in F2_BOXES}
    ab.main(parts={"cases": cases, **f2_boxes, "acceptance": acceptance})
