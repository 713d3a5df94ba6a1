"""Bound before searching, count before sorting: each kernel of the rank,
kappa and Gowers criteria against the code it replaced.  Options, output
and the end-to-end runs: see ab.py.

`refutations`: `schmidt_rank` of rank-axioms' quadrics, each at the r_max
the criterion asks, by the polar bound (`bounded_s`: one rank of the polar
matrix, then the search from r0) against the walk from r = 1
(`walk_s`, `test_rank.schmidt_walk_from_one`): the class representatives
x_0 y_0 + ... + x_{r-1} y_{r-1} over F_2 at r - 1, the quadric P over F_2
and S = x0x2 + x1x3 over F_3.  `r0` is the polar bound.  value, per_r and
the certificate pairs must be equal.

`kappa`: `kappa_fibers` of kappa-uniformity-trend's F_3 family at n = 3,
m = 1 (531,441 maps, 27 fibers), its chunks counted (`counted_s`) against
every chunk sorted by `np.unique` (`sorted_s`, `test_geometry.sorted_fibers`).
The fibers, items and order, must be equal.

`bilinear`: the 1,346 partition ranks of the two rank criteria, the 673
nonzero bilinear forms over F_2 with blocks of at most 3 variables, twice,
each at r_max = min(n1, n2): on bit rows (`bit_rows_s`) against the numpy
route (`numpy_s`, `test_rank.matrix_rank_partition_numpy`).  value, per_r
and the factors C and R must be equal.

`gowers_eval`: the evaluation of `gowers_norm_direct`, `Box._eval_terms`
over the whole box, for gowers-identity's 100 polynomials of each sample
shape, against the loop it replaced (`replaced_s`: every term from a
`np.full` column, every power by `_pow_mod`, every coefficient applied).

`forms`: gowers-identity's `multilinear_form` calls, with each monomial's
expansion looked up (`lookup_s`, warm) against the recursive expansion on
every call (`recursive_s`, `test_poly.recursive_form`).

`parts`: the four criteria these kernels serve, each run by
`run_criterion`: the best time over --reps runs and the sha256 of its
payload, which must be equal on both trees.
"""

from __future__ import annotations

import collections
import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import ab  # noqa: E402
from test_geometry import sorted_fibers  # noqa: E402
from test_poly import recursive_form  # noqa: E402
from test_rank import battery_bilinear_forms, diagonal_quadric, matrix_rank_partition_numpy, schmidt_walk_from_one  # noqa: E402

from rankforge import acceptance, domain, geometry, poly, rank  # noqa: E402
from rankforge.explicit import ExplicitVariety  # noqa: E402
from rankforge.geometry import kappa_fibers  # noqa: E402
from rankforge.gf import PrimeField  # noqa: E402
from rankforge.poly import MultiPoly, PolyFamily, multilinear_form  # noqa: E402
from rankforge.rank import partition_rank, schmidt_rank  # noqa: E402
from rankforge.runtime import Budget  # noqa: E402

F2, F3 = PrimeField(2), PrimeField(3)
CRITERIA = ("rank-axioms", "bias-prank-consistency", "kappa-uniformity-trend", "gowers-identity")


def rank_outcome(res) -> tuple:
    pairs = res.certificate.pairs if res.certificate else ()
    return res.value, res.per_r, res.exceeded_at, [[list(f.terms.items()) for f in pair] for pair in pairs]


def refutations(reps: int) -> list[dict]:
    quadrics = [(f"class ({n1}, {n2}, {r})", diagonal_quadric(n1, n2, r), r - 1) for n1 in (1, 2, 3) for n2 in (1, 2, 3) for r in range(2, min(n1, n2) + 1)]
    quadrics.append(("P over F_2", MultiPoly.from_terms(F2, 4, [(1, (1, 1, 0, 0)), (1, (0, 0, 1, 1))]), 3))
    quadrics.append(("S over F_3", MultiPoly.from_terms(F3, 4, [(1, (1, 0, 1, 0)), (1, (0, 1, 0, 1))]), 3))
    rows = []
    for label, P, r_max in quadrics:
        row, res = ab.compare(
            label,
            ("bounded", lambda: rank_outcome(schmidt_rank(P, r_max))),
            ("walk", lambda: rank_outcome(schmidt_walk_from_one(P, r_max, Budget()))),
            reps=reps,
        )
        rows.append({"r_max": r_max, "r0": rank._polar_bound(P), "value": res[0], **row})
    return rows


def kappa(reps: int) -> dict:
    fam = PolyFamily([ExplicitVariety(2, 3, F3).polynomial()])

    def sorted_only():
        counted, geometry._chunk_fibers = geometry._chunk_fibers, sorted_fibers
        try:
            return list(kappa_fibers(fam, 1).fibers.items())
        finally:
            geometry._chunk_fibers = counted

    row, fibers = ab.compare("F_3^3, m = 1", ("counted", lambda: list(kappa_fibers(fam, 1).fibers.items())), ("sorted", sorted_only), reps=reps)
    return {"maps": 3**12, "fibers": len(fibers), **row}


def bilinear(reps: int) -> dict:
    forms = list(battery_bilinear_forms()) * 2

    def outcomes(route):
        out = []
        for T in forms:
            res = route(T, min(T.block_dims))
            C, R = res.certificate._factors[1:] if res.certificate else (None, None)
            out.append((res.value, res.per_r, None if C is None else (C.tolist(), R.tolist())))
        return out

    row, results = ab.compare("1,346 forms", ("bit_rows", lambda: outcomes(partition_rank)), ("numpy", lambda: outcomes(matrix_rank_partition_numpy)), reps=reps)
    return {"forms": len(forms), "sha256": ab.sha(results), **row}


def replaced_eval_terms(bx, P: MultiPoly, D: np.ndarray) -> np.ndarray:
    """`Box._eval_terms` before each term started from its first factor."""
    p = bx.field.p
    m = D.shape[0]
    out = np.zeros(m, dtype=np.int64)
    uses = collections.Counter((i, e) for mono in P.terms for i, e in enumerate(mono) if e)
    pow_cache = {}
    for mono, c in P.terms.items():
        t = np.full(m, c, dtype=np.int64)
        for i, e in enumerate(mono):
            if e:
                key = (i, e)
                acc = pow_cache.get(key)
                if acc is None:
                    acc = domain._pow_mod(D[:, i], e, p)
                    if uses[key] > 1:
                        pow_cache[key] = acc
                t = (t * acc) % p
        out = (out + t) % p
    return out


def gowers_eval(reps: int) -> list[dict]:
    rows = []
    for field, n in acceptance._SAMPLE_SPECS:
        for d in (2, 3):
            polys = acceptance._sample(field, n, d, 100, seed=1000 + field.p * 10 + d)
            bx = domain.box(field, n)
            D = bx.decode(np.arange(bx.size))
            row, _ = ab.compare(
                f"F_{field.p}^{n}, d = {d}",
                ("terms", lambda: [bx._eval_terms(P, D).tolist() for P in polys]),
                ("replaced", lambda: [replaced_eval_terms(bx, P, D).tolist() for P in polys]),
                reps=reps,
            )
            rows.append({"p": field.p, "n": n, "d": d, "calls": len(polys), **row})
    return rows


def forms(reps: int) -> dict:
    calls = ab.criterion_calls(poly.multilinear_form, ["gowers-identity"])["gowers-identity"]
    args = [(call.arguments["P"], call.arguments.get("d")) for call in calls]

    def items(fn):
        return [(f.block_dims, list(f.poly.terms.items())) for f in (fn(P, d) for P, d in args)]

    row, _ = ab.compare("gowers-identity", ("lookup", lambda: items(multilinear_form)), ("recursive", lambda: items(recursive_form)), reps=reps)
    return {"calls": len(args), **row}


def criterion(name: str):
    def run(reps: int) -> dict:
        s, res = ab.best_of(lambda: acceptance.run_criterion(name, Budget()), reps)
        return {"status": res.status, "best_s": s, "payload_sha256": hashlib.sha256(res.payload_bytes()).hexdigest()}

    return run


if __name__ == "__main__":
    ab.main(
        cases={"refutations": refutations, "kappa": kappa, "bilinear": bilinear, "gowers_eval": gowers_eval, "forms": forms},
        parts={name: criterion(name) for name in CRITERIA},
    )
