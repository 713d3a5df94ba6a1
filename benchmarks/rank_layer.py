"""The rank layer: the difference form and the rank searches' candidate blocks.

    PYTHONPATH=src python3 benchmarks/rank_layer.py [--reps 3]

Run it from the root of a checkout.  It prints one JSON object with two parts.

`multilinear_form`: every `multilinear_form` call the acceptance battery makes,
grouped by criterion.  Each call is timed by the closed form
(`poly.multilinear_form`) and by the symbolic substitution it replaced (d
rounds of x -> x + h_k in (d+1)*n variables, kept below as the reference).
The two must agree on every call: the same terms, or the same error type and
message.  `slower_calls` counts the calls on which the closed form took
longer.

`candidates`: every `schmidt_rank` and `partition_rank` call that the
rank-axioms and bias-prank-consistency criteria make.  `lazy_s` is the time
the search driver spends reading candidates and building their column blocks
(the `_SpanSearch.block` calls), `eager_s` the time the replaced code took to
build every candidate's block (and, for partition rank, its Q polynomial)
before the first charge.  The blocks the driver built must equal the eager
ones.  Calls that never reach the driver (zero inputs, degree <= 1, and
bilinear forms without a factor dictionary, which their matrix rank decides)
build nothing either way; `searches` counts the rest.  `search_s` is the
whole of every call, for scale.  Times are the best of `--reps` runs
(default 3).
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time

import numpy as np

from rankforge import poly, rank
from rankforge.acceptance import CRITERIA, run_criterion
from rankforge.errors import InputError, VerificationError
from rankforge.poly import MultilinearForm, MultiPoly


def best_of(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def recorded(fn, criteria) -> dict:
    """{criterion: [(args, kwargs), ...]} of the calls to fn, wherever rankforge binds it."""
    calls: dict = {}
    owners = [m for n, m in sorted(sys.modules.items()) if n.startswith("rankforge") and getattr(m, fn.__name__, None) is fn]
    for criterion in criteria:
        batch = calls[criterion] = []

        def recording(*args, **kwargs):
            batch.append((args, kwargs))
            return fn(*args, **kwargs)

        for m in owners:
            setattr(m, fn.__name__, recording)
        try:
            run_criterion(criterion)
        finally:
            for m in owners:
                setattr(m, fn.__name__, fn)
    return calls


# -- the replaced difference form ------------------------------------------------


def _shift_x_by_block(Q: MultiPoly, n: int, block_offset: int) -> MultiPoly:
    field, N = Q.field, Q.n
    cache: dict = {}
    result = MultiPoly.zero(field, N)
    for mono, c in Q.terms.items():
        rest = list(mono)
        factor = MultiPoly.constant(field, N, c)
        for i in range(n):
            e = mono[i]
            if e:
                rest[i] = 0
                if (i, e) not in cache:
                    base = MultiPoly.variable(field, N, i) + MultiPoly.variable(field, N, block_offset + i)
                    cache[(i, e)] = base.pow(e)
                factor = factor * cache[(i, e)]
        result = result + MultiPoly(field, N, {tuple(a + b for a, b in zip(rest, m)): v for m, v in factor.terms.items()})
    return result


def substitution_form(P: MultiPoly, d: int | None = None) -> MultilinearForm:
    if d is None:
        d = P.degree()
    if d < 1:
        raise InputError("multilinear form requires order d >= 1")
    n = P.n
    Q = MultiPoly(P.field, (d + 1) * n, {m + (0,) * (d * n): c for m, c in P.terms.items()})
    for k in range(1, d + 1):
        Q = _shift_x_by_block(Q, n, k * n) - Q
    terms = {}
    for mono, c in Q.terms.items():
        if any(mono[:n]):
            raise VerificationError("base point failed to cancel in multilinear form")
        terms[mono[n:]] = c
    return MultilinearForm((n,) * d, MultiPoly(P.field, d * n, terms))


def form_outcome(fn, args, kwargs):
    try:
        form = fn(*args, **kwargs)
    except (InputError, VerificationError) as exc:
        return type(exc).__name__, str(exc)
    return form.block_dims, form.poly.terms


def forms(reps: int) -> dict:
    closed = poly.multilinear_form
    out = {}
    for criterion, batch in recorded(closed, CRITERIA).items():
        if not batch:
            continue
        slower = 0
        for args, kwargs in batch:
            if form_outcome(closed, args, kwargs) != form_outcome(substitution_form, args, kwargs):
                raise SystemExit(f"{criterion}: the two forms disagree on {args} {kwargs}")
            new = best_of(lambda: form_outcome(closed, args, kwargs), reps)
            old = best_of(lambda: form_outcome(substitution_form, args, kwargs), reps)
            slower += new > old
        out[criterion] = {
            "calls": len(batch),
            "closed_form_s": best_of(lambda: [form_outcome(closed, a, k) for a, k in batch], reps),
            "substitution_s": best_of(lambda: [form_outcome(substitution_form, a, k) for a, k in batch], reps),
            "slower_calls": slower,
        }
    return out


# -- the replaced candidate building ---------------------------------------------


def _eager_block(row_of: dict, q_terms, monos_r, q: int) -> np.ndarray:
    B = np.zeros((len(row_of), len(monos_r)), dtype=np.int64)
    for j, mono_r in enumerate(monos_r):
        for mono_q, c in q_terms:
            prod = tuple(a + b for a, b in zip(mono_q, mono_r))
            B[row_of[prod], j] = (B[row_of[prod], j] + c) % q
    return B


def eager_schmidt(P: MultiPoly, *rest, **kwargs) -> list[np.ndarray]:
    d, q = P.degree(), P.field.p
    factor_monos = poly.monomials(P.n, d - 1)
    row_of = {m: i for i, m in enumerate(poly.monomials(P.n, 2 * (d - 1)))}
    qvecs = list(rank._normalized_vectors(q, len(factor_monos)))
    return [_eager_block(row_of, [(m, c) for m, c in zip(factor_monos, vec) if c], factor_monos, q) for vec in qvecs]


def eager_partition(T: MultilinearForm, *rest, factor_dictionary=None, **kwargs) -> list[np.ndarray]:
    q, d, dims, offs = T.field.p, T.d, T.block_dims, T.block_offsets()
    total = sum(dims)
    every = frozenset(range(d))
    row_of = {m: i for i, m in enumerate(rank._block_monomials(dims, offs, every))}
    if factor_dictionary is not None:
        candidates = [(frozenset(J), Q) for J, Q in factor_dictionary]
    else:
        candidates = []
        for size in range(1, d):
            for J in itertools.combinations(range(1, d), size - 1):
                J = frozenset((0,) + J)
                monos_q = rank._block_monomials(dims, offs, J)
                for vec in rank._normalized_vectors(q, len(monos_q)):
                    candidates.append((J, MultiPoly(T.field, total, {m: c for m, c in zip(monos_q, vec) if c})))
    return [_eager_block(row_of, Q.terms.items(), rank._block_monomials(dims, offs, every - J), q) for J, Q in candidates]


def candidates(reps: int) -> dict:
    out = {}
    names = ("rank-axioms", "bias-prank-consistency")
    schmidt = recorded(rank.schmidt_rank, names)
    partition = recorded(rank.partition_rank, names)
    block, init = rank._SpanSearch.block, rank._SpanSearch.__init__
    for criterion in names:
        row = {}
        for fn, eager, batch in (
            (rank.schmidt_rank, eager_schmidt, schmidt[criterion]),
            (rank.partition_rank, eager_partition, partition[criterion]),
        ):
            searches, spent = [], [0.0]

            def timed(self, i):
                t0 = time.perf_counter()
                try:
                    return block(self, i)
                finally:
                    spent[0] += time.perf_counter() - t0

            def recording(self, *args):
                init(self, *args)
                searches.append(self)

            def driver():
                spent[0] = 0.0
                searches.clear()
                rank._SpanSearch.block, rank._SpanSearch.__init__ = timed, recording
                try:
                    for args, kwargs in batch:
                        fn(*args, **kwargs)
                finally:
                    rank._SpanSearch.block, rank._SpanSearch.__init__ = block, init
                return spent[0]

            lazy = min(driver() for _ in range(reps))
            built = [eager(*args, **kwargs) for args, kwargs in batch if _searched(args, kwargs)]
            if len(built) != len(searches):
                raise SystemExit(f"{criterion} {fn.__name__}: {len(built)} eager builds for {len(searches)} searches")
            for blocks, search in zip(built, searches):
                if len(blocks) != search.count or not all(np.array_equal(blocks[i], block(search, i)) for i in range(len(search.read))):
                    raise SystemExit(f"{criterion} {fn.__name__}: lazy and eager blocks differ")
            row[fn.__name__] = {
                "calls": len(batch),
                "searches": len(searches),
                "candidates": sum(s.count for s in searches),
                "candidates_read": sum(len(s.read) for s in searches),
                "lazy_s": lazy,
                "eager_s": best_of(lambda: [eager(*a, **k) for a, k in batch if _searched(a, k)], reps),
                "search_s": best_of(lambda: [fn(*a, **k) for a, k in batch], reps),
            }
        out[criterion] = row
    return out


def _searched(args, kwargs) -> bool:
    """Whether the call reaches the search: a nonzero input of degree >= 2,
    and not a bilinear form without a factor dictionary (its matrix rank
    decides it)."""
    obj = args[0]
    if isinstance(obj, MultilinearForm):
        dictionary = args[3] if len(args) > 3 else kwargs.get("factor_dictionary")
        return not obj.is_zero() and (obj.d != 2 or dictionary is not None)
    return not obj.is_zero() and obj.degree() >= 2


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=3)
    args = parser.parse_args()
    print(json.dumps({"multilinear_form": forms(args.reps), "candidates": candidates(args.reps)}, indent=1))


if __name__ == "__main__":
    main()
