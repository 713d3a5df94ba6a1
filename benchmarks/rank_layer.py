"""The rank layer: the difference form and the rank searches' candidate blocks.
Options, output and the end-to-end runs: see ab.py.

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
whole of every call, for scale.
"""

from __future__ import annotations

import itertools
import sys
import time
from pathlib import Path
from unittest.mock import patch

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import ab  # noqa: E402

from rankforge import poly, rank  # noqa: E402
from rankforge.acceptance import CRITERIA  # noqa: E402
from rankforge.errors import InputError, VerificationError  # noqa: E402
from rankforge.poly import MultilinearForm, MultiPoly  # noqa: E402


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


def form_outcome(fn, call):
    try:
        form = fn(*call.args, **call.kwargs)
    except (InputError, VerificationError) as exc:
        return type(exc).__name__, str(exc)
    return form.block_dims, form.poly.terms


def forms(reps: int) -> dict:
    out = {}
    for criterion, batch in ab.criterion_calls(poly.multilinear_form, CRITERIA).items():
        if not batch:
            continue

        def both(calls):
            closed = ("closed_form", lambda: [form_outcome(poly.multilinear_form, c) for c in calls])
            return ab.compare(f"{criterion} {calls[0].arguments}", closed, ("substitution", lambda: [form_outcome(substitution_form, c) for c in calls]), reps=reps)[0]

        each = [both([call]) for call in batch]
        whole = both(batch)
        slower = sum(r["closed_form_s"] > r["substitution_s"] for r in each)
        out[criterion] = {"calls": len(batch), "closed_form_s": whole["closed_form_s"], "substitution_s": whole["substitution_s"], "slower_calls": slower}
    return out


# -- the replaced candidate building ---------------------------------------------


def _eager_block(row_of: dict, q_terms, monos_r, q: int) -> np.ndarray:
    B = np.zeros((len(row_of), len(monos_r)), dtype=np.int64)
    for j, mono_r in enumerate(monos_r):
        for mono_q, c in q_terms:
            prod = tuple(a + b for a, b in zip(mono_q, mono_r))
            B[row_of[prod], j] = (B[row_of[prod], j] + c) % q
    return B


def eager_schmidt(P: MultiPoly) -> list[np.ndarray]:
    d, q = P.degree(), P.field.p
    factor_monos = poly.monomials(P.n, d - 1)
    row_of = {m: i for i, m in enumerate(poly.monomials(P.n, 2 * (d - 1)))}
    qvecs = list(rank._normalized_vectors(q, len(factor_monos)))
    return [_eager_block(row_of, [(m, c) for m, c in zip(factor_monos, vec) if c], factor_monos, q) for vec in qvecs]


def eager_partition(T: MultilinearForm, factor_dictionary=None) -> list[np.ndarray]:
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
    block = rank._SpanSearch.block
    for criterion in ("rank-axioms", "bias-prank-consistency"):
        row = {}
        for fn, eager in ((rank.schmidt_rank, lambda a: eager_schmidt(a["P"])), (rank.partition_rank, lambda a: eager_partition(a["T"], a.get("factor_dictionary")))):
            batch = ab.criterion_calls(fn, [criterion])[criterion]
            searched = [call for call in batch if _searched(call.arguments)]
            spent = [0.0]

            def timed_block(self, i):
                t0 = time.perf_counter()
                try:
                    return block(self, i)
                finally:
                    spent[0] += time.perf_counter() - t0

            def driver():
                spent[0] = 0.0
                with ab.recorded(rank._SpanSearch.__init__) as inits, patch.object(rank._SpanSearch, "block", timed_block):
                    for call in batch:
                        fn(*call.args, **call.kwargs)
                return spent[0], [init.arguments["self"] for _, init, _ in inits]

            lazy = min(driver()[0] for _ in range(reps))
            searches = driver()[1]
            built = [eager(call.arguments) for call in searched]
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
                "eager_s": ab.best_of(lambda: [eager(call.arguments) for call in searched], reps)[0],
                "search_s": ab.best_of(lambda: [fn(*call.args, **call.kwargs) for call in batch], reps)[0],
            }
        out[criterion] = row
    return out


def _searched(arguments) -> bool:
    """Whether the call reaches the search: a nonzero input of degree >= 2,
    and not a bilinear form without a factor dictionary (its matrix rank
    decides it)."""
    if "T" in arguments:
        T = arguments["T"]
        return not T.is_zero() and (T.d != 2 or arguments.get("factor_dictionary") is not None)
    return not arguments["P"].is_zero() and arguments["P"].degree() >= 2


if __name__ == "__main__":
    ab.main(cases={"multilinear_form": forms, "candidates": candidates})
