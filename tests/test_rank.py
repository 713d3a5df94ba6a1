import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankforge import AffineMap, Budget, BudgetExceededError, InputError, MultiPoly, PolyFamily, PrimeField, multilinear_form, random_poly
from rankforge import rank
from rankforge.linalg import rank_mod, solve_mod
from rankforge.poly import MultilinearForm
from rankforge.rank import (
    check_rank_axioms,
    family_rank,
    invariant_factor_dictionary,
    nc_rank,
    partition_rank,
    prank_lower_bound_from_bias,
    schmidt_rank,
)

F2 = PrimeField(2)
F3 = PrimeField(3)


def poly_of(field, n, terms):
    return MultiPoly.from_terms(field, n, terms)


def bilinear(field, n1, n2, entries):
    terms = {}
    for (i, j), c in entries.items():
        e = [0] * (n1 + n2)
        e[i] = 1
        e[n1 + j] = 1
        terms[tuple(e)] = c
    return MultilinearForm.from_tensor_poly(MultiPoly(field, n1 + n2, terms), (n1, n2))


def test_schmidt_rank_one():
    res = schmidt_rank(poly_of(F2, 2, [(1, (1, 1))]), 2)
    assert res.value == 1
    res.certificate.verify_schmidt(poly_of(F2, 2, [(1, (1, 1))]))


def test_schmidt_rank_two_exhaustive():
    P = poly_of(F2, 4, [(1, (1, 1, 0, 0)), (1, (0, 0, 1, 1))])
    res = schmidt_rank(P, 3)
    assert res.value == 2
    assert res.per_r[0] == (1, "no")  # rank 1 exhaustively refuted
    res.certificate.verify_schmidt(P)


def test_rank_conventions():
    assert schmidt_rank(MultiPoly.zero(F2, 2), 2).value == 0
    assert schmidt_rank(MultiPoly.variable(F2, 2, 0), 2).infinite
    assert schmidt_rank(MultiPoly.constant(F2, 2, 1), 2).infinite
    assert schmidt_rank(MultiPoly.variable(F2, 2, 0), 2).display() == "infinite"


def test_schmidt_constant_factor_needed():
    # x1x2 + 1 needs a second product made of constants
    P = poly_of(F2, 2, [(1, (1, 1)), (1, (0, 0))])
    assert schmidt_rank(P, 3).value == 2


def test_schmidt_monotone_under_added_product():
    rng = random.Random(2)
    for _ in range(10):
        P = poly_of(F2, 3, [(1, (1, 1, 0)), (1, (0, 1, 1))])
        Q = random_poly(F2, 3, 1, rng, ensure_degree=False)
        R = random_poly(F2, 3, 1, rng, ensure_degree=False)
        base = schmidt_rank(P, 3).value
        bumped = schmidt_rank(P + Q * R, 4).value
        if bumped is not None and base is not None:
            assert base <= bumped + 1


def test_partition_rank_examples():
    assert partition_rank(bilinear(F2, 1, 1, {(0, 0): 1}), 2).value == 1
    # identity on two 2-blocks has partition rank 2; rank-1 search fails first
    T = bilinear(F2, 2, 2, {(0, 0): 1, (1, 1): 1})
    res = partition_rank(T, 3)
    assert res.value == 2 and res.per_r[0] == (1, "no")
    res.certificate.verify_partition(T)
    Z = MultilinearForm.from_tensor_poly(MultiPoly.zero(F2, 4), (2, 2))
    assert partition_rank(Z, 2).value == 0


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_partition_rank_equals_matrix_rank_bilinear(data):
    # a bilinear form x^T M y has partition rank rank(M): its only
    # bipartition is ({x}, {y}), so each factor pair is one rank-one matrix
    p = data.draw(st.sampled_from([2, 3, 5]))
    n1, n2 = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    M = np.array(data.draw(st.lists(st.integers(0, p - 1), min_size=n1 * n2, max_size=n1 * n2)), dtype=np.int64).reshape(n1, n2)
    T = bilinear(PrimeField(p), n1, n2, {(i, j): int(M[i, j]) for i in range(n1) for j in range(n2) if M[i, j]})
    assert partition_rank(T, min(n1, n2)).value == rank_mod(M, p)


def test_nc_rank_of_x1x2():
    # the difference form h1 h2' + h2 h1' needs two products of lower degree;
    # exhaustive search decides 2 on both the polynomial and tensor sides
    res = nc_rank(poly_of(F2, 2, [(1, (1, 1))]), 3)
    assert res.schmidt.value == 2
    assert res.partition.value == 2


def test_nc_rank_conventions():
    assert nc_rank(MultiPoly.variable(F2, 2, 0), 2).schmidt.infinite
    assert nc_rank(MultiPoly.zero(F2, 2), 2).schmidt.value == 0
    # char 2: x^2 has an identically zero difference form
    assert nc_rank(poly_of(F2, 1, [(1, (2,))]), 2).schmidt.value == 0


def test_char2_quartic_upper_certificate():
    # degree-4 elementary symmetric polynomial in 5 variables over F_2: the
    # invariant-dictionary search finds a 3-product certificate for its
    # difference form, giving nc-rank <= 3 despite high Schmidt rank
    from rankforge.catalog import char2_quartic

    P = char2_quartic(5)
    form = multilinear_form(P)
    dictionary = [
        (J, Q)
        for J, Q in invariant_factor_dictionary(form)
        if len(J) == 2  # balanced bipartitions suffice and keep the search tiny
    ]
    res = partition_rank(form, 3, factor_dictionary=dictionary)
    assert res.value == 3 and not res.exhaustive
    res.certificate.verify_partition(form)
    # partition certificates are valid rank certificates: nc-rank <= 3
    for _, Q, R in res.certificate.pairs:
        assert Q.degree() < 4 and R.degree() < 4


def test_family_rank_examples():
    P1 = poly_of(F2, 4, [(1, (1, 1, 0, 0))])
    P2 = poly_of(F2, 4, [(1, (0, 0, 1, 1))])
    res = family_rank(PolyFamily([P1, P2]), 3)
    assert res.value == 1 and not res.span_dependent
    dup = family_rank(PolyFamily([P1, P1]), 3)
    assert dup.span_dependent
    single = family_rank(PolyFamily([P1]), 3)
    assert single.value == schmidt_rank(P1, 3).value


def test_bias_prank_bound_calibration():
    # the full polarization of the 2-block diagonal quadratic lives on pairs
    # of 4-vectors: bias 1/16 gives bound 3, and its partition rank is 4, so
    # the guarantee pr > 3 is tight and consistent
    P = poly_of(F2, 4, [(1, (1, 1, 0, 0)), (1, (0, 0, 1, 1))])
    form = multilinear_form(P)
    bound = prank_lower_bound_from_bias(form)
    assert bound.bias_value == Fraction(1, 16)
    assert bound.bound == 3
    assert partition_rank(form, 4).value == 4
    # compact block form of the same polynomial: bias 1/4, bound 1, rank 2
    T = bilinear(F2, 2, 2, {(0, 0): 1, (1, 1): 1})
    b2 = prank_lower_bound_from_bias(T)
    assert b2.bias_value == Fraction(1, 4) and b2.bound == 1
    assert partition_rank(T, 3).value == 2


def test_bias_prank_bound_edges():
    Z = MultilinearForm.from_tensor_poly(MultiPoly.zero(F2, 2), (1, 1))
    bz = prank_lower_bound_from_bias(Z)
    assert bz.zero_form and bz.bound == 0
    hh = bilinear(F2, 1, 1, {(0, 0): 1})
    bh = prank_lower_bound_from_bias(hh)
    assert bh.bias_value == Fraction(1, 2) and bh.bound == 0


def test_rank_axioms_report():
    P = poly_of(F2, 4, [(1, (1, 1, 0, 0)), (1, (0, 0, 1, 1))])
    emb = AffineMap.make(F2, [[1, 0, 0], [0, 1, 0], [0, 0, 0], [0, 0, 1]], [0, 0, 0, 0])
    phi = AffineMap.make(F2, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 1, 1]], [1, 0, 1, 0])
    rep = check_rank_axioms(P, 3, subspace=emb, phi=phi)
    assert rep.ok
    names = {c.name for c in rep.checks}
    assert {"subspace-drop", "affine-invariance", "schmidt-partition-sandwich"} <= names


def test_rank_axioms_budget_reports_untested():
    from rankforge import Budget

    P = poly_of(F2, 4, [(1, (1, 1, 0, 0)), (1, (0, 0, 1, 1))])
    phi = AffineMap.make(F2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], [0, 0, 0, 0])
    rep = check_rank_axioms(P, 3, phi=phi, budget=Budget(10))
    assert all(c.status in ("untested", "ok") for c in rep.checks)
    assert any(c.status == "untested" for c in rep.checks)


def test_partial_budget_answer_is_honest():
    from rankforge import Budget
    from rankforge.errors import BudgetExceededError

    P = poly_of(F2, 4, [(1, (1, 1, 0, 0)), (1, (0, 0, 1, 1))])
    # enough for r=1 (refuted exhaustively) but not for r=2
    res = schmidt_rank(P, 2, Budget(10_000))
    assert res.value is None and res.exceeded_at == 2
    assert res.per_r[0] == (1, "no") and res.per_r[1] == (2, "budget")
    assert "budget exceeded at r=2" in res.display()
    # nothing affordable at all: refuse up front
    with pytest.raises(BudgetExceededError):
        schmidt_rank(P, 2, Budget(10))


# ---------------------------------------------------------------------------
# The prefix-shared search against the loop it replaced
# ---------------------------------------------------------------------------


def loop_search(order=lambda combos: combos):
    """`_SpanSearch.first` as a plain loop: one solve_mod per combination."""

    def first(self, r):
        for combo in order(itertools.combinations(range(self.count), r)):
            A = np.concatenate([self.block(i) for i in combo], axis=1)
            x, _ = solve_mod(A, self.target, self.p)
            if x is not None:
                return combo, x
        return None

    return first


def random_multilinear(field, dims, rng):
    offs = [sum(dims[:b]) for b in range(len(dims))]
    terms = {}
    for pick in itertools.product(*[range(d) for d in dims]):
        if rng.random() < 0.5:
            e = [0] * sum(dims)
            for b, v in enumerate(pick):
                e[offs[b] + v] = 1
            terms[tuple(e)] = rng.randrange(1, field.p)
    return MultilinearForm.from_tensor_poly(MultiPoly(field, sum(dims), terms), dims)


def rank_cases():
    """(label, thunk) pairs; the per-search budget cap keeps the plain loop short."""
    rng = random.Random(20)
    cases = []
    for k in range(30):
        p = (2, 3, 5)[k % 3]
        d = 2 + k % 2
        n = rng.randint(1, 4 if d == 2 else 2)
        P = random_poly(PrimeField(p), n, d, rng)
        for limit in (10**5, 2000):  # 2000 starves most searches after r = 1
            cases.append((f"schmidt F_{p} n={n} d={d} {P} limit {limit}", lambda P=P, L=limit: schmidt_rank(P, 3, Budget(L))))
    for k in range(20):
        field = (F2, F3)[k % 2]
        dims = rng.choice(((2, 2), (2, 3), (3, 3), (2, 2, 2), (1, 2, 2)))
        T = random_multilinear(field, dims, rng)
        cases.append((f"partition {dims} {T.poly}", lambda T=T: partition_rank(T, 3, Budget(10**5))))
        if len(set(dims)) == 1:
            dictionary = invariant_factor_dictionary(T)
            cases.append(
                (f"dictionary {dims} {T.poly}", lambda T=T, D=dictionary: partition_rank(T, 3, Budget(10**5), factor_dictionary=D))
            )
    # a dictionary whose first entry already hits: the search stops reading there
    T = bilinear(F3, 2, 2, {(0, 0): 1, (0, 1): 2})
    x0, h0 = MultiPoly.variable(F3, 4, 0), MultiPoly.variable(F3, 4, 2)
    early = [(frozenset({0}), x0)] + [(frozenset({0}), x0 + MultiPoly.variable(F3, 4, 1).scale(c)) for c in (1, 2)]
    early += [(frozenset({1}), h0)]
    cases.append(("dictionary early hit", lambda: partition_rank(T, 2, Budget(10**5), factor_dictionary=early)))
    return cases


def outcome(thunk):
    try:
        res = thunk()
    except BudgetExceededError as exc:
        return ("refused", str(exc))
    pairs = None
    if res.certificate is not None:  # term order too, not just dict equality
        pairs = [[list(f.terms.items()) if isinstance(f, MultiPoly) else f for f in e] for e in res.certificate.pairs]
    return res, pairs


def test_span_search_matches_plain_loop(monkeypatch):
    cases = rank_cases()
    fast = [outcome(thunk) for _, thunk in cases]
    monkeypatch.setattr(rank._SpanSearch, "first", loop_search())
    for (label, thunk), got in zip(cases, fast):
        assert got == outcome(thunk), label
    decided = [o for o in fast if o[0] != "refused" and o[0].certificate is not None]
    assert len(decided) >= 20 and any(o[0].value >= 2 for o in decided)
    assert any(o[0] != "refused" and o[0].exceeded_at for o in fast)
    assert any(o[0] == "refused" for o in fast)


def test_plain_loop_reference_sees_the_search_order(monkeypatch):
    """The comparison above fails for a search that visits combinations in another order."""
    cases = rank_cases()
    fast = [outcome(thunk) for _, thunk in cases]
    monkeypatch.setattr(rank._SpanSearch, "first", loop_search(lambda combos: reversed(list(combos))))
    assert any(got != outcome(thunk) for (_, thunk), got in zip(cases, fast))


def test_search_reads_candidates_lazily(monkeypatch):
    """A hit at r = 1 stops the walk: later candidates are never read."""
    searches = []
    init = rank._SpanSearch.__init__

    def recording(self, *args):
        init(self, *args)
        searches.append(self)

    monkeypatch.setattr(rank._SpanSearch, "__init__", recording)
    label, thunk = rank_cases()[-1]
    assert label == "dictionary early hit"
    res = thunk()
    assert res.value == 1 and not res.exhaustive
    assert [len(s.read) for s in searches] == [1] and searches[0].count == 4
    res = schmidt_rank(poly_of(F3, 3, [(1, (1, 1, 0))]), 2)
    assert res.value == 1 and len(searches[1].read) < searches[1].count


def dense_trilinear(field, n):
    """Every x_i y_j z_k, each with coefficient 1."""
    terms = {}
    for i, j, k in itertools.product(range(n), repeat=3):
        e = [0] * (3 * n)
        e[i] = e[n + j] = e[2 * n + k] = 1
        terms[tuple(e)] = 1
    return MultilinearForm.from_tensor_poly(MultiPoly(field, 3 * n, terms), (n, n, n))


@pytest.mark.parametrize(
    "label, thunk",
    [
        ("schmidt F_5^2 cubic", lambda: schmidt_rank(random_poly(PrimeField(5), 2, 3, random.Random(0)), 2, Budget(10**5))),
        ("partition F_3 dense (3, 3, 3)", lambda: partition_rank(dense_trilinear(F3, 3), 2, Budget(10**5))),
        ("schmidt F_3^3 cubic", lambda: schmidt_rank(random_poly(F3, 3, 3, random.Random(0)), 2, Budget(10**7))),
    ],
)
def test_refusal_at_r1_allocates_nothing(label, thunk):
    """The r = 1 charge comes before any candidate block is built."""
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="rank search at r=1"):
            thunk()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, label


def test_schmidt_rank_of_many_variables_is_refused_before_any_listing():
    # 231 factor monomials of degree <= 2 in 20 variables: r = 1 alone has
    # (2^231 - 1) candidates; the monomial lists cost C(24, 4) = 10626 tuples,
    # not the 5^20 exponent tuples a filtered product would walk first
    P = random_poly(F2, 20, 3, random.Random(0))
    with pytest.raises(BudgetExceededError, match="rank search at r=1"):
        schmidt_rank(P, 2)


def test_empty_factor_dictionary_decides_nothing():
    T = bilinear(F3, 2, 2, {(0, 0): 1, (1, 1): 1})
    res = partition_rank(T, 3, Budget(0), factor_dictionary=[])  # every r charges 0
    assert res.value is None and not res.exhaustive and not res.decided
    assert res.per_r == ((1, "no"), (2, "no"), (3, "no"))


X0, X1, H0 = (MultiPoly.variable(F3, 4, i) for i in (0, 1, 2))


@pytest.mark.parametrize(
    "entry",
    [
        pytest.param((frozenset({0}), X0 * X1), id="not multilinear on J"),
        pytest.param((frozenset({0}), H0), id="on the other block"),
        pytest.param((frozenset({0}), MultiPoly.constant(F3, 4, 1)), id="constant"),
        pytest.param((frozenset({0}), MultiPoly.variable(F3, 2, 0)), id="wrong arity"),
        pytest.param((frozenset({0}), MultiPoly.variable(F2, 4, 0)), id="wrong field"),
        pytest.param((frozenset({0, 1}), X0 * H0), id="J is every block"),
        pytest.param((frozenset(), MultiPoly.constant(F3, 4, 1)), id="J is empty"),
        pytest.param((frozenset({2}), X0), id="J outside the blocks"),
        pytest.param((frozenset({0}),), id="not a pair"),
        pytest.param((0, X0), id="J not a set"),
    ],
)
def test_malformed_factor_dictionary_entry(entry):
    T = bilinear(F3, 2, 2, {(0, 0): 1, (1, 1): 1})
    with pytest.raises(InputError):
        partition_rank(T, 3, factor_dictionary=[(frozenset({0}), X0), entry])
