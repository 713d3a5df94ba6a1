import itertools
import math
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from rankforge import Budget, BudgetExceededError, InputError, MultiPoly, PolyFamily, PrimeField, VerificationError, multilinear_form, random_poly
from rankforge import rank
from rankforge.linalg import rank_mod, rref_mod, solve_mod
from rankforge.poly import MultilinearForm
from rankforge.rank import (
    RankCertificate,
    RankResult,
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
    # bipartition is ({x}, {y}), so each factor pair is one rank-one matrix.
    # partition_rank reads it off one RREF; the search is the reference.
    p = data.draw(st.sampled_from([2, 3, 5]))
    n1, n2 = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    M = np.array(data.draw(st.lists(st.integers(0, p - 1), min_size=n1 * n2, max_size=n1 * n2)), dtype=np.int64).reshape(n1, n2)
    T = bilinear(PrimeField(p), n1, n2, {(i, j): int(M[i, j]) for i in range(n1) for j in range(n2) if M[i, j]})
    k = rank_mod(M, p)
    for r_max in sorted({max(k - 1, 0), k, k + 1}):
        got, want = partition_rank(T, r_max), rank._partition_search(T, r_max)
        assert replace(got, certificate=None) == replace(want, certificate=None), r_max
        assert want.value == (k if k <= r_max else None)
        for res in (got, want):
            if res.certificate is not None:
                assert len(res.certificate.pairs) == k
                res.certificate.verify_partition(T)


def test_bilinear_route_charges_one_rref():
    T = bilinear(F3, 3, 3, {(0, 0): 1, (1, 1): 2, (2, 0): 1})
    with pytest.raises(BudgetExceededError, match="partition rank by matrix rank: estimated 27 steps"):
        partition_rank(T, 3, Budget(26))
    res = partition_rank(T, 3, Budget(27))
    assert res.value == 2 and res.per_r == ((1, "no"), (2, "found"))
    assert res.certificate.bound_provenance == "matrix rank"
    # the search needs 13 * 9 * 3 steps for r = 1 alone
    with pytest.raises(BudgetExceededError, match="partition rank search at r=1"):
        rank._partition_search(T, 3, Budget(27))


def matrix_rank_partition_eager(T: MultilinearForm, r_max: int) -> RankResult:
    """The bilinear route as it was before its certificates were built on
    read: every pair a polynomial at once, re-expanded before it returns."""
    n1, n2 = T.block_dims
    p, n = T.field.p, T.poly.n
    M = np.zeros((n1, n2), dtype=np.int64)
    for mono, c in T.poly.terms.items():
        M[mono.index(1), mono.index(1, n1) - n1] = c
    R, pivots, k = rref_mod(M, p)
    if k > r_max:
        return RankResult(None, r_max=r_max, per_r=tuple((r, "no") for r in range(1, r_max + 1)))
    unit = [tuple(int(v == i) for v in range(n)) for i in range(n)]
    pairs = tuple(
        (
            (0,),
            MultiPoly(T.field, n, {unit[a]: c for a, c in enumerate(M[:, j].tolist())}),
            MultiPoly(T.field, n, {unit[n1 + b]: c for b, c in enumerate(R[i].tolist())}),
        )
        for i, j in enumerate(pivots)
    )
    cert = RankCertificate("partition", pairs, "matrix rank")
    cert.verify_partition(T)
    per_r = tuple((r, "no") for r in range(1, k)) + ((k, "found"),)
    return RankResult(k, r_max=r_max, certificate=cert, per_r=per_r)


@pytest.mark.parametrize("field", [F2, F3], ids=["F2", "F3"])
def test_bilinear_certificates_built_on_read_equal_the_eager_ones(field):
    p = field.p
    for n1, n2 in itertools.product(range(1, 4), repeat=2):
        for entries in itertools.product(range(p), repeat=n1 * n2):
            if not any(entries):
                continue
            T = bilinear(field, n1, n2, {(i // n2, i % n2): c for i, c in enumerate(entries) if c})
            got, want = partition_rank(T, 3), matrix_rank_partition_eager(T, 3)
            assert "pairs" not in vars(got.certificate)  # nothing built before the read
            assert got.certificate.pairs == want.certificate.pairs  # verified as they are read
            assert got == want


def test_bilinear_factor_from_the_wrong_columns_is_refused(monkeypatch):
    T = bilinear(F3, 2, 3, {(0, 0): 1, (1, 1): 2, (1, 2): 1})

    def wrong_columns(A, p):
        R, pivots, k = rref_mod(A, p)
        return R, [c + 1 for c in pivots], k  # C read one column to the right

    C, R = np.array([[1, 0], [0, 2]]), np.array([[1, 0, 0], [0, 1, 2]])
    assert len(rank._MatrixRankCertificate(T, C, R).pairs) == 2  # a correct factorization reads fine
    with pytest.raises(VerificationError, match="re-expand"):  # a wrong one is refused when read
        rank._MatrixRankCertificate(T, C[:, ::-1], R).pairs
    monkeypatch.setattr(rank, "rref_mod", wrong_columns)
    with pytest.raises(VerificationError, match="M != C R"):
        partition_rank(T, 3)


def quadric_schmidt_rank(G: np.ndarray, p: int) -> int:
    """k - w for the quadratic form with Gram matrix G over F_p, p odd.

    k is the rank of G and w its Witt index: w = floor(k/2) for odd k; for
    even k, w = k/2 when (-1)^(k/2) disc is a square mod p, else k/2 - 1
    (Lidl & Niederreiter, Finite Fields, ch. 6).  A nonsingular principal
    k x k block of G spans a complement of the radical, so its determinant
    is the discriminant up to squares.  Ranks and determinants are sympy's.
    """
    K = GF(p, symmetric=False)

    def dm(M):
        return DomainMatrix([[K(int(x)) for x in row] for row in M], M.shape, K)

    n = len(G)
    k = dm(G).rank()
    if k % 2 or k == 0:  # odd k, or the zero form
        return k - k // 2
    minors = (int(dm(G[np.ix_(I, I)]).det()) for I in itertools.combinations(range(n), k))
    disc = next(d for d in minors if d % p)
    square = pow((-1) ** (k // 2) * disc % p, (p - 1) // 2, p) == 1
    return k - (k // 2 if square else k // 2 - 1)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_schmidt_rank_of_quadric_is_rank_minus_witt_index(data):
    # a homogeneous quadric over odd p is a sum of r products of linear
    # forms exactly when r >= k - w; n <= 4 over F_3 and n <= 3 over F_5
    # keep every search far inside the default budget (a rank-3 quadric
    # over F_3 with n = 4 takes about 0.1 s)
    p = data.draw(st.sampled_from([3, 5]))
    n = data.draw(st.integers(1, 4 if p == 3 else 3))
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=len(pairs), max_size=len(pairs)))
    G = np.zeros((n, n), dtype=np.int64)
    terms = {}
    half = pow(2, -1, p)
    for (i, j), c in zip(pairs, coeffs):
        if c:
            e = [0] * n
            e[i] += 1
            e[j] += 1
            terms[tuple(e)] = c
            G[i, j] = G[j, i] = c if i == j else c * half % p
    assert schmidt_rank(MultiPoly(PrimeField(p), n, terms), n).value == quadric_schmidt_rank(G, p)


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
# The span search against the tuple walk it replaced, and against a plain loop
# ---------------------------------------------------------------------------


def tuple_first(self, r):
    """The walk `_SpanSearch.first` replaced: every r-combination of
    candidates in `itertools.combinations` order, prefix-shared."""
    n = self.count
    basis: list = []

    def visit(prefix: tuple, start: int, t):
        depth = len(prefix) + 1
        for i in range(start, n - r + depth):
            mark = len(basis)
            for v in self._column_basis(i):
                self._insert(basis, v)
            rest = self._reduce(t, basis, mark)
            if rest == self.zero:
                # every completion of this prefix hits; the first is in order
                return prefix + tuple(range(i, i + r - depth + 1))
            if depth < r:
                hit = visit(prefix + (i,), i + 1, rest)
                if hit is not None:
                    return hit
            del basis[mark:]
        return None

    combo = visit((), 0, self._pack(self.target))
    if combo is None:
        return None
    A = np.concatenate([self.block(i) for i in combo], axis=1)
    x, _ = solve_mod(A, self.target, self.p)
    return combo, x


def is_rref(rows) -> bool:
    """Whether the rows, in order, are the RREF of their span: their leads
    rise, and every row is zero at every other row's lead."""
    leads = [next(j for j, c in enumerate(v) if c) for v in rows]
    return all(a < b for a, b in zip(leads, leads[1:])) and all(
        v[lead] == 0 for k, v in enumerate(rows) for m, lead in enumerate(leads) if k != m
    )


def candidate_groups(q: int, sizes) -> list[int]:
    """The group of every candidate: group g holds the normalized vectors of length sizes[g]."""
    return [g for g, m in enumerate(sizes) for _ in range((q**m - 1) // (q - 1))]


def admissible(combo, groups, vector) -> bool:
    """Whether combo's rows of each group are the RREF of their span."""
    rows: dict = {}
    for i in combo:
        rows.setdefault(groups[i], []).append(vector(i))
    return all(is_rref(vs) for vs in rows.values())


def loop_search(order=lambda combos: combos):
    """`_SpanSearch.first` as a plain loop: one solve_mod per admissible combination."""

    def first(self, r):
        groups = candidate_groups(self.p, self.sizes)
        combos = itertools.combinations(range(self.count), r)
        for combo in order(c for c in combos if admissible(c, groups, lambda i: self.candidate(i)[3])):
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
        # bilinear forms would take the matrix-rank route: search them directly
        cases.append((f"partition {dims} {T.poly}", lambda T=T: rank._partition_search(T, 3, Budget(10**5))))
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


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_span_search_matches_tuple_walk(data):
    # one subspace per rank decides what one tuple per rank did
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    if data.draw(st.booleans(), label="schmidt"):
        p = data.draw(st.sampled_from([2, 3]))
        n, d = data.draw(st.sampled_from([(1, 2), (2, 2), (3, 2), (1, 3)] + ([(4, 2), (2, 3)] if p == 2 else [])))
        P = random_poly(PrimeField(p), n, d, rng)
        search, check = (lambda: schmidt_rank(P, 3)), (lambda cert: cert.verify_schmidt(P))
    else:
        field = data.draw(st.sampled_from([F2, F3]))
        dims = data.draw(st.sampled_from([(1, 1, 1), (1, 2, 1), (2, 1, 2), (2, 2, 2)]))
        T = random_multilinear(field, dims, rng)
        search, check = (lambda: partition_rank(T, 3)), (lambda cert: cert.verify_partition(T))
    spans = search()
    with patch.object(rank._SpanSearch, "first", tuple_first):
        tuples = search()
    assert (spans.value, spans.per_r, spans.exhaustive) == (tuples.value, tuples.per_r, tuples.exhaustive)
    for res in (spans, tuples):
        if res.certificate is not None:
            check(res.certificate)


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
    """The comparison above fails for a search that visits admissible combinations in another order."""
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


class RecordingBudget(Budget):
    def __init__(self):
        super().__init__()
        self.charges: list[int] = []

    def charge(self, estimate: int, what: str = "") -> None:
        self.charges.append(estimate)
        super().charge(estimate, what)


@pytest.mark.parametrize("q, sizes", [(2, [3]), (3, [3]), (2, [4]), (3, [1, 2]), (2, [2, 2]), (2, [1, 3, 2]), (2, [1] * 5)])
def test_span_charge_counts_admissible_tuples(monkeypatch, q, sizes):
    # a target no candidate block reaches, so every r is walked to the end;
    # one row and one column per block make the charge the tuple count times r
    one = MultiPoly.constant(PrimeField(q), 1, 1)
    candidates = [(None, [], [], vec) for m in sizes for vec in rank._normalized_vectors(q, m)]
    groups = candidate_groups(q, sizes)
    nodes: list[int] = []
    column_basis, first = rank._SpanSearch._column_basis, rank._SpanSearch.first

    def counted(self, i):
        nodes[-1] += 1
        return column_basis(self, i)

    def per_r(self, r):
        nodes.append(0)
        return first(self, r)

    monkeypatch.setattr(rank._SpanSearch, "_column_basis", counted)
    monkeypatch.setattr(rank._SpanSearch, "first", per_r)
    r_max = sum(sizes) + 1
    budget = RecordingBudget()
    res = rank._rank_search("test", one, {(0,): 0}, iter(candidates), sizes, 1, r_max, budget, None)
    assert res.per_r == tuple((r, "no") for r in range(1, r_max + 1))
    for r, charge, visited in zip(range(1, r_max + 1), budget.charges, nodes, strict=True):
        count = sum(admissible(c, groups, lambda i: candidates[i][3]) for c in itertools.combinations(range(len(candidates)), r))
        assert charge == count * r, r
        assert visited <= charge, r
    assert budget.charges[0] == len(candidates)  # r = 1 charges every candidate, as the tuple walk did
    assert budget.charges[-1] == 0 and nodes[-1] == 0  # more rows than the groups hold


def dense_trilinear(field, n):
    """Every x_i y_j z_k, each with coefficient 1."""
    terms = {}
    for i, j, k in itertools.product(range(n), repeat=3):
        e = [0] * (3 * n)
        e[i] = e[n + j] = e[2 * n + k] = 1
        terms[tuple(e)] = 1
    return MultilinearForm.from_tensor_poly(MultiPoly(field, 3 * n, terms), (n, n, n))


def partition_search_shape(dims) -> tuple[list[int], int, int]:
    """(group sizes, rows, widest R side) of `_partition_search` without a
    dictionary, by its side rule: each bipartition's Q side is the side that
    holds block 0, unless the other side has fewer monomials."""
    d = len(dims)
    sides = []
    for size in range(1, d):
        for rest in itertools.combinations(range(1, d), size - 1):
            J = math.prod(dims[b] for b in (0,) + rest)
            other = math.prod(dims) // J
            sides.append((other, J) if other < J else (J, other))
    return [q for q, _ in sides], math.prod(dims), max(r for _, r in sides)


def partition_charge(dims, q: int, r: int) -> int:
    """What `_rank_search` charges a partition search on these blocks for r."""
    sizes, rows, width = partition_search_shape(dims)
    return rank._span_count(sizes, q, r) * rows * width * r


@pytest.mark.parametrize(
    "label, thunk",
    [
        ("schmidt F_5^2 cubic", lambda: schmidt_rank(random_poly(PrimeField(5), 2, 3, random.Random(0)), 2, Budget(10**5))),
        (
            "partition F_3 dense (3, 3, 3)",
            lambda: partition_rank(dense_trilinear(F3, 3), 2, Budget(partition_charge((3, 3, 3), 3, 1) - 1)),
        ),
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


def block0_side_search(T: MultilinearForm, r_max: int, budget: Budget) -> RankResult:
    """`_partition_search` without a dictionary as it was before the side
    rule: every bipartition's Q side is the side that holds block 0."""
    if T.is_zero():
        return RankResult(0, r_max=r_max, certificate=RankCertificate("partition", ()))
    dims, offs, d = T.block_dims, T.block_offsets(), T.d
    everything = frozenset(range(d))
    splits = [frozenset((0,) + rest) for size in range(1, d) for rest in itertools.combinations(range(1, d), size - 1)]
    q_sides = {J: rank._block_monomials(dims, offs, J) for J in splits}
    r_sides = {J: rank._block_monomials(dims, offs, everything - J) for J in splits}
    candidates = (
        (J, [(m, c) for m, c in zip(q_sides[J], vec) if c], r_sides[J], vec)
        for J in splits
        for vec in rank._normalized_vectors(T.field.p, len(q_sides[J]))
    )
    row_of = {m: i for i, m in enumerate(rank._block_monomials(dims, offs, everything))}
    sizes, width = [len(q_sides[J]) for J in splits], max(map(len, r_sides.values()))
    return rank._rank_search("partition", T.poly, row_of, candidates, sizes, width, r_max, budget, lambda cert: cert.verify_partition(T))


@pytest.mark.parametrize(
    "field, dims",
    [
        (F2, (1, 2, 2)), (F2, (2, 2, 2)), (F2, (3, 1, 2)), (F2, (2, 3, 2)), (F3, (1, 2, 2)), (F3, (2, 2, 1)), (F3, (2, 2, 2)),
        (F2, (1, 1, 2, 2)), (F2, (2, 1, 1, 2)), (F2, (2, 2, 2, 1)), (F3, (1, 1, 2, 1)), (F3, (1, 2, 1, 2)),
    ],
)  # fmt: skip
def test_smaller_side_decides_as_the_block0_side(field, dims):
    # either factor of a product can be enumerated, so the search stays exhaustive
    rng = random.Random(hash(dims) % 1000 + field.p)
    for _ in range(3):
        T = random_multilinear(field, dims, rng)
        res = partition_rank(T, 4, Budget(10**12))
        ref = block0_side_search(T, 4, Budget(10**12))
        assert (res.value, res.per_r, res.exhaustive) == (ref.value, ref.per_r, ref.exhaustive), T.poly
        if res.certificate is not None:
            res.certificate.verify_partition(T)
    with patch.object(rank, "_rank_search", wraps=rank._rank_search) as spy:
        partition_rank(T, 1, Budget(10**12))
    sizes, width = spy.call_args.args[4:6]
    assert (sizes, len(spy.call_args.args[2]), width) == partition_search_shape(dims)


def test_dense_333_form_over_f3_is_decided_at_the_default_budget():
    # the block-0 side enumerates 3^9-vector bilinear groups and stops at r = 2 on the budget
    for seed in range(2):
        T = random_multilinear(F3, (3, 3, 3), random.Random(seed))
        res = partition_rank(T, 4)
        assert res.decided and res.value == 3 and res.per_r == ((1, "no"), (2, "no"), (3, "found"))
        res.certificate.verify_partition(T)
    assert block0_side_search(T, 4, Budget()).per_r[-1] == (2, "budget")


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
