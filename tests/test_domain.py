"""Whole-box evaluation: the tensor-product transform, in each of its
layouts, against independent oracles, its routing and memory; the box
reductions (value counts and common zeros) against the term loop; and the
monomial matrix at given points."""

import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rankforge import (
    Budget,
    BudgetExceededError,
    MultiPoly,
    PolyFamily,
    PrimeField,
    histogram_of_poly,
    random_poly,
    value_distribution,
)
from rankforge import domain
from rankforge.domain import Box
from rankforge.geometry import enumerate_points


@st.composite
def polys(draw):
    """A random polynomial with exponents up to 2p + 1, so e >= p occurs."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    n = draw(st.integers(0, 4 if p <= 7 else 3))
    monos = st.tuples(*[st.integers(0, 2 * p + 1)] * n)
    terms = draw(st.dictionaries(monos, st.integers(-p, 3 * p), max_size=40))
    return MultiPoly(PrimeField(p), n, terms)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(polys())
def test_whole_box_eval_matches_pointwise_and_indexed(P):
    p, n = P.field.p, P.n
    bx = Box(P.field, n)
    oracle = [P.eval(pt) for pt in itertools.product(range(p), repeat=n)]
    whole = bx.eval_poly(P)
    assert whole.tolist() == oracle
    assert np.array_equal(whole, bx.eval_poly(P, np.arange(bx.size, dtype=np.int64)))
    # both layouts of the transform, also at n = 1, where eval_poly takes
    # Horner's rule, and on boxes too small for eval_poly to take the stages
    assert bx._eval_transform(P).tolist() == oracle
    assert bx._eval_stages(P).tolist() == oracle


def dense_poly(p: int, n: int, rng) -> MultiPoly:
    """Every monomial in at most two variables with exponents below p, each
    coefficient p - 1, about half the exponents written as e + (p - 1) or
    e + 2(p - 1) (the same function): the leading two stages are full, so a
    skipped reduction overflows a narrow entry."""
    terms = {}
    for i, j in itertools.combinations(range(n), 2):
        for a, b in itertools.product(range(p), repeat=2):
            mono = [0] * n
            mono[i], mono[j] = a, b
            mono = [e + (p - 1) * rng.randrange(3) if e and rng.random() < 0.5 else e for e in mono]
            terms[tuple(mono)] = p - 1
    return MultiPoly(PrimeField(p), n, terms)


@pytest.mark.parametrize(
    "p, n",
    [
        # vector stages: uint8 past every delayed reduction, and uint16
        (2, 17), (3, 11), (5, 7), (7, 6), (13, 4),
        # the matmul, on rows just below the stages' 2^11 entries
        (2, 11), (3, 7), (13, 3),
    ],
)  # over F_2 eval_poly takes the packed words, checked here against both other layouts
def test_large_box_eval_matches_term_loop_and_histogram(p, n):
    rng = np.random.default_rng(p * 100 + n)
    P = dense_poly(p, n, random.Random(n))
    assert max(max(m) for m in P.terms) >= p
    bx = Box(P.field, n)
    assert domain._takes_stages(p, n) == (p ** (n - 1) >= 2**11 and p <= 37)
    whole = bx.eval_poly(P)
    assert whole.dtype == np.int64
    idx = np.unique(np.concatenate([[0, bx.size - 1], rng.integers(0, bx.size, 2500)]))
    if len(idx) < 2000:
        idx = np.arange(bx.size)
    assert np.array_equal(whole[idx], bx._eval_terms(P, bx.decode(idx)))
    # the full histogram from another layout, and from the public reduction
    other = bx._eval_transform(P) if domain._takes_stages(p, n) else bx._eval_stages(P)
    counts = np.bincount(other, minlength=p)
    assert np.bincount(whole, minlength=p).tolist() == counts.tolist()
    assert list(histogram_of_poly(P).counts) == counts.tolist()


@pytest.mark.parametrize("p, n, d", [(2, 20, 3), (5, 8, 4)])
def test_stage_route_memory_is_the_result_plus_narrow_arrays(p, n, d):
    F = PrimeField(p)
    P = random_poly(F, n, d, random.Random(p))
    bx = Box(F, n)
    assert domain._takes_stages(p, n)
    tracemalloc.start()
    try:
        whole = bx.eval_poly(P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert whole.dtype == np.int64
    # the int64 result is 8 bytes a point; the matmul route takes 16 or more.
    # Over F_2 eval_poly takes the packed words (two bit arrays and the byte
    # a point they unpack to), within the same bound
    assert peak <= 12 * bx.size


@st.composite
def f2_polys(draw):
    """A random polynomial over F_2 in up to 14 variables: boxes below one
    word, at the word boundary (n = 6, 7) and of many words; exponents up to
    4, so function_reduce is needed; the zero and constant polynomials."""
    n = draw(st.integers(0, 14))
    monos = st.tuples(*[st.integers(0, 4)] * n)
    terms = draw(st.dictionaries(monos, st.integers(0, 3), max_size=30))
    return MultiPoly(PrimeField(2), n, terms)


def unpacked(bx: Box, P: MultiPoly) -> np.ndarray:
    """Every bit of P's packed values, in point order, past the box too: the
    words' every bit, or the one int's bits below the box size, once none is
    set above it."""
    W = bx._eval_packed(P)
    if isinstance(W, int):
        assert bx.size <= domain._INT_POINTS and W >> bx.size == 0
        return np.array([W >> i & 1 for i in range(bx.size)], dtype=np.uint8)
    assert bx.size > domain._INT_POINTS
    return np.unpackbits(W.view(np.uint8), bitorder="little")


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(f2_polys())
def test_packed_route_matches_term_loop(P):
    bx = Box(P.field, P.n)
    oracle = bx._eval_terms(P, bx.digits())
    whole = bx.eval_poly(P)
    assert whole.dtype == np.int64 and np.array_equal(whole, oracle)
    if P.n >= 2:
        bits = unpacked(bx, P)
        assert len(bits) == (bx.size if bx.size <= domain._INT_POINTS else 64 * -(-bx.size // 64))
        assert np.array_equal(bits[: bx.size], oracle) and not bits[bx.size :].any()
    # the popcount counts are the counts of the values
    assert bx.value_counts([P]).tolist() == np.bincount(whole, minlength=2).tolist()


@pytest.mark.parametrize("n", [0, 1, 2, 5, 6, 7, 12, 13])
def test_packed_route_on_zero_constant_and_reduced_polys(n):
    F2 = PrimeField(2)
    bx = Box(F2, n)
    polys = [MultiPoly.zero(F2, n), MultiPoly.constant(F2, n, 1)]
    if n:  # x_0^3 x_{n-1}^2 + x_0 is x_0 x_{n-1} + x_0 as a function
        cube = MultiPoly(F2, n, {(3,) + (0,) * (n - 1): 1})
        polys.append(cube * MultiPoly(F2, n, {(0,) * (n - 1) + (2,): 1}) + MultiPoly.variable(F2, n, 0))
    for P in polys:
        oracle = bx._eval_terms(P, bx.digits())
        assert np.array_equal(bx.eval_poly(P), oracle)
        if n >= 2:
            assert np.array_equal(unpacked(bx, P)[: bx.size], oracle)
        assert bx.value_counts([P]).tolist() == np.bincount(oracle, minlength=2).tolist()
        assert bx.common_zeros([P]).tolist() == np.flatnonzero(oracle == 0).tolist()


def family_oracle(bx: Box, family: PolyFamily) -> tuple[list[int], list[int]]:
    """Joint value counts and common zeros from the term loop."""
    p, D = bx.field.p, bx.digits()
    vals = [bx._eval_terms(P, D) for P in family]
    key = np.zeros(bx.size, dtype=np.int64)
    for v in vals:
        key = key * p + v
    zero = np.all([v == 0 for v in vals], axis=0) if vals else np.ones(bx.size, dtype=bool)
    return np.bincount(key, minlength=p**family.c).tolist(), np.flatnonzero(zero).tolist()


@pytest.mark.parametrize(
    "p, n",
    [
        (2, 0), (2, 1), (2, 2), (2, 5), (2, 6), (2, 7), (2, 12),  # packed, about a word boundary
        (3, 8), (7, 5),  # vector stages, uint8 and uint16
        (5, 3), (11, 2), (7, 1),  # matmul and Horner
    ],
)  # fmt: skip
@pytest.mark.parametrize("c", [1, 2, 3])
def test_family_reductions_match_term_loop(p, n, c):
    F = PrimeField(p)
    rng = random.Random(p * 1000 + n * 10 + c)
    members = [random_poly(F, n, d, rng) for d in (3, 2, 1)[:c]]
    if n:  # a member with exponents >= p, so the reduced tensor is used
        members[-1] = members[-1] + MultiPoly(F, n, {(p + 1,) + (0,) * (n - 1): 1})
    family = PolyFamily(members)
    bx = Box(F, n)
    counts, zeros = family_oracle(bx, family)
    vd = value_distribution(family)
    assert list(vd.counts) == bx.value_counts(family).tolist() == counts
    assert vd.domain_size == bx.size
    assert enumerate_points(family).indices.tolist() == bx.common_zeros(family).tolist() == zeros


@pytest.mark.parametrize("p, n", [(2, 17), (3, 11)])
def test_value_counts_past_a_narrow_key(p, n):
    # the coordinate functions take every value tuple once: p^n bins, more
    # than a uint16 key holds and more than one chunk of _bincount
    F = PrimeField(p)
    bx = Box(F, n)
    assert domain._key_dtype(p**n) == np.uint32 and bx.size > domain._CHUNK
    counts = bx.value_counts(MultiPoly.variable(F, n, i) for i in range(n))
    assert counts.dtype == np.int64 and counts.tolist() == [1] * bx.size
    assert domain._key_dtype(256) == np.uint8 and domain._key_dtype(257) == np.uint16
    assert domain._key_dtype(2**32 + 1) == np.int64


def test_empty_family_reductions():
    bx = Box(PrimeField(2), 7)
    assert bx.value_counts([]).tolist() == [bx.size]
    assert bx.common_zeros([]).tolist() == list(range(bx.size))


def test_packed_counts_keep_memory_in_bits():
    F2 = PrimeField(2)
    n = 22
    P = random_poly(F2, n, 3, random.Random(n))
    bx = Box(F2, n)
    tracemalloc.start()
    try:
        counts = histogram_of_poly(P).counts
        peak_counts = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        zeros = bx.common_zeros([P])
        peak_zeros = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts[0] == len(zeros)
    # the words and one scratch array: 2 bits a point, not a byte or 8
    assert peak_counts <= bx.size // 2
    # and the unpacked zero set, a byte a point, with its int64 indices
    assert peak_zeros <= bx.size // 2 + bx.size + 8 * len(zeros)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_monomial_matrix_matches_pointwise_eval(data):
    # formal exponents up to 2p + 1, and always the origin, where 0^0 = 1
    p = data.draw(st.sampled_from([2, 3, 5, 7, 11]))
    n = data.draw(st.integers(0, 3))
    bx = Box(PrimeField(p), n)
    monos = data.draw(st.lists(st.tuples(*[st.integers(0, 2 * p + 1)] * n), max_size=8))
    idx = [0] + data.draw(st.lists(st.integers(0, bx.size - 1), max_size=20))
    A = bx.monomial_matrix(monos, np.array(idx, dtype=np.int64))
    assert A.shape == (len(idx), len(monos))
    assert A.tolist() == [[MultiPoly(bx.field, n, {m: 1}).eval(bx.point_of(i)) for m in monos] for i in idx]


@pytest.mark.parametrize("p", [257, 10007])
def test_univariate_horner_matches_term_loop(p):
    # exponents past p, repeated and distinct gaps, a constant term or none
    rng = np.random.default_rng(p)
    bx = Box(PrimeField(p), 1)
    for size in (1, 2, 7, 40):
        exps = rng.choice(3 * p, size=size, replace=False)
        P = MultiPoly(bx.field, 1, {(int(e),): int(c) for e, c in zip(exps, rng.integers(1, p, size=size))})
        assert np.array_equal(bx.eval_poly(P), bx._eval_terms(P, bx.digits()))
    assert not bx.eval_poly(MultiPoly.zero(bx.field, 1)).any()


def test_transform_builds_only_the_powers_that_occur(monkeypatch):
    built = []
    powers = domain._powers
    monkeypatch.setattr(domain, "_powers", lambda p, E: built.append(E) or powers(p, E))
    F = PrimeField(1009)
    bx = Box(F, 2)
    P = MultiPoly(F, 2, {(1000, 0): 2, (3, 0): 1, (3, 5): 4, (0, 2017): 1})
    whole = bx.eval_poly(P)
    # x_1^2017 is x_1^1 as a function; a 1009 x 1009 table would be 10^6 entries per axis
    assert built == [[0, 3, 1000], [0, 1, 5]]
    assert np.array_equal(whole, bx.eval_poly(P, np.arange(bx.size, dtype=np.int64)))


@pytest.fixture
def no_power_table(monkeypatch):
    def refuse(p, E):
        raise AssertionError(f"built a {p}x{len(E)} power table")

    monkeypatch.setattr(domain, "_powers", refuse)


def test_large_p_univariate_never_builds_a_power_table(no_power_table):
    F = PrimeField(10007)
    # x^2 + 3x + 1: 1 + (p - 1)/2 values are hit, each nonzero square twice
    P = MultiPoly(F, 1, {(2,): 1, (1,): 3, (0,): 1})
    hist = histogram_of_poly(P)
    assert hist.domain_size == 10007
    assert sorted(set(hist.counts)) == [0, 1, 2]
    assert hist.counts.count(1) == 1 and hist.counts.count(2) == (10007 - 1) // 2


def test_dense_univariate_large_p_keeps_memory_near_the_box(no_power_table):
    p = 10007
    F = PrimeField(p)
    # sum of x^(2j), j = 0..(p-1)/2: (x^(p+1) - 1)/(x^2 - 1) = 1 unless x = +-1,
    # where it is the number of terms
    terms = (p + 1) // 2
    P = MultiPoly(F, 1, {(e,): 1 for e in range(0, p, 2)})
    tracemalloc.start()
    try:
        hist = histogram_of_poly(P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hist.counts[1] == p - 2 and hist.counts[terms] == 2
    # a few p-long columns, not a p x p table (800 MB) or one column per term (400 MB)
    assert peak < 64 * p * 8


def test_n0_whole_box_never_builds_a_power_table(no_power_table):
    p = 2147483647
    F = PrimeField(p)
    P = MultiPoly(F, 0, {(): p - 5})
    assert domain.box(F, 0).eval_poly(P).tolist() == [p - 5]
    assert histogram_of_poly(MultiPoly(PrimeField(7), 0, {(): 3})).counts == (0, 0, 0, 1, 0, 0, 0)
    # the histogram itself would need p bins: refused before they are allocated
    with pytest.raises(BudgetExceededError):
        histogram_of_poly(P)


def test_value_distribution_charges_its_bins():
    F2 = PrimeField(2)
    fam = PolyFamily([MultiPoly.variable(F2, 1, 0)] * 40)
    # 2 points * 40 members is cheap, but 2^40 bins are not
    with pytest.raises(BudgetExceededError):
        value_distribution(fam)
    with pytest.raises(BudgetExceededError):
        value_distribution(PolyFamily([MultiPoly.variable(F2, 1, 0)] * 3), Budget(7))
    assert value_distribution(PolyFamily([MultiPoly.variable(F2, 1, 0)] * 3), Budget(8)).counts == (1, 0, 0, 0, 0, 0, 0, 1)

