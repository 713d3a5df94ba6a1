"""Whole-box evaluation: the tensor-product transform, in both of its
layouts, against independent oracles, its routing and memory, and the
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
)
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
    # the full histogram from the other layout, and from the public reduction
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
    # the int64 result is 8 bytes a point; the matmul route takes 16 or more
    assert peak <= 12 * bx.size


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

