import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankforge import (
    Budget,
    BudgetExceededError,
    CharHistogram,
    InputError,
    MultiPoly,
    PolyFamily,
    PrimeField,
    analytic_rank,
    bias,
    count_points_char_sum,
    gowers_norm,
    gowers_norm_direct,
    histogram_of_poly,
    random_poly,
    value_distribution,
)

from rankforge.explicit import ExplicitVariety

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


def poly_of(field, n, terms):
    return MultiPoly.from_terms(field, n, terms)


def test_bias_examples():
    assert bias(MultiPoly.variable(F3, 1, 0)).mag_sq == 0  # orthogonality
    b = bias(poly_of(F2, 2, [(1, (1, 1))]))
    # oracle: direct 4-point enumeration
    counts = [0, 0]
    for x in (0, 1):
        for y in (0, 1):
            counts[(x * y) % 2] += 1
    assert list(b.histogram.counts) == counts == [3, 1]
    assert b.magnitude_exact() == Fraction(1, 2)
    assert bias(MultiPoly.zero(F3, 2)).mag_sq == 1


def test_bias_budget_refusal():
    with pytest.raises(BudgetExceededError):
        bias(MultiPoly.variable(F7, 6, 0), Budget(100))


def test_gowers_low_degree_norm_one():
    # deg P <= d-1: the order-d form vanishes and the norm is 1
    P = poly_of(F3, 2, [(1, (1, 0)), (2, (0, 0))])
    assert gowers_norm(P, 2).norm_pow == 1


def test_gowers_requires_d_at_least_degree():
    P = poly_of(F2, 3, [(1, (1, 1, 1))])
    with pytest.raises(InputError):
        gowers_norm(P, 2)
    # the direct path still runs below the degree (experimental)
    res = gowers_norm_direct(P, 2)
    assert res.histogram.domain_size == 2 ** (3 * 3)


def test_gowers_diagonal_family_values():
    # norm^4 = 4^{-n} for the n-block diagonal quadratic over F_2, n = 1, 2;
    # oracle: the full direct-definition enumeration
    for n in (1, 2):
        terms = []
        for i in range(n):
            e = [0] * (2 * n)
            e[2 * i] = 1
            e[2 * i + 1] = 1
            terms.append((1, tuple(e)))
        P = poly_of(F2, 2 * n, terms)
        gn = gowers_norm(P, 2)
        direct = gowers_norm_direct(P, 2)
        assert gn.norm_pow == Fraction(1, 4**n)
        assert direct.value == gn.norm_pow


def test_gowers_cubic_dual_path():
    P = poly_of(F2, 3, [(1, (1, 1, 1))])
    gn = gowers_norm(P, 3)
    direct = gowers_norm_direct(P, 3)
    assert direct.value == gn.norm_pow
    assert 0 < gn.norm_pow < 1


def test_gowers_identity_random_sample():
    # difference-form path equals direct definition exactly on random cubics
    rng = random.Random(123)
    for field, n in ((F2, 3), (F3, 2)):
        for _ in range(30):
            d = rng.choice((2, 3))
            P = random_poly(field, n, d, rng)
            assert gowers_norm(P, d).norm_pow == gowers_norm_direct(P, d).value


def test_direct_gowers_holds_narrow_values():
    # explicit-analytic-rank's F_2^6 call: the last difference has 64^3
    # entries, 2.1 MB as int64 and 0.26 MB as uint8; the peak measured
    # 0.79 MB (the uint8 table and one bincount chunk), where int64 values
    # peaked at 2.13 MB
    P = ExplicitVariety(2, 3, F2).polynomial()
    tracemalloc.start()
    try:
        direct = gowers_norm_direct(P, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert direct.histogram.counts == (133120, 129024)
    assert peak < 2**20


def test_arank_examples():
    assert analytic_rank(poly_of(F2, 2, [(1, (1, 1))]), 2).exact == Fraction(1, 2)
    # degree below the order: rank 0
    assert analytic_rank(MultiPoly.variable(F2, 2, 0), 2).exact == 0
    P22 = poly_of(F2, 4, [(1, (1, 1, 0, 0)), (1, (0, 0, 1, 1))])
    assert analytic_rank(P22, 2).exact == 1


def test_value_distribution_examples():
    # linear map: exactly uniform
    vd = value_distribution(PolyFamily([MultiPoly.variable(F5, 1, 0)]))
    assert vd.counts == (1,) * 5 and vd.epsilon == 0
    # xy over F3: counts 5/2/2, eps = 2/3 (9-point oracle)
    oracle = [0, 0, 0]
    for x in range(3):
        for y in range(3):
            oracle[(x * y) % 3] += 1
    vd = value_distribution(PolyFamily([poly_of(F3, 2, [(1, (1, 1))])]))
    assert list(vd.counts) == oracle == [5, 2, 2]
    assert vd.epsilon == Fraction(2, 3)
    # diagonal quadratic over F3: eps < 1/3 (81-point enumeration)
    P = poly_of(F3, 4, [(1, (1, 1, 0, 0)), (1, (0, 0, 1, 1))])
    vd = value_distribution(PolyFamily([P]))
    oracle = [0, 0, 0]
    for pt in itertools.product(range(3), repeat=4):
        oracle[(pt[0] * pt[1] + pt[2] * pt[3]) % 3] += 1
    assert list(vd.counts) == oracle
    assert vd.epsilon < Fraction(1, 3)


def test_count_points_char_sum_examples():
    fam = PolyFamily([poly_of(F3, 2, [(1, (1, 1))])])
    assert count_points_char_sum(fam, (0,)) == 5
    assert count_points_char_sum(PolyFamily([MultiPoly.variable(F7, 1, 0)]), (3,)) == 1
    fam2 = PolyFamily([MultiPoly.variable(F3, 2, 0), MultiPoly.variable(F3, 2, 1)])
    assert count_points_char_sum(fam2, (0, 0)) == 1


def test_count_points_matches_brute_force_all_levels():
    # character-sum identity vs direct enumeration, exhaustively over targets
    rng = random.Random(5)
    for _ in range(5):
        P1 = random_poly(F3, 2, 2, rng, ensure_degree=False)
        P2 = random_poly(F3, 2, 1, rng, ensure_degree=False)
        fam = PolyFamily([P1, P2])
        brute = {}
        for pt in itertools.product(range(3), repeat=2):
            key = (P1.eval(pt), P2.eval(pt))
            brute[key] = brute.get(key, 0) + 1
        for target in itertools.product(range(3), repeat=2):
            assert count_points_char_sum(fam, target) == brute.get(target, 0)


def test_irrational_magnitude_is_stored_not_faked():
    # the cube map over F_7 has an irrational squared bias; the histogram is
    # the stored truth and mag_sq is None
    b = bias(poly_of(F7, 1, [(1, (3,))]))
    assert b.mag_sq is None
    assert list(b.histogram.counts) == [1, 3, 0, 0, 0, 0, 3]
    assert b.float_view > 0


def autocorrelation_loop(counts) -> tuple[int, ...]:
    """w_k = sum_a N_a N_{a-k} by the Python p^2 loop: the reference."""
    p = len(counts)
    return tuple(sum(counts[a] * counts[(a - k) % p] for a in range(p)) for k in range(p))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 11, 101]), st.data())
def test_autocorrelation_matches_the_loop(p, data):
    counts = data.draw(st.lists(st.integers(0, 10**6), min_size=p, max_size=p))
    h = CharHistogram.from_counts(p, counts)
    assert h.autocorrelation() == autocorrelation_loop(counts)
    assert h.autocorrelation() is h.autocorrelation()  # computed once


@pytest.mark.parametrize(
    "counts",
    [
        [math.isqrt(2**63 - 1) - 1, 1],  # domain_size^2 just below 2^63: int64 is exact
        [2**31, 2**31 + 1],  # just past it
        [2**40 + 3, 2**41 - 1, 7],
    ],
)
def test_autocorrelation_past_int64_uses_python_ints(counts):
    h = CharHistogram.from_counts(len(counts), counts)
    w = h.autocorrelation()
    assert w == autocorrelation_loop(counts) and all(type(x) is int for x in w)


@pytest.mark.parametrize(
    "P",
    [
        poly_of(F7, 1, [(1, (3,))]),  # irrational: the float comes from w
        poly_of(PrimeField(1009), 1, [(1, (3,)), (5, (1,))]),
        poly_of(F5, 2, [(1, (2, 0)), (3, (1, 1)), (1, (0, 0))]),
        poly_of(F2, 3, [(1, (1, 1, 0)), (1, (0, 1, 1))]),
    ],
)
def test_bias_read_out_is_unchanged(P):
    # mag_sq and the float as the p^2 loop gave them
    b = bias(P)
    p, N = P.field.p, b.histogram.domain_size
    w = autocorrelation_loop(b.histogram.counts)
    tail = w[1:]
    mag_sq = Fraction(w[0] - w[1], N**2) if all(t == tail[0] for t in tail) else None
    assert b.mag_sq == mag_sq
    if mag_sq is None:
        val = sum(wk * math.cos(2 * math.pi * k / p) for k, wk in enumerate(w)) / N**2
        assert b.float_view == math.sqrt(max(val, 0.0))
    else:
        assert b.float_view == math.sqrt(float(mag_sq))


def test_bias_over_a_prime_near_4099_reads_out_in_time():
    # the Python read-out took about 4 s here, twice p^2 multiply-adds
    P = poly_of(PrimeField(4099), 1, [(1, (3,))])
    t0 = time.perf_counter()
    b = bias(P)
    assert time.perf_counter() - t0 < 1.0
    # 4099 = 1 mod 3: 0 has one cube root, each nonzero cube three
    assert b.histogram.counts[0] == 1 and sorted(set(b.histogram.counts)) == [0, 1, 3]
    assert b.mag_sq is None and 0 < b.float_view < 1


def test_bias_refuses_a_read_out_past_the_budget():
    P = poly_of(PrimeField(10007), 1, [(1, (3,))])
    # the histogram is within the default budget, its p^2 read-out is not
    assert histogram_of_poly(P).domain_size == 10007
    with pytest.raises(BudgetExceededError, match="histogram read-out"):
        bias(P)
    with pytest.raises(BudgetExceededError, match="histogram read-out"):
        bias(poly_of(F7, 1, [(1, (3,))]), Budget(48))
    assert bias(poly_of(F7, 1, [(1, (3,))]), Budget(49)).mag_sq is None


def _direct_histogram_oracle(P, d):
    """Counts of sum_omega (-1)^|omega| P(x + omega.h) over every (x, h_1..h_d),
    evaluated point by point."""
    p, n = P.field.p, P.n
    counts = [0] * p
    for pt in itertools.product(range(p), repeat=n * (d + 1)):
        x, hs = pt[:n], [pt[(k + 1) * n : (k + 2) * n] for k in range(d)]
        total = 0
        for omega in itertools.product((0, 1), repeat=d):
            y = [(xi + sum(w * h[i] for w, h in zip(omega, hs))) % p for i, xi in enumerate(x)]
            total += (-1) ** sum(omega) * P.eval(y)
        counts[total % p] += 1
    return counts


def test_gowers_direct_histogram_matches_definition():
    # the iterated-difference path against the cube sum, also below the degree
    rng = random.Random(7)
    cases = [
        (F2, 3, 3, 0), (F2, 3, 3, 1), (F2, 3, 3, 2), (F2, 2, 2, 3),
        (F3, 2, 3, 0), (F3, 2, 3, 1), (F3, 2, 3, 2), (F3, 2, 2, 2),
        (F5, 1, 4, 0), (F5, 1, 4, 1), (F5, 1, 4, 2), (F5, 2, 3, 1),
        (PrimeField(257), 1, 2, 1),  # values held in uint16, not uint8
    ]
    for field, n, deg, d in cases:
        P = random_poly(field, n, deg, rng)
        res = gowers_norm_direct(P, d)
        assert list(res.histogram.counts) == _direct_histogram_oracle(P, d)
        assert res.histogram.domain_size == field.p ** (n * (d + 1))
