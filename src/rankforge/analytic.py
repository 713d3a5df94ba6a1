"""Exact character sums: bias, Gowers uniformity norms, analytic rank, and
value equidistribution.

No complex number enters any computation.  A sum of additive-character values
sum_x e_p(f(x)) is stored as the integer histogram N_k = #{x : f(x) = k}.
Such a sum is a cyclotomic integer sum_k N_k zeta^k; it is rational exactly
when N_1 = ... = N_{p-1}, in which case it equals N_0 - N_1 (the minimal
polynomial 1 + zeta + ... + zeta^{p-1} = 0 collapses the tail).  Squared
magnitudes |sum_x e_p(f(x))|^2 expand the same way through the circular
autocorrelation of the histogram.  Whenever the tail does not collapse the
histogram itself is the stored truth and floats are presentation only.

Multilinear forms have histograms that are uniform off zero (scaling any one
block permutes fibers), so every Gowers norm computed through the d-fold
difference form is an exact rational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .domain import _bincount, _key_dtype, box
from .errors import InputError, VerificationError
from .poly import MultiPoly, PolyFamily, multilinear_form
from .runtime import Budget


@dataclass(frozen=True)
class CharHistogram:
    """Exact counts of a k-valued expression over an enumerated domain."""

    p: int
    counts: tuple[int, ...]
    domain_size: int

    def __post_init__(self):
        if len(self.counts) != self.p:
            raise InputError("histogram length must equal the modulus")
        if sum(self.counts) != self.domain_size:
            raise InputError("histogram counts do not sum to the domain size")

    @staticmethod
    def from_counts(p: int, counts) -> "CharHistogram":
        counts = tuple(int(c) for c in counts)
        return CharHistogram(p, counts, sum(counts))

    # -- exact extraction -------------------------------------------------------

    def char_sum_rational(self) -> Fraction | None:
        """sum_k N_k zeta^k as a rational, or None if it is irrational."""
        tail = self.counts[1:]
        if all(t == tail[0] for t in tail):
            return Fraction(self.counts[0] - self.counts[1], 1) if self.p > 1 else Fraction(self.counts[0])
        return None

    def autocorrelation(self) -> tuple[int, ...]:
        """w_k = sum_a N_a N_{a-k}; the cyclotomic expansion of |sum e_p|^2."""
        return self._autocorrelation

    @cached_property
    def _autocorrelation(self) -> tuple[int, ...]:
        """One correlation of the counts repeated twice against the counts, p^2
        steps in C: exact in int64 while domain_size^2 < 2^63, since every
        w_k is at most that, and in Python integers past it."""
        c = np.array(self.counts, dtype=np.int64 if self.domain_size**2 < 2**63 else object)
        return tuple(int(w) for w in np.correlate(np.concatenate([c, c]), c, "valid")[: self.p])

    def magnitude_squared(self) -> Fraction | None:
        """|E e_p|^2 as an exact rational (normalized), or None if irrational."""
        w = self.autocorrelation()
        tail = w[1:]
        if tail and not all(t == tail[0] for t in tail):
            return None
        num = w[0] - (w[1] if self.p > 1 else 0)
        return Fraction(num, self.domain_size**2)

    def magnitude_squared_float(self) -> float:
        w = self.autocorrelation()
        val = sum(wk * math.cos(2 * math.pi * k / self.p) for k, wk in enumerate(w))
        return val / self.domain_size**2


@dataclass(frozen=True)
class ExactMagnitude:
    """|E e_p(f)| over a domain, stored exactly.

    mag_sq is the exact rational |E|^2 when the cyclotomic expansion
    collapses; otherwise None, with the histogram as the stored truth.
    """

    histogram: CharHistogram
    mag_sq: Fraction | None

    @staticmethod
    def from_histogram(hist: CharHistogram) -> "ExactMagnitude":
        return ExactMagnitude(hist, hist.magnitude_squared())

    @property
    def float_view(self) -> float:
        if self.mag_sq is not None:
            return math.sqrt(float(self.mag_sq))
        return math.sqrt(max(self.histogram.magnitude_squared_float(), 0.0))

    def magnitude_exact(self) -> Fraction | None:
        """|E| itself when it is rational (mag_sq a perfect rational square)."""
        if self.mag_sq is None:
            return None
        num, den = self.mag_sq.numerator, self.mag_sq.denominator
        rn, rd = math.isqrt(num), math.isqrt(den)
        if rn * rn == num and rd * rd == den:
            return Fraction(rn, rd)
        return None


# ---------------------------------------------------------------------------
# Histogram builders
# ---------------------------------------------------------------------------


def histogram_of_poly(P: MultiPoly, budget: Budget | None = None) -> CharHistogram:
    """Histogram of P over all of k^n, from one whole-box count.

    The charge covers the p bins as well as the p^n points.
    """
    field = P.field
    b = box(field, P.n)
    p = field.p
    (budget or Budget()).charge(max(b.size, p), "histogram enumeration")
    return CharHistogram.from_counts(p, b.value_counts([P]))


def bias(
    P: MultiPoly,
    budget: Budget | None = None,
    ctx: object = None,  # unused; perfbench/workloads.py passes a ParallelContext here
) -> ExactMagnitude:
    """|E_{x in k^n} e_p(P(x))| as an exact magnitude.

    Reading it off the histogram correlates the p counts with themselves,
    p^2 steps, charged after the histogram's own charge.
    """
    budget = budget or Budget()
    hist = histogram_of_poly(P, budget)
    budget.charge(P.field.p**2, "histogram read-out")
    return ExactMagnitude.from_histogram(hist)


# ---------------------------------------------------------------------------
# Gowers norms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GowersNorm:
    """The U_d norm of e_p(P), held as its exact 2^d-th power."""

    d: int
    histogram: CharHistogram  # histogram of the d-fold difference form over V^d
    norm_pow: Fraction  # ||e_p(P)||_{U_d}^{2^d}, exact

    @property
    def norm_float(self) -> float:
        return float(norm_root_float(self.norm_pow, self.d))


def norm_root_float(norm_pow: Fraction, d: int) -> float:
    return float(norm_pow) ** (1.0 / (1 << d))


def gowers_norm(
    P: MultiPoly,
    d: int,
    budget: Budget | None = None,
    ctx: object = None,  # unused; perfbench/workloads.py passes a ParallelContext here
) -> GowersNorm:
    """U_d norm of e_p(P) for d >= deg P, through the difference-form histogram.

    ||e_p(P)||^{2^d} = |E over direction tuples of e_p of the order-d form|;
    the form's histogram is uniform away from zero, so the value is the exact
    rational (N_0 - N_1) / q^{nd}.
    """
    if P.degree() > d:
        raise InputError(
            f"gowers_norm requires d >= deg P (got d={d}, deg={P.degree()}); "
            "use gowers_norm_direct for the experimental low-order path"
        )
    field = P.field
    n = P.n
    (budget or Budget()).charge(field.p ** (n * d), "difference-form histogram")
    form = multilinear_form(P, d) if d >= 1 else None
    if form is None or form.is_zero():
        hist = CharHistogram.from_counts(
            field.p, [field.p ** (n * d)] + [0] * (field.p - 1)
        )
        return GowersNorm(d, hist, Fraction(1))
    hist = histogram_of_poly(form.poly, budget)
    val = hist.char_sum_rational()
    if val is None:
        raise VerificationError("difference-form histogram is not uniform off zero")
    norm_pow = Fraction(val, hist.domain_size)
    if norm_pow < 0:
        raise VerificationError("negative Gowers norm power")
    return GowersNorm(d, hist, norm_pow)


@dataclass(frozen=True)
class DirectGowersValue:
    d: int
    histogram: CharHistogram  # of the signed cube sum over V^{d+1}
    value: Fraction | None  # rational value of the norm power, when it collapses

    @property
    def float_view(self) -> float:
        if self.value is not None:
            return float(self.value)
        h = self.histogram
        return sum(
            nk * math.cos(2 * math.pi * k / h.p) for k, nk in enumerate(h.counts)
        ) / h.domain_size


def gowers_norm_direct(
    P: MultiPoly,
    d: int,
    budget: Budget | None = None,
    ctx: object = None,  # unused; perfbench/workloads.py passes a ParallelContext here
) -> DirectGowersValue:
    """U_d norm power straight from the definition: d multiplicative
    derivatives F <- F(x, h_1..h_k) - F(x + h_{k+1}, h_1..h_k) of P's values
    (taken at indices, sharing no route with gowers_norm's transform) leave the
    signed cube sum over (x, h_1..h_d), whose histogram gives the value.

    Cross-validation path; also runs for d < deg P (experimental), where the
    value may be a genuinely irrational cyclotomic number.
    """
    field = P.field
    p = field.p
    n = P.n
    (budget or Budget()).charge(p ** (n * (d + 1)) * (1 << d), "direct Gowers enumeration")
    bx = box(field, n)
    # values in the narrowest unsigned dtype that holds F + p - G <= 2p - 1
    F = bx.eval_poly(P, np.arange(bx.size)).astype(_key_dtype(2 * p))[:, None]  # rows x, columns (h_1..h_k)
    if d:  # the p^(2n)-entry addition table is within the charge only for d >= 1
        D = bx.digits()
        add = np.zeros((bx.size, bx.size), dtype=np.int64)  # add[x, h] = index of x + h
        for i in range(n):
            add += (D[:, i, None] + D[None, :, i]) % p * p ** (n - 1 - i)
        for _ in range(d):
            G = F[add]  # G[x, h, :] = F[x + h, :]
            np.subtract(p, G, out=G)
            G += F[:, None, :]
            G %= p
            F = G.reshape(bx.size, -1)
    hist = CharHistogram.from_counts(p, _bincount(F.ravel(), p))
    val = hist.char_sum_rational()
    if val is not None:
        val = Fraction(val, hist.domain_size)
    return DirectGowersValue(d, hist, val)


@dataclass(frozen=True)
class AnalyticRank:
    d: int
    norm: GowersNorm
    exact: Fraction | None  # -log_q of the norm, when the power is an exact power of q
    approx: float

    def __repr__(self) -> str:
        if self.exact is not None:
            return f"AnalyticRank({self.exact})"
        return f"AnalyticRank(~{self.approx:.6g})"


def analytic_rank(P: MultiPoly, d: int, budget: Budget | None = None) -> AnalyticRank:
    """arank = -log_q ||e_p(P)||_{U_d}, symbolic when the norm is a power of q."""
    gn = gowers_norm(P, d, budget)
    q = P.field.p
    exact = None
    if gn.norm_pow > 0:
        num, den = gn.norm_pow.numerator, gn.norm_pow.denominator
        if num == 1:
            t = _exact_log(den, q)
            if t is not None:
                exact = Fraction(t, 1 << d)
        elif den == 1:
            t = _exact_log(num, q)
            if t is not None:
                exact = Fraction(-t, 1 << d)
    if gn.norm_pow == 0:
        approx = math.inf
    else:
        approx = -math.log(float(gn.norm_pow), q) / (1 << d)
    if exact is not None and exact < 0:
        raise VerificationError("negative analytic rank")
    return AnalyticRank(d, gn, exact, approx)


def _exact_log(value: int, base: int) -> int | None:
    if value < 1:
        return None
    t = 0
    while value % base == 0:
        value //= base
        t += 1
    return t if value == 1 else None


# ---------------------------------------------------------------------------
# Value distribution of a family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValueDistribution:
    family_size: int  # c
    p: int
    counts: tuple[int, ...]  # indexed by the value tuple, row-major over k^c
    domain_size: int
    epsilon: Fraction  # max_b |q^c count(b) - q^n| / q^n

    def count_of(self, b: tuple[int, ...]) -> int:
        idx = 0
        for v in b:
            idx = idx * self.p + (v % self.p)
        return self.counts[idx]


def value_distribution(
    family: PolyFamily,
    budget: Budget | None = None,
    ctx: object = None,  # unused; perfbench/workloads.py passes a ParallelContext here
) -> ValueDistribution:
    """Exact fiber counts of the map x -> (P_1(x), ..., P_c(x)) on k^n,
    from one whole-box count of the family."""
    field = family.field
    p = field.p
    n = family.n
    c = family.c
    b = box(field, n)
    # p^c bins and a Fraction per bin: refuse a large c before allocating them
    (budget or Budget()).charge(max(b.size * c, p**c), "value distribution enumeration")
    counts = b.value_counts(family)
    total = p**n
    qc = p**c
    eps = max(Fraction(abs(int(cnt) * qc - total), total) for cnt in counts)
    return ValueDistribution(c, p, tuple(int(x) for x in counts), total, eps)


def count_points_char_sum(
    family: PolyFamily,
    b_target: tuple[int, ...],
    budget: Budget | None = None,
) -> int:
    """|{x : P_i(x) = b_i for all i}| via the full character-sum identity.

    Enumerates the (a, x) double sum q^{-c} sum_a sum_x e_p(sum_i a_i (P_i(x)-b_i))
    as one histogram; the cyclotomic tail must cancel exactly, which is itself
    a consistency check.
    """
    field = family.field
    p = field.p
    n = family.n
    c = family.c
    if len(b_target) != c:
        raise InputError("target tuple length must equal the family size")
    bx = box(field, n)
    (budget or Budget()).charge(bx.size * p**c, "character-sum point count")
    vals = [bx.eval_poly(P) for P in family]
    shifted = [(v - (t % p)) % p for v, t in zip(vals, b_target)]
    counts = np.zeros(p, dtype=np.int64)
    abox = box(field, c)
    for a_idx in range(p**c):
        a = abox.point_of(a_idx)
        combo = np.zeros(bx.size, dtype=np.int64)
        for ai, sv in zip(a, shifted):
            if ai:
                combo = (combo + ai * sv) % p
        counts += np.bincount(combo, minlength=p)
    hist = CharHistogram.from_counts(p, counts)
    val = hist.char_sum_rational()
    if val is None:
        raise VerificationError("character-sum point count did not collapse to a rational")
    qc = p**c
    if val % qc != 0:
        raise VerificationError("character-sum point count is not divisible by q^c")
    result = int(val) // qc
    if result < 0:
        raise VerificationError("negative point count")
    return result
