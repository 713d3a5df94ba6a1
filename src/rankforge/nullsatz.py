"""Bounded-degree ideal membership over F_q and the rough point-count bound.

Membership of R in (P_1, ..., P_c) with a degree cap is a finite linear
problem in the cofactor coefficients; it is decided by an exact solve, never
by Groebner bases, and certificates re-expand symbolically.  Everything here
is about formal polynomials: exponents are never reduced by the field
equation, which is exactly why x does not lie in (x^2) even though both cut
out the same points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, VerificationError
from .geometry import enumerate_points
from .linalg import rank_mod, solve_mod
from .poly import MultiPoly, PolyFamily, monomials, product_matrix
from .runtime import Budget


@dataclass
class MembershipCertificate:
    """Cofactors Q_i with sum Q_i P_i = R as formal polynomials."""

    cofactors: tuple[MultiPoly, ...]

    def verify(self, R: MultiPoly, family: PolyFamily) -> None:
        total = MultiPoly.zero(R.field, R.n)
        for Q, P in zip(self.cofactors, family.polys):
            total = total + Q * P
        if total != R:
            raise VerificationError("membership certificate does not expand to R")


@dataclass
class MembershipResult:
    certificate: MembershipCertificate | None
    dual_certificate: np.ndarray | None  # unsatisfiable coefficient combination
    cofactor_caps: tuple[int, ...]

    @property
    def member(self) -> bool:
        return self.certificate is not None


def ideal_membership(
    R: MultiPoly,
    family: PolyFamily,
    e: int,
    cofactor_caps: tuple[int, ...] | None = None,
    budget: Budget | None = None,
) -> MembershipResult:
    """Decide R in (P_1, ..., P_c) with cofactor degree caps (default e - d_i)."""
    if R.field != family.field or R.n != family.n:
        raise InputError("polynomial does not match the family")
    if e < R.degree():
        raise InputError(f"degree cap {e} below deg R = {R.degree()}")
    if cofactor_caps is None:
        cofactor_caps = tuple(e - d for d in family.degrees)
    if len(cofactor_caps) != family.c:
        raise InputError("one cofactor cap per family member required")
    p = family.field.p
    n = family.n

    col_monos = [monomials(n, cap) for cap in cofactor_caps]

    # rows: every monomial reachable by a product, plus R's support
    row_set = set(R.terms)
    for P, monos in zip(family.polys, col_monos):
        for m in monos:
            for mp in P.terms:
                row_set.add(tuple(a + b for a, b in zip(m, mp)))
    rows = sorted(row_set, key=lambda m: (sum(m), m))
    row_of = {m: r for r, m in enumerate(rows)}
    ncols = sum(map(len, col_monos))
    (budget or Budget()).charge(max(len(rows) * max(ncols, 1), 1), "membership solve")

    A = np.hstack([product_matrix(row_of, P.terms.items(), monos) for P, monos in zip(family.polys, col_monos)])
    b = np.zeros(len(rows), dtype=np.int64)
    for m, c in R.terms.items():
        b[row_of[m]] = c

    x, dual = solve_mod(A, b, p)
    if x is None:
        return MembershipResult(None, dual, cofactor_caps)
    cofactors = []
    col = 0
    for monos in col_monos:
        cofactors.append(MultiPoly(family.field, n, {m: int(c) for m, c in zip(monos, x[col:]) if c}))
        col += len(monos)
    cert = MembershipCertificate(tuple(cofactors))
    cert.verify(R, family)
    return MembershipResult(cert, None, cofactor_caps)


# ---------------------------------------------------------------------------
# Vanishing space vs ideal part, degree by degree
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DimsReport:
    e: int
    vanishing_dim: int
    ideal_dim: int

    @property
    def equal(self) -> bool:
        return self.vanishing_dim == self.ideal_dim


def vanishing_vs_ideal_dims(
    family: PolyFamily,
    e: int,
    budget: Budget | None = None,
) -> DimsReport:
    """Compare, inside formal degree <= e: polynomials vanishing on X(F_q)
    against the capped ideal part spanned by monomial multiples of the P_i."""
    budget = budget or Budget()
    p = family.field.p
    n = family.n
    X = enumerate_points(family, budget)
    monos = monomials(n, e)
    row_of = {m: i for i, m in enumerate(monos)}
    budget.charge(max(len(X), 1) * len(monos), "vanishing space evaluation")

    # vanishing part: nullspace of the evaluation matrix on X
    if len(X) == 0:
        vanishing_dim = len(monos)
    else:
        vanishing_dim = len(monos) - rank_mod(X.box.monomial_matrix(monos, X.indices), p)

    # capped ideal part inside degree <= e: columns are the monomial multiples of each P_i
    G = np.hstack([product_matrix(row_of, P.terms.items(), monomials(n, e - d)) for P, d in zip(family.polys, family.degrees)])
    ideal_dim = rank_mod(G, p)
    if ideal_dim > vanishing_dim:
        raise VerificationError("ideal part exceeds the vanishing space")
    return DimsReport(e, vanishing_dim, ideal_dim)


# ---------------------------------------------------------------------------
# Rough point-count bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RoughBoundReport:
    count: int
    bound: int
    codim: int
    degree_product: int

    @property
    def ok(self) -> bool:
        return self.count <= self.bound

    @property
    def equality(self) -> bool:
        return self.count == self.bound


def rough_bound_check(
    family: PolyFamily,
    extra: MultiPoly | None = None,
    budget: Budget | None = None,
) -> RoughBoundReport:
    """Point count of the (by construction complete-intersection) family,
    optionally cut further by one extra polynomial, against q^{n-c} * prod d_i.

    The dimension hypothesis is supplied by the caller's choice of fixture;
    nothing here computes scheme dimension.
    """
    budget = budget or Budget()
    field = family.field
    q = field.p
    n = family.n
    polys = list(family.polys)
    degrees = list(family.degrees)
    if extra is not None:
        if extra.degree() < 1:
            raise InputError("extra polynomial must be nonconstant")
        polys.append(extra)
        degrees.append(extra.degree())
    fam = PolyFamily(polys, degrees)
    X = enumerate_points(fam, budget)
    c = len(polys)
    if c > n:
        raise InputError("more equations than variables; no dimension hypothesis")
    D = 1
    for d in degrees:
        D *= max(d, 1)
    bound = q ** (n - c) * D
    return RoughBoundReport(len(X), bound, c, D)
