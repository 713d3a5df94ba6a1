"""Weak polynomiality on a variety, the two function spaces it defines, and
constructive extension to global polynomials.

A function on X is weakly polynomial of degree <= a when its restriction to
every affine subspace inside X is a polynomial of degree <= a.  It suffices
to test subspaces of dimension l = ceil((a+1)/(q - q/p)): restrictions to
lower-dimensional subspaces have degree at most (q-1)(l-1) <= a
automatically, and on higher-dimensional ones the full-space testing
criterion applies.  For prime fields this l is ceil((a+1)/(p-1)), so 1 or 2
in every shipped experiment.

Extension is realized twice: `extend_by_solve` is the exact linear solver
with a dual certificate on infeasibility, and `extend_by_slices` builds the
polynomial level set by level set along a linear functional, dividing out
the already-covered levels.  Whenever both succeed they agree on X.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InputError, VerificationError
from .gf import PrimeField
from .linalg import (
    matmul_mod,
    nullspace_mod,
    rref_mod,
    row_space_leq,
    solve_mod,
)
from .poly import MultiPoly, monomials, vandermonde_inverse
from .geometry import AffineSubspace, Hyperplane, VarietyPoints, slice_variety, subspace_flats
from .runtime import Budget


# ---------------------------------------------------------------------------
# Functions on a variety
# ---------------------------------------------------------------------------


@dataclass
class FunctionOnX:
    """A k-valued function on the points of X, as a value vector in variety order."""

    X: VarietyPoints
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.int64) % self.X.field.p
        if self.values.shape != (len(self.X),):
            raise InputError("value vector length must equal |X|")

    @staticmethod
    def from_poly(X: VarietyPoints, P: MultiPoly) -> "FunctionOnX":
        return FunctionOnX(X, X.box.eval_poly(P, X.indices))

    def __add__(self, other: "FunctionOnX") -> "FunctionOnX":
        return FunctionOnX(self.X, (self.values + other.values) % self.X.field.p)

    def __sub__(self, other: "FunctionOnX") -> "FunctionOnX":
        return FunctionOnX(self.X, (self.values - other.values) % self.X.field.p)

    def scale(self, c: int) -> "FunctionOnX":
        return FunctionOnX(self.X, (self.values * (c % self.X.field.p)) % self.X.field.p)

    def is_zero(self) -> bool:
        return not self.values.any()

    def subtract_poly(self, P: MultiPoly) -> "FunctionOnX":
        return self - FunctionOnX.from_poly(self.X, P)

    def values_at_box_indices(self, idx: np.ndarray) -> np.ndarray:
        return self.values[self.X.ordinals_of_indices(idx)]

    def restrict_to(self, Xsub: VarietyPoints) -> "FunctionOnX":
        return FunctionOnX(Xsub, self.values_at_box_indices(Xsub.indices))


def local_testing_dimension(field: PrimeField, a: int) -> int:
    """Subspace dimension that suffices to certify weak degree <= a."""
    p = field.p
    # q - q/p = p - 1 for a prime field
    return max(1, -(-(a + 1) // (p - 1)))


# ---------------------------------------------------------------------------
# Weak polynomiality testing
# ---------------------------------------------------------------------------


def _forbidden_coefficient_rows(field: PrimeField, l: int, a: int) -> np.ndarray:
    """Rows extracting grid-interpolation coefficients of monomials of degree > a.

    Row order matches itertools.product over exponents; columns are the q^l
    grid points in row-major parameter order.
    """
    p = field.p
    Vinv = vandermonde_inverse(field)
    rows = []
    for e in itertools.product(range(p), repeat=l):
        if sum(e) > a:
            row = np.ones(1, dtype=np.int64)
            for ei in e:
                row = np.kron(row, Vinv[ei]) % p
            rows.append(row)
    if rows:
        return np.stack(rows)
    return np.zeros((0, p**l), dtype=np.int64)


def _flat_blocks(X: VarietyPoints, a: int, budget: Budget | None):
    """The forbidden-coefficient rows F of the testing dimension l, the
    l-flats inside X in canonical order, and their ordinals in X in blocks of
    about |X| constraint rows: (first flat, (flats, p^l) ordinals) pairs,
    none when F is empty.  The flats are grown before this returns."""
    l = local_testing_dimension(X.field, a)
    flats = subspace_flats(X, l, budget=budget)
    F = _forbidden_coefficient_rows(X.field, l, a)
    per_block = max(1, len(X) // max(1, len(F)))
    starts = range(0, len(flats) if len(F) else 0, per_block)
    return F, flats, ((s, X.ordinals_of_indices(flats[s : s + per_block].points())) for s in starts)


def is_weakly_polynomial(
    f: FunctionOnX,
    a: int,
    budget: Budget | None = None,
) -> tuple[bool, AffineSubspace | None]:
    """Test weak degree <= a; on failure also return the first offending
    subspace in canonical order."""
    p = f.X.field.p
    F, flats, blocks = _flat_blocks(f.X, a, budget)
    for s, ords in blocks:
        bad = np.flatnonzero((f.values[ords] @ F.T % p).any(axis=1))
        if len(bad):
            return False, flats[s + bad[:1]].subspaces()[0]
    return True, None


@dataclass
class LinearSpaceOfFunctions:
    """A subspace of k^X with an echelonized basis (rows)."""

    X: VarietyPoints
    basis: np.ndarray  # (dim, |X|), RREF rows

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def contains_space(self, other: "LinearSpaceOfFunctions") -> bool:
        return row_space_leq(other.basis, self.basis, self.X.field.p)

    def functions(self) -> list[FunctionOnX]:
        return [FunctionOnX(self.X, row) for row in self.basis]


def weak_space(X: VarietyPoints, a: int, budget: Budget | None = None) -> LinearSpaceOfFunctions:
    """Exact solution space of all weak-degree-<= a constraints on k^X.

    The constraint rows (one per forbidden monomial and flat) come in blocks
    of about |X| rows, each read off one (flats, p^l) array of the block's
    ordinals in X, and only a basis K (|X| x k, as columns) of the functions
    meeting every block so far is kept.  The first block's nullspace gives K.
    A later block meets f = K c iff F K[L] c = 0 for each of its flats L
    (K[L]: K's rows at L's points), so with N the nullspace of those f x k
    blocks stacked, K becomes K N^T.  Memory is one block plus |X| * k,
    however many flats X holds.  The basis returned is the RREF of K's
    columns, unique for the space.
    """
    p, nX = X.field.p, len(X)
    F, _, blocks = _flat_blocks(X, a, budget)
    K = None
    for _, ords in blocks:
        if K is None:
            rows = np.zeros((len(F) * len(ords), nX), dtype=np.int64)
            for j, o in enumerate(ords):
                rows[j * len(F) : (j + 1) * len(F), o] = F
            K = nullspace_mod(rows, p).T
        else:
            C = matmul_mod(F, K[ords], p).reshape(-1, K.shape[1])
            K = matmul_mod(K, nullspace_mod(C, p).T, p)
    if K is None:
        return LinearSpaceOfFunctions(X, np.eye(nX, dtype=np.int64))
    R, _, rank = rref_mod(K.T, p)
    return LinearSpaceOfFunctions(X, R[:rank])


def restriction_space(X: VarietyPoints, a: int, budget: Budget | None = None) -> LinearSpaceOfFunctions:
    """Span of restrictions to X of global polynomials of degree <= a."""
    field = X.field
    monos = monomials(X.n, a, cap=field.p - 1)
    (budget or Budget()).charge(len(X) * len(monos), "restriction space evaluation")
    if len(X) == 0:
        return LinearSpaceOfFunctions(X, np.zeros((0, 0), dtype=np.int64))
    R, _, rank = rref_mod(X.box.monomial_matrix(monos, X.indices).T, field.p)
    return LinearSpaceOfFunctions(X, R[:rank])


@dataclass(frozen=True)
class StarReport:
    holds: bool
    weak_dim: int
    restriction_dim: int

    @property
    def gap(self) -> int:
        return self.weak_dim - self.restriction_dim


def star_check(X: VarietyPoints, a: int, budget: Budget | None = None) -> StarReport:
    """Whether every weakly polynomial function of degree <= a extends globally.

    Compares dimensions after verifying the containment restriction <= weak,
    which must hold unconditionally.
    """
    ws = weak_space(X, a, budget=budget)
    rs = restriction_space(X, a, budget=budget)
    if not ws.contains_space(rs):
        raise VerificationError("restriction space not contained in weak space")
    return StarReport(ws.dim == rs.dim, ws.dim, rs.dim)


# ---------------------------------------------------------------------------
# Extension by exact solve
# ---------------------------------------------------------------------------


@dataclass
class ExtensionResult:
    poly: MultiPoly | None
    dual_certificate: np.ndarray | None  # y with y.A = 0, y.f = 1 when infeasible

    @property
    def feasible(self) -> bool:
        return self.poly is not None


def extend_by_solve(f: FunctionOnX, a: int, budget: Budget | None = None) -> ExtensionResult:
    """Search for a global polynomial of degree <= a restricting to f on X.

    Exact linear solve over the reduced monomial basis; infeasibility comes
    with a dual certificate (a combination of point evaluations that no
    degree-<= a polynomial can satisfy).
    """
    X = f.X
    field = X.field
    monos = monomials(X.n, a, cap=field.p - 1)
    (budget or Budget()).charge(len(X) * len(monos), "extension solve")
    if len(X) == 0:
        return ExtensionResult(MultiPoly.zero(field, X.n), None)
    A = X.box.monomial_matrix(monos, X.indices)  # (|X|, #monos)
    x, cert = solve_mod(A, f.values, field.p)
    if x is None:
        return ExtensionResult(None, cert)
    P = MultiPoly(field, X.n, {m: int(c) for m, c in zip(monos, x) if c})
    if not np.array_equal(X.box.eval_poly(P, X.indices), f.values):
        raise VerificationError("extension failed re-evaluation")
    return ExtensionResult(P, None)


# ---------------------------------------------------------------------------
# Extension level set by level set
# ---------------------------------------------------------------------------


def _linear_functional_poly(field: PrimeField, coeffs, shift: int = 0) -> MultiPoly:
    n = len(coeffs)
    terms = {}
    for i, c in enumerate(coeffs):
        if c % field.p:
            e = [0] * n
            e[i] = 1
            terms[tuple(e)] = c % field.p
    if shift % field.p:
        terms[(0,) * n] = shift % field.p
    return MultiPoly(field, n, terms)


def slice_extension_step(
    f: FunctionOnX,
    l_coeffs: tuple[int, ...],
    S: set[int],
    b: int,
    a: int,
    budget: Budget | None = None,
) -> MultiPoly:
    """One level-set step: a polynomial Q of degree <= a vanishing on the
    S-levels of X and agreeing with f on the level-b slice.

    Requires f to vanish on the S-levels; the inner extension runs at degree
    a - |S| on the level-b slice and the already-covered levels are divided
    out, which is why b must avoid S.
    """
    X = f.X
    field = X.field
    p = field.p
    S = {s % p for s in S}
    b %= p
    if b in S:
        raise InputError("target level must not belong to the covered set")
    H = Hyperplane(tuple(l_coeffs), 0)
    X_S = slice_variety(X, H, S)
    if not f.restrict_to(X_S).is_zero():
        raise InputError("function does not vanish on the covered levels")
    X_b = slice_variety(X, H, {b})
    f_b = f.restrict_to(X_b)
    if f_b.is_zero():
        return MultiPoly.zero(field, X.n)
    inner_cap = a - len(S)
    if inner_cap < 0:
        raise InputError(
            f"covered set larger than the degree budget (|S|={len(S)} > a={a}) "
            "with a nonzero residual on the target level"
        )
    inner = extend_by_solve(f_b, inner_cap, budget)
    if not inner.feasible:
        raise VerificationError(
            f"inner extension at level {b} infeasible at degree {inner_cap}"
        )
    Q = inner.poly
    denom = 1
    for s in S:
        factor = _linear_functional_poly(field, l_coeffs, shift=-s)
        Q = Q * factor
        denom = (denom * (b - s)) % p
    Q = Q.scale(field.inv(denom)) if S else Q
    # exact re-verification of both contracts
    if len(X_S) and not FunctionOnX.from_poly(X_S, Q).is_zero():
        raise VerificationError("step polynomial does not vanish on covered levels")
    if not (f_b - FunctionOnX.from_poly(X_b, Q)).is_zero():
        raise VerificationError("step polynomial does not match f on the target level")
    if Q.degree() > a:
        raise VerificationError("step polynomial exceeds the degree bound")
    return Q


def extend_by_slices(
    f: FunctionOnX,
    l_coeffs: tuple[int, ...],
    a: int,
    budget: Budget | None = None,
) -> MultiPoly:
    """Assemble a global extension of f by sweeping the levels 0, ..., p-1 of
    a linear functional, subtracting one slice-step polynomial per level.

    Raises with the failing level when a residual refuses to extend at its
    level's degree cap; on success the result is re-verified pointwise on X.
    """
    X = f.X
    field = X.field
    H = Hyperplane(tuple(l_coeffs), 0)
    g = f
    total = MultiPoly.zero(field, X.n)
    S: set[int] = set()
    for b in range(field.p):
        if not g.restrict_to(slice_variety(X, H, {b})).is_zero():
            try:
                Q = slice_extension_step(g, tuple(l_coeffs), S, b, a, budget)
            except (InputError, VerificationError) as exc:
                raise VerificationError(f"slice pipeline failed at level {b}: {exc}") from exc
            g = g.subtract_poly(Q)
            total = total + Q
        S.add(b)
    if not g.is_zero():
        raise VerificationError("slice pipeline residual is nonzero after all levels")
    if total.degree() > a:
        raise VerificationError("assembled extension exceeds the degree bound")
    return total


# ---------------------------------------------------------------------------
# Density self-check for incidence structures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DensityVerdict:
    status: str  # "empty-confirmed" | "hypothesis-not-met"
    detail: str = ""


def density_certificate(A, B, C, delta: Fraction, eps: Fraction) -> DensityVerdict:
    """Counting self-check: a delta-dense incidence with an eps-invariant
    subset smaller than delta*(1-eps)*|A| forces that subset to be empty.

    Hypotheses are verified by exact counting first; any contradiction of the
    implication itself raises, since it would disprove the counting argument.
    """
    A = list(A)
    if not A:
        return DensityVerdict("hypothesis-not-met", "empty ground set")
    Bset = set(B)
    Cset = set(C)
    nA = len(A)
    succ = {x: {y for (u, y) in Bset if u == x} for x in A}
    for x in A:
        if Fraction(len(succ[x]), nA) < delta:
            return DensityVerdict("hypothesis-not-met", f"density fails at {x!r}")
    for z in Cset:
        bz = succ.get(z, set())
        if not bz:
            return DensityVerdict("hypothesis-not-met", f"no incidences at {z!r}")
        if Fraction(len(bz & Cset), len(bz)) < 1 - eps:
            return DensityVerdict("hypothesis-not-met", f"invariance fails at {z!r}")
    if Fraction(len(Cset), nA) >= delta * (1 - eps):
        return DensityVerdict("hypothesis-not-met", "subset not small enough; no claim")
    if Cset:
        raise VerificationError("counting argument contradicted: small invariant subset is nonempty")
    return DensityVerdict("empty-confirmed")
