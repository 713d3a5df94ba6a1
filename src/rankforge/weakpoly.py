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
    inv_mod,
    nullspace_of_rref,
    rank_mod,
    rref_extend_mod,
    rref_mod,
    row_space_contains,
    row_space_leq,
    solve_mod,
)
from .poly import AffineMap, MultiPoly, PolyFamily, monomials, vandermonde_inverse
from .geometry import AffineSubspace, Hyperplane, VarietyPoints, enumerate_points, enumerate_subspaces_in, slice_variety
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


def _forbidden_coefficient_rows(field: PrimeField, l: int, a: int) -> tuple[np.ndarray, list]:
    """Rows extracting grid-interpolation coefficients of monomials of degree > a.

    Row order matches itertools.product over exponents; columns are the q^l
    grid points in row-major parameter order.
    """
    p = field.p
    Vinv = vandermonde_inverse(field)
    rows = []
    monos = []
    for e in itertools.product(range(p), repeat=l):
        if sum(e) > a:
            row = np.ones(1, dtype=np.int64)
            for ei in e:
                row = np.kron(row, Vinv[ei]) % p
            rows.append(row)
            monos.append(e)
    if rows:
        return np.stack(rows), monos
    return np.zeros((0, p**l), dtype=np.int64), monos


def is_weakly_polynomial(
    f: FunctionOnX,
    a: int,
    budget: Budget | None = None,
    subspaces: list[AffineSubspace] | None = None,
) -> tuple[bool, AffineSubspace | None]:
    """Test weak degree <= a; on failure also return an offending subspace."""
    X = f.X
    field = X.field
    l = local_testing_dimension(field, a)
    if subspaces is None:
        subspaces = enumerate_subspaces_in(X, l, budget=budget)
    F, _ = _forbidden_coefficient_rows(field, l, a)
    p = field.p
    for L in subspaces:
        vals = f.values_at_box_indices(L.points(X.box))
        if F.shape[0] and ((F @ vals) % p).any():
            return False, L
    return True, None


@dataclass
class LinearSpaceOfFunctions:
    """A subspace of k^X with an echelonized basis (rows)."""

    X: VarietyPoints
    basis: np.ndarray  # (dim, |X|), RREF rows

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def contains_function(self, f: FunctionOnX) -> bool:
        return row_space_contains(self.basis, f.values, self.X.field.p)

    def contains_space(self, other: "LinearSpaceOfFunctions") -> bool:
        return row_space_leq(other.basis, self.basis, self.X.field.p)

    def functions(self) -> list[FunctionOnX]:
        return [FunctionOnX(self.X, row) for row in self.basis]


def weak_space(
    X: VarietyPoints,
    a: int,
    budget: Budget | None = None,
    subspaces: list[AffineSubspace] | None = None,
) -> LinearSpaceOfFunctions:
    """Exact solution space of all weak-degree-<= a constraints on k^X.

    The constraint rows (one per forbidden monomial and subspace) are
    streamed into a running RREF, about |X| rows at a time, so memory is
    O(|X|^2) plus one block, however many subspaces X holds.
    """
    field = X.field
    p = field.p
    l = local_testing_dimension(field, a)
    if subspaces is None:
        subspaces = enumerate_subspaces_in(X, l, budget=budget)
    F, _ = _forbidden_coefficient_rows(field, l, a)
    nX = len(X)
    if F.shape[0] == 0 or not subspaces:
        basis = np.eye(nX, dtype=np.int64)
        return LinearSpaceOfFunctions(X, basis)
    f = F.shape[0]
    per_block = max(1, nX // f)  # subspaces per block of about |X| rows
    R, pivots = np.zeros((0, nX), dtype=np.int64), []
    for s in range(0, len(subspaces), per_block):
        block = subspaces[s : s + per_block]
        rows = np.zeros((f * len(block), nX), dtype=np.int64)
        for k, L in enumerate(block):
            rows[k * f : (k + 1) * f, X.ordinals_of_indices(L.points(X.box))] = F
        R, pivots = rref_extend_mod(R, pivots, rows, p)
    basis = nullspace_of_rref(R, pivots, p)
    # echelonize the basis for canonical containment tests
    R, _, rank = rref_mod(basis, p)
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


@dataclass
class SliceExtensionLog:
    level_order: tuple[int, ...]
    inner_degrees: tuple[int, ...]  # measured minimal feasible degree per processed level


def extend_by_slices(
    f: FunctionOnX,
    l_coeffs: tuple[int, ...],
    a: int,
    assume_zero_levels: set[int] | None = None,
    budget: Budget | None = None,
) -> tuple[MultiPoly, SliceExtensionLog]:
    """Assemble a global extension of f by sweeping the levels of a linear
    functional, subtracting one slice-step polynomial per level.

    Raises with the failing level when a residual refuses to extend at its
    level's degree cap; on success the result is re-verified pointwise on X.
    """
    X = f.X
    field = X.field
    p = field.p
    S = {s % p for s in (assume_zero_levels or set())}
    H = Hyperplane(tuple(l_coeffs), 0)
    if S:
        X_S = slice_variety(X, H, S)
        if not f.restrict_to(X_S).is_zero():
            raise InputError("function does not vanish on the assumed levels")
    g = f
    total = MultiPoly.zero(field, X.n)
    order = [b for b in range(p) if b not in S]
    inner_degrees = []
    for b in order:
        X_b = slice_variety(X, H, {b})
        g_b = g.restrict_to(X_b)
        if g_b.is_zero():
            S.add(b)
            inner_degrees.append(-1)
            continue
        measured = _minimal_feasible_degree(g_b, a, budget)
        inner_degrees.append(measured if measured is not None else -2)
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
    return total, SliceExtensionLog(tuple(order), tuple(inner_degrees))


def _minimal_feasible_degree(f_b: FunctionOnX, a: int, budget: Budget | None) -> int | None:
    for e in range(a + 1):
        if extend_by_solve(f_b, e, budget).feasible:
            return e
    return None


# ---------------------------------------------------------------------------
# Flag induction for higher codimension
# ---------------------------------------------------------------------------


def flag_extension(
    f: FunctionOnX,
    W: AffineSubspace,
    a: int,
    base_extension: MultiPoly | None = None,
    budget: Budget | None = None,
) -> MultiPoly:
    """Extend f from X given an extension of f on X cap W, walking a flag of
    subspaces from W up to the whole space one dimension at a time.

    base_extension is a polynomial in W-local coordinates (dim(W) variables)
    agreeing with f on X cap W; when omitted it is computed by the solver.
    Each step reduces to the hyperplane case via a coordinate projection.
    """
    X = f.X
    field = X.field
    p = field.p
    n = X.n
    if W.dim == n:
        res = extend_by_solve(f, a, budget)
        if not res.feasible:
            raise VerificationError("full-space extension infeasible")
        return res.poly

    # flag directions: W's basis extended by standard vectors
    basis_rows = [np.array(r, dtype=np.int64) for r in W.basis]
    added = []
    for j in range(n):
        e = np.zeros(n, dtype=np.int64)
        e[j] = 1
        trial = np.stack(basis_rows + added + [e])
        if rank_mod(trial, p) == len(basis_rows) + len(added) + 1:
            added.append(e)
        if len(basis_rows) + len(added) == n:
            break
    base_pt = np.array(W.base, dtype=np.int64)

    def local_variety(dim: int) -> FunctionOnX:
        """f on the points of X in the flag's dim-dimensional member, in its
        local coordinates t (the point psi(t) = base + sum t_i row_i)."""
        rows = basis_rows + added[: dim - W.dim]
        cols = [tuple(int(r[i]) for r in rows) for i in range(n)]
        psi = AffineMap.make(field, cols, tuple(int(v) for v in base_pt))
        fam = PolyFamily([P.compose(psi) for P in X.family.polys], X.family.degrees)
        Xi = enumerate_points(fam, budget)
        pts = np.array([psi.apply(pt) for pt in Xi.points], dtype=np.int64).reshape(len(Xi), n)
        return FunctionOnX(Xi, f.values_at_box_indices(X.box.encode(pts)))

    # base space
    f0 = local_variety(W.dim)
    if base_extension is None:
        res = extend_by_solve(f0, a, budget)
        if not res.feasible:
            raise VerificationError("no base extension on W")
        R = res.poly
    else:
        R = base_extension
        if not np.array_equal(f0.X.box.eval_poly(R, f0.X.indices), f0.values):
            raise InputError("supplied base extension disagrees with f on X cap W")

    for dim in range(W.dim + 1, n + 1):
        fi = local_variety(dim)
        # embed R (dim-1 vars) into dim vars via dropping the last coordinate
        R_up = MultiPoly(field, dim, {m + (0,): c for m, c in R.terms.items()})
        g = fi.subtract_poly(R_up)
        l_coeffs = tuple(0 for _ in range(dim - 1)) + (1,)
        F_prime, _ = extend_by_slices(g, l_coeffs, a, assume_zero_levels={0}, budget=budget)
        R = F_prime + R_up
        if R.degree() > a:
            raise VerificationError("flag step exceeded the degree bound")

    # R lives in full-space local coordinates; convert back through psi^{-1}
    rows = basis_rows + added
    B = np.stack(rows)  # n x n, invertible
    Binv = inv_mod(B.T, p)  # psi(t) = B^T t + base  =>  t = Binv (x - base)
    inv_map = AffineMap.make(
        field,
        [[int(Binv[i, j]) for j in range(n)] for i in range(n)],
        [int(v) for v in (-(Binv @ base_pt)) % p],
    )
    F = R.compose(inv_map)
    if not np.array_equal(X.box.eval_poly(F, X.indices), f.values):
        raise VerificationError("flag extension failed final re-evaluation")
    return F


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
