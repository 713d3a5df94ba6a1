"""Weak polynomiality on a variety, the two function spaces it defines, and
constructive extension to global polynomials.

A function on X is weakly polynomial of degree <= a when its restriction to
every affine subspace inside X is a polynomial of degree <= a.  It suffices
to test subspaces of dimension l = ceil((a+1)/(q - q/p)): restrictions to
lower-dimensional subspaces have degree at most (q-1)(l-1) <= a
automatically, and on higher-dimensional ones the full-space testing
criterion applies.  For prime fields this l is ceil((a+1)/(p-1)), so 1 or 2
in every shipped experiment.

The weak space W (the weakly polynomial functions) is computed by
propagation along the l-flats inside X, with no elimination over |X|
columns.  On each flat a function in W is a polynomial of degree <= a, so
its values on a few known points of the flat fix the rest (Kaufman and Ron,
"Testing polynomials over general fields", SIAM J. Comput. 2006).  Seeded at
the pivot points of the restriction space R (R lies in W), propagation
writes every function in W as V f[S] through its values on a seed set S;
when no wave stalls, |S| = dim R certifies W = R and no constraint is read.
Otherwise W is cut out of V's column space by the constraints of every flat,
on |S| columns only.  The paper's extension theorem, that weakly polynomial
functions on high-rank X extend, is the case W = R (see also Kazhdan and
Ziegler, "Extending weakly polynomial functions from high rank varieties",
2018).

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

from .domain import box
from .errors import InputError, VerificationError
from .gf import PrimeField
from .linalg import (
    matmul_mod,
    nullspace_of_rref,
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


# Words of the largest array that one propagation or constraint step builds:
# a chunk of flats, times their p^l points, times the seeds.
_CHUNK_WORDS = 2**18


def weak_space(X: VarietyPoints, a: int, budget: Budget | None = None) -> LinearSpaceOfFunctions:
    """Exact solution space W of all weak-degree-<= a constraints on k^X.

    Computed by propagation along the l-flats inside X, with no elimination
    over |X| columns (see `_weak_space`).  The basis returned is the RREF of
    W's functions as rows, unique for the space.
    """
    return _weak_space(X, a, budget)[0]


def _weak_space(
    X: VarietyPoints, a: int, budget: Budget | None
) -> tuple[LinearSpaceOfFunctions, LinearSpaceOfFunctions]:
    """W, and the restriction space R computed on the way.

    On each l-flat L a function f in W is a polynomial of degree <= a, so f
    on L is fixed by its values on any of L's points whose columns span those
    of B, the values of the monomials of degree <= a on L's parameter grid
    (rows), which span the value vectors with no forbidden coefficient.
    Stages, each charged before it builds its arrays:
    - seeds S: the pivot points of R, which fix every function in R (R lies
      in W always);
    - propagation (`_propagate`): V (|X| x |S|) with f = V f[S] for every f
      in W, filled wave by wave along the flats; a wave that fills nothing
      adds a seed;
    - constraints (`_constraint_nullspace`), only when |S| > dim R: W is then
      V ker(C), with C the stacked F V[L] of every flat, on |S| columns.
      When |S| = dim R, dim R <= dim W <= |S| gives W = R, and no constraint
      is read;
    - the basis: the RREF of the columns of V N^T, with N a basis (rows) of
      ker C, or the identity.
    """
    budget = budget or Budget()
    p, nX = X.field.p, len(X)
    F, flats, blocks = _flat_blocks(X, a, budget)
    rs = restriction_space(X, a, budget)
    if not len(F) or not len(flats):
        return LinearSpaceOfFunctions(X, np.eye(nX, dtype=np.int64)), rs
    pivots = (rs.basis != 0).argmax(axis=1)  # the first nonzero entry of each RREF row
    l = local_testing_dimension(X.field, a)
    B = box(X.field, l).monomial_matrix(monomials(l, a, cap=p - 1), np.arange(p**l)).T  # rows: t^e on the grid
    V, ords = _propagate(B, len(flats), blocks, nX, pivots, p, budget)
    N = _constraint_nullspace(F, V, ords, p, budget) if V.shape[1] > rs.dim else None
    return LinearSpaceOfFunctions(X, _basis(V, N, p, budget)), rs


def _fill_rule(B: np.ndarray, known: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What a mask of known points on a flat fixes: known positions K, the
    unknown positions U they fix, and T (|U| x |K|) with f[U] = T f[K] for
    every value vector f in B's row space.  A position is fixed when its
    column of B lies in the span of the known columns; the RREF of
    [B_known | B_unknown] reads off both the test and the combination."""
    K, U = np.flatnonzero(known), np.flatnonzero(~known)
    R, pivots, _ = rref_mod(np.concatenate([B[:, K], B[:, U]], axis=1), p)
    r = int(np.searchsorted(pivots, len(K)))  # pivots among the known columns
    fixed = np.flatnonzero(~R[r:, len(K) :].any(axis=0))
    return K[pivots[:r]], U[fixed], R[:r, len(K) + fixed].T


def _propagate(
    B: np.ndarray, nflats: int, blocks, nX: int, seeds: np.ndarray, p: int, budget: Budget
) -> tuple[np.ndarray, np.ndarray]:
    """V (nX x |S|), one column per seed, with f = V f[S] for every f whose
    values on each flat lie in B's row space, and the flats' ordinals in X
    (nflats x p^l, read from the (first flat, ordinals) blocks).

    A wave reads the known points of each open flat as a packed mask and
    groups the flats by mask.  The points a mask fixes (`_fill_rule`, cached
    per mask) are filled for its flats a chunk at a time, by one product per
    chunk.  A wave reads only points known when it starts and writes only
    the others, so the order of its fills does not matter; a point that
    several flats fix takes the first combination met, since each holds on W.
    A wave that fills nothing adds the first unknown point as a seed, or
    every unknown point once no flat is open, since those lie on no flat.
    Charged before each array it builds: the ordinals and V, each wave's mask
    read (open flats x p^l), each group's fills (flats x fixed x fixing x
    |S|) and each widening of V by new seeds.
    """
    s = B.shape[1]
    budget.charge(nflats * s + nX * len(seeds), "weak space propagation")
    ords = np.empty((nflats, s), dtype=np.min_scalar_type(nX - 1))
    for start, block in blocks:
        ords[start : start + len(block)] = block
    V = np.zeros((nX, len(seeds)), dtype=np.int64)
    V[seeds, np.arange(len(seeds))] = 1
    known = np.zeros(nX, dtype=bool)
    known[seeds] = True
    full = np.packbits(np.ones(s, dtype=bool))
    rules: dict[bytes, tuple] = {}
    active = np.arange(nflats)
    while not known.all():
        S = V.shape[1]
        step = max(1, _CHUNK_WORDS // (s * S))
        groups, filled = [], 0
        if len(active):
            budget.charge(len(active) * s, "weak space propagation")
            masks = np.concatenate([np.packbits(known[ords[active[lo : lo + step]]], axis=1) for lo in range(0, len(active), step)])
            still_open = ~(masks == full).all(axis=1)
            active, masks = active[still_open], masks[still_open]
            order = np.lexsort(masks.T[::-1])
            starts = np.flatnonzero(np.r_[True, (masks[order[1:]] != masks[order[:-1]]).any(axis=1)])
            groups = np.split(order, starts[1:]) if len(active) else []
        for members in groups:
            key = masks[members[0]].tobytes()
            if key not in rules:
                rules[key] = _fill_rule(B, np.unpackbits(masks[members[0]], count=s).astype(bool), p)
            from_, to, T = rules[key]
            budget.charge(len(members) * len(to) * len(from_) * S, "weak space propagation")
            for lo in range(0, len(members) if len(to) else 0, step):
                o = ords[active[members[lo : lo + step]]]
                t, first = np.unique(o[:, to].ravel(), return_index=True)
                new = ~known[t]
                V[t[new]] = matmul_mod(T, V[o[:, from_]], p).reshape(-1, S)[first[new]]
                known[t[new]] = True
                filled += int(new.sum())
        if not filled:
            x = np.flatnonzero(~known)[: 1 if len(active) else None]
            budget.charge(nX * (S + len(x)), "weak space propagation")
            V = np.concatenate([V, np.zeros((nX, len(x)), dtype=np.int64)], axis=1)
            V[x, S + np.arange(len(x))], known[x] = 1, True
    return V, ords


def _constraint_nullspace(F: np.ndarray, V: np.ndarray, ords: np.ndarray, p: int, budget: Budget) -> np.ndarray:
    """A basis (rows) of the c with F V[L] c = 0 on every flat L (a row of
    ords).  The constraint rows are eliminated a chunk of flats at a time
    into the RREF of those so far, which has at most |S| rows."""
    s, S = ords.shape[1], V.shape[1]
    rows = len(ords) * len(F)
    budget.charge(rows * s * S + rows * S * S, "weak space constraints")
    R, pivots = np.zeros((0, S), dtype=np.int64), []
    step = max(1, _CHUNK_WORDS // (s * S))
    for lo in range(0, len(ords), step):
        C = matmul_mod(F, V[ords[lo : lo + step]], p).reshape(-1, S)
        R, pivots, rank = rref_mod(np.concatenate([R, C]), p)
        R = R[:rank]
    return nullspace_of_rref(R, pivots, p)


def _basis(V: np.ndarray, N: np.ndarray | None, p: int, budget: Budget) -> np.ndarray:
    """The RREF of the columns of V N^T (of V when N is None), without zero
    rows: charged |S|^2 |X| before V N^T is built."""
    budget.charge(V.shape[1] ** 2 * len(V), "weak space basis")
    R, _, rank = rref_mod(V.T if N is None else matmul_mod(N, V.T, p), p)
    return R[:rank]


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
    which must hold unconditionally.  R comes from the weak space's seed
    stage, so its elimination runs once.
    """
    ws, rs = _weak_space(X, a, budget)
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
