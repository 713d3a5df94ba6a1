"""Point enumeration of varieties, affine subspaces inside them, extension
censuses, and fiber statistics of polynomial composition with affine maps.

Affine subspaces are stored in a canonical form (reduced-echelon direction
basis, base point with zeroed pivot coordinates), so two parameterizations
of the same point set compare equal.  Subspace scans iterate over canonical
representatives only, one per subspace, never over raw (point, tuple) pairs.

The extension census reads the section of each (m+1)-subspace by a
hyperplane off its canonical form (`_section`) instead of listing its
m-subspaces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .domain import Box, box
from .errors import InputError, VerificationError
from .gf import PrimeField
from .linalg import rref_mod
from .poly import AffineMap, MultiPoly, Point, PolyFamily, interpolate_grid
from .runtime import SERIAL, Budget, ParallelContext


@dataclass(frozen=True)
class Hyperplane:
    """Level set {x : sum_i coeffs[i] x_i = b} of a nonzero linear functional."""

    coeffs: tuple[int, ...]
    b: int

    def indicator(self, bx: Box) -> np.ndarray:
        vals = self.values(bx)
        return vals == self.b % bx.field.p

    def values(self, bx: Box) -> np.ndarray:
        form = {tuple(int(i == j) for j in range(bx.n)): c for i, c in enumerate(self.coeffs)}
        return bx.eval_poly(MultiPoly(bx.field, bx.n, form))


class VarietyPoints:
    """The enumerated k-points of a polynomial family, sorted and indexed."""

    def __init__(self, family: PolyFamily, indices: np.ndarray, note: tuple = ()):
        self.family = family
        self.field = family.field
        self.n = family.n
        self.box = box(self.field, self.n)
        self.indices = np.sort(np.asarray(indices, dtype=np.int64))
        self.indicator = np.zeros(self.box.size, dtype=bool)
        self.indicator[self.indices] = True
        self.note = note
        self._points: tuple[Point, ...] | None = None
        self._index_of: dict[Point, int] | None = None

    @property
    def points(self) -> tuple[Point, ...]:
        if self._points is None:
            self._points = tuple(self.box.point_of(int(i)) for i in self.indices)
        return self._points

    def __len__(self) -> int:
        return len(self.indices)

    def __contains__(self, point: Point) -> bool:
        return bool(self.indicator[self.box.index_of(point)])

    def ordinal(self, point: Point) -> int:
        if self._index_of is None:
            self._index_of = {pt: i for i, pt in enumerate(self.points)}
        return self._index_of[point]

    def ordinals_of_indices(self, idx: np.ndarray) -> np.ndarray:
        """Map box indices (must lie on the variety) to ordinals."""
        pos = np.searchsorted(self.indices, idx)
        if not np.all(self.indices[pos] == idx):
            raise InputError("some indices are not points of the variety")
        return pos


def enumerate_points(
    family: PolyFamily,
    budget: Budget | None = None,
    ctx: ParallelContext = SERIAL,
) -> VarietyPoints:
    """All x in k^n with P_i(x) = 0 for every member of the family.

    One whole-box evaluation per member; ctx is accepted for a uniform
    signature and not used.
    """
    bx = box(family.field, family.n)
    (budget or Budget()).charge(bx.size * family.c, "variety point enumeration")
    good = np.ones(bx.size, dtype=bool)
    for P in family:
        good &= bx.eval_poly(P) == 0
    return VarietyPoints(family, np.flatnonzero(good))


def slice_variety(X: VarietyPoints, functional: Hyperplane, levels) -> VarietyPoints:
    """X intersected with {x : l(x) in levels}; an exact filter."""
    p = X.field.p
    levels = {v % p for v in levels}
    vals = functional.values(X.box)[X.indices]
    keep = np.isin(vals, np.array(sorted(levels), dtype=np.int64)) if levels else np.zeros(len(X.indices), dtype=bool)
    return VarietyPoints(X.family, X.indices[keep], note=X.note + ((functional, tuple(sorted(levels))),))


# ---------------------------------------------------------------------------
# Affine subspaces in canonical form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineSubspace:
    """base + span(basis rows); canonical: basis in RREF, base zero on pivots."""

    field: PrimeField
    base: tuple[int, ...]
    basis: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.base)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @staticmethod
    def from_span(field: PrimeField, base, dirs) -> "AffineSubspace":
        """Canonicalize an arbitrary (base, directions) description."""
        p = field.p
        n = len(base)
        if dirs is not None and len(dirs):
            D = np.asarray(dirs, dtype=np.int64).reshape(len(dirs), n) % p
            R, pivots, rank = rref_mod(D, p)
            basis = R[:rank]
        else:
            basis = np.zeros((0, n), dtype=np.int64)
            pivots = []
        b = np.asarray(base, dtype=np.int64) % p
        for row, pc in zip(basis, pivots):
            b = (b - int(b[pc]) * row) % p
        return AffineSubspace(field, tuple(int(v) for v in b), tuple(tuple(int(v) for v in row) for row in basis))

    def points(self, bx: Box) -> np.ndarray:
        return bx.subspace_points(self.base, np.array(self.basis, dtype=np.int64).reshape(self.dim, self.n))

    def parameterization(self) -> AffineMap:
        """phi: k^dim -> k^n with phi(t) = base + sum t_i basis_i."""
        cols = list(zip(*self.basis)) if self.basis else [() for _ in range(self.n)]
        matrix = [tuple(col) for col in cols]
        return AffineMap.make(self.field, matrix, self.base)

    def contains_subspace(self, other: "AffineSubspace") -> bool:
        p = self.field.p
        if other.dim > self.dim:
            return False
        B = np.array(self.basis, dtype=np.int64).reshape(self.dim, self.n)
        from .linalg import rank_mod

        base_diff = (np.array(other.base, dtype=np.int64) - np.array(self.base, dtype=np.int64)) % p
        stacked = np.concatenate([B, base_diff[None, :], np.array(other.basis, dtype=np.int64).reshape(other.dim, self.n)])
        return rank_mod(stacked, p) == rank_mod(B, p)


def _rref_direction_bases(field: PrimeField, n: int, m: int):
    """Every m-dimensional linear subspace of k^n, one RREF basis each."""
    p = field.p
    if m == 0:
        yield np.zeros((0, n), dtype=np.int64), ()
        return
    for pivots in itertools.combinations(range(n), m):
        free_cells = [
            (i, j)
            for i in range(m)
            for j in range(n)
            if j > pivots[i] and j not in pivots
        ]
        for fill in itertools.product(range(p), repeat=len(free_cells)):
            B = np.zeros((m, n), dtype=np.int64)
            for i, pc in enumerate(pivots):
                B[i, pc] = 1
            for (i, j), v in zip(free_cells, fill):
                B[i, j] = v
            yield B, pivots


def count_affine_subspaces(field: PrimeField, n: int, m: int) -> int:
    """Number of m-dimensional affine subspaces of k^n."""
    p = field.p
    gb = 1
    for i in range(m):
        gb = gb * (p ** (n - i) - 1) // (p ** (i + 1) - 1)
    return gb * p ** (n - m)


def enumerate_subspaces_in(
    X: VarietyPoints,
    m: int,
    within: Hyperplane | None = None,
    budget: Budget | None = None,
) -> list[AffineSubspace]:
    """All m-dimensional affine subspaces fully contained in X (and in the
    hyperplane, when given).  Canonical, deduplicated by construction."""
    field = X.field
    p = field.p
    n = X.n
    bx = X.box
    candidates = count_affine_subspaces(field, n, m)
    (budget or Budget()).charge(candidates * p**m, "subspace enumeration")

    allowed = X.indicator
    if within is not None:
        allowed = allowed & within.indicator(bx)

    if m == 0:
        idxs = np.nonzero(allowed)[0]
        return [AffineSubspace(field, bx.point_of(int(i)), ()) for i in idxs]

    out: list[AffineSubspace] = []
    params = np.array(list(itertools.product(range(p), repeat=m)), dtype=np.int64)
    for B, pivots in _rref_direction_bases(field, n, m):
        span = (params @ B) % p  # (p^m, n) offsets
        free_cols = [j for j in range(n) if j not in pivots]
        base_choices = itertools.product(range(p), repeat=len(free_cols))
        bases = np.zeros((p ** len(free_cols), n), dtype=np.int64)
        for r, vals in enumerate(base_choices):
            for j, v in zip(free_cols, vals):
                bases[r, j] = v
        pts = bx.encode(bases[:, None, :] + span[None, :, :])  # (nbases, p^m)
        ok = allowed[pts].all(axis=1)
        for r in np.nonzero(ok)[0]:
            out.append(
                AffineSubspace(
                    field,
                    tuple(int(v) for v in bases[r]),
                    tuple(tuple(int(v) for v in row) for row in B),
                )
            )
    return out


def _section(M: AffineSubspace, coeffs, level: int) -> AffineSubspace | None:
    """M cap {x : sum_i coeffs[i] x_i = level} in canonical form, or None when
    that functional l is constant on M.  With row_j the last basis row where l
    is nonzero, the other rows become row_i - (l(row_i)/l(row_j)) row_j and the
    base moves along row_j onto the level.  Only rows before j change, and not
    on a pivot, so the form stays canonical with no rref_mod call.
    """
    p = M.field.p
    ls = [sum(a * x for a, x in zip(coeffs, row)) % p for row in M.basis]
    j = max((i for i, v in enumerate(ls) if v), default=None)
    if j is None:
        return None
    inv, row_j = pow(ls[j], -1, p), M.basis[j]
    t = (level - sum(a * x for a, x in zip(coeffs, M.base))) * inv
    base = tuple((x + t * r) % p for x, r in zip(M.base, row_j))
    basis = tuple(
        tuple((x - ls[i] * inv * r) % p for x, r in zip(row, row_j))
        for i, row in enumerate(M.basis)
        if i != j
    )
    return AffineSubspace(M.field, base, basis)


# ---------------------------------------------------------------------------
# Extension census
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubspaceCensus:
    """Z: m-subspaces in X cap W; Y: those with no (m+1)-extension inside X
    leaving W.  ratio = |Y| / |Z|, None when Z is empty."""

    m: int
    Z: tuple[AffineSubspace, ...]
    Y: tuple[AffineSubspace, ...]

    @property
    def ratio(self) -> Fraction | None:
        if not self.Z:
            return None
        return Fraction(len(self.Y), len(self.Z))


def census_extension(
    X: VarietyPoints,
    W: Hyperplane,
    m: int,
    budget: Budget | None = None,
) -> SubspaceCensus:
    """Classify m-subspaces of X cap W by extendability to an (m+1)-subspace
    of X that leaves W."""
    budget = budget or Budget()
    Z = enumerate_subspaces_in(X, m, within=W, budget=budget)
    bigger = enumerate_subspaces_in(X, m + 1, budget=budget)
    # an M that leaves W meets it in one m-subspace or not at all
    extendable = {_section(M, W.coeffs, W.b) for M in bigger}
    Y = tuple(L for L in Z if L not in extendable)
    return SubspaceCensus(m, tuple(Z), Y)


def line_plane_extension_fraction(
    X: VarietyPoints,
    l_coeffs: tuple[int, ...],
    b: int,
    m: int,
    budget: Budget | None = None,
) -> Fraction | None:
    """Fraction of m-subspaces of the level-b slice of X that extend to an
    (m+1)-subspace of X meeting the zero slice.  None when there are no
    m-subspaces at that level."""
    budget = budget or Budget()
    p = X.field.p
    level = Hyperplane(tuple(l_coeffs), b)
    Ls = enumerate_subspaces_in(X, m, within=level, budget=budget)
    if not Ls:
        return None
    bigger = enumerate_subspaces_in(X, m + 1, budget=budget)
    # l not constant on M: M meets the zero level, and level b in one m-subspace
    good = {_section(M, l_coeffs, b) for M in bigger}
    if b % p == 0:  # an M inside the zero level extends every m-subspace it holds
        zero = level.indicator(X.box)
        inside = [M for M in bigger if zero[M.points(X.box)].all()]
        good.update(L for L in Ls if any(M.contains_subspace(L) for M in inside))
    hits = sum(1 for L in Ls if L in good)
    return Fraction(hits, len(Ls))


# ---------------------------------------------------------------------------
# Fibers of composition with affine maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiberStats:
    """Fiber sizes of phi -> (P_1 o phi, ..., P_c o phi) over all affine maps
    k^m -> k^n.  Targets are function-reduced polynomials of degree <= d_i."""

    m: int
    linear_only: bool
    total_maps: int
    total_targets: int
    fibers: dict  # target key (tuple of value tuples) -> count
    target_polys: dict  # target key -> tuple[MultiPoly, ...]

    @property
    def attained(self) -> int:
        return len(self.fibers)

    @property
    def universal(self) -> bool:
        return self.attained == self.total_targets

    def min_max(self) -> tuple[int, int]:
        counts = list(self.fibers.values())
        if self.attained < self.total_targets:
            nmin = 0
        else:
            nmin = min(counts)
        return nmin, max(counts)

    def max_ratio_deviation(self) -> Fraction:
        nmin, nmax = self.min_max()
        return Fraction(nmax - nmin, nmax)

    def mass(self) -> int:
        return sum(self.fibers.values())


def _target_count(field: PrimeField, m: int, d: int) -> int:
    p = field.p
    monos = [e for e in itertools.product(range(min(p, d + 1)), repeat=m) if sum(e) <= d]
    return p ** len(monos)


def kappa_fibers(
    family: PolyFamily,
    m: int,
    linear_only: bool = False,
    budget: Budget | None = None,
) -> FiberStats:
    """Exact fiber counts of composition with every affine (or linear) map.

    Fiber keys are the tuples of value vectors of P_i o phi on k^m, which are
    in bijection with the reduced target polynomials since deg <= d_i < q.
    """
    field = family.field
    p = field.p
    n = family.n
    ncols = m + (0 if linear_only else 1)
    total_maps = p ** (n * ncols)
    (budget or Budget()).charge(total_maps * p**m, "affine composition fibers")

    bx = box(field, n)
    vals = [bx.eval_poly(P) for P in family]
    mbox = box(field, m)

    # The map index is [A | b] flattened row-major in base p, so its base-p^ncols
    # digit i is the row of output coordinate i, and phi(t)_i = row . (t, 1)
    # is read off a table over the p^ncols rows; no digit table of the maps.
    sub = p**ncols
    row_digits = np.arange(sub, dtype=np.int64)[:, None] // p ** np.arange(ncols - 1, -1, -1) % p
    params = np.array([t + ((1,) if not linear_only else ()) for t in itertools.product(range(p), repeat=m)], dtype=np.int64)
    table = row_digits @ params.reshape(mbox.size, ncols).T % p  # (row, t) -> coordinate
    maps = np.arange(total_maps, dtype=np.int64)
    idx = np.zeros((total_maps, mbox.size), dtype=np.int64)  # box index of phi(t)
    for i in range(n):
        idx += table[maps // sub ** (n - 1 - i) % sub] * p ** (n - 1 - i)

    keys = np.zeros((total_maps, family.c * mbox.size), dtype=np.int64)
    for ci in range(family.c):
        keys[:, ci * mbox.size : (ci + 1) * mbox.size] = vals[ci][idx]

    fibers: dict = {}
    for row in map(tuple, keys):
        fibers[row] = fibers.get(row, 0) + 1

    total_targets = 1
    for d in family.degrees:
        total_targets *= _target_count(field, m, d)

    target_polys = {}
    for key in fibers:
        polys = []
        for ci in range(family.c):
            vv = key[ci * mbox.size : (ci + 1) * mbox.size]
            R = interpolate_grid(field, m, list(vv))
            if R.degree() > family.degrees[ci]:
                raise VerificationError("composition target exceeds the degree bound")
            polys.append(R)
        target_polys[key] = tuple(polys)

    stats = FiberStats(m, linear_only, total_maps, total_targets, fibers, target_polys)
    if stats.mass() != total_maps:
        raise VerificationError("fiber masses do not sum to the number of maps")
    return stats


def missed_targets(family: PolyFamily, stats: FiberStats, cap: int = 100000) -> list[tuple[MultiPoly, ...]]:
    """Target tuples with empty fiber (exhaustive listing, guarded by a cap)."""
    field = family.field
    p = field.p
    m = stats.m
    mbox = box(field, m)
    if stats.total_targets > cap:
        raise InputError(f"target space too large to list ({stats.total_targets} > {cap})")
    per_i_targets = []
    for d in family.degrees:
        monos = [e for e in itertools.product(range(min(p, d + 1)), repeat=m) if sum(e) <= d]
        polys = []
        for coeffs in itertools.product(range(p), repeat=len(monos)):
            R = MultiPoly(field, m, {mo: c for mo, c in zip(monos, coeffs) if c})
            polys.append(R)
        per_i_targets.append(polys)
    missed = []
    for tup in itertools.product(*per_i_targets):
        key_parts = []
        for R in tup:
            key_parts.extend(int(v) for v in mbox.eval_poly(R))
        if tuple(key_parts) not in stats.fibers:
            missed.append(tup)
    return missed


def universality_check(
    family: PolyFamily,
    m: int,
    budget: Budget | None = None,
) -> tuple[bool, list]:
    """Whether every degree-bounded target tuple arises as a composition;
    on failure, the list of missed targets (when small enough to list)."""
    stats = kappa_fibers(family, m, budget=budget)
    if stats.universal:
        return True, []
    try:
        miss = missed_targets(family, stats)
    except InputError:
        miss = []
    return False, miss
