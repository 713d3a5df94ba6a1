"""Point enumeration of varieties, affine subspaces inside them, extension
censuses, and fiber statistics of polynomial composition with affine maps.

Affine subspaces are stored in a canonical form (reduced-echelon direction
basis, base point with zeroed pivot coordinates), so two parameterizations
of the same point set compare equal.  The subspaces inside a point set are
grown from its points one dimension at a time (`_grow`): a canonical k-flat
comes from exactly one canonical (k-1)-flat of the set, by one new row whose
pivot follows the old ones, and only its new points are tested.  Nothing
scans the subspaces of k^n, and nothing needs deduplication.

The extension census grows once to dimension m+1, reads the m-subspaces in
the hyperplane off level m, and reads the section of each (m+1)-subspace by
the hyperplane off its canonical form (`_section`) instead of listing its
m-subspaces.

Composition fibers are counted by sorting the maps' value tuples, each
packed into a base-p integer when that fits in int64, one chunk of maps at a
time, and merging the chunks' counts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .domain import Box, box
from .errors import InputError, VerificationError
from .gf import PrimeField
from .linalg import rank_mod, rref_mod
from .poly import AffineMap, MultiPoly, Point, PolyFamily, interpolate_grid, monomials
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
        base_diff = (np.array(other.base, dtype=np.int64) - np.array(self.base, dtype=np.int64)) % p
        stacked = np.concatenate([B, base_diff[None, :], np.array(other.basis, dtype=np.int64).reshape(other.dim, self.n)])
        return rank_mod(stacked, p) == rank_mod(B, p)


def count_affine_subspaces(field: PrimeField, n: int, m: int) -> int:
    """Number of m-dimensional affine subspaces of k^n."""
    p = field.p
    gb = 1
    for i in range(m):
        gb = gb * (p ** (n - i) - 1) // (p ** (i + 1) - 1)
    return gb * p ** (n - m)


# Largest block of points (bytes) that one growth step builds at once;
# (parent, row) pairs are taken in chunks that keep under it.  It stays below
# the C allocator's usual 128 KB mmap threshold: with 256 KB blocks a growth
# left about 0.3 MB of heap resident after it returned.
_CHUNK_BYTES = 2**16


def _pivots(bx: Box, rows: np.ndarray) -> np.ndarray:
    """Pivot column of each (nonzero) row, given by its box index: a row
    with d base-p digits has its leading entry at column n - d."""
    p, n = bx.field.p, bx.n
    return n - 1 - np.searchsorted(p ** np.arange(1, n + 1, dtype=np.int64), rows, side="right")


@dataclass(frozen=True)
class _Flats:
    """k-flats of a box in canonical form, one per entry, each held as box
    indices: its base point (N,) and its RREF basis rows (N, k).  Index
    order is lexicographic order of the coordinates."""

    box: Box
    base: np.ndarray
    rows: np.ndarray

    def __len__(self) -> int:
        return len(self.base)

    def inside(self, coeffs, level: int) -> np.ndarray:
        """Mask of the flats inside {x : sum_i coeffs[i] x_i = level}."""
        p = self.box.field.p
        l = np.array([int(c) % p for c in coeffs], dtype=np.int64)

        def values(idx):
            return (self.box.decode(idx) * l % p).sum(axis=-1) % p

        return (values(self.base) == level % p) & ~values(self.rows).any(axis=1)

    def subspaces(self, budget: Budget, keep=slice(None)) -> list[AffineSubspace]:
        """The flats (those that keep selects) in (pivots, basis, base) order,
        the order of a scan over pivot sets, then RREF fillings, then bases,
        each lexicographic.  A nonempty list is charged before it is built
        as the (k+1)(n+1) words of each flat's k+1 coordinate tuples."""
        bx = self.box
        base, rows = self.base[keep], self.rows[keep]
        if len(base):
            budget.charge(len(base) * (rows.shape[1] + 1) * (bx.n + 1), "subspace list")
        order = np.lexsort(np.concatenate([_pivots(bx, rows), rows, base[:, None]], axis=1).T[::-1])
        return [
            AffineSubspace(bx.field, tuple(b), tuple(map(tuple, r)))
            for b, r in zip(bx.decode(base[order]).tolist(), bx.decode(rows[order]).tolist())
        ]


def _grow(X: VarietyPoints, within: Hyperplane | None, budget: Budget, listed: int):
    """Yield the canonical k-flats inside X (and within the hyperplane, when
    given) for k = 0, 1, 2, ...; the generator ends after an empty level.

    A canonical k-flat (base, rows r_1..r_k) arises once, from the (k-1)-flat
    (base, r_1..r_{k-1}): that one is canonical, lies in X, has its last
    pivot before the pivot c of r_k, and is zero at column c in its base and
    in every row.  So level k extends each such parent S' by rows b that are
    zero before c, 1 at c and free after it, and tests only the new points
    S' + t*b, t = 1..p-1.  The point base + b must itself be allowed, so the
    b's of a parent are read off the allowed points that agree with its base
    before c and are 1 at c: one index range of the sorted allowed points.
    Level 0 is charged as the p^n box; level k, before it is built, as its
    (parent, b) pairs times the p^k points of each candidate (the parent's
    p^(k-1) rebuilt, the p^(k-1)(p-1) new ones tested), which also covers
    the k+1 indices each kept flat stores.  The level the caller will list,
    `listed`, is charged first as (k+1)(n+1) words a pair, as if listed.
    """
    bx = X.box
    budget.charge(bx.size, "subspace enumeration")
    allowed = X.indicator if within is None else X.indicator & within.indicator(bx)
    pts = np.flatnonzero(allowed)
    level = _Flats(bx, pts, np.zeros((len(pts), 0), dtype=np.int64))
    while True:
        yield level
        if not len(level):
            return
        level = _extend(level, allowed, pts, budget, listed)


def _extend(level: _Flats, allowed: np.ndarray, pts: np.ndarray, budget: Budget, listed: int) -> _Flats:
    """The canonical (k+1)-flats inside the allowed points (indicator, and its
    sorted indices pts), each from the one canonical k-flat in level it
    extends (see _grow, also for `listed`)."""
    bx = level.box
    p, n = bx.field.p, bx.n
    N, k = level.rows.shape
    places = p ** np.arange(n - 1, -1, -1, dtype=np.int64)
    last = _pivots(bx, level.rows[:, -1]) if k else np.full(N, -1)

    def candidates(c: int):
        """The parents that extend at column c and, for each, the range
        start + [0, count) of pts that give its rows b."""
        sel = np.flatnonzero((last < c) & (level.base // places[c] % p == 0) & ~(level.rows // places[c] % p).any(axis=1))
        lo = level.base[sel] // (p * places[c]) * (p * places[c]) + places[c]  # the base before c, then 1
        start = np.searchsorted(pts, lo)
        return sel, start, np.searchsorted(pts, lo + places[c]) - start

    s = p**k  # points of a parent
    # candidates(c) runs again when column c is built, so no column's arrays
    # (up to N words each) are held across all n columns
    pairs = sum(int(candidates(c)[2].sum()) for c in range(n))
    budget.charge(pairs * s * p, "subspace enumeration")
    if k + 1 == listed:
        budget.charge(pairs * (k + 2) * (n + 1), "subspace list")
    params = np.arange(s, dtype=np.int64)[:, None] // p ** np.arange(k - 1, -1, -1, dtype=np.int64) % p  # (s, k)
    t = np.arange(1, p, dtype=np.int64)[:, None, None]
    cap = max(1, _CHUNK_BYTES // (p * s * max(n, 1) * 8))  # (parent, b) pairs per chunk
    bases, rows = [np.zeros(0, dtype=np.int64)], [np.zeros((0, k + 1), dtype=np.int64)]
    for c in range(n):
        sel, start, counts = candidates(c)
        ends = np.cumsum(counts)
        before = ends - counts  # pairs of the parents ahead of each
        i = 0
        while i < len(sel):
            j = max(i + 1, int(np.searchsorted(ends, before[i] + cap, side="right")))
            par = np.repeat(sel[i:j], counts[i:j])
            y = pts[np.repeat(start[i:j] - before[i:j], counts[i:j]) + np.arange(before[i], ends[j - 1])]
            base = bx.decode(level.base[par])
            b = (bx.decode(y) - base) % p
            old = (base[:, None] + params @ bx.decode(level.rows[par])) % p  # (pairs, s, n)
            ok = allowed[(old[:, None] + t * b[:, None, None]) % p @ places].all(axis=(1, 2))
            bases.append(level.base[par[ok]])
            rows.append(np.concatenate([level.rows[par[ok]], (b[ok] @ places)[:, None]], axis=1))
            i = j
    return _Flats(bx, np.concatenate(bases), np.concatenate(rows))


def _level(X: VarietyPoints, levels, m: int) -> _Flats:
    """The m-flats from a _grow generator over X (an empty level if growth
    stops first).  No m-flat fits in k^n when m > n: then nothing is grown."""
    if m < 0:
        raise InputError(f"subspace dimension must be >= 0, got {m}")
    if m > X.n:
        return _Flats(X.box, np.zeros(0, dtype=np.int64), np.zeros((0, m), dtype=np.int64))
    for k, flats in enumerate(levels):
        if k == m or not len(flats):
            return flats


def enumerate_subspaces_in(
    X: VarietyPoints,
    m: int,
    within: Hyperplane | None = None,
    budget: Budget | None = None,
) -> list[AffineSubspace]:
    """All m-dimensional affine subspaces fully contained in X (and in the
    hyperplane, when given), canonical, in (pivots, basis, base) order."""
    budget = budget or Budget()
    return _level(X, _grow(X, within, budget, m), m).subspaces(budget)


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


def _slice_and_extensions(X: VarietyPoints, coeffs, level: int, m: int, budget: Budget):
    """The m-subspaces of X inside {x : sum_i coeffs[i] x_i = level}, in
    (pivots, basis, base) order, and all (m+1)-subspaces of X (None, and not
    grown, when the first list is empty).  One growth inside X gives both:
    the first are the m-flats with l(base) = level and l(rows) = 0."""
    levels = _grow(X, None, budget, m + 1)
    flats = _level(X, levels, m)
    Ls = flats.subspaces(budget, flats.inside(coeffs, level))
    bigger = next(levels, None) if Ls else None
    return Ls, bigger


def census_extension(
    X: VarietyPoints,
    W: Hyperplane,
    m: int,
    budget: Budget | None = None,
) -> SubspaceCensus:
    """Classify m-subspaces of X cap W by extendability to an (m+1)-subspace
    of X that leaves W."""
    budget = budget or Budget()
    Z, bigger = _slice_and_extensions(X, W.coeffs, W.b, m, budget)
    # an M that leaves W meets it in one m-subspace or not at all
    extendable = {_section(M, W.coeffs, W.b) for M in bigger.subspaces(budget)} if bigger else set()
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
    p = X.field.p
    budget = budget or Budget()
    Ls, bigger = _slice_and_extensions(X, l_coeffs, b, m, budget)
    if not Ls:
        return None
    # l not constant on M: M meets the zero level, and level b in one m-subspace
    good = {_section(M, l_coeffs, b) for M in bigger.subspaces(budget)} if bigger else set()
    if bigger and b % p == 0:  # an M inside the zero level extends every m-subspace it holds
        inside = bigger.subspaces(budget, bigger.inside(l_coeffs, 0))
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
    return field.p ** len(monomials(m, d, cap=field.p - 1))


def _merge_fibers(parts: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge (code, first map, count) arrays into one entry per code, with its
    earliest first map and its total count, in code order."""
    code, first, counts = (np.concatenate(col) for col in zip(*parts))
    order = np.lexsort((first, code))
    code, first, counts = code[order], first[order], counts[order]
    start = np.flatnonzero(np.r_[True, code[1:] != code[:-1]])
    return code[start], first[start], np.add.reduceat(counts, start)


def kappa_fibers(
    family: PolyFamily,
    m: int,
    linear_only: bool = False,
    budget: Budget | None = None,
) -> FiberStats:
    """Exact fiber counts of composition with every affine (or linear) map.

    Fiber keys are the tuples of value vectors of P_i o phi on k^m, which are
    in bijection with the reduced target polynomials since deg <= d_i < q.
    The maps are taken in chunks of about `_CHUNK_BYTES`, so memory is
    O(chunk) plus one entry per fiber, whatever the number of maps.
    """
    field = family.field
    p = field.p
    n = family.n
    ncols = m + (0 if linear_only else 1)
    total_maps = p ** (n * ncols)
    mbox = box(field, m)
    (budget or Budget()).charge(total_maps * family.c * mbox.size, "affine composition fibers")

    bx = box(field, n)
    vals = [bx.eval_poly(P) for P in family]

    # The map index is [A | b] flattened row-major in base p, so its base-p^ncols
    # digit i is the row of output coordinate i, and phi(t)_i = row . (t, 1)
    # is read off a table over the p^ncols rows; no digit table of the maps.
    sub = p**ncols
    row_digits = np.arange(sub, dtype=np.int64)[:, None] // p ** np.arange(ncols - 1, -1, -1) % p
    params = np.array([t + ((1,) if not linear_only else ()) for t in itertools.product(range(p), repeat=m)], dtype=np.int64)
    table = row_digits @ params.reshape(mbox.size, ncols).T % p  # (row, t) -> coordinate
    columns = [(ci, t) for ci in range(family.c) for t in range(mbox.size)]  # key order

    def points(maps: np.ndarray) -> np.ndarray:
        idx = np.zeros((len(maps), mbox.size), dtype=np.int64)  # box index of phi(t)
        for i in range(n):
            idx += table[maps // sub ** (n - 1 - i) % sub] * p ** (n - 1 - i)
        return idx

    def keys_at(idx: np.ndarray) -> np.ndarray:
        keys = np.empty((len(idx), len(columns)), dtype=np.int64)
        for j, (ci, t) in enumerate(columns):
            keys[:, j] = vals[ci][idx[:, t]]
        return keys

    # Chunks of sub^h maps that differ only in their last h rows, with h >= 1
    # for n >= 1 (a chunk is never smaller than `table`).  A zero row puts 0
    # in every coordinate, so a chunk's points are its first map's points
    # plus those of the first chunk.
    h = min(n, 1)
    while h < n and sub ** (h + 1) * len(columns) * 8 <= _CHUNK_BYTES:
        h += 1
    low = points(np.arange(sub**h, dtype=np.int64))
    chunks = ((lo, points(np.array([lo], dtype=np.int64)) + low) for lo in range(0, total_maps, sub**h))
    if p ** len(columns) < 2**63:
        # a key's base-p digits as one integer: sorting the codes finds every
        # fiber.  Chunks' counts are merged once they hold as many entries as
        # the merged counts and as a chunk's worth of bytes, so merging costs
        # at most about twice their own entries, and waits on at most one
        # entry per fiber plus one chunk.
        weights = p ** np.arange(len(columns) - 1, -1, -1, dtype=np.int64)
        merged = (np.zeros(0, dtype=np.int64),) * 3  # code, first map, count
        pending, waiting = [], 0
        for lo, idx in chunks:
            code, first, counts = np.unique(keys_at(idx) @ weights, return_index=True, return_counts=True)
            pending.append((code, first + lo, counts))
            waiting += len(code)
            if waiting >= max(len(merged[0]), _CHUNK_BYTES // 8):
                merged, pending, waiting = _merge_fibers([merged, *pending]), [], 0
        _, first, counts = _merge_fibers([merged, *pending])
        seen = np.argsort(first)  # fibers in the order their first map comes
        fibers = dict(zip(map(tuple, keys_at(points(first[seen]))), counts[seen].tolist()))
    else:
        fibers = {}
        for _, idx in chunks:
            for row in map(tuple, keys_at(idx)):
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
        monos = sorted(monomials(m, d, cap=p - 1))  # lexicographic: the order targets are listed in
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
