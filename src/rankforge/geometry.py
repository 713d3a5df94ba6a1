"""Point enumeration of varieties, affine subspaces inside them, extension
censuses, and fiber statistics of polynomial composition with affine maps.

Affine subspaces are stored in a canonical form (reduced-echelon direction
basis, base point with zeroed pivot coordinates), so two parameterizations
of the same point set compare equal.  The subspaces inside a point set are
grown from its points one dimension at a time (`_grow`): a canonical k-flat
comes from exactly one canonical (k-1)-flat of the set, by one new row whose
pivot follows the old ones, and only its new points are tested.  Nothing
scans the subspaces of k^n, and nothing needs deduplication.

Inside the library the flats stay arrays (`_Flats`: base points and RREF
rows as box indices) from the growth to every consumer: `subspace_flats`
hands over a level in canonical order, `_Flats.points` gives the points of a
whole stack of flats at once, and `AffineSubspace` objects are built only
where a caller lists or returns them.

The extension census grows the m-flats L inside the hyperplane W = {l = b}
only, and takes one extension step from each: an (m+1)-flat of the set
through L that leaves W is L + span(y - base) for exactly one point y of the
set on the level l = b+1 that is zero at L's pivot columns, so it tests
those (L, y) pairs on their points.  No (m+1)-flat is grown or listed.

Composition fibers are counted by sorting the maps' value tuples, each
packed into a base-p integer (int64 when it fits, a Python int otherwise),
one chunk of maps at a time, and merging the chunks' counts.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .domain import Box, box
from .errors import InputError, VerificationError
from .gf import PrimeField
from .linalg import rank_mod, rref_mod
from .poly import MultiPoly, Point, PolyFamily, interpolate_grid, monomials
from .runtime import Budget


@dataclass(frozen=True)
class Hyperplane:
    """Level set {x : sum_i coeffs[i] x_i = b} of a nonzero linear functional."""

    coeffs: tuple[int, ...]
    b: int

    def indicator(self, bx: Box) -> np.ndarray:
        return _functional(bx, self.coeffs, np.arange(bx.size)) == self.b % bx.field.p


def _functional(bx: Box, coeffs, indices: np.ndarray) -> np.ndarray:
    """sum_i coeffs[i] x_i at the points with the given box indices (an array
    of any shape).  Each coefficient is reduced mod p as a Python int, then
    each product, then the sum, so coefficients past int64 act through their
    residues and nothing overflows.  A zero coefficient reads no coordinate."""
    p, idx = bx.field.p, np.asarray(indices, dtype=np.int64)
    total = np.zeros(idx.shape, dtype=np.int64)
    for i, c in enumerate(coeffs):
        if c % p:
            total += idx // p ** (bx.n - 1 - i) % p * (int(c) % p) % p
    return total % p


class VarietyPoints:
    """The enumerated k-points of a polynomial family, by their box indices
    in strictly ascending order (as `Box.common_zeros` returns them)."""

    def __init__(self, family: PolyFamily, indices: np.ndarray):
        self.family = family
        self.field = family.field
        self.n = family.n
        self.box = box(self.field, self.n)
        self.indices = np.asarray(indices, dtype=np.int64)
        if np.any(self.indices[1:] <= self.indices[:-1]):
            raise InputError("variety indices must be strictly ascending")
        self._points: tuple[Point, ...] | None = None
        self._index_of: dict[Point, int] | None = None
        self._levels: tuple[tuple, np.ndarray] | None = None

    @functools.cached_property
    def indicator(self) -> np.ndarray:
        """Membership mask over the whole box."""
        out = np.zeros(self.box.size, dtype=bool)
        out[self.indices] = True
        return out

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

    def levels(self, coeffs) -> np.ndarray:
        """The linear functional sum_i coeffs[i] x_i at each point, in X's
        order.  The last functional asked for is kept, so that a sweep over
        its level sets reads it once."""
        key, kept = tuple(int(c) for c in coeffs), self._levels
        if kept is None or kept[0] != key:
            values = _functional(self.box, key, self.indices)
            values.flags.writeable = False
            kept = self._levels = (key, values)
        return kept[1]

    def ordinals_of_indices(self, idx: np.ndarray) -> np.ndarray:
        """Map box indices (must lie on the variety) to ordinals."""
        pos = np.searchsorted(self.indices, idx)
        if np.any(pos == len(self.indices)) or not np.all(self.indices[pos] == idx):
            raise InputError("some indices are not points of the variety")
        return pos


def enumerate_points(
    family: PolyFamily,
    budget: Budget | None = None,
    ctx: object = None,  # unused; perfbench/workloads.py passes a ParallelContext here
) -> VarietyPoints:
    """All x in k^n with P_i(x) = 0 for every member of the family, from one
    whole-box evaluation per member."""
    bx = box(family.field, family.n)
    (budget or Budget()).charge(bx.size * family.c, "variety point enumeration")
    return VarietyPoints(family, bx.common_zeros(family))


def slice_variety(X: VarietyPoints, functional: Hyperplane, levels) -> VarietyPoints:
    """X intersected with {x : l(x) in levels}; an exact filter that reads l
    on X's points only."""
    keep = np.isin(X.levels(functional.coeffs), np.array([v % X.field.p for v in levels], dtype=np.int64))
    return VarietyPoints(X.family, X.indices[keep])


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

    def __getitem__(self, key) -> "_Flats":
        """The flats a slice, mask or index array selects, in its order."""
        return _Flats(self.box, self.base[key], self.rows[key])

    def points(self) -> np.ndarray:
        """(N, p^k) box indices of each flat's points, in parameter order."""
        return self.box.subspace_points(self.box.decode(self.base), self.box.decode(self.rows))

    def subspaces(self) -> list[AffineSubspace]:
        """The flats as AffineSubspace objects, in their order."""
        bx = self.box
        return [
            AffineSubspace(bx.field, tuple(b), tuple(map(tuple, r)))
            for b, r in zip(bx.decode(self.base).tolist(), bx.decode(self.rows).tolist())
        ]


def _grow(X: VarietyPoints, m: int, within: Hyperplane | None, budget: Budget, listed: bool = False) -> _Flats:
    """The canonical m-flats inside X (and within the hyperplane, when
    given), in (pivots, basis, base) order: the order of a scan over pivot
    sets, then RREF fillings, then bases, each lexicographic.  They are grown
    from the points one dimension at a time; growth stops at an empty level,
    and no m-flat fits in k^n when m > n, so then nothing is grown.

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
    the k+1 indices each kept flat stores.  When the caller will list level
    m (`listed`), it is charged first as (m+1)(n+1) words a pair, as if
    listed.
    """
    if m < 0:
        raise InputError(f"subspace dimension must be >= 0, got {m}")
    bx = X.box
    empty = _Flats(bx, np.zeros(0, dtype=np.int64), np.zeros((0, m), dtype=np.int64))
    if m > bx.n:
        return empty
    budget.charge(bx.size, "subspace enumeration")
    allowed = X.indicator if within is None else X.indicator & within.indicator(bx)
    pts = np.flatnonzero(allowed)
    flats = _Flats(bx, pts, np.zeros((len(pts), 0), dtype=np.int64))
    for k in range(1, m + 1):
        if not len(flats):
            return empty
        flats = _extend(flats, allowed, pts, budget, listed and k == m)
    return flats[np.lexsort(np.concatenate([_pivots(bx, flats.rows), flats.rows, flats.base[:, None]], axis=1).T[::-1])]


def _extend(level: _Flats, allowed: np.ndarray, pts: np.ndarray, budget: Budget, listed: bool) -> _Flats:
    """The canonical (k+1)-flats inside the allowed points (indicator, and its
    sorted indices pts), each from the one canonical k-flat in level it
    extends (see _grow; `listed` charges the new level as a list first)."""
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
    if listed:
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


def subspace_flats(X: VarietyPoints, m: int, within: Hyperplane | None = None, budget: Budget | None = None) -> _Flats:
    """All m-flats fully contained in X (and in the hyperplane, when given),
    canonical, in (pivots, basis, base) order, as arrays; charged for their
    growth only (see _grow)."""
    return _grow(X, m, within, budget or Budget())


def _listed(flats: _Flats, budget: Budget) -> list[AffineSubspace]:
    """flats.subspaces(), charged before it is built as the (k+1)(n+1) words
    of each flat's k+1 coordinate tuples when it is nonempty."""
    if len(flats):
        budget.charge(len(flats) * (flats.rows.shape[1] + 1) * (flats.box.n + 1), "subspace list")
    return flats.subspaces()


def enumerate_subspaces_in(
    X: VarietyPoints,
    m: int,
    within: Hyperplane | None = None,
    budget: Budget | None = None,
) -> list[AffineSubspace]:
    """All m-dimensional affine subspaces fully contained in X (and in the
    hyperplane, when given), canonical, in (pivots, basis, base) order."""
    budget = budget or Budget()
    return _listed(_grow(X, m, within, budget, listed=True), budget)


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
    """Classify the m-subspaces of X cap W, W = {l = b}, by extendability
    to an (m+1)-subspace of X that leaves W.

    Z is grown inside X cap W.  An (m+1)-flat M of X through L in Z that
    leaves W meets the level l = b+1 in a translate of L, and exactly one
    point y of that translate is zero at L's pivot columns: L's base is, and
    L's RREF rows clear y there.  So L extends iff some point y of X on that
    level, zero at L's pivots, puts L + t(y - base), t = 1..p-1, inside X,
    and distinct y's give distinct M's.  Z comes in pivot order, so each
    pivot set is one run of Z, with one mask for its y's.  The (L, y) pairs
    are charged p^(m+1) points each before any is tested or Z is listed, and
    tested a chunk of about `_CHUNK_BYTES` at a time."""
    budget = budget or Budget()
    Z = subspace_flats(X, m, W, budget)
    if not len(Z):
        return SubspaceCensus(m, (), ())
    bx = X.box
    p = bx.field.p
    ys = bx.decode(X.indices[X.levels(W.coeffs) == (W.b + 1) % p])  # the points of X at level b+1
    pivots = _pivots(bx, Z.rows)
    starts = np.flatnonzero(np.r_[True, (pivots[1:] != pivots[:-1]).any(axis=1)])
    runs = [(lo, hi, ys[~ys[:, pivots[lo]].any(axis=1)]) for lo, hi in zip(starts.tolist(), [*starts[1:].tolist(), len(Z)])]
    budget.charge(sum((hi - lo) * len(y) for lo, hi, y in runs) * p ** (m + 1), "extension census")
    listed = _listed(Z, budget)
    extendable = np.zeros(len(Z), dtype=bool)
    cap = max(1, _CHUNK_BYTES // (p**m * max(bx.n, 1) * 8))  # (L, y) pairs per chunk
    for lo, hi, y in runs:
        base, rows = bx.decode(Z.base[lo:hi]), bx.decode(Z.rows[lo:hi])
        pairs = (hi - lo) * len(y)
        for i in range(0, pairs, cap):
            L, j = np.divmod(np.arange(i, min(i + cap, pairs)), len(y))
            d = y[j] - base[L]
            for t in range(1, p):  # the translate of L at level b+t, for the pairs still alive
                live = X.indicator[bx.subspace_points((base[L] + t * d) % p, rows[L])].all(axis=1)
                L, d = L[live], d[live]
            extendable[lo + L] = True
    return SubspaceCensus(m, tuple(listed), tuple(L for L, e in zip(listed, extendable) if not e))


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
    The maps are taken in chunks within a factor sqrt(p^(m+1)) of
    `_CHUNK_BYTES`, so memory is O(chunk) plus one entry per fiber,
    whatever the number of maps.
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
    # plus those of the first chunk.  h makes the chunk's keys the power of
    # sub nearest `_CHUNK_BYTES` in ratio, not the largest below it: each
    # chunk costs numpy calls whatever its size, and with sub = 9 and 3 key
    # columns the largest below is 17 KB, 738 chunks a pass, the nearest
    # 157 KB.
    h = min(n, 1)
    while h < n and (sub**h * len(columns) * 8) * (sub ** (h + 1) * len(columns) * 8) < _CHUNK_BYTES**2:
        h += 1
    low = points(np.arange(sub**h, dtype=np.int64))
    chunks = ((lo, points(np.array([lo], dtype=np.int64)) + low) for lo in range(0, total_maps, sub**h))
    # A key's base-p digits as one integer: sorting the codes finds every
    # fiber.  The codes are int64 while p^len(columns) < 2^63, and Python ints
    # (an object array, which np.unique and np.lexsort sort alike) past that.
    # Chunks' counts are merged once they hold as many entries as the merged
    # counts and as a chunk's worth of bytes, so merging costs at most about
    # twice their own entries, and waits on at most one entry per fiber plus
    # one chunk.
    weights = np.array([p**k for k in range(len(columns) - 1, -1, -1)], dtype=np.int64 if p ** len(columns) < 2**63 else object)
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
