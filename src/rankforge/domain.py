"""Vectorized enumeration of the box k^n.

Points of F_p^n are identified with integers in [0, p^n) in row-major order
(first coordinate most significant), which agrees with lexicographic order
on coordinate tuples.  Values come back as int64 arrays in [0, p).

`Box.eval_poly` evaluates over the whole box by Yates' tensor-product
transform: the function-reduced coefficients of P form a tensor of shape
(p,)*n in the same row-major order, and multiplying axis i by the Vandermonde
columns V[x, e] = x^e for the exponents e of x_i that occur in P turns
exponents into coordinates.  That takes sum_i k_i * p^n multiply-adds, k_i <=
p the number of distinct exponents of x_i in P, and builds no digit table.
It runs the transform in one of three layouts, chosen from (p, n) alone:

- Packed bits over F_2 (n >= 2).  There the transform is the fast Moebius
  transform, value(x) = XOR of the coefficients at the exponents m <= x, and
  every entry is one bit.  A box of at most `_INT_POINTS` (2^12) points
  holds them as one Python int, the value at point i as bit i: index bit k
  takes one stage W ^= (W & LOW_k) << 2^k, LOW_k the bits whose index has
  bit k clear, and the box keeps its n masks (at most 6 KB).  A larger box
  holds little-endian uint64 words, point 64 w + b at bit b of word w:
  index bit k < 6 lies inside a word and takes the same stage with a
  word's LOW_k; each higher index bit XORs the lower half of every block of
  2^(k-5) words into its upper half.  On the small boxes of the acceptance
  battery numpy's per-call cost dominates the words: `value_counts` of a
  cubic took 7-18 us on one int against 22-38 us on words (2^3 to 2^6
  points); the two tie from 2^12 to 2^14 points, the words win from 2^15
  (1.1 against 2.3 ms at 2^20), and the masks of a 2^20-point box would be
  2.4 MB (BENCH_small_kernels.json).  `Box.value_counts` reads one
  member's histogram off either layout by popcount and unpacks it to a
  byte a point only to key several members; `Box.common_zeros` ORs the
  members' bits; `eval_poly` unpacks them and widens the bytes to int64.
- Constant-geometry stages (Pease's layout of the FFT) when a stage fits
  16 bits (p (p-1)^2 < 2^16, so p <= 37) and a row holds p^(n-1) >= 2^11
  entries.  Stage s reads the leading digit as the contiguous rows A[e] of a
  (p, p^(n-1)) view and writes column x of a (p^(n-1), p) array as
  sum_e x^e A[e], by at most p*k_s vector multiply-adds; the output's
  leading digit is the old second one, so after n stages the row-major order
  is back without a transpose.  Entries are held in uint8 (p <= 7) or
  uint16, reduced mod p only before a stage could overflow them, and
  reduced once more at the end.  The box reductions read these narrow values
  as they are; `eval_poly` widens them to int64.
- One int64 matmul per axis otherwise.  There the p*k_s calls per stage cost
  more than the arithmetic saves: on the shortest rows the stages measured
  2-4x slower (F_5^3, F_13^3, F_31^2), between 2^9 and 2^11 entries either
  layout won by the polynomial (F_5^5, F_7^4, F_31^3, F_37^3), and from
  2^11 on the stages won every measured case.  Past 16 bits, stages on
  uint32 entries lost to the matmul even on long rows (F_131^3, F_257^3).
  benchmarks/transform_vs_loop.py times the layouts on each side.  The
  Vandermonde columns are sliced from a p x p table of powers that the box
  keeps when p^2 <= 4096; a larger p builds only the columns that occur.

Over the whole box when n = 1, where the p x k_0 Vandermonde block can be p
times the box, it runs Horner's rule over P's exponents on the p field
elements.  At given indices it decodes their coordinates and evaluates term
by term; no digit table of the box is kept.  `Box.monomial_matrix` reads the
columns x^m of a monomial basis off the same decoded coordinates.

The whole-box reductions are `Box.value_counts`, the joint value histogram
of a family, and `Box.common_zeros`, the points where every member vanishes.
Neither widens packed or narrow values to int64: a family's value tuple is
folded into the narrowest unsigned key that holds it, and the key is counted
a chunk at a time.
"""

from __future__ import annotations

import collections

import numpy as np

from .gf import PrimeField
from .poly import Monomial, MultiPoly, Point


def _powers(p: int, exps: list[int]) -> np.ndarray:
    """p x len(exps) matrix V[x, j] = x^exps[j] mod p, with 0^0 = 1."""
    return np.array([[pow(x, e, p) for e in exps] for x in range(p)], dtype=np.int64)


def _takes_stages(p: int, n: int) -> bool:
    """Whether the whole-box transform runs as narrow vector stages (see the
    module docstring for the measured crossover)."""
    return p * (p - 1) ** 2 < 2**16 and p ** (n - 1) >= 2**11


def _packs(p: int, n: int) -> bool:
    """Whether the whole-box transform runs on packed bits."""
    return p == 2 and n >= 2


_INT_POINTS = 2**12  # F_2 boxes up to this size hold their bits in one Python int
_TABLE_ENTRIES = 2**12  # the largest p x p power table a box keeps
_WORD = np.dtype("<u8")  # 64 points, point 64 w + b at bit b of word w
# _LOW[k]: the bits of a word whose in-word index has bit k clear
_LOW = tuple(_WORD.type(sum(1 << b for b in range(64) if not b >> k & 1)) for k in range(6))
_CHUNK = 2**16  # key entries widened at a time by _bincount


def _key_dtype(bins: int) -> type:
    """The narrowest dtype whose entries reach bins - 1 and that np.bincount reads."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if bins - 1 <= np.iinfo(dtype).max:
            return dtype
    return np.int64


def _bincount(key: np.ndarray, bins: int) -> np.ndarray:
    """np.bincount(key, minlength=bins) a chunk at a time, so that no int64
    copy of the whole key is made; a chunk is never shorter than the bins."""
    step = max(_CHUNK, bins)
    counts = np.zeros(bins, dtype=np.int64)
    for lo in range(0, len(key), step):
        counts += np.bincount(key[lo : lo + step], minlength=bins)
    return counts


def _int_masks(n: int) -> tuple[int, ...]:
    """LOW_k for k < n over the 2^n bits of one int: the bits whose index
    has bit k clear, a run of 2^k ones every 2^(k+1) bits."""
    ones = (1 << (1 << n)) - 1
    return tuple(ones // ((1 << (2 << k)) - 1) * ((1 << (1 << k)) - 1) for k in range(n))


def _reduce(T: np.ndarray, p: int, scratch: np.ndarray) -> None:
    """T %= p in place, as T - p (T // p): numpy divides an unsigned array by
    a scalar many times faster than it takes the remainder."""
    np.floor_divide(T, p, out=scratch)
    scratch *= p
    T -= scratch


def _stage(A: np.ndarray, B: np.ndarray, E: list[int], p: int, acc: np.ndarray, tmp: np.ndarray) -> None:
    """Column x of B = sum over e in E of x^e A[e]; A's other rows are zero.

    acc and tmp hold a partial sum and one term, each a row long; the last
    multiply-add of a column writes it in place."""
    for x in range(p):
        col = B[:, x]
        parts = [(c, A[e]) for e in E if (c := pow(x, e, p))]
        if not parts:
            col.fill(0)
            continue
        last = len(parts) - 1
        c, row = parts[0]
        total = row if c == 1 else np.multiply(row, c, out=col if last == 0 else acc)
        for j, (c, row) in enumerate(parts[1:], 1):
            term = row if c == 1 else np.multiply(row, c, out=tmp)
            total = np.add(total, term, out=col if j == last else acc)
        if total is not col:  # a single term with x^e = 1
            col[...] = total


def _pow_mod(x: np.ndarray, e: int, p: int) -> np.ndarray:
    """x^e mod p elementwise (e >= 1) by square-and-multiply."""
    acc = np.ones(len(x), dtype=np.int64)
    base = x % p
    while e:
        if e & 1:
            acc = (acc * base) % p
        base = (base * base) % p
        e >>= 1
    return acc


class Box:
    """The enumerated cube F_p^n."""

    def __init__(self, field: PrimeField, n: int):
        self.field = field
        self.n = n
        self.size = field.p**n
        self._places = np.array(
            [field.p ** (n - 1 - i) for i in range(n)], dtype=np.int64
        )
        self._low = _int_masks(n) if _packs(field.p, n) and self.size <= _INT_POINTS else None
        self._table = None  # the p x p powers x^e of the matmul route, built on first use

    def digits(self) -> np.ndarray:
        """(size, n) array of coordinates; row i is the point with index i.
        Built afresh on each call."""
        return self.decode(np.arange(self.size, dtype=np.int64))

    def encode(self, coords: np.ndarray) -> np.ndarray:
        """Map an (..., n) coordinate array to point indices."""
        return (np.asarray(coords, dtype=np.int64) % self.field.p) @ self._places

    def decode(self, indices: np.ndarray) -> np.ndarray:
        """Map an array of point indices to an (..., n) coordinate array."""
        return np.asarray(indices, dtype=np.int64)[..., None] // self._places % self.field.p

    def index_of(self, point: Point) -> int:
        return int(sum(int(x) % self.field.p * pl for x, pl in zip(point, self._places)))

    def point_of(self, index: int) -> Point:
        p = self.field.p
        return tuple(int(index // pl) % p for pl in self._places)

    def eval_poly(self, P: MultiPoly, indices: np.ndarray | None = None) -> np.ndarray:
        """Values of P at the given indices (default: the whole box).

        The whole box takes one of the layouts of the module docstring, or
        Horner's rule when n = 1, and is widened to int64 at the end.
        """
        if indices is None:
            return self._values(P).astype(np.int64, copy=False)
        return self._eval_terms(P, self.decode(indices))

    def value_counts(self, polys) -> np.ndarray:
        """Joint value histogram of a family over the whole box: entry
        sum_i v_i p^(c-1-i) counts the points where (P_1, ..., P_c) takes the
        value (v_1, ..., v_c); p^c int64 counts.

        One member over F_2 is counted by popcount on its packed bits.
        Otherwise each member's values are folded into a key of the narrowest
        dtype that holds p^c values, and the key is counted a chunk at a time.
        """
        polys = list(polys)
        p, bins = self.field.p, self.field.p ** len(polys)
        if len(polys) == 1 and _packs(p, self.n):
            W = self._eval_packed(polys[0])
            ones = W.bit_count() if self._low else int(np.bitwise_count(W).sum(dtype=np.int64))
            return np.array([self.size - ones, ones], dtype=np.int64)
        values = (self._values(P) for P in polys)  # each a fresh array
        key = next(values, np.zeros(self.size, dtype=np.uint8))
        if len(polys) > 1:
            key = key.astype(_key_dtype(bins), copy=False)
        for v in values:
            key *= p
            np.add(key, v, out=key, casting="unsafe")  # values < p fit the key
        return _bincount(key, bins)

    def common_zeros(self, polys) -> np.ndarray:
        """Ascending indices of the points where every member vanishes; over
        F_2 the complement of the OR of the members' packed bits."""
        if _packs(self.field.p, self.n):
            W = 0 if self._low else np.zeros(self._words(), dtype=_WORD)
            for P in polys:
                W |= self._eval_packed(P)
            good = self._unpack(~W)
        else:
            good = np.ones(self.size, dtype=bool)
            for P in polys:
                good &= self._values(P) == 0
        return np.flatnonzero(good)

    def _values(self, P: MultiPoly) -> np.ndarray:
        """Values of P over the whole box in [0, p), as its route leaves
        them: unpacked bits (uint8) over F_2, uint8 or uint16 from the vector
        stages, int64 otherwise.  One matmul step on entries below p stays
        exact in int64 only while p^3 < 2^63, which any box with n >= 2 that
        fits in memory satisfies; past it the whole box goes term by term."""
        p, n = self.field.p, self.n
        if n == 1:
            return self._eval_horner(P)
        if _packs(p, n):
            return self._unpack(self._eval_packed(P))
        if _takes_stages(p, n):
            return self._eval_stages(P)
        if p**3 < 2**63:
            return self._eval_transform(P)
        return self._eval_terms(P, self.digits())

    def monomial_matrix(self, monos: list[Monomial], indices: np.ndarray) -> np.ndarray:
        """(len(indices), len(monos)) matrix of x^m mod p, 0^0 = 1, at the
        points with the given indices.

        Formal exponents (>= p) are allowed: x^e = x^((e-1) mod (p-1) + 1)
        for e >= 1 holds at every x in F_p, so no power above p - 1 is built.
        """
        p = self.field.p
        X = self.decode(indices)
        E = np.array(monos, dtype=np.int64).reshape(len(monos), self.n)
        E = np.where(E > 0, (E - 1) % (p - 1) + 1, 0)
        out = np.ones((len(X), len(monos)), dtype=np.int64)
        for i in range(self.n):
            powers = np.ones((len(X), E[:, i].max(initial=0) + 1), dtype=np.int64)
            for e in range(1, powers.shape[1]):
                powers[:, e] = powers[:, e - 1] * X[:, i] % p
            out = out * powers[:, E[:, i]] % p
        return out

    def _eval_horner(self, P: MultiPoly) -> np.ndarray:
        """Values of a univariate P at x = 0, ..., p-1 by Horner's rule over its
        exponents e_1 > ... > e_r: ((c_1 x^(e_1-e_2) + c_2) x^(e_2-e_3) + ...) x^e_r.
        A gap's power x^g is reused while the gap repeats, so a dense P holds
        a few p-long columns and takes one multiply-add per term."""
        p = self.field.p
        x = np.arange(p, dtype=np.int64)
        exps = sorted((e for (e,) in P.terms), reverse=True)
        out = np.zeros(p, dtype=np.int64)
        gap, xg = 0, None
        for e, f in zip(exps, exps[1:] + [0]):
            out = (out + P.terms[(e,)]) % p
            if e > f:
                if e - f != gap:
                    gap, xg = e - f, _pow_mod(x, e - f, p)
                out = (out * xg) % p
        return out

    def _exponents(self, P: MultiPoly) -> tuple[np.ndarray, list[int]]:
        """The exponent vectors of P reduced as a function (x^p = x), one row
        per term, and their coefficients."""
        p = self.field.p
        if any(e >= p for mono in P.terms for e in mono):
            P = P.function_reduce()
        return np.array(list(P.terms), dtype=np.int64).reshape(len(P.terms), self.n), list(P.terms.values())

    def _tensor(self, P: MultiPoly, dtype: type) -> tuple[np.ndarray, np.ndarray]:
        """The flattened coefficient tensor of P reduced as a function, shape
        (p,)*n in row-major order, so that an exponent vector indexes it like a
        point; and those exponent vectors, one row per term."""
        M, coeffs = self._exponents(P)
        T = np.zeros(self.size, dtype=dtype)
        T[M @ self._places] = coeffs
        return T, M

    def _words(self) -> int:
        return -(-self.size // 64)

    def _unpack(self, W) -> np.ndarray:
        """The box's bits of packed values (an int or words), one uint8 a
        point; bits past the box, in a partial word or above a negative
        int's box bits, are dropped."""
        if self._low:
            W = np.frombuffer((W & ((1 << self.size) - 1)).to_bytes(-(-self.size // 8), "little"), dtype=np.uint8)
        return np.unpackbits(W.view(np.uint8), count=self.size, bitorder="little")

    def _eval_packed(self, P: MultiPoly):
        """The transform over F_2 on packed bits: P's values as one int, bit
        i the value at point i, in a box of at most `_INT_POINTS` points, and
        as words, bit b of word w the value at point 64 w + b, in a larger
        one (see the module docstring)."""
        M, _ = self._exponents(P)  # every coefficient is 1
        idx = M @ self._places
        if self._low:
            W = 0
            for i in idx.tolist():  # distinct, as the reduced monomials are
                W |= 1 << i
            for k, low in enumerate(self._low):
                W ^= (W & low) << (1 << k)
            return W
        W = np.zeros(self._words(), dtype=_WORD)
        np.bitwise_or.at(W, idx >> 6, np.left_shift(_WORD.type(1), (idx & 63).astype(_WORD)))
        tmp = np.empty_like(W)
        for k in range(min(self.n, 6)):  # index bits inside a word
            np.bitwise_and(W, _LOW[k], out=tmp)
            np.left_shift(tmp, _WORD.type(1 << k), out=tmp)
            W ^= tmp
        for k in range(6, self.n):  # index bit k: word bit k - 6
            V = W.reshape(-1, 2, 1 << (k - 6))
            V[:, 1] ^= V[:, 0]
        return W

    def _power_columns(self, E: list[int]) -> np.ndarray:
        """The columns x^e, e in E, of the matmul route: a slice of the box's
        p x p table when p^2 <= `_TABLE_ENTRIES`, else built for E alone."""
        p = self.field.p
        if p * p > _TABLE_ENTRIES:
            return _powers(p, E)
        if self._table is None:
            self._table = _powers(p, list(range(p)))
        return self._table if len(E) == p else self._table[:, E]

    def _eval_transform(self, P: MultiPoly) -> np.ndarray:
        """The transform as one int64 matmul per axis."""
        p = self.field.p
        T, M = self._tensor(P, np.int64)
        if not len(M):
            return T
        bound = p - 1  # largest possible entry of T; reduce mod p only before int64 would overflow
        for i in range(self.n):
            E = sorted(set(M[:, i].tolist()))  # T is zero at every other exponent of x_i
            if bound * (p - 1) * len(E) >= 2**63:
                T, bound = T % p, p - 1
            T = T.reshape(p**i, p, -1)
            T = np.matmul(self._power_columns(E), T if len(E) == p else T[:, E, :])
            bound *= (p - 1) * len(E)
        return T.reshape(self.size) % p

    def _eval_stages(self, P: MultiPoly) -> np.ndarray:
        """The transform as constant-geometry vector stages on uint8 or uint16
        entries (p (p-1)^2 < 2^16): stage s turns the leading digit, an
        exponent of x_s, into the trailing digit, the coordinate x_s.  The
        values come back in that dtype."""
        p = self.field.p
        dtype = np.uint8 if p * (p - 1) ** 2 < 2**8 else np.uint16
        T, M = self._tensor(P, dtype)
        if not len(M):
            return T
        U = np.empty_like(T)  # the stage's output, then the next one's input
        acc = np.empty(self.size // p, dtype=dtype)  # a column's partial sum
        tmp = np.empty_like(acc)  # one term x^e A[e]
        bound = p - 1  # largest possible entry of T
        for s in range(self.n):
            E = sorted(set(M[:, s].tolist()))  # T is zero at every other leading digit
            if bound * (p - 1) * len(E) > np.iinfo(dtype).max:
                _reduce(T, p, U)
                bound = p - 1
            _stage(T.reshape(p, -1), U.reshape(-1, p), E, p, acc, tmp)
            T, U = U, T
            bound *= (p - 1) * len(E)
        _reduce(T, p, U)
        return T

    def _eval_terms(self, P: MultiPoly, D: np.ndarray) -> np.ndarray:
        """Term-by-term values of P at the points whose coordinates are D's
        rows (entries in [0, p)).  A term starts from its first factor's
        column, x^1 is D's column itself, and a coefficient 1 is not
        applied.  The terms, each below p < 2^31, are summed unreduced and
        reduced once, exact in int64 for fewer than 2^32 terms."""
        p = self.field.p
        out = np.zeros(D.shape[0], dtype=np.int64)
        # keep a power only if another term uses it too: a dense univariate
        # then holds one column at a time, not one per term
        uses = collections.Counter((i, e) for mono in P.terms for i, e in enumerate(mono) if e)
        pow_cache: dict[tuple[int, int], np.ndarray] = {}
        for mono, c in P.terms.items():
            t = None
            for i, e in enumerate(mono):
                if e:
                    key = (i, e)
                    acc = pow_cache.get(key)
                    if acc is None:
                        acc = D[:, i] if e == 1 else _pow_mod(D[:, i], e, p)
                        if uses[key] > 1:
                            pow_cache[key] = acc
                    t = acc if t is None else t * acc % p
            if t is None:  # the constant term
                out += c
            elif c == 1:
                out += t  # t may be D's column or a cached power: read, never written
            else:
                out += t * c % p
        out %= p
        return out

    def subspace_points(self, base: np.ndarray, basis: np.ndarray) -> np.ndarray:
        """Indices of base + span(basis rows), for a base (..., n) and a basis
        (..., m, n) with entries in [0, p), or stacks of them: shape
        (..., q^m), over all q^m parameters.

        Parameter tuples run in row-major order, so position
        sum_i t_i q^(m-1-i) holds the point base + sum_i t_i basis[i].
        """
        p = self.field.p
        basis = np.asarray(basis, dtype=np.int64)
        m = basis.shape[-2]
        params = np.arange(p**m, dtype=np.int64)[:, None] // p ** np.arange(m - 1, -1, -1, dtype=np.int64) % p
        return self.encode(params @ basis + np.asarray(base, dtype=np.int64)[..., None, :])


_BOX_CACHE: dict[tuple[int, int], Box] = {}


def box(field: PrimeField, n: int) -> Box:
    key = (field.p, n)
    if key not in _BOX_CACHE:
        _BOX_CACHE[key] = Box(field, n)
    return _BOX_CACHE[key]
