"""Sparse multivariate polynomials over a prime field.

A polynomial is a dict mapping exponent tuples to nonzero coefficients in
[1, p).  Polynomials are formal: exponents are not reduced modulo the field
equation x^p = x unless `function_reduce` is called explicitly.  Ideal
membership works with formal polynomials; evaluation and testing on point
sets work with reduced representatives.  Keeping the two notions separate is
deliberate.

The d-fold finite difference of a degree-d polynomial yields its symmetric
multilinear form (`multilinear_form`).  The sign convention is the product of
difference operators D_{h_1} ... D_{h_d} P with D_h P(x) = P(x+h) - P(x);
`alternating_sum_eval` computes the signed cube sum, which equals (-1)^d
times the form.  The form is read off in closed form, by the polarization
identity: c x^m becomes sum multinom(m; a_0, ..., a_d) x^{a_0} h_1^{a_1} ...
h_d^{a_d} mod p over a_0 + ... + a_d = m with a_1, ..., a_d nonzero, which
for deg m = d is c * prod(m_i!) on each arrangement of m's variables over
the d blocks.  Below the degree (d < deg P) a surviving x term raises
VerificationError and a surviving non-multilinear term raises InputError.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InputError, VerificationError
from .gf import FieldElem, PrimeField
from .linalg import inv_mod, rank_mod

Monomial = tuple[int, ...]
Point = tuple[int, ...]


class MultiPoly:
    """Sparse polynomial in n variables over F_p."""

    __slots__ = ("field", "n", "terms")

    def __init__(self, field: PrimeField, n: int, terms: Mapping[Monomial, int] | None = None):
        self.field = field
        self.n = n
        clean: dict[Monomial, int] = {}
        if terms:
            p = field.p
            for mono, c in terms.items():
                if len(mono) != n:
                    raise InputError(f"monomial {mono} has wrong arity (expected {n})")
                mono = tuple(map(int, mono))
                if mono and min(mono) < 0:
                    raise InputError(f"negative exponent in {mono}")
                c = int(c) % p
                if c:
                    clean[mono] = c
        self.terms = clean

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(field: PrimeField, n: int) -> "MultiPoly":
        return MultiPoly(field, n, {})

    @staticmethod
    def constant(field: PrimeField, n: int, c: int) -> "MultiPoly":
        return MultiPoly(field, n, {(0,) * n: c})

    @staticmethod
    def variable(field: PrimeField, n: int, i: int) -> "MultiPoly":
        if not 0 <= i < n:
            raise InputError(f"variable index {i} out of range for n={n}")
        e = [0] * n
        e[i] = 1
        return MultiPoly(field, n, {tuple(e): 1})

    @staticmethod
    def from_terms(field: PrimeField, n: int, terms: Iterable[tuple[int, Sequence[int]]]) -> "MultiPoly":
        acc: dict[Monomial, int] = {}
        for c, e in terms:
            mono = tuple(e)
            acc[mono] = (acc.get(mono, 0) + c) % field.p
        return MultiPoly(field, n, acc)

    # -- basics ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Formal total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and other.field == self.field
            and other.n == self.n
            and other.terms == self.terms
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.n, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for mono in sorted(self.terms, key=lambda m: (sum(m), m), reverse=True):
            c = self.terms[mono]
            vars_part = "*".join(
                f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(mono) if e
            )
            if not vars_part:
                bits.append(str(c))
            elif c == 1:
                bits.append(vars_part)
            else:
                bits.append(f"{c}*{vars_part}")
        return " + ".join(bits)

    # -- ring operations --------------------------------------------------------

    def _binop(self, other: "MultiPoly", sign: int) -> "MultiPoly":
        if other.field != self.field or other.n != self.n:
            raise InputError("polynomial arity/field mismatch")
        acc = dict(self.terms)
        p = self.field.p
        for mono, c in other.terms.items():
            acc[mono] = (acc.get(mono, 0) + sign * c) % p
        return MultiPoly(self.field, self.n, acc)

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        return self._binop(other, 1)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self._binop(other, -1)

    def __neg__(self) -> "MultiPoly":
        return self.scale(-1)

    def scale(self, c: int) -> "MultiPoly":
        c %= self.field.p
        return MultiPoly(self.field, self.n, {m: (c * v) % self.field.p for m, v in self.terms.items()})

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        return MultiPoly.sum_of_products(self.field, self.n, [(self, other)])

    @staticmethod
    def sum_of_products(field: PrimeField, n: int, pairs: Iterable[tuple["MultiPoly", "MultiPoly"]]) -> "MultiPoly":
        """The sum of Q R over the (Q, R) pairs, gathered in one dictionary."""
        p = field.p
        acc: dict[Monomial, int] = {}
        for Q, R in pairs:
            if Q.field != field or R.field != field or Q.n != n or R.n != n:
                raise InputError("polynomial arity/field mismatch")
            for m1, c1 in Q.terms.items():
                for m2, c2 in R.terms.items():
                    m = tuple(a + b for a, b in zip(m1, m2))
                    acc[m] = (acc.get(m, 0) + c1 * c2) % p
        return MultiPoly(field, n, acc)

    def pow(self, e: int) -> "MultiPoly":
        if e < 0:
            raise InputError("negative power of a polynomial")
        result = MultiPoly.constant(self.field, self.n, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- evaluation and substitution ---------------------------------------------

    def eval(self, x: Sequence[int]) -> FieldElem:
        if len(x) != self.n:
            raise InputError(f"point has {len(x)} coordinates, expected {self.n}")
        p = self.field.p
        total = 0
        for mono, c in self.terms.items():
            v = c
            for xi, e in zip(x, mono):
                if e:
                    v = (v * pow(xi, e, p)) % p
                    if v == 0:
                        break
            total += v
        return total % p

    def shift(self, h: Sequence[int]) -> "MultiPoly":
        """P(x + h) as a polynomial in x."""
        return self.compose(AffineMap.translation(self.field, h))

    def delta(self, h: Sequence[int]) -> "MultiPoly":
        """Finite difference D_h P = P(x+h) - P(x); formal degree drops for deg >= 1."""
        return self.shift(h) - self

    def compose(self, phi: "AffineMap") -> "MultiPoly":
        """P composed with an affine map t -> A t + b; exact symbolic expansion."""
        if phi.n_out != self.n or phi.field != self.field:
            raise InputError("affine map does not match polynomial")
        m = phi.n_in
        subs = [phi.component_poly(i) for i in range(self.n)]
        pow_cache: dict[tuple[int, int], MultiPoly] = {}

        def spow(i: int, e: int) -> MultiPoly:
            key = (i, e)
            if key not in pow_cache:
                pow_cache[key] = subs[i].pow(e)
            return pow_cache[key]

        out = MultiPoly.zero(self.field, m)
        for mono, c in self.terms.items():
            term = MultiPoly.constant(self.field, m, c)
            for i, e in enumerate(mono):
                if e:
                    term = term * spow(i, e)
            out = out + term
        return out

    # -- reduction to function form ------------------------------------------------

    def function_reduce(self) -> "MultiPoly":
        """Canonical representative modulo x^p = x (per-variable exponents < p)."""
        p = self.field.p
        acc: dict[Monomial, int] = {}
        for mono, c in self.terms.items():
            red = tuple(e if e < p else ((e - 1) % (p - 1)) + 1 for e in mono)
            acc[red] = (acc.get(red, 0) + c) % p
        return MultiPoly(self.field, self.n, acc)

    # -- serialization -----------------------------------------------------------

    def to_json_dict(self) -> dict:
        terms = sorted(self.terms.items())
        return {
            "q": self.field.p,
            "n": self.n,
            "terms": [{"c": c, "e": list(m)} for m, c in terms],
        }

    @staticmethod
    def from_json_dict(d: dict) -> "MultiPoly":
        try:
            field = PrimeField(int(d["q"]))
            n = int(d["n"])
            terms = [(int(t["c"]), tuple(int(e) for e in t["e"])) for t in d["terms"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed polynomial document: {exc}") from exc
        return MultiPoly.from_terms(field, n, terms)


@dataclass(frozen=True)
class AffineMap:
    """phi: k^m -> k^n given by an n x m matrix and a translation vector."""

    field: PrimeField
    matrix: tuple[tuple[int, ...], ...]  # n rows of length m
    translation: tuple[int, ...]  # length n

    def __post_init__(self):
        n = len(self.translation)
        if len(self.matrix) != n:
            raise InputError("matrix row count does not match translation length")
        if n and len({len(r) for r in self.matrix}) > 1:
            raise InputError("ragged matrix")

    @property
    def n_out(self) -> int:
        return len(self.translation)

    @property
    def n_in(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0

    @staticmethod
    def make(field: PrimeField, matrix: Sequence[Sequence[int]], translation: Sequence[int]) -> "AffineMap":
        p = field.p
        return AffineMap(
            field,
            tuple(tuple(v % p for v in row) for row in matrix),
            tuple(v % p for v in translation),
        )

    @staticmethod
    def translation(field: PrimeField, h: Sequence[int]) -> "AffineMap":
        n = len(h)
        ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        return AffineMap(field, ident, tuple(v % field.p for v in h))

    def apply(self, t: Sequence[int]) -> Point:
        if len(t) != self.n_in:
            raise InputError("point arity mismatch")
        p = self.field.p
        return tuple(
            (sum(a * x for a, x in zip(row, t)) + b) % p
            for row, b in zip(self.matrix, self.translation)
        )

    def component_poly(self, i: int) -> MultiPoly:
        """The i-th output coordinate as a polynomial in the m inputs."""
        m = self.n_in
        terms: dict[Monomial, int] = {}
        for j, a in enumerate(self.matrix[i]):
            if a % self.field.p:
                e = [0] * m
                e[j] = 1
                terms[tuple(e)] = a % self.field.p
        b = self.translation[i] % self.field.p
        if b:
            terms[(0,) * m] = b
        return MultiPoly(self.field, m, terms)


def restrict(P: MultiPoly, phi: AffineMap) -> MultiPoly:
    """P restricted along phi, i.e. the exact composition P(phi(t))."""
    return P.compose(phi)


# ---------------------------------------------------------------------------
# Monomial bases and product matrices
# ---------------------------------------------------------------------------


def monomials(n: int, d: int, cap: int | None = None) -> list[Monomial]:
    """Exponent tuples in n variables of total degree <= d, each exponent at
    most `cap` when one is given, in graded order: by degree, then
    lexicographically.  Built from multisets of variables, so the cost is
    polynomial in n; cap = p - 1 gives the function-reduced monomials."""
    out: list[Monomial] = []
    for total in range(d + 1):
        level = []
        for combo in itertools.combinations_with_replacement(range(n), total):
            e = [0] * n
            for i in combo:
                e[i] += 1
            if cap is None or max(e, default=0) <= cap:
                level.append(tuple(e))
        out.extend(sorted(level))
    return out


def product_matrix(
    row_of: Mapping[Monomial, int], terms: Iterable[tuple[Monomial, int]], monos: Sequence[Monomial]
) -> np.ndarray:
    """Column j holds the coefficients of Q * x^monos[j] over the rows
    `row_of`, where Q is given by its (monomial, coefficient) terms.

    Distinct terms of Q stay distinct after the shift, so each entry is set
    once.  A product outside `row_of` raises VerificationError.
    """
    B = np.zeros((len(row_of), len(monos)), dtype=np.int64)
    try:
        for j, m in enumerate(monos):
            for mq, c in terms:
                B[row_of[tuple(a + b for a, b in zip(mq, m))], j] = c
    except KeyError:
        raise VerificationError("generator product escaped the degree window") from None
    return B


# ---------------------------------------------------------------------------
# Polynomial families
# ---------------------------------------------------------------------------


class PolyFamily:
    """An ordered family (P_1, ..., P_c) with degree bounds d_i."""

    def __init__(self, polys: Sequence[MultiPoly], degrees: Sequence[int] | None = None):
        if not polys:
            raise InputError("empty polynomial family")
        field = polys[0].field
        n = polys[0].n
        for P in polys:
            if P.field != field or P.n != n:
                raise InputError("family members disagree on field or arity")
        self.polys = tuple(polys)
        self.field = field
        self.n = n
        if degrees is None:
            degrees = tuple(max(P.degree(), 0) for P in polys)
        else:
            degrees = tuple(degrees)
            for P, d in zip(polys, degrees):
                if P.degree() > d:
                    raise InputError(f"polynomial degree {P.degree()} exceeds declared bound {d}")
        self.degrees = degrees

    @property
    def c(self) -> int:
        return len(self.polys)

    def __iter__(self):
        return iter(self.polys)

    def __len__(self) -> int:
        return len(self.polys)

    def span_dimension(self) -> int:
        """Dimension of the linear span of the members (coefficient vectors)."""
        monos = sorted({m for P in self.polys for m in P.terms})
        if not monos:
            return 0
        idx = {m: i for i, m in enumerate(monos)}
        A = np.zeros((len(self.polys), len(monos)), dtype=np.int64)
        for r, P in enumerate(self.polys):
            for m, c in P.terms.items():
                A[r, idx[m]] = c
        return rank_mod(A, self.field.p)

    def is_independent(self) -> bool:
        return self.span_dimension() == len(self.polys)

    def combination(self, coeffs: Sequence[int]) -> MultiPoly:
        out = MultiPoly.zero(self.field, self.n)
        for a, P in zip(coeffs, self.polys):
            if a % self.field.p:
                out = out + P.scale(a)
        return out


# ---------------------------------------------------------------------------
# Multilinear forms (d-fold differences)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultilinearForm:
    """A d-linear form on blocks of given sizes, stored as a polynomial in
    sum(block_dims) variables with per-block degree exactly one in every term."""

    block_dims: tuple[int, ...]
    poly: MultiPoly

    def __post_init__(self):
        if self.poly.n != sum(self.block_dims):
            raise InputError("block dimensions do not match variable count")
        # computed once per form, not a field: equality and hash are by the two fields
        object.__setattr__(self, "_offsets", tuple(itertools.accumulate(self.block_dims, initial=0))[:-1])
        slices = [slice(o, o + dim) for o, dim in zip(self._offsets, self.block_dims)]
        for mono in self.poly.terms:
            for block in slices:
                if sum(mono[block]) != 1:
                    raise InputError("term is not multilinear across blocks")

    @property
    def d(self) -> int:
        return len(self.block_dims)

    @property
    def field(self) -> PrimeField:
        return self.poly.field

    def block_offsets(self) -> tuple[int, ...]:
        return self._offsets

    def block_degrees(self, mono: Monomial) -> tuple[int, ...]:
        """The degree of a monomial in each block's variables."""
        return tuple(sum(mono[o : o + dim]) for o, dim in zip(self._offsets, self.block_dims))

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def eval(self, blocks: Sequence[Sequence[int]]) -> FieldElem:
        flat: list[int] = []
        for blk, dim in zip(blocks, self.block_dims):
            if len(blk) != dim:
                raise InputError("block size mismatch")
            flat.extend(blk)
        return self.poly.eval(flat)

    @staticmethod
    def from_tensor_poly(P: MultiPoly, block_dims: Sequence[int]) -> "MultilinearForm":
        """View a multihomogeneous polynomial as a tensor on the given blocks."""
        return MultilinearForm(tuple(block_dims), P)


def _arrangements(mono: Monomial):
    """Every way to give each of sum(mono) blocks one of mono's variables, as the
    concatenated block exponents; variable i goes to exactly mono[i] blocks."""
    if not any(mono):
        yield ()
        return
    for i, e in enumerate(mono):
        if e:
            unit = (0,) * i + (1,) + (0,) * (len(mono) - i - 1)
            for rest in _arrangements(mono[:i] + (e - 1,) + mono[i + 1 :]):
                yield unit + rest


def _splits(mono: Monomial, d: int):
    """Every split mono = a_0 + a_1 + ... + a_d with a_1, ..., a_d nonzero, as
    (a_0, a_1, ..., a_d concatenated, the multinomial coefficient)."""
    if d == 0:
        yield mono, 1
        return
    for a in itertools.product(*(range(e + 1) for e in mono)):
        if any(a):
            ways = math.prod(math.comb(e, b) for e, b in zip(mono, a))
            for head, m in _splits(tuple(e - b for e, b in zip(mono, a)), d - 1):
                yield head + a, ways * m


# (monomial, d) -> what the monomial contributes to the order-d form, before
# its coefficient: (its arrangements, prod m_i!) when deg m = d, and its
# splits as (h exponents, multinomial, whether x keeps a factor) when
# deg m > d.  Cleared at the start of `acceptance.run_suite`.
_FORM_EXPANSIONS: dict[tuple[Monomial, int], tuple] = {}


def _expansion(mono: Monomial, d: int) -> tuple:
    key = (mono, d)
    if key not in _FORM_EXPANSIONS:
        if sum(mono) == d:
            _FORM_EXPANSIONS[key] = tuple(_arrangements(mono)), math.prod(map(math.factorial, mono))
        else:
            n = len(mono)
            _FORM_EXPANSIONS[key] = tuple((split[n:], multinom, any(split[:n])) for split, multinom in _splits(mono, d))
    return _FORM_EXPANSIONS[key]


def multilinear_form(P: MultiPoly, d: int | None = None) -> MultilinearForm:
    """The order-d symmetric multilinear form D_{h_1} ... D_{h_d} P.

    d defaults to the formal degree of P and must be at least 1.  The terms
    come from the closed form in the module docstring, each monomial's
    expansion looked up once (`_expansion`); distinct terms of P give
    distinct exponent tuples, so none are merged.
    """
    if d is None:
        d = P.degree()
    if d < 1:
        raise InputError("multilinear form requires order d >= 1")
    n = P.n
    p = P.field.p
    terms: dict[Monomial, int] = {}
    for mono, c in P.terms.items():
        deg = sum(mono)
        if deg == d:
            arrangements, weight = _expansion(mono, d)
            coeff = c * weight % p
            if coeff:
                terms.update(dict.fromkeys(arrangements, coeff))
        elif deg > d:
            for tail, multinom, base in _expansion(mono, d):
                coeff = c * multinom % p
                if coeff:
                    if base:
                        raise VerificationError("base point failed to cancel in multilinear form")
                    terms[tail] = coeff
    return MultilinearForm((n,) * d, MultiPoly(P.field, d * n, terms))


def alternating_sum_eval(P: MultiPoly, x: Sequence[int], hs: Sequence[Sequence[int]]) -> FieldElem:
    """Signed cube sum over omega in {0,1}^d of (-1)^|omega| P(x + omega . h).

    Equals (-1)^d times the order-d multilinear form at hs whenever
    d >= deg P (independent of x).
    """
    p = P.field.p
    d = len(hs)
    total = 0
    for omega in itertools.product((0, 1), repeat=d):
        pt = list(x)
        for oi, h in zip(omega, hs):
            if oi:
                pt = [(a + b) % p for a, b in zip(pt, h)]
        v = P.eval(pt)
        total += v if sum(omega) % 2 == 0 else -v
    return total % p


# ---------------------------------------------------------------------------
# Grid interpolation
# ---------------------------------------------------------------------------


def _vandermonde_inverse(field: PrimeField):
    p = field.p
    V = np.array([[pow(t, e, p) for e in range(p)] for t in range(p)], dtype=np.int64)
    return inv_mod(V, p)


_VINV_CACHE: dict[int, "object"] = {}


def vandermonde_inverse(field: PrimeField):
    """Inverse of the p x p evaluation matrix (t,e) -> t^e, cached per field."""
    if field.p not in _VINV_CACHE:
        _VINV_CACHE[field.p] = _vandermonde_inverse(field)
    return _VINV_CACHE[field.p]


def interpolate_grid(field: PrimeField, l: int, values: Sequence[int]) -> MultiPoly:
    """The unique reduced polynomial in l variables matching `values` on all of k^l.

    Values are indexed row-major: point (t_0, ..., t_{l-1}) sits at
    sum_i t_i * q^(l-1-i).  l = 0 is allowed and yields a constant.
    """
    p = field.p
    if l == 0:
        if len(values) != 1:
            raise InputError("0-dimensional grid takes exactly one value")
        return MultiPoly.constant(field, 0, values[0])
    if len(values) != p**l:
        raise InputError(f"expected {p ** l} grid values, got {len(values)}")
    Vinv = vandermonde_inverse(field)
    arr = np.array(values, dtype=np.int64).reshape((p,) * l) % p
    for axis in range(l):
        arr = np.tensordot(Vinv, arr, axes=([1], [axis])) % p
        # tensordot moves the contracted axis to the front; rotate it back
        arr = np.moveaxis(arr, 0, axis)
    terms: dict[Monomial, int] = {}
    for mono in itertools.product(range(p), repeat=l):
        c = int(arr[mono])
        if c:
            terms[mono] = c
    return MultiPoly(field, l, terms)


def interpolate(field: PrimeField, l: int, values: Sequence[int], degree_bound: int) -> tuple[MultiPoly, bool]:
    """Interpolate on the full grid and flag whether the result fits the bound."""
    P = interpolate_grid(field, l, values)
    return P, P.degree() <= degree_bound


# ---------------------------------------------------------------------------
# Random sampling (for tests and property checks)
# ---------------------------------------------------------------------------


# (n, degree, p - 1) -> the monomials random_poly draws coefficients for,
# lexicographically, and those of the top degree
_RANDOM_MONOMIALS: dict[tuple[int, int, int], tuple[tuple[Monomial, ...], tuple[Monomial, ...]]] = {}


def random_poly(field: PrimeField, n: int, degree: int, rng, ensure_degree: bool = True) -> MultiPoly:
    """A random reduced polynomial of formal degree exactly `degree` (if possible)."""
    p = field.p
    key = (n, degree, p - 1)
    if key not in _RANDOM_MONOMIALS:
        monos = tuple(sorted(monomials(n, degree, cap=p - 1)))  # lexicographic: the order coefficients are drawn in
        _RANDOM_MONOMIALS[key] = monos, tuple(m for m in monos if sum(m) == degree)
    monos, top = _RANDOM_MONOMIALS[key]
    terms: dict[Monomial, int] = {}
    for m in monos:
        c = rng.randrange(p)
        if c:
            terms[m] = c
    if ensure_degree and top and not any(m in terms for m in top):
        m = top[rng.randrange(len(top))]
        terms[m] = 1 + rng.randrange(p - 1) if p > 1 else 1
    return MultiPoly(field, n, terms)
