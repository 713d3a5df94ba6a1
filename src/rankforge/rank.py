"""Exhaustive small-scale rank decisions with re-verifiable certificates.

A decomposition P = sum_j Q_j R_j is linear in the R_j once the Q_j are
fixed, so the search enumerates only the Q side and solves for the R side
exactly.  Searches run r = 1, 2, ... and each r is either refuted
exhaustively, witnessed by a certificate, or abandoned on budget; the three
outcomes are reported separately.

Which Q tuples are searched rests on one fact: the set of sums
sum_j Q_j R_j, with every R_j ranging over a fixed space V, depends only on
span(Q_1..Q_r).  Schmidt rank has one V for every Q (all polynomials of
degree < deg P); partition rank has one V per block set J, so the Q's form
one group per J.  A product is symmetric in its factors, so either side of
a bipartition can be the Q side: partition rank enumerates the side with
fewer monomials (the one holding block 0 on a tie), which for (2, 2, 2)
blocks makes the groups 2, 2, 2 vectors long instead of 2, 4, 4, and
decides a (3, 3, 3) form over F_3 at the default budget.  Rank <= r
therefore holds iff some choice of subspaces, one per group with
dimensions adding up to r, works, and each subspace is
searched once, as the rows of its reduced row echelon form (RREF) over the
Q coefficient vectors.  Q candidates are the normalized coefficient vectors
(first nonzero entry 1, graded-lex coefficient order) of each group, listed
group by group and, within a group, by lead (first nonzero position), so a
tuple is searched iff, group by group, each row's lead lies past the
previous row's and every earlier row is zero at it.  A factor dictionary is
not closed under span: each entry is its own group, so every tuple of
distinct entries is searched.

A bilinear form x^T M y (two blocks, no factor dictionary) is not
searched.  Its partition rank is rank(M): one RREF of M gives a rank
factorization M = C R, hence a certificate with rank(M) products, and no
shorter sum exists, since a form in x times a form in y is a rank-one
matrix.  The budget is charged for that RREF, and `per_r` reads exactly as
the search's would.  The certificate is a valid one, but not the search's:
it is checked as M = C R, and its polynomials are re-expanded when first
read.  Over F_2 each row of M is one int, reduced by `linalg.rref_bit_rows`,
and M = C R is checked as "row i is the XOR of the rows of R at its pivot
bits".

A quadric's Schmidt search starts at its polar bound.  A product of two
factors of degree <= 1 adds a matrix of rank <= 2 to P's polar matrix A
(the symmetric matrix of its degree-2 part), so P needs at least
r0 = max(1, ceil(rank(A) / 2)) products (cf. Ananyan-Hochster, JAMS 2020).
One charged rank of A refutes every r < r0: those levels read "no" in
`per_r` and are neither charged nor searched, and the certificate's
`bound_provenance` reads "polar rank refutes r<r0" (followed by
", exhausted r0<=r<k" when the search refuted more) instead of
"exhausted r<k".  The search still returns the first hit in index order, so
`value`, `per_r` and the certificate's pairs are those of the walk from 1.

Schmidt rank and every other partition rank run one driver,
`_rank_search`.  The caller supplies the target, the group sizes, the
widest R side and a lazy sequence of Q candidates; `_rank_search` charges
the budget for r (the number of admissible r-tuples, by formula) before it
builds anything, so a refused search allocates no candidate block.  For a
given r the search wants the first admissible tuple, in index order, whose
column blocks span P's coefficient vector.  `_SpanSearch` reads candidates
only as far as its walk reaches, walks the admissible tuples depth-first and
shares each prefix's echelon basis (bit-packed over F_2, where the walk
reduces by XOR inline) among all tuples that extend it, so most tuples cost
one block's reduction and no solve;
only the hit is solved, by `solve_mod` on its rebuilt blocks, so the
certificate is the one a solve per admissible tuple would give, and only
the hit's Q and R become polynomials.

A nonzero polynomial of degree <= 1 admits no factors of lower degree, so
its rank is infinite: `RankResult.infinite` is set and `value` is None,
never a large integer.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .analytic import CharHistogram, histogram_of_poly
from .errors import BudgetExceededError, InputError, VerificationError
from .gf import PrimeField
from .linalg import matmul_mod, rank_mod, rref_bit_rows, rref_mod, rref_steps, solve_mod
from .poly import MultilinearForm, MultiPoly, PolyFamily, monomials, multilinear_form, product_matrix
from .runtime import Budget


@dataclass(frozen=True, eq=False)
class RankCertificate:
    """A decomposition witness; re-expands exactly to the decomposed object.

    For kind "schmidt", pairs is a list of (Q, R) polynomial factors.
    For kind "partition", pairs is a list of (J, Q, R) with J the block
    index set of Q (R lives on the complementary blocks).  Certificates are
    equal when their kind, pairs and provenance are.
    """

    kind: str
    pairs: tuple
    bound_provenance: str = ""

    def __eq__(self, other):
        if not isinstance(other, RankCertificate):
            return NotImplemented
        return (self.kind, self.pairs, self.bound_provenance) == (other.kind, other.pairs, other.bound_provenance)

    def __hash__(self):
        return hash((self.kind, self.pairs, self.bound_provenance))

    def expand(self, field: PrimeField, n: int) -> MultiPoly:
        return MultiPoly.sum_of_products(field, n, [(entry[-2], entry[-1]) for entry in self.pairs])

    def verify_schmidt(self, P: MultiPoly) -> None:
        d = P.degree()
        for Q, R in self.pairs:
            if Q.degree() >= d or R.degree() >= d:
                raise VerificationError("certificate factor degree too large")
        if self.expand(P.field, P.n) != P:
            raise VerificationError("certificate does not re-expand to the polynomial")

    def verify_partition(self, T: MultilinearForm) -> None:
        for J, Q, R in self.pairs:
            J = frozenset(J)
            if not J or J == frozenset(range(T.d)):
                raise VerificationError("bipartition must be proper and nonempty")
            for poly, side in ((Q, J), (R, frozenset(range(T.d)) - J)):
                want = tuple(int(b in side) for b in range(T.d))
                if any(T.block_degrees(mono) != want for mono in poly.terms):
                    raise VerificationError("factor not multilinear on its blocks")
        if self.expand(T.field, T.poly.n) != T.poly:
            raise VerificationError("certificate does not re-expand to the tensor")


class _MatrixRankCertificate(RankCertificate):
    """The partition certificate of a bilinear form x^T M y from a checked
    factorization M = C R: the pairs ((0,), x . C_i, R_i . y) become
    polynomials, and are verified against the form, when first read."""

    def __init__(self, T: MultilinearForm, C: np.ndarray, R: np.ndarray):
        object.__setattr__(self, "kind", "partition")
        object.__setattr__(self, "bound_provenance", "matrix rank")
        object.__setattr__(self, "_factors", (T, C, R))

    def __getattr__(self, name: str):
        if name != "pairs":
            raise AttributeError(name)
        T, C, R = self._factors
        n1, n = T.block_dims[0], T.poly.n
        unit = [tuple(int(v == i) for v in range(n)) for i in range(n)]
        pairs = tuple(
            (
                (0,),
                MultiPoly(T.field, n, {unit[a]: c for a, c in enumerate(C[:, i].tolist())}),
                MultiPoly(T.field, n, {unit[n1 + b]: c for b, c in enumerate(R[i].tolist())}),
            )
            for i in range(len(R))
        )
        RankCertificate(self.kind, pairs).verify_partition(T)
        object.__setattr__(self, "pairs", pairs)
        return pairs


@dataclass(frozen=True)
class RankResult:
    value: int | None  # decided rank, None if not decided
    infinite: bool = False
    r_max: int = 0
    exceeded_at: int | None = None
    certificate: RankCertificate | None = None
    per_r: tuple[tuple[int, str], ...] = ()
    exhaustive: bool = True  # False when a restricted factor dictionary was used
    # the refusal that cut the search short at r = exceeded_at
    refusal: BudgetExceededError | None = field(default=None, compare=False, repr=False)

    @property
    def decided(self) -> bool:
        return self.infinite or self.value is not None

    def display(self) -> str:
        if self.infinite:
            return "infinite"
        if self.value is not None:
            return str(self.value)
        if self.exceeded_at is not None:
            return f"budget exceeded at r={self.exceeded_at}"
        return f"> {self.r_max}"


# ---------------------------------------------------------------------------
# Normalized factor enumeration
# ---------------------------------------------------------------------------


def _normalized_vectors(q: int, length: int):
    """All length-`length` coefficient vectors with first nonzero entry 1,
    in deterministic lexicographic order (so lead by lead)."""
    for lead in range(length):
        for tail in itertools.product(range(q), repeat=length - lead - 1):
            vec = [0] * length
            vec[lead] = 1
            vec[lead + 1 :] = tail
            yield tuple(vec)


def _gaussian_binomial(m: int, k: int, q: int) -> int:
    """[m choose k]_q, the number of k-dimensional subspaces of F_q^m."""
    if not 0 <= k <= m:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (m - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _span_count(sizes: list[int], q: int, r: int) -> int:
    """Admissible r-tuples: one RREF basis per group of the given vector
    lengths, r rows in all, i.e. the coefficient of t^r in
    prod_J sum_k [M_J choose k]_q t^k."""
    counts = [1] + [0] * r
    for m in sizes:
        counts = [sum(counts[j - k] * _gaussian_binomial(m, k, q) for k in range(min(j, m) + 1)) for j in range(r + 1)]
    return counts[r]


# ---------------------------------------------------------------------------
# The search driver
# ---------------------------------------------------------------------------


def _rank_search(
    kind: str, P: MultiPoly, row_of: dict, candidates, sizes: list[int], width: int, r_max: int, budget: Budget, verify,
    exhaustive: bool = True, r_min: int = 1,
) -> RankResult:
    """Minimal r with P = sum of r products Q_j R_j, Q_j drawn from candidates.

    `candidates` lazily yields, group by group, the normalized vectors of
    each group's length in `sizes`, as quadruples (J, Q's (monomial,
    coefficient) terms, R's monomials, the vector); R is solved for, so it
    is at most `width` wide.  Each r is charged the number of admissible
    r-tuples times rows * width * r before the search reads a candidate, and
    only the hit's factors become polynomials.  Every r < r_min is already
    refuted by the caller's bound: it reads "no", uncharged and unsearched.
    """
    target = np.zeros(len(row_of), dtype=np.int64)
    for m, c in P.terms.items():
        target[row_of[m]] = c
    search = _SpanSearch(candidates, sizes, lambda cand: product_matrix(row_of, cand[1], cand[2]), target, P.field.p)
    per_r: list[tuple[int, str]] = [(r, "no") for r in range(1, min(r_min, r_max + 1))]
    for r in range(r_min, r_max + 1):
        try:
            budget.charge(_span_count(sizes, P.field.p, r) * len(row_of) * width * r, f"{kind} rank search at r={r}")
        except BudgetExceededError as exc:
            if not per_r:
                raise
            # partial answers are honest: "rank <= r-1: no, r: abandoned"
            per_r.append((r, "budget"))
            return RankResult(None, r_max=r_max, exceeded_at=r, per_r=tuple(per_r), exhaustive=exhaustive, refusal=exc)
        hit = search.first(r)
        if hit is None:
            per_r.append((r, "no"))
            continue
        combo, x = hit
        pairs = []
        pos = 0
        for i in combo:
            J, q_terms, monos_r, _ = search.candidate(i)
            Q = MultiPoly(P.field, P.n, dict(q_terms))
            R = MultiPoly(P.field, P.n, {m: c for m, c in zip(monos_r, x[pos : pos + len(monos_r)]) if c})
            pairs.append((Q, R) if J is None else (tuple(sorted(J)), Q, R))
            pos += len(monos_r)
        if not exhaustive:
            provenance = "dictionary search"
        elif r_min == 1:
            provenance = f"exhausted r<{r}"
        else:
            provenance = f"polar rank refutes r<{r_min}" + (f", exhausted {r_min}<=r<{r}" if r > r_min else "")
        cert = RankCertificate(kind, tuple(pairs), provenance)
        verify(cert)
        per_r.append((r, "found"))
        return RankResult(r, r_max=r_max, certificate=cert, per_r=tuple(per_r), exhaustive=exhaustive)
    return RankResult(None, r_max=r_max, per_r=tuple(per_r), exhaustive=exhaustive)


class _SpanSearch:
    """The first admissible r-tuple of candidate column blocks whose span holds a target.

    Candidates come in groups of normalized vectors, group g holding every
    one of length sizes[g], lead by lead.  A tuple is admissible when its
    rows of each group are the RREF of their span: each row's lead lies past
    the previous row's, and every earlier row is zero at it.  Admissible
    tuples come in index order.  Candidates are read from their iterator only
    as far as the walk reaches, and each block's column space is packed
    once, on first use, as an echelon basis: over F_2 each vector is a
    Python int (bit i = row i) reduced by XOR, over odd p a list of ints;
    the numpy block itself is not kept.  `first(r)` walks the admissible
    tuples depth-first, keeping the prefix's echelon basis and the target
    reduced against it, so a node reduces only its newest block's columns;
    it skips a lead block whose lead an earlier row rules out in one jump,
    and enters no node that cannot be completed to r rows.  On a hit it
    rebuilds the hit's blocks and runs `solve_mod` on [blocks...] exactly as
    a plain loop over the admissible tuples would, so the solution is the
    same.
    """

    def __init__(self, candidates, sizes: list[int], build, target: np.ndarray, p: int):
        self.candidates = iter(candidates)
        self.sizes = sizes
        self.build = build
        self.target = target
        self.p = p
        self.zero = self._pack(np.zeros_like(target))
        self.read: list = []
        self.packed: dict[int, list] = {}
        self.blocks: list[tuple[int, int, int, int]] = []  # (start, end, group, lead)
        start = 0
        for g, m in enumerate(sizes):
            for lead in range(m):
                self.blocks.append((start, start + p ** (m - lead - 1), g, lead))
                start += p ** (m - lead - 1)
        self.count = start
        self.later = list(itertools.accumulate(reversed(sizes[1:]), initial=0))[::-1]  # rows the later groups hold

    def candidate(self, i: int):
        """Candidate i, reading the iterator up to it."""
        while len(self.read) <= i:
            self.read.append(next(self.candidates))
        return self.read[i]

    def block(self, i: int) -> np.ndarray:
        return self.build(self.candidate(i))

    def _column_basis(self, i: int) -> list:
        """Block i's column space as echelon vectors, packed on first use."""
        if i not in self.packed:
            basis: list = []
            for column in self.block(i).T:
                self._insert(basis, self._pack(column))
            self.packed[i] = [vec for _, vec in basis]
        return self.packed[i]

    def _pack(self, column):
        if self.p == 2:
            return sum(1 << i for i, c in enumerate(column.tolist()) if c)
        return [int(c) % self.p for c in column.tolist()]

    def _reduce(self, v, basis, start=0):
        """v minus its components along basis[start:] (pairs (pivot, vector))."""
        p = self.p
        if p == 2:
            for pivot, w in basis[start:]:
                if v & pivot:
                    v ^= w
            return v
        for pivot, w in basis[start:]:
            c = v[pivot]
            if c:
                v = [(a - c * b) % p for a, b in zip(v, w)]
        return v

    def _insert(self, basis, v) -> None:
        """Add v to the echelon basis unless it already lies in its span."""
        v = self._reduce(v, basis)
        if self.p == 2:
            if v:
                basis.append((v & -v, v))
            return
        pivot = next((i for i, c in enumerate(v) if c), None)
        if pivot is not None:
            inv = pow(v[pivot], self.p - 2, self.p)
            basis.append((pivot, [c * inv % self.p for c in v]))

    def first(self, r: int):
        """(admissible tuple, solution x) for the first hit, or None."""
        blocks, sizes, later = self.blocks, self.sizes, self.later
        binary = self.p == 2
        basis: list = []

        def visit(prefix: tuple, b0: int, group: int, free, t):
            # free: the leads still open in `group`, the group of the prefix's last row
            need = r - len(prefix) - 1  # rows to add after this one
            for b in range(b0, len(blocks)):
                start, end, g, lead = blocks[b]
                open_leads = free if g == group else range(sizes[g])
                if lead not in open_leads:
                    continue  # an earlier row of the group is nonzero at this lead
                past = [j for j in open_leads if j > lead]
                if len(past) + later[g] < need:
                    continue  # no row of this block completes to r rows
                for i in range(start, end):
                    vec = self.candidate(i)[3]
                    left = [j for j in past if not vec[j]]
                    if len(left) + later[g] < need:
                        continue  # nor does this row
                    mark = len(basis)
                    if binary:  # _insert and _reduce over F_2, inlined
                        rest = t
                        for v in self._column_basis(i):
                            for pivot, w in basis:
                                if v & pivot:
                                    v ^= w
                            if v:
                                basis.append((v & -v, v))
                                if rest & v & -v:
                                    rest ^= v
                    else:
                        for v in self._column_basis(i):
                            self._insert(basis, v)
                        rest = self._reduce(t, basis, mark)
                    if rest == self.zero:
                        # only at depth r: a shorter admissible tuple was
                        # already refuted at a smaller r
                        return prefix + (i,)
                    if need:
                        hit = visit(prefix + (i,), b + 1, g, left, rest)
                        if hit is not None:
                            return hit
                    del basis[mark:]
            return None

        combo = visit((), 0, -1, (), self._pack(self.target))
        if combo is None:
            return None
        A = np.concatenate([self.block(i) for i in combo], axis=1)
        x, _ = solve_mod(A, self.target, self.p)
        return combo, x


# ---------------------------------------------------------------------------
# Schmidt rank
# ---------------------------------------------------------------------------


def schmidt_rank(P: MultiPoly, r_max: int, budget: Budget | None = None) -> RankResult:
    """Minimal r with P = sum of r products of strictly lower-degree factors.

    Exhaustive for each r <= r_max; formal polynomial identity (no reduction
    by the field equation).  A quadric's search starts at its polar bound
    (`_polar_bound`), which is charged before it is computed.
    """
    budget = budget or Budget()
    if P.is_zero():
        return RankResult(0, r_max=r_max, certificate=RankCertificate("schmidt", ()))
    d = P.degree()
    if d <= 1:
        return RankResult(None, infinite=True, r_max=r_max)
    r_min = 1
    if d == 2:
        budget.charge(rref_steps(P.n, P.n), "schmidt polar rank")
        r_min = _polar_bound(P)
    q = P.field.p
    factor_monos = monomials(P.n, d - 1)
    M = len(factor_monos)
    # degree <= 2(d-1) covers every monomial of P, since d >= 2
    row_of = {m: i for i, m in enumerate(monomials(P.n, 2 * (d - 1)))}
    candidates = ((None, [(m, c) for m, c in zip(factor_monos, vec) if c], factor_monos, vec) for vec in _normalized_vectors(q, M))
    return _rank_search("schmidt", P, row_of, candidates, [M], M, r_max, budget, lambda cert: cert.verify_schmidt(P), r_min=r_min)


def _polar_bound(P: MultiPoly) -> int:
    """max(1, ceil(rank(A) / 2)) for the polar matrix A of a quadric P: A[i][j]
    = A[j][i] is the coefficient of x_i x_j for i != j, and A[i][i] twice
    that of x_i^2.  A product of two factors of degree <= 1 with linear
    parts q and s has degree-2 part (q . x)(s . x), whose polar matrix
    q s^T + s q^T has rank <= 2 in every characteristic; so a sum of r such
    products has r >= rank(A) / 2."""
    p, n = P.field.p, P.n
    A = np.zeros((n, n), dtype=np.int64)
    for mono, c in P.terms.items():
        if sum(mono) == 2:
            i, j = (v for v, e in enumerate(mono) for _ in range(e))
            A[i, j] = A[j, i] = c if i != j else 2 * c % p
    return max(1, -(-rank_mod(A, p) // 2))


# ---------------------------------------------------------------------------
# Partition rank
# ---------------------------------------------------------------------------


def _block_monomials(dims: tuple[int, ...], offs: tuple[int, ...], blocks: frozenset[int]):
    """Multilinear monomials supported on the given blocks, in the full ring."""
    total = sum(dims)
    choices = [range(dims[b]) for b in sorted(blocks)]
    out = []
    for pick in itertools.product(*choices):
        e = [0] * total
        for b, v in zip(sorted(blocks), pick):
            e[offs[b] + v] = 1
        out.append(tuple(e))
    out.sort()
    return out


def partition_rank(
    T: MultilinearForm,
    r_max: int,
    budget: Budget | None = None,
    factor_dictionary: list[tuple[frozenset, MultiPoly]] | None = None,
) -> RankResult:
    """Minimal r with T = sum of r products Q_j R_j over proper bipartitions.

    Exhaustive unless a factor dictionary restricts the Q side, in which case
    the result is an upper-bound search only (exhaustive=False): a found
    certificate is still valid, but "not found" decides nothing.  Each
    dictionary entry (J, Q) needs a proper nonempty block set J and a Q in
    T's ring that is multilinear on exactly J's blocks, else InputError.
    A nonzero bilinear form without a dictionary is decided by its matrix
    rank (`_matrix_rank_partition`); everything else is searched.
    """
    budget = budget or Budget()
    if T.d == 2 and factor_dictionary is None and not T.is_zero():
        return _matrix_rank_partition(T, r_max, budget)
    return _partition_search(T, r_max, budget, factor_dictionary)


def _matrix_rank_partition(T: MultilinearForm, r_max: int, budget: Budget) -> RankResult:
    """Partition rank of a bilinear form x^T M y as rank(M).

    With R the nonzero rows of M's RREF and C the pivot columns of M,
    M = C R, so x^T M y = sum_i (x . C_i)(R_i . y).  M = C R is checked
    here; the certificate's polynomials are built, and re-expanded, when
    first read.  Over F_2 the work runs on bit rows (`_bit_rank_partition`).
    """
    n1, n2 = T.block_dims
    budget.charge(rref_steps(n1, n2), "partition rank by matrix rank")
    p = T.field.p
    if p == 2:
        return _bit_rank_partition(T, r_max)
    M = np.zeros((n1, n2), dtype=np.int64)
    for mono, c in T.poly.terms.items():
        M[mono.index(1), mono.index(1, n1) - n1] = c
    R, pivots, k = rref_mod(M, p)
    if k > r_max:
        return RankResult(None, r_max=r_max, per_r=tuple((r, "no") for r in range(1, r_max + 1)))
    C, R = M[:, pivots], R[:k]
    if np.any(matmul_mod(C, R, p) != M):
        raise VerificationError("bilinear form: M != C R mod p")
    per_r = tuple((r, "no") for r in range(1, k)) + ((k, "found"),)
    return RankResult(k, r_max=r_max, certificate=_MatrixRankCertificate(T, C, R), per_r=per_r)


def _bit_rank_partition(T: MultilinearForm, r_max: int) -> RankResult:
    """`_matrix_rank_partition` over F_2 on bit rows: row i of M is one int,
    bit j its entry M[i, j], and its RREF is taken by `rref_bit_rows`.
    M = C R holds iff each row of M is the XOR of the rows of R at its
    pivot bits; C and R are unpacked only once that is checked."""
    n1, n2 = T.block_dims
    M = [0] * n1
    for mono in T.poly.terms:
        M[mono.index(1)] |= 1 << mono.index(1, n1) - n1
    R = M.copy()
    pivots = rref_bit_rows(R, n2)
    k = len(pivots)
    if k > r_max:
        return RankResult(None, r_max=r_max, per_r=tuple((r, "no") for r in range(1, r_max + 1)))
    del R[k:]
    for row in M:
        acc = 0
        for c, r in zip(pivots, R):
            if row >> c & 1:
                acc ^= r
        if acc != row:
            raise VerificationError("bilinear form: M != C R mod p")
    width = -(-n2 // 8)
    bits = np.frombuffer(b"".join(v.to_bytes(width, "little") for v in M + R), dtype=np.uint8).reshape(-1, width)
    B = np.unpackbits(bits, axis=1, count=n2, bitorder="little").astype(np.int64)
    per_r = tuple((r, "no") for r in range(1, k)) + ((k, "found"),)
    return RankResult(k, r_max=r_max, certificate=_MatrixRankCertificate(T, B[:n1, pivots], B[n1:]), per_r=per_r)


def _partition_search(
    T: MultilinearForm,
    r_max: int,
    budget: Budget | None = None,
    factor_dictionary: list[tuple[frozenset, MultiPoly]] | None = None,
) -> RankResult:
    """`partition_rank` by the search driver, for any number of blocks.

    Without a dictionary each unordered bipartition is one group, whose Q
    side is the block set with fewer monomials (the one holding block 0 on
    a tie) and whose R side is the other: either factor of a product can be
    enumerated, so the search stays exhaustive, and `value` and `per_r` are
    those of enumerating the block-0 side; only the certificate's pairs,
    and the charges, differ."""
    budget = budget or Budget()
    if T.is_zero():
        return RankResult(0, r_max=r_max, certificate=RankCertificate("partition", ()))
    q = T.field.p
    d = T.d
    if d < 2:
        raise InputError("partition rank needs at least two blocks")
    dims = T.block_dims
    offs = T.block_offsets()
    all_blocks = frozenset(range(d))
    if factor_dictionary is None:
        # each unordered bipartition appears once, as the side that contains
        # block 0 unless the other side has fewer monomials
        splits = []
        for size in range(1, d):
            for J in itertools.combinations(range(1, d), size - 1):
                J = frozenset((0,) + J)
                splits.append(min(J, all_blocks - J, key=lambda side: math.prod(dims[b] for b in side)))
        q_sides = {J: _block_monomials(dims, offs, J) for J in splits}
        q_factors = (
            (J, [(m, c) for m, c in zip(q_sides[J], vec) if c], vec)
            for J in splits
            for vec in _normalized_vectors(q, len(q_sides[J]))
        )
        sizes = [len(q_sides[J]) for J in splits]
    else:
        # a dictionary is not closed under span: each entry is a group of its own
        entries = [_dictionary_entry(T, entry) for entry in factor_dictionary]
        splits = {J for J, _ in entries}
        q_factors = ((J, list(Q.terms.items()), (1,)) for J, Q in entries)
        sizes = [1] * len(entries)
    r_sides = {J: _block_monomials(dims, offs, all_blocks - J) for J in splits}
    row_of = {m: i for i, m in enumerate(_block_monomials(dims, offs, all_blocks))}
    candidates = ((J, q_terms, r_sides[J], vec) for J, q_terms, vec in q_factors)
    width = max(map(len, r_sides.values()), default=0)
    return _rank_search(
        "partition", T.poly, row_of, candidates, sizes, width, r_max, budget,
        lambda cert: cert.verify_partition(T), exhaustive=factor_dictionary is None,
    )


def _dictionary_entry(T: MultilinearForm, entry) -> tuple[frozenset, MultiPoly]:
    """(J, Q) from a factor dictionary entry, or InputError if it is malformed."""
    try:
        J, Q = entry
        J = frozenset(J)
    except (TypeError, ValueError) as exc:
        raise InputError(f"dictionary entry is not a (block set, factor) pair: {exc}") from exc
    if not J or not J < frozenset(range(T.d)):
        raise InputError(f"dictionary block set {set(J)} is not a proper nonempty subset of the {T.d} blocks")
    if not isinstance(Q, MultiPoly) or Q.field != T.field or Q.n != T.poly.n:
        raise InputError(f"dictionary factor for blocks {sorted(J)} is not a polynomial in the tensor's {T.poly.n} variables")
    want = tuple(int(b in J) for b in range(T.d))
    if any(T.block_degrees(mono) != want for mono in Q.terms):
        raise InputError(f"dictionary factor for blocks {sorted(J)} is not multilinear on exactly those blocks")
    return J, Q


def invariant_factor_dictionary(T: MultilinearForm) -> list[tuple[frozenset, MultiPoly]]:
    """Coordinate-permutation-invariant factor candidates for upper-bound searches.

    For each proper bipartition J (0 in J), the Q candidates are all nonzero
    span combinations of products of power-sum tensors over set partitions of
    J, where the power sum over a block set B is sum_i prod_{b in B} x_{b,i}.
    Sound for upper bounds on symmetric tensors with equal block sizes.
    """
    field = T.field
    q = field.p
    d = T.d
    dims = T.block_dims
    if len(set(dims)) != 1:
        raise InputError("invariant dictionary needs equal block sizes")
    n = dims[0]
    offs = T.block_offsets()
    total = sum(dims)

    def power_sum(blocks: tuple[int, ...]) -> MultiPoly:
        terms = {}
        for i in range(n):
            e = [0] * total
            for b in blocks:
                e[offs[b] + i] = 1
            terms[tuple(e)] = 1
        return MultiPoly(field, total, terms)

    out: list[tuple[frozenset, MultiPoly]] = []
    for size in range(1, d):
        for J in itertools.combinations(range(1, d), size - 1):
            Jset = frozenset((0,) + J)
            parts = list(_set_partitions(sorted(Jset)))
            basis = []
            for part in parts:
                Q = MultiPoly.constant(field, total, 1)
                for blockset in part:
                    Q = Q * power_sum(tuple(blockset))
                basis.append(Q)
            for coeffs in itertools.product(range(q), repeat=len(basis)):
                if not any(coeffs):
                    continue
                Q = MultiPoly.zero(field, total)
                for c, b in zip(coeffs, basis):
                    if c:
                        Q = Q + b.scale(c)
                if not Q.is_zero():
                    out.append((Jset, Q))
    return out


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


# ---------------------------------------------------------------------------
# nc-rank and family rank
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NcRankResult:
    schmidt: RankResult  # rank of the d-fold difference form as a polynomial
    partition: RankResult  # partition rank of the same form, reported alongside

    def display(self) -> str:
        return f"nc-rank {self.schmidt.display()} (partition rank {self.partition.display()})"


def nc_rank(P: MultiPoly, r_max: int, budget: Budget | None = None) -> NcRankResult:
    """Rank of the order-(deg P) difference form of P, in d*n variables."""
    if P.is_zero():
        zero = RankResult(0, r_max=r_max)
        return NcRankResult(zero, zero)
    if P.degree() <= 1:
        inf = RankResult(None, infinite=True, r_max=r_max)
        return NcRankResult(inf, inf)
    form = multilinear_form(P)
    if form.is_zero():
        zero = RankResult(0, r_max=r_max)
        return NcRankResult(zero, zero)
    return NcRankResult(
        schmidt_rank(form.poly, r_max, budget),
        partition_rank(form, r_max, budget),
    )


@dataclass(frozen=True)
class FamilyRankResult:
    value: int | None
    infinite: bool
    span_dependent: bool  # True when the members are linearly dependent
    witness: tuple[int, ...] | None  # combination attaining the minimum
    combination_results: tuple[tuple[tuple[int, ...], RankResult], ...]

    def display(self) -> str:
        if self.infinite:
            return "infinite"
        return str(self.value) if self.value is not None else "undecided"


def family_rank(family: PolyFamily, r_max: int, budget: Budget | None = None) -> FamilyRankResult:
    """Minimal Schmidt rank over all nonzero combinations (projective reps)."""
    budget = budget or Budget()
    q = family.field.p
    dependent = not family.is_independent()
    results = []
    best: int | None = None
    best_witness = None
    all_infinite = True
    for coeffs in _normalized_vectors(q, family.c):
        combo = family.combination(coeffs)
        res = schmidt_rank(combo, r_max, budget)
        results.append((coeffs, res))
        if not res.infinite:
            all_infinite = False
        if res.value is not None and (best is None or res.value < best):
            best = res.value
            best_witness = coeffs
    return FamilyRankResult(best, all_infinite, dependent, best_witness, tuple(results))


# ---------------------------------------------------------------------------
# Bias-derived partition rank lower bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BiasPrankBound:
    """Largest r with |E e_p(T)| < q^{-r}; guarantees prank(T) > r for T != 0.

    The bias and the partition rank refer to the same tensor over the same
    domain; mixing the full polarization of a polynomial with a compressed
    block form of it produces nonsense, so don't.
    For the zero tensor the bound degenerates to 0 with no guarantee.
    """

    bound: int
    bias_value: Fraction
    zero_form: bool
    histogram: CharHistogram

    @property
    def guarantees(self) -> str:
        if self.zero_form:
            return "none (zero tensor)"
        return f"partition rank > {self.bound}"


def prank_lower_bound_from_bias(T: MultilinearForm, budget: Budget | None = None) -> BiasPrankBound:
    hist = histogram_of_poly(T.poly, budget)
    val = hist.char_sum_rational()
    if val is None:
        raise VerificationError("multilinear form histogram must be uniform off zero")
    bias_fr = Fraction(val, hist.domain_size)
    if bias_fr < 0:
        raise VerificationError("multilinear form bias must be nonnegative")
    q = T.field.p
    if bias_fr == 1:
        return BiasPrankBound(0, bias_fr, True, hist)
    # bias < q^-(r+1), with val an integer, in integers
    num, r = int(val), 0
    while num * q ** (r + 1) < hist.domain_size:
        r += 1
    return BiasPrankBound(r, bias_fr, False, hist)
