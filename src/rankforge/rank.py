"""Exhaustive small-scale rank decisions with re-verifiable certificates.

A decomposition P = sum_j Q_j R_j is linear in the R_j once the Q_j are
fixed, so the search enumerates only the Q side and solves for the R side
exactly.  Q factors are normalized (first nonzero coefficient 1, graded-lex
coefficient order) and tuples are strictly increasing, which removes the
scaling and merging redundancy without losing any decomposition.  Searches
run r = 1, 2, ... and each r is either refuted exhaustively, witnessed by a
certificate, or abandoned on budget; the three outcomes are reported
separately.

Schmidt and partition rank run the same driver, `_rank_search`.  The
caller supplies the target, the candidate count (by formula), the widest R
side and a lazy sequence of Q candidates; the driver charges the
budget for r before it builds anything, so a refused search allocates no
candidate block.  For a given r the search wants the first Q tuple, in
`itertools.combinations` order, whose column blocks span P's coefficient
vector.  `_SpanSearch` reads candidates only as far as its walk reaches,
walks the tuples depth-first and shares each prefix's echelon basis
(bit-packed over F_2) among all tuples that extend it, so most tuples cost
one block's reduction and no solve; only the hit is solved, by `solve_mod`
on its rebuilt blocks, so the certificate is the one a solve per tuple
would give, and only the hit's Q and R become polynomials.

The rank of a nonzero polynomial of degree <= 1 is an infinite sentinel
(such polynomials admit no factors of lower degree), never a large integer.
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
from .linalg import solve_mod
from .poly import AffineMap, MultilinearForm, MultiPoly, PolyFamily, monomials, multilinear_form, product_matrix
from .runtime import Budget


class InfiniteRank:
    """Sentinel for the infinite rank of nonzero affine polynomials."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "InfiniteRank"


INFINITE_RANK = InfiniteRank()


@dataclass(frozen=True)
class RankCertificate:
    """A decomposition witness; re-expands exactly to the decomposed object.

    For kind "schmidt", pairs is a list of (Q, R) polynomial factors.
    For kind "partition", pairs is a list of (J, Q, R) with J the block
    index set of Q (R lives on the complementary blocks).
    """

    kind: str
    pairs: tuple
    bound_provenance: str = ""

    def expand(self, field: PrimeField, n: int) -> MultiPoly:
        total = MultiPoly.zero(field, n)
        for entry in self.pairs:
            Q, R = entry[-2], entry[-1]
            total = total + Q * R
        return total

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
                if any(T.block_degrees(mono) != tuple(int(b in side) for b in range(T.d)) for mono in poly.terms):
                    raise VerificationError("factor not multilinear on its blocks")
        if self.expand(T.field, T.poly.n) != T.poly:
            raise VerificationError("certificate does not re-expand to the tensor")


@dataclass(frozen=True)
class RankResult:
    value: int | None  # decided rank, None if not decided
    infinite: bool = False
    r_max: int = 0
    exceeded_at: int | None = None
    certificate: RankCertificate | None = None
    per_r: tuple[tuple[int, str], ...] = ()
    exhaustive: bool = True  # False when a restricted factor dictionary was used

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
    in deterministic lexicographic order."""
    for lead in range(length):
        for tail in itertools.product(range(q), repeat=length - lead - 1):
            vec = [0] * length
            vec[lead] = 1
            vec[lead + 1 :] = tail
            yield tuple(vec)


# ---------------------------------------------------------------------------
# The search driver
# ---------------------------------------------------------------------------


def _rank_search(
    kind: str, P: MultiPoly, row_of: dict, candidates, count: int, width: int, r_max: int, budget: Budget, verify,
    exhaustive: bool = True,
) -> RankResult:
    """Minimal r with P = sum of r products Q_j R_j, Q_j drawn from candidates.

    `candidates` lazily yields `count` triples (J, Q's (monomial, coefficient)
    terms, R's monomials); R is solved for, so it is at most `width` wide.
    Each r is charged comb(count, r) * rows * width * r before the search
    reads a candidate, and only the hit's factors become polynomials.
    """
    target = np.zeros(len(row_of), dtype=np.int64)
    for m, c in P.terms.items():
        target[row_of[m]] = c
    search = _SpanSearch(candidates, count, lambda cand: product_matrix(row_of, cand[1], cand[2]), target, P.field.p)
    per_r: list[tuple[int, str]] = []
    for r in range(1, r_max + 1):
        try:
            budget.charge(math.comb(count, r) * len(row_of) * width * r, f"{kind} rank search at r={r}")
        except BudgetExceededError:
            if not per_r:
                raise
            # partial answers are honest: "rank <= r-1: no, r: abandoned"
            per_r.append((r, "budget"))
            return RankResult(None, r_max=r_max, exceeded_at=r, per_r=tuple(per_r), exhaustive=exhaustive)
        hit = search.first(r)
        if hit is None:
            per_r.append((r, "no"))
            continue
        combo, x = hit
        pairs = []
        pos = 0
        for i in combo:
            J, q_terms, monos_r = search.candidate(i)
            Q = MultiPoly(P.field, P.n, dict(q_terms))
            R = MultiPoly(P.field, P.n, {m: c for m, c in zip(monos_r, x[pos : pos + len(monos_r)]) if c})
            pairs.append((Q, R) if J is None else (tuple(sorted(J)), Q, R))
            pos += len(monos_r)
        cert = RankCertificate(kind, tuple(pairs), f"exhausted r<{r}" if exhaustive else "dictionary search")
        verify(cert)
        per_r.append((r, "found"))
        return RankResult(r, r_max=r_max, certificate=cert, per_r=tuple(per_r), exhaustive=exhaustive)
    return RankResult(None, r_max=r_max, per_r=tuple(per_r), exhaustive=exhaustive)


class _SpanSearch:
    """The first r-combination of candidate column blocks whose span holds a target.

    Combinations come in `itertools.combinations` order.  Candidates are read
    from their iterator only as far as the walk reaches, and each block's
    column space is packed once, on first use, as an echelon basis: over F_2
    each vector is a Python int (bit i = row i) reduced by XOR, over odd p a
    list of ints; the numpy block itself is not kept.  `first(r)` walks the
    combinations depth-first, keeping the prefix's echelon basis and the
    target reduced against it, so a node reduces only its newest block's
    columns.  On a hit it rebuilds the hit's blocks and runs `solve_mod` on
    [blocks...] exactly as a plain loop over the combinations would, so the
    solution is the same.
    """

    def __init__(self, candidates, count: int, build, target: np.ndarray, p: int):
        self.candidates = iter(candidates)
        self.count = count
        self.build = build
        self.target = target
        self.p = p
        self.zero = self._pack(np.zeros_like(target))
        self.read: list = []
        self.packed: dict[int, list] = {}

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
        """(combination, solution x) for the first hit, or None."""
        n = self.count
        basis: list = []

        def visit(prefix: tuple, start: int, t):
            depth = len(prefix) + 1
            for i in range(start, n - r + depth):
                mark = len(basis)
                for v in self._column_basis(i):
                    self._insert(basis, v)
                rest = self._reduce(t, basis, mark)
                if rest == self.zero:
                    # every completion of this prefix hits; the first is in order
                    return prefix + tuple(range(i, i + r - depth + 1))
                if depth < r:
                    hit = visit(prefix + (i,), i + 1, rest)
                    if hit is not None:
                        return hit
                del basis[mark:]
            return None

        combo = visit((), 0, self._pack(self.target))
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
    by the field equation).
    """
    budget = budget or Budget()
    if P.is_zero():
        return RankResult(0, r_max=r_max, certificate=RankCertificate("schmidt", ()))
    d = P.degree()
    if d <= 1:
        return RankResult(None, infinite=True, r_max=r_max)
    q = P.field.p
    factor_monos = monomials(P.n, d - 1)
    M = len(factor_monos)
    # degree <= 2(d-1) covers every monomial of P, since d >= 2
    row_of = {m: i for i, m in enumerate(monomials(P.n, 2 * (d - 1)))}
    candidates = ((None, [(m, c) for m, c in zip(factor_monos, vec) if c], factor_monos) for vec in _normalized_vectors(q, M))
    count = (q**M - 1) // (q - 1)  # normalized vectors of length M
    return _rank_search("schmidt", P, row_of, candidates, count, M, r_max, budget, lambda cert: cert.verify_schmidt(P))


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
    """
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
        # J always contains block 0, so each unordered bipartition appears once
        splits = [frozenset((0,) + J) for size in range(1, d) for J in itertools.combinations(range(1, d), size - 1)]
        q_sides = {J: _block_monomials(dims, offs, J) for J in splits}
        q_factors = (
            (J, [(m, c) for m, c in zip(q_sides[J], vec) if c])
            for J in splits
            for vec in _normalized_vectors(q, len(q_sides[J]))
        )
        count = sum((q ** len(monos) - 1) // (q - 1) for monos in q_sides.values())
    else:
        entries = [_dictionary_entry(T, entry) for entry in factor_dictionary]
        splits = {J for J, _ in entries}
        q_factors = ((J, list(Q.terms.items())) for J, Q in entries)
        count = len(entries)
    r_sides = {J: _block_monomials(dims, offs, all_blocks - J) for J in splits}
    row_of = {m: i for i, m in enumerate(_block_monomials(dims, offs, all_blocks))}
    candidates = ((J, q_terms, r_sides[J]) for J, q_terms in q_factors)
    width = max(map(len, r_sides.values()), default=0)
    return _rank_search(
        "partition", T.poly, row_of, candidates, count, width, r_max, budget,
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
    if any(T.block_degrees(mono) != tuple(int(b in J) for b in range(T.d)) for mono in Q.terms):
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
    r = 0
    while bias_fr < Fraction(1, q ** (r + 1)):
        r += 1
    return BiasPrankBound(r, bias_fr, False, hist)


# ---------------------------------------------------------------------------
# Rank axioms on instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    status: str  # "ok" | "violated" | "untested"
    detail: str = ""


@dataclass(frozen=True)
class RankAxiomReport:
    checks: tuple[AxiomCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.status != "violated" for c in self.checks)


def _rank_value(res: RankResult):
    if res.infinite:
        return INFINITE_RANK
    return res.value


def check_rank_axioms(
    P: MultiPoly,
    r_max: int,
    subspace: AffineMap | None = None,
    phi: AffineMap | None = None,
    budget: Budget | None = None,
) -> RankAxiomReport:
    """Instance checks: restriction drop vs codimension, invariance under an
    invertible affine substitution, and the partition/Schmidt sandwich on the
    difference form.  Budget refusals surface as "untested", never failures.
    """
    budget = budget or Budget()
    checks: list[AxiomCheck] = []

    try:
        base = schmidt_rank(P, r_max, budget)
    except BudgetExceededError as exc:
        names = []
        if subspace is not None:
            names.append("subspace-drop")
        if phi is not None:
            names.append("affine-invariance")
        if P.degree() >= 2:
            names.append("schmidt-partition-sandwich")
        return RankAxiomReport(tuple(AxiomCheck(n, "untested", str(exc)) for n in names))

    if subspace is not None:
        try:
            restricted = schmidt_rank(P.compose(subspace), r_max, budget)
            codim = subspace.n_out - subspace.n_in
            if base.value is not None and restricted.value is not None:
                ok = restricted.value >= base.value - codim
                checks.append(
                    AxiomCheck(
                        "subspace-drop",
                        "ok" if ok else "violated",
                        f"rank {restricted.value} >= {base.value} - {codim}",
                    )
                )
            else:
                checks.append(AxiomCheck("subspace-drop", "untested", "rank undecided"))
        except BudgetExceededError as exc:
            checks.append(AxiomCheck("subspace-drop", "untested", str(exc)))

    if phi is not None:
        if phi.n_in != phi.n_out:
            raise InputError("invariance check needs an invertible (square) map")
        try:
            moved = schmidt_rank(P.compose(phi), r_max, budget)
            if base.decided and moved.decided:
                ok = _rank_value(base) is _rank_value(moved) or _rank_value(base) == _rank_value(moved)
                checks.append(
                    AxiomCheck(
                        "affine-invariance",
                        "ok" if ok else "violated",
                        f"{base.display()} vs {moved.display()}",
                    )
                )
            else:
                checks.append(AxiomCheck("affine-invariance", "untested", "rank undecided"))
        except BudgetExceededError as exc:
            checks.append(AxiomCheck("affine-invariance", "untested", str(exc)))

    if P.degree() >= 2:
        try:
            form = multilinear_form(P)
            if form.is_zero():
                checks.append(AxiomCheck("schmidt-partition-sandwich", "ok", "zero form"))
            else:
                r_form = schmidt_rank(form.poly, r_max, budget)
                pr_form = partition_rank(form, r_max, budget)
                if r_form.value is not None and pr_form.value is not None:
                    d = P.degree()
                    ok = r_form.value <= pr_form.value <= (4**d) * r_form.value
                    checks.append(
                        AxiomCheck(
                            "schmidt-partition-sandwich",
                            "ok" if ok else "violated",
                            f"r={r_form.value}, pr={pr_form.value}, 4^d r={(4 ** d) * r_form.value}",
                        )
                    )
                else:
                    checks.append(AxiomCheck("schmidt-partition-sandwich", "untested", "rank undecided"))
        except BudgetExceededError as exc:
            checks.append(AxiomCheck("schmidt-partition-sandwich", "untested", str(exc)))

    return RankAxiomReport(tuple(checks))
