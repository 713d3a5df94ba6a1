"""The explicit high-rank hypersurface family and its torus-equivariant
extension pipeline.

The variety X lives in n blocks of d coordinates; its equation is the sum
over blocks of the product of the block's coordinates.  A torus T (built
from a multiplicative subgroup of order m) acts blockwise, and k-valued
functions on X split into character components under averaging.  Each
admissible component is reconstructed as an explicit polynomial: a monomial
carrying the character times a polynomial in the block products.  The
residual of that reconstruction is checked to vanish stratum by stratum,
where the strata count coordinates outside the subgroup.

Character bookkeeping convention: components satisfy f(t.x) = theta(t) f(x).
A blockwise character is stored by an exponent vector e mod m, defined up to
a common shift.  The "plus" normal form anchors the smallest exponent at
position 1 (all pairwise offsets alpha_{j,j'} = rep(e_j - e_{j'}) are <= 0
for j < j'), so the carried monomial uses the nonnegative exponents
rep(e_j - e_1) <= a and multiplies by exactly theta(t) under the action.
Every admissible character reaches this form by permuting coordinates
within blocks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .analytic import ExactMagnitude, bias, histogram_of_poly
from .errors import BudgetExceededError, InputError, NotAdmissibleError, VerificationError
from .gf import DeltaSubgroup, PrimeField
from .geometry import VarietyPoints, enumerate_points
from .poly import MultiPoly, PolyFamily, interpolate_grid, multilinear_form
from .runtime import Budget
from .weakpoly import FunctionOnX, extend_by_solve

Permutation = tuple[int, ...]  # sigma[j] = source coordinate for target slot j


# ---------------------------------------------------------------------------
# The variety
# ---------------------------------------------------------------------------


class ExplicitVariety:
    """Zero set of sum_i prod_j x_{i,j} in n blocks of d coordinates.

    c > 1 takes c disjoint copies of the same equation on V^c (a family of c
    polynomials); the extension machinery is exercised at c = 1.
    """

    def __init__(self, d: int, n: int, field: PrimeField, c: int = 1):
        # d < q is required only by the extension machinery (the torus needs a
        # subgroup of order > a*d); bias and norm computations run at any d.
        if d < 1 or n < 1 or c < 1:
            raise InputError("d, n, c must be positive")
        self.d = d
        self.n = n
        self.c = c
        self.field = field
        self.nvars = n * d * c

    def var(self, i: int, j: int, copy: int = 0) -> int:
        """Flat index of coordinate j of block i (0-based everywhere)."""
        return copy * self.n * self.d + i * self.d + j

    def polynomial(self, copy: int = 0) -> MultiPoly:
        terms = {}
        for i in range(self.n):
            e = [0] * self.nvars
            for j in range(self.d):
                e[self.var(i, j, copy)] = 1
            terms[tuple(e)] = 1
        return MultiPoly(self.field, self.nvars, terms)

    def family(self) -> PolyFamily:
        return PolyFamily([self.polynomial(copy) for copy in range(self.c)])

    def points(self, budget: Budget | None = None) -> VarietyPoints:
        return enumerate_points(self.family(), budget)

    # -- structural maps ------------------------------------------------------

    def block_products(self, v) -> tuple[int, ...]:
        """nu(v): the per-block products (mu of each block)."""
        if self.c != 1:
            raise InputError("block products are defined per copy; use c=1")
        p = self.field.p
        out = []
        for i in range(self.n):
            prod = 1
            for j in range(self.d):
                prod = (prod * v[self.var(i, j)]) % p
            out.append(prod)
        return tuple(out)

    def embed_zero_sum(self, cbar) -> tuple[int, ...]:
        """kappa(c): block i becomes (c_i, 1, ..., 1); requires sum c_i = 0."""
        p = self.field.p
        if self.c != 1:
            raise InputError("embedding is defined per copy; use c=1")
        if len(cbar) != self.n:
            raise InputError("expected one coordinate per block")
        if sum(cbar) % p != 0:
            raise InputError("coordinates must sum to zero")
        v = [1] * self.nvars
        for i in range(self.n):
            v[self.var(i, 0)] = cbar[i] % p
        pt = tuple(v)
        if self.polynomial().eval(pt) != 0:
            raise VerificationError("embedded point is off the variety")
        return pt

    def zero_sum_grid(self):
        """All points of L = {sum c_i = 0}, indexed by the first n-1 coordinates."""
        p = self.field.p
        for free in itertools.product(range(p), repeat=self.n - 1):
            last = (-sum(free)) % p
            yield free + (last,)


def mu_bias(d: int, field: PrimeField, budget: Budget | None = None) -> ExactMagnitude:
    """Bias of the d-fold coordinate product on k^d; strictly below 1."""
    terms = {tuple([1] * d): 1}
    mu = MultiPoly(field, d, terms)
    mag = bias(mu, budget)
    if mag.mag_sq is None or mag.mag_sq >= 1:
        raise VerificationError("product bias must be a rational strictly below 1")
    return mag


@dataclass(frozen=True)
class GrowthRow:
    n: int
    restricted_value: Fraction  # t^n, the diagonal-subspace bias of the difference form
    full_value: Fraction | None  # full-domain bias of the difference form, if affordable
    consistent: bool  # full <= restricted whenever both computed


def nc_rank_growth_check(
    d: int,
    field: PrimeField,
    n_range,
    budget: Budget | None = None,
) -> list[GrowthRow]:
    """Bias decay table for the family: the diagonal restriction evaluates to
    t^n exactly; the full-domain bias of the difference form must not exceed
    it.  Budget refusal leaves the full column empty, never fails."""
    budget = budget or Budget()
    t = mu_bias(d, field, budget)
    # bias of the product form is real and rational
    t_num = t.histogram.char_sum_rational()
    t_val = Fraction(t_num, t.histogram.domain_size)
    rows = []
    for n in n_range:
        xn = ExplicitVariety(d, n, field)
        P = xn.polynomial()
        # diagonal restriction of the difference form is structurally P itself
        restricted_hist = histogram_of_poly(P, budget)
        restricted = Fraction(restricted_hist.char_sum_rational(), restricted_hist.domain_size)
        if restricted != t_val**n:
            raise VerificationError("diagonal restriction should equal the product bias power")
        full = None
        try:
            form = multilinear_form(P, d)
            fh = histogram_of_poly(form.poly, budget)
            full = Fraction(fh.char_sum_rational(), fh.domain_size)
        except BudgetExceededError:
            full = None
        ok = full is None or abs(full) <= restricted
        rows.append(GrowthRow(n, restricted, full, ok))
    return rows


# ---------------------------------------------------------------------------
# Torus and characters
# ---------------------------------------------------------------------------


class ProductTorus:
    """T = (T_1)^n with T_1 the product-one tuples in Delta^d."""

    def __init__(self, variety: ExplicitVariety, delta: DeltaSubgroup, a: int):
        field = variety.field
        if delta.field != field:
            raise InputError("subgroup field mismatch")
        if delta.m <= a * variety.d:
            raise NotAdmissibleError(
                f"subgroup order {delta.m} must exceed a*d = {a * variety.d}"
            )
        if variety.c != 1:
            raise InputError("torus machinery runs at c = 1")
        self.variety = variety
        self.delta = delta
        self.a = a
        self.field = field
        d = variety.d
        g = delta.generator
        self.t1: list[tuple[int, ...]] = []
        for exps in itertools.product(range(delta.m), repeat=d - 1):
            tup = [field.pow(g, e) for e in exps]
            tup.append(field.pow(g, (-sum(exps)) % delta.m))
            self.t1.append(tuple(tup))
        self.t1_size = len(self.t1)  # m^(d-1)

    def elements(self):
        """All of T as tuples of T_1 indices."""
        return itertools.product(range(self.t1_size), repeat=self.variety.n)

    @property
    def size(self) -> int:
        return self.t1_size**self.variety.n

    def permutation(self, t_idx: tuple[int, ...], X: VarietyPoints) -> np.ndarray:
        """perm[k] = ordinal in X of t . x_k, x_k the k-th point of X: every
        coordinate column scaled by its entry of t at once (`act_point` per
        point)."""
        scale = np.array([self.t1[ti] for ti in t_idx], dtype=np.int64).reshape(-1)
        return X.ordinals_of_indices(X.box.encode(X.box.decode(X.indices) * scale))

    def act_point(self, t_idx: tuple[int, ...], point) -> tuple[int, ...]:
        p = self.field.p
        v = list(point)
        for i, ti in enumerate(t_idx):
            tup = self.t1[ti]
            for j in range(self.variety.d):
                k = self.variety.var(i, j)
                v[k] = (v[k] * tup[j]) % p
        return tuple(v)

    def characters(self):
        """All blockwise characters, canonical exponent vectors (e_1 = 0)."""
        m = self.delta.m
        d = self.variety.d
        per_block = [
            (0,) + rest for rest in itertools.product(range(m), repeat=d - 1)
        ]
        for combo in itertools.product(per_block, repeat=self.variety.n):
            yield TorusCharacter(self, combo)


@dataclass(frozen=True)
class TorusCharacter:
    """Blockwise character of T, one exponent vector mod m per block,
    normalized to e_1 = 0."""

    torus: ProductTorus
    exponents: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        m = self.torus.delta.m
        fixed = tuple(
            tuple((ej - e[0]) % m for ej in e) for e in self.exponents
        )
        object.__setattr__(self, "exponents", fixed)

    def value(self, t_idx: tuple[int, ...]) -> int:
        field = self.torus.field
        out = 1
        for i, ti in enumerate(t_idx):
            tup = self.torus.t1[ti]
            for j, ej in enumerate(self.exponents[i]):
                if ej:
                    out = (out * field.pow(tup[j], ej)) % field.p
        return out

    def alpha(self, block: int, j: int, jp: int) -> int:
        """Centered representative of e_j - e_j' in (-m/2, m/2]."""
        m = self.torus.delta.m
        diff = (self.exponents[block][j] - self.exponents[block][jp]) % m
        return diff if diff <= m // 2 else diff - m

    def is_admissible(self, a: int) -> bool:
        d = self.torus.variety.d
        return all(
            abs(self.alpha(i, j, jp)) <= a
            for i in range(self.torus.variety.n)
            for j in range(d)
            for jp in range(j + 1, d)
        )

    def is_plus(self, a: int) -> bool:
        """Admissible with ascending anchor: alpha_{j,j'} <= 0 for j < j'."""
        if not self.is_admissible(a):
            return False
        d = self.torus.variety.d
        return all(
            self.alpha(i, j, jp) <= 0
            for i in range(self.torus.variety.n)
            for j in range(d)
            for jp in range(j + 1, d)
        )

    def carried_exponents(self, a: int) -> tuple[tuple[int, ...], ...]:
        """For a plus-form character: beta_j = rep(e_j - e_1) in [0, a]."""
        if not self.is_plus(a):
            raise InputError("carried exponents need the plus normal form")
        out = []
        for i in range(self.torus.variety.n):
            beta = tuple(-self.alpha(i, 0, j) for j in range(self.torus.variety.d))
            if any(b < 0 or b > a for b in beta):
                raise VerificationError("carried exponent out of range")
            out.append(beta)
        return tuple(out)

    def compose_block_permutations(self, gamma: tuple[Permutation, ...]) -> "TorusCharacter":
        """The character t -> theta(gamma(t)) for gamma acting blockwise by
        coordinate permutation (gamma(t))_i^j = t_i^{sigma_i[j]}."""
        # theta(gamma t) = prod_j (t^{sigma[j]})^{e_j} = prod_k (t^k)^{e_{sigma^{-1}[k]}}
        return TorusCharacter(
            self.torus, tuple(tuple(e[k] for k in inv) for e, inv in zip(self.exponents, invert_gamma(gamma)))
        )

    def permutation_to_plus(self, a: int) -> tuple[Permutation, ...]:
        """Blockwise permutations gamma with (theta o gamma) in plus form."""
        if not self.is_admissible(a):
            raise InputError("only admissible characters reach the plus form")
        m = self.torus.delta.m
        d = self.torus.variety.d
        gamma = []
        for e in self.exponents:
            anchor = None
            for j0 in range(d):
                if all((e[j] - e[j0]) % m <= a for j in range(d)):
                    anchor = j0
                    break
            if anchor is None:
                raise VerificationError("admissible exponents admit an anchor")
            order = sorted(range(d), key=lambda j: ((e[j] - e[anchor]) % m, j))
            # sigma[slot] = source coordinate placed at slot
            gamma.append(tuple(order))
        gamma = tuple(gamma)
        if not self.compose_block_permutations(gamma).is_plus(a):
            raise VerificationError("plus normalization failed")
        return gamma


def act_gamma_point(variety: ExplicitVariety, gamma: tuple[Permutation, ...], point):
    """(gamma x)_i^j = x_i^{sigma_i[j]}."""
    v = list(point)
    out = list(point)
    for i, sigma in enumerate(gamma):
        for slot, src in enumerate(sigma):
            out[variety.var(i, slot)] = v[variety.var(i, src)]
    return tuple(out)


def gamma_permutation(variety: ExplicitVariety, gamma: tuple[Permutation, ...], X: VarietyPoints) -> np.ndarray:
    """perm[k] = ordinal in X of gamma x_k: the coordinate columns permuted at
    once (`act_gamma_point` per point)."""
    cols = list(range(variety.nvars))
    for i, sigma in enumerate(gamma):
        for slot, src in enumerate(sigma):
            cols[variety.var(i, slot)] = variety.var(i, src)
    return X.ordinals_of_indices(X.box.encode(X.box.decode(X.indices)[:, cols]))


def invert_gamma(gamma: tuple[Permutation, ...]) -> tuple[Permutation, ...]:
    out = []
    for sigma in gamma:
        inv = [0] * len(sigma)
        for slot, src in enumerate(sigma):
            inv[src] = slot
        out.append(tuple(inv))
    return tuple(out)


def permute_poly_blockwise(variety: ExplicitVariety, P: MultiPoly, gamma: tuple[Permutation, ...]) -> MultiPoly:
    """P o gamma, i.e. the polynomial x -> P(gamma x)."""
    terms = {}
    for mono, c in P.terms.items():
        e = list(mono)
        for i, sigma in enumerate(gamma):
            block = [mono[variety.var(i, slot)] for slot in range(variety.d)]
            # coefficient of x_i^{sigma[slot]} in gamma-image picks up block[slot]
            for slot, src in enumerate(sigma):
                e[variety.var(i, src)] = block[slot]
        terms[tuple(e)] = (terms.get(tuple(e), 0) + c) % variety.field.p
    return MultiPoly(variety.field, variety.nvars, terms)


# ---------------------------------------------------------------------------
# Decomposition into character components
# ---------------------------------------------------------------------------


def torus_decompose(torus: ProductTorus, f: FunctionOnX) -> dict[TorusCharacter, FunctionOnX]:
    """f^theta(x) = |T|^{-1} sum_t theta(t)^{-1} f(t.x); the components sum
    back to f and transform by theta under the action (both re-verifiable)."""
    X = f.X
    field = torus.field
    p = field.p
    inv_size = field.inv(torus.size % p)
    tvals = list(torus.elements())
    perms = [torus.permutation(t_idx, X) for t_idx in tvals]
    out: dict[TorusCharacter, FunctionOnX] = {}
    for theta in torus.characters():
        acc = np.zeros(len(X), dtype=np.int64)
        for t_idx, perm in zip(tvals, perms):
            coef = field.inv(theta.value(t_idx)) if theta.value(t_idx) != 1 else 1
            acc = (acc + coef * f.values[perm]) % p
        out[theta] = FunctionOnX(X, (acc * inv_size) % p)
    total = np.zeros(len(X), dtype=np.int64)
    for g in out.values():
        total = (total + g.values) % p
    if not np.array_equal(total, f.values % p):
        raise VerificationError("character components do not sum back to the function")
    return out


# ---------------------------------------------------------------------------
# Stratification by off-subgroup defect
# ---------------------------------------------------------------------------


def defect(variety: ExplicitVariety, delta: DeltaSubgroup, point) -> int:
    """z(x): per block, the number of coordinates outside the subgroup minus
    one (floored at zero), summed over blocks."""
    total = 0
    for i in range(variety.n):
        bad = sum(
            1
            for j in range(variety.d)
            if point[variety.var(i, j)] not in delta
        )
        total += max(bad - 1, 0)
    return total


def stratify(variety: ExplicitVariety, delta: DeltaSubgroup, X: VarietyPoints) -> dict[int, list[int]]:
    """Ordinals of X grouped by defect value."""
    strata: dict[int, list[int]] = {}
    for ordinal, pt in enumerate(X.points):
        strata.setdefault(defect(variety, delta, pt), []).append(ordinal)
    return {s: strata[s] for s in sorted(strata)}


def base_stratum_orbit_check(variety: ExplicitVariety, delta: DeltaSubgroup, X: VarietyPoints) -> bool:
    """The defect-zero stratum equals the blockwise-permutation orbit of the
    points whose coordinates beyond the first all lie in the subgroup."""
    strata = stratify(variety, delta, X)
    y0 = {X.points[o] for o in strata.get(0, [])}
    core = set()
    for pt in X.points:
        if all(
            pt[variety.var(i, j)] in delta
            for i in range(variety.n)
            for j in range(1, variety.d)
        ):
            core.add(pt)
    orbit = set()
    for gamma in itertools.product(itertools.permutations(range(variety.d)), repeat=variety.n):
        for pt in core:
            orbit.add(act_gamma_point(variety, tuple(gamma), pt))
    return y0 == orbit


def torus_factor(
    variety: ExplicitVariety, torus: ProductTorus, point
) -> tuple[int, ...]:
    """For a point whose coordinates beyond the first lie in the subgroup:
    the unique torus element carrying the embedded block-product point to it."""
    field = variety.field
    t_idx = []
    nu = variety.block_products(point)
    for i in range(variety.n):
        coords = [point[variety.var(i, j)] for j in range(variety.d)]
        tail = coords[1:]
        if any(c not in torus.delta for c in tail):
            raise InputError("point is not in the base stratum core")
        prod_tail = 1
        for c in tail:
            prod_tail = field.mul(prod_tail, c)
        first = field.inv(prod_tail)
        tup = (first, *tail)
        try:
            ti = torus.t1.index(tup)
        except ValueError as exc:
            raise VerificationError("torus factor not in T_1") from exc
        t_idx.append(ti)
        # consistency: t . kappa-block reproduces the point
        base = (nu[i], *([1] * (variety.d - 1)))
        moved = tuple(field.mul(a, b) for a, b in zip(tup, base))
        if moved != tuple(coords):
            raise VerificationError("torus factor does not reproduce the point")
    return tuple(t_idx)


# ---------------------------------------------------------------------------
# Component reconstruction
# ---------------------------------------------------------------------------


def build_P_from_h(
    variety: ExplicitVariety,
    h: MultiPoly,
    theta: TorusCharacter,
    a: int,
) -> MultiPoly:
    """The carried monomial of a plus-form character times h of the block
    products; transforms by exactly theta and restricts to h on the embedded
    zero-sum subspace.  The formal degree must stay within a*d."""
    if h.n != variety.n:
        raise InputError("h must be a polynomial in one variable per block")
    beta = theta.carried_exponents(a)
    field = variety.field
    terms: dict[tuple[int, ...], int] = {}
    for mono, c in h.terms.items():
        e = [0] * variety.nvars
        for i in range(variety.n):
            for j in range(variety.d):
                e[variety.var(i, j)] = mono[i] + beta[i][j]
        key = tuple(e)
        terms[key] = (terms.get(key, 0) + c) % field.p
    P = MultiPoly(field, variety.nvars, terms)
    if P.degree() > a * variety.d:
        raise VerificationError(
            f"assembled polynomial degree {P.degree()} exceeds a*d = {a * variety.d}; "
            "the component is not admissible or h is too large"
        )
    return P


@dataclass
class PipelineComponent:
    theta: TorusCharacter
    gamma: tuple[Permutation, ...]
    h: MultiPoly
    poly: MultiPoly


@dataclass
class ExplicitExtensionResult:
    poly: MultiPoly
    components: list[PipelineComponent]
    assembled_degree: int
    reduction_nontrivial: bool


def explicit_extension(
    variety: ExplicitVariety,
    torus: ProductTorus,
    f: FunctionOnX,
    a: int,
    budget: Budget | None = None,
) -> ExplicitExtensionResult:
    """Reconstruct a weakly polynomial f as a global polynomial of degree <= a.

    Per admissible character component: normalize to plus form by a blockwise
    permutation, interpolate the component on the embedded zero-sum subspace,
    assemble the carried-monomial polynomial, and verify the residual
    vanishes stratum by stratum.  Components at non-admissible characters
    must vanish; a nonzero one is reported as an error (it means the function
    is not weakly polynomial at this degree, or the subgroup order is wrong).
    The summed polynomial has degree <= a*d; if that exceeds a, a final exact
    solve reduces the degree (logged as nontrivial reduction).
    """
    X = f.X
    field = variety.field
    p = field.p
    if torus.variety is not variety and torus.variety.__dict__ != variety.__dict__:
        raise InputError("torus was built for a different variety")
    components = torus_decompose(torus, f)
    strata = stratify(variety, torus.delta, X)

    pieces: list[PipelineComponent] = []
    total = MultiPoly.zero(field, variety.nvars)
    for theta, comp in components.items():
        if comp.is_zero():
            continue
        if not theta.is_admissible(a):
            raise VerificationError(
                f"nonzero component at a non-admissible character {theta.exponents}; "
                "function is not weakly polynomial at this degree for this subgroup"
            )
        gamma = theta.permutation_to_plus(a)
        theta_plus = theta.compose_block_permutations(gamma)
        moved = comp.values[gamma_permutation(variety, gamma, X)]  # g'(x) = comp(gamma x)
        gprime = FunctionOnX(X, moved)

        # interpolate g' on the embedded zero-sum grid
        grid_vals = []
        for cbar in variety.zero_sum_grid():
            pt = variety.embed_zero_sum(cbar)
            grid_vals.append(int(gprime.values[X.ordinal(pt)]))
        h_free = interpolate_grid(field, variety.n - 1, grid_vals)
        if h_free.degree() > a:
            raise VerificationError(
                f"component restriction to the zero-sum subspace has degree "
                f"{h_free.degree()} > a = {a}"
            )
        # extend to one variable per block by ignoring the last block
        h = MultiPoly(field, variety.n, {m + (0,): c for m, c in h_free.terms.items()})

        Pprime = build_P_from_h(variety, h, theta_plus, a)
        residual = gprime.subtract_poly(Pprime)
        for s, ordinals in strata.items():
            if residual.values[ordinals].any():
                raise VerificationError(
                    f"component residual does not vanish on stratum {s} "
                    f"for character {theta.exponents}"
                )
        Ptheta = permute_poly_blockwise(variety, Pprime, invert_gamma(gamma))
        back = comp.subtract_poly(Ptheta)
        if not back.is_zero():
            raise VerificationError("component reconstruction failed after permuting back")
        pieces.append(PipelineComponent(theta, gamma, h, Ptheta))
        total = total + Ptheta

    if not f.subtract_poly(total).is_zero():
        raise VerificationError("summed components do not reproduce the function")

    assembled_degree = total.degree()
    reduction_nontrivial = assembled_degree > a
    final = total
    if reduction_nontrivial:
        solved = extend_by_solve(f, a, budget)
        if not solved.feasible:
            raise VerificationError(
                "assembled polynomial exceeds degree a and no degree-a "
                "extension exists; the star property fails on this instance"
            )
        final = solved.poly
    return ExplicitExtensionResult(final, pieces, assembled_degree, reduction_nontrivial)
