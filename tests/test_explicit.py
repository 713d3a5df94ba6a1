import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from rankforge import MultiPoly, PrimeField, VerificationError
from rankforge.errors import InputError, NotAdmissibleError
from rankforge.explicit import (
    ExplicitVariety,
    ProductTorus,
    TorusCharacter,
    act_gamma_point,
    base_stratum_orbit_check,
    build_P_from_h,
    defect,
    explicit_extension,
    gamma_permutation,
    invert_gamma,
    mu_bias,
    nc_rank_growth_check,
    permute_poly_blockwise,
    stratify,
    torus_decompose,
    torus_factor,
)
from rankforge.weakpoly import FunctionOnX, extend_by_solve, weak_space

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


def poly_of(field, n, terms):
    return MultiPoly.from_terms(field, n, terms)


def test_build_examples():
    assert ExplicitVariety(2, 2, F3).polynomial() == poly_of(
        F3, 4, [(1, (1, 1, 0, 0)), (1, (0, 0, 1, 1))]
    )
    assert ExplicitVariety(3, 1, F7).polynomial() == poly_of(F7, 3, [(1, (1, 1, 1))])
    P = ExplicitVariety(2, 3, F5).polynomial()
    assert P.n == 6 and len(P.terms) == 3


def test_mu_bias_values():
    assert mu_bias(2, F2).magnitude_exact() == Fraction(1, 2)
    assert mu_bias(1, F5).mag_sq == 0
    # 9-point oracle for d=2 over F_3: 5 zeros, 2 ones, 2 twos
    counts = [0, 0, 0]
    for x in range(3):
        for y in range(3):
            counts[(x * y) % 3] += 1
    mag = mu_bias(2, F3)
    assert list(mag.histogram.counts) == counts
    assert mag.mag_sq == Fraction((5 - 2) ** 2, 81)


def test_growth_table():
    rows = nc_rank_growth_check(2, F2, [1, 2])
    assert rows[0].restricted_value == Fraction(1, 2)
    assert rows[0].full_value == Fraction(1, 4)
    assert rows[1].restricted_value == Fraction(1, 4)
    assert all(r.consistent for r in rows)
    rows3 = nc_rank_growth_check(2, F3, [1, 2])
    assert all(r.consistent for r in rows3)
    # degree-1 blocks: the product form is linear and perfectly unbiased
    rows1 = nc_rank_growth_check(1, F5, [1, 2])
    assert all(r.restricted_value == 0 for r in rows1)


def test_embed_and_block_products():
    xn = ExplicitVariety(2, 2, F7)
    pt = xn.embed_zero_sum((0, 0))
    assert pt == (0, 1, 0, 1)
    pt = xn.embed_zero_sum((1, 6))
    assert xn.block_products(pt) == (1, 6)
    with pytest.raises(InputError):
        xn.embed_zero_sum((1, 1))
    # every zero-sum tuple lands on the variety
    for cbar in xn.zero_sum_grid():
        assert xn.polynomial().eval(xn.embed_zero_sum(cbar)) == 0


def test_block_products_random_recompute():
    xn = ExplicitVariety(3, 2, F7)
    rng = random.Random(0)
    for _ in range(20):
        v = tuple(rng.randrange(7) for _ in range(6))
        nu = xn.block_products(v)
        assert nu == (v[0] * v[1] * v[2] % 7, v[3] * v[4] * v[5] % 7)


def test_torus_admissibility_requirements():
    xn = ExplicitVariety(2, 2, F7)
    with pytest.raises(NotAdmissibleError):
        ProductTorus(xn, F7.delta_subgroup(2), a=1)  # m = 2 <= a*d
    torus = ProductTorus(xn, F7.delta_subgroup(3), a=1)
    assert torus.t1_size == 3
    for tup in torus.t1:
        prod = 1
        for v in tup:
            prod = prod * v % 7
        assert prod == 1


def test_character_alpha_and_admissibility():
    big = PrimeField(29)
    xn = ExplicitVariety(2, 1, big)
    torus = ProductTorus(xn, big.delta_subgroup(7), a=2)
    chi = TorusCharacter(torus, ((0, 4),))
    assert chi.alpha(0, 0, 1) == 3  # rep of -4 mod 7 in (-7/2, 7/2]
    assert not chi.is_admissible(2)
    trivial = TorusCharacter(torus, ((0, 0),))
    assert trivial.is_admissible(2) and trivial.is_plus(2)


def test_plus_normalization_witness():
    xn = ExplicitVariety(2, 2, F7)
    torus = ProductTorus(xn, F7.delta_subgroup(3), a=1)
    for theta in torus.characters():
        if not theta.is_admissible(1):
            continue
        gamma = theta.permutation_to_plus(1)
        moved = theta.compose_block_permutations(gamma)
        assert moved.is_plus(1)
        # recompute alpha after the permutation: all pairwise offsets descend
        for i in range(2):
            for j in range(2):
                for jp in range(j + 1, 2):
                    assert moved.alpha(i, j, jp) <= 0


def test_gamma_action_consistency():
    # the character composition law matches the point action numerically
    xn = ExplicitVariety(2, 2, F7)
    torus = ProductTorus(xn, F7.delta_subgroup(3), a=1)
    rng = random.Random(5)
    thetas = list(torus.characters())
    for _ in range(10):
        theta = thetas[rng.randrange(len(thetas))]
        gamma = tuple(tuple(rng.sample(range(2), 2)) for _ in range(2))
        comp = theta.compose_block_permutations(gamma)
        for t_idx in torus.elements():
            moved = tuple(
                torus.t1.index(
                    tuple(torus.t1[ti][sigma[j]] for j in range(2))
                )
                for ti, sigma in zip(t_idx, gamma)
            )
            assert comp.value(t_idx) == theta.value(moved)


@pytest.mark.parametrize("d, n, m, a", [(2, 2, 3, 1), (2, 1, 3, 1), (2, 1, 6, 2), (3, 1, 6, 1)])
def test_point_array_permutations_match_the_point_actions(d, n, m, a):
    xn = ExplicitVariety(d, n, F7)
    torus = ProductTorus(xn, F7.delta_subgroup(m), a=a)
    X = xn.points()
    for t_idx in torus.elements():
        want = [X.ordinal(torus.act_point(t_idx, pt)) for pt in X.points]
        assert torus.permutation(t_idx, X).tolist() == want
    for gamma in itertools.product(itertools.permutations(range(d)), repeat=n):
        want = [X.ordinal(act_gamma_point(xn, gamma, pt)) for pt in X.points]
        assert gamma_permutation(xn, gamma, X).tolist() == want


def test_torus_decompose_reconstruction_and_equivariance():
    xn = ExplicitVariety(2, 2, F7)
    torus = ProductTorus(xn, F7.delta_subgroup(3), a=1)
    X = xn.points()
    rng = np.random.RandomState(1)
    f = FunctionOnX(X, rng.randint(0, 7, len(X)))
    comps = torus_decompose(torus, f)
    total = np.zeros(len(X), dtype=np.int64)
    for theta, g in comps.items():
        total = (total + g.values) % 7
        if g.is_zero():
            continue
        for t_idx in torus.elements():
            perm = np.array([X.ordinal(torus.act_point(t_idx, pt)) for pt in X.points])
            assert np.array_equal(g.values[perm], (theta.value(t_idx) * g.values) % 7)
    assert np.array_equal(total, f.values)


def test_torus_decompose_constant_and_equivariant_monomial():
    xn = ExplicitVariety(2, 1, F7)
    torus = ProductTorus(xn, F7.delta_subgroup(3), a=1)
    X = xn.points()
    const = FunctionOnX(X, np.full(len(X), 4, dtype=np.int64))
    comps = torus_decompose(torus, const)
    nonzero = [th for th, g in comps.items() if not g.is_zero()]
    assert len(nonzero) == 1
    assert nonzero[0].exponents == ((0, 0),)
    # a T-equivariant monomial restriction concentrates on one character
    mono = MultiPoly.variable(F7, 2, 1)
    comps = torus_decompose(torus, FunctionOnX.from_poly(X, mono))
    nonzero = [th for th, g in comps.items() if not g.is_zero()]
    assert len(nonzero) == 1


def test_stratification_and_base_orbit():
    xn = ExplicitVariety(2, 2, F7)
    delta = F7.delta_subgroup(3)
    X = xn.points()
    strata = stratify(xn, delta, X)
    assert sum(len(v) for v in strata.values()) == len(X)
    assert base_stratum_orbit_check(xn, delta, X)
    # defect examples: an embedded point has defect 0; a block with two
    # off-subgroup coordinates contributes 1
    assert defect(xn, delta, xn.embed_zero_sum((1, 6))) == 0
    assert defect(xn, delta, (3, 5, 1, 1)) == 1  # 3,5 not in {1,2,4}


def test_torus_factor_roundtrip():
    xn = ExplicitVariety(2, 2, F7)
    torus = ProductTorus(xn, F7.delta_subgroup(3), a=1)
    X = xn.points()
    delta = torus.delta
    for pt in X.points:
        if all(pt[xn.var(i, j)] in delta for i in range(2) for j in range(1, 2)):
            t_idx = torus_factor(xn, torus, pt)
            base = xn.embed_zero_sum(
                tuple(xn.block_products(pt))
            ) if sum(xn.block_products(pt)) % 7 == 0 else None
            assert len(t_idx) == 2


def test_build_P_from_h_examples():
    xn = ExplicitVariety(2, 2, F7)
    torus = ProductTorus(xn, F7.delta_subgroup(3), a=1)
    trivial = TorusCharacter(torus, ((0, 0), (0, 0)))
    h = poly_of(F7, 2, [(1, (1, 0)), (3, (0, 0))])
    P = build_P_from_h(xn, h, trivial, 1)
    # trivial character: P = h of the block products, degree <= a*d
    assert P == poly_of(F7, 4, [(1, (1, 1, 0, 0)), (3, (0, 0, 0, 0))])
    assert build_P_from_h(xn, MultiPoly.zero(F7, 2), trivial, 1).is_zero()
    # nontrivial character: the degree bound forces h to be constant, and the
    # assembled polynomial transforms by exactly theta
    theta = TorusCharacter(torus, ((0, 1), (0, 0)))
    assert theta.is_plus(1)
    Pv = build_P_from_h(xn, MultiPoly.constant(F7, 2, 3), theta, 1)
    for t_idx in torus.elements():
        for cbar in ((0, 0), (1, 6), (2, 5)):
            x = xn.embed_zero_sum(cbar)
            tx = torus.act_point(t_idx, x)
            assert Pv.eval(tx) == theta.value(t_idx) * Pv.eval(x) % 7
    # pairing that character with a degree-1 h violates the bound and is
    # rejected (the "h too large" diagnostic)
    with pytest.raises(VerificationError):
        build_P_from_h(xn, h, theta, 1)


def test_permute_poly_blockwise_roundtrip():
    xn = ExplicitVariety(2, 2, F7)
    rng = random.Random(2)
    P = poly_of(F7, 4, [(2, (1, 1, 0, 0)), (3, (0, 1, 1, 0)), (1, (0, 0, 0, 1))])
    for _ in range(10):
        gamma = tuple(tuple(rng.sample(range(2), 2)) for _ in range(2))
        Q = permute_poly_blockwise(xn, P, gamma)
        for _ in range(10):
            x = tuple(rng.randrange(7) for _ in range(4))
            assert Q.eval(x) == P.eval(act_gamma_point(xn, gamma, x))
        back = permute_poly_blockwise(xn, Q, invert_gamma(gamma))
        assert back == P


def test_explicit_extension_linear_restrictions():
    xn = ExplicitVariety(2, 2, F7)
    torus = ProductTorus(xn, F7.delta_subgroup(3), a=1)
    X = xn.points()
    rng = random.Random(3)
    for _ in range(3):
        F0 = MultiPoly.from_terms(
            F7, 4, [(rng.randrange(7), tuple(e)) for e in itertools.product((0, 1), repeat=4) if sum(e) <= 1]
        )
        f = FunctionOnX.from_poly(X, F0)
        res = explicit_extension(xn, torus, f, 1)
        assert (FunctionOnX.from_poly(X, res.poly) - f).is_zero()
        assert res.poly.degree() <= 1


def test_explicit_extension_weak_basis_dual_path():
    xn = ExplicitVariety(2, 2, F7)
    torus = ProductTorus(xn, F7.delta_subgroup(3), a=1)
    X = xn.points()
    ws = weak_space(X, 1)
    for fb in ws.functions():
        res = explicit_extension(xn, torus, fb, 1)
        solved = extend_by_solve(fb, 1)
        assert solved.feasible
        assert np.array_equal(
            X.box.eval_poly(res.poly, X.indices), X.box.eval_poly(solved.poly, X.indices)
        )


def test_explicit_extension_degenerate_single_block():
    xn = ExplicitVariety(2, 1, F7)
    torus = ProductTorus(xn, F7.delta_subgroup(3), a=1)
    X = xn.points()
    ws = weak_space(X, 1)
    for fb in ws.functions():
        res = explicit_extension(xn, torus, fb, 1)
        assert (FunctionOnX.from_poly(X, res.poly) - fb).is_zero()


def test_explicit_extension_rejects_non_weakly_polynomial():
    # a synthetic function supported at one admissible-character component of
    # a non-polynomial shape: the pipeline must fail loudly, not fabricate
    xn = ExplicitVariety(2, 2, F7)
    torus = ProductTorus(xn, F7.delta_subgroup(3), a=1)
    X = xn.points()
    vals = np.zeros(len(X), dtype=np.int64)
    vals[X.ordinal((0, 1, 0, 1))] = 1  # indicator of a single point
    with pytest.raises(VerificationError):
        explicit_extension(xn, torus, FunctionOnX(X, vals), 1)


def test_explicit_extension_non_admissible_component_diagnostic():
    # inject a component at a non-admissible character: with m = 6 > a*d and
    # a = 1, characters with an offset of 2 or 3 are rejected by the filter,
    # and a function equal to such a character along the torus orbit of an
    # embedded point triggers the diagnostic
    xn = ExplicitVariety(2, 1, F7)
    torus = ProductTorus(xn, F7.delta_subgroup(6), a=2)
    X = xn.points()
    bad = None
    for theta in torus.characters():
        if not theta.is_admissible(2):
            bad = theta
            break
    assert bad is not None
    vals = np.zeros(len(X), dtype=np.int64)
    for t_idx in torus.elements():
        pt = torus.act_point(t_idx, (1, 1))  # embed_zero_sum((0,)) is (0,1); use (1,1): mu = 1 != 0
        # use a point on X instead: (0, y) has product 0
        pass
    # place theta-equivariant values on the orbit of (0, 1)
    seen = {}
    for t_idx in torus.elements():
        pt = torus.act_point(t_idx, (0, 1))
        seen[pt] = bad.value(t_idx)
    for pt, v in seen.items():
        vals[X.ordinal(pt)] = v
    with pytest.raises(VerificationError) as err:
        explicit_extension(xn, torus, FunctionOnX(X, vals), 2)
    assert "admissible" in str(err.value) or "stratum" in str(err.value) or "degree" in str(err.value)


def test_multiple_copies_configuration():
    # c > 1 builds one equation per disjoint coordinate copy; the extension
    # machinery runs at c = 1 only
    xn = ExplicitVariety(2, 2, F3, c=2)
    fam = xn.family()
    assert fam.c == 2 and xn.nvars == 8
    assert fam.polys[0] == poly_of(
        F3, 8, [(1, (1, 1, 0, 0, 0, 0, 0, 0)), (1, (0, 0, 1, 1, 0, 0, 0, 0))]
    )
    assert fam.polys[1] == poly_of(
        F3, 8, [(1, (0, 0, 0, 0, 1, 1, 0, 0)), (1, (0, 0, 0, 0, 0, 0, 1, 1))]
    )
    with pytest.raises(InputError):
        xn.block_products((0,) * 8)
