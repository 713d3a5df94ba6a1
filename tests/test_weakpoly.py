import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from rankforge import MultiPoly, PolyFamily, PrimeField, VerificationError, random_poly
from rankforge.catalog import counterexample_function, counterexample_variety
from rankforge.errors import InputError
from rankforge.explicit import ExplicitVariety
from rankforge.geometry import AffineSubspace, VarietyPoints, enumerate_points, enumerate_subspaces_in
from rankforge.linalg import check_dual_certificate, nullspace_mod, rank_mod, rref_mod
from rankforge.poly import monomials
from rankforge.weakpoly import (
    FunctionOnX,
    _forbidden_coefficient_rows,
    density_certificate,
    extend_by_slices,
    extend_by_solve,
    flag_extension,
    is_weakly_polynomial,
    restriction_space,
    slice_extension_step,
    star_check,
    local_testing_dimension,
    weak_space,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


def poly_of(field, n, terms):
    return MultiPoly.from_terms(field, n, terms)


def test_testing_dimension():
    assert local_testing_dimension(F5, 1) == 1
    assert local_testing_dimension(F2, 1) == 2
    assert local_testing_dimension(F7, 2) == 1
    assert local_testing_dimension(PrimeField(3), 2) == 2


def test_counterexample_is_weakly_linear():
    X = counterexample_variety()
    f = counterexample_function(X)
    ok, offending = is_weakly_polynomial(f, 1)
    assert ok and offending is None


def test_restriction_of_global_poly_is_weakly_polynomial():
    X = counterexample_variety()
    F0 = poly_of(F5, 2, [(2, (1, 0)), (3, (0, 1)), (1, (0, 0))])
    f = FunctionOnX.from_poly(X, F0)
    assert is_weakly_polynomial(f, 1)[0]


def test_point_indicator_not_weakly_linear():
    X = counterexample_variety()
    vals = np.zeros(len(X), dtype=np.int64)
    vals[X.ordinal((2, 2))] = 1
    ok, offending = is_weakly_polynomial(FunctionOnX(X, vals), 1)
    assert not ok and offending is not None
    # the offending line really fails degree-1 interpolation
    from rankforge.poly import interpolate

    pts = offending.points(X.box)
    f = FunctionOnX(X, vals)
    _, fits = interpolate(F5, 1, list(f.values_at_box_indices(pts)), 1)
    assert not fits


def test_weak_space_dims_counterexample():
    # independent oracle: a weakly linear function is determined by the value
    # at the origin and one slope per line, so the dimension is 4
    X = counterexample_variety()
    ws = weak_space(X, 1)
    assert ws.dim == 4
    handmade = []
    for c0, s1, s2, s3 in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)):
        vals = []
        for x, y in X.points:
            if x == y == 0:
                vals.append(c0)
            elif y == 0:
                vals.append((c0 + s1 * x) % 5)
            elif x == 0:
                vals.append((c0 + s2 * y) % 5)
            else:
                vals.append((c0 + s3 * x) % 5)
        handmade.append(vals)
    H = np.array(handmade, dtype=np.int64)
    assert rank_mod(H, 5) == 4
    for row in H:
        assert ws.contains_function(FunctionOnX(X, row))


def test_restriction_space_dims():
    X = counterexample_variety()
    rs = restriction_space(X, 1)
    assert rs.dim == 3
    single = VarietyPoints(PolyFamily([MultiPoly.variable(F5, 1, 0)]), [0])
    assert restriction_space(single, 1).dim == 1
    # large degree: every function on the full box is a reduced polynomial
    full = VarietyPoints(PolyFamily([MultiPoly.zero(F5, 1)]), list(range(5)))
    assert restriction_space(full, 4).dim == 5


def test_weak_space_full_space():
    full = VarietyPoints(PolyFamily([MultiPoly.zero(F5, 2)]), list(range(25)))
    assert weak_space(full, 1).dim == 3  # 1, x, y


def test_weak_space_empty_variety():
    empty = VarietyPoints(PolyFamily([MultiPoly.constant(F5, 2, 1)]), [])
    assert weak_space(empty, 1).dim == 0
    assert restriction_space(empty, 1).dim == 0


def test_star_check_counterexample():
    X = counterexample_variety()
    rep = star_check(X, 1)
    assert not rep.holds and rep.gap == 1
    assert (rep.weak_dim, rep.restriction_dim) == (4, 3)


def test_star_on_affine_subspace_variety():
    # a variety that is itself an affine subspace satisfies the property
    fam = PolyFamily([MultiPoly.variable(F5, 2, 0)])  # {x=0}
    X = enumerate_points(fam)
    for a in (1, 2, 3):
        assert star_check(X, a).holds


def test_restriction_always_inside_weak():
    for fam in (
        PolyFamily([poly_of(F5, 2, [(1, (2, 1)), (-1, (1, 2))])]),
        PolyFamily([poly_of(F7, 4, [(1, (1, 1, 0, 0)), (1, (0, 0, 1, 1))])]),
    ):
        X = enumerate_points(fam)
        for a in (1, 2):
            assert weak_space(X, a).contains_space(restriction_space(X, a))


def test_extend_by_solve_counterexample_infeasible():
    X = counterexample_variety()
    f = counterexample_function(X)
    res = extend_by_solve(f, 1)
    assert not res.feasible
    y = res.dual_certificate
    assert y is not None
    assert int(y @ f.values) % 5 != 0
    for mono in ((0, 0), (1, 0), (0, 1)):
        vals = FunctionOnX.from_poly(X, MultiPoly(F5, 2, {mono: 1})).values
        assert int(y @ vals) % 5 == 0


def test_extend_by_solve_checks_its_dual_certificate(corrupt_certificates):
    X = counterexample_variety()
    f = counterexample_function(X)
    with pytest.raises(VerificationError, match=corrupt_certificates):
        extend_by_solve(f, 1)


def test_extend_on_a_large_quadric_returns_a_checked_certificate():
    # x0^2 on {x0x1 + x2x3 + x4x5 + x6x7 = 0} in F_3^9 (6723 points) is no
    # restriction of a degree <= 1 polynomial; the certificate no longer
    # depends on the point count
    n = 9
    Q = poly_of(F3, n, [(1, tuple(int(i in (j, j + 1)) for i in range(n))) for j in (0, 2, 4, 6)])
    X = enumerate_points(PolyFamily([Q]))
    assert len(X) == 6723
    f = FunctionOnX.from_poly(X, MultiPoly.variable(F3, n, 0) * MultiPoly.variable(F3, n, 0))
    res = extend_by_solve(f, 1)
    assert not res.feasible
    A = X.box.monomial_matrix(monomials(n, 1, cap=2), X.indices)
    check_dual_certificate(A, f.values, res.dual_certificate, 3)


def test_extend_by_solve_feasible_and_reverified():
    X = counterexample_variety()
    F0 = poly_of(F5, 2, [(1, (1, 0)), (4, (0, 1))])
    f = FunctionOnX.from_poly(X, F0)
    res = extend_by_solve(f, 1)
    assert res.feasible
    assert (FunctionOnX.from_poly(X, res.poly) - f).is_zero()


def test_slice_extension_step_contracts():
    xn = ExplicitVariety(2, 2, F7)
    X = xn.points()
    # vanishes on the x1 = 0 slice by construction
    Fsrc = poly_of(F7, 4, [(1, (2, 0, 0, 0)), (1, (1, 1, 0, 0))])
    f = FunctionOnX.from_poly(X, Fsrc)
    Q = slice_extension_step(f, (1, 0, 0, 0), {0}, 1, 2)
    assert Q.degree() <= 2
    from rankforge.geometry import Hyperplane, slice_variety

    H = Hyperplane((1, 0, 0, 0), 0)
    X0 = slice_variety(X, H, {0})
    X1 = slice_variety(X, H, {1})
    assert FunctionOnX.from_poly(X0, Q).is_zero()
    assert (f.restrict_to(X1) - FunctionOnX.from_poly(X1, Q)).is_zero()


def test_slice_extension_step_degenerate_empty_cover():
    xn = ExplicitVariety(2, 2, F7)
    X = xn.points()
    F0 = poly_of(F7, 4, [(1, (1, 0, 0, 0))])
    f = FunctionOnX.from_poly(X, F0)
    Q = slice_extension_step(f, (1, 0, 0, 0), set(), 0, 1)
    from rankforge.geometry import Hyperplane, slice_variety

    X0 = slice_variety(X, Hyperplane((1, 0, 0, 0), 0), {0})
    assert (f.restrict_to(X0) - FunctionOnX.from_poly(X0, Q)).is_zero()


def test_slice_extension_step_zero_function():
    xn = ExplicitVariety(2, 2, F7)
    X = xn.points()
    f = FunctionOnX(X, np.zeros(len(X), dtype=np.int64))
    Q = slice_extension_step(f, (1, 0, 0, 0), {0}, 1, 2)
    assert Q.is_zero()


def test_extend_by_slices_pipeline_and_bookkeeping():
    xn = ExplicitVariety(2, 2, F7)
    X = xn.points()
    Fsrc = poly_of(F7, 4, [(1, (2, 0, 0, 0)), (1, (1, 1, 0, 0))])
    f = FunctionOnX.from_poly(X, Fsrc)
    F, log = extend_by_slices(f, (1, 0, 0, 0), 2, assume_zero_levels={0})
    assert (FunctionOnX.from_poly(X, F) - f).is_zero()
    assert F.degree() <= 2
    # measured inner degree at step i stays within a - |S| (counting the
    # assumed level), realizing the degree bookkeeping claim
    covered = 1
    for measured in log.inner_degrees:
        if measured >= 0:
            assert measured <= 2 - covered
        covered += 1


def test_extend_by_slices_zero_function():
    X = counterexample_variety()
    f = FunctionOnX(X, np.zeros(len(X), dtype=np.int64))
    F, _ = extend_by_slices(f, (1, 0), 1)
    assert F.is_zero()


def test_extend_by_slices_counterexample_fails_at_a_level():
    X = counterexample_variety()
    f = counterexample_function(X)
    with pytest.raises(VerificationError) as err:
        extend_by_slices(f, (1, 0), 1)
    assert "level" in str(err.value)


def test_slices_agree_with_solver_when_both_succeed():
    xn = ExplicitVariety(2, 2, F7)
    X = xn.points()
    rng = random.Random(8)
    for _ in range(5):
        F0 = MultiPoly.from_terms(
            F7,
            4,
            [(rng.randrange(7), (1, 0, 0, 0)), (rng.randrange(7), (0, 0, 1, 0)), (rng.randrange(7), (0, 0, 0, 0))],
        )
        f = FunctionOnX.from_poly(X, F0)
        F, _ = extend_by_slices(f, (1, 0, 0, 0), 1)
        solved = extend_by_solve(f, 1)
        assert solved.feasible
        assert (FunctionOnX.from_poly(X, F) - f).is_zero()
        assert np.array_equal(
            X.box.eval_poly(F, X.indices), X.box.eval_poly(solved.poly, X.indices)
        )


def test_flag_extension_codim_levels():
    xn = ExplicitVariety(2, 2, F5)
    X = xn.points()
    F0 = poly_of(F5, 4, [(1, (1, 0, 0, 0)), (2, (0, 0, 1, 0)), (3, (0, 0, 0, 0))])
    f = FunctionOnX.from_poly(X, F0)
    for dirs in (
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)],  # codim 1
        [(1, 0, 0, 0), (0, 1, 0, 0)],  # codim 2
    ):
        W = AffineSubspace.from_span(F5, (0, 0, 0, 0), dirs)
        F = flag_extension(f, W, 1)
        assert (FunctionOnX.from_poly(X, F) - f).is_zero()
        assert F.degree() <= 1


def test_flag_extension_codim2_on_three_blocks():
    xn = ExplicitVariety(2, 3, F5)
    X = xn.points()
    F0 = poly_of(F5, 6, [(1, (0, 1, 0, 0, 0, 0)), (3, (0, 0, 0, 0, 1, 0))])
    f = FunctionOnX.from_poly(X, F0)
    W = AffineSubspace.from_span(
        F5, (0,) * 6, [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0)]
    )
    F = flag_extension(f, W, 1)
    assert (FunctionOnX.from_poly(X, F) - f).is_zero()


def test_homogeneous_reduction_membership():
    # on a homogeneous variety, a degree <= 2 restriction that is weakly
    # polynomial of degree <= 1 already lies in the degree <= 1 restrictions
    for fam in (
        PolyFamily([poly_of(F7, 2, [(1, (1, 1))])]),
        PolyFamily([poly_of(F7, 4, [(1, (1, 1, 0, 0)), (1, (0, 0, 1, 1))])]),
    ):
        X = enumerate_points(fam)
        R2 = restriction_space(X, 2)
        W1 = weak_space(X, 1)
        R1 = restriction_space(X, 1)
        stacked = np.concatenate([R2.basis, W1.basis])
        # intersection via the left nullspace of the stacked basis
        left = nullspace_mod(stacked.T, 7)
        for combo in left:
            u = combo[: R2.dim]
            vec = (u @ R2.basis) % 7
            if vec.any():
                assert R1.contains_function(FunctionOnX(X, vec))


def test_density_certificate_statuses():
    A = list(range(8))
    B = {(x, y) for x in A for y in A}
    assert density_certificate(A, B, set(), Fraction(1), Fraction(0)).status == "empty-confirmed"
    big = density_certificate(A, B, set(A), Fraction(1), Fraction(0))
    assert big.status == "hypothesis-not-met"
    sparse = density_certificate(A, {(0, 1)}, set(), Fraction(1, 2), Fraction(0))
    assert sparse.status == "hypothesis-not-met"


def test_density_certificate_on_line_incidence():
    # lines of the explicit variety with the "span a common plane inside X"
    # incidence; the measured density feeds the counting self-check
    from rankforge.geometry import enumerate_subspaces_in

    F3 = PrimeField(3)
    fam = PolyFamily([poly_of(F3, 4, [(1, (1, 1, 0, 0)), (1, (0, 0, 1, 1))])])
    X = enumerate_points(fam)
    lines = enumerate_subspaces_in(X, 1)
    planes = enumerate_subspaces_in(X, 2)
    pairs = set()
    for M in planes:
        inside = [L for L in lines if M.contains_subspace(L)]
        for a in inside:
            for b in inside:
                pairs.add((a, b))
    beta_min = min(
        Fraction(sum(1 for b in lines if (a, b) in pairs), len(lines)) for a in lines
    )
    if beta_min > 0:
        verdict = density_certificate(lines, pairs, set(), beta_min, Fraction(0))
        assert verdict.status == "empty-confirmed"


def weak_space_one_shot(X, a):
    """weak_space as it was before its rows were streamed: one dense
    (forbidden rows x subspaces, |X|) matrix, then its nullspace."""
    p = X.field.p
    l = local_testing_dimension(X.field, a)
    subspaces = enumerate_subspaces_in(X, l)
    F, _ = _forbidden_coefficient_rows(X.field, l, a)
    if F.shape[0] == 0 or not subspaces:
        return np.eye(len(X), dtype=np.int64)
    rows = np.zeros((F.shape[0] * len(subspaces), len(X)), dtype=np.int64)
    r = 0
    for L in subspaces:
        ords = X.ordinals_of_indices(L.points(X.box))
        for frow in F:
            np.add.at(rows[r], ords, frow)
            r += 1
    rows %= p
    R, _, rank = rref_mod(nullspace_mod(rows, p), p)
    return R[:rank]


def random_varieties():
    rng = random.Random(17)
    cases = []
    F3 = PrimeField(3)
    shapes = ((F2, 4, 2, 1), (F2, 5, 3, 1), (F3, 4, 2, 1), (F3, 4, 2, 2), (F5, 3, 2, 1), (F5, 3, 2, 2), (F7, 3, 2, 1), (F7, 3, 2, 2))
    for field, n, d, a in shapes:
        found = 0
        while found < 3:  # three varieties holding subspaces of the testing dimension
            X = enumerate_points(PolyFamily([random_poly(field, n, d, rng)]))
            if enumerate_subspaces_in(X, local_testing_dimension(field, a)):
                cases.append(pytest.param(X, a, id=f"F{field.p}^{n}-d{d}-a{a}-{len(cases)}"))
                found += 1
    cases.append(pytest.param(ExplicitVariety(2, 2, F7).points(), 1, id="dual-path-F7^4"))
    return cases


@pytest.mark.parametrize("X, a", random_varieties())
def test_streamed_weak_space_equals_one_shot_nullspace(X, a):
    ws = weak_space(X, a)
    expect = weak_space_one_shot(X, a)
    assert ws.basis.dtype == expect.dtype and ws.basis.tobytes() == expect.tobytes()
    assert ws.basis.shape == expect.shape


def test_weak_space_memory_is_near_x_squared():
    # the F_7^4 variety of dual-path-extension: 832 lines, 4160 constraint
    # rows on 385 points; one dense matrix of them alone is 12.8 MB
    X = ExplicitVariety(2, 2, F7).points()
    tracemalloc.start()
    try:
        ws = weak_space(X, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ws.dim == 5
    assert peak < 10 * 2**20
