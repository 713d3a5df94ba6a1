import functools
import itertools
import random
import tracemalloc
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from rankforge import MultiPoly, PolyFamily, PrimeField, VerificationError, random_poly, weakpoly
from rankforge.catalog import counterexample_function, counterexample_variety, xn_variety
from rankforge.errors import BudgetExceededError, InputError
from rankforge.explicit import ExplicitVariety
from rankforge.geometry import VarietyPoints, enumerate_points, enumerate_subspaces_in
from rankforge.linalg import check_dual_certificate, matmul_mod, nullspace_mod, rank_mod, rref_mod
from rankforge.poly import monomials, vandermonde_inverse
from rankforge.runtime import Budget
from rankforge.weakpoly import (
    FunctionOnX,
    LinearSpaceOfFunctions,
    _flat_blocks,
    density_certificate,
    extend_by_slices,
    extend_by_solve,
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
        assert ws.contains_space(LinearSpaceOfFunctions(X, row[None, :]))


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
    F = extend_by_slices(f, (1, 0, 0, 0), 2)
    assert (FunctionOnX.from_poly(X, F) - f).is_zero()
    assert F.degree() <= 2


def test_extend_by_slices_solves_once_per_nonzero_level():
    # On x0 x1 + x2 x3 = 0 a function of degree <= 2 that vanishes on the
    # levels 0, 1, 2 of x0 vanishes on X, so a generic quadratic takes exactly
    # one solve on each of those levels and none after them.
    X = ExplicitVariety(2, 2, F7).points()
    f = FunctionOnX.from_poly(X, poly_of(F7, 4, [(1, (2, 0, 0, 0)), (3, (0, 1, 1, 0)), (1, (1, 0, 0, 1)), (2, (0, 0, 0, 0))]))
    levels = []

    def counted(g, a, budget=None):
        levels.append(sorted({int(v) for v in g.X.box.decode(g.X.indices)[:, 0]}))
        return extend_by_solve(g, a, budget)

    with patch("rankforge.weakpoly.extend_by_solve", counted):
        F = extend_by_slices(f, (1, 0, 0, 0), 2)
    assert levels == [[0], [1], [2]]
    assert (FunctionOnX.from_poly(X, F) - f).is_zero()


@pytest.mark.parametrize("l_coeffs", [(1, 0, 0, 0), (1, 1, 1, 1)])
def test_extend_by_slices_reads_the_functional_once_per_sweep(monkeypatch, l_coeffs):
    # a generic quadratic takes three steps, so reading l per slice would
    # take 7 level tests and 2 slices in each step: 13 reads
    from rankforge import geometry

    X = ExplicitVariety(2, 2, F7).points()
    f = FunctionOnX.from_poly(X, poly_of(F7, 4, [(1, (2, 0, 0, 0)), (3, (0, 1, 1, 0)), (1, (1, 0, 0, 1)), (2, (0, 0, 0, 0))]))
    reads = []

    def counted(bx, coeffs, indices):
        reads.append(tuple(coeffs))
        return functional(bx, coeffs, indices)

    functional = geometry._functional
    monkeypatch.setattr(geometry, "_functional", counted)
    F = extend_by_slices(f, l_coeffs, 2)
    assert reads == [l_coeffs]
    assert (FunctionOnX.from_poly(X, F) - f).is_zero()


def test_extend_by_slices_zero_function():
    X = counterexample_variety()
    f = FunctionOnX(X, np.zeros(len(X), dtype=np.int64))
    F = extend_by_slices(f, (1, 0), 1)
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
        F = extend_by_slices(f, (1, 0, 0, 0), 1)
        solved = extend_by_solve(f, 1)
        assert solved.feasible
        assert (FunctionOnX.from_poly(X, F) - f).is_zero()
        assert np.array_equal(
            X.box.eval_poly(F, X.indices), X.box.eval_poly(solved.poly, X.indices)
        )


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
                assert R1.contains_space(LinearSpaceOfFunctions(X, vec[None, :]))


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


def kronecker_constraint_rows(field, l, a):
    """The constraint rows of an l-flat as they were built before they were
    read off B: one row per exponent e of degree > a, in itertools.product
    order, extracting the coefficient of t^e in the interpolation of the
    values on the p^l grid points (row-major parameter order), as the
    Kronecker product of rows of the inverse Vandermonde matrix."""
    p = field.p
    Vinv = vandermonde_inverse(field)
    rows = []
    for e in itertools.product(range(p), repeat=l):
        if sum(e) > a:
            row = np.ones(1, dtype=np.int64)
            for ei in e:
                row = np.kron(row, Vinv[ei]) % p
            rows.append(row)
    if rows:
        return np.stack(rows)
    return np.zeros((0, p**l), dtype=np.int64)


def test_constraint_rows_span_the_kronecker_rows(monkeypatch):
    # F, the nullspace of B, and the Kronecker rows span one space, for every
    # a with p^l <= 2000; with B planted at degree <= a + 1, F misses the rows
    # of the exponents of degree a + 1, and the comparison sees it
    def rref(F, p):
        R, _, rank = rref_mod(F, p)
        return R[:rank].tobytes(), F.shape

    def constraint_rows(X, a):
        return _flat_blocks(X, a, None)[1]

    for p in (2, 3, 5, 7):
        field = PrimeField(p)
        X = enumerate_points(PolyFamily([MultiPoly.zero(field, 1)]))  # all of F_p
        reachable = itertools.takewhile(lambda a: p ** local_testing_dimension(field, a) <= 2000, itertools.count())
        for a in reachable:
            expect = rref(kronecker_constraint_rows(field, local_testing_dimension(field, a), a), p)
            assert rref(constraint_rows(X, a), p) == expect
            with monkeypatch.context() as planted:
                planted.setattr(weakpoly, "monomials", lambda n, d, cap: monomials(n, d + 1, cap=cap))
                assert rref(constraint_rows(X, a), p) != expect


def weak_space_one_shot(X, a):
    """weak_space as it was before its rows were streamed: one dense
    (forbidden rows x subspaces, |X|) matrix, then its nullspace."""
    p = X.field.p
    l = local_testing_dimension(X.field, a)
    subspaces = enumerate_subspaces_in(X, l)
    F = kronecker_constraint_rows(X.field, l, a)
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


def weak_space_shrinking_kernel(X, a):
    """weak_space as it was before propagation: only a basis K (|X| x k, as
    columns) of the functions meeting every block of flats so far is kept.
    The first block's nullspace gives K; a later block meets f = K c iff
    F K[L] c = 0 for each of its flats L, so with N the nullspace of those
    blocks stacked, K becomes K N^T.  The RREF of K's columns is returned."""
    p, nX = X.field.p, len(X)
    _, F, _, blocks = _flat_blocks(X, a, None)
    K = None
    for _, ords in blocks:
        if K is None:
            rows = np.zeros((len(F) * len(ords), nX), dtype=np.int64)
            for j, o in enumerate(ords):
                rows[j * len(F) : (j + 1) * len(F), o] = F
            K = nullspace_mod(rows, p).T
        else:
            C = matmul_mod(F, K[ords], p).reshape(-1, K.shape[1])
            K = matmul_mod(K, nullspace_mod(C, p).T, p)
    if K is None:
        return np.eye(nX, dtype=np.int64)
    R, _, rank = rref_mod(K.T, p)
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


# Beyond random_varieties(): on xn d=2, n=3 over F_3 (261 points), a = 3 has
# l = 2 and a stall (73 seeds, dim R = 71), and a = 4 has l = 3 and a gap
# (dim W = 141 > dim R = 140); the counterexample stalls, with a gap.
PROPAGATION_CASES = [
    pytest.param(xn_variety(2, 3, 3).points(), 3, id="xn-F3^6-a3-l2-stall"),
    pytest.param(xn_variety(2, 3, 3).points(), 4, id="xn-F3^6-a4-l3-gap"),
    pytest.param(counterexample_variety(), 1, id="counterexample-gap"),
]


# Varieties with points on no flat of the testing dimension: y (x^2 + y^2 - 1)
# over F_5 (a = 1) is the line y = 0 with (0, 1) and (0, 4), and the cubic
# over F_3^3 (a = 2, l = 2) has 7 of its 16 points on no plane inside it.
# Propagation runs out of open flats with such points still unknown; weak
# dimensions 4 and 13 above restriction dimensions 3 and 10.
OFF_FLAT_CASES = [
    pytest.param(
        enumerate_points(PolyFamily([poly_of(F5, 2, [(1, (2, 1)), (1, (0, 3)), (-1, (0, 1))])])), 1, id="F5^2-line-and-two-points"
    ),
    pytest.param(
        enumerate_points(
            PolyFamily(
                [
                    poly_of(
                        F3,
                        3,
                        [(1, (1, 0, 0)), (1, (1, 0, 1)), (1, (1, 1, 0)), (1, (1, 2, 0)), (1, (2, 0, 0)), (1, (2, 0, 1)), (2, (1, 0, 2)), (2, (2, 1, 0))],
                    )
                ]
            )
        ),
        2,
        id="F3^3-cubic-a2-l2",
    ),
]


@pytest.mark.parametrize("X, a", random_varieties() + PROPAGATION_CASES + OFF_FLAT_CASES)
def test_propagated_weak_space_equals_the_shrinking_kernel(X, a):
    ws = weak_space(X, a)
    expect = weak_space_shrinking_kernel(X, a)
    assert ws.basis.dtype == expect.dtype and ws.basis.shape == expect.shape
    assert ws.basis.tobytes() == expect.tobytes()


class _Recorded(Budget):
    """The default budget, recording what each charge is for."""

    def __init__(self):
        super().__init__()
        self.charged: list[str] = []

    def charge(self, estimate, what=""):
        self.charged.append(what)
        super().charge(estimate, what)


@pytest.mark.parametrize(
    "X, a, stalls",
    [
        pytest.param(ExplicitVariety(2, 2, F7).points(), 1, False, id="F7^4-a1"),
        pytest.param(xn_variety(2, 3, 5).points(), 1, False, id="xn-F5^6-a1"),
        pytest.param(xn_variety(2, 3, 3).points(), 3, True, id="xn-F3^6-a3-l2"),
        pytest.param(counterexample_variety(), 1, True, id="counterexample"),
    ],
)
def test_constraints_are_read_only_after_a_stall(X, a, stalls):
    # with no stall, |S| = dim R seeds certify W = R
    budget = _Recorded()
    ws = weak_space(X, a, budget)
    assert ("weak space constraints" in budget.charged) == stalls
    assert (ws.dim > restriction_space(X, a).dim) <= stalls


def test_propagation_is_charged_for_the_fills_it_does():
    # xn d=2, n=2 over F_7 with a = 2: 385 points, 832 lines, 14 seeds and no
    # stall.  No charge here exceeds 75,460 (the basis); charging every open
    # line's 7 points for every seed would ask (385 + 832 * 7) * 14 = 86,926
    X = xn_variety(2, 2, 7).points()
    assert weak_space(X, 2, Budget(80_000)).dim == 14


class _Refusing(Budget):
    """Refuses the first charge for `what`."""

    def __init__(self, what: str):
        super().__init__()
        self.what = what

    def charge(self, estimate, what=""):
        if what == self.what:
            raise BudgetExceededError(int(estimate), 0, what)
        super().charge(estimate, what)


@pytest.mark.parametrize(
    "stage, what",
    [("_propagate", "weak space propagation"), ("_constraint_nullspace", "weak space constraints"), ("_basis", "weak space basis")],
)
def test_each_stage_refuses_before_it_builds_its_arrays(monkeypatch, stage, what):
    # xn d=2, n=3 over F_3 with a = 3 stalls, so all three stages run; the
    # memory a stage holds above what it was handed, at its peak, is measured
    # once when it runs and once when its charge refuses
    X = xn_variety(2, 3, 3).points()
    run, grown = getattr(weakpoly, stage), []

    def measured(*args):
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            return run(*args)
        finally:
            grown.append(tracemalloc.get_traced_memory()[1] - held)

    monkeypatch.setattr(weakpoly, stage, measured)
    tracemalloc.start()
    try:
        weak_space(X, 3)
        with pytest.raises(BudgetExceededError, match=what):
            weak_space(X, 3, _Refusing(what))
    finally:
        tracemalloc.stop()
    ran, refused = grown
    assert refused < 2**12 and ran > 2**16


def test_propagated_weak_space_holds_no_x_by_x_array():
    # the F_7^4 variety of dual-path-extension: 385 points, 832 lines, 5
    # seeds and no stall.  The peak measured 0.22 MB (numpy 2.4, Python
    # 3.11); the bound adds 0.28 MB of margin and stays below one 385 x 385
    # int64 array (1.13 MB).  The shrinking kernel peaked at 3.9 MB.
    X = ExplicitVariety(2, 2, F7).points()
    tracemalloc.start()
    try:
        ws = weak_space(X, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ws.dim == 5
    assert peak < 2**19


@functools.cache
def brute_force_flats(p, n, m):
    """Every m-dimensional affine subspace of F_p^n, each once, as its points
    in parameter order (t_1..t_m row-major, point base + sum t_j d_j).
    Direction spaces are grown one vector at a time and named by their point
    sets; each is then cut into its cosets."""
    vectors = list(itertools.product(range(p), repeat=n))
    spans = {frozenset([(0,) * n]): ()}
    for _ in range(m):
        grown = {}
        for D, dirs in spans.items():
            reached = set(D)
            for v in vectors:
                if v not in reached:
                    E = frozenset(tuple((u[i] + c * v[i]) % p for i in range(n)) for u in D for c in range(p))
                    reached |= E
                    grown.setdefault(E, dirs + (v,))
        spans = grown
    flats = []
    for dirs in spans.values():
        covered = set()
        for base in vectors:
            if base not in covered:
                pts = [
                    tuple((base[i] + sum(t[j] * dirs[j][i] for j in range(m))) % p for i in range(n))
                    for t in itertools.product(range(p), repeat=m)
                ]
                covered.update(pts)
                flats.append(pts)
    return flats


def weak_space_by_definition(X, a):
    """The functions on X whose restriction to every affine subspace inside X,
    of every dimension, has no monomial of degree > a: each restriction is
    interpolated by the inverse of the Vandermonde matrix (t^e), and the
    nullspace of the stacked coefficient rows is taken over GF(p) by sympy.
    Returned as its RREF basis."""
    p, n = X.field.p, X.n
    K = GF(p)
    vandermonde = DomainMatrix([[K(pow(t, e, p)) for e in range(p)] for t in range(p)], (p, p), K)
    inverse = np.array([[int(c) % p for c in row] for row in vandermonde.inv().to_list()], dtype=np.int64)
    ordinal = {point: i for i, point in enumerate(X.points)}
    rows = []
    for m in range(1, n + 1):
        coefficients = functools.reduce(lambda A, B: np.kron(A, B) % p, [inverse] * m)
        high = [i for i, e in enumerate(itertools.product(range(p), repeat=m)) if sum(e) > a]
        for points in brute_force_flats(p, n, m):
            if all(pt in ordinal for pt in points):
                for i in high:
                    row = [0] * len(X)
                    for pt, c in zip(points, coefficients[i]):
                        row[ordinal[pt]] = (row[ordinal[pt]] + int(c)) % p
                    rows.append(row)
    if not rows:
        return np.eye(len(X), dtype=np.int64)
    R, pivots = DomainMatrix([[K(v) for v in row] for row in rows], (len(rows), len(X)), K).nullspace().rref()
    return np.array([[int(c) % p for c in row] for row in R.to_list()[: len(pivots)]], dtype=np.int64).reshape(len(pivots), len(X))


RANDOM_VARIETIES = {param.id: param.values for param in random_varieties()}


@pytest.mark.parametrize(
    "X, a",
    [
        pytest.param(counterexample_variety(), 1, id="counterexample-gap"),
        pytest.param(xn_variety(2, 2, 3).points(), 2, id="xn-F3^4-a2-l2"),
        pytest.param(*RANDOM_VARIETIES["F3^4-d2-a2-11"], id="F3^4-a2-l2-gap"),
        pytest.param(*RANDOM_VARIETIES["F5^3-d2-a1-12"], id="F5^3-a1-gap"),
        pytest.param(*RANDOM_VARIETIES["F7^3-d2-a1-18"], id="F7^3-a1-gap"),
    ]
    + OFF_FLAT_CASES,
)
def test_weak_space_equals_its_definition(X, a):
    # weak dimensions 4, 14, 15, 7, 9, 4 and 13 on 13, 33, 27, 25, 49, 7 and
    # 16 points
    expect = weak_space_by_definition(X, a)
    assert 0 < len(expect) < len(X)
    assert weak_space(X, a).basis.tobytes() == expect.tobytes()


def test_brute_force_flats_are_every_affine_subspace():
    # (p^n - 1)/(p - 1) directions times p^(n-1) cosets for lines; the 130
    # planes through 0 in F_3^4 have 9 cosets each
    assert len(brute_force_flats(5, 2, 1)) == 30
    assert len(brute_force_flats(3, 4, 2)) == 130 * 9
    assert all(len(set(points)) == 9 for points in brute_force_flats(3, 4, 2))


def first_offending_by_subspace_loop(f, a):
    """is_weakly_polynomial as a loop over the listed subspaces of the testing
    dimension, one object at a time: the verdict and the first subspace whose
    restriction has a coefficient of degree > a."""
    X = f.X
    l = local_testing_dimension(X.field, a)
    F = kronecker_constraint_rows(X.field, l, a)
    for L in enumerate_subspaces_in(X, l):
        vals = f.values_at_box_indices(L.points(X.box))
        if F.shape[0] and ((F @ vals) % X.field.p).any():
            return False, L
    return True, None


@pytest.mark.parametrize("X, a", random_varieties())
def test_offending_subspace_is_the_first_of_the_subspace_loop(X, a):
    # functions that fail on the first subspace or far into the order (one
    # nonzero value), that fail on some subspaces only (a polynomial of
    # degree a + 1), and that pass (a polynomial of degree a)
    field, p = X.field, X.field.p
    rng = random.Random(len(X))
    functions = [FunctionOnX(X, [rng.randrange(p) for _ in range(len(X))])]
    for i in (len(X) - 1, len(X) // 2, rng.randrange(len(X))):
        spike = np.zeros(len(X), dtype=np.int64)
        spike[i] = 1 + rng.randrange(p - 1)
        functions.append(FunctionOnX(X, spike))
    for d in (a + 1, a):
        functions.append(FunctionOnX.from_poly(X, random_poly(field, X.n, d, rng)))
    for f in functions:
        assert is_weakly_polynomial(f, a) == first_offending_by_subspace_loop(f, a)


def test_restriction_to_points_off_the_variety_is_an_input_error():
    zero = PolyFamily([MultiPoly.zero(PrimeField(3), 2)])
    f = FunctionOnX(VarietyPoints(zero, [0, 4]), [1, 2])
    for indices in ([4, 8], [5], [0, 4, 8]):
        with pytest.raises(InputError):
            f.restrict_to(VarietyPoints(zero, indices))
