import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rankforge import Budget, BudgetExceededError, MultiPoly, PolyFamily, PrimeField, random_poly, restrict
from rankforge.domain import Box, box
from rankforge.errors import InputError
from rankforge import geometry
from rankforge.explicit import ExplicitVariety
from rankforge.geometry import (
    AffineSubspace,
    _functional,
    Hyperplane,
    VarietyPoints,
    census_extension,
    count_affine_subspaces,
    enumerate_points,
    enumerate_subspaces_in,
    kappa_fibers,
    missed_targets,
    slice_variety,
    subspace_flats,
    universality_check,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def poly_of(field, n, terms):
    return MultiPoly.from_terms(field, n, terms)


def xy_f3():
    return PolyFamily([poly_of(F3, 2, [(1, (1, 1))])])


def quadric_f3():
    return PolyFamily([poly_of(F3, 4, [(1, (1, 1, 0, 0)), (1, (0, 0, 1, 1))])])


def test_enumerate_points_examples():
    assert len(enumerate_points(xy_f3())) == 5
    X1 = enumerate_points(PolyFamily([MultiPoly.variable(F5, 1, 0)]))
    assert X1.points == ((0,),)
    incons = PolyFamily(
        [MultiPoly.variable(F2, 1, 0), poly_of(F2, 1, [(1, (1,)), (1, (0,))])]
    )
    assert len(enumerate_points(incons)) == 0


@pytest.mark.parametrize("indices", [[2, 1], [0, 3, 3]], ids=["unsorted", "repeated"])
def test_variety_points_refuse_indices_out_of_order(indices):
    with pytest.raises(InputError):
        VarietyPoints(PolyFamily([MultiPoly.zero(F3, 2)]), indices)


def test_variety_indicator_is_built_on_first_use():
    X = enumerate_points(xy_f3())
    assert "indicator" not in vars(X)
    assert (0, 2) in X and (1, 1) not in X
    assert X.indicator.sum() == len(X)


def test_points_complete_and_sorted():
    X = enumerate_points(quadric_f3())
    # completeness: brute force over the box
    brute = [
        pt
        for pt in itertools.product(range(3), repeat=4)
        if (pt[0] * pt[1] + pt[2] * pt[3]) % 3 == 0
    ]
    assert list(X.points) == sorted(brute)


def test_lines_in_axes_variety():
    X = enumerate_points(xy_f3())
    lines = enumerate_subspaces_in(X, 1)
    assert len(lines) == 2
    assert AffineSubspace.from_span(F3, (0, 0), [(1, 0)]) in set(lines)
    assert AffineSubspace.from_span(F3, (0, 0), [(0, 1)]) in set(lines)


def test_full_dimension_subspace_empty():
    X = enumerate_points(xy_f3())
    assert enumerate_subspaces_in(X, 2) == []


def test_every_returned_subspace_lies_in_variety():
    X = enumerate_points(quadric_f3())
    for L in enumerate_subspaces_in(X, 1):
        assert X.indicator[L.points(X.box)].all()


def _rref_direction_bases(field, n, m):
    """Every m-dimensional linear subspace of k^n, one RREF basis each."""
    p = field.p
    if m == 0:
        yield np.zeros((0, n), dtype=np.int64), ()
        return
    for pivots in itertools.combinations(range(n), m):
        free_cells = [(i, j) for i in range(m) for j in range(n) if j > pivots[i] and j not in pivots]
        for fill in itertools.product(range(p), repeat=len(free_cells)):
            B = np.zeros((m, n), dtype=np.int64)
            for i, pc in enumerate(pivots):
                B[i, pc] = 1
            for (i, j), v in zip(free_cells, fill):
                B[i, j] = v
            yield B, pivots


def scan_subspaces_in(X, m, within=None):
    """The m-subspaces inside X (and within) by testing every canonical affine
    subspace of k^n, in scan order: pivot sets, then RREF fillings, then bases."""
    field, p, n, bx = X.field, X.field.p, X.n, X.box
    allowed = X.indicator if within is None else X.indicator & within.indicator(bx)
    if m == 0:
        return [AffineSubspace(field, bx.point_of(int(i)), ()) for i in np.nonzero(allowed)[0]]
    out = []
    params = np.array(list(itertools.product(range(p), repeat=m)), dtype=np.int64)
    for B, pivots in _rref_direction_bases(field, n, m):
        span = (params @ B) % p
        free_cols = [j for j in range(n) if j not in pivots]
        bases = np.zeros((p ** len(free_cols), n), dtype=np.int64)
        for r, vals in enumerate(itertools.product(range(p), repeat=len(free_cols))):
            bases[r, free_cols] = vals
        ok = allowed[bx.encode(bases[:, None, :] + span[None, :, :])].all(axis=1)
        for r in np.nonzero(ok)[0]:
            out.append(AffineSubspace(field, tuple(int(v) for v in bases[r]), tuple(tuple(int(v) for v in row) for row in B)))
    return out


@st.composite
def point_sets(draw):
    """(X, hyperplane or None, m): X a random point set of F_p^n, rich in flats
    (dense random subsets, unions of two hyperplanes, quadrics in fewer
    variables, unions of random flats) or poor in them (random quadrics, the
    empty set).  Shapes come
    from a drawn seed, so n, m and the kind of X are spread evenly."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    field = rng.choice((F2, F3, F5))
    n = rng.randint(0, 5 if field.p == 2 else 4)
    m = rng.randint(0, min(3, n + 1))  # m = n + 1 > n: nothing to find
    kinds = ("dense", "flats", "empty", "two hyperplanes", "low-rank quadric", "quadric")
    kind = rng.choice(kinds[:3] if n == 0 else kinds)
    zero = PolyFamily([MultiPoly.zero(field, n)])
    bx = box(field, n)
    if kind == "dense":
        keep = rng.choice((0.8, 0.95, 1.0))
        X = VarietyPoints(zero, [i for i in range(bx.size) if rng.random() < keep])
    elif kind == "flats":  # a few random flats and points
        flats = [
            AffineSubspace.from_span(field, [rng.randrange(field.p) for _ in range(n)], [[rng.randrange(field.p) for _ in range(n)] for _ in range(rng.randint(0, min(n, 3)))])
            for _ in range(rng.randint(1, 4))
        ]
        X = VarietyPoints(zero, np.unique(np.concatenate([F.points(bx) for F in flats] + [[rng.randrange(bx.size) for _ in range(3)]])))
    elif kind == "empty":
        X = VarietyPoints(zero, [])
    elif kind == "two hyperplanes":
        X = enumerate_points(PolyFamily([random_poly(field, n, 1, rng) * random_poly(field, n, 1, rng)]))
    elif kind == "low-rank quadric":
        k = rng.randint(1, n)
        Q = random_poly(field, k, 2, rng)
        X = enumerate_points(PolyFamily([MultiPoly(field, n, {e + (0,) * (n - k): c for e, c in Q.terms.items()})]))
    else:
        X = enumerate_points(PolyFamily([random_poly(field, n, 2, rng)]))
    coeffs = tuple(rng.randrange(field.p) for _ in range(n))
    within = Hyperplane(coeffs, rng.randrange(field.p)) if any(coeffs) and rng.random() < 0.5 else None
    return X, within, m


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(point_sets())
def test_growth_matches_scan(case):
    X, within, m = case
    assert enumerate_subspaces_in(X, m, within=within) == scan_subspaces_in(X, m, within)


@pytest.mark.parametrize(
    "X, m",
    [
        (VarietyPoints(PolyFamily([MultiPoly.zero(F3, 0)]), [0]), 0),  # n = 0: the one point
        (VarietyPoints(PolyFamily([MultiPoly.zero(F3, 0)]), [0]), 1),
        (VarietyPoints(PolyFamily([MultiPoly.zero(F3, 0)]), []), 0),
        (VarietyPoints(PolyFamily([MultiPoly.zero(F2, 3)]), range(8)), 3),  # all of k^n
        (VarietyPoints(PolyFamily([MultiPoly.zero(F2, 3)]), range(8)), 4),  # m > n
        (VarietyPoints(PolyFamily([MultiPoly.zero(F5, 2)]), []), 1),  # empty X
    ],
)
def test_growth_edges(X, m):
    found = enumerate_subspaces_in(X, m)
    assert found == scan_subspaces_in(X, m)
    assert len(found) == (count_affine_subspaces(X.field, X.n, m) if len(X) == X.box.size and m <= X.n else 0)


def test_negative_dimension_is_an_input_error():
    with pytest.raises(InputError):
        enumerate_subspaces_in(enumerate_points(xy_f3()), -1)


def _recording_budget(charges, limit=10**8):
    class Recording(Budget):
        def charge(self, estimate, what=""):
            charges.append(estimate)
            super().charge(estimate, what)

    return Recording(limit)


def test_growth_charges_each_level_before_building_it():
    # level 0 costs the box; level k costs, for every (k-1)-flat S' of X and
    # column c past its last pivot where S' is zero, each allowed point y that
    # agrees with the base of S' before c and is 1 at c (the row b = y - base)
    # times the p^k points of S' + span(b); the listed level 2 costs each
    # such pair again as a flat of 3 coordinate tuples, before it is built
    X = enumerate_points(quadric_f3())
    p, n = 3, X.n
    points = [X.box.point_of(int(i)) for i in X.indices]
    expected = [p**n]
    for k in (1, 2):
        pairs = 0
        for S in scan_subspaces_in(X, k - 1):
            last = S.basis[-1].index(1) if S.basis else -1
            for c in range(last + 1, n):
                if S.base[c] == 0 and all(row[c] == 0 for row in S.basis):
                    pairs += sum(1 for y in points if y[:c] == S.base[:c] and y[c] == 1)
        expected.append(pairs * p**k)
    expected.append(pairs * 3 * (n + 1))
    planes = scan_subspaces_in(X, 2)
    charges = []
    assert enumerate_subspaces_in(X, 2, budget=_recording_budget(charges)) == planes
    # then the list: each plane's 3 coordinate tuples, n + 1 words each
    assert charges == expected + [len(planes) * 3 * (n + 1)]
    with pytest.raises(BudgetExceededError):
        enumerate_subspaces_in(X, 2, budget=Budget(max(expected) - 1))


def test_growth_in_all_of_k_n_charges_every_level():
    # X = k^n: level k holds every k-flat of k^n, each made from one pair, so
    # reaching m = n charges every level below it, and the listed level 4
    # also as the 5 * 5 words of its one flat; m = n + 1 grows nothing
    full = VarietyPoints(PolyFamily([MultiPoly.zero(F3, 4)]), range(81))
    charges = []
    assert enumerate_subspaces_in(full, 4, budget=_recording_budget(charges)) == scan_subspaces_in(full, 4)
    assert charges == [81] + [count_affine_subspaces(F3, 4, k) * 3**k for k in range(1, 5)] + [5 * 5, 5 * 5]
    charges.clear()
    assert enumerate_subspaces_in(full, 5, budget=_recording_budget(charges)) == []
    assert census_extension(full, Hyperplane((1, 0, 0, 0), 0), 5, budget=_recording_budget(charges)).Z == ()
    assert charges == []
    # a level past the budget is refused before it is built
    with pytest.raises(BudgetExceededError):
        enumerate_subspaces_in(full, 4, budget=Budget(count_affine_subspaces(F3, 4, 2) * 9 - 1))


def test_subspace_list_is_charged_before_it_is_built():
    # the lines of F_3^4: growing them is charged 81 and 1080 * 3, listing
    # them 1080 * 2 * 5 words, once from the (parent, row) pairs before the
    # growth and once as the list; a budget between the two refuses the list
    full = VarietyPoints(PolyFamily([MultiPoly.zero(F3, 4)]), range(81))
    lines = count_affine_subspaces(F3, 4, 1)
    charges = []
    assert len(enumerate_subspaces_in(full, 1, budget=_recording_budget(charges))) == lines
    assert charges == [81, lines * 3, lines * 2 * 5, lines * 2 * 5]
    with pytest.raises(BudgetExceededError) as refusal:
        enumerate_subspaces_in(full, 1, budget=Budget(lines * 2 * 5 - 1))
    assert refusal.value.what == "subspace list"


def test_dense_subspace_list_is_refused_before_it_is_grown():
    # the 7.2 M lines of F_3^8 pass the growth charge (pairs * 3) but not
    # the list charge (pairs * 2 * 9), which comes before any line is built
    full = VarietyPoints(PolyFamily([MultiPoly.zero(F3, 8)]), range(3**8))
    lines = count_affine_subspaces(F3, 8, 1)
    charges = []
    with pytest.raises(BudgetExceededError) as refusal:
        enumerate_subspaces_in(full, 1, budget=_recording_budget(charges))
    assert refusal.value.what == "subspace list"
    assert charges == [3**8, lines * 3, lines * 2 * 9]


def test_line_count_in_full_space():
    full = VarietyPoints(PolyFamily([MultiPoly.zero(F3, 2)]), list(range(9)))
    lines = enumerate_subspaces_in(full, 1)
    assert len(lines) == count_affine_subspaces(F3, 2, 1) == 12


def test_canonicalization_random_reparameterizations():
    rng = random.Random(1)
    base = (1, 2, 3)
    dirs = [(1, 0, 2), (0, 1, 4)]
    L0 = AffineSubspace.from_span(F5, base, dirs)
    for _ in range(40):
        M = [[rng.randrange(5) for _ in range(2)] for _ in range(2)]
        det = (M[0][0] * M[1][1] - M[0][1] * M[1][0]) % 5
        if det == 0:
            continue
        nd = [
            tuple((M[r][0] * a + M[r][1] * b) % 5 for a, b in zip(*dirs))
            for r in range(2)
        ]
        s, t = rng.randrange(5), rng.randrange(5)
        nb = tuple((u + s * a + t * b) % 5 for u, a, b in zip(base, *dirs))
        assert AffineSubspace.from_span(F5, nb, nd) == L0


def test_slice_examples():
    X = enumerate_points(xy_f3())
    H = Hyperplane((1, 0), 0)
    assert len(slice_variety(X, H, {0})) == 3
    assert len(slice_variety(X, H, set(range(3)))) == len(X)
    assert len(slice_variety(X, H, set())) == 0


def test_slice_never_evaluates_the_whole_box(monkeypatch):
    # X on a box of 7^6 points: the functional is read on X's points only
    X = ExplicitVariety(2, 3, PrimeField(7)).points()
    eval_poly = Box.eval_poly

    def at_indices_only(self, P, indices=None):
        assert indices is not None, "whole-box evaluation"
        return eval_poly(self, P, indices)

    monkeypatch.setattr(Box, "eval_poly", at_indices_only)
    X03 = slice_variety(X, Hyperplane((1, 0, 0, 2, 0, 0), 0), {3, 7})
    coords = X.box.decode(X.indices)
    assert X03.indices.tolist() == X.indices[np.isin((coords[:, 0] + 2 * coords[:, 3]) % 7, [0, 3])].tolist()


def test_ordinals_of_indices_refuse_points_off_the_variety():
    zero = PolyFamily([MultiPoly.zero(F3, 2)])
    X = VarietyPoints(zero, [0, 4])
    assert X.ordinals_of_indices(np.array([[4, 0], [0, 4]])).tolist() == [[1, 0], [0, 1]]
    for idx in ([8], [5], [0, 8], [[0, 4], [4, 8]]):  # 8: past the last point
        with pytest.raises(InputError):
            X.ordinals_of_indices(np.array(idx))
    empty = VarietyPoints(zero, [])
    assert empty.ordinals_of_indices(np.zeros(0, dtype=np.int64)).tolist() == []
    with pytest.raises(InputError):
        empty.ordinals_of_indices(np.array([0]))


def test_census_explicit_family():
    X = enumerate_points(quadric_f3())
    W = Hyperplane((1, 0, 0, 0), 0)
    cen = census_extension(X, W, 1)
    assert cen.ratio is not None and 0 <= cen.ratio <= 1
    assert set(cen.Y) <= set(cen.Z)
    # spot re-verification: every member of Y really has no extension
    planes = enumerate_subspaces_in(X, 2)
    w_ind = W.indicator(X.box)
    for L in cen.Y:
        for M in planes:
            if w_ind[M.points(X.box)].all():
                continue
            assert not M.contains_subspace(L)


@pytest.mark.parametrize("indices, m", [([], 0), ([], 1), ([0, 1], 2)], ids=["empty X", "growth stops at 0", "growth stops at 1"])
def test_census_when_growth_stops_below_m(indices, m):
    X = VarietyPoints(PolyFamily([MultiPoly.zero(F3, 3)]), indices)
    cen = census_extension(X, Hyperplane((1, 0, 0), 0), m)
    assert cen.Z == cen.Y == () and cen.ratio is None


def test_census_charges_its_pairs_before_z_is_listed():
    # each line L of X in W = {x0 = 0} with each point y of X on x0 = 1 that
    # is zero at L's pivot, times the p^2 points of L + span(y - base): charged
    # after Z is grown and before Z is listed, so a budget just below it
    # refuses with no list charged
    X = enumerate_points(quadric_f3())
    W = Hyperplane((1, 0, 0, 0), 0)
    points = [X.box.point_of(int(i)) for i in X.indices]
    Z = scan_subspaces_in(X, 1, W)
    pairs = sum(1 for L in Z for y in points if y[0] == 1 and y[L.basis[0].index(1)] == 0)
    charges = []
    census_extension(X, W, 1, budget=_recording_budget(charges))
    assert charges[-2:] == [pairs * 9, len(Z) * 2 * 5]  # then Z's list: 2 tuples of n + 1 words a line
    grown = charges[:-2]
    assert max(grown) < pairs * 9 - 1
    charges.clear()
    with pytest.raises(BudgetExceededError) as refusal:
        census_extension(X, W, 1, budget=_recording_budget(charges, pairs * 9 - 1))
    assert refusal.value.what == "extension census"
    assert charges == grown + [pairs * 9]


def test_dense_census_is_refused_before_its_pairs_are_tested():
    # all of F_3^8, W = {x0 = 0}, m = 1: Z is the lines of W, grown inside W,
    # and each has 3^6 points y on x0 = 1 that are zero at its pivot; the
    # pairs are refused before any is tested or Z is listed
    full = VarietyPoints(PolyFamily([MultiPoly.zero(F3, 8)]), range(3**8))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError) as refusal:
            census_extension(full, Hyperplane((1,) + (0,) * 7, 0), 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert refusal.value.what == "extension census"
    assert refusal.value.estimate == count_affine_subspaces(F3, 7, 1) * 3**6 * 3**2
    assert peak < 64 * 2**20


def test_census_empty_Z_reported_as_undefined():
    # a variety with no lines at all in the slice
    fam = PolyFamily([poly_of(F3, 2, [(1, (2, 0)), (1, (0, 2))])])  # x^2+y^2: only origin
    X = enumerate_points(fam)
    cen = census_extension(X, Hyperplane((1, 0), 0), 1)
    assert cen.ratio is None or cen.ratio == Fraction(0, 1) if cen.Z else cen.ratio is None


def test_degenerate_census_has_unextendable_line():
    from rankforge.catalog import degenerate_census_family

    fam, wcoef = degenerate_census_family()
    X = enumerate_points(fam)
    cen = census_extension(X, Hyperplane(wcoef, 0), 1)
    diag = AffineSubspace.from_span(F3, (0, 0, 0, 0), [(1, 1, 1, 0)])
    assert diag in set(cen.Y)
    assert len(cen.Y) > 0


def test_kappa_linear_polynomial_uniform():
    stats = kappa_fibers(PolyFamily([MultiPoly.variable(F3, 2, 0)]), 1)
    assert stats.universal
    nmin, nmax = stats.min_max()
    assert nmin == nmax
    assert stats.mass() == 3 ** (2 * 2)


def test_kappa_explicit_family_all_targets():
    stats = kappa_fibers(quadric_f3(), 1)
    assert stats.total_targets == 27
    assert stats.universal
    assert stats.mass() == 3 ** (4 * 2)


def kappa_fibers_by_digit_table(family, m, linear_only=False):
    """The fiber keys as kappa_fibers computed them from the maps' digit table."""
    field, p, n = family.field, family.field.p, family.n
    ncols = m + (0 if linear_only else 1)
    total_maps = p ** (n * ncols)
    bx = box(field, n)
    vals = [bx.eval_poly(P) for P in family]
    mbox = box(field, m)
    D = Box(field, n * ncols).digits()  # a fresh box: nothing stays cached
    keys = np.zeros((total_maps, family.c * mbox.size), dtype=np.int64)
    for ti, t in enumerate(itertools.product(range(p), repeat=m)):
        tv = np.array(t + ((1,) if not linear_only else ()), dtype=np.int64)
        idx = bx.encode((D.reshape(total_maps, n, ncols) @ tv) % p)
        for ci in range(family.c):
            keys[:, ci * mbox.size + ti] = vals[ci][idx]
    fibers = {}
    for row in map(tuple, keys):
        fibers[row] = fibers.get(row, 0) + 1
    return fibers


@pytest.mark.parametrize(
    "family, m, linear_only",
    [
        (PolyFamily([ExplicitVariety(2, 2, F3).polynomial()]), 1, False),
        (PolyFamily([ExplicitVariety(2, 3, F3).polynomial()]), 1, False),
        (PolyFamily([ExplicitVariety(2, 2, F3).polynomial()]), 2, True),
        (PolyFamily([poly_of(F3, 2, [(1, (1, 1))]), poly_of(F3, 2, [(2, (2, 0))])]), 1, False),
        (PolyFamily([poly_of(F5, 2, [(1, (1, 1)), (3, (0, 0))])]), 0, False),
        (PolyFamily([poly_of(F2, 3, [(1, (1, 1, 1))])]), 0, True),
    ],
)
def test_kappa_fibers_match_digit_table_and_build_none(monkeypatch, family, m, linear_only):
    built = []
    digits = Box.digits

    def spy(bx):
        built.append(bx.n)
        return digits(bx)

    monkeypatch.setattr(Box, "digits", spy)
    stats = kappa_fibers(family, m, linear_only=linear_only)
    assert family.n * (m + (0 if linear_only else 1)) not in built
    expect = kappa_fibers_by_digit_table(family, m, linear_only)
    assert list(stats.fibers.items()) == list(expect.items())  # counts and first-seen order
    assert stats.mass() == stats.total_maps


def test_kappa_wide_keys_take_the_same_code_path(monkeypatch):
    # over F_3 with m = 1 a key has 3c digits: 3^39 < 2^63 <= 3^42, so 13
    # members take int64 codes and 14 (the 13 and a copy of the first) Python
    # int codes, sorted alike; the 14-member keys are the 13-member keys plus
    # the first member's 3 values, in the same first-seen order
    rng = random.Random(5)
    polys = [random_poly(F3, 2, 2, rng) for _ in range(13)]
    sorts = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: sorts.append(1) or unique(*a, **k))
    coded = kappa_fibers(PolyFamily(polys), 1)
    assert sorts == [1]
    wide = kappa_fibers(PolyFamily(polys + polys[:1]), 1)
    assert sorts == [1, 1]
    assert list(wide.fibers.items()) == [(key + key[:3], count) for key, count in coded.fibers.items()]
    assert list(coded.fibers.items()) == list(kappa_fibers_by_digit_table(PolyFamily(polys), 1).items())
    assert list(coded.fibers) != sorted(coded.fibers)  # first-seen order is not the sorted order here


def test_kappa_charges_every_member_of_the_family():
    # total_maps * c * p^m: the key (or code) work grows with the family size c
    fam = PolyFamily(list(quadric_f3().polys) * 2)
    need = 3 ** (4 * 2) * 2 * 3
    assert kappa_fibers(fam, 1, budget=Budget(need)).mass() == 3 ** (4 * 2)
    with pytest.raises(BudgetExceededError):
        kappa_fibers(fam, 1, budget=Budget(need - 1))


def test_kappa_homogeneous_linear_maps():
    stats = kappa_fibers(quadric_f3(), 1, linear_only=True)
    assert stats.mass() == 3**4
    # homogeneous targets are attained by linear maps
    attained_polys = {tuple(sorted(p.terms.items())) for (p,) in stats.target_polys.values()}
    sq = poly_of(F3, 1, [(1, (2,))])
    assert tuple(sorted(sq.terms.items())) in attained_polys


def test_universality_misses_for_rank_one():
    # rank-1 quadratic composed with affine maps misses some 2-variable
    # quadratic targets; cross-check the missed list against symbolic
    # composition over every affine map
    fam = PolyFamily([poly_of(F2, 2, [(1, (1, 1))])])
    ok, miss = universality_check(fam, 2)
    assert not ok and miss
    from rankforge.poly import AffineMap

    attained = set()
    for mat in itertools.product(range(2), repeat=4):
        for tr in itertools.product(range(2), repeat=2):
            phi = AffineMap.make(F2, [mat[:2], mat[2:]], tr)
            attained.add(restrict(fam.polys[0], phi).function_reduce())
    for (missed_poly,) in miss:
        assert missed_poly.function_reduce() not in attained


def test_universality_m0():
    fam = PolyFamily([poly_of(F3, 2, [(1, (1, 1))])])
    ok, miss = universality_check(fam, 0)
    assert ok  # every constant target is attained (constant maps exist)


def test_kappa_fiber_mass_conservation():
    stats = kappa_fibers(xy_f3(), 1)
    assert stats.mass() == stats.total_maps


def _random_small_varieties(seed, count):
    """Random small varieties over F_2 and F_3 with n in {3, 4}, each with a random
    nonzero functional: quadrics, pairs of quadrics, and products of two
    affine linear forms or quadrics in fewer variables (rich in lines and planes)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        field = rng.choice((F2, F3))
        n = rng.randint(3, 4)
        kind = rng.randrange(4)
        if kind == 0:
            polys = [random_poly(field, n, 2, rng)]
        elif kind == 1:
            polys = [random_poly(field, n, 2, rng) for _ in range(2)]
        elif kind == 2:
            l1, l2 = (random_poly(field, n, 1, rng) for _ in range(2))
            polys = [l1 * l2]
        else:
            k = rng.randint(1, n - 1)
            Q = random_poly(field, k, 2, rng)
            polys = [MultiPoly(field, n, {e + (0,) * (n - k): c for e, c in Q.terms.items()})]
        coeffs = tuple(rng.randrange(field.p) for _ in range(n))
        if any(coeffs):
            out.append((enumerate_points(PolyFamily(polys)), coeffs))
    return out


def test_census_extension_matches_brute_force():
    # Y by definition: no (m+1)-subspace of X that leaves W contains L
    for X, coeffs in _random_small_varieties(11, 30):
        for b in range(X.field.p):  # b != 0: a W that misses the origin
            W = Hyperplane(coeffs, b)
            w_ind = W.indicator(X.box)
            for m in (0, 1, 2):
                cen = census_extension(X, W, m)
                leaving = [M for M in scan_subspaces_in(X, m + 1) if not w_ind[M.points(X.box)].all()]
                Z = scan_subspaces_in(X, m, W)
                Y = [L for L in Z if not any(M.contains_subspace(L) for M in leaving)]
                assert list(cen.Z) == Z
                assert list(cen.Y) == Y


def test_flat_points_equal_subspace_points():
    for X, _ in _random_small_varieties(11, 30):
        for m in range(3):
            flats = subspace_flats(X, m)
            assert flats.points().tolist() == [L.points(X.box).tolist() for L in flats.subspaces()]


def test_census_reduces_large_hyperplane_coefficients():
    # coefficients past int64 (and near 2^62, where an int64 dot product
    # wraps) act through their residues mod p
    big = 2**62
    for X, coeffs in _random_small_varieties(13, 12):
        p = X.field.p
        lifted = tuple(c + p * (big // p + i) for i, c in enumerate(coeffs))
        huge = tuple(c + p**41 for c in coeffs)
        for b in range(p):
            for m in (0, 1):
                cen = census_extension(X, Hyperplane(coeffs, b), m)
                for cs in (lifted, huge):
                    assert census_extension(X, Hyperplane(cs, b + p * big), m) == cen


def test_functional_reads_the_coordinates_of_flat_points():
    # sum_i c_i x_i at the points of random flats, from their box indices,
    # against the dot product of their coordinates
    rng = random.Random(3)
    for _ in range(300):
        field = rng.choice((F2, F3, F5))
        p = field.p
        n = rng.randint(1, 4)
        k = rng.randint(0, n)
        M = AffineSubspace.from_span(
            field,
            [rng.randrange(p) for _ in range(n)],
            [[rng.randrange(p) for _ in range(n)] for _ in range(k)],
        )
        coeffs = [rng.randrange(p) for _ in range(n)]
        bx = box(field, n)
        vals = np.array([bx.point_of(int(i)) for i in M.points(bx)]).reshape(-1, n) @ coeffs % p
        assert list(_functional(bx, coeffs, M.points(bx))) == list(vals)


@pytest.mark.parametrize(
    "family, m, linear_only",
    [
        (PolyFamily([ExplicitVariety(2, 2, F3).polynomial()]), 1, False),  # 27 fibers
        (PolyFamily([random_poly(F3, 2, 2, random.Random(3)), random_poly(F3, 2, 2, random.Random(4))]), 1, False),
        (PolyFamily([random_poly(F5, 2, 3, random.Random(6))]), 1, False),  # many small fibers
        (PolyFamily([random_poly(F5, 2, 3, random.Random(6))]), 1, True),
        (PolyFamily([random_poly(F3, 2, 2, random.Random(s)) for s in range(14)]), 1, False),  # wide keys
    ],
)
@pytest.mark.parametrize("chunk_bytes", [0, 2**10, 2**16])
def test_kappa_chunks_merge_to_the_one_shot_fibers(monkeypatch, family, m, linear_only, chunk_bytes):
    # from chunks that vary only the last row of the map, merged after each
    # chunk, up to a few large chunks: counts, first maps and first-seen
    # order must survive the merges
    monkeypatch.setattr(geometry, "_CHUNK_BYTES", chunk_bytes)
    stats = kappa_fibers(family, m, linear_only=linear_only)
    expect = kappa_fibers_by_digit_table(family, m, linear_only)
    assert list(stats.fibers.items()) == list(expect.items())


def test_kappa_memory_is_one_chunk_plus_the_fibers():
    # kappa-uniformity-trend's F_3 family at n = 3, m = 1: 531,441 maps of 3
    # points each; their (maps, 3) index table alone is 12.8 MB
    fam = PolyFamily([ExplicitVariety(2, 3, F3).polynomial()])
    tracemalloc.start()
    try:
        stats = kappa_fibers(fam, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.attained == 27 and stats.mass() == 3**12
    assert peak < 4 * 2**20
