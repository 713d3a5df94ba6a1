import itertools
import random

import pytest

from rankforge import InputError, MultiPoly, PolyFamily, PrimeField, VerificationError, random_poly
from rankforge.explicit import ExplicitVariety
from rankforge.nullsatz import (
    ideal_membership,
    rough_bound_check,
    vanishing_vs_ideal_dims,
)
from rankforge.poly import monomials

F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


def poly_of(field, n, terms):
    return MultiPoly.from_terms(field, n, terms)


def test_formal_monomials_are_formal():
    # exponents above the field size are legal in the formal setting
    monos = monomials(1, 3)
    assert (3,) in monos and len(monos) == 4


def test_nonreduced_obstruction():
    # x vanishes wherever x^2 does, but x is not in (x^2) at any small cap
    fam = PolyFamily([poly_of(F5, 1, [(1, (2,))])])
    for cap in (1, 2, 3):
        res = ideal_membership(MultiPoly.variable(F5, 1, 0), fam, cap)
        assert not res.member
        assert res.dual_certificate is not None


def test_membership_checks_its_dual_certificate(corrupt_certificates):
    fam = PolyFamily([poly_of(F5, 1, [(1, (2,))])])
    with pytest.raises(VerificationError, match=corrupt_certificates):
        ideal_membership(MultiPoly.variable(F5, 1, 0), fam, 2)


def test_membership_with_certificate():
    P = poly_of(F5, 4, [(1, (1, 1, 0, 0)), (1, (0, 0, 1, 1))])
    cof = poly_of(F5, 4, [(1, (1, 0, 0, 0)), (1, (0, 0, 0, 0))])
    R = cof * P
    res = ideal_membership(R, PolyFamily([P]), 3)
    assert res.member
    res.certificate.verify(R, PolyFamily([P]))


def test_membership_by_construction_random():
    rng = random.Random(13)
    P1 = poly_of(F3, 2, [(1, (1, 1))])
    P2 = poly_of(F3, 2, [(1, (2, 0)), (2, (0, 1))])
    fam = PolyFamily([P1, P2])
    for _ in range(10):
        Q1 = random_poly(F3, 2, 1, rng, ensure_degree=False)
        Q2 = random_poly(F3, 2, 1, rng, ensure_degree=False)
        R = Q1 * P1 + Q2 * P2
        cap = max(R.degree(), 3)
        res = ideal_membership(R, fam, cap)
        assert res.member
        res.certificate.verify(R, fam)


def test_membership_monotone_in_cap():
    P = poly_of(F3, 2, [(1, (1, 1))])
    R = poly_of(F3, 2, [(1, (2, 1))])  # x^2 y = x * (xy)
    fam = PolyFamily([P])
    assert ideal_membership(R, fam, 3).member
    assert ideal_membership(R, fam, 4).member
    assert ideal_membership(R, fam, 5).member


def test_cap_below_degree_rejected():
    fam = PolyFamily([poly_of(F3, 2, [(1, (1, 1))])])
    with pytest.raises(InputError):
        ideal_membership(poly_of(F3, 2, [(1, (2, 1))]), fam, 1)


def test_cofactor_cap_override():
    # raising the cofactor cap does not convert the non-reduced obstruction
    fam = PolyFamily([poly_of(F5, 1, [(1, (2,))])])
    res = ideal_membership(MultiPoly.variable(F5, 1, 0), fam, 3, cofactor_caps=(3,))
    assert not res.member


def test_dims_nonreduced_gap_table():
    fam = PolyFamily([poly_of(F5, 1, [(1, (2,))])])
    expected = {1: (1, 0), 2: (2, 1), 3: (3, 2)}
    for e, dims in expected.items():
        rep = vanishing_vs_ideal_dims(fam, e)
        assert (rep.vanishing_dim, rep.ideal_dim) == dims
        assert not rep.equal


def test_dims_equality_high_rank_instance():
    fam = ExplicitVariety(2, 2, F7).family()
    for e in (1, 2):
        rep = vanishing_vs_ideal_dims(fam, e)
        assert rep.equal


def test_dims_e_zero_nonempty_variety():
    fam = ExplicitVariety(2, 2, F7).family()
    rep = vanishing_vs_ideal_dims(fam, 0)
    assert rep.vanishing_dim == 0 and rep.ideal_dim == 0


def test_dims_ideal_always_inside_vanishing():
    rng = random.Random(4)
    for _ in range(8):
        P = random_poly(F3, 2, 2, rng)
        if P.degree() < 1:
            continue
        fam = PolyFamily([P])
        for e in (1, 2, 3):
            rep = vanishing_vs_ideal_dims(fam, e)
            assert rep.ideal_dim <= rep.vanishing_dim


def test_rough_bound_fixtures():
    plane = rough_bound_check(PolyFamily([MultiPoly.variable(F5, 3, 0)]))
    assert plane.count == 25 and plane.bound == 25 and plane.equality
    quadric = rough_bound_check(
        PolyFamily([poly_of(F3, 4, [(1, (1, 1, 0, 0)), (1, (0, 0, 1, 1))])])
    )
    # direct oracle count
    oracle = sum(
        1
        for pt in itertools.product(range(3), repeat=4)
        if (pt[0] * pt[1] + pt[2] * pt[3]) % 3 == 0
    )
    assert quadric.count == oracle == 33
    assert quadric.bound == 2 * 27 and quadric.ok
    incons = PolyFamily(
        [MultiPoly.variable(F3, 2, 0), poly_of(F3, 2, [(1, (1, 0)), (1, (0, 0))])]
    )
    rb = rough_bound_check(incons)
    assert rb.count == 0 and rb.ok


def test_rough_bound_with_extra_polynomial():
    fam = PolyFamily([poly_of(F3, 4, [(1, (1, 1, 0, 0)), (1, (0, 0, 1, 1))])])
    extra = poly_of(F3, 4, [(1, (1, 0, 0, 0)), (1, (0, 0, 1, 0))])
    rb = rough_bound_check(fam, extra=extra)
    assert rb.codim == 2 and rb.degree_product == 2
    assert rb.ok
