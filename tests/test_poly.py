import itertools
import math
import random

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from rankforge import (
    AffineMap,
    InputError,
    MultiPoly,
    MultilinearForm,
    PolyFamily,
    PrimeField,
    alternating_sum_eval,
    interpolate,
    interpolate_grid,
    multilinear_form,
    random_poly,
    restrict,
)
from rankforge.errors import VerificationError
from rankforge.poly import monomials, product_matrix

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def poly_of(field, n, terms):
    return MultiPoly.from_terms(field, n, terms)


def test_eval_examples():
    assert poly_of(F5, 2, [(1, (1, 1))]).eval((2, 3)) == 1
    assert MultiPoly.zero(F5, 3).eval((1, 2, 3)) == 0
    assert poly_of(F3, 2, [(1, (2, 0)), (1, (0, 1))]).eval((1, 1)) == 2


def test_eval_arity_mismatch():
    with pytest.raises(InputError):
        poly_of(F5, 2, [(1, (1, 1))]).eval((1,))


def test_constructor_checks_and_normalizes_terms():
    with pytest.raises(InputError, match="wrong arity"):
        MultiPoly(F3, 2, {(1, 0, 0): 1})
    with pytest.raises(InputError, match="negative exponent"):
        MultiPoly(F3, 2, {(1, -1): 1})
    with pytest.raises(InputError, match="negative exponent"):
        MultiPoly(F3, 2, {(1, -1): 3})  # checked before the coefficient vanishes mod p
    P = MultiPoly(F5, 2, {(np.int64(2), np.uint8(1)): np.int64(7), (0, np.int16(0)): np.int32(-1), (1, 1): 5, (3, 0): 0})
    assert P.terms == {(2, 1): 2, (0, 0): 4}
    assert all(type(e) is int for mono in P.terms for e in mono) and all(type(c) is int for c in P.terms.values())
    assert MultiPoly(F2, 0, {(): np.int64(3)}).terms == {(): 1}


def test_multilinear_form_checks_every_block():
    with pytest.raises(InputError, match="variable count"):
        MultilinearForm((2, 2), MultiPoly(F2, 3))
    for bad in ((1, 1, 0, 1), (1, 0, 0, 0), (0, 0, 1, 1), (2, 0, 1, 0)):
        with pytest.raises(InputError, match="not multilinear"):
            MultilinearForm((2, 2), MultiPoly(F2, 4, {(1, 0, 0, 1): 1, bad: 1}))
    T = MultilinearForm((1, 2, 1), MultiPoly(F3, 4, {(1, 0, 1, 1): 2, (1, 1, 0, 1): 1}))
    assert T.block_offsets() == (0, 1, 3) and T.block_degrees((1, 0, 1, 1)) == (1, 1, 1)


def test_delta_examples():
    P = poly_of(F5, 1, [(1, (2,))])
    assert P.delta((1,)) == poly_of(F5, 1, [(2, (1,)), (1, (0,))])
    # x1x2 with h=(a,b): a x2 + b x1 + ab
    P = poly_of(F5, 2, [(1, (1, 1))])
    a, b = 2, 3
    assert P.delta((a, b)) == poly_of(F5, 2, [(a, (0, 1)), (b, (1, 0)), (a * b, (0, 0))])
    # linear polynomial: constant difference
    L = poly_of(F5, 2, [(1, (1, 0)), (2, (0, 1))])
    assert L.delta((1, 1)) == MultiPoly.constant(F5, 2, 3)


def test_delta_degree_drop():
    rng = random.Random(0)
    for _ in range(25):
        P = random_poly(F3, 2, 3, rng)
        h = (rng.randrange(3), rng.randrange(3))
        d = P.delta(h)
        if P.degree() >= 1:
            assert d.degree() < P.degree()


def test_multilinear_form_of_x1x2():
    form = multilinear_form(poly_of(F5, 2, [(1, (1, 1))]))
    # h1 h2' + h2 h1' in block order (h, h')
    assert form.poly == poly_of(F5, 4, [(1, (1, 0, 0, 1)), (1, (0, 1, 1, 0))])


def test_multilinear_form_extra_order_kills():
    P = poly_of(F5, 2, [(1, (1, 0))])  # degree 1
    assert multilinear_form(P, 2).is_zero()


def test_multilinear_form_char2_square():
    assert multilinear_form(poly_of(F2, 1, [(1, (2,))]), 2).is_zero()


def test_multilinear_form_cancels_mod_p_below_the_degree():
    # x^3 over F_3 at d = 2: every multinomial 3, 3, 6 vanishes mod 3
    assert multilinear_form(poly_of(F3, 1, [(1, (3,))]), 2).is_zero()
    # x^2 over F_2 at d = 1: 2xh cancels, h^2 survives and is not linear in h
    with pytest.raises(InputError, match="not multilinear"):
        multilinear_form(poly_of(F2, 1, [(1, (2,))]), 1)
    with pytest.raises(VerificationError, match="base point"):
        multilinear_form(poly_of(F5, 1, [(1, (2,))]), 1)


# The symbolic construction the closed form replaced: d rounds of
# x -> x + h_k in (d+1)*n variables, then the x block must be gone.


def _embed(P, total, offset):
    terms = {}
    for mono, c in P.terms.items():
        e = [0] * total
        e[offset : offset + len(mono)] = mono
        terms[tuple(e)] = c
    return MultiPoly(P.field, total, terms)


def _shift_x_by_block(Q, n, block_offset):
    field, N = Q.field, Q.n
    result = MultiPoly.zero(field, N)
    for mono, c in Q.terms.items():
        rest = list(mono)
        factor = MultiPoly.constant(field, N, c)
        for i in range(n):
            if mono[i]:
                rest[i] = 0
                base = MultiPoly.variable(field, N, i) + MultiPoly.variable(field, N, block_offset + i)
                factor = factor * base.pow(mono[i])
        result = result + MultiPoly(field, N, {tuple(a + b for a, b in zip(rest, m)): v for m, v in factor.terms.items()})
    return result


def substitution_form(P, d=None):
    if d is None:
        d = P.degree()
    if d < 1:
        raise InputError("multilinear form requires order d >= 1")
    n = P.n
    Q = _embed(P, (d + 1) * n, 0)
    for k in range(1, d + 1):
        Q = _shift_x_by_block(Q, n, k * n) - Q
    terms = {}
    for mono, c in Q.terms.items():
        if any(mono[:n]):
            raise VerificationError("base point failed to cancel in multilinear form")
        terms[mono[n:]] = c
    return MultilinearForm((n,) * d, MultiPoly(P.field, d * n, terms))


def small_poly(data, p, n):
    """Up to five terms of degree <= 4, exponents >= p included."""
    monos = st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(lambda e: sum(e) <= 4)
    terms = data.draw(st.lists(st.tuples(st.integers(0, p - 1), monos), max_size=5))
    return MultiPoly.from_terms(PrimeField(p), n, [(c, tuple(e)) for c, e in terms])


def form_outcome(fn, P, d):
    try:
        form = fn(P, d)
    except (InputError, VerificationError) as exc:
        return type(exc), str(exc)
    return form.block_dims, form.poly.terms


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_multilinear_form_matches_substitution(data):
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    P = small_poly(data, p, data.draw(st.integers(0, 3)))
    d = data.draw(st.sampled_from([None, 1, 2, 3, 4]))
    assert form_outcome(multilinear_form, P, d) == form_outcome(substitution_form, P, d)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_multilinear_form_matches_cube_sum(data):
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    n = data.draw(st.integers(1, 3))
    P = small_poly(data, p, n)
    d = P.degree()
    if d < 1:
        return
    form = multilinear_form(P)
    point = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    x = data.draw(point)
    hs = [data.draw(point) for _ in range(d)]
    assert alternating_sum_eval(P, x, hs) == (-1) ** d * form.eval(hs) % p


def test_alternating_sum_examples():
    # d=1, P=x: sum = P(x) - P(x+h) = -h
    P = MultiPoly.variable(F5, 1, 0)
    assert alternating_sum_eval(P, (2,), [(3,)]) == (-3) % 5
    # P = x1x2, h=(1,0), h'=(0,1): 4-term sum equals 1 = (-1)^2 * form
    P = poly_of(F5, 2, [(1, (1, 1))])
    assert alternating_sum_eval(P, (4, 2), [(1, 0), (0, 1)]) == 1
    # order above the degree: 0 everywhere
    assert alternating_sum_eval(P, (1, 1), [(1, 0), (0, 1), (1, 1)]) == 0


def test_base_point_independence():
    # the signed cube sum at order deg P does not depend on the base point
    rng = random.Random(42)
    for _ in range(1000):
        n = rng.choice((1, 2))
        d = rng.choice((1, 2, 3))
        P = random_poly(F3, n, d, rng)
        if P.degree() < 1:
            continue
        d = P.degree()
        hs = [tuple(rng.randrange(3) for _ in range(n)) for _ in range(d)]
        x1 = tuple(rng.randrange(3) for _ in range(n))
        x2 = tuple(rng.randrange(3) for _ in range(n))
        assert alternating_sum_eval(P, x1, hs) == alternating_sum_eval(P, x2, hs)


def test_alternating_sum_matches_form_with_sign():
    rng = random.Random(7)
    for _ in range(50):
        P = random_poly(F3, 2, 2, rng)
        if P.degree() != 2:
            continue
        form = multilinear_form(P)
        hs = [(rng.randrange(3), rng.randrange(3)) for _ in range(2)]
        x = (rng.randrange(3), rng.randrange(3))
        assert alternating_sum_eval(P, x, hs) == form.eval(hs) % 3  # (-1)^2 = 1


def test_form_symmetry_and_multilinearity():
    rng = random.Random(3)
    for _ in range(20):
        P = random_poly(F5, 2, 3, rng)
        if P.degree() != 3:
            continue
        form = multilinear_form(P)
        h = [tuple(rng.randrange(5) for _ in range(2)) for _ in range(3)]
        # block swap symmetry
        assert form.eval([h[0], h[1], h[2]]) == form.eval([h[1], h[0], h[2]])
        assert form.eval([h[0], h[1], h[2]]) == form.eval([h[2], h[1], h[0]])
        # scaling one block scales the value
        c = rng.randrange(5)
        scaled = tuple((c * v) % 5 for v in h[0])
        assert form.eval([scaled, h[1], h[2]]) == (c * form.eval(h)) % 5
        # additivity in one block
        g = tuple(rng.randrange(5) for _ in range(2))
        summed = tuple((a + b) % 5 for a, b in zip(h[0], g))
        assert (
            form.eval([summed, h[1], h[2]])
            == (form.eval([h[0], h[1], h[2]]) + form.eval([g, h[1], h[2]])) % 5
        )


def test_restrict_examples():
    P = poly_of(F5, 2, [(1, (1, 1))])
    assert restrict(P, AffineMap.make(F5, [[1], [1]], [0, 0])) == poly_of(F5, 1, [(1, (2,))])
    assert restrict(P, AffineMap.make(F5, [[1], [0]], [0, 0])).is_zero()
    # coefficients cancel exactly: x1y1 + x2y2 over F3 along t -> (t,1,t,2)
    P = poly_of(F3, 4, [(1, (1, 1, 0, 0)), (1, (0, 0, 1, 1))])
    phi = AffineMap.make(F3, [[1], [0], [1], [0]], [0, 1, 0, 2])
    assert restrict(P, phi).is_zero()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_restrict_commutes_with_eval(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    field = PrimeField(p)
    n = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(1, 2))
    terms = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, p - 1),
                st.lists(st.integers(0, 2), min_size=n, max_size=n),
            ),
            max_size=5,
        )
    )
    P = MultiPoly.from_terms(field, n, [(c, tuple(e)) for c, e in terms])
    matrix = [[data.draw(st.integers(0, p - 1)) for _ in range(m)] for _ in range(n)]
    trans = [data.draw(st.integers(0, p - 1)) for _ in range(n)]
    phi = AffineMap.make(field, matrix, trans)
    t = tuple(data.draw(st.integers(0, p - 1)) for _ in range(m))
    assert restrict(P, phi).eval(t) == P.eval(phi.apply(t))


def test_ring_axioms_random():
    rng = random.Random(5)
    for _ in range(30):
        A = random_poly(F3, 2, 2, rng, ensure_degree=False)
        B = random_poly(F3, 2, 2, rng, ensure_degree=False)
        C = random_poly(F3, 2, 1, rng, ensure_degree=False)
        assert A + B == B + A
        assert (A + B) + C == A + (B + C)
        assert A * (B + C) == A * B + A * C
        assert A - A == MultiPoly.zero(F3, 2)


def test_interpolation_examples():
    vals = [(t * t) % 5 for t in range(5)]
    P, ok = interpolate(F5, 1, vals, 3)
    assert ok and P == poly_of(F5, 1, [(1, (2,))])
    Z, ok = interpolate(F5, 1, [0] * 5, 3)
    assert ok and Z.is_zero()
    _, ok = interpolate(F5, 1, [pow(t, 4, 5) for t in range(5)], 3)
    assert not ok


def test_interpolation_roundtrip_2d():
    rng = random.Random(9)
    for _ in range(10):
        P = random_poly(F3, 2, 3, rng, ensure_degree=False).function_reduce()
        vals = [P.eval((a, b)) for a in range(3) for b in range(3)]
        Q = interpolate_grid(F3, 2, vals)
        assert Q == P


def test_interpolation_zero_dims():
    assert interpolate_grid(F5, 0, [3]) == MultiPoly.constant(F5, 0, 3)


def test_function_reduce():
    # x^5 = x over F5; x^6 = x^2
    P = poly_of(F5, 1, [(1, (5,)), (1, (6,))])
    assert P.function_reduce() == poly_of(F5, 1, [(1, (1,)), (1, (2,))])
    # values agree on every point
    rng = random.Random(1)
    for _ in range(20):
        P = random_poly(F3, 2, 5, rng, ensure_degree=False)
        R = P.function_reduce()
        for a in range(3):
            for b in range(3):
                assert P.eval((a, b)) == R.eval((a, b))


def test_grid_vanishing_contrapositive_exhaustive_small():
    # nonzero polynomial of degree <= a*d with a large enough grid has a
    # nonzero grid value: checked by evaluation-matrix rank over all of the
    # monomial space, for grids built from subgroups of F_7
    import itertools

    import numpy as np

    from rankforge.linalg import rank_mod

    F7 = PrimeField(7)
    delta = F7.delta_subgroup(6)
    for N in (1, 2, 3):
        monos = [m for m in itertools.product(range(5), repeat=N) if sum(m) <= 4]
        pts = list(itertools.product(delta.elements, repeat=N))
        A = np.array(
            [[int(np.prod([pow(x, e, 7) for x, e in zip(pt, m)])) % 7 for m in monos] for pt in pts],
            dtype=np.int64,
        )
        assert rank_mod(A, 7) == len(monos)


def test_grid_vanishing_sampled():
    # sampling form of the same statement: a random nonzero polynomial takes a
    # nonzero value somewhere on the subgroup grid
    rng = random.Random(11)
    F7 = PrimeField(7)
    delta = F7.delta_subgroup(6)
    for _ in range(50):
        P = random_poly(F7, 2, 4, rng)
        if P.is_zero():
            continue
        assert any(P.eval((a, b)) for a in delta for b in delta)


def test_simplex_grid_vanishing():
    # triangular grid from d+1 distinct anchors decides degree-d polynomials
    import itertools

    import numpy as np

    from rankforge.linalg import rank_mod

    F7 = PrimeField(7)
    anchors = [0, 1, 2, 3, 4]
    pts = [(anchors[t1], anchors[t2]) for t1 in range(5) for t2 in range(t1 + 1)]
    monos = [m for m in itertools.product(range(5), repeat=2) if sum(m) <= 4]
    A = np.array(
        [[pow(x, m[0], 7) * pow(y, m[1], 7) % 7 for m in monos] for x, y in pts],
        dtype=np.int64,
    )
    assert rank_mod(A, 7) == len(monos)


def test_family_span():
    P = poly_of(F2, 4, [(1, (1, 1, 0, 0))])
    Q = poly_of(F2, 4, [(1, (0, 0, 1, 1))])
    assert PolyFamily([P, Q]).span_dimension() == 2
    assert not PolyFamily([P, P]).is_independent()


def test_family_degree_bounds():
    P = poly_of(F2, 2, [(1, (1, 1))])
    with pytest.raises(InputError):
        PolyFamily([P], degrees=[1])


def test_json_roundtrip():
    P = poly_of(F5, 3, [(2, (1, 0, 2)), (4, (0, 0, 0))])
    assert MultiPoly.from_json_dict(P.to_json_dict()) == P


# ---------------------------------------------------------------------------
# The monomial layer against independent oracles
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 4), d=st.integers(-1, 6), cap=st.one_of(st.none(), st.integers(0, 4)))
def test_monomials_match_filtered_product(n, d, cap):
    top = d if cap is None else min(d, cap)
    expect = [m for m in itertools.product(range(max(top, 0) + 1), repeat=n) if sum(m) <= d]
    assert monomials(n, d, cap) == sorted(expect, key=lambda m: (sum(m), m))


@pytest.mark.parametrize("n, d", [(0, 3), (1, 5), (4, 4), (20, 4), (60, 3)])
def test_monomial_count_is_binomial(n, d):
    assert len(monomials(n, d)) == math.comb(n + d, d)


def sympy_product(Q, m):
    """The terms of Q * x^m, multiplied by sympy over GF(p)."""
    p, gens = Q.field.p, sympy.symbols(f"x0:{Q.n}")
    prod = sympy.Poly.from_dict(dict(Q.terms), *gens, modulus=p) * sympy.Poly.from_dict({m: 1}, *gens, modulus=p)
    return {e: int(c) % p for e, c in prod.terms() if int(c) % p}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_product_matrix_matches_multiplication(data):
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    n = data.draw(st.integers(1, 3))
    Q = small_poly(data, p, n)
    monos = data.draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=6))
    rows = monomials(n, 4 + 3 * n)  # holds every product of a term of Q with a monomial of monos
    B = product_matrix({m: i for i, m in enumerate(rows)}, Q.terms.items(), monos)
    assert B.shape == (len(rows), len(monos))
    for j, m in enumerate(monos):
        column = {rows[i]: int(c) for i, c in enumerate(B[:, j]) if c}
        assert column == (Q * MultiPoly(Q.field, n, {m: 1})).terms
        assert column == sympy_product(Q, m)


def test_product_matrix_refuses_a_product_outside_its_rows():
    row_of = {m: i for i, m in enumerate(monomials(2, 2))}
    with pytest.raises(VerificationError, match="escaped the degree window"):
        product_matrix(row_of, [((1, 1), 1)], [(0, 1)])


# ---------------------------------------------------------------------------
# Multiplication and affine composition against sympy over GF(p)
# ---------------------------------------------------------------------------


def cubic_poly(data, p, n):
    """Up to six terms of total degree <= 3 in n variables over F_p."""
    monos = st.tuples(*[st.integers(0, 3)] * n).filter(lambda e: sum(e) <= 3)
    return MultiPoly.from_terms(PrimeField(p), n, data.draw(st.lists(st.tuples(st.integers(0, p - 1), monos), max_size=6)))


def to_sympy(P, gens):
    return sympy.Poly.from_dict(dict(P.terms), *gens, modulus=P.field.p)


def sympy_terms(S, p):
    return {e: int(c) % p for e, c in S.terms() if int(c) % p}


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_product_matches_sympy(data):
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    n = data.draw(st.integers(1, 4))
    P, Q = cubic_poly(data, p, n), cubic_poly(data, p, n)
    gens = sympy.symbols(f"x0:{n}")
    assert (P * Q).terms == sympy_terms(to_sympy(P, gens) * to_sympy(Q, gens), p)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_compose_matches_sympy(data):
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    n, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    P = cubic_poly(data, p, n)
    entries = st.integers(0, p - 1)
    A = data.draw(st.lists(st.lists(entries, min_size=m, max_size=m), min_size=n, max_size=n))
    b = data.draw(st.lists(entries, min_size=n, max_size=n))
    xs, ts = sympy.symbols(f"x0:{n}"), sympy.symbols(f"t0:{m}")
    image = {x: sum(a * t for a, t in zip(row, ts)) + c for x, row, c in zip(xs, A, b)}
    want = sympy.Poly(to_sympy(P, xs).as_expr().xreplace(image), *ts, modulus=p)
    assert P.compose(AffineMap.make(PrimeField(p), A, b)).terms == sympy_terms(want, p)
