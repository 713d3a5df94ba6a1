"""Exact linear algebra mod p: both RREF routes against sympy's DomainMatrix,
nullspaces and solutions and dual certificates, and the memory of the panel
route and of tall infeasible solves."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from rankforge import linalg
from rankforge.errors import InputError, VerificationError
from rankforge.linalg import (
    PANEL,
    as_mod_array,
    check_dual_certificate,
    inv_mod,
    nullspace_mod,
    nullspace_of_rref,
    rank_mod,
    row_space_contains,
    row_space_leq,
    rref_mod,
    solve_mod,
)


def test_rref_and_rank():
    A = np.array([[2, 4], [1, 2]], dtype=np.int64)
    R, pivots, rank = rref_mod(A, 5)
    assert rank == 1 and pivots == [0]
    assert np.array_equal(R[0], np.array([1, 2]))


def test_inverse_roundtrip():
    rng = np.random.RandomState(0)
    for p in (2, 3, 7):
        for _ in range(10):
            A = rng.randint(0, p, (4, 4)).astype(np.int64)
            if rank_mod(A, p) < 4:
                continue
            Ainv = inv_mod(A, p)
            assert np.array_equal((A @ Ainv) % p, np.eye(4, dtype=np.int64))


def test_inverse_singular_raises():
    with pytest.raises(InputError):
        inv_mod(np.zeros((2, 2), dtype=np.int64), 3)


def test_nullspace():
    A = np.array([[1, 1, 0], [0, 0, 1]], dtype=np.int64)
    N = nullspace_mod(A, 3)
    assert N.shape[0] == 1
    assert np.all((A @ N.T) % 3 == 0)


def test_solve_feasible():
    A = np.array([[1, 2], [3, 4]], dtype=np.int64)
    b = np.array([1, 0], dtype=np.int64)
    x, cert = solve_mod(A, b, 5)
    assert cert is None
    assert np.array_equal((A @ x) % 5, b)


def test_solve_infeasible_with_certificate():
    # rows conflict: x = 1 and x = 2
    A = np.array([[1], [1]], dtype=np.int64)
    b = np.array([1, 2], dtype=np.int64)
    x, cert = solve_mod(A, b, 5)
    assert x is None and cert is not None
    assert np.all((cert @ A) % 5 == 0)
    assert int(cert @ b) % 5 != 0


def test_row_space_predicates():
    A = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.int64)
    assert row_space_contains(A, [1, 1, 2], 3)
    assert not row_space_contains(A, [0, 0, 1], 3)
    B = np.array([[1, 0, 1]], dtype=np.int64)
    assert row_space_leq(B, A, 3)
    assert not row_space_leq(A, B, 3)


def test_random_solve_consistency():
    rng = np.random.RandomState(7)
    for p in (2, 3, 7):
        for _ in range(25):
            A = rng.randint(0, p, (6, 4)).astype(np.int64)
            xtrue = rng.randint(0, p, 4).astype(np.int64)
            b = (A @ xtrue) % p
            x, cert = solve_mod(A, b, p)
            assert x is not None
            assert np.array_equal((A @ x) % p, b)


def random_matrix(seed: int, p: int, rows: int, cols: int, rank: int, zero_cols: int, repeats: int) -> np.ndarray:
    """A rows x cols matrix of rank <= `rank`, with some zero columns and repeated rows."""
    rng = np.random.RandomState(seed)
    dtype = np.int64 if rank * (p - 1) ** 2 < 2**63 else object
    A = (rng.randint(0, p, (rows, rank)).astype(dtype) @ rng.randint(0, p, (rank, cols)).astype(dtype)) % p
    A = A.astype(np.int64)
    A[:, rng.choice(cols, min(zero_cols, cols), replace=False)] = 0
    for _ in range(repeats):
        A[rng.randint(rows)] = A[rng.randint(rows)]
    return A


def sympy_rref(A: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    K = GF(p, symmetric=False)
    rows, cols = A.shape
    R, pivots = DomainMatrix([[K(int(x)) for x in row] for row in A], (rows, cols), K).rref()
    dense = np.zeros((rows, cols), dtype=np.int64)
    for i, row in enumerate(R.to_list()):
        dense[i] = [K.to_int(x) % p for x in row]
    return dense, list(pivots)


def sympy_solution(A: np.ndarray, b, p: int) -> np.ndarray | None:
    """The free-variables-zero solution of A x = b read off sympy's RREF of
    [A | b], or None when b's column is a pivot."""
    cols = A.shape[1]
    R, pivots = sympy_rref(np.concatenate([A, np.reshape(b, (-1, 1))], axis=1), p)
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.int64)
    x[pivots] = R[: len(pivots), cols]
    return x


def sympy_dual(A: np.ndarray, b, p: int) -> np.ndarray:
    """The certificate `solve_mod` should return for an infeasible A x = b:
    sympy's free-variables-zero solution of [A | b]^T y = (0, ..., 0, 1)."""
    cols = A.shape[1]
    return sympy_solution(np.concatenate([A, np.reshape(b, (-1, 1))], axis=1).T, np.eye(1, cols + 1, cols), p)


@st.composite
def matrices(draw):
    p = draw(st.sampled_from([2, 3, 7, 101, 2147483647]))
    rows = draw(st.integers(1, PANEL + 16))
    cols = draw(st.integers(1, PANEL + 16))
    rank = draw(st.integers(0, min(rows, cols)))
    zero_cols = draw(st.integers(0, 4))
    repeats = draw(st.integers(0, 6))
    seed = draw(st.integers(0, 2**31 - 1))
    return p, random_matrix(seed, p, rows, cols, rank, zero_cols, repeats)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(matrices())
@example((7, random_matrix(1, 7, 70, 75, 70, 3, 4)))  # panel route
@example((2, random_matrix(2, 2, 80, 66, 50, 2, 6)))  # panel route over F_2
@example((101, random_matrix(3, 101, 66, 80, 30, 0, 0)))  # panel route, rank deficient
@example((3, random_matrix(4, 3, 12, 9, 5, 2, 3)))  # plain route
@example((2147483647, random_matrix(5, 2147483647, 70, 70, 65, 1, 2)))  # large p: plain route
@example((11771657, random_matrix(6, 11771657, 70, 72, 70, 1, 2)))  # largest prime the panel route takes
def test_rref_matches_sympy(case):
    p, A = case
    before = A.copy()
    panels = linalg._gauss_jordan_panels
    with mock.patch.object(linalg, "_gauss_jordan_panels", wraps=panels) as spy:
        R, pivots, rank = rref_mod(A, p)
    assert np.array_equal(A, before)  # eliminated a copy
    assert spy.called == (min(A.shape) > PANEL and (PANEL + 1) * (p - 1) ** 2 < 2**53)
    expect, expect_pivots = sympy_rref(A, p)
    assert R.dtype == np.int64 and R.shape == A.shape
    assert np.array_equal(R, expect)
    assert pivots == expect_pivots and rank == len(expect_pivots)


def test_panel_route_dual_certificate_on_tall_infeasible_system():
    p = 7
    A = random_matrix(11, p, 100, 70, 50, 2, 10)
    b = (A @ np.random.RandomState(12).randint(0, p, 70)) % p
    b[0] = (b[0] + 1) % p  # leave the column space
    with mock.patch.object(linalg, "_gauss_jordan_panels", wraps=linalg._gauss_jordan_panels) as spy:
        x, y = solve_mod(A, b, p)
    assert spy.called and x is None
    assert np.all((y @ A) % p == 0) and int(y @ b) % p == 1
    check_dual_certificate(A, b, y, p)
    assert np.array_equal(y, sympy_dual(A, b, p))


@pytest.mark.parametrize("rows, cols", [(4000, 60), (5000, 70)])
def test_tall_infeasible_solve_returns_a_certificate_in_little_memory(rows, cols):
    # the certificate solves the (cols + 1) x rows transposed system; no
    # rows x rows array is built, and no row count drops it
    p = 7
    A = random_matrix(41, p, rows, cols, cols, 0, 0)
    b = np.random.RandomState(42).randint(0, p, rows)
    tracemalloc.start()
    try:
        x, y = solve_mod(A, b, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x is None
    check_dual_certificate(A, b, y, p)
    assert peak < 32 * 2**20


def test_solve_mod_checks_its_dual_certificate(corrupt_certificates):
    A = np.array([[1], [1]], dtype=np.int64)
    with pytest.raises(VerificationError, match=corrupt_certificates):
        solve_mod(A, np.array([1, 2]), 5)


def test_check_dual_certificate_rejects_bad_certificates():
    A = np.array([[1], [1]], dtype=np.int64)
    b = np.array([1, 2], dtype=np.int64)
    check_dual_certificate(A, b, np.array([1, 4]), 5)
    with pytest.raises(VerificationError):
        check_dual_certificate(A, b, np.array([1, 1]), 5)  # y.A != 0
    with pytest.raises(VerificationError):
        check_dual_certificate(A, np.array([1, 1]), np.array([1, 4]), 5)  # y.b = 0
    with pytest.raises(VerificationError):
        check_dual_certificate(A, b, np.array([1, 4, 0]), 5)
    # near 2^31 the dot products leave int64 and are taken exactly
    p = 2147483647
    A = np.full((4, 1), p - 1, dtype=np.int64)
    y = np.array([p - 1, p - 1, 1, 1], dtype=np.int64)
    check_dual_certificate(A, np.array([1, 0, 0, 0]), y, p)
    with pytest.raises(VerificationError):
        check_dual_certificate(A, np.array([1, 0, 0, 0]), np.array([p - 1, p - 1, p - 1, 1]), p)


def test_panel_route_peak_memory_not_above_plain_loop():
    p = 7
    A = random_matrix(21, p, 4160, 385, PANEL + 6, 0, 0)  # two panels hold pivots

    def traced(fn):
        tracemalloc.start()
        try:
            out = fn()
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def plain():
        M = as_mod_array(A, p)
        return M, linalg._gauss_jordan(M, p)

    (R, pivots, _), blocked = traced(lambda: rref_mod(A, p))
    (M, loop_pivots), loop = traced(plain)
    assert blocked <= loop
    assert np.array_equal(R, M) and pivots == loop_pivots


@st.composite
def row_streams(draw):
    """A matrix, cut into consecutive blocks of rows at random places."""
    p = draw(st.sampled_from([2, 3, 7, 101, 11771657, 2147483647]))
    rows = draw(st.integers(1, PANEL + 16))
    cols = draw(st.integers(1, PANEL + 16))
    rank = draw(st.integers(0, min(rows, cols)))
    A = random_matrix(draw(st.integers(0, 2**31 - 1)), p, rows, cols, rank, draw(st.integers(0, 4)), draw(st.integers(0, 6)))
    if draw(st.booleans()):  # rows with later leading entries first: later blocks add pivots to the left
        lead = np.where(A.any(axis=1), (A != 0).argmax(axis=1), cols)
        A = A[np.argsort(-lead, kind="stable")]
    cuts = sorted(draw(st.sets(st.integers(1, rows - 1), max_size=6))) if rows > 1 else []
    return p, A, cuts


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(row_streams())
@example((7, np.concatenate([random_matrix(7, 7, 70, 75, 60, 3, 0)] * 2), [70]))  # the second block reduces to zero
@example((3, np.array([[0, 0, 1, 2], [0, 1, 0, 0], [1, 2, 0, 1]]), [1, 2]))  # each block pivots left of R's pivots
@example((101, random_matrix(8, 101, 140, 90, 80, 2, 4), [10, 75, 76]))  # residuals take the panel route
@example((2147483647, random_matrix(9, 2147483647, 20, 12, 8, 1, 2), [5, 15]))  # large p: rref of the stack
def test_rref_extend_matches_one_shot_rref_and_sympy(case):
    p, A, cuts = case
    R, pivots = np.zeros((0, A.shape[1]), dtype=np.int64), []
    for block in np.split(A, cuts):
        R, pivots = linalg.rref_extend_mod(R, pivots, block, p)
    M, expect_pivots, rank = rref_mod(A, p)
    assert R.dtype == np.int64 and R.shape == (rank, A.shape[1])
    assert pivots == expect_pivots and np.array_equal(R, M[:rank])
    dense, sympy_pivots = sympy_rref(A, p)
    assert pivots == sympy_pivots and np.array_equal(R, dense[:rank])


def test_rref_extend_keeps_r_when_the_block_reduces_to_zero():
    p = 7
    A = random_matrix(31, p, 12, 10, 5, 1, 0)
    R, pivots, rank = rref_mod(A, p)
    combos = (np.random.RandomState(32).randint(0, p, (4, 12)) @ A) % p
    with mock.patch.object(linalg, "rref_mod", wraps=linalg.rref_mod) as spy:
        again, again_pivots = linalg.rref_extend_mod(R[:rank], pivots, combos, p)
    assert not spy.called  # nothing left to eliminate
    assert again_pivots == pivots and np.array_equal(again, R[:rank])
    with pytest.raises(InputError):
        linalg.rref_extend_mod(R[:rank], pivots, np.zeros((1, 11), dtype=np.int64), p)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(matrices(), st.booleans(), st.integers(0, 2**31 - 1))
@example((7, random_matrix(10, 7, 100, 70, 50, 2, 10)), False, 12)  # tall, panel route, infeasible
@example((7, random_matrix(10, 7, 100, 70, 50, 2, 10)), True, 12)  # the same system made feasible
def test_solve_mod_matches_sympy(case, feasible, seed):
    p, A = case
    rng = np.random.RandomState(seed)
    if feasible:
        b = (A.astype(object) @ rng.randint(0, 2**31 - 1, A.shape[1]).astype(object)) % p
    else:
        b = rng.randint(0, 2**31 - 1, A.shape[0]) % p
    b = np.asarray(b, dtype=np.int64)
    x, y = solve_mod(A, b, p)
    expect_x = sympy_solution(A, b, p)
    if expect_x is None:
        assert x is None and np.array_equal(y, sympy_dual(A, b, p))
        check_dual_certificate(A, b, y, p)
    else:
        assert y is None and np.array_equal(x, expect_x)
        assert not np.any((A.astype(object) @ x.astype(object) - b) % p)
    if feasible:
        assert x is not None


def nullspace_double_loop(R: np.ndarray, pivots: list[int], p: int) -> np.ndarray:
    """The nullspace read off an RREF one entry at a time, as `nullspace_mod`
    did before `nullspace_of_rref`."""
    cols = R.shape[1]
    free = [c for c in range(cols) if c not in set(pivots)]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, f in enumerate(free):
        basis[k, f] = 1
        for j, pc in enumerate(pivots):
            basis[k, pc] = (-int(R[j, f])) % p
    return basis


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(matrices())
@example((2147483647, random_matrix(5, 2147483647, 70, 70, 65, 1, 2)))  # large p
@example((3, np.zeros((4, 5), dtype=np.int64)))  # rank 0: every column is free
@example((7, random_matrix(13, 7, 6, 6, 6, 0, 0)))  # full rank: nothing is free
def test_nullspace_of_rref_matches_double_loop(case):
    p, A = case
    R, pivots, rank = rref_mod(A, p)
    N = nullspace_of_rref(R, pivots, p)
    assert N.dtype == np.int64 and N.shape == (A.shape[1] - rank, A.shape[1])
    assert N.tobytes() == nullspace_double_loop(R, pivots, p).tobytes()
    assert not np.any((A.astype(object) @ N.T.astype(object)) % p)
    assert nullspace_of_rref(R[:rank], pivots, p).tobytes() == N.tobytes()  # zero rows are not read
    assert nullspace_mod(A, p).tobytes() == N.tobytes()
