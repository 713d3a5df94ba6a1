"""Exact linear algebra mod p: the three RREF routes against sympy's
DomainMatrix and the bit rows over F_2 against the plain loop, nullspaces and
solutions and dual certificates, and the memory of the panel route and of
tall infeasible solves."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
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
    PANEL_STEPS,
    as_mod_array,
    check_dual_certificate,
    inv_mod,
    matmul_mod,
    nullspace_mod,
    nullspace_of_rref,
    rank_mod,
    row_space_leq,
    rref_mod,
    rref_steps,
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


def test_nullspace_imports_no_masked_arrays():
    # np.setdiff1d imports numpy.ma on first use, 20-28 ms of a cold run
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import sys\n"
        "from rankforge.linalg import nullspace_mod\n"
        "assert nullspace_mod([[1, 2, 0], [0, 0, 1]], 5).tolist() == [[3, 1, 0]]\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


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


def takes_panels(A: np.ndarray, p: int) -> bool:
    """Whether `rref_mod` should take the panel route."""
    rows, cols = A.shape
    return p != 2 and min(rows, cols) > PANEL and rref_steps(rows, cols) >= PANEL_STEPS and (PANEL + 1) * (p - 1) ** 2 < 2**53


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(matrices())
@example((7, random_matrix(1, 7, 140, 160, 40, 3, 4)))  # panel route
@example((7, random_matrix(1, 7, 70, 75, 70, 3, 4)))  # both sides above PANEL, below PANEL_STEPS: plain route
@example((2, random_matrix(2, 2, 80, 66, 50, 2, 6)))  # bit rows, both sides above PANEL
@example((101, random_matrix(3, 101, 150, 200, 30, 0, 0)))  # panel route, rank deficient
@example((3, random_matrix(4, 3, 12, 9, 5, 2, 3)))  # plain route
@example((2147483647, random_matrix(5, 2147483647, 70, 70, 65, 1, 2)))  # large p: plain route
@example((11771657, random_matrix(6, 11771657, 140, 160, 30, 1, 2)))  # largest prime the panel route takes
def test_rref_matches_sympy(case):
    p, A = case
    before = A.copy()
    with (
        mock.patch.object(linalg, "_gauss_jordan_panels", wraps=linalg._gauss_jordan_panels) as panels,
        mock.patch.object(linalg, "_gauss_jordan_bits", wraps=linalg._gauss_jordan_bits) as bits,
    ):
        R, pivots, rank = rref_mod(A, p)
    assert np.array_equal(A, before)  # eliminated a copy
    assert panels.called == takes_panels(A, p) and bits.called == (p == 2)
    expect, expect_pivots = sympy_rref(A, p)
    assert R.dtype == np.int64 and R.shape == A.shape
    assert np.array_equal(R, expect)
    assert pivots == expect_pivots and rank == len(expect_pivots)


def plain_rref(A: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """R and the pivots by the plain Gauss-Jordan loop, the reference of the
    other routes."""
    M = as_mod_array(A, p)
    return M, linalg._gauss_jordan(M, p)


@st.composite
def f2_matrices(draw):
    """0/1 matrices of 0 to 90 rows and columns, of any rank, with zero
    columns and repeated rows; entries drawn past 1 are reduced mod 2."""
    rows = draw(st.integers(0, 90))
    cols = draw(st.integers(0, 90))
    if not rows * cols:
        return np.zeros((rows, cols), dtype=np.int64)
    rank = draw(st.integers(0, min(rows, cols)))
    A = random_matrix(draw(st.integers(0, 2**31 - 1)), 2, rows, cols, rank, draw(st.integers(0, 4)), draw(st.integers(0, 6)))
    return A + 2 * draw(st.integers(0, 3))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(f2_matrices())
@example(np.zeros((0, 5), dtype=np.int64))  # no rows
@example(np.zeros((4, 0), dtype=np.int64))  # no columns
@example(np.zeros((0, 0), dtype=np.int64))
@example(random_matrix(7, 2, 3000, 80, 60, 3, 40))  # tall: the battery's constraint systems are this shape
@example(random_matrix(8, 2, 9, 70, 9, 2, 0))  # wide, full row rank: the loop ends on the last row
def test_f2_bit_rows_match_the_plain_loop_and_sympy(A):
    R, pivots, rank = rref_mod(A, 2)
    expect, expect_pivots = plain_rref(A, 2)
    assert R.dtype == np.int64 and R.shape == A.shape
    assert np.array_equal(R, expect) and pivots == expect_pivots and rank == len(pivots)
    if A.size:
        sympy_R, sympy_pivots = sympy_rref(A % 2, 2)
        assert np.array_equal(R, sympy_R) and pivots == sympy_pivots


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(f2_matrices())
@example(np.zeros((0, 5), dtype=np.int64))  # no rows
@example(np.zeros((4, 0), dtype=np.int64))  # no columns
@example(np.zeros((0, 0), dtype=np.int64))
@example(np.ones((3, 3), dtype=np.int64))
def test_rref_bit_rows_matches_rref_mod(A):
    # the rows as ints, bit j = column j, reduced in place
    rows = [sum(int(c) % 2 << j for j, c in enumerate(row)) for row in A]
    pivots = linalg.rref_bit_rows(rows, A.shape[1])
    R, expect_pivots, _ = rref_mod(A, 2)
    assert pivots == expect_pivots and len(rows) == A.shape[0]
    assert rows == [sum(int(c) << j for j, c in enumerate(row)) for row in R]


@pytest.mark.parametrize("rows, cols, rank", [(80, 3000, 80), (400, 400, 390), (3000, 80, 80)])
def test_f2_bit_rows_on_large_shapes_match_the_plain_loop(rows, cols, rank):
    A = random_matrix(rows + cols, 2, rows, cols, rank, 5, 20)
    R, pivots, _ = rref_mod(A, 2)
    expect, expect_pivots = plain_rref(A, 2)
    assert np.array_equal(R, expect) and pivots == expect_pivots


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(f2_matrices(), st.booleans(), st.integers(0, 2**31 - 1))
def test_f2_solve_nullspace_and_inverse(A, feasible, seed):
    rows, cols = A.shape
    rng = np.random.RandomState(seed)
    b = (A @ rng.randint(0, 2, cols)) % 2 if feasible else rng.randint(0, 2, rows)
    x, y = solve_mod(A, b, 2)
    expect_x = sympy_solution(A % 2, b, 2) if rows else np.zeros(cols, dtype=np.int64)
    if expect_x is None:
        assert x is None and np.array_equal(y, sympy_dual(A % 2, b, 2))
        check_dual_certificate(A, b, y, 2)
    else:
        assert y is None and np.array_equal(x, expect_x) and not np.any((A @ x - b) % 2)
    N = nullspace_mod(A, 2)
    expect_R, expect_pivots = plain_rref(A, 2)
    assert N.shape == (cols - len(expect_pivots), cols) and not np.any((A @ N.T) % 2)
    assert np.array_equal(N, nullspace_of_rref(expect_R, expect_pivots, 2))
    square = A[: min(rows, cols), : min(rows, cols)] % 2
    if rank_mod(square, 2) == len(square):
        inverse = inv_mod(square, 2)
        assert np.array_equal((square @ inverse) % 2, np.eye(len(square), dtype=np.int64))
    else:
        with pytest.raises(InputError, match="singular"):
            inv_mod(square, 2)


def test_panel_route_dual_certificate_on_tall_infeasible_system():
    p = 7
    A = random_matrix(11, p, 700, 70, 20, 2, 10)
    assert takes_panels(A, p)
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


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(matrices(), st.booleans(), st.integers(0, 2**31 - 1))
@example((7, random_matrix(10, 7, 100, 70, 50, 2, 10)), False, 12)  # tall, infeasible
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


def python_product(A: np.ndarray, B: np.ndarray, p: int) -> list:
    """A @ B mod p in Python integers, one row-by-column sum at a time."""
    return [[sum(int(a) * int(b) for a, b in zip(row, col)) % p for col in zip(*B.tolist())] for row in A.tolist()]


@pytest.mark.parametrize("p", [2, 7, 11771657, 2**31 - 1])
def test_matmul_mod_matches_python_int_products(p):
    # weak_space's products F K[L] (stacked over L) and K N^T; past
    # `longest` the inner sums leave int64 and must still be exact
    rng = np.random.RandomState(p % 1000)
    longest = (2**63 - 1) // (p - 1) ** 2  # the longest inner length int64 holds
    lengths = [1, 2, 7, 40] + ([longest, longest + 1] if longest < 10**5 else [])
    for n in lengths:
        top = np.full((1, n), p - 1, dtype=np.int64)  # the largest inner sum
        for A, B in ((rng.randint(0, p, (2, n)), rng.randint(0, p, (n, 3))), (top, top.T)):
            got = matmul_mod(A, B, p)
            assert got.dtype == np.int64 and got.tolist() == python_product(A, B, p)
        if n > longest:  # the plain int64 product is wrong here
            assert ((top @ top.T) % p).tolist() != python_product(top, top.T, p)
    F = rng.randint(0, p, (5, 7))
    K = rng.randint(0, p, (6, 7, 3))  # K's rows at the points of six subspaces
    got = matmul_mod(F, K, p)
    assert got.shape == (6, 5, 3) and [g.tolist() for g in got] == [python_product(F, k, p) for k in K]
