"""Exact dense linear algebra over F_p on int64 numpy arrays.

All entries stay in [0, p) between operations; p < 2^31 keeps every
intermediate product inside int64, so results are exact.  `rref_mod` has
three routes, chosen from p and the shape alone, and none changes a result,
because the reduced row echelon form of a matrix is unique: R, its pivots
and rank, the nullspace read off it (`nullspace_of_rref`), and
`solve_mod`'s solution and dual certificate (each the free-variables-zero
solution of a system) do not depend on how they were eliminated.

- Bit rows over F_2: each row is packed into one Python int (bit j =
  column j), Gauss-Jordan takes one XOR per row update, and R is unpacked
  at the end (packed-row elimination, as in M4RI: Albrecht, Bard & Hart,
  ACM TOMS 2010).  It beat the plain loop at every measured size, from the
  3 x 3 systems of the rank searches to 1500 x 1500.
- Plain Gauss-Jordan, one pivot column at a time with the first nonzero
  entry as pivot, for odd p below the panels' size and for primes too
  large for them.
- Column panels, for odd p when both sides exceed `PANEL`, `rref_steps`
  reaches `PANEL_STEPS` and (PANEL+1)(p-1)^2 < 2^53: eliminating a copy of
  the narrow panel (by the same route, `SUBPANEL` columns at a time) finds
  its pivot columns C and pivot rows S, and one float64 matmul then clears
  the panel from every other row, M_i <- M_i - M_iC * (M_SC^-1 * M_S) mod p.  An updated entry
  is M_i's entry plus at most PANEL products below (p-1)^2, so float64
  holds it exactly and reduces it once (the delayed reduction of
  FFLAS-FFPACK, Dumas, Giorgi & Pernet 2008).  benchmarks/linalg_regimes.py
  times both routes on each side of `PANEL_STEPS`: over F_3 and F_7 the
  loop won or tied below about 3 * 10^6 steps (144 x 144, 400 x 73,
  78 x 261) and the panels won from there on, 1.3-4x.

`solve_mod` eliminates [A | b] once.  When A x = b has no solution, its
certificate y (y.A = 0, y.b = 1) solves [A | b]^T y = (0, ..., 0, 1): one
more solve with cols + 1 rows, never an array of rows x rows.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, VerificationError

# Unused here (every infeasible solve returns a certificate), but the
# `solve_mod` hook of perfbench/tracer.py reads it: delete the two together.
CERTIFICATE_ROW_LIMIT = 4096

# Column widths of the blocked route: panels, and the subpanels that find
# each panel's pivots; and the least `rref_steps` for which it is taken.
PANEL = 64
SUBPANEL = 8
PANEL_STEPS = 3 * 10**6


def as_mod_array(A, p: int) -> np.ndarray:
    M = np.asarray(A, dtype=np.int64) % p
    if M.ndim != 2:
        raise InputError("expected a 2-d array")
    return M


def _gauss_jordan(M: np.ndarray, p: int, order: np.ndarray | None = None) -> list[int]:
    """Reduce M to RREF in place; return the pivot columns.

    `order`, when given, has one entry per row and is permuted with the rows,
    so afterwards order[j] says where row j came from.
    """
    rows, cols = M.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(M[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            M[[r, i]] = M[[i, r]]
            if order is not None:
                order[[r, i]] = order[[i, r]]
        inv = pow(int(M[r, c]), p - 2, p)
        M[r] = (M[r] * inv) % p
        col = M[:, c].copy()
        col[r] = 0
        touched = np.nonzero(col)[0]
        if touched.size:
            M[touched] = (M[touched] - np.outer(col[touched], M[r])) % p
        pivots.append(c)
        r += 1
    return pivots


def _gauss_jordan_bits(M: np.ndarray) -> list[int]:
    """Reduce a 0/1 matrix to its RREF over F_2 in place; return the pivot
    columns.  Row i is held as one Python int, bit j its entry in column j,
    so clearing a pivot column from a row is one XOR."""
    rows, cols = M.shape
    if not M.size:
        return []
    width = -(-cols // 8)
    packed = np.packbits(M.astype(np.uint8), axis=1, bitorder="little").tobytes()
    R = [int.from_bytes(packed[i * width : (i + 1) * width], "little") for i in range(rows)]
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        bit = 1 << c
        for i in range(r, rows):
            if R[i] & bit:
                break
        else:
            continue
        pivot = R[i]
        R[i] = R[r]
        R = [v ^ pivot if v & bit else v for v in R]  # R[r] too, restored below
        R[r] = pivot
        pivots.append(c)
        r += 1
        if r == rows:
            break
    flat = np.frombuffer(b"".join(v.to_bytes(width, "little") for v in R), dtype=np.uint8)
    M[...] = np.unpackbits(flat.reshape(rows, width), axis=1, count=cols, bitorder="little")
    return pivots


def _gauss_jordan_panels(M: np.ndarray, p: int, width: int = PANEL, order: np.ndarray | None = None) -> list[int]:
    """Reduce M to RREF in place, `width` columns at a time; return the pivots.

    Rows above r hold the pivots found so far; rows from r on are zero left
    of the current panel.  A panel's own pivots are found the same way,
    SUBPANEL columns at a time.  Besides M, one (rows, cols) float64 array
    is held while a panel is cleared.  `order` is tracked as in
    `_gauss_jordan`.
    """
    rows, cols = M.shape
    pivots: list[int] = []
    r = 0
    for c0 in range(0, cols, width):
        if r == rows:
            break
        panel = M[r:, c0 : c0 + width].copy()
        came_from = np.arange(r, rows)
        if width > SUBPANEL and min(panel.shape) > SUBPANEL:
            found = _gauss_jordan_panels(panel, p, SUBPANEL, came_from)
        else:
            found = _gauss_jordan(panel, p, came_from)
        if not found:
            continue
        k = len(found)
        S = came_from[:k]
        C = [c0 + j for j in found]
        square = np.concatenate([M[np.ix_(S, C)], np.eye(k, dtype=np.int64)], axis=1)
        _gauss_jordan(square, p)
        inverse = square[:, k:].astype(np.float64)  # M_SC^-1
        U = np.fmod(inverse @ M[S, c0:].astype(np.float64), p).astype(np.int64)  # the new pivot rows
        # M_i - M_iC U as M_i + M_iC (-U mod p): a nonnegative float sum
        T = M[:, C].astype(np.float64) @ (-U % p).astype(np.float64)
        np.add(T, M[:, c0:], out=T)
        np.fmod(T, p, out=T)
        M[:, c0:] = T
        del T
        # pivot rows go to r..r+k-1; rows sitting there move to the slots S frees
        slots = set(range(r, r + k))
        picked = set(S.tolist())
        src, dst = sorted(slots - picked), sorted(picked - slots)
        M[dst] = M[src]
        M[r : r + k, c0:] = U
        if order is not None:
            origin = order[S]
            order[dst] = order[src]
            order[r : r + k] = origin
        pivots += C
        r += k
    return pivots


def rref_mod(A, p: int) -> tuple[np.ndarray, list[int], int]:
    """Reduced row echelon form; returns (R, pivot_columns, rank)."""
    M = as_mod_array(A, p)
    if p == 2:
        pivots = _gauss_jordan_bits(M)
    elif min(M.shape) > PANEL and rref_steps(*M.shape) >= PANEL_STEPS and (PANEL + 1) * (p - 1) ** 2 < 2**53:
        pivots = _gauss_jordan_panels(M, p)
    else:
        pivots = _gauss_jordan(M, p)
    return M, pivots, len(pivots)


def rank_mod(A, p: int) -> int:
    return rref_mod(A, p)[2]


def rref_steps(rows: int, cols: int) -> int:
    """The budget charge for eliminating a rows x cols matrix:
    rows * cols * min(rows, cols) element steps."""
    return rows * cols * min(rows, cols)


def matmul_mod(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """A @ B mod p, exactly, for int64 arrays with entries in [0, p) (stacked
    as `np.matmul` stacks them).  numpy multiplies integers without BLAS, so
    int64 is exact while the inner length times (p-1)^2 stays below 2^63;
    past that the product runs on Python integers."""
    if A.shape[-1] * (p - 1) ** 2 >= 2**63:
        return ((A.astype(object) @ B.astype(object)) % p).astype(np.int64)
    return (A @ B) % p


def nullspace_of_rref(R: np.ndarray, pivots: list[int], p: int) -> np.ndarray:
    """Right nullspace basis of a matrix with RREF R (zero rows optional) and
    these pivots: per free column f, 1 at f and -R[j, f] at pivot j's column."""
    cols = R.shape[1]
    is_free = np.ones(cols, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (-R[: len(pivots)][:, free].T) % p
    return basis


def nullspace_mod(A, p: int) -> np.ndarray:
    """Basis of the right nullspace, one vector per row; shape (dim, cols)."""
    R, pivots, _ = rref_mod(A, p)
    return nullspace_of_rref(R, pivots, p)


def inv_mod(A, p: int) -> np.ndarray:
    M = as_mod_array(A, p)
    n = M.shape[0]
    if M.shape[1] != n:
        raise InputError("matrix is not square")
    aug = np.concatenate([M, np.eye(n, dtype=np.int64)], axis=1)
    R, pivots, rank = rref_mod(aug, p)
    if rank < n or pivots[:n] != list(range(n)):
        raise InputError("matrix is singular mod p")
    return R[:, n:]


def solve_mod(A, b, p: int):
    """Solve A x = b over F_p.

    Returns (x, None) for a solution (free variables set to 0), or
    (None, y) where y is a checked dual certificate: y.A = 0 and y.b = 1,
    the free-variables-zero solution of [A | b]^T y = (0, ..., 0, 1).
    """
    M = as_mod_array(A, p)
    rows, cols = M.shape
    bv = np.asarray(b, dtype=np.int64).reshape(-1) % p
    if bv.shape[0] != rows:
        raise InputError("right-hand side length mismatch")
    Ab = np.concatenate([M, bv[:, None]], axis=1)
    R, pivots, _ = rref_mod(Ab, p)
    if cols not in pivots:
        x = np.zeros(cols, dtype=np.int64)
        x[pivots] = R[: len(pivots), cols]
        return x, None
    y, _ = solve_mod(Ab.T, np.eye(1, cols + 1, cols, dtype=np.int64), p)
    check_dual_certificate(M, bv, y, p)
    return None, y


def check_dual_certificate(A, b, y, p: int) -> None:
    """Raise VerificationError unless y.A = 0 and y.b != 0 mod p."""
    M = as_mod_array(A, p)
    yv = np.asarray(y, dtype=np.int64).reshape(1, -1) % p
    bv = np.asarray(b, dtype=np.int64).reshape(-1, 1) % p
    if yv.shape[1] != M.shape[0] or bv.shape[0] != M.shape[0]:
        raise VerificationError("dual certificate has the wrong length")
    if np.any(matmul_mod(yv, M, p)):
        raise VerificationError("dual certificate: y.A != 0 mod p")
    if not matmul_mod(yv, bv, p)[0, 0]:
        raise VerificationError("dual certificate: y.b = 0 mod p")


def row_space_leq(A, B, p: int) -> bool:
    """Whether rowspace(A) is contained in rowspace(B)."""
    A = as_mod_array(A, p)
    B = as_mod_array(B, p)
    if A.shape[1] != B.shape[1]:
        raise InputError("column count mismatch")
    rb = rank_mod(B, p)
    return rank_mod(np.concatenate([B, A]), p) == rb
