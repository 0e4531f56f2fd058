"""Columnwise kernels over lists of 1-D arrays ("BATs").

:func:`gauss_jordan_inv` is Algorithm 2 of the paper verbatim;
:func:`gram_schmidt_qr` is the Gram-Schmidt QQR baseline the paper
implements over BATs (§8.3, citing Gander's report). Only columnwise
vectorised operations (scale, axpy, dot) and scalar selection are used —
no 2-D BLAS calls — which is exactly why the paper measures these
kernels as slower than MKL for complex operations.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

Bats = list[np.ndarray]


def as_bats(m: np.ndarray) -> Bats:
    """Split a 2-D matrix into its list-of-columns ("BAT") representation."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    return [a[:, j].copy() for j in range(a.shape[1])]


def from_bats(bats: Sequence[np.ndarray]) -> np.ndarray:
    """Stack BAT columns back into a 2-D matrix."""
    if not bats:
        return np.empty((0, 0))
    return np.column_stack([np.asarray(b, dtype=np.float64) for b in bats])


def _sel(bat: np.ndarray, i: int) -> float:
    """``sel(B, i)``: the i-th value of a BAT (the only element access used)."""
    return float(bat[i])


def id_matrix(n: int) -> Bats:
    """``IDmatrix(n)``: identity matrix as a list of BATs."""
    out = []
    for j in range(n):
        col = np.zeros(n)
        col[j] = 1.0
        out.append(col)
    return out


def gauss_jordan_inv(b: Sequence[np.ndarray]) -> Bats:
    """Matrix inversion by Gauss-Jordan elimination over BATs (Algorithm 2).

    Takes a list of n BATs of length n (the columns of a square matrix)
    and returns the inverse as a list of BATs. All updates are
    whole-column operations (``B_i / v``, ``B_j - B_i * v``); pivots are
    read with ``sel``. No pivoting beyond the diagonal is performed, as
    in the paper; a zero pivot raises.
    """
    b = [np.asarray(c, dtype=np.float64).copy() for c in b]
    n = len(b)
    if n == 0 or any(len(c) != n for c in b):
        raise ValueError("Gauss-Jordan inversion requires a square, non-empty matrix")
    br = id_matrix(n)
    for i in range(n):
        v1 = _sel(b[i], i)
        if v1 == 0.0:
            raise ValueError(f"zero pivot at position {i}; matrix is singular for Algorithm 2")
        b[i] = b[i] / v1
        br[i] = br[i] / v1
        for j in range(n):
            if i != j:
                v2 = _sel(b[j], i)
                b[j] = b[j] - b[i] * v2
                br[j] = br[j] - br[i] * v2
    return br


def gram_schmidt_qr(b: Sequence[np.ndarray]) -> tuple[Bats, Bats]:
    """QR decomposition by modified Gram-Schmidt over BATs.

    Returns ``(Q, R)`` as lists of BATs: Q has k columns of length n,
    R has k columns of length k. Operations per column: dot products
    (``sum(B1*B2)``) and axpy updates — all reducible to BAT primitives.
    The R diagonal is non-negative by construction, matching the
    canonical form of :mod:`repro.core.matrix_ops`. A column whose
    residual norm is at most ``n·u·‖a_j‖`` (``a_j`` the input column, ``u``
    the unit roundoff) is in the span of the previous columns up to
    rounding, so the input is rank-deficient and raises.
    """
    q = [np.asarray(c, dtype=np.float64).copy() for c in b]
    k = len(q)
    if k == 0:
        return [], []
    tol = len(q[0]) * np.finfo(np.float64).eps / 2
    r = [np.zeros(k) for _ in range(k)]
    for j in range(k):
        floor = tol * float(np.sqrt(np.dot(q[j], q[j])))
        for i in range(j):
            rij = float(np.dot(q[i], q[j]))
            r[j][i] = rij
            q[j] = q[j] - rij * q[i]
        norm = float(np.sqrt(np.dot(q[j], q[j])))
        if norm <= floor:
            raise ValueError(f"rank-deficient input: column {j} is in the span of previous columns")
        r[j][j] = norm
        q[j] = q[j] / norm
    return q, r


def col_add(a: Sequence[np.ndarray], b: Sequence[np.ndarray]) -> Bats:
    """Element-wise ``add`` over BAT lists (one vectorised op per column)."""
    if len(a) != len(b):
        raise ValueError(f"column counts differ: {len(a)} vs {len(b)}")
    return [np.asarray(x, dtype=np.float64) + np.asarray(y, dtype=np.float64) for x, y in zip(a, b)]


def col_sub(a: Sequence[np.ndarray], b: Sequence[np.ndarray]) -> Bats:
    """Element-wise ``sub`` over BAT lists."""
    if len(a) != len(b):
        raise ValueError(f"column counts differ: {len(a)} vs {len(b)}")
    return [np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64) for x, y in zip(a, b)]


def col_emu(a: Sequence[np.ndarray], b: Sequence[np.ndarray]) -> Bats:
    """Element-wise ``emu`` over BAT lists."""
    if len(a) != len(b):
        raise ValueError(f"column counts differ: {len(a)} vs {len(b)}")
    return [np.asarray(x, dtype=np.float64) * np.asarray(y, dtype=np.float64) for x, y in zip(a, b)]
