"""The matrix algebra: base operations over numpy matrices (Section 3.2).

These are the ``OP`` half of every relational matrix operation — the
analogue of the paper's MKL calls. All operations take/return 2-D
float64 arrays and are deterministic:

- ``qqr``/``rqr`` canonicalise the QR sign so that ``R`` has a
  non-negative diagonal (all backends then agree bit-for-bit up to
  floating error);
- ``evc``/``evl`` sort eigenpairs by descending ``|λ|`` (R's ``eigen``
  order) and raise on materially complex spectra, since relations store
  doubles;
- the SVD family follows the paper's shape types (Table 1): ``usv`` is
  the full n×n left-vector matrix, ``dsv`` the k×k diagonal matrix of
  singular values, ``vsv`` the n×1 vector of the singular values of
  ``m``, zero-padded to n rows — see DESIGN.md for the Table-1-vs-prose
  discrepancy this resolves. ``dsv``/``vsv`` compute the values only, no
  singular vectors.

The operations assume operands whose shapes the relational layer has
checked (``shapes.OPERAND_CONSTRAINTS``) and raise only on values.
"""
from __future__ import annotations

import numpy as np

_COMPLEX_TOL = 1e-9


# --- element-wise and multiplicative operations -------------------------

def emu(m: np.ndarray, n: np.ndarray) -> np.ndarray:
    """EMU: element-wise multiplication."""
    return m * n


def add(m: np.ndarray, n: np.ndarray) -> np.ndarray:
    """ADD: matrix addition."""
    return m + n


def sub(m: np.ndarray, n: np.ndarray) -> np.ndarray:
    """SUB: matrix subtraction."""
    return m - n


def mmu(m: np.ndarray, n: np.ndarray) -> np.ndarray:
    """MMU: matrix multiplication, ``i1×j1 · j1×j2 → i1×j2``."""
    return m @ n


def opd(m: np.ndarray, n: np.ndarray) -> np.ndarray:
    """OPD: outer product ``m·nᵀ``, ``i1×j1, i2×j1 → i1×i2``."""
    return m @ n.T


def cpd(m: np.ndarray, n: np.ndarray) -> np.ndarray:
    """CPD: cross product ``mᵀ·n``, ``i1×j1, i1×j2 → j1×j2``."""
    return m.T @ n


def tra(m: np.ndarray) -> np.ndarray:
    """TRA: transpose."""
    return m.T.copy()


def sol(m: np.ndarray, n: np.ndarray) -> np.ndarray:
    """SOL: solve ``m·x = n`` (least squares for non-square ``m``), ``→ j1×1``."""
    return np.linalg.lstsq(m, n, rcond=None)[0]


# --- decompositions and scalars ----------------------------------------

def inv(m: np.ndarray) -> np.ndarray:
    """INV: matrix inversion (square input)."""
    return np.linalg.inv(m)


def _qr_canonical(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    q, r = np.linalg.qr(m, mode="reduced")
    # Flip signs so diag(R) >= 0: unique QR for full-rank input, shared
    # by the LAPACK, Gram-Schmidt, and distributed CholeskyQR backends.
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs, signs[:, None] * r


def qqr(m: np.ndarray) -> np.ndarray:
    """QQR: the Q factor (reduced, ``i1×j1``) of the QR decomposition."""
    return _qr_canonical(m)[0]


def rqr(m: np.ndarray) -> np.ndarray:
    """RQR: the R factor (``j1×j1``) of the QR decomposition."""
    return _qr_canonical(m)[1]


def usv(m: np.ndarray) -> np.ndarray:
    """USV: full matrix of left singular vectors, ``i1×j1 → i1×i1``.

    Columns are sign-canonicalised (largest-magnitude entry positive).
    """
    u, _, _ = np.linalg.svd(m)
    return _sign_canonical_columns(u)


def _singular_values(m: np.ndarray, rows: int) -> np.ndarray:
    """The singular values of ``m``, descending and zero-padded to ``rows``; no singular vectors."""
    s = np.linalg.svd(m, compute_uv=False)
    return np.pad(s, (0, rows - len(s)))


def dsv(m: np.ndarray) -> np.ndarray:
    """DSV: diagonal matrix of singular values, ``i1×j1 → j1×j1``."""
    return np.diag(_singular_values(m, m.shape[1]))


def vsv(m: np.ndarray) -> np.ndarray:
    """VSV: the singular values of ``m`` as an n×1 column, zero-padded to n rows (Table 1)."""
    return _singular_values(m, m.shape[0]).reshape(-1, 1)


def _sign_canonical_columns(u: np.ndarray) -> np.ndarray:
    out = u.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        i = int(np.argmax(np.abs(col)))
        if col[i] < 0:
            out[:, j] = -col
    return out


def _eig_sorted(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w, v = np.linalg.eig(m)
    if np.max(np.abs(w.imag), initial=0.0) > _COMPLEX_TOL * max(1.0, np.max(np.abs(w.real), initial=0.0)):
        raise ValueError("the matrix has complex eigenvalues; relations store doubles (use a symmetric matrix)")
    order = np.argsort(-np.abs(w.real), kind="stable")
    return w.real[order], v.real[:, order]


def evl(m: np.ndarray) -> np.ndarray:
    """EVL: eigenvalues as an n×1 column, sorted by descending ``|λ|``."""
    w, _ = _eig_sorted(m)
    return w.reshape(-1, 1)


def evc(m: np.ndarray) -> np.ndarray:
    """EVC: eigenvectors (columns), order matching :func:`evl`, sign-canonical."""
    _, v = _eig_sorted(m)
    return _sign_canonical_columns(v)


def det(m: np.ndarray) -> np.ndarray:
    """DET: determinant as a 1×1 matrix."""
    return np.array([[np.linalg.det(m)]])


def rnk(m: np.ndarray) -> np.ndarray:
    """RNK: numerical rank as a 1×1 matrix."""
    return np.array([[float(np.linalg.matrix_rank(m))]])


def chf(m: np.ndarray) -> np.ndarray:
    """CHF: Cholesky factor, upper-triangular ``R`` with ``Rᵀ·R = m`` (R's ``chol``)."""
    if not np.allclose(m, m.T, atol=1e-8):
        raise ValueError("the matrix must be symmetric")
    try:
        return np.linalg.cholesky(m).T.copy()
    except np.linalg.LinAlgError as e:
        raise ValueError(f"the matrix must be positive definite: {e}") from None


#: Dispatch table from operation name to base implementation.
UNARY = {
    "tra": tra, "inv": inv, "evc": evc, "evl": evl, "qqr": qqr, "rqr": rqr,
    "dsv": dsv, "usv": usv, "vsv": vsv, "det": det, "rnk": rnk, "chf": chf,
}
BINARY = {
    "emu": emu, "add": add, "sub": sub, "mmu": mmu, "opd": opd, "cpd": cpd,
    "sol": sol,
}
