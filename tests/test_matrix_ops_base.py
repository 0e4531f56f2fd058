"""Tests for the base matrix algebra (numpy level) — Section 3.2 semantics."""
import tracemalloc

import numpy as np
import pytest

from repro.core import matrix_ops as M


def rand(n, k, seed=0):
    return np.random.default_rng(seed).random((n, k)) * 10 - 5


def rand_spd(n, seed=0):
    b = np.random.default_rng(seed).random((n, n))
    return b @ b.T + n * np.eye(n)


@pytest.mark.parametrize("n,k,seed", [(3, 3, 0), (5, 2, 1), (2, 5, 2), (8, 4, 3)])
class TestElementwise:
    def test_add(self, n, k, seed):
        a, b = rand(n, k, seed), rand(n, k, seed + 10)
        assert np.allclose(M.add(a, b), a + b)

    def test_sub(self, n, k, seed):
        a, b = rand(n, k, seed), rand(n, k, seed + 10)
        assert np.allclose(M.sub(a, b), a - b)

    def test_emu(self, n, k, seed):
        a, b = rand(n, k, seed), rand(n, k, seed + 10)
        assert np.allclose(M.emu(a, b), a * b)


@pytest.mark.parametrize("seed", range(4))
def test_mmu_matches_numpy(seed):
    a, b = rand(4, 3, seed), rand(3, 5, seed + 1)
    assert np.allclose(M.mmu(a, b), a @ b)


@pytest.mark.parametrize("seed", range(3))
def test_opd_is_m_nT(seed):
    a, b = rand(4, 3, seed), rand(6, 3, seed + 1)
    out = M.opd(a, b)
    assert out.shape == (4, 6)
    assert np.allclose(out, a @ b.T)


@pytest.mark.parametrize("seed", range(3))
def test_cpd_is_mT_n(seed):
    a, b = rand(5, 3, seed), rand(5, 2, seed + 1)
    out = M.cpd(a, b)
    assert out.shape == (3, 2)
    assert np.allclose(out, a.T @ b)


def test_tra():
    a = rand(4, 2)
    assert np.allclose(M.tra(a), a.T)


@pytest.mark.parametrize("n,seed", [(2, 0), (3, 1), (5, 2), (8, 3)])
def test_inv_times_m_is_identity(n, seed):
    a = rand(n, n, seed) + n * np.eye(n)
    assert np.allclose(M.inv(a) @ a, np.eye(n), atol=1e-8)


@pytest.mark.parametrize("seed", range(3))
def test_sol_exact_square(seed):
    a = rand(3, 3, seed) + 3 * np.eye(3)
    x = rand(3, 1, seed + 5)
    assert np.allclose(M.sol(a, a @ x), x, atol=1e-8)


def test_sol_least_squares_overdetermined():
    a = rand(10, 2, 7)
    b = rand(10, 1, 8)
    x = M.sol(a, b)
    expect, *_ = np.linalg.lstsq(a, b, rcond=None)
    assert np.allclose(x, expect)


@pytest.mark.parametrize("n,k,seed", [(4, 2, 0), (6, 3, 1), (5, 5, 2), (10, 4, 3)])
class TestQR:
    def test_reconstruction(self, n, k, seed):
        a = rand(n, k, seed)
        assert np.allclose(M.qqr(a) @ M.rqr(a), a, atol=1e-8)

    def test_q_orthonormal(self, n, k, seed):
        q = M.qqr(rand(n, k, seed))
        assert np.allclose(q.T @ q, np.eye(k), atol=1e-8)

    def test_r_upper_triangular_positive_diag(self, n, k, seed):
        r = M.rqr(rand(n, k, seed))
        assert np.allclose(r, np.triu(r))
        assert (np.diag(r) >= 0).all()

    def test_q_is_lapacks_q_with_flipped_columns(self, n, k, seed):
        """The in-place sign flip gives the bits of LAPACK's Q times the signs of diag(R)."""
        q, r = np.linalg.qr(rand(n, k, seed))
        signs = np.where(np.diag(r) < 0, -1.0, 1.0)
        assert M.qqr(rand(n, k, seed)).tobytes() == (q * signs).tobytes()


@pytest.mark.parametrize("n,k,seed", [(4, 2, 0), (3, 5, 1), (5, 5, 2)])
class TestSVD:
    def test_usv_shape_and_orthonormal(self, n, k, seed):
        u = M.usv(rand(n, k, seed))
        assert u.shape == (n, n)
        assert np.allclose(u.T @ u, np.eye(n), atol=1e-8)

    def test_dsv_is_diagonal_of_singular_values(self, n, k, seed):
        a = rand(n, k, seed)
        d = M.dsv(a)
        s = np.linalg.svd(a, compute_uv=False)
        assert d.shape == (k, k)
        assert np.allclose(np.diag(d)[: min(n, k)], s[: min(n, k)])
        assert np.allclose(d - np.diag(np.diag(d)), 0)

    def test_vsv_is_padded_singular_values(self, n, k, seed):
        a = rand(n, k, seed)
        v = M.vsv(a)
        s = np.linalg.svd(a, compute_uv=False)
        assert v.shape == (n, 1)
        assert np.allclose(v[: len(s), 0], s)
        assert np.allclose(v[len(s):, 0], 0)


@pytest.mark.parametrize("kernel", [M.dsv, M.vsv], ids=["dsv", "vsv"])
def test_singular_values_build_no_singular_vectors(kernel):
    """dsv/vsv compute values only: a full U of a 5000×3 input alone would take 200 MB."""
    a = rand(5000, 3)
    tracemalloc.start()
    try:
        kernel(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


@pytest.mark.parametrize("n,seed", [(2, 0), (4, 1), (6, 2)])
class TestEigen:
    def test_evl_matches_numpy_sorted(self, n, seed):
        a = rand_spd(n, seed)
        w = M.evl(a)[:, 0]
        expect = np.sort(np.linalg.eigvalsh(a))[::-1]
        assert np.allclose(w, expect, atol=1e-8)

    def test_evc_are_eigenvectors(self, n, seed):
        a = rand_spd(n, seed)
        w, v = M.evl(a)[:, 0], M.evc(a)
        for j in range(n):
            assert np.allclose(a @ v[:, j], w[j] * v[:, j], atol=1e-7)


def test_eigen_complex_spectrum_raises():
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])  # eigenvalues ±i
    with pytest.raises(ValueError, match="complex"):
        M.evl(rot)
    with pytest.raises(ValueError, match="complex"):
        M.evc(rot)


@pytest.mark.parametrize("n,seed", [(2, 0), (3, 1), (5, 2)])
def test_det_matches_numpy(n, seed):
    a = rand(n, n, seed)
    assert np.allclose(M.det(a), np.linalg.det(a))
    assert M.det(a).shape == (1, 1)


@pytest.mark.parametrize("n,k,r", [(4, 4, 4), (5, 3, 3), (4, 4, 2)])
def test_rnk(n, k, r):
    g = np.random.default_rng(0)
    a = g.random((n, r)) @ g.random((r, k))
    assert M.rnk(a)[0, 0] == r


@pytest.mark.parametrize("n,seed", [(2, 0), (4, 1), (6, 2)])
def test_chf_upper_and_reconstructs(n, seed):
    a = rand_spd(n, seed)
    u = M.chf(a)
    assert np.allclose(u, np.triu(u))
    assert np.allclose(u.T @ u, a, atol=1e-8)


def test_chf_rejects_non_symmetric():
    with pytest.raises(ValueError, match="symmetric"):
        M.chf(rand(3, 3))


def test_chf_rejects_non_positive_definite():
    with pytest.raises(ValueError, match="positive definite"):
        M.chf(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_dispatch_tables_cover_all_ops():
    assert len(M.UNARY) + len(M.BINARY) == 19
