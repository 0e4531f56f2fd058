"""Columnwise BAT kernels: Algorithm 2, Gram-Schmidt QR, sparse columns."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batops import kernels, sparse


def rand(n, k, seed=0):
    return np.random.default_rng(seed).random((n, k)) * 10 - 5


class TestBatsRepresentation:
    def test_roundtrip(self):
        m = rand(4, 3)
        assert np.allclose(kernels.from_bats(kernels.as_bats(m)), m)

    def test_as_bats_requires_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            kernels.as_bats(np.ones(3))

    def test_from_bats_empty(self):
        assert kernels.from_bats([]).shape == (0, 0)

    def test_id_matrix(self):
        assert np.allclose(kernels.from_bats(kernels.id_matrix(4)), np.eye(4))


class TestGaussJordan:
    @pytest.mark.parametrize("n,seed", [(1, 0), (2, 1), (4, 2), (8, 3), (16, 4)])
    def test_matches_numpy(self, n, seed):
        m = rand(n, n, seed) + n * np.eye(n)
        got = kernels.from_bats(kernels.gauss_jordan_inv(kernels.as_bats(m)))
        assert np.allclose(got, np.linalg.inv(m), atol=1e-8)

    def test_inverse_property(self):
        m = rand(5, 5, 9) + 5 * np.eye(5)
        got = kernels.from_bats(kernels.gauss_jordan_inv(kernels.as_bats(m)))
        assert np.allclose(got @ m, np.eye(5), atol=1e-8)

    def test_zero_pivot_raises(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])  # invertible but pivot 0
        with pytest.raises(ValueError, match="zero pivot"):
            kernels.gauss_jordan_inv(kernels.as_bats(m))

    def test_non_square_raises(self):
        with pytest.raises(ValueError, match="square"):
            kernels.gauss_jordan_inv(kernels.as_bats(rand(3, 2)))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10**6))
    def test_property_random(self, n, seed):
        m = rand(n, n, seed) + n * np.eye(n)
        got = kernels.from_bats(kernels.gauss_jordan_inv(kernels.as_bats(m)))
        assert np.allclose(got, np.linalg.inv(m), atol=1e-6)


class TestGramSchmidt:
    @pytest.mark.parametrize("n,k,seed", [(4, 2, 0), (10, 4, 1), (50, 7, 2)])
    def test_qr_reconstructs(self, n, k, seed):
        m = rand(n, k, seed)
        q, r = kernels.gram_schmidt_qr(kernels.as_bats(m))
        qm, rm = kernels.from_bats(q), kernels.from_bats(r)
        assert np.allclose(qm @ rm, m, atol=1e-8)
        assert np.allclose(qm.T @ qm, np.eye(k), atol=1e-8)

    def test_matches_lapack_canonical_form(self):
        from repro.core import matrix_ops as M

        m = rand(20, 5, 3)
        q, r = kernels.gram_schmidt_qr(kernels.as_bats(m))
        assert np.allclose(kernels.from_bats(q), M.qqr(m), atol=1e-7)
        assert np.allclose(kernels.from_bats(r), M.rqr(m), atol=1e-7)

    def test_rank_deficient_raises(self):
        m = np.ones((4, 2))
        with pytest.raises(ValueError, match="rank-deficient"):
            kernels.gram_schmidt_qr(kernels.as_bats(m))

    def test_ill_conditioned_full_rank_bound(self):
        """MGS at κ=1e6 passes, with ‖QᵀQ−I‖₂ ≤ c·κ·u for c = 10."""
        g = np.random.default_rng(1)
        n, k, kappa = 4000, 10, 1e6
        u_, _ = np.linalg.qr(g.standard_normal((n, k)))
        v_, _ = np.linalg.qr(g.standard_normal((k, k)))
        m = (u_ * np.logspace(0, -np.log10(kappa), k)) @ v_.T
        q = kernels.from_bats(kernels.gram_schmidt_qr(kernels.as_bats(m))[0])
        assert np.linalg.norm(q.T @ q - np.eye(k), 2) <= 10 * kappa * np.finfo(np.float64).eps / 2

    def test_empty(self):
        q, r = kernels.gram_schmidt_qr([])
        assert q == [] and r == []


@pytest.mark.parametrize("op,ref", [
    (kernels.col_add, np.add),
    (kernels.col_sub, np.subtract),
    (kernels.col_emu, np.multiply),
])
def test_col_linear_kernels(op, ref):
    a, b = rand(6, 3, 1), rand(6, 3, 2)
    got = kernels.from_bats(op(kernels.as_bats(a), kernels.as_bats(b)))
    assert np.allclose(got, ref(a, b))


@pytest.mark.parametrize("op", [kernels.col_add, kernels.col_sub, kernels.col_emu])
def test_col_linear_mismatch_raises(op):
    with pytest.raises(ValueError, match="column counts differ"):
        op(kernels.as_bats(rand(3, 2)), kernels.as_bats(rand(3, 3)))


class TestSparse:
    @pytest.mark.parametrize("frac", [0.0, 0.3, 0.9, 1.0])
    def test_roundtrip(self, frac):
        g = np.random.default_rng(0)
        col = g.random(1000)
        col[g.random(1000) < frac] = 0.0
        sc = sparse.from_dense(col)
        assert np.allclose(sc.to_dense(), col)
        assert sc.nnz == np.count_nonzero(col)

    @pytest.mark.parametrize("fa,fb,seed", [(0.0, 0.0, 0), (0.5, 0.5, 1), (0.9, 0.1, 2), (1.0, 1.0, 3)])
    def test_sparse_add_matches_dense(self, fa, fb, seed):
        g = np.random.default_rng(seed)
        a, b = g.random(500), g.random(500)
        a[g.random(500) < fa] = 0.0
        b[g.random(500) < fb] = 0.0
        out = sparse.sparse_add(sparse.from_dense(a), sparse.from_dense(b))
        assert np.allclose(out.to_dense(), a + b)

    def test_cancellation_removes_entries(self):
        a = np.array([1.0, 0.0, 2.0])
        b = np.array([-1.0, 0.0, 3.0])
        out = sparse.sparse_add(sparse.from_dense(a), sparse.from_dense(b))
        assert out.nnz == 1
        assert np.allclose(out.to_dense(), [0.0, 0.0, 5.0])

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="lengths differ"):
            sparse.sparse_add(sparse.from_dense(np.ones(3)), sparse.from_dense(np.ones(4)))

    def test_sparse_add_cols(self):
        a, b = rand(100, 4, 5), rand(100, 4, 6)
        a[a < 0] = 0.0
        b[b < 0] = 0.0
        sa = [sparse.from_dense(c) for c in kernels.as_bats(a)]
        sb = [sparse.from_dense(c) for c in kernels.as_bats(b)]
        out = sparse.sparse_add_cols(sa, sb)
        assert np.allclose(kernels.from_bats([c.to_dense() for c in out]), a + b)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.floats(min_value=-5, max_value=5).map(lambda x: 0.0 if abs(x) < 2 else x), min_size=0, max_size=40),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_property_sparse_add(self, vals, seed):
        a = np.array(vals, dtype=np.float64)
        g = np.random.default_rng(seed)
        b = g.random(len(a))
        b[g.random(len(a)) < 0.5] = 0.0
        out = sparse.sparse_add(sparse.from_dense(a), sparse.from_dense(b))
        assert np.allclose(out.to_dense(), a + b)
