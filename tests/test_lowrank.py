import numpy as np
import pytest

from confshare.autodiff import Tape, Tensor, sum_all
from confshare.blocks import apply_linear, init_tensor
from confshare.lowrank import LowRankFactors, LowRankSpec, check_rank_reduces
from conftest import assert_params_match_fd
from oracles import fold_sigma, lowrank_param_count, mul, svd_truncate


def _factored_linear(m, n, k, rng):
    """Trainable (m, k) and (n, k) factors with the block init, and a zero bias."""
    check_rank_reduces(m, n, k)
    w = LowRankFactors(init_tensor((m, k), "matrix", rng), init_tensor((n, k), "matrix", rng))
    return w, init_tensor((n,), "zeros", rng)


class TestLowRankForward:
    def test_zero_input_returns_bias_rows(self, rng):
        w, b = _factored_linear(6, 4, 2, rng)
        b.data[...] = rng.uniform(-1, 1, (4,))
        out = apply_linear(Tensor(np.zeros((3, 6))), w, b)
        for row in out.data:
            assert np.array_equal(row, b.data)

    def test_full_rank_embedding_equals_dense(self, rng):
        # U = M with V = I reconstructs x @ M + b exactly; built raw since
        # check_rank_reduces (rightly) refuses non-reducing ranks.
        m = rng.uniform(-1, 1, (5, 3))
        b = rng.uniform(-1, 1, (3,))
        x = rng.uniform(-1, 1, (4, 5))
        w = LowRankFactors(Tensor(m), Tensor(np.eye(3)))
        out = apply_linear(Tensor(x), w, Tensor(b))
        assert np.max(np.abs(out.data - (x @ m + b))) < 1e-12

    def test_against_dense_materialization_oracle(self, rng):
        m, n, k = 12, 7, 3
        w, b = _factored_linear(m, n, k, rng)
        b.data[...] = rng.uniform(-1, 1, (n,))
        x = rng.uniform(-1, 1, (9, m))
        dense = w.u.data @ w.v.data.T  # oracle forms the m x n product
        out = apply_linear(Tensor(x), w, b)
        assert np.max(np.abs(out.data - (x @ dense + b.data))) < 1e-12

    def test_never_materializes_dense_product(self, rng):
        m, n, k, T = 40, 30, 3, 5
        w, b = _factored_linear(m, n, k, rng)
        x = Tensor(rng.uniform(-1, 1, (T, m)))
        out = apply_linear(x, w, b)
        shapes = [node.shape for node in Tape.trace(out).nodes if node.op is not None]
        assert (m, n) not in shapes
        total = sum(int(np.prod(s)) for s in shapes)
        assert total <= T * k + 2 * T * n

    def test_gradients(self, rng):
        w, b = _factored_linear(6, 5, 2, rng)
        x = Tensor(rng.uniform(-1, 1, (4, 6)))
        c = Tensor(rng.uniform(-1, 1, (4, 5)))

        def make_loss():
            return sum_all(mul(apply_linear(x, w, b), c))

        assert_params_match_fd({"u": w.u, "v": w.v, "b": b}, make_loss)


class TestParamCount:
    def test_formula(self):
        assert lowrank_param_count(100, 100, 10, with_bias=True) == 2100
        assert 100 * 100 + 100 == 10100  # dense comparison point

    def test_boundary_rank_rejected(self):
        m, n = 8, 5
        k = min(m, n)
        assert lowrank_param_count(m, n, k, with_bias=False) >= m * n
        with pytest.raises(ValueError, match="does not reduce"):
            check_rank_reduces(m, n, k)

    def test_published_feedforward_shape(self):
        # d=144 with expansion 4: dense 144x576 weight plus bias vs rank 50
        dense_with_bias = 144 * 576 + 576
        assert dense_with_bias == 83520
        assert lowrank_param_count(144, 576, 50, with_bias=False) == 50 * (144 + 576) == 36000
        assert lowrank_param_count(144, 576, 50, with_bias=True) == 36576
        assert dense_with_bias / 36576 == pytest.approx(2.29, abs=0.01)

    def test_spec_validates(self):
        with pytest.raises(ValueError, match=">= 1"):
            LowRankSpec(k=0)


class TestSvdTruncate:
    def test_rank_one_exact(self, rng):
        a = rng.uniform(-1, 1, (6,))
        b = rng.uniform(-1, 1, (4,))
        m = np.outer(a, b)
        r = svd_truncate(m, 1)
        recon = r.u @ np.diag(r.sigma) @ r.v.T
        assert np.max(np.abs(recon - m)) < 1e-10

    def test_diagonal_case(self):
        r = svd_truncate(np.diag([3.0, 2.0, 1.0]), 3)
        assert np.allclose(r.sigma, [3.0, 2.0, 1.0], atol=1e-12)

    def test_against_eigendecomposition_oracle(self, rng):
        m = rng.uniform(-1, 1, (8, 5))
        # oracle: singular values from the spectrum of M^T M
        eigs = np.linalg.eigvalsh(m.T @ m)
        sigma_oracle = np.sqrt(np.clip(eigs, 0.0, None))[::-1]
        errors = []
        for k in range(1, 6):
            r = svd_truncate(m, k)
            assert np.max(np.abs(r.sigma - sigma_oracle[:k])) < 1e-8
            err = np.linalg.norm(m - r.u @ np.diag(r.sigma) @ r.v.T)
            expected_err = np.sqrt(np.sum(sigma_oracle[k:] ** 2))
            assert abs(err - expected_err) < 1e-8
            errors.append(err)
        assert all(errors[i] >= errors[i + 1] - 1e-12 for i in range(len(errors) - 1))

    def test_orthonormal_columns(self, rng):
        m = rng.uniform(-1, 1, (7, 6))
        r = svd_truncate(m, 4)
        assert np.max(np.abs(r.u.T @ r.u - np.eye(4))) < 1e-8
        assert np.max(np.abs(r.v.T @ r.v - np.eye(4))) < 1e-8
        assert all(r.sigma[i] >= r.sigma[i + 1] for i in range(3))

    def test_wide_matrix(self, rng):
        m = rng.uniform(-1, 1, (4, 9))
        r = svd_truncate(m, 2)
        ref = np.linalg.svd(m, compute_uv=False)
        assert np.max(np.abs(r.sigma - ref[:2])) < 1e-8

    def test_eckart_young_spot_check(self, rng):
        m = rng.uniform(-1, 1, (6, 6))
        k = 2
        r = svd_truncate(m, k)
        best = np.linalg.norm(m - r.u @ np.diag(r.sigma) @ r.v.T)
        for _ in range(1000):
            u = rng.uniform(-1, 1, (6, k))
            v = rng.uniform(-1, 1, (6, k))
            assert np.linalg.norm(m - u @ v.T) >= best - 1e-12

    def test_input_validation(self):
        with pytest.raises(ValueError, match="oracle"):
            svd_truncate(np.zeros((600, 2)), 1)
        with pytest.raises(ValueError, match="k must be"):
            svd_truncate(np.zeros((4, 4)), 5)


class TestFoldSigma:
    def test_identity_fold(self, rng):
        m = rng.uniform(-1, 1, (5, 5))
        r = svd_truncate(m, 3)
        r.sigma[...] = 1.0
        u2, v2 = fold_sigma(r)
        assert np.array_equal(u2, r.u)
        assert np.array_equal(v2, r.v)

    def test_rank_one_reconstruction(self, rng):
        m = np.outer(rng.uniform(-1, 1, (6,)), rng.uniform(-1, 1, (4,)))
        u2, v2 = fold_sigma(svd_truncate(m, 1))
        assert np.max(np.abs(u2 @ v2.T - m)) < 1e-10

    def test_fold_equals_unfolded_product(self, rng):
        m = rng.uniform(-1, 1, (6, 4))
        r = svd_truncate(m, 2)
        u2, v2 = fold_sigma(r)
        assert np.max(np.abs(u2 @ v2.T - r.u @ np.diag(r.sigma) @ r.v.T)) < 1e-10
