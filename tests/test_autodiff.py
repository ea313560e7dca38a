import math

import mpmath
import numpy as np
import pytest

from confshare.autodiff import (NonFiniteError, Rng, ShapeError, Tape, Tensor,
                                add, backward, depthwise_conv1d,
                                finite_diff_grad, glu, layer_norm, matmul,
                                mul, relative_error, scale, softmax, sum_all,
                                swish, zero_grads)
from conftest import assert_params_match_fd, bound_block, rand_tensor


class TestRng:
    def test_matches_pure_python_splitmix(self):
        # independent oracle: textbook SplitMix64 with python ints
        def oracle(seed, count):
            mask = (1 << 64) - 1
            out, z = [], seed
            for _ in range(count):
                z = (z + 0x9E3779B97F4A7C15) & mask
                x = z
                x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
                x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
                out.append(x ^ (x >> 31))
            return out

        rng = Rng(42)
        assert rng._raw(5).tolist() == oracle(42, 5)
        # continuation picks up where the counter left off
        assert rng._raw(3).tolist() == oracle(42, 8)[5:]

    def test_same_seed_same_stream(self):
        a = Rng(7).uniform(-1, 1, (64,))
        b = Rng(7).uniform(-1, 1, (64,))
        assert a.tobytes() == b.tobytes()

    def test_derived_streams_differ(self):
        base = Rng(7)
        a = base.derive("weights").uniform(0, 1, (8,))
        b = base.derive("biases").uniform(0, 1, (8,))
        assert not np.allclose(a, b)

    def test_integers_in_range(self):
        draws = Rng(3).integers(5, (1000,))
        assert draws.min() >= 0 and draws.max() <= 4
        assert set(np.unique(draws)) == {0, 1, 2, 3, 4}


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = matmul(Tensor(np.eye(2)), a)
        assert np.array_equal(out.data, a.data)

    def test_hand_expansion(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0], [6.0]]))
        assert np.array_equal(out.data, [[17.0], [39.0]])

    def test_against_triple_loop_oracle(self, rng):
        a = rng.uniform(-1, 1, (7, 3))
        b = rng.uniform(-1, 1, (3, 5))
        expected = np.zeros((7, 5))
        for i in range(7):
            for j in range(5):
                acc = 0.0
                for t in range(3):
                    acc += a[i][t] * b[t][j]
                expected[i][j] = acc
        out = matmul(Tensor(a), Tensor(b))
        assert np.max(np.abs(out.data - expected)) < 1e-12

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_transpose_b(self, rng):
        a = rand_tensor(rng, (4, 6))
        b = rand_tensor(rng, (5, 6))
        out = matmul(a, b, transpose_b=True)
        assert np.array_equal(out.data, a.data @ b.data.T)

    def test_batched_3d(self, rng):
        a = rng.uniform(-1, 1, (3, 4, 2))
        b = rng.uniform(-1, 1, (3, 2, 5))
        out = matmul(Tensor(a), Tensor(b))
        for h in range(3):
            assert np.array_equal(out.data[h], a[h] @ b[h])

    @pytest.mark.parametrize("transpose_b", [False, True])
    def test_gradients(self, rng, transpose_b):
        a = rand_tensor(rng, (4, 3), requires_grad=True)
        b = rand_tensor(rng, (5, 3) if transpose_b else (3, 5), requires_grad=True)
        c = Tensor(rng.uniform(-1, 1, (4, 5)))

        def make_loss():
            return sum_all(mul(matmul(a, b, transpose_b=transpose_b), c))

        assert_params_match_fd({"a": a, "b": b}, make_loss)


class TestLayerNorm:
    def test_zero_variance(self):
        out = layer_norm(Tensor([1.0, 1.0, 1.0]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        assert np.allclose(out.data, 0.0)

    def test_already_normalized(self):
        out = layer_norm(Tensor([1.0, -1.0]), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                         eps=1e-12)
        assert np.max(np.abs(out.data - [1.0, -1.0])) < 1e-9

    def test_output_mean_is_zero(self, rng):
        x = rand_tensor(rng, (16,), scale=3.0)
        out = layer_norm(x, Tensor(np.ones(16)), Tensor(np.zeros(16)))
        assert abs(out.data.mean()) < 1e-12

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError, match="eps"):
            layer_norm(Tensor([1.0, 2.0]), Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=0.0)

    def test_gradients(self, rng):
        x = rand_tensor(rng, (4, 6), requires_grad=True)
        gamma = rand_tensor(rng, (6,), requires_grad=True)
        beta = rand_tensor(rng, (6,), requires_grad=True)
        c = Tensor(rng.uniform(-1, 1, (4, 6)))

        def make_loss():
            return sum_all(mul(layer_norm(x, gamma, beta), c))

        assert_params_match_fd({"x": x, "gamma": gamma, "beta": beta}, make_loss)


class TestSoftmax:
    def test_symmetry(self):
        out = softmax(Tensor([0.0, 0.0, 0.0]))
        assert np.allclose(out.data, 1.0 / 3.0)

    def test_stability(self):
        out = softmax(Tensor([1000.0, 0.0]))
        assert np.all(np.isfinite(out.data))
        assert out.data[0] > 1.0 - 1e-12 and out.data[1] < 1e-12

    def test_against_extended_precision_oracle(self, rng):
        x = rng.uniform(-4, 4, (9,))
        with mpmath.workdps(50):
            exps = [mpmath.exp(mpmath.mpf(float(v))) for v in x]
            total = mpmath.fsum(exps)
            expected = np.array([float(e / total) for e in exps])
        out = softmax(Tensor(x))
        assert np.max(np.abs(out.data - expected)) < 1e-12
        assert abs(out.data.sum() - 1.0) < 1e-12

    def test_sums_to_one_at_large_magnitude(self, rng):
        x = rand_tensor(rng, (20, 7), scale=1e3)
        out = softmax(x)
        assert np.max(np.abs(out.data.sum(axis=-1) - 1.0)) < 1e-12

    def test_gradients(self, rng):
        x = rand_tensor(rng, (3, 5), requires_grad=True)
        c = Tensor(rng.uniform(-1, 1, (3, 5)))

        def make_loss():
            return sum_all(mul(softmax(x), c))

        assert_params_match_fd({"x": x}, make_loss)


class TestActivations:
    def test_swish_zero(self):
        assert swish(Tensor([0.0])).data[0] == 0.0

    def test_glu_half(self):
        out = glu(Tensor([1.0, 0.0]))
        assert out.shape == (1,)
        assert out.data[0] == 0.5

    def test_swish_one_high_precision(self):
        with mpmath.workdps(50):
            expected = float(1 / (1 + mpmath.exp(-1)))
        assert expected == 0.7310585786300049
        assert abs(swish(Tensor([1.0])).data[0] - expected) < 1e-15

    def test_glu_rejects_odd_extent(self):
        with pytest.raises(ShapeError, match="even"):
            glu(Tensor([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("op,shape", [pytest.param(swish, (4, 3), id="swish-shape0"),
                                          pytest.param(glu, (4, 6), id="glu-shape2")])
    def test_gradients(self, rng, op, shape):
        x = rand_tensor(rng, shape, requires_grad=True, scale=2.0)
        out_shape = shape if op is not glu else (shape[0], shape[1] // 2)
        c = Tensor(rng.uniform(-1, 1, out_shape))

        def make_loss():
            return sum_all(mul(op(x), c))

        assert_params_match_fd({"x": x}, make_loss)


class TestDepthwiseConv:
    def test_center_delta_kernel_is_identity(self, rng):
        x = rand_tensor(rng, (9, 4))
        kernel = np.zeros((5, 4))
        kernel[2] = 1.0
        out = depthwise_conv1d(x, Tensor(kernel))
        assert np.array_equal(out.data, x.data)

    def test_constant_input_all_ones_kernel(self):
        x = Tensor(np.ones((6, 3)))
        out = depthwise_conv1d(x, Tensor(np.ones((3, 3))))
        assert np.all(out.data[1:-1] == 3.0)
        assert np.all(out.data[0] == 2.0) and np.all(out.data[-1] == 2.0)

    def test_against_sliding_window_oracle(self, rng):
        T, d, w = 11, 4, 5
        x = rng.uniform(-1, 1, (T, d))
        k = rng.uniform(-1, 1, (w, d))
        half = (w - 1) // 2
        expected = np.zeros((T, d))
        for t in range(T):
            for c in range(d):
                acc = 0.0
                for j in range(w):
                    src = t + j - half
                    if 0 <= src < T:
                        acc += k[j][c] * x[src][c]
                expected[t][c] = acc
        out = depthwise_conv1d(Tensor(x), Tensor(k))
        assert np.max(np.abs(out.data - expected)) < 1e-12

    def test_rejects_even_width(self):
        with pytest.raises(ShapeError, match="odd"):
            depthwise_conv1d(Tensor(np.ones((4, 2))), Tensor(np.ones((2, 2))))

    def test_gradients(self, rng):
        x = rand_tensor(rng, (7, 3), requires_grad=True)
        k = rand_tensor(rng, (3, 3), requires_grad=True)
        c = Tensor(rng.uniform(-1, 1, (7, 3)))

        def make_loss():
            return sum_all(mul(depthwise_conv1d(x, k), c))

        assert_params_match_fd({"x": x, "k": k}, make_loss)


class TestBackward:
    def test_linear_case_replicates_input(self, rng):
        w = rand_tensor(rng, (3, 4), requires_grad=True)
        x = rng.uniform(-1, 1, (4,))
        loss = sum_all(matmul(w, Tensor(x.reshape(4, 1))))
        backward(loss)
        assert np.allclose(w.grad, np.tile(x, (3, 1)))

    def test_accumulation_is_sum_of_uses(self, rng):
        w = rand_tensor(rng, (3, 3), requires_grad=True)
        a = Tensor(rng.uniform(-1, 1, (3, 3)))
        b = Tensor(rng.uniform(-1, 1, (3, 3)))

        loss_f = sum_all(matmul(w, a))
        backward(loss_f)
        grad_f = w.grad.copy()
        w.grad = None

        loss_g = sum_all(matmul(b, w))
        backward(loss_g)
        grad_g = w.grad.copy()
        w.grad = None

        backward(add(sum_all(matmul(w, a)), sum_all(matmul(b, w))))
        assert np.array_equal(w.grad, grad_f + grad_g)

    def test_rejects_non_scalar_loss(self, rng):
        with pytest.raises(ShapeError, match="scalar"):
            backward(rand_tensor(rng, (2,), requires_grad=True))

    def test_shared_block_repeated_three_times_matches_fd(self, rng):
        # tiny block so full-coordinate differences stay fast
        from confshare.blocks import ModelConfig, conformer_block

        cfg = ModelConfig(d=4, e=2, heads=2, kernel_width=3, t_max=16)
        params = bound_block(cfg, 5)
        x = Tensor(rng.uniform(-1, 1, (5, 4)))
        c = Tensor(rng.uniform(-1, 1, (5, 4)))

        def make_loss():
            y = x
            for _ in range(3):
                y = conformer_block(y, params)
            return sum_all(mul(y, c))

        named = {
            "w1": params.ff_start.w1, "wq": params.attn.wq, "bk": params.attn.bk,
            "rel": params.attn.rel_emb, "kdepth": params.conv.kdepth,
            "wpre": params.conv.wpre, "w2e": params.ff_end.w2,
            "final_gamma": params.final_ln_gamma,
        }
        assert_params_match_fd(named, make_loss)


class TestTape:
    def test_topological_order_and_single_visit(self, rng):
        x = rand_tensor(rng, (3, 3), requires_grad=True)
        a = mul(x, x)
        b = add(a, a)        # diamond: a reused
        loss = sum_all(matmul(b, a))
        tape = Tape.trace(loss)
        ids = [id(n) for n in tape.nodes]
        assert len(ids) == len(set(ids))
        pos = {id(n): i for i, n in enumerate(tape.nodes)}
        for node in tape.nodes:
            for parent in node._parents:
                assert pos[id(parent)] < pos[id(node)]

    def test_diamond_gradient(self, rng):
        x = rand_tensor(rng, (2, 2), requires_grad=True)
        y = add(x, x)
        backward(sum_all(y))
        assert np.array_equal(x.grad, np.full((2, 2), 2.0))


class TestFiniteDiff:
    def test_quadratic(self):
        theta = np.array([3.0])
        grad = finite_diff_grad(lambda: float(theta[0] ** 2), theta, eps=1e-4)
        assert abs(grad[0] - 6.0) < 1e-7

    def test_constant(self):
        grad = finite_diff_grad(lambda: 5.0, np.zeros(4), eps=1e-4)
        assert np.max(np.abs(grad)) < 1e-10

    def test_rejects_non_finite_evaluation(self):
        with pytest.raises(NonFiniteError):
            finite_diff_grad(lambda: math.inf, np.zeros(2), eps=1e-4)

    def test_two_parameter_slice_cross_check(self, rng):
        w = rand_tensor(rng, (2,), requires_grad=True)
        x = Tensor(rng.uniform(-1, 1, (2,)))

        def loss_tensor():
            return sum_all(mul(swish(mul(w, x)), x))

        backward(loss_tensor())
        before = w.data.copy()
        fd = finite_diff_grad(lambda: loss_tensor().item(), w.data, eps=1e-4)
        assert relative_error(w.grad, fd) < 1e-5
        assert w.data.tobytes() == before.tobytes()

    def test_coordinate_subset_in_given_order(self):
        theta = np.array([[1.0, 2.0], [3.0, 4.0]])
        weights = np.array([[1.0, 10.0], [100.0, 1000.0]])
        grad = finite_diff_grad(lambda: float((weights * theta).sum()), theta,
                                eps=1e-3, coords=[3, 1])
        assert grad.shape == (2,)
        assert np.allclose(grad, [1000.0, 10.0], rtol=1e-9)

    def test_restores_coordinate_when_evaluation_raises(self):
        theta = np.array([0.5, -0.25])

        def loss():
            if theta[1] != -0.25:
                raise NonFiniteError("perturbed evaluation failed")
            return float(theta.sum())

        with pytest.raises(NonFiniteError, match="perturbed"):
            finite_diff_grad(loss, theta, eps=1e-4)
        assert theta.tolist() == [0.5, -0.25]

    def test_rejects_array_it_cannot_perturb_in_place(self):
        frozen = np.zeros(3)
        frozen.flags.writeable = False
        for theta in (np.zeros((2, 3)).T, frozen):
            with pytest.raises(ValueError, match="writeable C-contiguous"):
                finite_diff_grad(lambda: 0.0, theta, eps=1e-4)

    @pytest.mark.parametrize("eps", [0.0, -1e-4])
    def test_rejects_non_positive_eps(self, eps):
        with pytest.raises(ValueError, match="eps must be positive"):
            finite_diff_grad(lambda: 0.0, np.zeros(2), eps=eps)


class TestDeterminismAndFiniteness:
    def test_bit_identical_forward_backward(self):
        def run():
            rng = Rng(99)
            w = rand_tensor(rng, (6, 6), requires_grad=True)
            x = Tensor(rng.uniform(-1, 1, (4, 6)))
            loss = sum_all(swish(matmul(x, w)))
            backward(loss)
            return loss.item(), w.grad.tobytes()

        first, second = run(), run()
        assert first[0] == second[0]
        assert first[1] == second[1]

    def test_leaf_rejects_non_finite(self):
        with pytest.raises(NonFiniteError):
            Tensor([np.inf, 1.0])

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_op_rejects_overflow(self):
        big = Tensor([1e308])
        with pytest.raises(NonFiniteError, match="scale"):
            scale(big, 10.0)

    def test_zero_grads(self, rng):
        w = rand_tensor(rng, (2, 2), requires_grad=True)
        backward(sum_all(w))
        assert w.grad is not None
        zero_grads([w])
        assert w.grad is None


class TestRelativeError:
    def test_plain_formula(self):
        assert relative_error(np.array([1.0]), np.array([1.0 + 1e-6])) == pytest.approx(1e-6, rel=1e-2)

    def test_zero_floor_masks_fd_noise_only(self):
        a = np.array([0.0, 1e-3])
        b = np.array([4e-12, 1e-3 + 1e-6])
        # without the floor the noise coordinate dominates
        assert relative_error(a, b) > 1e-4
        masked = relative_error(a, b, zero_floor=1e-9)
        assert masked == pytest.approx(1e-3, rel=1e-2)
        # genuine disagreement above the floor is never masked
        assert relative_error(np.array([0.0]), np.array([1e-6]), zero_floor=1e-9) > 1e-2
