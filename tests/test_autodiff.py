import math
import re
import types
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from confshare.autodiff import (_SCRATCH, LN_EPS, NonFiniteError, Rng, RowRange, ShapeError,
                                Tape, Tensor, _sigmoid, _skew, attention_context,
                                backward, cross_entropy_mean,
                                depthwise_conv1d, finite_diff_grad, glu,
                                layer_norm, linear_swish_matmul, matmul, relative_error,
                                slice_rows, sum_all, swish_matmul, transpose, zero_grads)
from conftest import (assert_params_match_fd, bound_block, rand_tensor, traced_held,
                      traced_peak)
from oracles import (add, attention_chain, attention_weights, concat_rows, mul, scale, softmax,
                     swish)


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

    @pytest.mark.parametrize("lo,hi", [(-1, 1), (-0.3, 1.1)])
    @pytest.mark.parametrize("shape", [(), (1,), (7,), (3, 5)])
    def test_draws_follow_the_raw_stream(self, shape, lo, hi):
        # each draw is a plain formula of the raw stream, and a stream that
        # has drawn before goes on from where it stopped
        def unit(n):
            return (ref._raw(n) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53

        n = math.prod(shape)
        rng, ref = Rng(11), Rng(11)
        for _ in range(2):
            want = (lo + unit(n) * (hi - lo)).reshape(shape)
            assert np.asarray(rng.uniform(lo, hi, shape)).tobytes() == want.tobytes()
            want = np.minimum((unit(n) * 13).astype(np.int64), 12).reshape(shape)
            got = rng.integers(13, shape)
            assert np.asarray(got).tobytes() == want.tobytes()
            assert type(got) is (int if shape == () else np.ndarray)

    def test_same_seed_same_stream(self):
        a = Rng(7).uniform(-1, 1, (64,))
        b = Rng(7).uniform(-1, 1, (64,))
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1])
    def test_seed_outside_64_bits_rejected(self, seed):
        # 2**64 + 1 would otherwise alias seed 1, and -1 seed 2**64 - 1
        with pytest.raises(ValueError, match=rf"^seed must be in \[0, 2\*\*64\), got {seed}$"):
            Rng(seed)

    def test_largest_seed_accepted(self):
        assert Rng(2**64 - 1).seed == 2**64 - 1

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

    @pytest.mark.parametrize("transpose_b,with_bias", [
        pytest.param(False, False, id="False"), pytest.param(True, False, id="True"),
        pytest.param(False, True, id="bias-False"), pytest.param(True, True, id="bias-True")])
    def test_gradients(self, rng, transpose_b, with_bias):
        a = rand_tensor(rng, (4, 3), requires_grad=True)
        b = rand_tensor(rng, (5, 3) if transpose_b else (3, 5), requires_grad=True)
        c = Tensor(rng.uniform(-1, 1, (4, 5)))
        named = {"a": a, "b": b}
        if with_bias:
            named["bias"] = rand_tensor(rng, (5,), requires_grad=True)

        def make_loss():
            return sum_all(mul(matmul(a, b, transpose_b=transpose_b,
                                      bias=named.get("bias")), c))

        assert_params_match_fd(named, make_loss)

    def test_bias_adds_to_every_row(self, rng):
        a = rand_tensor(rng, (4, 3))
        b = rand_tensor(rng, (3, 5))
        bias = rand_tensor(rng, (5,))
        out = matmul(a, b, bias=bias)
        assert out.data.tobytes() == (a.data @ b.data + bias.data).tobytes()


class TestLayerNorm:
    def test_zero_variance(self):
        out = layer_norm(Tensor([1.0, 1.0, 1.0]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        assert np.allclose(out.data, 0.0)

    def test_already_normalized(self):
        out = layer_norm(Tensor([1.0, -1.0]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
        expected = np.array([1.0, -1.0]) / math.sqrt(1.0 + LN_EPS)
        assert np.max(np.abs(out.data - expected)) < 1e-15

    def test_output_mean_is_zero(self, rng):
        x = rand_tensor(rng, (16,), scale=3.0)
        out = layer_norm(x, Tensor(np.ones(16)), Tensor(np.zeros(16)))
        assert abs(out.data.mean()) < 1e-12

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


def gather_oracle(full: Tensor) -> Tensor:
    """out[h, t, s] = full[h, t, s - t + T - 1] by index arrays, as a tape
    node whose rule scatters the gradient back through the same indices."""
    T = full.shape[1]
    rows = np.arange(T)[:, None]
    cols = np.arange(T)[None, :] - np.arange(T)[:, None] + (T - 1)

    def rule(g):
        gf = np.zeros_like(full.data)
        gf[:, rows, cols] = g
        return (gf,)

    return Tensor(full.data[:, rows, cols], requires_grad=full.requires_grad,
                  op="gather", parents=(full,), backward=rule)


class TestAttentionWeights:
    @pytest.mark.parametrize("T", [1, 2, 3, 5, 16, 128])
    def test_skew_equals_index_gather(self, T):
        full = Tensor(Rng(T).uniform(-1, 1, (3, T, 2 * T - 1)))
        assert _skew(full.data).tobytes() == gather_oracle(full).data.tobytes()
        # writing through the view is the oracle's scatter
        g = Rng(T + 1).uniform(-1, 1, (3, T, T))
        scattered = np.zeros(full.shape)
        _skew(scattered)[...] = g
        assert scattered.tobytes() == gather_oracle(full)._backward(g)[0].tobytes()

    @pytest.mark.parametrize("T", [1, 2, 5, 16])
    def test_bytes_equal_the_unfused_ops(self, T):
        def run(fused):
            rng = Rng(40 + T)
            content = Tensor(rng.uniform(-3, 3, (2, T, T)), requires_grad=True)
            pos_full = Tensor(rng.uniform(-3, 3, (2, T, 2 * T - 1)), requires_grad=True)
            c = Tensor(rng.uniform(-1, 1, (2, T, T)))
            s = 1.0 / math.sqrt(5)
            if fused:
                out = attention_weights(content, pos_full, s)
            else:
                out = softmax(scale(add(content, gather_oracle(pos_full)), s))
            backward(sum_all(mul(out, c)))
            return out.data.tobytes(), content.grad.tobytes(), pos_full.grad.tobytes()

        assert run(fused=True) == run(fused=False)

    def test_gradients(self, rng):
        T = 4
        content = rand_tensor(rng, (2, T, T), requires_grad=True, scale=2.0)
        pos_full = rand_tensor(rng, (2, T, 2 * T - 1), requires_grad=True, scale=2.0)
        c = Tensor(rng.uniform(-1, 1, (2, T, T)))

        def make_loss():
            return sum_all(mul(attention_weights(content, pos_full, 0.5), c))

        assert_params_match_fd({"content": content, "pos_full": pos_full}, make_loss)

    @pytest.mark.parametrize("content,pos_full", [((2, 3, 3), (2, 3, 6)),
                                                  ((2, 3, 3), (2, 4, 7)),
                                                  ((2, 3, 4), (2, 3, 5)),
                                                  ((3, 3), (3, 5))])
    def test_rejects_scores_that_do_not_pair_up(self, content, pos_full):
        with pytest.raises(ShapeError, match="attention_weights"):
            attention_weights(Tensor(np.zeros(content)), Tensor(np.zeros(pos_full)), 1.0)


def _attention_operands(rng, B, T=4, H=2, dh=3):
    """Trainable (B·T, H·dh) q, k and v and B utterances' (H, T, 2T - 1)
    positional scores."""
    d = H * dh
    return (Tensor(_with_signed_zeros(rng.uniform(-2, 2, (B * T, d))), requires_grad=True),
            Tensor(_with_signed_zeros(rng.uniform(-2, 2, (B * T, d))), requires_grad=True),
            [Tensor(rng.uniform(-2, 2, (H, T, 2 * T - 1)), requires_grad=True)
             for _ in range(B)],
            Tensor(_with_signed_zeros(rng.uniform(-2, 2, (B * T, d))), requires_grad=True))


class TestAttentionContext:
    @pytest.mark.parametrize("B", [1, 3])
    def test_bytes_equal_the_unfused_chain(self, rng, B):
        q, k, pos, v = _attention_operands(rng, B)
        fused = attention_context(q, k, pos, v, 1.0 / math.sqrt(3))
        chain = attention_chain(q, k, pos, v, 1.0 / math.sqrt(3))
        assert fused._parents == (q, k, *pos, v)
        assert fused.data.tobytes() == chain.data.tobytes()
        g = _with_signed_zeros(rng.uniform(-1, 1, fused.shape))
        got = fused._backward(g)
        # the chain's rules in reverse, each gradient as its rule hands it on
        context = chain._parents[0]
        weights, v3 = context._parents
        content, joined = weights._parents
        q3, k3 = content._parents
        (g_context,) = chain._backward(g)
        g_weights, g_v3 = context._backward(g_context)
        g_content, g_full = weights._backward(g_weights)
        # one part is its own join, with no node
        g_pos = joined._backward(g_full) if B > 1 else (g_full,)
        g_q3, g_k3 = content._backward(g_content)
        want = (q3._backward(g_q3)[0], k3._backward(g_k3)[0], *g_pos,
                v3._backward(g_v3)[0])
        assert [a.shape for a in got] == [t.shape for t in (q, k, *pos, v)]
        for a, b in zip(got, want, strict=True):
            assert a.tobytes() == b.tobytes()

    def test_gradients(self, rng):
        q, k, pos, v = _attention_operands(rng, 2, T=3)
        named = {"q": q, "k": k, "pos0": pos[0], "pos1": pos[1], "v": v}
        c = Tensor(rng.uniform(-1, 1, q.shape))

        def make_loss():
            return sum_all(mul(attention_context(q, k, pos, v, 0.5), c))

        assert_params_match_fd(named, make_loss)

    @pytest.mark.parametrize("q,kv,pos", [
        ((8, 6), (8, 6), [(2, 4, 6)] * 2),   # 2T - 1 = 7 wide, not 6
        ((8, 6), (8, 6), [(2, 3, 5)] * 2),   # 8 rows are not 2 utterances of 3 frames
        ((8, 6), (8, 6), [(2, 4, 7)] * 3),   # 3 utterances of 4 frames are 12 rows, not 8
        ((8, 6), (8, 6), [(2, 4, 7)]),       # 1 utterance of 4 frames is 4 rows, not 8
        ((8, 6), (8, 6), [(4, 4, 7)] * 2),   # 4 heads do not divide d = 6
        ((8, 6), (8, 6), [(2, 4, 7), (3, 4, 7)]),  # the parts' heads differ
        ((8, 6), (8, 6), [(2, 4, 7), (2, 4, 6)]),  # the parts' widths differ
        ((8, 6), (8, 6), [(2, 4, 7), (2, 4)]),     # a part is not 3-d
        ((8, 6), (8, 6), []),                      # no utterance
        ((8, 6), (8, 4), [(2, 4, 7)] * 2),   # k and v are narrower than q
        ((2, 4, 6), (2, 4, 6), [(2, 4, 7)] * 2),
        ((8, 6), (8, 6), [(4, 7)] * 2)])
    def test_rejects_operands_that_do_not_pair_up(self, q, kv, pos):
        message = (f"attention_context: expected (B·T, d) q, k and v and B (H, T, 2T - 1) "
                   f"positional scores with H dividing d, got {q}, {kv}, {kv} and {pos}")
        with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
            attention_context(Tensor(np.zeros(q)), Tensor(np.zeros(kv)),
                              [Tensor(np.zeros(shape)) for shape in pos],
                              Tensor(np.zeros(kv)), 1.0)

    def test_overflowing_content_score_raises_as_a_matmul(self, rng):
        q, k, pos, v = _attention_operands(rng, 1)
        # one score of one head is -inf: the softmax alone would give it weight 0
        q.data[0, :3] = 1e200
        k.data[1, :3] = -1e200
        with np.errstate(all="ignore"), \
                pytest.raises(NonFiniteError, match="^matmul produced non-finite values$"):
            attention_context(q, k, pos, v, 1.0)

    def test_overflowing_scaled_score_raises_as_the_op(self, rng):
        q, k, pos, v = _attention_operands(rng, 1)
        # finite scores that the scale takes past the largest double
        pos[0].data[...] = 1e308
        with np.errstate(all="ignore"), \
                pytest.raises(NonFiniteError, match="^attention_context produced"):
            attention_context(q, k, pos, v, 10.0)


def _two_branch_sigmoid(x):
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))


def _with_signed_zeros(values):
    """A copy with every seventh entry +0.0 and every eleventh -0.0."""
    out = np.array(values, dtype=np.float64)
    flat = out.reshape(-1)
    flat[::7] = 0.0
    flat[::11] = -0.0
    return out


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

    def test_sigmoid_matches_two_branch_formula_bytewise(self, rng):
        def two_branch(x):
            ex = np.exp(-np.abs(x))
            return np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))

        edges = np.array([0.0, -0.0, 800.0, -800.0, 1e-300, -1e-300])
        wide = rng.uniform(-40.0, 40.0, (7, 9))
        for x in (edges, wide, wide[:, 4:], np.array(-3.5)):
            assert _sigmoid(x).tobytes() == two_branch(x).tobytes()
        assert isinstance(_sigmoid(np.array(-3.5)), np.ndarray)

    def test_sigmoid_matches_two_branch_on_random_signs_and_at_underflow(self, rng):
        wide = rng.uniform(-40.0, 40.0, (128, 1044))
        assert (wide < 0).any() and (wide >= 0).any()
        # exp(-745) is the smallest subnormal and exp(-746) underflows to 0
        edges = np.array([745.0, -745.0, 746.0, -746.0])
        for x in (wide, edges):
            assert _sigmoid(x).tobytes() == _two_branch_sigmoid(x).tobytes()
        assert _sigmoid(edges)[1] == 5e-324 and _sigmoid(edges)[3] == 0.0

    @pytest.mark.parametrize("shape", [(2,), (12, 10), (2, 5, 8)])
    def test_glu_matches_concatenated_halves_bytewise(self, rng, shape):
        a = _with_signed_zeros(rng.uniform(-6.0, 6.0, shape))
        n = shape[-1] // 2
        u, v = a[..., :n], a[..., n:]
        g = _with_signed_zeros(rng.uniform(-1.0, 1.0, shape[:-1] + (n,)))
        s = _two_branch_sigmoid(v)
        node = glu(Tensor(a, requires_grad=True))
        (ga,) = node._backward(g)
        assert node.data.tobytes() == (u * s).tobytes()
        assert ga.tobytes() == np.concatenate((g * s, g * u * s * (1 - s)), -1).tobytes()

    def test_glu_rejects_odd_extent(self):
        with pytest.raises(ShapeError, match="even"):
            glu(Tensor([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("op,shapes", [
        pytest.param(swish, [(4, 3)], id="swish-shape0"),
        pytest.param(glu, [(4, 6)], id="glu-shape2"),
        pytest.param(swish_matmul, [(4, 3), (3, 5)], id="swish_matmul"),
        pytest.param(swish_matmul, [(4, 3), (3, 5), (5,)], id="swish_matmul-bias"),
        pytest.param(linear_swish_matmul, [(4, 3), (3, 6), (6,), (6, 5)],
                     id="linear_swish_matmul"),
        pytest.param(lambda a, w, c, b, bias: linear_swish_matmul(a, w, c, b, bias, True),
                     [(4, 3), (6, 3), (6,), (6, 5), (5,)],
                     id="linear_swish_matmul-transpose_w-bias"),
        pytest.param(lambda a: transpose(a, (2, 0, 1), (2, 3, 4), (4, 6)), [(6, 4)],
                     id="transpose-view-shape"),
        pytest.param(lambda a, b: add(a, b, -0.5), [(4, 3), (4, 3)], id="add-scaled"),
        pytest.param(lambda x, g, b, w: matmul(x, w, norm=(g, b)),
                     [(4, 4), (4,), (4,), (4, 5)], id="matmul-norm"),
        pytest.param(lambda x, g, b, w, c, r: matmul(x, w, True, c, r, -0.5, norm=(g, b)),
                     [(4, 4), (4,), (4,), (5, 4), (5,), (4, 5)],
                     id="matmul-norm-transpose_b-bias-residual"),
        pytest.param(lambda x, g, b, w, c, r: swish_matmul(x, w, c, r, norm=(g, b)),
                     [(4, 4), (4,), (4,), (4, 5), (5,), (4, 5)],
                     id="swish_matmul-norm-bias-residual"),
        pytest.param(lambda x, g, b, w, c, v, d: linear_swish_matmul(x, w, c, v, d,
                                                                     norm=(g, b)),
                     [(4, 4), (4,), (4,), (4, 6), (6,), (6, 5), (5,)],
                     id="linear_swish_matmul-norm-bias"),
        pytest.param(lambda x, g, b, w, c, v, r: linear_swish_matmul(
                         x, w, c, v, transpose_w=True, residual=r, s=0.5, norm=(g, b)),
                     [(4, 4), (4,), (4,), (6, 4), (6,), (6, 5), (4, 5)],
                     id="linear_swish_matmul-norm-transpose_w-residual")])
    def test_gradients(self, rng, op, shapes):
        named = {f"x{i}": rand_tensor(rng, shape, requires_grad=True, scale=2.0)
                 for i, shape in enumerate(shapes)}
        c = Tensor(rng.uniform(-1, 1, op(*named.values()).shape))

        def make_loss():
            return sum_all(mul(op(*named.values()), c))

        assert_params_match_fd(named, make_loss)

    @pytest.mark.parametrize("with_bias", [False, True], ids=["no-bias", "bias"])
    def test_swish_matmul_matches_swish_then_matmul_bytewise(self, rng, with_bias):
        a = Tensor(_with_signed_zeros(rng.uniform(-6.0, 6.0, (12, 10))), requires_grad=True)
        b = rand_tensor(rng, (10, 7), requires_grad=True)
        bias = rand_tensor(rng, (7,), requires_grad=True) if with_bias else None
        g = _with_signed_zeros(rng.uniform(-1.0, 1.0, (12, 7)))
        fused = swish_matmul(a, b, bias)
        hidden = swish(a)
        pair = matmul(hidden, b, bias=bias)
        assert fused.data.tobytes() == pair.data.tobytes()
        # every parent gradient, as the two rules hand it to backward
        ga, *rest = fused._backward(g)
        gh, *pair_rest = pair._backward(g)
        (pair_ga,) = hidden._backward(gh)
        assert len(rest) == len(pair_rest) == (2 if with_bias else 1)
        for got, want in zip([ga, *rest], [pair_ga, *pair_rest]):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("transpose_w", [False, True], ids=["w", "transpose_w"])
    @pytest.mark.parametrize("with_bias", [False, True], ids=["no-bias", "bias"])
    def test_linear_swish_matmul_matches_matmul_then_swish_matmul_bytewise(
            self, rng, transpose_w, with_bias):
        def draw(*shape):
            return Tensor(_with_signed_zeros(rng.uniform(-2.0, 2.0, shape)),
                          requires_grad=True)

        a, c, b = draw(12, 6), draw(10), draw(10, 7)
        w = draw(10, 6) if transpose_w else draw(6, 10)
        bias = draw(7) if with_bias else None
        g = _with_signed_zeros(rng.uniform(-1.0, 1.0, (12, 7)))
        fused = linear_swish_matmul(a, w, c, b, bias, transpose_w)
        pre = matmul(a, w, transpose_w, c)
        pair = swish_matmul(pre, b, bias)
        assert fused.data.tobytes() == pair.data.tobytes()
        # every parent gradient, as the two rules hand it to backward
        got = fused._backward(g)
        gpre, *pair_rest = pair._backward(g)
        want = [*pre._backward(gpre), *pair_rest]
        assert len(got) == len(want) == (5 if with_bias else 4)
        for i, (x, y) in enumerate(zip(got, want)):
            assert x.tobytes() == y.tobytes(), f"gradient {i}"

    def test_linear_swish_matmul_rejects_a_non_finite_pre_activation_as_a_matmul(self):
        # the product overflows, and the swish of -inf would hide it as 0
        a, w = Tensor([[1e200]]), Tensor([[-1e200, 1.0]])
        with np.errstate(all="ignore"), \
                pytest.raises(NonFiniteError, match="^matmul produced non-finite values"):
            linear_swish_matmul(a, w, Tensor([0.0, 0.0]), Tensor([[1.0], [1.0]]))

    @pytest.mark.parametrize("shapes,transpose_w", [
        pytest.param([(4, 3), (4, 6), (6,), (6, 5)], False, id="inner-extents"),
        pytest.param([(4, 3), (3, 6), (6,), (6, 5)], True, id="transpose_w"),
        pytest.param([(4, 3), (3, 6), (4,), (6, 5)], False, id="hidden-bias"),
        pytest.param([(4, 3), (3, 6), (6,), (5, 6)], False, id="second-product"),
        pytest.param([(2, 4, 3), (3, 6), (6,), (6, 5)], False, id="3-d"),
        pytest.param([(4, 3), (3, 6), (6,), (6, 5), (4,)], False, id="bias")])
    def test_linear_swish_matmul_rejects_shapes_that_do_not_multiply(
            self, rng, shapes, transpose_w):
        operands = [rand_tensor(rng, shape) for shape in shapes]
        with pytest.raises(ShapeError, match="^linear_swish_matmul"):
            linear_swish_matmul(*operands[:4], *operands[4:], transpose_w=transpose_w)

    def test_swish_matmul_rejects_shapes_that_do_not_multiply(self, rng):
        with pytest.raises(ShapeError, match="swish_matmul"):
            swish_matmul(rand_tensor(rng, (4, 3)), rand_tensor(rng, (4, 5)))
        with pytest.raises(ShapeError, match="swish_matmul"):
            swish_matmul(rand_tensor(rng, (2, 4, 3)), rand_tensor(rng, (2, 3, 5)))
        with pytest.raises(ShapeError, match="bias"):
            swish_matmul(rand_tensor(rng, (4, 3)), rand_tensor(rng, (3, 5)),
                         rand_tensor(rng, (4,)))


class TestPlumbing:
    """The one-node forms of a head split/merge and of a scaled residual
    give the bytes of the chains they replace."""

    @pytest.mark.parametrize("shape,view,axes,shape_out", [
        ((12, 6), (2, 6, 3, 2), (0, 2, 1, 3), (6, 6, 2)),  # split 2 utterances, 3 heads
        ((6, 6, 2), (2, 3, 6, 2), (0, 2, 1, 3), (12, 6)),  # merge them back
        ((7, 4), (1, 7, 2, 2), (0, 2, 1, 3), (2, 7, 2)),   # one utterance, as the table
        ((5, 3), (1, 5, 1, 3), (0, 2, 1, 3), (1, 5, 3)),   # one head: nothing moves
        ((6, 4), (2, 3, 4), (1, 2, 0), (3, 8)),            # a permutation not its own inverse
    ], ids=["split", "merge", "table", "one-head", "cyclic"])
    def test_transpose_with_view_and_shape_matches_reshape_chain_bytewise(
            self, rng, shape, view, axes, shape_out):
        a = Tensor(_with_signed_zeros(rng.uniform(-2.0, 2.0, shape)), requires_grad=True)
        g = _with_signed_zeros(rng.uniform(-1.0, 1.0, shape_out))
        fused = transpose(a, axes, view, shape_out)
        # the chain it replaces: reshape, transpose into a copy, reshape;
        # backwards, each of the three rules in turn
        chain = np.ascontiguousarray(a.data.reshape(view).transpose(axes)).reshape(shape_out)
        permuted = tuple(view[i] for i in axes)
        chain_ga = g.reshape(permuted).transpose(np.argsort(axes)).reshape(shape)
        assert fused.shape == shape_out
        assert fused.data.tobytes() == chain.tobytes()
        (ga,) = fused._backward(g)
        assert ga.shape == shape
        assert ga.tobytes() == chain_ga.tobytes()

    @pytest.mark.parametrize("s", [0.5, -3.0])
    def test_scaled_add_matches_add_of_scale_bytewise(self, rng, s):
        a = Tensor(_with_signed_zeros(rng.uniform(-2.0, 2.0, (9, 8))), requires_grad=True)
        b = Tensor(_with_signed_zeros(rng.uniform(-2.0, 2.0, (9, 8))), requires_grad=True)
        # both signs of zero on either side of the sum
        a.data[0, :4] = [0.0, 0.0, -0.0, -0.0]
        b.data[0, :4] = [0.0, -0.0, 0.0, -0.0]
        g = _with_signed_zeros(rng.uniform(-1.0, 1.0, (9, 8)))
        fused = add(a, b, s)
        scaled = scale(b, s)
        pair = add(a, scaled)
        assert fused.data.tobytes() == pair.data.tobytes()
        ga, gb = fused._backward(g)
        pair_ga, gs = pair._backward(g)
        (pair_gb,) = scaled._backward(gs)
        assert ga.tobytes() == pair_ga.tobytes()
        assert gb.tobytes() == pair_gb.tobytes()

    @pytest.mark.parametrize("s", [None, 0.5])
    def test_add_rejects_mismatched_shapes(self, rng, s):
        with pytest.raises(ShapeError, match=r"add: incompatible shapes \(2, 3\) \+ \(3, 2\)"):
            add(rand_tensor(rng, (2, 3)), rand_tensor(rng, (3, 2)), s)


def _residual_operands(op: str, rows: int, draw):
    """The operands of one product ``op`` over ``rows`` rows of width 6,
    each as the model calls it: a bias on every product, and the
    feed-forward's low-rank form (transposed w) for ``linear_swish_matmul``."""
    if op == "matmul":
        return (draw(rows, 5), draw(6, 5)), {"transpose_b": True, "bias": draw(6)}
    if op == "swish_matmul":
        return (draw(rows, 5), draw(5, 6)), {"bias": draw(6)}
    return (draw(rows, 4), draw(9, 4), draw(9), draw(9, 6)), {"bias": draw(6),
                                                             "transpose_w": True}


_PRODUCTS = {"matmul": matmul, "swish_matmul": swish_matmul,
             "linear_swish_matmul": linear_swish_matmul}


class TestBias:
    """A product's ``bias`` is one vector of the product's width, added to
    every row, and only on 2-d operands."""

    @pytest.mark.parametrize("op", list(_PRODUCTS))
    def test_rejects_a_bias_that_does_not_fit(self, rng, op):
        def draw(*shape):
            return rand_tensor(rng, shape)

        args, kwargs = _residual_operands(op, 4, draw)
        for shape in ((5,), (7,), (1, 6), (4, 6)):
            kwargs["bias"] = draw(*shape)
            with pytest.raises(ShapeError, match=rf"^{op}: bias \({shape[0]},.*\) does not fit "
                                                 r"product \(4, 6\) \(2-d operands only\)$"):
                _PRODUCTS[op](*args, **kwargs)

    def test_rejects_a_bias_on_a_batched_product(self, rng):
        with pytest.raises(ShapeError, match=r"^matmul: bias \(5,\) does not fit product "
                                             r"\(2, 4, 5\) \(2-d operands only\)$"):
            matmul(rand_tensor(rng, (2, 4, 3)), rand_tensor(rng, (2, 3, 5)),
                   bias=rand_tensor(rng, (5,)))


class TestResidual:
    """A product with ``residual`` and ``s`` is residual + s·(product + bias):
    the bytes of the unfused ``add(residual, product, s)``."""

    @pytest.mark.parametrize("B", [1, 3])
    @pytest.mark.parametrize("s", [None, 0.5])
    @pytest.mark.parametrize("op", list(_PRODUCTS))
    def test_bytes_equal_add_of_the_product(self, rng, op, s, B):
        def draw(*shape):
            return Tensor(_with_signed_zeros(rng.uniform(-2.0, 2.0, shape)),
                          requires_grad=True)

        rows = B * 4
        args, kwargs = _residual_operands(op, rows, draw)
        x = draw(rows, 6)
        g = _with_signed_zeros(rng.uniform(-1.0, 1.0, (rows, 6)))
        fused = _PRODUCTS[op](*args, **kwargs, residual=x, s=s)
        product = _PRODUCTS[op](*args, **kwargs)
        pair = add(x, product, s)
        assert fused.op == op
        assert fused._parents[-1] is x
        assert fused.data.tobytes() == pair.data.tobytes()
        # every parent gradient, as the two rules hand it to backward
        got = fused._backward(g)
        gx, gproduct = pair._backward(g)
        want = [*product._backward(gproduct), gx]
        assert len(got) == len(want) == len(fused._parents)
        for i, (a, b) in enumerate(zip(got, want)):
            assert a.tobytes() == b.tobytes(), f"gradient {i}"

    @pytest.mark.parametrize("s", [None, -0.5])
    @pytest.mark.parametrize("op", list(_PRODUCTS))
    def test_gradients(self, rng, op, s):
        def draw(*shape):
            return rand_tensor(rng, shape, requires_grad=True, scale=2.0)

        args, kwargs = _residual_operands(op, 3, draw)
        x = draw(3, 6)
        named = {f"x{i}": t for i, t in enumerate((*args, kwargs["bias"]))}
        named["residual"] = x
        c = Tensor(rng.uniform(-1, 1, (3, 6)))

        def make_loss():
            return sum_all(mul(_PRODUCTS[op](*args, **kwargs, residual=x, s=s), c))

        assert_params_match_fd(named, make_loss)

    @pytest.mark.parametrize("op", list(_PRODUCTS))
    def test_rejects_a_residual_that_does_not_fit(self, rng, op):
        def draw(*shape):
            return rand_tensor(rng, shape)

        args, kwargs = _residual_operands(op, 4, draw)
        for shape in ((4, 5), (3, 6), (6,), (1, 4, 6)):
            with pytest.raises(ShapeError, match=rf"^{op}: residual \({shape[0]},"):
                _PRODUCTS[op](*args, **kwargs, residual=draw(*shape), s=0.5)
        with pytest.raises(ValueError, match=f"^{op}: a scale s needs a residual"):
            _PRODUCTS[op](*args, **kwargs, s=0.5)

    def test_rejects_a_residual_on_a_batched_product(self, rng):
        with pytest.raises(ShapeError, match=r"^matmul: residual \(2, 4, 5\) .*2-d operands"):
            matmul(rand_tensor(rng, (2, 4, 3)), rand_tensor(rng, (2, 3, 5)),
                   residual=rand_tensor(rng, (2, 4, 5)))


def _norm_operands(op: str, rows: int, draw, transpose: bool, with_bias: bool):
    """The operands of one product ``op`` with a ``norm=`` prologue: x of
    width 5 first, a product of width 6, w (or b) transposed if asked,
    and a bias if asked; then the prologue's (gamma, beta)."""
    kwargs = {"bias": draw(6)} if with_bias else {}
    if op == "matmul":
        args = (draw(rows, 5), draw(6, 5) if transpose else draw(5, 6))
        kwargs["transpose_b"] = transpose
    elif op == "swish_matmul":
        args = (draw(rows, 5), draw(5, 6))
    else:
        args = (draw(rows, 5), draw(9, 5) if transpose else draw(5, 9), draw(9), draw(9, 6))
        kwargs["transpose_w"] = transpose
    return args, kwargs, (draw(5), draw(5))


_NORM_PRODUCTS = [pytest.param(op, transpose, id=f"{op}-transpose" if transpose else op)
                  for op in _PRODUCTS
                  for transpose in ((False,) if op == "swish_matmul" else (False, True))]


class TestNormPrologue:
    """A product with ``norm=(gamma, beta)`` multiplies layer_norm(x, gamma,
    beta) as one node: the bytes of ``layer_norm`` followed by the plain
    product, with x, gamma and beta first among the parents."""

    @pytest.mark.parametrize("B", [1, 3])
    @pytest.mark.parametrize("residual,s", [(False, None), (True, None), (True, 0.5)],
                             ids=["no-residual", "residual", "residual-s"])
    @pytest.mark.parametrize("with_bias", [False, True], ids=["no-bias", "bias"])
    @pytest.mark.parametrize("op,transpose", _NORM_PRODUCTS)
    def test_bytes_equal_layer_norm_then_the_product(self, rng, op, transpose, with_bias,
                                                     residual, s, B):
        def draw(*shape):
            return Tensor(_with_signed_zeros(rng.uniform(-2.0, 2.0, shape)),
                          requires_grad=True)

        rows = B * 4
        (x, *rest), kwargs, norm = _norm_operands(op, rows, draw, transpose, with_bias)
        if residual:
            kwargs.update(residual=draw(rows, 6), s=s)
        g = _with_signed_zeros(rng.uniform(-1.0, 1.0, (rows, 6)))
        fused = _PRODUCTS[op](x, *rest, **kwargs, norm=norm)
        normed = layer_norm(x, *norm)
        product = _PRODUCTS[op](normed, *rest, **kwargs)
        assert fused.op == op
        assert fused._parents[:3] == (x, *norm)
        assert fused.data.tobytes() == product.data.tobytes()
        # every parent gradient, as the two rules hand it to backward
        got = fused._backward(g)
        gnormed, *product_rest = product._backward(g)
        want = [*normed._backward(gnormed), *product_rest]
        assert len(got) == len(want) == len(fused._parents)
        for i, (a, b) in enumerate(zip(got, want)):
            assert a.tobytes() == b.tobytes(), f"gradient {i}"

    @pytest.mark.parametrize("op,transpose", _NORM_PRODUCTS)
    def test_rule_rebuilds_its_operand_after_other_prologues(self, rng, op, transpose):
        # a wider prologue's forward and rule grow and overwrite the scratch
        # slots in between, so a rule that read what its forward left
        # there would give other bytes the second time
        def draw(*shape):
            return rand_tensor(rng, shape, requires_grad=True, scale=2.0)

        args, kwargs, norm = _norm_operands(op, 8, draw, transpose, True)
        fused = _PRODUCTS[op](*args, **kwargs, norm=norm)
        g = rng.uniform(-1.0, 1.0, fused.shape)
        first = fused._backward(g)
        args, kwargs, norm = _norm_operands(op, 16, draw, transpose, True)
        other = _PRODUCTS[op](*args, **kwargs, norm=norm)
        other._backward(rng.uniform(-1.0, 1.0, other.shape))
        for a, b in zip(first, fused._backward(g), strict=True):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("op", list(_PRODUCTS))
    def test_rejects_a_norm_that_does_not_fit(self, rng, op):
        def draw(*shape):
            return rand_tensor(rng, shape)

        args, kwargs, (gamma, beta) = _norm_operands(op, 4, draw, False, True)
        for bad in ((draw(4), beta), (gamma, draw(6)), (draw(5, 1), beta)):
            with pytest.raises(ShapeError, match=rf"^{op}: gamma/beta must be shape \(5,\)"):
                _PRODUCTS[op](*args, **kwargs, norm=bad)

    def test_rejects_a_norm_on_a_batched_product(self, rng):
        norm = (rand_tensor(rng, (3,)), rand_tensor(rng, (3,)))
        with pytest.raises(ShapeError, match=r"^matmul: a norm needs 2-d operands"):
            matmul(rand_tensor(rng, (2, 4, 3)), rand_tensor(rng, (2, 3, 5)), norm=norm)

    @pytest.mark.parametrize("op", list(_PRODUCTS))
    def test_non_finite_normalized_operand_raises_as_a_layer_norm(self, op):
        # a finite gamma scales the normalized rows past the largest double
        args, kwargs, _ = _norm_operands(op, 2, lambda *shape: Tensor(np.ones(shape)),
                                         False, False)
        x = Tensor(np.tile([1.0, -1.0, 1.0, -1.0, 1.0], (2, 1)))
        norm = (Tensor(np.full(5, 1e308)), Tensor(np.full(5, 1e308)))
        with np.errstate(all="ignore"), \
                pytest.raises(NonFiniteError, match="^layer_norm produced non-finite values"):
            _PRODUCTS[op](x, *args[1:], **kwargs, norm=norm)


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

    @pytest.mark.parametrize("w", [3, 9])  # 9 reaches past both ends of T = 3
    def test_pads_each_utterance_on_its_own(self, rng, w):
        B, T, d = 4, 3, 2
        x = rand_tensor(rng, (B * T, d), requires_grad=True)
        k = rand_tensor(rng, (w, d), requires_grad=True)
        c = rng.uniform(-1, 1, (B * T, d))
        packed = depthwise_conv1d(x, k, frames=T)
        backward(sum_all(mul(packed, Tensor(c))))
        gx, gk = x.grad, k.grad
        x.grad = k.grad = None
        parts = [depthwise_conv1d(Tensor(x.data[b * T:(b + 1) * T], requires_grad=True), k)
                 for b in range(B)]
        assert packed.data.tobytes() == np.concatenate([p.data for p in parts]).tobytes()
        for b, part in enumerate(parts):
            backward(sum_all(mul(part, Tensor(c[b * T:(b + 1) * T]))))
            assert np.array_equal(gx[b * T:(b + 1) * T], part._parents[0].grad)
        assert np.max(np.abs(gk - k.grad)) < 1e-14

    @staticmethod
    def _per_tap_oracle(x, k, g, B):
        """The forward and both gradients by a per-tap loop over a padded
        copy of the input, with a fresh temporary for every product."""
        rows, d = x.shape
        w, T, half = k.shape[0], rows // B, (k.shape[0] - 1) // 2
        xp = np.zeros((B, T + w - 1, d))
        xp[:, half:half + T] = x.reshape(B, T, d)
        out = np.zeros((B, T, d))
        for j in range(w):
            out += k[j] * xp[:, j:j + T]
        g = g.reshape(B, T, d)
        gxp = np.zeros_like(xp)
        gk = np.empty_like(k)
        for j in range(w):
            gxp[:, j:j + T] += g * k[j]
            gk[j] = (g * xp[:, j:j + T]).reshape(rows, d).sum(axis=0)
        return out.reshape(rows, d), gxp[:, half:half + T].reshape(rows, d), gk

    @pytest.mark.parametrize("T", [4, 40])
    @pytest.mark.parametrize("w", [1, 3, 11])
    @pytest.mark.parametrize("B", [1, 3])
    def test_matches_per_tap_loop_bytewise(self, rng, B, w, T):
        d = 6
        x = _with_signed_zeros(rng.uniform(-1.0, 1.0, (B * T, d)))
        k = _with_signed_zeros(rng.uniform(-1.0, 1.0, (w, d)))
        g = _with_signed_zeros(rng.uniform(-1.0, 1.0, (B * T, d)))
        node = depthwise_conv1d(Tensor(x, requires_grad=True), Tensor(k, requires_grad=True),
                                frames=T)
        gx, gk = node._backward(g)
        expected = self._per_tap_oracle(x, k, g, B)
        for got, want in zip((node.data, gx, gk), expected, strict=True):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_rejects_rows_that_are_not_whole_utterances(self):
        with pytest.raises(ShapeError, match="7 rows are not whole utterances of 3 frames"):
            depthwise_conv1d(Tensor(np.ones((7, 2))), Tensor(np.ones((3, 2))), frames=3)

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

    def test_only_leaves_keep_gradients(self, rng):
        from confshare.blocks import ModelConfig, conformer_block

        params = bound_block(ModelConfig(d=4, e=2, heads=2, kernel_width=3, t_max=8), 1)
        x = rand_tensor(rng, (3, 4), requires_grad=True)
        tape = backward(sum_all(conformer_block(x, params)))
        interior = [n for n in tape.nodes if n._parents]
        leaves = [n for n in tape.nodes if not n._parents and n.requires_grad]
        assert interior and leaves
        assert all(n.grad is None for n in interior)
        assert all(n.grad is not None and n.grad.shape == n.shape for n in leaves)

    def test_first_negative_zero_contribution_stored_as_positive_zero(self):
        w = Tensor(np.ones(3), requires_grad=True)
        w.accumulate_grad(np.array([-0.0, 2.0, -0.0]))
        assert w.grad.tolist() == [0.0, 2.0, 0.0]
        assert not np.signbit(w.grad).any()

    def test_add_leaves_distinct_gradient_buffers(self, rng):
        a = rand_tensor(rng, (2, 3), requires_grad=True)
        b = rand_tensor(rng, (2, 3), requires_grad=True)
        backward(sum_all(add(a, b)))
        assert np.array_equal(a.grad, np.ones((2, 3)))
        assert np.array_equal(b.grad, np.ones((2, 3)))
        assert not np.shares_memory(a.grad, b.grad)

    def test_scalar_leaf_gradient_is_an_array(self):
        w = Tensor(2.0, requires_grad=True)
        backward(scale(add(w, w), 3.0))
        assert isinstance(w.grad, np.ndarray) and w.grad.shape == ()
        assert float(w.grad) == 6.0

    def test_leaf_first_gradient_from_backward_is_positive_zero(self):
        w = Tensor(np.ones(3), requires_grad=True)
        backward(sum_all(mul(w, Tensor(np.array([-0.0, 2.0, -0.0])))))
        assert w.grad.tolist() == [0.0, 2.0, 0.0]
        assert not np.signbit(w.grad).any()

    @pytest.mark.parametrize("handed,taken", [
        pytest.param(lambda h: (h,), True, id="owned"),
        pytest.param(lambda h: (h.T.copy().T,), False, id="not-contiguous"),
        pytest.param(lambda h: (np.broadcast_to(h[0], h.shape),), False, id="read-only"),
    ])
    def test_interior_first_gradient_is_taken_over_only_when_owned(self, handed, taken):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        y = mul(x, Tensor(np.full((2, 2), 3.0)))
        seen = []
        rule = y._backward
        y._backward = lambda g: (seen.append(g), rule(g))[1]
        grads = handed(np.array([[2.0, -1.0], [0.5, 4.0]]))
        top = Tensor(y.data, requires_grad=True, op="identity", parents=(y,),
                     backward=lambda g: grads)
        backward(sum_all(top))
        assert (seen[0] is grads[0]) == taken
        assert np.array_equal(x.grad, 3.0 * grads[0])

    def test_add_of_two_interior_nodes_reused_later(self):
        # integer data, so every gradient is exact; add's rule hands the same
        # array to a and b before their later uses add to either
        x = Tensor(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), requires_grad=True)
        u, v, c, d1, d2 = (Tensor(np.arange(6.0).reshape(2, 3) + k) for k in (1, -2, 3, -1, 2))
        a, b = mul(x, u), mul(x, v)
        loss = add(add(sum_all(mul(add(a, b), c)), sum_all(mul(a, d1))), sum_all(mul(b, d2)))
        tape = backward(loss)
        expected = (c.data + d1.data) * u.data + (c.data + d2.data) * v.data
        assert np.array_equal(x.grad, expected)
        self._assert_leaf_gradients_own_their_memory(tape)

    def test_add_of_an_interior_node_to_itself(self):
        x = Tensor(np.array([[1.0, -2.0], [3.0, 0.5]]), requires_grad=True)
        u, c, d = (Tensor(np.array([[2.0, 1.0], [-1.0, 3.0]]) * k) for k in (1, 2, -1))
        y = mul(x, u)
        tape = backward(add(sum_all(mul(add(y, y), c)), sum_all(mul(y, d))))
        assert np.array_equal(x.grad, (2.0 * c.data + d.data) * u.data)
        self._assert_leaf_gradients_own_their_memory(tape)

    def test_concat_rows_of_one_part_twice(self):
        x = Tensor(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), requires_grad=True)
        u = Tensor(np.array([[1.0, -1.0, 2.0], [0.5, 3.0, -2.0]]))
        c = Tensor(np.arange(12.0).reshape(4, 3) - 5.0)
        y = mul(x, u)
        tape = backward(add(sum_all(mul(concat_rows([y, y]), c)), sum_all(y)))
        assert np.array_equal(x.grad, (c.data[:2] + c.data[2:] + 1.0) * u.data)
        self._assert_leaf_gradients_own_their_memory(tape)

    def test_block_leaf_gradients_own_their_memory(self, rng):
        from confshare.blocks import ModelConfig, conformer_block

        params = bound_block(ModelConfig(d=8, e=2, heads=2, kernel_width=3, t_max=8), 3)
        x = rand_tensor(rng, (2 * 5, 8), requires_grad=True)
        tape = backward(sum_all(conformer_block(x, params, frames=5)))
        self._assert_leaf_gradients_own_their_memory(tape)

    @staticmethod
    def _assert_leaf_gradients_own_their_memory(tape):
        grads = [n.grad for n in tape.nodes if n.grad is not None]
        assert grads and all(not n._parents for n in tape.nodes if n.grad is not None)
        for i, g in enumerate(grads):
            assert not any(np.shares_memory(g, other) for other in grads[i + 1:])
            assert not any(np.shares_memory(g, n.data) for n in tape.nodes)

    def test_slice_rows_rule_returns_only_its_rows(self, rng):
        a = rand_tensor(rng, (5, 2), requires_grad=True)
        g = np.ones((2, 2))
        (rows,) = slice_rows(a, 1, 3)._backward(g)
        assert isinstance(rows, RowRange)
        assert (rows.start, rows.stop) == (1, 3) and rows.grad is g

    def test_slices_of_an_interior_node_add_into_their_rows(self):
        x = Tensor(np.arange(8.0).reshape(4, 2) - 3.0, requires_grad=True)
        u = Tensor(np.array([[1.0, 2.0], [-1.0, 0.5], [3.0, 1.0], [2.0, -2.0]]))
        c1 = Tensor(np.array([[2.0, -1.0]]))
        c2 = Tensor(np.array([[1.0, 1.0], [-3.0, 4.0]]))
        d = Tensor(np.full((4, 2), 0.5))
        y = mul(x, u)
        # the whole-tensor use is traced last, so backward reaches it first
        # and the slices add into a gradient that is already there
        backward(add(sum_all(mul(y, d)), add(sum_all(mul(slice_rows(y, 0, 1), c1)),
                                             sum_all(mul(slice_rows(y, 2, 4), c2)))))
        upstream = d.data.copy()
        upstream[0:1] += c1.data
        upstream[2:4] += c2.data  # row 1 is in no slice
        assert np.array_equal(x.grad, upstream * u.data)

    def test_slice_and_concat_rows_route_gradients(self, rng):
        a = rand_tensor(rng, (4, 2, 3), requires_grad=True)
        c = rng.uniform(-1, 1, (4, 2, 3))
        swapped = concat_rows([slice_rows(a, 2, 4), slice_rows(a, 0, 2)])
        assert swapped.data.tobytes() == np.concatenate([a.data[2:], a.data[:2]]).tobytes()
        backward(sum_all(mul(swapped, Tensor(c))))
        assert np.array_equal(a.grad, np.concatenate([c[2:], c[:2]]))

    @pytest.mark.parametrize("op", [
        pytest.param(lambda a: slice_rows(a, 0, a.shape[0]), id="slice_rows-all"),
        pytest.param(lambda a: concat_rows([a]), id="concat_rows-one"),
    ])
    def test_whole_slice_and_single_concat_are_their_input(self, rng, op):
        a = rand_tensor(rng, (3, 2, 4), requires_grad=True)
        c = rng.uniform(-1, 1, (3, 2, 4))
        out = op(a)
        assert out is a
        backward(sum_all(mul(out, Tensor(c))))
        assert np.array_equal(a.grad, c)

    @pytest.mark.parametrize("parts", [[], [(2, 3), (2, 4)], [(2, 3), ()]])
    def test_concat_rows_rejects_parts_that_do_not_stack(self, parts):
        with pytest.raises(ShapeError, match="concat_rows"):
            concat_rows([Tensor(np.zeros(shape)) for shape in parts])

    @pytest.mark.parametrize("op,shapes,constant", [
        pytest.param(matmul, [(3, 4), (4, 5)], (0,), id="matmul"),
        pytest.param(lambda a, b: matmul(a, b, transpose_b=True), [(3, 4), (5, 4)], (1,),
                     id="matmul-transpose_b"),
        pytest.param(lambda a, b, c: matmul(a, b, bias=c), [(3, 4), (4, 5), (5,)], (2,),
                     id="matmul-bias"),
        pytest.param(swish_matmul, [(3, 4), (4, 5), (5,)], (0,), id="swish_matmul-input"),
        pytest.param(swish_matmul, [(3, 4), (4, 5), (5,)], (1, 2), id="swish_matmul-weights"),
        pytest.param(linear_swish_matmul, [(3, 4), (4, 6), (6,), (6, 5), (5,)], (0,),
                     id="linear_swish_matmul-input"),
        pytest.param(lambda a, w, c, b: linear_swish_matmul(a, w, c, b, transpose_w=True),
                     [(3, 4), (6, 4), (6,), (6, 5)], (1, 2, 3),
                     id="linear_swish_matmul-weights"),
        pytest.param(lambda a, b, r: matmul(a, b, residual=r, s=0.5),
                     [(3, 4), (4, 5), (3, 5)], (2,), id="matmul-residual"),
        pytest.param(lambda a, b, r: swish_matmul(a, b, residual=r),
                     [(3, 4), (4, 5), (3, 5)], (0, 1), id="swish_matmul-residual-operands"),
        pytest.param(lambda a, w, c, b, r: linear_swish_matmul(a, w, c, b, residual=r, s=0.5),
                     [(3, 4), (4, 6), (6,), (6, 5), (3, 5)], (4,),
                     id="linear_swish_matmul-residual"),
        pytest.param(add, [(2, 3), (2, 3)], (1,), id="add"),
        pytest.param(lambda a, b: add(a, b, 0.5), [(2, 3), (2, 3)], (0,), id="add-scaled"),
        pytest.param(lambda a: transpose(a, (1, 0, 2), (2, 3, 2), (6, 2)), [(6, 2)], (0,),
                     id="transpose-view-shape"),
        pytest.param(mul, [(2, 3), (2, 3)], (0,), id="mul"),
        pytest.param(layer_norm, [(3, 4), (4,), (4,)], (1, 2), id="layer_norm-gamma-beta"),
        pytest.param(lambda x, g, b, w: matmul(x, w, norm=(g, b)),
                     [(3, 4), (4,), (4,), (4, 5)], (1, 2), id="matmul-norm-gamma-beta"),
        pytest.param(lambda x, g, b, w: swish_matmul(x, w, norm=(g, b)),
                     [(3, 4), (4,), (4,), (4, 5)], (0,), id="swish_matmul-norm-input"),
        pytest.param(depthwise_conv1d, [(5, 3), (3, 3)], (1,), id="conv-kernel"),
        pytest.param(depthwise_conv1d, [(5, 3), (3, 3)], (0,), id="conv-input"),
        pytest.param(lambda a, b: concat_rows([a, b]), [(2, 3), (1, 3)], (0,),
                     id="concat_rows"),
        pytest.param(lambda q, k, p0, p1, v: attention_context(q, k, [p0, p1], v, 0.5),
                     [(6, 4), (6, 4), (2, 3, 5), (2, 3, 5), (6, 4)], (3,),
                     id="attention_context-one-score-part"),
    ])
    def test_constant_operands_receive_no_gradient(self, op, shapes, constant):
        def run(constant):
            rng = Rng(7)
            operands = [Tensor(rng.uniform(-1, 1, shape), requires_grad=i not in constant)
                        for i, shape in enumerate(shapes)]
            out = op(*operands)
            backward(sum_all(mul(out, Tensor(rng.uniform(-1, 1, out.shape)))))
            return operands

        for i, (every, some) in enumerate(zip(run(()), run(constant))):
            if i in constant:
                assert some.grad is None
            else:
                assert some.grad.tobytes() == every.grad.tobytes()

    def test_rule_returning_too_few_gradients_raises(self):
        a = Tensor(np.ones(2), requires_grad=True)
        b = Tensor(np.ones(2), requires_grad=True)
        node = Tensor(a.data + b.data, requires_grad=True, op="add", parents=(a, b),
                      backward=lambda g: (g,))
        with pytest.raises(ValueError, match=r"zip\(\)"):
            backward(sum_all(node))

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


class TestRetainedMemory:
    """A rule keeps no array it could get from its parents or its output."""

    @staticmethod
    def _build(op, rng):
        if op == "swish":
            return swish(rand_tensor(rng, (6, 10), requires_grad=True))
        if op == "swish_matmul":
            # the product is narrower than the activation, so holding it would show
            return swish_matmul(rand_tensor(rng, (6, 10), requires_grad=True),
                                rand_tensor(rng, (10, 4), requires_grad=True),
                                rand_tensor(rng, (4,), requires_grad=True))
        if op == "linear_swish_matmul":
            # the (6, 10) pre-activation is wider than the product, so holding it would show
            return linear_swish_matmul(rand_tensor(rng, (6, 3), requires_grad=True),
                                       rand_tensor(rng, (10, 3), requires_grad=True),
                                       rand_tensor(rng, (10,), requires_grad=True),
                                       rand_tensor(rng, (10, 4), requires_grad=True),
                                       rand_tensor(rng, (4,), requires_grad=True),
                                       transpose_w=True)
        if op.endswith("-residual"):
            product = op.removesuffix("-residual")
            args, kwargs = _residual_operands(
                product, 6, lambda *shape: rand_tensor(rng, shape, requires_grad=True))
            return _PRODUCTS[product](*args, **kwargs, s=0.5,
                                      residual=rand_tensor(rng, (6, 6), requires_grad=True))
        if op == "layer_norm":
            return layer_norm(rand_tensor(rng, (6, 10), requires_grad=True),
                              rand_tensor(rng, (10,), requires_grad=True),
                              rand_tensor(rng, (10,), requires_grad=True))
        if op == "glu":
            return glu(rand_tensor(rng, (6, 10), requires_grad=True))
        if op == "depthwise_conv1d":
            return depthwise_conv1d(rand_tensor(rng, (12, 10), requires_grad=True),
                                    rand_tensor(rng, (5, 10), requires_grad=True), frames=6)
        if op == "transpose":
            return transpose(rand_tensor(rng, (12, 10), requires_grad=True), (0, 2, 1, 3),
                             (2, 6, 5, 2), (10, 6, 2))
        if op == "add":
            return add(rand_tensor(rng, (6, 10), requires_grad=True),
                       rand_tensor(rng, (6, 10), requires_grad=True), 0.5)
        if op == "attention_context":
            # T < dh, so the (B·H, T, T) weights are smaller than the output
            # and an output-sized copy of q, k, v or the context would show
            q, k, pos0, pos1, v = (rand_tensor(rng, shape, requires_grad=True) for shape
                                   in ((6, 8), (6, 8), (2, 3, 5), (2, 3, 5), (6, 8)))
            return attention_context(q, k, [pos0, pos1], v, 0.5)
        if op == "attention_context-long":
            # T > dh: the (B·H, T, T) = (4, 6, 6) weights outgrow the (12, 4)
            # output, so keeping them would show
            q, k, pos0, pos1, v = (rand_tensor(rng, shape, requires_grad=True) for shape
                                   in ((12, 4), (12, 4), (2, 6, 11), (2, 6, 11), (12, 4)))
            return attention_context(q, k, [pos0, pos1], v, 0.5)
        if op.endswith("-norm"):
            # the product is narrower than the (6, 10) normalized operand, so
            # keeping that would show
            def draw(*shape):
                return rand_tensor(rng, shape, requires_grad=True)

            x, norm = draw(6, 10), (draw(10), draw(10))
            if op == "matmul-norm":
                return matmul(x, draw(10, 4), bias=draw(4), norm=norm)
            if op == "swish_matmul-norm":
                return swish_matmul(x, draw(10, 4), draw(4), norm=norm)
            return linear_swish_matmul(x, draw(10, 3), draw(3), draw(3, 4), draw(4), norm=norm)
        return attention_weights(rand_tensor(rng, (2, 6, 6), requires_grad=True),
                                 rand_tensor(rng, (2, 6, 11), requires_grad=True), 0.5)

    @pytest.mark.parametrize("op", ["swish", "layer_norm", "attention_weights", "glu",
                                    "depthwise_conv1d", "swish_matmul", "linear_swish_matmul",
                                    "transpose", "add", "attention_context",
                                    "attention_context-long", "matmul-residual",
                                    "swish_matmul-residual", "linear_swish_matmul-residual",
                                    "matmul-norm", "swish_matmul-norm",
                                    "linear_swish_matmul-norm"])
    def test_rule_holds_no_output_sized_array_of_its_own(self, op, rng):
        node = self._build(op, rng)
        held = _closure_values(node._backward)
        shared = [node.data] + [p.data for p in node._parents]
        scratch = _scratch_buffers()
        for value in held:
            if isinstance(value, Tensor):
                assert any(value is p for p in node._parents), f"{op} holds {value}"
            elif isinstance(value, np.ndarray):
                assert not any(np.shares_memory(value, buf) for buf in scratch), \
                    f"{op} keeps a scratch view of shape {value.shape}"
                if value.size >= node.size:
                    assert any(value is a for a in shared), \
                        f"{op} holds its own {value.shape} array"

    def test_batched_attention_keeps_no_joined_positional_scores(self, rng):
        from confshare.blocks import ModelConfig, attention

        B, T, H = 3, 5, 2
        p = bound_block(ModelConfig(d=8, e=4, heads=H, kernel_width=3, t_max=16), 8).attn
        out = attention(rand_tensor(rng, (B * T, 8), requires_grad=True), p, frames=T)
        nodes = Tape.trace(sum_all(out)).nodes
        # each utterance's positional scores are one (H, T, 2T - 1) node,
        # which the attention node reads as it is
        scores = [n for n in nodes if n.ndim == 3 and n.shape[-1] == 2 * T - 1]
        assert [n.shape for n in scores] == [(H, T, 2 * T - 1)] * B
        (context,) = [n for n in nodes if n.op == "attention_context"]
        assert {id(n) for n in context._parents[2:-1]} == {id(n) for n in scores}
        # and neither a node nor a rule closure holds them joined
        kept = [n.data for n in nodes] + self._held_arrays(nodes)
        assert not [a.shape for a in kept if a.shape == (B * H, T, 2 * T - 1)]

    @staticmethod
    def _two_layer_lrs3(lowrank=True):
        """LRS3's d=144 with its k=50 low-rank feed-forward (or a dense one),
        2 virtual layers, and one T=128 utterance."""
        from confshare.encoder import bind_model
        from confshare.lowrank import LowRankSpec
        from confshare.presets import preset
        from confshare.sharing import repeat_plan

        model = bind_model(preset("LRS3").config,
                           replace(repeat_plan(1, 2),
                                   lowrank=LowRankSpec(k=50) if lowrank else None), 0)
        rng = Rng(1)
        return model, rng.uniform(-1, 1, (128, 80)), rng.integers(8, (128,))

    def test_two_layer_lrs3_shape_forward_holds_at_most_8_mib(self):
        from confshare.encoder import encoder_forward

        model, features, labels = self._two_layer_lrs3()
        # a first forward sizes the scratch buffers, which every later one
        # reuses, so what is measured is what the forward itself keeps
        encoder_forward(Tensor(features), model)
        loss, held = traced_held(
            lambda: cross_entropy_mean(encoder_forward(Tensor(features), model), labels))
        assert held <= 8 * 2**20, f"the forward pass holds {held / 2**20:.1f} MiB"
        backward(loss)
        assert all(t.grad is not None for t in model.parameters())

    @pytest.mark.parametrize("lowrank", [True, False], ids=["lowrank", "dense"])
    def test_two_layer_lrs3_tape_keeps_no_ffn_wide_array(self, lowrank):
        from confshare.encoder import encoder_forward

        model, features, labels = self._two_layer_lrs3(lowrank)
        wide = (128, model.config.ffn_width)
        assert wide == (128, 1044)
        loss = cross_entropy_mean(encoder_forward(Tensor(features), model), labels)
        nodes = Tape.trace(loss).nodes
        # two feed-forwards in each of the two layers, each one node from
        # the last factor of linear1 to the first of linear2
        assert [n.op for n in nodes].count("linear_swish_matmul") == 4
        # the pre-activation is rebuilt in backward and the swish never kept
        assert [n.op for n in nodes if n.shape == wide] == []
        assert not [a.shape for a in self._held_arrays(nodes) if a.shape == wide]

    @staticmethod
    def _held_arrays(nodes) -> list[np.ndarray]:
        """Every array a rule closure of ``nodes`` holds."""
        return [v for n in nodes if n._backward is not None
                for v in _closure_values(n._backward) if isinstance(v, np.ndarray)]

    @pytest.mark.parametrize("lowrank", [True, False], ids=["lowrank", "dense"])
    def test_two_layer_lrs3_keeps_no_weights_and_no_folded_norm_output(self, lowrank):
        from confshare.encoder import encoder_forward

        model, features, labels = self._two_layer_lrs3(lowrank)
        loss = cross_entropy_mean(encoder_forward(Tensor(features), model), labels)
        nodes = Tape.trace(loss).nodes
        held = self._held_arrays(nodes)
        # the softmax weights are rebuilt in backward, not kept
        assert not [a.shape for a in held if a.shape[-2:] == (128, 128)]
        # four norms a layer are a product's prologue: each feed-forward's,
        # and the convolution module's two; only the attention's and the
        # block's final norm are layer_norm nodes
        blocks = model.virtual_blocks()
        folded = [pair for b in blocks for pair in (
            (b.ff_start.ln_gamma, b.ff_start.ln_beta), (b.conv.ln_gamma, b.conv.ln_beta),
            (b.conv.norm_gamma, b.conv.norm_beta), (b.ff_end.ln_gamma, b.ff_end.ln_beta))]
        readers = [n for n in nodes if any(n._parents[1:3] == pair for pair in folded)]
        assert len(readers) == 4 * len(blocks)
        assert [n.op for n in nodes].count("layer_norm") == 2 * len(blocks)
        # no node or rule closure holds a folded norm's output
        normalized = {layer_norm(n._parents[0], *n._parents[1:3]).data.tobytes()
                      for n in readers}
        assert len(normalized) == len(readers)
        kept = [n.data for n in nodes] + held
        assert not [a.shape for a in kept if a.nbytes == 128 * 144 * 8
                    and a.tobytes() in normalized]

    @pytest.mark.parametrize("frames,batch,count,mib", [
        pytest.param(128, 1, 1123, 145, id="128-1-1123"),
        pytest.param(64, 2, 1243, 125, id="64-2-1243")])
    def test_lrs3_forward_tape_layout_and_held_bytes(self, frames, batch, count, mib):
        # the paper's LRS3 model: 40 layers at d=144 with four heads
        from confshare.encoder import bind_model
        from confshare.presets import preset
        from confshare.training import ToyTaskSpec, batch_loss, generate_toy_batch

        p = preset("LRS3")
        model = bind_model(p.config, p.plan, 1)
        spec = ToyTaskSpec(feature_dim=p.config.input_dim, num_classes=p.config.num_classes,
                           frames=frames, batch=batch)
        data = generate_toy_batch(spec, 1, 0)
        batch_loss(model, *data)  # the scratch slots take their size
        loss, held = traced_held(lambda: batch_loss(model, *data))
        nodes = Tape.trace(loss).nodes
        layers = len(model.virtual_blocks())
        assert layers == 40
        assert len(nodes) == count
        assert [n.op for n in nodes].count("layer_norm") == 2 * layers
        assert not [a.shape for a in self._held_arrays(nodes) if a.shape[-2:] == (frames,) * 2]
        assert held <= mib * 2**20, f"the forward pass holds {held / 2**20:.1f} MiB"


def _closure_values(fn) -> list:
    """What the closure of ``fn`` holds, with the functions in it replaced
    by what their closures hold, so a product's core operations, which
    the frame's rule calls, are searched too, and the tuples and lists in
    it by their items, so ``attention_context``'s positional parts are."""
    values = []
    for cell in fn.__closure__ or ():
        values += _flattened(cell.cell_contents)
    return values


def _flattened(value) -> list:
    if isinstance(value, types.FunctionType):
        return _closure_values(value)
    if isinstance(value, (tuple, list)):
        return [v for item in value for v in _flattened(item)]
    return [value]


def _scratch_buffers() -> list[np.ndarray]:
    """The calling thread's scratch buffers."""
    return list(_SCRATCH.buffers.values())


class TestScratch:
    """A scratch buffer holds only temporaries that a kernel fills and drops
    within one call, and each thread has its own."""

    SLOTS = {"sigmoid.den", "sigmoid.mask", "swish_matmul.act", "swish_matmul.s",
             "swish_matmul.ga", "linear_swish_matmul.pre", "glu.s", "conv.xp", "conv.tap",
             "softmax_grad.gp", "attention_context.p", "norm.y", "norm.xhat",
             "adam.step", "adam.den"}

    @staticmethod
    def _model(name):
        from confshare.blocks import ModelConfig
        from confshare.encoder import bind_model
        from confshare.presets import preset
        from confshare.sharing import repeat_plan

        if name == "toy_train":
            config = ModelConfig(d=32, e=7.25, heads=4, kernel_width=11)
            return bind_model(config, repeat_plan(2, 3), 11), 32
        p = preset(name)
        return bind_model(p.config, p.plan, 1), 8

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("name", ["toy_train", "LRS3-small"])
    def test_no_array_a_step_keeps_shares_memory_with_a_scratch_buffer(self, name, batch):
        from confshare.sharing import key_str
        from confshare.training import (OptimizerState, ToyTaskSpec, batch_loss,
                                        generate_toy_batch)

        model, frames = self._model(name)
        spec = ToyTaskSpec(feature_dim=model.config.input_dim,
                           num_classes=model.config.num_classes, frames=frames, batch=batch)
        opt = OptimizerState()
        tape = backward(batch_loss(model, *generate_toy_batch(spec, 5, 0)))
        opt.step(model.store)
        # every kernel that takes scratch ran, so there is something to check against
        assert self.SLOTS <= set(_SCRATCH.buffers)
        scratch = _scratch_buffers()
        kept = [(f"{n.op or 'leaf'} node", n.data) for n in tape.nodes]
        kept += [(f"{n.op} rule closure", v) for n in tape.nodes if n._backward is not None
                 for v in _closure_values(n._backward) if isinstance(v, np.ndarray)]
        for key, t in model.store.items():
            name = key_str(key)
            assert t.grad is not None, f"{name} has no gradient"
            kept += [(f"{name} data", t.data), (f"{name} grad", t.grad),
                     (f"{name} m", opt.m[key]), (f"{name} v", opt.v[key])]
        for what, arr in kept:
            assert not any(np.shares_memory(arr, buf) for buf in scratch), \
                f"{what} shares memory with a scratch buffer"

    def test_warm_swish_matmul_rule_allocates_only_its_gradients(self):
        # the LRS3 low-rank feed-forward's second product, one T=128 utterance
        rng = Rng(3)
        a = Tensor(rng.uniform(-4.0, 4.0, (128, 1044)), requires_grad=True)
        b = Tensor(rng.uniform(-0.1, 0.1, (1044, 50)), requires_grad=True)
        node = swish_matmul(a, b)
        g = rng.uniform(-1.0, 1.0, (128, 50))
        node._backward(g)  # the scratch slots take their size
        grads, peak = traced_peak(lambda: node._backward(g))
        returned = sum(x.nbytes for x in grads)
        assert peak <= returned + 64 * 1024, \
            f"the rule held {peak} bytes for {returned} bytes of gradients"

    def test_warm_linear_swish_matmul_rule_allocates_only_its_gradients(self):
        # the LRS3 low-rank feed-forward from U1's product to U2's, one T=128
        # utterance: the rule rebuilds the (128, 1044) pre-activation in
        # scratch and writes the pre-activation's gradient over it
        rng = Rng(3)
        a = Tensor(rng.uniform(-4.0, 4.0, (128, 50)), requires_grad=True)
        w = Tensor(rng.uniform(-0.2, 0.2, (1044, 50)), requires_grad=True)
        c = Tensor(rng.uniform(-0.1, 0.1, (1044,)), requires_grad=True)
        b = Tensor(rng.uniform(-0.1, 0.1, (1044, 50)), requires_grad=True)
        node = linear_swish_matmul(a, w, c, b, transpose_w=True)
        g = rng.uniform(-1.0, 1.0, (128, 50))
        node._backward(g)  # the scratch slots take their size
        grads, peak = traced_peak(lambda: node._backward(g))
        returned = sum(x.nbytes for x in grads)
        assert peak <= returned + 64 * 1024, \
            f"the rule held {peak} bytes for {returned} bytes of gradients"

    @staticmethod
    def _swish_matmul_oracle(a, b, bias, g):
        """swish(a) @ b (+ bias) and its gradients as plain formulas, a
        fresh array for every step, in the fused rule's operation order."""
        s = _two_branch_sigmoid(a)
        act = a * s
        out = act @ b
        grads = [(act * (1 - s) + s) * (g @ b.T), act.T @ g]
        if bias is not None:
            out += bias
            grads.append(g.sum(axis=0))
        return [out, *grads]

    @staticmethod
    def _glu_oracle(a, g):
        n = a.shape[-1] // 2
        u, v = a[..., :n], a[..., n:]
        s = _two_branch_sigmoid(v)
        return [u * s, np.concatenate((g * s, g * u * s * (1 - s)), -1)]

    def _check_fd_gradcheck_shapes(self, d: int, lowrank: bool):
        """linear_swish_matmul, swish_matmul, glu and depthwise_conv1d at
        the shapes of the fd_gradcheck model of width d (2 utterances of 6
        frames), each byte-compared with a fresh-buffer oracle."""
        from confshare.blocks import ModelConfig

        ffn = ModelConfig(d=d, e=7.25, heads=4, kernel_width=11).ffn_width
        rng = Rng(d)
        rows, frames, w = 12, 6, 11

        def draw(*shape):
            return _with_signed_zeros(rng.uniform(-3.0, 3.0, shape))

        # the feed-forward: the low-rank model's runs from rank 4 through V1ᵀ
        # to rank 4, without a bias
        a, c = draw(rows, 4 if lowrank else d), draw(ffn)
        w1 = draw(ffn, 4) if lowrank else draw(d, ffn)
        b, bias = draw(ffn, 4 if lowrank else d), None if lowrank else draw(d)
        node = linear_swish_matmul(*(Tensor(x, requires_grad=True) for x in (a, w1, c, b)),
                                   None if bias is None else Tensor(bias, requires_grad=True),
                                   transpose_w=lowrank)
        g = draw(*node.shape)
        got = [node.data, *node._backward(g)]
        out, gpre, gb, *gbias = self._swish_matmul_oracle(
            a @ (w1.T if lowrank else w1) + c, b, bias, g)
        ga, gw = (gpre @ w1, gpre.T @ a) if lowrank else (gpre @ w1.T, a.T @ gpre)
        want = [out, ga, gw, gpre.sum(axis=0), gb, *gbias]
        # the convolution module's post-projection
        a, b, bias = draw(rows, d), draw(d, d), draw(d)
        node = swish_matmul(*(Tensor(x, requires_grad=True) for x in (a, b, bias)))
        g = draw(*node.shape)
        got += [node.data, *node._backward(g)]
        want += self._swish_matmul_oracle(a, b, bias, g)
        a, g = draw(rows, 2 * d), draw(rows, d)
        node = glu(Tensor(a, requires_grad=True))
        got += [node.data, *node._backward(g)]
        want += self._glu_oracle(a, g)
        x, k, g = draw(rows, d), draw(w, d), draw(rows, d)
        node = depthwise_conv1d(Tensor(x, requires_grad=True), Tensor(k, requires_grad=True),
                                frames=frames)
        got += [node.data, *node._backward(g)]
        want += TestDepthwiseConv._per_tap_oracle(x, k, g, rows // frames)
        assert len(got) == len(want)
        for i, (x, y) in enumerate(zip(got, want)):
            assert x.shape == y.shape and x.tobytes() == y.tobytes(), f"array {i} at d={d}"
        return {slot: buf.size for slot, buf in _SCRATCH.buffers.items()}

    def test_alternating_shapes_through_the_same_slots_match_fresh_buffer_oracles(self):
        def alternate():
            # a new thread starts with no buffers, so the d=16 shapes grow
            # every slot and the second d=8 pass runs in their heads
            assert not _SCRATCH.buffers
            sizes = [self._check_fd_gradcheck_shapes(d, lowrank)
                     for d, lowrank in ((8, False), (16, True), (8, False), (16, True))]
            assert all(sizes[1][slot] > sizes[0][slot] for slot in sizes[0])
            assert sizes[1] == sizes[2] == sizes[3]
            return _scratch_buffers()

        with ThreadPoolExecutor(max_workers=1) as pool:
            theirs = pool.submit(alternate).result(timeout=60)
        self._check_fd_gradcheck_shapes(8, False)
        ours = _scratch_buffers()
        assert not any(np.shares_memory(x, y) for x in theirs for y in ours)


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


    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_rejects_non_finite_eps(self, eps):
        theta = np.zeros(2)

        def never():
            raise AssertionError("evaluated with a non-finite step")

        with pytest.raises(ValueError, match="eps must be positive and finite"):
            finite_diff_grad(never, theta, eps=eps)
        assert theta.tolist() == [0.0, 0.0]


    def test_rejects_step_that_rounds_away_before_evaluating(self):
        theta = np.array([0.0, 1.0, 0.5])

        def never():
            raise AssertionError("evaluated with a step that rounds away")

        with pytest.raises(ValueError, match="a step of 1e-300 rounds away at coordinate 1: "
                                             r"1\.0 \+- 1e-300 == 1\.0"):
            finite_diff_grad(never, theta, eps=1e-300)
        with pytest.raises(ValueError, match="coordinate 2"):
            finite_diff_grad(never, theta, eps=1e-17, coords=[0, 2])
        # at 0.0 the same step is representable, so it is taken
        assert finite_diff_grad(lambda: float(theta[0]), theta, 1e-300, coords=[0]) == [1.0]
        assert theta.tolist() == [0.0, 1.0, 0.5]


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
