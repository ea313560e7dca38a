import math
import re
import types
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import partial

import mpmath
import numpy as np
import pytest

from confshare.autodiff import (_THREAD, HALF_STEP, LN_EPS, ZERO_FLOOR, NonFiniteError, Rng,
                                ShapeError, Tape, Tensor, _skew, attention_matmul, backward,
                                cross_entropy_mean, finite_diff_grad, glu_conv_swish_matmul,
                                layer_norm, linear_swish_matmul, matmul, relative_error,
                                split_heads, sum_all, zero_grads)
from conftest import (assert_params_match_fd, bound_block, rand_tensor, traced_held,
                      traced_peak)
from oracles import (_sigmoid, add, attention_chain, attention_context, attention_weights,
                     concat_rows, depthwise_conv1d, glu, linear, mul, rule_grads, scale, skew,
                     slice_rows, softmax, swish, transpose)


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
    @pytest.mark.parametrize("shape", [(1,), (7,), (3, 5)])
    def test_draws_follow_the_raw_stream(self, shape, lo, hi):
        # each draw is a plain formula of the raw stream, and a stream that
        # has drawn before goes on from where it stopped
        def unit(n):
            return (ref._raw(n) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53

        n = math.prod(shape)
        rng, ref = Rng(11), Rng(11)
        for _ in range(2):
            want = (lo + unit(n) * (hi - lo)).reshape(shape)
            assert rng.uniform(lo, hi, shape).tobytes() == want.tobytes()
            want = np.minimum((unit(n) * 13).astype(np.int64), 12).reshape(shape)
            got = rng.integers(13, shape)
            assert got.tobytes() == want.tobytes()
            assert type(got) is np.ndarray

    @pytest.mark.parametrize("draw", ["uniform", "integers"])
    def test_shape_is_required(self, draw):
        args = (0, 1) if draw == "uniform" else (5,)
        with pytest.raises(TypeError):
            getattr(Rng(1), draw)(*args)

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

    @pytest.mark.parametrize("a,b", [((2, 3), (2, 3, 4)), ((2, 3, 4), (4, 5))])
    def test_rejects_operands_of_unlike_rank(self, a, b):
        message = f"matmul supports 2d@2d or 3d@3d, got {a} @ {b}"
        with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
            matmul(Tensor(np.zeros(a)), Tensor(np.zeros(b)))

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

    @pytest.mark.parametrize("a,b,transpose_b", [
        pytest.param((2, 3, 4), (2, 6, 4), True, id="width-not-2T-1"),
        pytest.param((2, 3, 4), (2, 4, 5), False, id="not-transposed"),
        pytest.param((3, 4), (5, 4), True, id="2-d")])
    def test_band_takes_only_a_positional_product(self, a, b, transpose_b):
        message = (f"matmul: a band takes (H, T, dh) @ (H, 2T - 1, dh) transposed, got {a} @ "
                   f"{b}{' (transposed)' if transpose_b else ''}")
        with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
            matmul(Tensor(np.zeros(a)), Tensor(np.zeros(b)), transpose_b=transpose_b, band=True)

    def test_band_checks_the_whole_product(self):
        # full[0, 0, 0], offset -1 from the first query, is outside the band:
        # it overflows while every score the band keeps is finite
        a, b = np.ones((1, 2, 1)), np.ones((1, 3, 1))
        a[0, 0, 0] = b[0, 0, 0] = 1e200
        with np.errstate(over="ignore"):
            assert np.all(np.isfinite(_skew(a @ np.swapaxes(b, -1, -2))))
            with pytest.raises(NonFiniteError, match="^matmul produced non-finite values$"):
                matmul(Tensor(a), Tensor(b), transpose_b=True, band=True)


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


class TestAttentionWeights:
    @pytest.mark.parametrize("T", [1, 2, 3, 5, 16, 128])
    def test_skew_equals_index_gather(self, T):
        full = Tensor(Rng(T).uniform(-1, 1, (3, T, 2 * T - 1)), requires_grad=True)
        assert _skew(full.data).tobytes() == skew(full).data.tobytes()
        # writing through the view is the oracle's scatter
        g = Rng(T + 1).uniform(-1, 1, (3, T, T))
        scattered = np.zeros(full.shape)
        _skew(scattered)[...] = g
        assert scattered.tobytes() == skew(full)._backward(g)[0].tobytes()

    def test_gradients(self, rng):
        T = 4
        content = rand_tensor(rng, (2, T, T), requires_grad=True, scale=2.0)
        pos = rand_tensor(rng, (2, T, T), requires_grad=True, scale=2.0)
        c = Tensor(rng.uniform(-1, 1, (2, T, T)))

        def make_loss():
            return sum_all(mul(attention_weights(content, pos, 0.5), c))

        assert_params_match_fd({"content": content, "pos": pos}, make_loss)

    @pytest.mark.parametrize("content,pos", [((2, 3, 3), (2, 3, 5)),
                                             ((2, 3, 3), (2, 4, 4)),
                                             ((2, 3, 4), (2, 3, 4)),
                                             ((3, 3), (3, 3))])
    def test_rejects_scores_that_do_not_pair_up(self, content, pos):
        with pytest.raises(ShapeError, match="attention_weights"):
            attention_weights(Tensor(np.zeros(content)), Tensor(np.zeros(pos)), 1.0)


def _attention_operands(draw, B, T=4, H=2, dh=3):
    """(B·T, H·dh) q, k and v and B utterances' (H, T, T) bands of
    positional scores, in the order of ``attention_context``'s parents,
    each from ``draw`` (see ``_drawer``)."""
    d = H * dh
    q, k = draw(B * T, d), draw(B * T, d)
    return q, k, [draw(H, T, T) for _ in range(B)], draw(B * T, d)


def _attention_matmul_operands(draw, B, T=4, H=2, dh=3, n=2):
    """A (B·T, n) xn, the (n, H·dh) wq and its (H·dh,) bq, the same for k,
    B utterances' (H, T, T) bands of positional scores and a (B·T, H·dh)
    v, in the order of ``attention_matmul``'s parents, each from
    ``draw``."""
    d = H * dh
    xn, wq, bq, wk, bk = draw(B * T, n), draw(n, d), draw(d), draw(n, d), draw(d)
    return xn, wq, bq, wk, bk, [draw(H, T, T) for _ in range(B)], draw(B * T, d)


def _projected(xn, wq, bq, wk, bk):
    """The q and k projections that ``attention_matmul`` rebuilds, as nodes."""
    return matmul(xn, wq, bias=bq), matmul(xn, wk, bias=bk)


class TestAttentionMatmul:
    @pytest.mark.parametrize("H,dh", [(2, 2), (3, 4), (4, 1)])
    def test_scale_is_one_over_the_root_of_the_head_width(self, rng, H, dh):
        # the op reads the scale from its operands' shapes: 1/sqrt(d/H), not 1/sqrt(d)
        xn, wq, bq, wk, bk, pos, v = _attention_matmul_operands(_drawer(rng), 2, T=3, H=H,
                                                                dh=dh)
        w, bias = rand_tensor(rng, (H * dh, 5)), rand_tensor(rng, (5,))
        x = rand_tensor(rng, (6, 5))  # the residual
        fused = attention_matmul(xn, wq, bq, wk, bk, pos, v, w, bias=bias,
                                 residual=x).data.tobytes()
        q, k = _projected(xn, wq, bq, wk, bk)
        for s, same in ((1.0 / math.sqrt(dh), True), (1.0 / math.sqrt(H * dh), False)):
            chain = add(x, matmul(attention_chain(q, k, pos, v, s), w, bias=bias))
            assert (fused == chain.data.tobytes()) == same

    def test_gradients(self, rng):
        # dh = 4, so the scale is 0.5
        def draw(*shape):
            return rand_tensor(rng, shape, requires_grad=True)

        xn, wq, bq, wk, bk, pos, v = _attention_matmul_operands(draw, 2, T=3, dh=4, n=5)
        w, bias, x = draw(8, 8), draw(8), draw(6, 8)
        named = {"xn": xn, "wq": wq, "bq": bq, "wk": wk, "bk": bk, "pos0": pos[0],
                 "pos1": pos[1], "v": v, "w": w, "bias": bias, "residual": x}
        c = Tensor(rng.uniform(-1, 1, x.shape))

        def make_loss():
            return sum_all(mul(attention_matmul(xn, wq, bq, wk, bk, pos, v, w, bias=bias,
                                                residual=x), c))

        assert_params_match_fd(named, make_loss)

    _SHAPES = {"xn": (8, 5), "wq": (5, 6), "bq": (6,), "wk": (5, 6), "bk": (6,),
               "pos": [(2, 4, 4)] * 2, "v": (8, 6), "w": (6, 5)}

    @pytest.mark.parametrize("bad", [
        # the band is T = 4 wide, not the full product's 2T - 1 = 7
        pytest.param({"pos": [(2, 4, 7)] * 2}, id="pos-width"),
        # 8 rows are not 2 utterances of 3 frames
        pytest.param({"pos": [(2, 3, 3)] * 2}, id="pos-frames"),
        # 3 utterances of 4 frames are 12 rows, and 1 is 4, not 8
        pytest.param({"pos": [(2, 4, 4)] * 3}, id="three-utterances"),
        pytest.param({"pos": [(2, 4, 4)]}, id="one-utterance"),
        pytest.param({"pos": [(4, 4, 4)] * 2}, id="heads-do-not-divide-d"),
        pytest.param({"pos": [(2, 4, 4), (3, 4, 4)]}, id="parts-heads-differ"),
        pytest.param({"pos": [(2, 4, 4), (2, 4, 7)]}, id="parts-widths-differ"),
        pytest.param({"pos": [(2, 4, 4), (2, 4)]}, id="part-not-3-d"),
        pytest.param({"pos": []}, id="no-utterance"),
        pytest.param({"pos": [(4, 4)] * 2}, id="parts-not-3-d"),
        pytest.param({"v": (8, 4)}, id="v-narrower"),
        pytest.param({"v": (4, 6)}, id="v-rows"),
        pytest.param({"wk": (5, 4)}, id="k-narrower-than-q"),
        # the projections' rows are not xn's width
        pytest.param({"wq": (4, 6), "wk": (4, 6)}, id="projection-rows"),
        pytest.param({"bq": (4,)}, id="bq-shape"),
        pytest.param({"bk": (6, 1)}, id="bk-shape"),
        pytest.param({"xn": (2, 4, 5)}, id="xn-not-2-d"),
        pytest.param({"w": (5, 6)}, id="w-rows-not-d"),
        pytest.param({"w": (6,)}, id="w-not-2-d")])
    def test_rejects_operands_that_do_not_pair_up(self, bad):
        shapes = {**self._SHAPES, **bad}
        message = (f"attention_matmul: expected a (B·T, n) xn, (n, d) wq and wk, (d,) bq and "
                   f"bk, B (H, T, T) positional scores with H dividing d, a (B·T, d) v "
                   f"and a (d, m) w, got {shapes['xn']}, {shapes['wq']}, {shapes['bq']}, "
                   f"{shapes['wk']}, {shapes['bk']}, {shapes['pos']}, {shapes['v']} and "
                   f"{shapes['w']}")

        def zeros(name):
            return Tensor(np.zeros(shapes[name]))

        with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
            attention_matmul(*map(zeros, ("xn", "wq", "bq", "wk", "bk")),
                             [Tensor(np.zeros(shape)) for shape in shapes["pos"]], zeros("v"),
                             zeros("w"), bias=Tensor(np.zeros(5)),
                             residual=Tensor(np.zeros((8, 5))))

    @pytest.mark.parametrize("stage,op", [
        pytest.param("query", "matmul", id="q-projection"),
        pytest.param("key", "matmul", id="k-projection"),
        pytest.param("content", "matmul", id="content-score"),
        pytest.param("summed", "attention_context", id="summed-score"),
        pytest.param("context", "attention_context", id="context"),
        pytest.param("projection", "attention_matmul", id="post-projection")])
    def test_rejects_a_non_finite_stage_as_its_chain_node(self, rng, stage, op):
        # each stage overflows on its own; unchecked, a later stage would
        # raise under another name, or the softmax hide a -inf score as 0
        xn, wq, bq, wk, bk, pos, v = _attention_matmul_operands(_drawer(rng), 1)
        w = Tensor(np.ones((6, 4)))
        if stage == "query":  # the product passes the largest double
            xn.data[...] = 1.0
            wq.data[:, 0] = 1e308
        elif stage == "key":  # a finite product, whose bias add passes it
            xn.data[...] = 1.0
            wk.data[:, 0] = 5e307
            bk.data[0] = 1e308
        elif stage == "content":  # every score of one head is -inf
            bq.data[:3] = 1e200
            bk.data[:3] = -1e200
        elif stage == "summed":
            # a finite content score of one head and finite positional
            # scores whose sum passes the largest double; the scale,
            # 1/sqrt(3), is below 1
            xn.data[...] = 0.0
            bq.data[0] = 1e300
            bk.data[0] = 1e8
            pos[0].data[...] = 1e308
        elif stage == "context":
            # v at the largest double, and finite weights, the softmax of
            # positional scores alone: their rounded products with v add up
            # past it on some rows
            xn.data[...] = bq.data[...] = bk.data[...] = 0.0
            pos[0].data[...] = Rng(0).uniform(-2.0, 2.0, pos[0].shape)
            v.data[...] = np.finfo(np.float64).max
        else:  # a finite context times a finite w passes the largest double
            v.data[...] = 1.0
            w.data[...] = 1e308
        with np.errstate(all="ignore"), \
                pytest.raises(NonFiniteError, match=f"^{op} produced non-finite values$"):
            attention_matmul(xn, wq, bq, wk, bk, pos, v, w, bias=Tensor(np.zeros(4)),
                             residual=Tensor(np.zeros((4, 4))))


def _plain_sigmoid(x):
    """1 / (1 + exp(-x)), the formula the kernel computes, as fresh arrays."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _two_branch_sigmoid(x):
    """The sign-split formula; from zero up it takes the same steps as the
    plain one, so it is the byte reference there."""
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))


def _with_signed_zeros(values):
    """A copy with every seventh entry +0.0 and every eleventh -0.0."""
    out = np.array(values, dtype=np.float64)
    flat = out.reshape(-1)
    flat[::7] = 0.0
    flat[::11] = -0.0
    return out


def _drawer(rng, drawn=None, constant=None):
    """``draw(*shape)``: a leaf uniform in [-2, 2) from ``rng``, with
    signed zeros, appended to the list ``drawn``; trainable unless it is
    the one numbered ``constant`` in draw order."""
    drawn = [] if drawn is None else drawn

    def draw(*shape):
        leaf = Tensor(_with_signed_zeros(rng.uniform(-2.0, 2.0, shape)),
                      requires_grad=len(drawn) != constant)
        drawn.append(leaf)
        return leaf

    return draw


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

    def test_sigmoid_matches_plain_formula_bytewise(self, rng):
        edges = np.array([0.0, -0.0, 800.0, -800.0, 1e-300, -1e-300, 745.0, -745.0])
        wide = rng.uniform(-40.0, 40.0, (128, 1044))
        assert (wide < 0).any() and (wide >= 0).any()
        for x in (edges, wide, wide[:, 4:], np.array(-3.5)):
            assert _sigmoid(x).tobytes() == _plain_sigmoid(x).tobytes()
        assert isinstance(_sigmoid(np.array(-3.5)), np.ndarray)

    def test_sigmoid_matches_two_branch_formula_from_zero_up(self, rng):
        edges = np.array([0.0, -0.0, 1e-300, 800.0])
        wide = _with_signed_zeros(rng.uniform(0.0, 40.0, (128, 1044)))
        for x in (edges, wide):
            assert _sigmoid(x).tobytes() == _two_branch_sigmoid(x).tobytes()

    def test_sigmoid_is_within_two_ulp_of_mpmath(self):
        xs = np.linspace(-700.0, 40.0, 7401)
        got = _sigmoid(xs)
        with mpmath.workdps(50):
            for x, y in zip(xs.tolist(), got.tolist()):
                want = 1 / (1 + mpmath.exp(-mpmath.mpf(x)))
                ulps = abs(mpmath.mpf(y) - want) / np.spacing(float(want))
                assert ulps <= 2, f"sigmoid({x!r}) = {y!r} is {float(ulps):.2f} ulp off"

    def test_sigmoid_is_zero_where_exp_overflows(self):
        # exp(-x) overflows to inf below about -709.78, and 1 / (1 + inf) is 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _sigmoid(np.array([-709.79, -745.0, -800.0]))
        assert got.tolist() == [0.0, 0.0, 0.0]
        assert not np.signbit(got).any()

    @pytest.mark.parametrize("shape", [(2,), (12, 10), (2, 5, 8)])
    def test_glu_matches_concatenated_halves_bytewise(self, rng, shape):
        a = _with_signed_zeros(rng.uniform(-6.0, 6.0, shape))
        n = shape[-1] // 2
        u, v = a[..., :n], a[..., n:]
        g = _with_signed_zeros(rng.uniform(-1.0, 1.0, shape[:-1] + (n,)))
        s = _plain_sigmoid(v)
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
        pytest.param(lambda x, g, b, w, c, k, g2, b2, v, d: glu_conv_swish_matmul(
                         x, w, c, k, g2, b2, v, 4, bias=d, norm=(g, b)),
                     [(8, 4), (4,), (4,), (4, 6), (6,), (3, 3), (3,), (3,), (3, 4), (4,)],
                     id="glu_conv_swish_matmul-two-utterances"),
        pytest.param(lambda a: transpose(a, (2, 3, 2, 2), (4, 6)), [(6, 4)],
                     id="transpose-view-shape"),
        pytest.param(lambda a: split_heads(a, 1, 4, 2), [(5, 6)], id="split_heads"),
        pytest.param(lambda a: split_heads(a, 0, 5, 3), [(5, 6)], id="split_heads-all"),
        pytest.param(lambda a, b: add(a, b, -0.5), [(4, 3), (4, 3)], id="add-scaled"),
        pytest.param(lambda x, g, b, w, c, k, g2, b2, v, d: glu_conv_swish_matmul(
                         x, w, c, k, g2, b2, v, 4, bias=d, norm=(g, b)),
                     [(4, 4), (4,), (4,), (4, 6), (6,), (3, 3), (3,), (3,), (3, 4), (4,)],
                     id="glu_conv_swish_matmul"),
        pytest.param(lambda x, g, b, w, c, v, d: linear_swish_matmul(
                         x, w, c, v, d, norm=(g, b), out_norm=None),
                     [(4, 4), (4,), (4,), (4, 6), (6,), (6, 4), (4,)],
                     id="linear_swish_matmul"),
        pytest.param(lambda x, g, b, u1, v1, c, u2, v2, d: linear_swish_matmul(
                         x, (u1, v1), c, (u2, v2), d, norm=(g, b), out_norm=None),
                     [(4, 4), (4,), (4,), (4, 2), (6, 2), (6,), (6, 3), (4, 3), (4,)],
                     id="linear_swish_matmul-factored"),
        pytest.param(lambda x, g, b, u1, v1, c, u2, v2, d, g2, b2: linear_swish_matmul(
                         x, (u1, v1), c, (u2, v2), d, norm=(g, b), out_norm=(g2, b2)),
                     [(4, 4), (4,), (4,), (4, 2), (6, 2), (6,), (6, 3), (4, 3), (4,), (4,),
                      (4,)],
                     id="linear_swish_matmul-factored-out_norm"),
        pytest.param(lambda x, g, b, w, c, v, d, g2, b2: linear_swish_matmul(
                         x, w, c, v, d, norm=(g, b), out_norm=(g2, b2)),
                     [(4, 4), (4,), (4,), (4, 6), (6,), (6, 4), (4,), (4,), (4,)],
                     id="linear_swish_matmul-out_norm")])
    def test_gradients(self, rng, op, shapes):
        named = {f"x{i}": rand_tensor(rng, shape, requires_grad=True, scale=2.0)
                 for i, shape in enumerate(shapes)}
        c = Tensor(rng.uniform(-1, 1, op(*named.values()).shape))

        def make_loss():
            return sum_all(mul(op(*named.values()), c))

        assert_params_match_fd(named, make_loss)

    def test_linear_swish_matmul_rejects_a_non_finite_pre_activation_as_a_matmul(self):
        # the product overflows, and the swish of -inf would hide it as 0; the
        # layer norm of a one-column row is its beta
        a, w, norm = Tensor([[1.0]]), Tensor([[-1e200, 1.0]]), (Tensor([1.0]), Tensor([1e200]))
        with np.errstate(all="ignore"), \
                pytest.raises(NonFiniteError, match="^matmul produced non-finite values"):
            linear_swish_matmul(a, w, Tensor([0.0, 0.0]), Tensor([[1.0], [1.0]]), Tensor([0.0]),
                                norm=norm, out_norm=None)

    @pytest.mark.parametrize("beta,w,c,b,op", [
        # LN(a) @ U1 passes the largest double: the pre-activation after it
        # raises, as the chain's would
        pytest.param(1e200, ([[1e200]], [[-1.0], [1.0]]), [0.0, 0.0], ([[1.0], [1.0]], [[1.0]]),
                     "matmul", id="x-u1"),
        # act @ U2 does, with act near 10: the output after it raises, as the
        # chain's linear_swish_matmul node would
        pytest.param(10.0, ([[1.0]], [[1.0]]), [0.0], ([[1e308, 1e308]], [[1.0, 1.0]]),
                     "linear_swish_matmul", id="act-u2"),
        # a finite act @ U2 times V2ᵀ does: the chain's V2 matmul would raise
        pytest.param(10.0, ([[1.0]], [[1.0]]), [0.0], ([[1e307, 1e307]], [[10.0, 10.0]]),
                     "linear_swish_matmul", id="output")])
    def test_factored_linear_swish_matmul_rejects_a_non_finite_stage(self, beta, w, c, b, op):
        # a one-column a, whose layer norm is its beta
        norm = (Tensor([1.0]), Tensor([beta]))
        w, b = (tuple(map(Tensor, pair)) for pair in (w, b))
        with np.errstate(all="ignore"), \
                pytest.raises(NonFiniteError, match=f"^{op} produced non-finite values$"):
            linear_swish_matmul(Tensor([[1.0]]), w, Tensor(c), b, Tensor([0.0]), norm=norm,
                                out_norm=None)

    @pytest.mark.parametrize("shapes", [
        pytest.param([(4, 5), (4, 6), (6,), (6, 5)], id="inner-extents"),
        pytest.param([(4, 5), ((4, 2), (6, 2)), (6,), ((6, 2), (5, 2))],
                     id="factored-inner-extents"),
        pytest.param([(4, 5), ((5, 2), (6, 3)), (6,), ((6, 2), (5, 2))],
                     id="factor-ranks-differ"),
        pytest.param([(4, 5), ((5, 2), (6,)), (6,), ((6, 2), (5, 2))], id="factor-not-2-d"),
        pytest.param([(4, 5), (5, 6), (4,), (6, 5)], id="hidden-bias"),
        pytest.param([(4, 5), ((5, 2), (6, 2)), (4,), ((6, 2), (5, 2))],
                     id="factored-hidden-bias"),
        pytest.param([(4, 5), (5, 6), (6,), (5, 6)], id="second-product"),
        pytest.param([(4, 5), ((5, 2), (6, 2)), (6,), ((5, 2), (5, 2))],
                     id="factored-second-product"),
        # the output is added to a: it must be a's width
        pytest.param([(4, 5), (5, 6), (6,), (6, 4)], id="output-width"),
        pytest.param([(4, 5), ((5, 2), (6, 2)), (6,), ((6, 2), (4, 2))],
                     id="factored-output-width"),
        # w and b are both matrices or both pairs
        pytest.param([(4, 5), ((5, 2), (6, 2)), (6,), (6, 5)], id="factored-w-only"),
        pytest.param([(4, 5), (5, 6), (6,), ((6, 2), (5, 2))], id="factored-b-only"),
        pytest.param([(2, 4, 5), (5, 6), (6,), (6, 5)], id="3-d"),
        pytest.param([(4, 5), (5, 6), (6,), (6, 5), (4,)], id="bias")])
    def test_linear_swish_matmul_rejects_shapes_that_do_not_multiply(self, rng, shapes):
        a, w, c, b, bias = (tuple(rand_tensor(rng, s) for s in shape)
                            if isinstance(shape[0], tuple) else rand_tensor(rng, shape)
                            for shape in shapes + [(5,)] * (5 - len(shapes)))
        message = ("linear_swish_matmul: bias (4,) does not fit product (4, 5) (2-d operands "
                   "only)" if len(shapes) == 5 else
                   "linear_swish_matmul: expected 2-d a @ w + c of equal inner extents, then @ "
                   "b back to a's width, with w and b both matrices or both (U, V) pairs of one "
                   f"rank, got {shapes[0]}, {shapes[1]}, {shapes[2]} and {shapes[3]}")
        with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
            linear_swish_matmul(a, w, c, b, bias, norm=(rand_tensor(rng, (5,)),) * 2,
                                out_norm=None)

    @pytest.mark.parametrize("scaled,op", [
        pytest.param({"norm": 1e200, "w": 1e200}, "matmul", id="pre-activation"),
        pytest.param({"w": 1e10, "kernel": 1e308}, "glu_conv1d", id="convolution"),
        pytest.param({"gamma": 1e308, "beta": 1e308}, "layer_norm", id="inner-norm")])
    def test_glu_conv_swish_matmul_rejects_a_non_finite_stage_as_its_chain_node(self, scaled,
                                                                                 op):
        # scaled weights overflow one stage; unchecked, a later stage would
        # raise under another name, or the gate's sigmoid hide a -inf as 0
        operands = {"a": [[1.0, -1.0], [-1.0, 1.0]],
                    "w": [[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]], "c": [0.0] * 4,
                    "kernel": [[1.0, 1.0]], "gamma": [1.0, 1.0], "beta": [1.0, 1.0],
                    "b": [[1.0, 1.0], [1.0, 1.0]]}
        args = [Tensor(np.multiply(value, scaled.get(name, 1.0)))
                for name, value in operands.items()]
        # the outer norm's gamma scales the normalized rows, about ±1
        norm = (Tensor(np.full(2, scaled.get("norm", 1.0))), Tensor(np.zeros(2)))
        with np.errstate(all="ignore"), \
                pytest.raises(NonFiniteError, match=f"^{op} produced non-finite values"):
            glu_conv_swish_matmul(*args, 2, bias=Tensor(np.zeros(2)), norm=norm)

    @pytest.mark.parametrize("shapes,frames,problem", [
        pytest.param([(2, 4, 4), (4, 6), (6,), (3, 3), (3, 4)], 4,
                     "expects 2-d a, w, kernel and b", id="3-d"),
        pytest.param([(8, 4), (4, 6), (6,), (3,), (3, 4)], 4,
                     "expects 2-d a, w, kernel and b", id="1-d-kernel"),
        pytest.param([(8, 4), (5, 6), (6,), (3, 3), (3, 4)], 4, "shapes do not chain",
                     id="w-rows"),
        pytest.param([(8, 4), (4, 5), (5,), (3, 3), (3, 4)], 4, "shapes do not chain",
                     id="gate-width"),
        pytest.param([(8, 4), (4, 6), (3,), (3, 3), (3, 4)], 4, "shapes do not chain",
                     id="pre-bias"),
        pytest.param([(8, 4), (4, 6), (6,), (3, 3), (4, 3)], 4, "shapes do not chain",
                     id="post-rows"),
        # the output is added to a: it must be a's width
        pytest.param([(8, 4), (4, 6), (6,), (3, 3), (3, 5)], 4, "shapes do not chain",
                     id="post-columns"),
        pytest.param([(8, 4), (4, 6), (6,), (2, 3), (3, 4)], 4, "kernel width must be odd",
                     id="even-kernel"),
        pytest.param([(7, 4), (4, 6), (6,), (3, 3), (3, 4)], 3,
                     "rows are not whole utterances of 3 frames", id="partial-utterance"),
        pytest.param([(2, 4), (4, 6), (6,), (3, 3), (3, 4)], 3,
                     "rows are not whole utterances of 3 frames", id="too-few-rows"),
        pytest.param([(8, 4), (4, 6), (6,), (3, 3), (3, 4)], 0,
                     "rows are not whole utterances of 0 frames", id="no-frames")])
    def test_glu_conv_swish_matmul_rejects_shapes_that_do_not_chain(self, shapes, frames,
                                                                    problem):
        a, w, c, k, b = (Tensor(np.ones(shape)) for shape in shapes)
        message = f"glu_conv_swish_matmul: {problem}: " + ", ".join(map(str, shapes[:4])) \
            + f" and {shapes[4]}"
        with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
            glu_conv_swish_matmul(a, w, c, k, Tensor(np.ones(3)), Tensor(np.ones(3)), b, frames,
                                  bias=Tensor(np.ones(4)), norm=(Tensor(np.ones(4)),) * 2)

    def test_glu_conv_swish_matmul_rejects_an_inner_norm_that_does_not_fit(self):
        a, w, c, k, b = (Tensor(np.ones(shape)) for shape in ((8, 4), (4, 6), (6,), (3, 3),
                                                              (3, 4)))
        with pytest.raises(ShapeError, match=r"^glu_conv_swish_matmul: gamma/beta must be "
                                             r"shape \(3,\)"):
            glu_conv_swish_matmul(a, w, c, k, Tensor(np.ones(3)), Tensor(np.ones(4)), b, 4,
                                  bias=Tensor(np.ones(4)), norm=(Tensor(np.ones(4)),) * 2)


class TestPlumbing:
    """A head split/merge and a scaled residual as one node; the
    ``split_heads-*`` and ``add-*`` rows of ``FUSIONS`` give their bytes."""

    @pytest.mark.parametrize("shape,start,stop,h", [
        ((4, 6), 2, 2, 2),     # an empty range
        ((4, 6), 1, 5, 2),     # past the end
        ((4, 6), -1, 2, 2),    # before the start
        ((2, 4, 6), 0, 2, 2),  # not 2-d
        ((4, 6), 0, 4, 4),     # 4 heads do not divide 6 columns
        ((4, 6), 0, 4, 0),     # no heads
    ], ids=["empty", "past-end", "negative", "3-d", "indivisible", "no-heads"])
    def test_split_heads_rejects_rows_and_heads_that_do_not_fit(self, shape, start, stop, h):
        message = f"split_heads: rows [{start}, {stop}) of {shape} into {h} heads"
        with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
            split_heads(Tensor(np.zeros(shape)), start, stop, h)

    @pytest.mark.parametrize("shape,view,shape_out", [
        ((12, 6), (2, 6, 3, 2), (6, 6, 2)),  # split 2 utterances, 3 heads
        ((6, 6, 2), (2, 3, 6, 2), (12, 6)),  # merge them back
        ((7, 4), (1, 7, 2, 2), (2, 7, 2)),   # one utterance, as the table
        ((5, 3), (1, 5, 1, 3), (1, 5, 3)),   # one head: nothing moves
        ((6, 4), (2, 3, 4, 1), (8, 3)),      # the swapped axes differ in extent
    ], ids=["split", "merge", "table", "one-head", "uneven"])
    def test_transpose_with_view_and_shape_matches_reshape_chain_bytewise(
            self, rng, shape, view, shape_out):
        a = Tensor(_with_signed_zeros(rng.uniform(-2.0, 2.0, shape)), requires_grad=True)
        g = _with_signed_zeros(rng.uniform(-1.0, 1.0, shape_out))
        fused = transpose(a, view, shape_out)
        # the chain it replaces: reshape, transpose into a copy, reshape;
        # backwards, each of the three rules in turn
        axes = (0, 2, 1, 3)
        chain = np.ascontiguousarray(a.data.reshape(view).transpose(axes)).reshape(shape_out)
        permuted = tuple(view[i] for i in axes)
        chain_ga = g.reshape(permuted).transpose(np.argsort(axes)).reshape(shape)
        assert fused.shape == shape_out
        assert fused.data.tobytes() == chain.tobytes()
        (ga,) = fused._backward(g)
        assert ga.shape == shape
        assert ga.tobytes() == chain_ga.tobytes()

    @pytest.mark.parametrize("s", [None, 0.5])
    def test_add_rejects_mismatched_shapes(self, rng, s):
        with pytest.raises(ShapeError, match=r"add: incompatible shapes \(2, 3\) \+ \(3, 2\)"):
            add(rand_tensor(rng, (2, 3)), rand_tensor(rng, (3, 2)), s)


def _module_operands(op: str, rows: int, draw, factored: bool = True):
    """The positional and keyword arguments of one product ``op`` over
    ``rows`` rows of width 6, as the model calls it, drawn in the order
    of its parents. Every product takes a bias. The feed-forward's and
    the convolution module's op take x, which is also their residual,
    its ``norm=`` (gamma, beta), their operands and the bias, the
    feed-forward no ``out_norm`` and its low-rank form if ``factored``;
    ``attention_matmul`` takes utterances of 4 frames and a residual.
    What a module op builds inside is wider than its product, so a kept
    one would show: the feed-forward's (rows, 9) pre-activation and
    (rows, 7) and (rows, 8) low-rank products, and the convolution
    module's (rows, 14) pre-activation and (rows, 7) gate, convolution
    and inner norm, over utterances of 4 frames where the rows allow."""
    if op == "matmul":
        return (draw(rows, 5), draw(6, 5)), {"transpose_b": True, "bias": draw(6)}
    if op == "attention_matmul":
        *args, pos, v = _attention_matmul_operands(draw, rows // 4, n=6)
        return (*args, pos, v, draw(6, 6)), {"bias": draw(6), "residual": draw(rows, 6)}
    x, norm = draw(rows, 6), (draw(6), draw(6))
    if op == "glu_conv_swish_matmul":
        args = (x, draw(6, 14), draw(14), draw(3, 7), draw(7), draw(7), draw(7, 6),
                4 if rows % 4 == 0 else rows)
        return args, {"bias": draw(6), "norm": norm}
    w = (draw(6, 7), draw(9, 7)) if factored else draw(6, 9)
    args = x, w, draw(9), (draw(9, 8), draw(6, 8)) if factored else draw(9, 6)
    return args, {"bias": draw(6), "norm": norm, "out_norm": None}


_PRODUCTS = {"matmul": matmul, "linear_swish_matmul": linear_swish_matmul,
             "glu_conv_swish_matmul": glu_conv_swish_matmul,
             "attention_matmul": attention_matmul}
# the module ops whose residual is their input, after a norm prologue
_FRAMED = ["linear_swish_matmul", "glu_conv_swish_matmul"]


def _distinct(parents) -> list:
    """``parents`` without a repeat, in the order of first use."""
    return list(dict.fromkeys(parents))


def _per_operand(parents, grads) -> list:
    """A rule's results, one per parent, as one per distinct parent: a
    repeated parent's results summed in parent order, as ``rule_grads``
    sums what a chain's rules hand one input."""
    summed = {}
    for parent, grad in zip(parents, grads, strict=True):
        summed[parent] = grad if parent not in summed else summed[parent] + grad
    return list(summed.values())


class TestBias:
    """A product's ``bias`` is one vector of the product's width, added to
    every row, and only on 2-d operands."""

    @pytest.mark.parametrize("op", list(_PRODUCTS))
    def test_rejects_a_bias_that_does_not_fit(self, rng, op):
        def draw(*shape):
            return rand_tensor(rng, shape)

        args, kwargs = _module_operands(op, 4, draw)
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
    """A module op adds its residual after its bias, as the unfused
    ``add(residual, product, s)`` would (the ``FUSIONS`` rows give the
    bytes): the feed-forward's and the convolution module's their own
    input, ``attention_matmul`` the one it is handed."""

    @pytest.mark.parametrize("op,out_norm", [
        pytest.param("linear_swish_matmul", False, id="linear_swish_matmul"),
        pytest.param("linear_swish_matmul", True, id="linear_swish_matmul-out_norm"),
        pytest.param("glu_conv_swish_matmul", False, id="glu_conv_swish_matmul")])
    def test_the_input_is_a_parent_again_after_the_bias(self, rng, op, out_norm):
        # (x, gamma, beta, ..., bias, x, gamma', beta'), and without an
        # epilogue the rule hands the second x the output's gradient as it is
        drawn = []
        draw = _drawer(rng, drawn)
        args, kwargs = _module_operands(op, 4, draw)
        operands = tuple(drawn)
        if out_norm:
            kwargs["out_norm"] = (draw(6), draw(6))
        node = _PRODUCTS[op](*args, **kwargs)
        assert node._parents == (*operands, args[0], *drawn[len(operands):])
        g = rng.uniform(-1.0, 1.0, node.shape)
        grads = node._backward(g)
        assert len(grads) == len(node._parents)
        assert (grads[len(operands)] is g) != out_norm

    def test_attention_matmul_rejects_a_residual_that_does_not_fit(self, rng):
        def draw(*shape):
            return rand_tensor(rng, shape)

        args, kwargs = _module_operands("attention_matmul", 4, draw)
        for shape in ((4, 5), (3, 6), (6,), (1, 4, 6)):
            kwargs["residual"] = draw(*shape)
            with pytest.raises(ShapeError, match=rf"^attention_matmul: residual \({shape[0]},"):
                attention_matmul(*args, **kwargs)


class TestNormPrologue:
    """A module op's ``norm=(gamma, beta)`` multiplies layer_norm(x, gamma,
    beta) as one node: the bytes of ``layer_norm`` followed by the plain
    product, with x, gamma and beta first among the parents (the
    ``FUSIONS`` rows give the bytes)."""

    @pytest.mark.parametrize("op", _FRAMED)
    def test_rejects_a_norm_that_does_not_fit(self, rng, op):
        def draw(*shape):
            return rand_tensor(rng, shape)

        args, kwargs = _module_operands(op, 4, draw)
        gamma, beta = kwargs["norm"]
        for bad in ((draw(5), beta), (gamma, draw(7)), (draw(6, 1), beta)):
            kwargs["norm"] = bad
            with pytest.raises(ShapeError, match=rf"^{op}: gamma/beta must be shape \(6,\)"):
                _PRODUCTS[op](*args, **kwargs)

    @pytest.mark.parametrize("op", _FRAMED)
    def test_non_finite_normalized_operand_raises_as_a_layer_norm(self, op):
        # a finite gamma scales the normalized rows past the largest double
        args, kwargs = _module_operands(op, 2, lambda *shape: Tensor(np.ones(shape)))
        x = Tensor(np.tile([1.0, -1.0, 1.0, -1.0, 1.0, -1.0], (2, 1)))
        kwargs["norm"] = (Tensor(np.full(6, 1e308)), Tensor(np.full(6, 1e308)))
        with np.errstate(all="ignore"), \
                pytest.raises(NonFiniteError, match="^layer_norm produced non-finite values"):
            _PRODUCTS[op](x, *args[1:], **kwargs)


# the feed-forward's node, which ends a block with the out_norm epilogue
_EPILOGUE_FORMS = [pytest.param(False, id="linear_swish_matmul"),
                   pytest.param(True, id="linear_swish_matmul-factored")]


class TestNormEpilogue:
    """A feed-forward with ``out_norm=(gamma, beta)`` is layer_norm(x +
    ½·(product + bias), gamma, beta) as one node: the bytes of the
    feed-forward followed by ``layer_norm``, with gamma and beta last
    among the parents (the ``linear_swish_matmul-*-out_norm-*`` rows of
    ``FUSIONS``)."""

    @pytest.mark.parametrize("factored", _EPILOGUE_FORMS)
    def test_rejects_a_norm_that_does_not_fit(self, rng, factored):
        def draw(*shape):
            return rand_tensor(rng, shape)

        args, kwargs = _module_operands("linear_swish_matmul", 4, draw, factored)
        for bad in ((draw(5), draw(6)), (draw(6), draw(3)), (draw(6, 1), draw(6))):
            with pytest.raises(ShapeError, match=r"^linear_swish_matmul: gamma/beta must be "
                                                 r"shape \(6,\)"):
                linear_swish_matmul(*args, **{**kwargs, "out_norm": bad})

    @pytest.mark.parametrize("factored", _EPILOGUE_FORMS)
    @pytest.mark.parametrize("stage,scaled", [
        pytest.param(None, {"b": 3e304, "bias": 1.79e308}, id="pre-norm-sum"),
        pytest.param("layer_norm", {"gamma": 1e308, "beta": 1e308}, id="norm")])
    def test_rejects_a_non_finite_stage_as_its_chain_node(self, factored, stage, scaled):
        # finite operands whose pre-norm sum, or whose normalized sum times
        # gamma plus beta, passes the largest double: unchecked, the sum's
        # infinity would raise as the norm, as a NaN. A finite product of
        # about 2e306 (9e307 factored) plus the bias passes it
        (x, w, c, b), kwargs = _module_operands("linear_swish_matmul", 2,
                                                lambda *shape: Tensor(np.ones(shape)), factored)
        x = Tensor(np.tile([1.0, -1.0, 1.0, -1.0, 1.0, -1.0], (2, 1)))
        last = Tensor(np.full((b[-1] if factored else b).shape, scaled.get("b", 1.0)))
        b = (b[0], last) if factored else last
        kwargs["bias"] = Tensor(np.full(6, scaled.get("bias", 1.0)))
        kwargs["out_norm"] = tuple(Tensor(np.full(6, scaled.get(name, 1.0)))
                                   for name in ("gamma", "beta"))
        with np.errstate(all="ignore"), pytest.raises(
                NonFiniteError, match=f"^{stage or 'linear_swish_matmul'} produced non-finite "
                                      "values$"):
            linear_swish_matmul(x, w, c, b, **kwargs)


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

    @pytest.mark.parametrize("x,k,message", [
        ((2, 4, 3), (3, 3), "depthwise_conv1d expects 2d operands, got (2, 4, 3), (3, 3)"),
        ((4, 2), (3, 3), "depthwise_conv1d: channel mismatch (4, 2) vs (3, 3)"),
    ])
    def test_rejects_operands_that_do_not_fit(self, x, k, message):
        with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
            depthwise_conv1d(Tensor(np.ones(x)), Tensor(np.ones(k)))

    def test_gradients(self, rng):
        x = rand_tensor(rng, (7, 3), requires_grad=True)
        k = rand_tensor(rng, (3, 3), requires_grad=True)
        c = Tensor(rng.uniform(-1, 1, (7, 3)))

        def make_loss():
            return sum_all(mul(depthwise_conv1d(x, k), c))

        assert_params_match_fd({"x": x, "k": k}, make_loss)


# ---------------------------------------------------------------------------
# FUSIONS: every fused op against the unfused chain of ops it replaces.
#
# A row is an id and a builder, build(draw, grow) -> (fused node, chain),
# which draws the fused node's parents in order with ``draw`` and builds
# both over them. ``grow`` adds that many utterances, frames or rows, so
# the same builder makes a wider row of the same op.


def _attention_weights_row(draw, grow, T, H):
    T += grow
    content, pos = draw(H, T, T), draw(H, T, T)
    s = 1.0 / math.sqrt(5)
    return attention_weights(content, pos, s), softmax(scale(add(content, pos), s))


def _band_matmul_row(draw, grow, T, H):
    # one utterance's positional scores: the (H, T, T) band of the
    # (H, T, 2T - 1) product, which is wider, so a kept one would show
    T += grow
    pq, table = draw(H, T, 3), draw(H, 2 * T - 1, 3)
    return (matmul(pq, table, transpose_b=True, band=True),
            skew(matmul(pq, table, transpose_b=True)))


def _attention_context_row(draw, grow, B, T, H):
    dh = 6 // H
    q, k, pos, v = _attention_operands(draw, B + grow, T, H, dh)
    return attention_context(q, k, pos, v), attention_chain(q, k, pos, v, 1.0 / math.sqrt(dh))


def _attention_matmul_row(draw, grow, B, T, H):
    # the (rows, 6) q, k and context are wider than the (rows, 4) product,
    # so a kept one would show
    xn, wq, bq, wk, bk, pos, v = _attention_matmul_operands(draw, B + grow, T, H, 6 // H)
    w, bias = draw(6, 4), draw(4)
    residual = draw(xn.shape[0], 4)
    out = matmul(attention_context(*_projected(xn, wq, bq, wk, bk), pos, v), w, bias=bias)
    return (attention_matmul(xn, wq, bq, wk, bk, pos, v, w, bias=bias, residual=residual),
            add(residual, out))


def _linear_swish_matmul_row(draw, grow, factored, out_norm, B, T, hidden):
    # the feed-forward over B utterances of T frames, the block's last with
    # the final norm if ``out_norm``; the (rows, hidden) pre-activation, and
    # the (rows, 8) and (rows, 9) low-rank products, are wider than the
    # (rows, 7) product, and so a kept one would show
    rows = T * (B + grow)
    x, norm = draw(rows, 7), (draw(7), draw(7))
    w = (draw(7, 8), draw(hidden, 8)) if factored else draw(7, hidden)
    c = draw(hidden)
    b = (draw(hidden, 9), draw(7, 9)) if factored else draw(hidden, 7)
    bias = draw(7)
    end = (draw(7), draw(7)) if out_norm else None
    chain = add(x, linear(swish(linear(layer_norm(x, *norm), w, c)), b, bias), HALF_STEP)
    return (linear_swish_matmul(x, w, c, b, bias, norm=norm, out_norm=end),
            chain if end is None else layer_norm(chain, *end))


def _split_heads_row(draw, grow, h, start, stop):
    a = draw(7 + grow, 6)
    stop = stop or a.shape[0]  # None: every row, where slice_rows is no node
    n, dh = stop - start, 6 // h
    return (split_heads(a, start, stop, h),
            transpose(slice_rows(a, start, stop), (1, n, h, dh), (h, n, dh)))


def _scaled_add_row(draw, grow, s):
    a, b = draw(9 + grow, 8), draw(9 + grow, 8)
    # both signs of zero on either side of the sum
    a.data[0, :4] = [0.0, 0.0, -0.0, -0.0]
    b.data[0, :4] = [0.0, -0.0, 0.0, -0.0]
    return add(a, b, s), add(a, scale(b, s))


def _glu_conv_swish_matmul_row(draw, grow, B, w, T):
    # the conv module over B utterances of T frames; the (rows, 12)
    # pre-activation and the (rows, 6) gate, convolution and inner norm are
    # wider than the (rows, 5) product, so a kept one would show
    rows = (B + grow) * T
    x, norm = draw(rows, 5), (draw(5), draw(5))
    pre_w, pre_c, k, gamma, beta, b = draw(5, 12), draw(12), draw(w, 6), draw(6), draw(6), \
        draw(6, 5)
    bias = draw(5)
    pre = matmul(layer_norm(x, *norm), pre_w, bias=pre_c)
    h = swish(layer_norm(depthwise_conv1d(glu(pre), k, T), gamma, beta))
    return (glu_conv_swish_matmul(x, pre_w, pre_c, k, gamma, beta, b, T, bias=bias, norm=norm),
            add(x, matmul(h, b, bias=bias)))


def _row(id, family, **params):
    return pytest.param(partial(family, **params), id=id)


# Beside each op's options, the rows span the shapes the model makes: B
# utterances, T frames (one frame is a single-row product), heads of
# width dh = 6 / H (dh >= 2; see ``attention_chain`` for dh = 1), the
# feed-forward's hidden width (e = 10/7 and 4) and the kernel width.
FUSIONS = [
    *(_row(f"attention_weights-T{T}-H{H}", _attention_weights_row, T=T, H=H)
      for T in (1, 2, 5, 7, 16) for H in (1, 2, 3, 4)),
    *(_row(f"band_matmul-T{T}-H{H}", _band_matmul_row, T=T, H=H)
      for T in (1, 2, 5, 7, 16) for H in (1, 2, 3)),
    *(_row(f"attention_context-B{B}-T{T}-H{H}", _attention_context_row, B=B, T=T, H=H)
      for B in (1, 3) for T in (1, 2, 5, 7, 16) for H in (1, 2, 3)),
    *(_row(f"attention_matmul-B{B}-T{T}-H{H}", _attention_matmul_row, B=B, T=T, H=H)
      for B in (1, 3) for T in (1, 2, 5, 7, 16) for H in (1, 2, 3)),
    *(_row(f"split_heads-h{h}-{range_id}", _split_heads_row, h=h, start=start, stop=stop)
      for h in (1, 2, 3, 6)
      for start, stop, range_id in [(2, 5, "middle"), (0, 3, "from-0"), (0, None, "all")]),
    *(_row(f"add-s{s}", _scaled_add_row, s=s) for s in (0.5, -3.0)),
    # the feed-forward in either form, with and without the final norm
    *(_row(f"linear_swish_matmul{'-factored' if factored else ''}"
           f"{'-out_norm' if out_norm else ''}-B{B}-T{T}-hidden{hidden}",
           _linear_swish_matmul_row, factored=factored, out_norm=out_norm, B=B, T=T,
           hidden=hidden)
      for factored in (False, True) for out_norm in (False, True) for B in (1, 3)
      for T in (1, 4, 40) for hidden in (10, 28)),
    # the pad (w - 1) / 2 is longer than an utterance of T frames at w = 11 and 31
    # for T up to 4, and at w = 5 for T = 1
    *(_row(f"glu_conv_swish_matmul-B{B}-w{w}-T{T}", _glu_conv_swish_matmul_row, B=B, w=w, T=T)
      for B in (1, 3) for w in (1, 3, 5, 11, 31) for T in (1, 2, 4, 16, 40)),
]


def _draw_row(build, constant=None, grow=0):
    """A row's fused node and chain, over operands from a fixed seed
    (another for a wider row), all trainable but the one numbered
    ``constant``; the operands in draw order; and a signed-zero gradient
    of the output's shape."""
    rng, operands = Rng(31 + grow), []
    fused, chain = build(_drawer(rng, operands, constant), grow)
    return fused, chain, operands, _with_signed_zeros(rng.uniform(-1.0, 1.0, fused.shape))


def _assert_same_bytes(got, want):
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), f"array {i}"


@pytest.mark.parametrize("build", FUSIONS)
def test_fused_op_gives_the_bytes_of_its_chain(build):
    # a wider row's forward and rule, run before the row and again between
    # its two rule calls, grow the scratch arena and then overwrite it in
    # place, so a rule that read what its forward left there would give
    # other bytes the second time
    def run_wider():
        wider, _, _, wider_g = _draw_row(build, grow=1)
        wider._backward(wider_g)
        return wider

    wider = run_wider()
    fused, chain, operands, g = _draw_row(build)
    assert wider.op == fused.op
    assert sum(t.size for t in wider._parents) > sum(t.size for t in fused._parents)
    # a module op whose residual is its input has it among its parents twice
    assert _distinct(fused._parents) == operands
    assert fused.data.tobytes() == chain.data.tobytes()
    want = rule_grads(chain, operands, g)
    _assert_same_bytes(_per_operand(fused._parents, fused._backward(g)), want)
    run_wider()
    _assert_same_bytes(_per_operand(fused._parents, fused._backward(g)), want)
    # and through backward, which copies each leaf's first gradient
    leaf_grads = []
    for out in (fused, chain):
        zero_grads(operands)
        backward(sum_all(mul(out, Tensor(g))))
        leaf_grads.append([t.grad for t in operands])
    _assert_same_bytes(*leaf_grads)


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

    def test_slice_rows_rule_returns_g_in_its_rows_and_zeros_elsewhere(self, rng):
        a = rand_tensor(rng, (5, 2), requires_grad=True)
        g = rng.uniform(-1.0, 1.0, (2, 2))
        (ga,) = slice_rows(a, 1, 3)._backward(g)
        assert ga.shape == a.shape
        assert ga[1:3].tobytes() == g.tobytes()
        assert not ga[:1].any() and not ga[3:].any()

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

    @pytest.mark.parametrize("start,stop", [(0, 5), (2, 2), (3, 1), (-1, 2)])
    def test_slice_rows_rejects_rows_out_of_range(self, start, stop):
        message = f"slice_rows: rows [{start}, {stop}) of (4, 2, 3)"
        with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
            slice_rows(Tensor(np.zeros((4, 2, 3))), start, stop)

    @pytest.mark.parametrize("labels,error,message", [
        ([[0], [1], [2]], ShapeError, "cross_entropy_mean: labels shape (3, 1) != (3,)"),
        ([0, 1], ShapeError, "cross_entropy_mean: labels shape (2,) != (3,)"),
        ([0, 4, 1], ValueError, "cross_entropy_mean: labels out of range [0, 4)"),
        ([0, -1, 1], ValueError, "cross_entropy_mean: labels out of range [0, 4)"),
    ])
    def test_cross_entropy_mean_rejects_labels_that_do_not_fit(self, labels, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$") as raised:
            cross_entropy_mean(Tensor(np.zeros((3, 4))), np.array(labels))
        assert raised.type is error

    @pytest.mark.parametrize("build", FUSIONS)
    def test_constant_operands_receive_no_gradient(self, build):
        # each operand constant in turn, below the fused node and below its chain
        def leaf_grads(constant, unfused):
            fused, chain, operands, g = _draw_row(build, constant)
            backward(sum_all(mul(chain if unfused else fused, Tensor(g))))
            return [t.grad for t in operands]

        for unfused in (False, True):
            every = leaf_grads(None, unfused)
            for i in range(len(every)):
                some = leaf_grads(i, unfused)
                assert some.pop(i) is None
                _assert_same_bytes(some, every[:i] + every[i + 1:])

    @pytest.mark.parametrize("shapes,kwargs", [
        pytest.param([(3, 4), (4, 5)], {}, id="2-d"),
        pytest.param([(3, 4), (5, 4)], {"transpose_b": True}, id="transpose_b"),
        pytest.param([(2, 3, 4), (2, 4, 5)], {}, id="batched"),
        pytest.param([(3, 4), (4, 5)], {"bias": (5,)}, id="bias"),
        pytest.param([(2, 3, 4), (2, 5, 4)], {"transpose_b": True, "band": True}, id="band"),
    ])
    def test_matmul_rule_computes_no_gradient_for_a_constant_input(self, shapes, kwargs):
        # the frontend's packed features: a gradient for them is never stored,
        # so the rule does not compute one; the other parents' bytes stay
        def run(trainable):
            rng = Rng(5)
            a, b = (Tensor(rng.uniform(-1, 1, shape), requires_grad=trainable or i > 0)
                    for i, shape in enumerate(shapes))
            extra = {key: value if key in ("transpose_b", "band")
                     else Tensor(rng.uniform(-1, 1, value), requires_grad=True)
                     for key, value in kwargs.items()}
            out = matmul(a, b, **extra)
            return out._backward(rng.uniform(-1, 1, out.shape))

        every, some = run(True), run(False)
        assert every[0] is not None and some[0] is None
        assert len(every) == len(some)
        for i, (x, y) in enumerate(zip(every[1:], some[1:]), 1):
            assert x.tobytes() == y.tobytes(), f"gradient {i}"

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

    @pytest.mark.parametrize("build", FUSIONS)
    def test_rule_holds_no_output_sized_array_of_its_own(self, build):
        fused, chain, _, _ = _draw_row(build)
        scratch = _scratch_buffers()
        for node in [fused] + [n for n in Tape.trace(chain).nodes if n._backward is not None]:
            held = _closure_values(node._backward)
            shared = [node.data] + [p.data for p in node._parents]
            for value in held:
                if isinstance(value, Tensor):
                    assert any(value is p for p in node._parents), f"{node.op} holds {value}"
                elif isinstance(value, np.ndarray):
                    assert not any(np.shares_memory(value, buf) for buf in scratch), \
                        f"{node.op} keeps a scratch view of shape {value.shape}"
                    if value.size >= node.size:
                        assert any(value is a for a in shared), \
                            f"{node.op} holds its own {value.shape} array"

    def test_batched_attention_keeps_no_joined_positional_scores(self, rng):
        from confshare.blocks import ModelConfig, attention

        B, T, H = 3, 5, 2
        p = bound_block(ModelConfig(d=8, e=4, heads=H, kernel_width=3, t_max=16), 8).attn
        out = attention(rand_tensor(rng, (B * T, 8), requires_grad=True), p, frames=T)
        nodes = Tape.trace(sum_all(out)).nodes
        # each utterance's positional scores are one (H, T, T) band node,
        # which the attention node reads as it is
        scores = [n for n in nodes if n.op == "matmul" and n.ndim == 3]
        assert [n.shape for n in scores] == [(H, T, T)] * B
        # its parents are (xn, wq, bq, wk, bk, *pos, v, wpost, bpost, x)
        (node,) = [n for n in nodes if n.op == "attention_matmul"]
        assert {id(n) for n in node._parents[5:-4]} == {id(n) for n in scores}
        # and neither a node nor a rule closure holds them joined, nor a
        # full (H, T, 2T - 1) product
        kept = [n.data for n in nodes] + self._held_arrays(nodes)
        assert not [a.shape for a in kept
                    if a.shape in [(B * H, T, T), (B * H, T, 2 * T - 1), (H, T, 2 * T - 1)]]

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
        # the block input through linear2
        assert [n.op for n in nodes].count("linear_swish_matmul") == 4
        # the pre-activation is rebuilt in backward and the swish never kept
        held = self._held_arrays(nodes)
        assert [n.op for n in nodes if n.shape == wide] == []
        assert not [a.shape for a in held if a.shape == wide]
        if not lowrank:
            return
        # nor is a (rows, k) low-rank product, LN(x) @ U1 or act @ U2: no
        # node or closure keeps one, nor the bytes of one rebuilt here by
        # the chain the node replaces
        narrow = (128, 50)
        assert [n.op for n in nodes if n.shape == narrow] == []
        assert not [a.shape for a in held if a.shape == narrow]
        rebuilt = set()
        for n in nodes:
            if n.op == "linear_swish_matmul":
                x, norm, (u1, v1), c, (u2, _), _ = _feed_forward_operands(n, lowrank)
                xu = matmul(layer_norm(x, *norm), u1)
                au = matmul(swish(matmul(xu, v1, transpose_b=True, bias=c)), u2)
                rebuilt |= {xu.data.tobytes(), au.data.tobytes()}
        assert len(rebuilt) == 8
        kept = [n.data for n in nodes] + held
        assert not [a.shape for a in kept if a.nbytes == 128 * 50 * 8
                    and a.tobytes() in rebuilt]

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
        # five norms a layer are no node: three are a product's prologue,
        # each feed-forward's and the convolution module's first, the
        # module's inner norm runs inside its node, and the block's final
        # norm is the epilogue of ff_end's node; only the attention's
        # is a layer_norm node
        blocks = model.virtual_blocks()
        folded = [pair for b in blocks for pair in (
            (b.ff_start.ln_gamma, b.ff_start.ln_beta), (b.conv.ln_gamma, b.conv.ln_beta),
            (b.ff_end.ln_gamma, b.ff_end.ln_beta))]
        readers = [n for n in nodes if any(n._parents[1:3] == pair for pair in folded)]
        assert len(readers) == 3 * len(blocks)
        assert [n.op for n in nodes].count("layer_norm") == len(blocks)
        ends = [n for n in nodes if n._parents[-2:] in [(b.final_ln_gamma, b.final_ln_beta)
                                                       for b in blocks]]
        assert [n.op for n in ends] == ["linear_swish_matmul"] * 2
        convs = [n for n in nodes if n.op == "glu_conv_swish_matmul"]
        assert [n._parents[6:8] for n in convs] == [(b.conv.norm_gamma, b.conv.norm_beta)
                                                    for b in blocks]
        # no node or rule closure holds a folded norm's output, nor the
        # inner one's, rebuilt here by the chain the node replaces
        normalized = {layer_norm(n._parents[0], *n._parents[1:3]).data.tobytes()
                      for n in readers}
        for n in convs:
            x, gamma, beta, w, c, k, inner_gamma, inner_beta = n._parents[:8]
            pre = matmul(layer_norm(x, gamma, beta), w, bias=c)
            inner = layer_norm(depthwise_conv1d(glu(pre), k, 128), inner_gamma, inner_beta)
            normalized.add(inner.data.tobytes())
        # and no node or closure holds the final norm's input, the
        # feed-forward's residual sum, rebuilt by the node without its epilogue
        for n in ends:
            x, norm, w1, b1, w2, b2 = _feed_forward_operands(n, lowrank)
            summed = add(x, linear(swish(linear(layer_norm(x, *norm), w1, b1)), w2, b2), 0.5)
            normalized.add(summed.data.tobytes())
        assert len(normalized) == len(readers) + len(convs) + len(ends)
        kept = [n.data for n in nodes] + held
        assert not [a.shape for a in kept if a.nbytes == 128 * 144 * 8
                    and a.tobytes() in normalized]

    @pytest.mark.parametrize("frames,batch,mib", [
        pytest.param(128, 1, 65, id="128x1"),
        pytest.param(64, 2, 55, id="64x2"),
        pytest.param(256, 1, 170, id="256x1")])
    def test_lrs3_forward_tape_layout_and_held_bytes(self, frames, batch, mib):
        # its op counts at 128x1 and 64x2 are TAPE_OPS' lrs3 rows
        from confshare.training import batch_loss

        model, data = _lrs3(frames, batch)
        batch_loss(model, *data)  # the scratch arena takes its size
        loss, held = traced_held(lambda: batch_loss(model, *data))
        nodes = Tape.trace(loss).nodes
        # each layer's positional scores are one (H, T, T) band per
        # utterance, H·T·T scalars, not the full product's H·T·(2T − 1)
        bands = [n.size for n in nodes if n.op == "matmul" and n.ndim == 3]
        assert bands == [4 * frames * frames] * (40 * batch)
        closures = self._held_arrays(nodes)
        assert not [a.shape for a in closures if a.shape[-2:] == (frames,) * 2]
        # the convolution module rebuilds its (rows, 2d) pre-activation
        kept = [n.data for n in nodes] + closures
        assert not [a.shape for a in kept if a.shape == (frames * batch, 2 * 144)]
        # and the attention its (rows, d) q, k and context, rebuilt here by
        # the chain from each node's (xn, wq, bq, wk, bk, *pos, v, wpost,
        # bpost, x)
        attentions = [n for n in nodes if n.op == "attention_matmul"]
        projections = [_projected(*n._parents[:5]) for n in attentions]
        rebuilt = {t.data.tobytes() for pair in projections for t in pair}
        assert len(rebuilt) == 80
        rebuilt |= {attention_context(*qk, n._parents[5:-4], n._parents[-4]).data.tobytes()
                    for n, qk in zip(attentions, projections)}
        assert len(rebuilt) == 120
        assert not [a.shape for a in kept if a.nbytes == frames * batch * 144 * 8
                    and a.tobytes() in rebuilt]
        assert held <= mib * 2**20, f"the forward pass holds {held / 2**20:.1f} MiB"


def _feed_forward_operands(node: Tensor, lowrank: bool):
    """x, (gamma, beta), w1, b1, w2 and b2 of a feed-forward's
    ``linear_swish_matmul`` node, w1 and w2 as (U, V) pairs if
    ``lowrank``."""
    x, gamma, beta, *rest = node._parents
    if lowrank:
        u1, v1, b1, u2, v2, b2 = rest[:6]
        return x, (gamma, beta), (u1, v1), b1, (u2, v2), b2
    return (x, (gamma, beta), *rest[:4])


def _lrs3(frames: int, batch: int):
    """The paper's LRS3 model (40 layers at d=144 with four heads, seed 1)
    and a seeded toy batch of ``batch`` utterances of ``frames`` frames."""
    from confshare.encoder import bind_model
    from confshare.presets import preset
    from confshare.training import ToyTaskSpec, generate_toy_batch

    p = preset("LRS3")
    spec = ToyTaskSpec(feature_dim=p.config.input_dim, num_classes=p.config.num_classes,
                       frames=frames, batch=batch)
    return bind_model(p.config, p.plan, 1), generate_toy_batch(spec, 1, 0)


def _closure_values(fn) -> list:
    """What the closure of ``fn`` holds, with the functions in it replaced
    by what their closures hold, so a product's core operations, which
    the frame's rule calls, are searched too, and the tuples and lists in
    it by their items, so ``attention_matmul``'s positional parts are."""
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
    """The calling thread's scratch arena, its one buffer."""
    return [_THREAD.arena.buffer]


class TestScratch:
    """The scratch arena holds only temporaries that a kernel fills and
    drops within one call, it is as large as the largest call's takes,
    and each thread has its own."""

    @staticmethod
    def _counted_calls(monkeypatch) -> list[int]:
        """Count what each scratch call takes: the list gains a 0 at every
        ``_scratch_reset`` and its last entry grows by each take's size,
        so its first entry counts the takes before any reset."""
        from confshare import autodiff, training

        calls = [0]
        take, reset = autodiff._scratch, autodiff._scratch_reset

        def counted_take(shape):
            calls[-1] += math.prod(shape)
            return take(shape)

        def counted_reset():
            calls.append(0)
            reset()

        for module in (autodiff, training):
            monkeypatch.setattr(module, "_scratch", counted_take)
            monkeypatch.setattr(module, "_scratch_reset", counted_reset)
        return calls

    @staticmethod
    def _fresh_thread_steps(model, batch, opt):
        """One training step on a new thread, whose arena starts empty,
        then a second: the first step's tape and the arena's buffer after
        it, checked to be the one buffer that every cached view is of and
        to be the buffer still after the second step."""
        from confshare.training import batch_loss

        def steps():
            assert _THREAD.arena.buffer.size == 0
            tape = backward(batch_loss(model, *batch))
            opt.step(model.store)
            buffer = _THREAD.arena.buffer
            assert all(view.base is buffer for view, _ in _THREAD.arena.views.values())
            zero_grads(model.parameters())
            backward(batch_loss(model, *batch))
            opt.step(model.store)
            assert _THREAD.arena.buffer is buffer, "a second step grew the arena"
            return tape, buffer

        with ThreadPoolExecutor(max_workers=1) as pool:
            return pool.submit(steps).result(timeout=120)

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
    def test_no_array_a_step_keeps_shares_memory_with_a_scratch_buffer(self, name, batch,
                                                                       monkeypatch):
        from confshare.sharing import key_str
        from confshare.training import OptimizerState, ToyTaskSpec, generate_toy_batch

        model, frames = self._model(name)
        spec = ToyTaskSpec(feature_dim=model.config.input_dim,
                           num_classes=model.config.num_classes, frames=frames, batch=batch)
        opt = OptimizerState()
        calls = self._counted_calls(monkeypatch)
        tape, buffer = self._fresh_thread_steps(model, generate_toy_batch(spec, 5, 0), opt)
        # every take lies in a call that starts at the arena's head, and the
        # arena is as large as the largest call's takes
        assert calls[0] == 0
        assert buffer.size == max(calls) > 0
        assert (name == "LRS3-small") == bool(model.plan.lowrank)
        kept = [(f"{n.op or 'leaf'} node", n.data) for n in tape.nodes]
        kept += [(f"{n.op} rule closure", v) for n in tape.nodes if n._backward is not None
                 for v in _closure_values(n._backward) if isinstance(v, np.ndarray)]
        for key, t in model.store.items():
            name = key_str(key)
            assert t.grad is not None, f"{name} has no gradient"
            kept += [(f"{name} data", t.data), (f"{name} grad", t.grad),
                     (f"{name} m", opt.m[key]), (f"{name} v", opt.v[key])]
        for what, arr in kept:
            assert not np.shares_memory(arr, buffer), f"{what} shares memory with the arena"

    def test_lrs3_step_arena_is_the_low_rank_feed_forward_rule(self, monkeypatch):
        # LRS3's d=144 and k=50 at one T=128 utterance: the largest call is
        # the low-rank feed-forward's rule, three (rows, n) arrays (the
        # pre-activation, the sigmoid and g @ bᵀ) and two each of (rows, d)
        # (g·s and LN(a), over which x̂ is rebuilt) and (rows, k) (x @ U1
        # and act @ U2), 3.4 MiB
        from confshare.training import OptimizerState

        model, features, labels = TestRetainedMemory._two_layer_lrs3()
        calls = self._counted_calls(monkeypatch)
        _, buffer = self._fresh_thread_steps(model, (features[None], labels[None]),
                                             OptimizerState())
        rows, d, n, k = 128, 144, model.config.ffn_width, 50
        assert buffer.size == max(calls) == 3 * rows * n + 2 * rows * d + 2 * rows * k
        assert buffer.nbytes <= 3.5 * 2**20

    @staticmethod
    def _assert_warm_rule_allocates_only_its_gradients(node, g):
        """Beyond the gradients it returns, the rule of a module op holds
        only two arrays of its input's size: LN(a)'s gradient, which the
        core hands the norm prologue's rule, and one temporary of that
        rule's arithmetic at a time. The residual's gradient is g itself,
        and a scaled residual's g·s is scratch."""
        node._backward(g)  # the scratch arena takes its size
        grads, peak = traced_peak(lambda: node._backward(g))
        allocated = sum(x.nbytes for x in grads if x is not g)
        assert peak <= allocated + 2 * node._parents[0].data.nbytes + 64 * 1024, \
            f"the rule held {peak} bytes for {allocated} bytes of gradients"

    def test_warm_glu_conv_swish_matmul_rule_allocates_only_its_gradients(self):
        # the LRS3 convolution module, one T=128 utterance: the rule rebuilds
        # the pre-activation, the padded gate, the convolution and the inner
        # norm in scratch, and writes each of their gradients there too
        rng = Rng(3)
        a, gamma0, beta0, w, c, k, gamma, beta, b, bias = (
            Tensor(rng.uniform(-0.5, 0.5, shape), requires_grad=True)
            for shape in ((128, 144), (144,), (144,), (144, 288), (288,), (11, 144), (144,),
                          (144,), (144, 144), (144,)))
        node = glu_conv_swish_matmul(a, w, c, k, gamma, beta, b, 128, bias=bias,
                                     norm=(gamma0, beta0))
        self._assert_warm_rule_allocates_only_its_gradients(
            node, rng.uniform(-1.0, 1.0, (128, 144)))

    def test_warm_linear_swish_matmul_rule_allocates_only_its_gradients(self):
        # the LRS3 low-rank feed-forward, one T=128 utterance: the rule
        # rebuilds x @ U1, the (128, 1044) pre-activation and act @ U2 in
        # scratch, and writes each one's gradient over it
        rng = Rng(3)
        a = Tensor(rng.uniform(-1.0, 1.0, (128, 144)), requires_grad=True)
        gamma, beta, u1, v1, c, u2, v2, bias = (
            Tensor(rng.uniform(-0.2, 0.2, shape), requires_grad=True)
            for shape in ((144,), (144,), (144, 50), (1044, 50), (1044,), (1044, 50), (144, 50),
                          (144,)))
        node = linear_swish_matmul(a, (u1, v1), c, (u2, v2), bias, norm=(gamma, beta),
                                   out_norm=None)
        self._assert_warm_rule_allocates_only_its_gradients(
            node, rng.uniform(-1.0, 1.0, (128, 144)))

    @staticmethod
    def _swish_product_oracle(a, b, bias, g):
        """swish(a) @ b (+ bias) and its gradients as plain formulas, a
        fresh array for every step, in the fused rule's operation order."""
        s = _plain_sigmoid(a)
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
        s = _plain_sigmoid(v)
        return [u * s, np.concatenate((g * s, g * u * s * (1 - s)), -1)]

    @staticmethod
    def _layer_norm_oracle(x, gamma, beta):
        """LN(x) as plain formulas, and its rule: g -> the gradients of x,
        gamma and beta, in ``_layer_norm_grad``'s operation order."""
        d = x.shape[-1]
        centered = x - x.sum(axis=-1, keepdims=True) / d
        inv = 1.0 / np.sqrt((centered * centered).sum(axis=-1, keepdims=True) / d + LN_EPS)
        xhat = centered * inv

        def rule(g):
            gh = g * gamma
            m1 = gh.sum(axis=-1, keepdims=True) / d
            m2 = (gh * xhat).sum(axis=-1, keepdims=True) / d
            return [(gh - m1 - xhat * m2) * inv, (g * xhat).sum(axis=0), g.sum(axis=0)]

        return xhat * gamma + beta, rule

    def _conv_module_oracle(self, x, norm, w, c, k, gamma, beta, b, bias, g, frames):
        """``glu_conv_swish_matmul``'s output and its rule results, chained
        from the oracles above."""
        B, d = x.shape[0] // frames, k.shape[1]
        y, outer_rule = self._layer_norm_oracle(x, *norm)
        pre = y @ w + c
        gate = pre[:, :d] * _plain_sigmoid(pre[:, d:])
        conv = TestDepthwiseConv._per_tap_oracle(gate, k, np.zeros_like(gate), B)[0]
        h, inner_rule = self._layer_norm_oracle(conv, gamma, beta)
        out, gh, gb, gbias = self._swish_product_oracle(h, b, bias, g)
        gconv, ggamma, gbeta = inner_rule(gh)
        _, ggate, gk = TestDepthwiseConv._per_tap_oracle(gate, k, gconv, B)
        gpre = self._glu_oracle(pre, ggate)[1]
        return [out + x, *outer_rule(gpre @ w.T), y.T @ gpre, gpre.sum(axis=0), gk, ggamma,
                gbeta, gb, gbias, g]

    def _feed_forward_oracle(self, a, norm, w, c, b, bias, g):
        """``linear_swish_matmul``, w and b both matrices or both (U, V)
        pairs, its output and its rule results, in the fused rule's
        operation order."""
        y, outer_rule = self._layer_norm_oracle(a, *norm)
        gp = g * HALF_STEP  # the product's gradient
        xu = y @ w[0] if isinstance(w, tuple) else y
        pre = (xu @ w[1].T if isinstance(w, tuple) else y @ w) + c
        if isinstance(b, tuple):
            u2, v2 = b
            au, gpre, gu2 = self._swish_product_oracle(pre, u2, None, gp @ v2)
            out, gb = au @ v2.T + bias, [gu2, gp.T @ au]
        else:
            out, gpre, gb = self._swish_product_oracle(pre, b, bias, gp)[:3]
            gb = [gb]
        if isinstance(w, tuple):
            gxu = gpre @ w[1]
            gy, gw = gxu @ w[0].T, [y.T @ gxu, gpre.T @ xu]
        else:
            gy, gw = gpre @ w.T, [y.T @ gpre]
        out *= HALF_STEP
        return [out + a, *outer_rule(gy), *gw, gpre.sum(axis=0), *gb, gp.sum(axis=0), g]

    def _check_fd_gradcheck_shapes(self, d: int, lowrank: bool):
        """linear_swish_matmul, glu, depthwise_conv1d and
        glu_conv_swish_matmul at the shapes of the fd_gradcheck model of
        width d (2 utterances of 6 frames), each byte-compared with a
        fresh-buffer oracle; returns the scratch arena's buffer."""
        from confshare.blocks import ModelConfig

        ffn = ModelConfig(d=d, e=7.25, heads=4, kernel_width=11).ffn_width
        rng = Rng(d)
        rows, frames, w = 12, 6, 11

        def draw(*shape):
            return _with_signed_zeros(rng.uniform(-3.0, 3.0, shape))

        def tensors(x):  # a leaf, or a pair of them
            return tuple(map(tensors, x)) if isinstance(x, tuple) else \
                Tensor(x, requires_grad=True)

        # the feed-forward: the low-rank model's factors both linears at rank 4
        a, norm = draw(rows, d), (draw(d), draw(d))
        w1 = (draw(d, 4), draw(ffn, 4)) if lowrank else draw(d, ffn)
        c = draw(ffn)
        b = (draw(ffn, 4), draw(d, 4)) if lowrank else draw(ffn, d)
        bias = draw(d)
        node = linear_swish_matmul(*map(tensors, (a, w1, c, b, bias)), norm=tensors(norm),
                                   out_norm=None)
        g = draw(*node.shape)
        got = [node.data, *node._backward(g)]
        want = self._feed_forward_oracle(a, norm, w1, c, b, bias, g)
        # the convolution module
        x, norm = draw(rows, d), (draw(d), draw(d))
        rest = draw(d, 2 * d), draw(2 * d), draw(w, d), draw(d), draw(d), draw(d, d)
        bias = draw(d)
        node = glu_conv_swish_matmul(tensors(x), *map(tensors, rest), frames, bias=tensors(bias),
                                     norm=tensors(norm))
        g = draw(*node.shape)
        got += [node.data, *node._backward(g)]
        want += self._conv_module_oracle(x, norm, *rest, bias, g, frames)
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
        return _THREAD.arena.buffer

    def test_alternating_shapes_through_one_arena_match_fresh_buffer_oracles(self):
        def alternate():
            # a new thread starts with an empty arena, so the d=16 shapes
            # grow it and the second d=8 pass runs in its head
            assert _THREAD.arena.buffer.size == 0
            buffers = [self._check_fd_gradcheck_shapes(d, lowrank)
                       for d, lowrank in ((8, False), (16, True), (8, False), (16, True))]
            assert buffers[1].size > buffers[0].size
            assert buffers[1] is buffers[2] is buffers[3]
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


# Every op on the tape below each case's output, with leaves counted as
# "leaf". A layer holds one attention_matmul node (from the attention's
# layer-norm output, whose q and k projections it rebuilds, through the
# post-projection), one glu_conv_swish_matmul node (the whole
# convolution module), one linear_swish_matmul per feed-forward, one
# layer norm (the attention's, which v, pq and the attention node read;
# the final one is the epilogue of ff_end's node), and matmuls for v, pq
# and one positional product per utterance, on a split_heads view of its
# pq rows. q and k are no node, nor a low-rank feed-forward's products.
# The table window is split once per forward.
TAPE_OPS = {
    # the toy_train config: a packed 4x32 batch through repeat_plan(2, 3)
    "toy-4x32": Counter(leaf=76, matmul=38, split_heads=25, layer_norm=6,
                        linear_swish_matmul=12, attention_matmul=6, glu_conv_swish_matmul=6,
                        cross_entropy_mean=1),
    "lrs3-128x1": Counter(matmul=122, leaf=318, layer_norm=40, linear_swish_matmul=80,
                          split_heads=41, attention_matmul=40, glu_conv_swish_matmul=40,
                          cross_entropy_mean=1),
    "lrs3-64x2": Counter(matmul=162, leaf=318, split_heads=81, layer_norm=40,
                         linear_swish_matmul=80, attention_matmul=40, glu_conv_swish_matmul=40,
                         cross_entropy_mean=1),
    # one standalone attention over 1 or 3 utterances of 5 frames
    "attention-1": Counter(leaf=14, matmul=3, split_heads=2, attention_matmul=1,
                           layer_norm=1),
    "attention-3": Counter(leaf=14, matmul=5, split_heads=4, attention_matmul=1,
                           layer_norm=1),
}


def _tape_output(case: str) -> Tensor:
    from confshare.blocks import ModelConfig, attention
    from confshare.encoder import bind_model
    from confshare.sharing import repeat_plan
    from confshare.training import ToyTaskSpec, batch_loss, generate_toy_batch

    kind, size = case.split("-")
    if kind == "attention":
        p = bound_block(ModelConfig(d=8, e=4, heads=2, kernel_width=3, t_max=16), 8).attn
        return attention(rand_tensor(Rng(2024), (int(size) * 5, 8)), p, frames=5)
    if kind == "toy":
        model = bind_model(ModelConfig(d=32, e=7.25, heads=4, kernel_width=11),
                           repeat_plan(2, 3), 11)
        return batch_loss(model, *generate_toy_batch(ToyTaskSpec(frames=32, batch=4), 11, 0))
    frames, batch = map(int, size.split("x"))
    model, data = _lrs3(frames, batch)
    return batch_loss(model, *data)


@pytest.mark.parametrize("case", TAPE_OPS)
def test_tape_op_counts(case):
    assert Counter(n.op or "leaf" for n in Tape.trace(_tape_output(case)).nodes) == TAPE_OPS[case]


@pytest.mark.parametrize("name", ["toy-4x32", "LRS3-small"])
def test_split_heads_is_the_one_view_on_a_tape(name):
    # a split_heads output is a strided view of its parent's rows (the pq
    # rows of an utterance, or the table window), with no copy; every
    # other op output, and every leaf, is C-contiguous
    if name == "toy-4x32":
        loss = _tape_output(name)
    else:
        from confshare.training import ToyTaskSpec, batch_loss, generate_toy_batch

        model, frames = TestScratch._model(name)
        spec = ToyTaskSpec(feature_dim=model.config.input_dim,
                           num_classes=model.config.num_classes, frames=frames, batch=3)
        loss = batch_loss(model, *generate_toy_batch(spec, 5, 0))
    nodes = Tape.trace(loss).nodes
    splits = [n for n in nodes if n.op == "split_heads"]
    assert splits
    for n in splits:
        assert np.shares_memory(n.data, n._parents[0].data)
    assert all(n.data.flags.c_contiguous for n in nodes if n.op != "split_heads")


def test_every_fused_op_on_a_tape_has_a_fusion_row():
    # a leaf is no op, and matmul (a product and its bias), layer_norm and
    # cross_entropy_mean fuse nothing
    on_a_tape = {op for counts in TAPE_OPS.values() for op in counts}
    with_a_row = {_draw_row(row.values[0])[0].op for row in FUSIONS}
    assert on_a_tape - {"leaf", "matmul", "layer_norm", "cross_entropy_mean"} <= with_a_row


class TestFiniteDiff:
    def test_quadratic(self):
        theta = np.array([3.0])
        grad = finite_diff_grad(lambda: float(theta[0] ** 2), theta, 1e-4, [0])
        assert abs(grad[0] - 6.0) < 1e-7

    def test_constant(self):
        grad = finite_diff_grad(lambda: 5.0, np.zeros(4), 1e-4, range(4))
        assert np.max(np.abs(grad)) < 1e-10

    def test_rejects_non_finite_evaluation(self):
        with pytest.raises(NonFiniteError):
            finite_diff_grad(lambda: math.inf, np.zeros(2), 1e-4, range(2))

    def test_two_parameter_slice_cross_check(self, rng):
        w = rand_tensor(rng, (2,), requires_grad=True)
        x = Tensor(rng.uniform(-1, 1, (2,)))

        def loss_tensor():
            return sum_all(mul(swish(mul(w, x)), x))

        backward(loss_tensor())
        before = w.data.copy()
        fd = finite_diff_grad(lambda: loss_tensor().item(), w.data, 1e-4, range(2))
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
            finite_diff_grad(loss, theta, 1e-4, range(2))
        assert theta.tolist() == [0.5, -0.25]

    def test_rejects_array_it_cannot_perturb_in_place(self):
        frozen = np.zeros(3)
        frozen.flags.writeable = False
        for theta in (np.zeros((2, 3)).T, frozen):
            with pytest.raises(ValueError, match="writeable C-contiguous"):
                finite_diff_grad(lambda: 0.0, theta, 1e-4, range(theta.size))

    @pytest.mark.parametrize("eps", [0.0, -1e-4])
    def test_rejects_non_positive_eps(self, eps):
        with pytest.raises(ValueError, match="eps must be positive"):
            finite_diff_grad(lambda: 0.0, np.zeros(2), eps, range(2))


    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_rejects_non_finite_eps(self, eps):
        theta = np.zeros(2)

        def never():
            raise AssertionError("evaluated with a non-finite step")

        with pytest.raises(ValueError, match="eps must be positive and finite"):
            finite_diff_grad(never, theta, eps, range(2))
        assert theta.tolist() == [0.0, 0.0]


    def test_rejects_step_that_rounds_away_before_evaluating(self):
        theta = np.array([0.0, 1.0, 0.5])

        def never():
            raise AssertionError("evaluated with a step that rounds away")

        with pytest.raises(ValueError, match="a step of 1e-300 rounds away at coordinate 1: "
                                             r"1\.0 \+- 1e-300 == 1\.0"):
            finite_diff_grad(never, theta, 1e-300, range(3))
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
        assert relative_error(a, b) == pytest.approx(1e-3, rel=1e-2)
        # the same noise just above the floor dominates
        assert relative_error(a, np.array([2e-9, 1e-3 + 1e-6])) > 1e-4
        # a coordinate at the floor on both sides agrees at zero
        assert relative_error(np.array([ZERO_FLOOR]), np.array([-ZERO_FLOOR])) == 0.0
        # genuine disagreement above the floor is never masked
        assert relative_error(np.array([0.0]), np.array([1e-6])) > 1e-2

    def test_empty_input_raises(self):
        # a comparison of nothing is not a pass
        with pytest.raises(ValueError):
            relative_error(np.array([]), np.array([]))
