import numpy as np
import pytest

from confshare.autodiff import LN_EPS, ShapeError, Tensor, backward, sum_all
from confshare.blocks import (ModelConfig, attention, conformer_block, conv_module,
                              feed_forward, layer_norm, table_heads)
from conftest import assert_params_match_fd, bound_block, rand_tensor
from oracles import mul


def _cfg(**kw):
    base = dict(d=8, e=4, heads=2, kernel_width=3, t_max=16)
    base.update(kw)
    return ModelConfig(**base)


class TestModelConfig:
    def test_ffn_width_rounds_up(self):
        assert _cfg(d=8, e=4).ffn_width == 32
        assert _cfg(d=6, e=7.25, heads=2).ffn_width == 44  # ceil(43.5)

    @pytest.mark.parametrize("kw", [dict(d=0), dict(e=-1), dict(heads=3),
                                    dict(kernel_width=4), dict(num_classes=0),
                                    dict(external_params=-1)])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            _cfg(**kw)


class TestFeedForward:
    def test_residual_passthrough_when_projection_zero(self, rng):
        cfg = _cfg()
        p = bound_block(cfg, 1).ff_start
        p.w2.data[...] = 0.0
        p.b2.data[...] = 0.0
        x = rand_tensor(rng, (4, 8))
        out = feed_forward(x, p)
        assert np.array_equal(out.data, x.data)

    def test_shape_contract(self, rng):
        cfg = _cfg(d=8, e=4)
        p = bound_block(cfg, 1).ff_start
        assert p.w1.shape == (8, 32)
        assert p.w2.shape == (32, 8)
        out = feed_forward(rand_tensor(rng, (5, 8)), p)
        assert out.shape == (5, 8)

    def test_gradients(self, rng):
        cfg = _cfg(d=6, e=4, heads=2)
        p = bound_block(cfg, 2).ff_start
        x = rand_tensor(rng, (4, 6), requires_grad=True)
        c = Tensor(rng.uniform(-1, 1, (4, 6)))

        def make_loss():
            return sum_all(mul(feed_forward(x, p), c))

        named = {"x": x, "ln_gamma": p.ln_gamma, "ln_beta": p.ln_beta,
                 "w1": p.w1, "b1": p.b1, "w2": p.w2, "b2": p.b2}
        assert_params_match_fd(named, make_loss)


class TestAttention:
    def test_residual_passthrough_when_post_zero(self, rng):
        p = bound_block(_cfg(), 3).attn
        p.wpost.data[...] = 0.0
        x = rand_tensor(rng, (5, 8))
        out = attention(x, p)
        assert np.array_equal(out.data, x.data)

    def test_single_timestep_closed_form(self, rng):
        cfg = _cfg()
        p = bound_block(cfg, 4).attn
        x = rng.uniform(-1, 1, (1, 8))
        out = attention(Tensor(x), p)
        # closed form: one key means the attention weight is exactly 1,
        # so y = x + post(value(LN(x))).
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        xn = p.ln_gamma.data * (x - mu) / np.sqrt(var + LN_EPS) + p.ln_beta.data
        v = xn @ p.wv.data + p.bv.data
        expected = x + v @ p.wpost.data + p.bpost.data
        assert np.max(np.abs(out.data - expected)) < 1e-12

    def test_rejects_sequences_beyond_t_max(self, rng):
        p = bound_block(_cfg(t_max=4), 5).attn
        with pytest.raises(ShapeError, match="^5 frames exceed the model's t_max of 4$"):
            attention(rand_tensor(rng, (5, 8)), p)

    def test_gradients(self, rng):
        cfg = _cfg(d=8, heads=2, t_max=8)
        p = bound_block(cfg, 6).attn
        x = rand_tensor(rng, (4, 8), requires_grad=True)
        c = Tensor(rng.uniform(-1, 1, (4, 8)))

        def make_loss():
            return sum_all(mul(attention(x, p), c))

        named = {"x": x, "ln_gamma": p.ln_gamma, "wq": p.wq, "bq": p.bq,
                 "wk": p.wk, "bk": p.bk, "wv": p.wv, "bv": p.bv,
                 "wpost": p.wpost, "bpost": p.bpost,
                 "wpos_query": p.wpos_query, "bpos_query": p.bpos_query,
                 "rel_emb": p.rel_emb}
        assert_params_match_fd(named, make_loss)


    def test_against_table_lookup_oracle(self, rng):
        # pos[t, s] reads table row t_max - 1 + (s - t), per head
        cfg = _cfg(t_max=16)
        p = bound_block(cfg, 10).attn
        for w in (p.bq, p.bk, p.bv, p.bpos_query, p.bpost):
            w.data[...] = rng.uniform(-1, 1, w.shape)
        T, H, dh = 5, cfg.heads, cfg.d // cfg.heads
        x = rng.uniform(-1, 1, (T, cfg.d))
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        xn = p.ln_gamma.data * (x - mu) / np.sqrt(var + LN_EPS) + p.ln_beta.data
        q, k, v, pq = (xn @ w.data + b.data for w, b in ((p.wq, p.bq), (p.wk, p.bk),
                                                         (p.wv, p.bv),
                                                         (p.wpos_query, p.bpos_query)))
        ctx = np.zeros((T, cfg.d))
        for h in range(H):
            cols = slice(h * dh, (h + 1) * dh)
            scores = np.zeros((T, T))
            for t in range(T):
                for u in range(T):
                    row = p.rel_emb.data[cfg.t_max - 1 + u - t, cols]
                    scores[t, u] = q[t, cols] @ k[u, cols] + pq[t, cols] @ row
            e = np.exp(scores / np.sqrt(dh))
            ctx[:, cols] = (e / e.sum(axis=1, keepdims=True)) @ v[:, cols]
        expected = x + ctx @ p.wpost.data + p.bpost.data
        out = attention(Tensor(x), p)
        assert np.max(np.abs(out.data - expected)) < 1e-12

    def test_only_reachable_offsets_enter_the_product(self, rng):
        cfg = _cfg(t_max=16)
        p = bound_block(cfg, 8).attn
        T = 5
        tape = backward(sum_all(attention(rand_tensor(rng, (T, 8)), p)))
        # the positional product reads the 2T - 1 table rows that T frames
        # reach, and keeps the (H, T, T) band of its product with them
        (product,) = [n for n in tape.nodes if n.op == "matmul" and n.ndim == 3]
        assert product._parents[1].shape == (cfg.heads, 2 * T - 1, 4)
        assert product.shape == (cfg.heads, T, T)
        grad = p.rel_emb.grad
        window = slice(cfg.t_max - T, cfg.t_max + T - 1)
        outside = np.delete(grad, np.arange(cfg.rel_table_len)[window], axis=0)
        assert outside.shape == (cfg.rel_table_len - (2 * T - 1), 8)
        assert np.all(outside == 0.0)
        assert np.all(np.any(grad[window] != 0.0, axis=1))

    def test_given_table_heads_give_the_bytes_of_its_own(self, rng):
        p = bound_block(_cfg(), 8).attn
        x = rand_tensor(rng, (3 * 5, 8))
        own = attention(x, p, frames=5)
        given = attention(x, p, frames=5, table=table_heads(p, 5))
        assert own.data.tobytes() == given.data.tobytes()
        # a table window of 7 rows, where the band of T = 5 frames needs 9
        with pytest.raises(ShapeError,
                           match=r"^matmul: a band takes \(H, T, dh\) @ \(H, 2T - 1, dh\) "
                                 r"transposed, got \(2, 5, 4\) @ \(2, 7, 4\) \(transposed\)$"):
            attention(x, p, frames=5, table=table_heads(p, 4))

    def test_packed_utterances_match_separate_calls(self, rng):
        p = bound_block(_cfg(), 8).attn
        x = rng.uniform(-1, 1, (3 * 5, 8))
        packed = attention(Tensor(x), p, frames=5)
        for b in range(3):
            alone = attention(Tensor(x[b * 5:(b + 1) * 5]), p)
            assert np.max(np.abs(packed.data[b * 5:(b + 1) * 5] - alone.data)) < 1e-14

    @pytest.mark.parametrize("utts", [1, 3])
    def test_only_the_positional_product_is_per_utterance(self, rng, utts):
        cfg = _cfg()
        p = bound_block(cfg, 8).attn
        T, H = 5, cfg.heads
        tape = backward(sum_all(attention(rand_tensor(rng, (utts * T, 8)), p, frames=T)))
        products = [n.shape for n in tape.nodes if n.op == "matmul"]
        # the only 3-d products: one positional score band per utterance,
        # which the one attention_matmul node reads as they are (its op
        # counts are test_tape_op_counts' attention rows)
        assert [s for s in products if len(s) == 3] == [(H, T, T)] * utts

    @pytest.mark.parametrize("utts", [1, 3])
    def test_tape_holds_no_per_head_scores_or_contexts(self, rng, utts):
        cfg = _cfg(d=12, heads=2)
        p = bound_block(cfg, 8).attn
        T, H, dh = 5, cfg.heads, 6
        tape = backward(sum_all(attention(rand_tensor(rng, (utts * T, 12)), p, frames=T)))
        # the 3-d products are the positional bands, one (H, T, T) per
        # utterance, each of a positional-query split and the table's; at
        # one utterance a (B·H, T, T) array is that shape too, so scores
        # are told apart from the bands by op and parents
        bands = [n for n in tape.nodes if n.op == "matmul" and n.ndim == 3]
        assert [n.shape for n in bands] == [(H, T, T)] * utts
        for band in bands:
            pq_heads, table = band._parents
            assert pq_heads.op == table.op == "split_heads"
            assert table._parents[0] is p.rel_emb
        assert not [n for n in tape.nodes
                    if n.shape == (utts * H, T, T) and all(n is not b for b in bands)]
        # the B (H, T, dh) nodes are the positional-query splits, one per
        # utterance, not q, k, v or a context
        splits = [n for n in tape.nodes if n.shape == (H, T, dh)]
        assert len(splits) == utts
        for split in splits:
            assert split.op == "split_heads"
            assert split._parents[0]._parents[1] is p.wpos_query

    def test_gradients_at_t_max(self, rng):
        cfg = _cfg(d=8, heads=2, t_max=4)
        p = bound_block(cfg, 9).attn
        x = rand_tensor(rng, (cfg.t_max, 8), requires_grad=True)
        c = Tensor(rng.uniform(-1, 1, (cfg.t_max, 8)))

        def make_loss():
            return sum_all(mul(attention(x, p), c))

        assert_params_match_fd({"x": x, "wpos_query": p.wpos_query, "rel_emb": p.rel_emb},
                               make_loss)


class TestConvModule:
    def test_residual_passthrough_when_post_zero(self, rng):
        p = bound_block(_cfg(d=10, heads=2), 7).conv
        p.wpost.data[...] = 0.0
        x = rand_tensor(rng, (6, 10))
        out = conv_module(x, p)
        assert np.array_equal(out.data, x.data)

    def test_stage_shapes(self):
        cfg = _cfg(d=10, heads=2)
        p = bound_block(cfg, 8).conv
        # documented intermediates: 6x20 after the pre-projection, 6x10 after the
        # gated convolution
        assert p.wpre.shape == (10, 20)
        assert p.kdepth.shape == (3, 10)
        out = conv_module(Tensor(np.zeros((6, 10))), p)
        assert out.shape == (6, 10)

    def test_gradients(self, rng):
        cfg = _cfg(d=6, heads=2, kernel_width=3)
        p = bound_block(cfg, 9).conv
        x = rand_tensor(rng, (6, 6), requires_grad=True)
        c = Tensor(rng.uniform(-1, 1, (6, 6)))

        def make_loss():
            return sum_all(mul(conv_module(x, p), c))

        named = {"x": x, "ln_gamma": p.ln_gamma, "wpre": p.wpre, "bpre": p.bpre,
                 "kdepth": p.kdepth, "norm_gamma": p.norm_gamma,
                 "norm_beta": p.norm_beta, "wpost": p.wpost, "bpost": p.bpost}
        # smaller step: at eps=1e-4 the O(eps^2) truncation error on
        # norm_gamma (smallest entry 2.1e-5) reaches 1.3e-5 relative
        assert_params_match_fd(named, make_loss, eps=3e-5)


class TestConformerBlock:
    def test_all_projections_zero_reduces_to_final_norm(self, rng):
        cfg = _cfg()
        p = bound_block(cfg, 10)
        for t in (p.ff_start.w2, p.ff_start.b2, p.attn.wpost, p.attn.bpost,
                  p.conv.wpost, p.conv.bpost, p.ff_end.w2, p.ff_end.b2):
            t.data[...] = 0.0
        x = rand_tensor(rng, (4, 8))
        out = conformer_block(x, p)
        expected = layer_norm(x, p.final_ln_gamma, p.final_ln_beta)
        assert np.array_equal(out.data, expected.data)

    def test_shape_preservation(self, rng):
        for d, heads in ((8, 2), (12, 4)):
            cfg = _cfg(d=d, heads=heads)
            p = bound_block(cfg, 12)
            out = conformer_block(rand_tensor(rng, (7, d)), p)
            assert out.shape == (7, d)

    def test_full_block_gradients(self, rng):
        cfg = _cfg(d=8, heads=2, kernel_width=3)
        p = bound_block(cfg, 13)
        x = rand_tensor(rng, (4, 8))
        c = Tensor(rng.uniform(-1, 1, (4, 8)))

        def make_loss():
            return sum_all(mul(conformer_block(x, p), c))

        named = {
            "ffs.w1": p.ff_start.w1, "ffs.b1": p.ff_start.b1,
            "ffs.w2": p.ff_start.w2, "ffs.ln": p.ff_start.ln_gamma,
            "attn.wq": p.attn.wq, "attn.wk": p.attn.wk, "attn.bk": p.attn.bk,
            "attn.wv": p.attn.wv, "attn.wpost": p.attn.wpost,
            "attn.wpos": p.attn.wpos_query, "attn.rel": p.attn.rel_emb,
            "conv.wpre": p.conv.wpre, "conv.k": p.conv.kdepth,
            "conv.wpost": p.conv.wpost, "conv.norm": p.conv.norm_gamma,
            "ffe.w1": p.ff_end.w1, "ffe.w2": p.ff_end.w2,
            "final.gamma": p.final_ln_gamma, "final.beta": p.final_ln_beta,
        }
        # smaller step: the four-module composition has enough curvature
        # that eps=1e-4 truncation error shows above 1e-5 on a few coords
        assert_params_match_fd(named, make_loss, eps=3e-5)

    def test_lowrank_block_gradients(self, rng):
        cfg = _cfg(d=8, heads=2, kernel_width=3)
        p = bound_block(cfg, 14, lowrank_k=3)
        x = rand_tensor(rng, (4, 8))
        c = Tensor(rng.uniform(-1, 1, (4, 8)))

        def make_loss():
            return sum_all(mul(conformer_block(x, p), c))

        named = {"ffs.u1": p.ff_start.w1.u, "ffs.v1": p.ff_start.w1.v,
                 "ffs.b1": p.ff_start.b1, "ffe.u2": p.ff_end.w2.u,
                 "ffe.v2": p.ff_end.w2.v}
        assert_params_match_fd(named, make_loss, eps=3e-5)
