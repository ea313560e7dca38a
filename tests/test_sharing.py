import re

import numpy as np
import pytest

from confshare.autodiff import Rng, Tensor, backward, zero_grads
from confshare.blocks import MODULE_TYPES, ModelConfig
from confshare.encoder import (BoundModel, EvalCounter, bind_model, encoder_forward,
                               pack_features)
from confshare.lowrank import LowRankSpec
from confshare.sharing import (ALL_MISC_SMALL, FRONTEND_W, SharingPlan, bind_parameters,
                               canonicalize, canonicalize_plan, index_field,
                               physical_group_counts, repeat_plan, unshare_module,
                               unshare_subcomponent, validate_plan)
from dataclasses import fields, replace

from confshare.training import batch_loss


def _cfg(**kw):
    base = dict(d=8, e=2, heads=2, kernel_width=3, t_max=16)
    base.update(kw)
    return ModelConfig(**base)


def _plan_with_vectors(v, **vectors):
    base = dict(i_ff_start=tuple(range(1, v + 1)), i_attention=tuple(range(1, v + 1)),
                i_conv=tuple(range(1, v + 1)), i_ff_end=tuple(range(1, v + 1)))
    base.update({k: tuple(val) for k, val in vectors.items()})
    return SharingPlan(v=v, **base)


class TestValidatePlan:
    def test_valid_unshared_stack(self):
        assert validate_plan(_plan_with_vectors(4)) == []

    def test_minimum_group_id(self):
        plan = _plan_with_vectors(4, i_attention=[2, 2, 3, 3])
        violations = validate_plan(plan)
        assert any("i_attention" in v and "minimum group id must be 1" in v
                   for v in violations)

    def test_length_must_equal_v(self):
        plan = _plan_with_vectors(4, i_conv=[1, 2, 3])
        violations = validate_plan(plan)
        assert any("i_conv" in v and "length must equal V" in v for v in violations)

    def test_maximum_group_id(self):
        plan = _plan_with_vectors(2, i_ff_end=[1, 3])
        violations = validate_plan(plan)
        assert any("i_ff_end" in v and "must not exceed V" in v for v in violations)

    def test_canonical_labeling(self):
        plan = _plan_with_vectors(3, i_ff_start=[1, 3, 2])
        violations = validate_plan(plan)
        assert any("canonical" in v for v in violations)

    def test_unknown_unshared_pair_reported(self):
        plan = replace(_plan_with_vectors(2), unshared=frozenset({("attention", "linear1")}))
        violations = validate_plan(plan)
        assert any("unknown sub-component" in v for v in violations)

    def test_empty_plan_is_valid(self):
        plan = SharingPlan(v=0, i_ff_start=(), i_attention=(), i_conv=(), i_ff_end=())
        assert validate_plan(plan) == []

    def test_index_fields_follow_the_inventory(self):
        # SharingPlan spells out one field per module; configs and plan
        # builders reach them through index_field, so they must match
        vectors = [f.name for f in fields(SharingPlan) if f.name.startswith("i_")]
        assert vectors == [index_field(module) for module in MODULE_TYPES]


class TestRepeatPlan:
    def test_four_blocks_three_repeats(self):
        plan = repeat_plan(4, 3)
        expected = (1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4)
        assert plan.v == 12
        for module in ("ff_start", "attention", "conv", "ff_end"):
            assert plan.index_vector(module) == expected

    def test_single_block_three_repeats(self):
        assert repeat_plan(1, 3).i_ff_start == (1, 1, 1)

    def test_no_sharing(self):
        assert repeat_plan(4, 1).i_conv == (1, 2, 3, 4)

    @pytest.mark.parametrize("n,r", [(0, 1), (2, 0)])
    def test_rejects_bad_counts(self, n, r):
        with pytest.raises(ValueError):
            repeat_plan(n, r)

    def test_repeat_count_is_one_int(self):
        with pytest.raises(TypeError):
            repeat_plan(3, [1, 2, 1])

    def test_v_equals_n_times_r(self):
        for n in (1, 2, 5):
            for r in (1, 3, 4):
                plan = repeat_plan(n, r)
                assert plan.v == n * r
                counts = physical_group_counts(plan)
                assert all(count == n for count in counts.values())


class TestUnshare:
    def test_unshare_module_conv(self):
        plan = unshare_module(repeat_plan(4, 3), "conv")
        assert plan.i_conv == tuple(range(1, 13))
        assert plan.i_attention == repeat_plan(4, 3).i_attention
        assert physical_group_counts(plan)[("conv", "pre_conv")] == 12

    def test_unshare_module_idempotent(self):
        once = unshare_module(repeat_plan(4, 3), "attention")
        twice = unshare_module(once, "attention")
        assert once == twice

    def test_unshare_both_attention_and_conv(self):
        plan = unshare_module(unshare_module(repeat_plan(4, 3), "attention"), "conv")
        assert plan.i_attention == tuple(range(1, 13))
        assert plan.i_conv == tuple(range(1, 13))

    def test_unshare_subcomponent_key(self):
        plan = unshare_subcomponent(repeat_plan(4, 3), ("attention", "key"))
        counts = physical_group_counts(plan)
        assert counts[("attention", "key")] == 12
        assert counts[("attention", "query")] == 4
        assert counts[("attention", "value")] == 4

    def test_unshare_depthwise_kernel(self):
        plan = unshare_subcomponent(repeat_plan(4, 3), ("conv", "depth_conv"))
        assert physical_group_counts(plan)[("conv", "depth_conv")] == 12

    def test_unshare_misc_small_everywhere(self):
        plan = replace(repeat_plan(4, 3), unshared=ALL_MISC_SMALL)
        counts = physical_group_counts(plan)
        for module in ("ff_start", "attention", "conv", "ff_end"):
            assert counts[(module, "misc_small")] == 12
            assert counts[(module, "linear1" if "ff" in module else
                           ("query" if module == "attention" else "pre_conv"))] == 4

    def test_unshare_rejects_unknown_pair(self):
        with pytest.raises(ValueError, match="unknown sub-component"):
            unshare_subcomponent(repeat_plan(2, 2), ("conv", "query"))

    def test_unshare_module_rejects_unknown_module(self):
        message = f"unknown module 'decoder', expected one of {MODULE_TYPES}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            unshare_module(repeat_plan(2, 2), "decoder")

    def test_unsharing_never_changes_v(self):
        plan = repeat_plan(4, 3)
        assert unshare_module(plan, "ff_start").v == plan.v
        assert unshare_subcomponent(plan, ("ff_end", "linear2")).v == plan.v


class TestCanonicalization:
    def test_relabels_first_occurrence_order(self):
        assert canonicalize([2, 2, 3, 3]) == (1, 1, 2, 2)
        assert canonicalize([3, 1, 3, 2]) == (1, 2, 1, 3)

    def test_idempotent_and_order_preserving(self):
        vec = (1, 2, 1, 3, 2)
        assert canonicalize(vec) == vec
        plan = _plan_with_vectors(4, i_conv=[4, 4, 1, 2])
        canon = canonicalize_plan(plan)
        assert canon.i_conv == (1, 1, 2, 3)
        assert canonicalize_plan(canon) == canon


class TestBinding:
    def test_sl5_store_group_counts(self):
        cfg = _cfg()
        model = bind_model(cfg, repeat_plan(4, 3), seed=1)
        store = model.store
        assert len(model.schedule) == 12
        groups = {g for (m, n, g) in store.keys() if m == "attention" and n == "query.w"}
        assert groups == {1, 2, 3, 4}
        groups = {g for (m, n, g) in store.keys() if m == "conv" and n == "depth.k"}
        assert groups == {1, 2, 3, 4}

    def test_trivial_plan_matches_single_block_store(self):
        cfg = _cfg()
        store_a = bind_parameters(cfg, repeat_plan(1, 1), seed=9)
        plan_b = _plan_with_vectors(1)
        store_b = bind_parameters(cfg, plan_b, seed=9)
        assert list(store_a.keys()) == list(store_b.keys())
        for key in store_a.keys():
            assert np.array_equal(store_a[key].data, store_b[key].data)

    def test_same_seed_bit_identical(self):
        cfg = _cfg()
        plan = unshare_subcomponent(repeat_plan(2, 3), ("attention", "key"))
        store_a = bind_parameters(cfg, plan, seed=123)
        store_b = bind_parameters(cfg, plan, seed=123)
        for key in store_a.keys():
            assert store_a[key].data.tobytes() == store_b[key].data.tobytes()

    def test_rejects_invalid_plan(self):
        plan = _plan_with_vectors(4, i_attention=[2, 2, 3, 3])
        with pytest.raises(ValueError, match="minimum group id"):
            bind_parameters(_cfg(), plan, seed=0)

    def test_lowrank_binding_replaces_ff_linears(self):
        cfg = _cfg(d=8, e=4)
        plan = replace(repeat_plan(2, 1), lowrank=LowRankSpec(k=3))
        store = bind_parameters(cfg, plan, seed=4)
        names = {n for (m, n, g) in store.keys() if m == "ff_start"}
        assert "linear1.u" in names and "linear1.v" in names
        assert "linear1.w" not in names
        u = store[("ff_start", "linear1.u", 1)]
        assert u.shape == (8, 3)

    def test_lowrank_rejects_non_reducing_rank(self):
        cfg = _cfg(d=8, e=1)  # 8x8 linears: k=4 gives 4*16 >= 64
        plan = replace(repeat_plan(1, 1), lowrank=LowRankSpec(k=4))
        with pytest.raises(ValueError, match="does not reduce"):
            bind_parameters(cfg, plan, seed=0)

    def test_unshared_subcomponent_gets_per_layer_groups(self):
        cfg = _cfg()
        plan = unshare_subcomponent(repeat_plan(2, 2), ("attention", "key"))
        model = bind_model(cfg, plan, seed=2)
        key_groups = {g for (m, n, g) in model.store.keys() if n == "key.w"}
        assert key_groups == {1, 2, 3, 4}
        # virtual layer 2 (index 1) binds module group 1 but key group 2
        entry = model.schedule.entries[1]["attention"]
        assert entry["query.w"] == ("attention", "query.w", 1)
        assert entry["key.w"] == ("attention", "key.w", 2)


class TestReferentialSharing:
    def test_perturbing_shared_group_affects_only_bound_layers(self):
        cfg = _cfg()
        model = bind_model(cfg, repeat_plan(2, 2), seed=5)
        rng = Rng(0)
        x = rng.uniform(-1, 1, (4, cfg.input_dim))

        def layer_outputs():
            from confshare.blocks import conformer_block
            from confshare.autodiff import Tensor, matmul
            from confshare.sharing import FRONTEND_B, FRONTEND_W
            h = matmul(Tensor(x), model.store[FRONTEND_W], bias=model.store[FRONTEND_B])
            outs = []
            for params in model.virtual_blocks():
                h = conformer_block(h, params)
                outs.append(h.data.copy())
            return outs

        before = layer_outputs()
        # perturb physical group 2 of the conv module's post projection:
        # schedule is [1, 1, 2, 2], so layers 0 and 1 must be unaffected
        model.store[("conv", "post.w", 2)].data[0, 0] += 0.25
        after = layer_outputs()
        assert np.array_equal(before[0], after[0])
        assert np.array_equal(before[1], after[1])
        assert not np.array_equal(before[2], after[2])
        assert not np.array_equal(before[3], after[3])

    def test_gradient_accumulation_matches_unshared_clone(self):
        cfg = _cfg()
        shared = bind_model(cfg, repeat_plan(1, 3), seed=6)
        clone = bind_model(cfg, repeat_plan(3, 1), seed=6)
        # make every clone group start at the shared values
        for (module, name, group), tensor in clone.store.items():
            if module == "encoder":
                src = shared.store[(module, name, group)]
            else:
                src = shared.store[(module, name, 1)]
            tensor.data[...] = src.data

        rng = Rng(1)
        feats = rng.uniform(-1, 1, (2, 5, cfg.input_dim))
        labels = rng.integers(cfg.num_classes, (2, 5))

        zero_grads(shared.parameters())
        backward(batch_loss(shared, feats, labels))
        zero_grads(clone.parameters())
        backward(batch_loss(clone, feats, labels))

        for (module, name, group), tensor in shared.store.items():
            if module == "encoder" or tensor.grad is None:
                continue
            total = np.zeros_like(tensor.data)
            for g in (1, 2, 3):
                total += clone.store[(module, name, g)].grad
            denom = np.maximum(np.maximum(np.abs(tensor.grad), np.abs(total)), 1e-10)
            assert np.max(np.abs(tensor.grad - total) / denom) < 1e-10

    def test_exact_bitwise_accumulation_in_tape_order(self):
        cfg = _cfg()
        shared = bind_model(cfg, repeat_plan(1, 3), seed=8)
        clone = bind_model(cfg, repeat_plan(3, 1), seed=8)
        for (module, name, group), tensor in clone.store.items():
            src_key = (module, name, group if module == "encoder" else 1)
            tensor.data[...] = shared.store[src_key].data

        rng = Rng(2)
        feats = rng.uniform(-1, 1, (1, 4, cfg.input_dim))
        labels = rng.integers(cfg.num_classes, (1, 4))
        zero_grads(shared.parameters())
        backward(batch_loss(shared, feats, labels))
        zero_grads(clone.parameters())
        backward(batch_loss(clone, feats, labels))

        # backward walks the tape in reverse, so the shared gradient sums
        # per-use contributions from the last virtual layer to the first
        for (module, name, group), tensor in shared.store.items():
            if module == "encoder" or tensor.grad is None:
                continue
            total = np.zeros_like(tensor.data)
            for g in (3, 2, 1):
                total += clone.store[(module, name, g)].grad
            assert np.array_equal(tensor.grad, total), (module, name)


class TestEncoderComposition:
    @pytest.mark.parametrize("utts", [1, 3])
    def test_table_heads_are_built_once_per_forward(self, utts):
        from confshare.autodiff import Tape
        from confshare.sharing import REL_TABLE

        cfg = _cfg(d=16, heads=4)
        model = bind_model(cfg, repeat_plan(2, 2), seed=7)
        T = 5
        x = Rng(5).uniform(-1, 1, (utts, T, cfg.input_dim))
        nodes = Tape.trace(encoder_forward(Tensor(x), model)).nodes
        table = model.store[REL_TABLE]
        # one head split of the table window for all four layers
        (heads,) = [n for n in nodes if any(p is table for p in n._parents)]
        assert heads.op == "split_heads" and heads.shape == (4, 2 * T - 1, 4)
        # every layer's positional products, one per utterance, read those heads
        positional = [n for n in nodes if n.op == "matmul" and n.ndim == 3]
        assert len(positional) == 4 * utts
        assert [n for n in nodes if any(p is heads for p in n._parents)] == positional

    def test_empty_schedule_is_head_of_frontend(self):
        from confshare.autodiff import Tensor, matmul
        from confshare.sharing import FRONTEND_B, FRONTEND_W, HEAD_B, HEAD_W

        cfg = _cfg()
        plan = SharingPlan(v=0, i_ff_start=(), i_attention=(), i_conv=(), i_ff_end=())
        model = bind_model(cfg, plan, seed=3)
        rng = Rng(4)
        x = Tensor(rng.uniform(-1, 1, (3, cfg.input_dim)))
        logits = encoder_forward(x, model)
        h = matmul(x, model.store[FRONTEND_W], bias=model.store[FRONTEND_B])
        manual = matmul(h, model.store[HEAD_W], bias=model.store[HEAD_B])
        assert np.array_equal(logits.data, manual.data)

    def test_sl5_schedule_runs_twelve_block_evaluations(self):
        cfg = _cfg(d=16, heads=4)
        model = bind_model(cfg, repeat_plan(4, 3), seed=7)
        counter = EvalCounter()
        x = Rng(5).uniform(-1, 1, (4, cfg.input_dim))
        encoder_forward(Tensor(x), model, counter)
        assert counter.block_evals == 12

    def test_rejects_frames_beyond_t_max_before_compute(self):
        cfg = _cfg(t_max=4)
        model = bind_model(cfg, repeat_plan(1, 1), seed=1)
        # a frontend projection would fail on the missing weight
        del model.store.tensors[FRONTEND_W]
        with pytest.raises(ValueError, match="5 frames exceed the model's t_max of 4"):
            encoder_forward(Tensor(np.zeros((5, cfg.input_dim))), model)

    @pytest.mark.parametrize("kernel_width", [3, 11])  # 11 reaches past T = 4
    def test_utterances_do_not_see_each_other(self, kernel_width):
        cfg = _cfg(kernel_width=kernel_width)
        model = bind_model(cfg, repeat_plan(2, 1), seed=6)
        B, T = 3, 4
        features = Rng(7).uniform(-1, 1, (B, T, cfg.input_dim))
        logits = encoder_forward(features, model)
        assert logits.shape == (B * T, cfg.num_classes)
        perturbed = features.copy()
        perturbed[0] += Rng(8).uniform(-1, 1, (T, cfg.input_dim))
        moved = encoder_forward(perturbed, model)
        assert np.all(moved.data[:T] != logits.data[:T])
        assert moved.data[T:].tobytes() == logits.data[T:].tobytes()

    def test_t_max_applies_per_utterance(self):
        cfg = _cfg(t_max=4)
        model = bind_model(cfg, repeat_plan(1, 1), seed=1)
        logits = encoder_forward(np.zeros((3, 4, cfg.input_dim)), model)
        assert logits.shape == (12, cfg.num_classes)
        # a frontend projection would fail on the missing weight
        del model.store.tensors[FRONTEND_W]
        with pytest.raises(ValueError, match="5 frames exceed the model's t_max of 4"):
            encoder_forward(np.zeros((2, 5, cfg.input_dim)), model)

    @pytest.mark.parametrize("lead,rows", [((4,), 4), ((2, 4), 8)], ids=["2-d", "3-d"])
    def test_features_never_carry_a_gradient(self, lead, rows):
        cfg = _cfg()
        model = bind_model(cfg, repeat_plan(1, 1), seed=1)
        shape = (*lead, cfg.input_dim)
        data = Rng(3).uniform(-1, 1, shape)
        with pytest.raises(ValueError) as info:
            encoder_forward(Tensor(data, requires_grad=True), model)
        assert str(info.value) == (f"features must not require a gradient, got "
                                   f"Tensor(shape={shape}, op='leaf', requires_grad=True)")
        # arrays and constant Tensors pack into a constant leaf of T = 4 frames
        x, frames = pack_features(Tensor(data), cfg)
        assert (x.op, x.requires_grad, x.shape, frames) == (None, False, (rows, cfg.input_dim), 4)
        expected = encoder_forward(data, model).data.tobytes()
        assert encoder_forward(Tensor(data), model).data.tobytes() == expected

    def test_features_of_the_wrong_width_rejected(self):
        cfg = _cfg()
        assert cfg.input_dim == 80
        message = "expected (T, 80) or (B, T, 80) features, got (2, 3, 5)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            pack_features(np.zeros((2, 3, 5)), cfg)

    def test_block_cache_is_not_a_constructor_argument(self):
        model = bind_model(_cfg(), repeat_plan(1, 1), seed=1)
        with pytest.raises(TypeError):
            BoundModel(config=model.config, plan=model.plan, store=model.store, _blocks=[])

    def test_unbound_schedule_raises(self):
        cfg = _cfg()
        model = bind_model(cfg, repeat_plan(2, 1), seed=1)
        del model.store.tensors[("conv", "post.w", 2)]
        model._blocks = None
        with pytest.raises(KeyError, match="unbound|no tensor"):
            encoder_forward(Tensor(np.zeros((2, cfg.input_dim))), model)
