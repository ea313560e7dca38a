import math
import re

import numpy as np
import pytest

import confshare.encoder
import confshare.training
from confshare.autodiff import (Rng, ShapeError, Tensor, backward,
                                cross_entropy_mean, zero_grads)
from confshare.blocks import ModelConfig, conformer_block
from confshare.encoder import (bind_model, encoder_forward, first_stages,
                               pack_features)
from confshare.lowrank import LowRankSpec
from confshare.sharing import (FRONTEND_B, FRONTEND_W, HEAD_B, HEAD_W, REL_TABLE,
                               SharingPlan, repeat_plan, unshare_module,
                               unshare_subcomponent)
from confshare.training import (OptimizerState, ToyTaskSpec, batch_loss,
                                generate_toy_batch, gradcheck_model, serialize_report,
                                task_prototypes, train_steps)
from confshare.training import _loss_from as loss_from
from dataclasses import replace

from conftest import traced_peak
from oracles import add, scale


def _cfg(**kw):
    base = dict(d=8, e=2, heads=2, kernel_width=3, t_max=64)
    base.update(kw)
    return ModelConfig(**base)


def _per_utterance_loss(model, features, labels):
    """The mean of per-utterance mean losses, one encoder pass per
    utterance: the composition a packed batch must reproduce."""
    total = None
    for b in range(features.shape[0]):
        loss = cross_entropy_mean(encoder_forward(features[b], model), labels[b])
        total = loss if total is None else add(total, loss)
    return scale(total, 1.0 / features.shape[0])


class _PlainAdam:
    """The optimizer's update as plain formulas, with a fresh array for
    every intermediate: the oracle for ``OptimizerState.step``."""

    def __init__(self, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.step_count = 0
        self.m, self.v = {}, {}

    def step(self, store):
        self.step_count += 1
        t = self.step_count
        for key, tensor in store.items():
            g = tensor.grad
            if g is None:
                continue
            if key not in self.m:
                self.m[key] = np.zeros_like(tensor.data)
                self.v[key] = np.zeros_like(tensor.data)
            m = self.m[key]
            v = self.v[key]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            mhat = m / (1.0 - self.beta1 ** t)
            vhat = v / (1.0 - self.beta2 ** t)
            tensor.data -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


class TestAdam:
    SHAPES = {"w": (9, 7), "b": (7,), "k": (3, 5, 2), "s": (1,), "frozen": (4, 3)}

    def _stores(self):
        rng = Rng(17)
        data = {key: rng.uniform(-1.0, 1.0, shape) for key, shape in self.SHAPES.items()}
        return [{key: Tensor(x.copy(), requires_grad=True) for key, x in data.items()}
                for _ in range(2)]

    def test_five_steps_give_the_bytes_of_the_plain_formulas(self):
        ours, theirs = self._stores()
        opt, oracle = OptimizerState(), _PlainAdam()
        rng = Rng(18)
        for step in range(5):
            for key, shape in self.SHAPES.items():
                # "frozen" never has a gradient, "b" misses the second step,
                # and the gradients span several magnitudes and signed zeros
                g = None
                if key != "frozen" and not (key == "b" and step == 1):
                    g = rng.uniform(-1.0, 1.0, shape) * 10.0 ** (step - 2)
                    g.reshape(-1)[::4] = 0.0
                    g.reshape(-1)[1::5] = -0.0
                ours[key].grad = theirs[key].grad = g
            opt.step(ours)
            oracle.step(theirs)
            assert opt.m.keys() == oracle.m.keys() == self.SHAPES.keys() - {"frozen"}
            for key in self.SHAPES:
                assert ours[key].data.tobytes() == theirs[key].data.tobytes(), (step, key)
                if key in opt.m:
                    assert opt.m[key].tobytes() == oracle.m[key].tobytes(), (step, key)
                    assert opt.v[key].tobytes() == oracle.v[key].tobytes(), (step, key)
        frozen = self._stores()[0]["frozen"]
        assert ours["frozen"].data.tobytes() == frozen.data.tobytes()

    def test_warm_step_allocates_no_parameter_sized_array(self):
        # the shape of an LRS3 feed-forward weight
        rng = Rng(19)
        store = {key: Tensor(rng.uniform(-1.0, 1.0, shape), requires_grad=True)
                 for key, shape in (("w", (1044, 144)), ("b", (144,)))}
        for t in store.values():
            t.grad = rng.uniform(-1.0, 1.0, t.shape)
        opt = OptimizerState()
        opt.step(store)  # the moments and the scratch slots take their size
        _, peak = traced_peak(lambda: opt.step(store))
        assert peak < 64 * 1024, \
            f"a step over {store['w'].data.nbytes} bytes of weight held {peak} bytes"


class TestToyBatch:
    def test_deterministic(self):
        spec = ToyTaskSpec()
        a = generate_toy_batch(spec, seed=5, batch_index=3)
        b = generate_toy_batch(spec, seed=5, batch_index=3)
        assert a[0].tobytes() == b[0].tobytes()
        assert a[1].tobytes() == b[1].tobytes()

    def test_different_indices_differ(self):
        spec = ToyTaskSpec()
        a = generate_toy_batch(spec, seed=5, batch_index=0)
        b = generate_toy_batch(spec, seed=5, batch_index=1)
        assert a[0].tobytes() != b[0].tobytes()

    def test_shapes_and_label_range(self):
        spec = ToyTaskSpec(num_classes=8, frames=32, batch=4)
        features, labels = generate_toy_batch(spec, seed=1, batch_index=0)
        assert features.shape == (4, 32, 80)
        assert labels.shape == (4, 32)
        assert labels.min() >= 0 and labels.max() < 8

    def test_zero_noise_recovers_labels_by_nearest_prototype(self):
        spec = ToyTaskSpec(noise=0.0)
        features, labels = generate_toy_batch(spec, seed=9, batch_index=2)
        protos = task_prototypes(spec, 9)
        flat = features.reshape(-1, spec.feature_dim)
        dists = ((flat[:, None, :] - protos[None, :, :]) ** 2).sum(axis=-1)
        predicted = dists.argmin(axis=1).reshape(labels.shape)
        assert np.array_equal(predicted, labels)

    def test_noise_bounded(self):
        spec = ToyTaskSpec(noise=0.3)
        features, labels = generate_toy_batch(spec, seed=4, batch_index=0)
        protos = task_prototypes(spec, 4)
        residual = features - protos[labels]
        assert np.max(np.abs(residual)) <= 0.3


class TestTrainSteps:
    def test_zero_learning_rate_changes_nothing(self):
        from confshare.training import batch_loss

        model = bind_model(_cfg(), repeat_plan(1, 2), seed=3)
        before = {k: t.data.copy() for k, t in model.store.items()}
        spec = ToyTaskSpec(frames=8, batch=2)
        report = train_steps(model, spec, OptimizerState(lr=0.0), steps=5, seed=3)
        for k, t in model.store.items():
            assert np.array_equal(before[k], t.data)
        # with frozen parameters every loss is a pure function of its batch:
        # recomputing from the untouched model reproduces each value exactly
        for step, recorded in enumerate(report.losses):
            features, labels = generate_toy_batch(spec, 3, step)
            assert batch_loss(model, features, labels).item() == recorded

    def test_loss_decreases(self):
        model = bind_model(_cfg(d=16, heads=4), repeat_plan(2, 2), seed=5)
        spec = ToyTaskSpec(frames=16, batch=2)
        report = train_steps(model, spec, OptimizerState(), steps=30, seed=5)
        assert report.final_loss < report.initial_loss

    def test_reports_byte_identical(self):
        spec = ToyTaskSpec(frames=8, batch=2)
        texts = []
        for _ in range(2):
            model = bind_model(_cfg(), repeat_plan(1, 3), seed=7)
            report = train_steps(model, spec, OptimizerState(), steps=10, seed=7)
            texts.append(serialize_report(report))
        assert texts[0].encode() == texts[1].encode()

    def test_toy_train_config_tape_is_219_nodes(self):
        # the benchmark's toy_train config: a packed 4x32 batch through repeat_plan(2, 3)
        model = bind_model(ModelConfig(d=32, e=7.25, heads=4, kernel_width=11),
                           repeat_plan(2, 3), 11)
        loss = batch_loss(model, *generate_toy_batch(ToyTaskSpec(frames=32, batch=4), 11, 0))
        ops = [n.op for n in backward(loss).nodes]
        layers = len(model.virtual_blocks())
        assert layers == 6
        assert len(ops) == 219
        # attention from the projections to the context is one node per layer,
        # only the positional query is split into heads per layer, and the
        # table window is sliced and split once for all layers
        assert ops.count("attention_context") == layers
        assert ops.count("transpose") == layers + 1
        assert ops.count("slice_rows") == 4 * layers + 1
        # each feed-forward is one node from linear1 to linear2, and every
        # residual is added by its module's last product: no add, no scale
        assert ops.count("linear_swish_matmul") == 2 * layers
        assert "add" not in ops and "scale" not in ops
        # only the attention's norm, which four projections read, and the
        # block's final norm are nodes: the other four are a product's prologue
        assert ops.count("layer_norm") == 2 * layers

    def test_class_count_mismatch_rejected(self):
        model = bind_model(_cfg(num_classes=4), repeat_plan(1, 1), seed=0)
        with pytest.raises(ValueError, match="classes"):
            train_steps(model, ToyTaskSpec(num_classes=8), OptimizerState(), 1, 0)

    def test_serialized_report_format(self):
        model = bind_model(_cfg(), repeat_plan(1, 1), seed=2)
        report = train_steps(model, ToyTaskSpec(frames=4, batch=1),
                             OptimizerState(), steps=3, seed=2)
        lines = serialize_report(report).rstrip("\n").split("\n")
        assert lines[0] == "# confshare train report"
        assert lines[1].startswith("# digest ")
        assert lines[2] == "# seed 2"
        assert lines[3] == "# steps 3"
        for i, line in enumerate(lines[4:]):
            step, loss = line.split("\t")
            assert int(step) == i
            float(loss)

    @pytest.mark.parametrize("case", ["toy", "lowrank"])
    def test_batched_loss_and_gradients_match_per_utterance_composition(self, case):
        if case == "toy":  # the acceptance-10 model and task
            model = bind_model(ModelConfig(d=32, e=7.25, heads=4, kernel_width=11),
                               repeat_plan(2, 3), seed=11)
            features, labels = generate_toy_batch(ToyTaskSpec(), 11, 0)
        else:  # the acceptance-04 low-rank model and batch
            model = bind_model(ModelConfig(d=16, e=7.25, heads=4, kernel_width=11),
                               replace(repeat_plan(2, 2), lowrank=LowRankSpec(k=4)), seed=5)
            features, labels = generate_toy_batch(ToyTaskSpec(frames=6, batch=2), 3, 0)
        zero_grads(model.parameters())
        reference = _per_utterance_loss(model, features, labels)
        backward(reference)
        expected = {key: t.grad for key, t in model.store.items()}
        zero_grads(model.parameters())
        loss = batch_loss(model, features, labels)
        backward(loss)
        assert abs(loss.item() - reference.item()) <= 1e-12 * abs(reference.item())
        # The sums over frames run in another order, so entries formed by
        # cancellation differ by rounding relative to the tensor's scale.
        for key, t in model.store.items():
            diff = np.max(np.abs(t.grad - expected[key]))
            if key[1] == "key.b":  # softmax-invariant: both are rounding noise
                assert diff <= 1e-15, key
            else:
                assert diff <= 1e-12 * np.max(np.abs(expected[key])), key

    @pytest.mark.parametrize("labels_of", [np.transpose, np.ravel,
                                           lambda l: l[:, :-1], lambda l: l[None]],
                             ids=["transposed", "flat", "short", "extra-axis"])
    def test_batch_loss_rejects_labels_that_do_not_pair_with_frames(self, labels_of,
                                                                     monkeypatch):
        def never(*args):
            raise AssertionError("ran the encoder on unpaired labels")

        monkeypatch.setattr(confshare.training, "encoder_forward", never)
        model = bind_model(_cfg(), repeat_plan(1, 1), seed=1)
        features, labels = generate_toy_batch(ToyTaskSpec(frames=4, batch=2), 1, 0)
        bad = labels_of(labels)
        with pytest.raises(ShapeError, match=rf"\(2, 4, 80\).*{re.escape(str(bad.shape))}"):
            batch_loss(model, features, bad)

    def test_label_row_b_labels_utterance_b_when_batch_equals_frames(self):
        # With B = T a transposed label array has the right shape, so no
        # check can refuse it; row b must still pair with utterance b.
        model = bind_model(_cfg(), repeat_plan(1, 2), seed=2)
        features, labels = generate_toy_batch(ToyTaskSpec(frames=4, batch=4), 2, 0)
        for rows in (labels, labels.T):
            loss = batch_loss(model, features, rows).item()
            reference = _per_utterance_loss(model, features, rows).item()
            assert abs(loss - reference) <= 1e-12 * reference
        assert batch_loss(model, features, labels).item() != \
            batch_loss(model, features, labels.T).item()

    def test_shared_and_clone_have_identical_first_loss_then_diverge(self):
        cfg = _cfg()
        shared = bind_model(cfg, repeat_plan(1, 3), seed=11)
        clone = bind_model(cfg, repeat_plan(3, 1), seed=11)
        for (module, name, group), tensor in clone.store.items():
            src_key = (module, name, group if module == "encoder" else 1)
            tensor.data[...] = shared.store[src_key].data

        spec = ToyTaskSpec(frames=8, batch=2)
        rep_shared = train_steps(shared, spec, OptimizerState(), steps=2, seed=11)
        rep_clone = train_steps(clone, spec, OptimizerState(), steps=2, seed=11)
        assert rep_shared.losses[0] == rep_clone.losses[0]
        # clone gradients are per-use (unsummed), so updates differ from step 1 on
        assert rep_shared.losses[1] != rep_clone.losses[1]
        b1 = shared.store[("ff_start", "linear1.w", 1)].data
        b2 = clone.store[("ff_start", "linear1.w", 1)].data
        assert not np.array_equal(b1, b2)


class TestGradcheckModel:
    def _batch(self, cfg, seed=1, frames=5, batch=2):
        spec = ToyTaskSpec(feature_dim=cfg.input_dim, num_classes=cfg.num_classes,
                           frames=frames, batch=batch)
        return generate_toy_batch(spec, seed, 0)

    def test_empty_slice_passes_vacuously(self):
        model = bind_model(_cfg(), repeat_plan(1, 1), seed=1)
        report = gradcheck_model(model, self._batch(model.config), keys=[])
        assert report.passed
        assert report.entries == ()
        assert report.max_rel_err == 0.0

    def test_dense_single_block_passes(self):
        model = bind_model(_cfg(d=8, heads=2), repeat_plan(1, 1), seed=2)
        report = gradcheck_model(model, self._batch(model.config))
        assert report.passed, [(e.key, e.max_rel_err) for e in report.entries
                               if e.max_rel_err >= report.tol]

    def test_shared_lowrank_model_passes(self):
        cfg = _cfg(d=16, heads=4)
        plan = replace(repeat_plan(2, 2), lowrank=LowRankSpec(k=4))
        model = bind_model(cfg, plan, seed=3)
        report = gradcheck_model(model, self._batch(cfg))
        assert report.passed, [(e.key, e.max_rel_err) for e in report.entries
                               if e.max_rel_err >= report.tol]

    def test_reports_every_tensor(self):
        model = bind_model(_cfg(), repeat_plan(1, 2), seed=4)
        report = gradcheck_model(model, self._batch(model.config),
                                 samples_per_tensor=2)
        assert {e.key for e in report.entries} == set(model.store.keys())

    def test_finite_difference_evaluations_keep_no_tape(self, monkeypatch):
        losses = []

        def recording_loss_from(*args):
            losses.append(loss_from(*args))
            return losses[-1]

        monkeypatch.setattr(confshare.training, "_loss_from", recording_loss_from)
        model = bind_model(_cfg(), repeat_plan(1, 1), seed=1)
        keys = list(model.store.keys())[:3]
        report = gradcheck_model(model, self._batch(model.config),
                                 samples_per_tensor=2, keys=keys)
        analytic, *evaluations = losses
        assert analytic._parents and analytic.requires_grad
        assert len(evaluations) == 2 * sum(e.checked for e in report.entries)
        assert all(not t._parents and t._backward is None and not t.requires_grad
                   for t in evaluations)
        assert all(t.requires_grad for t in model.parameters())

    def test_restores_requires_grad_when_an_evaluation_raises(self, monkeypatch):
        calls = []

        def failing_loss_from(*args):
            calls.append(None)
            if len(calls) == 3:
                raise FloatingPointError("evaluation failed")
            return loss_from(*args)

        monkeypatch.setattr(confshare.training, "_loss_from", failing_loss_from)
        model = bind_model(_cfg(), repeat_plan(1, 1), seed=1)
        frozen = model.store[list(model.store.keys())[0]]
        frozen.requires_grad = False
        before = {key: t.requires_grad for key, t in model.store.items()}
        with pytest.raises(FloatingPointError, match="evaluation failed"):
            gradcheck_model(model, self._batch(model.config))
        assert {key: t.requires_grad for key, t in model.store.items()} == before
        assert not frozen.requires_grad

    @pytest.mark.parametrize("name,value", [
        ("eps", math.nan), ("eps", math.inf), ("eps", 0.0), ("eps", -1e-4),
        ("tol", math.nan), ("tol", math.inf), ("tol", 0.0), ("tol", -1.0)])
    def test_rejects_bad_eps_or_tol_before_any_compute(self, name, value, monkeypatch):
        def never(*args):
            raise AssertionError("computed a loss for a check that cannot run")

        monkeypatch.setattr(confshare.training, "_loss_from", never)
        model = bind_model(_cfg(), repeat_plan(1, 1), seed=1)
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
            gradcheck_model(model, self._batch(model.config), **{name: value})

    def test_rejects_unknown_keys_before_any_compute(self, monkeypatch):
        def never(*args):
            raise AssertionError("computed a loss for a key the store lacks")

        monkeypatch.setattr(confshare.training, "_loss_from", never)
        model = bind_model(_cfg(), repeat_plan(1, 1), seed=1)
        keys = [("ff_start", "linear1.w", 1), ("conv", "depth.k", 3)]
        with pytest.raises(ValueError, match=r"no tensor for key conv\|depth\.k\|3$"):
            gradcheck_model(model, self._batch(model.config), keys=keys)


class TestRestartStage:
    """Each finite-difference evaluation restarts at the first encoder
    stage that reads the perturbed key; the skipped stages must not
    depend on it."""

    PLANS = {
        "repeat": repeat_plan(2, 3),
        "conv-unshared": unshare_module(repeat_plan(2, 3), "conv"),
        "key-unshared": unshare_subcomponent(repeat_plan(2, 3), ("attention", "key")),
        "lowrank": replace(repeat_plan(2, 2), lowrank=LowRankSpec(k=2)),
        "empty": SharingPlan(v=0, i_ff_start=(), i_attention=(), i_conv=(), i_ff_end=()),
    }

    def _batch(self, cfg):
        spec = ToyTaskSpec(feature_dim=cfg.input_dim, num_classes=cfg.num_classes,
                           frames=4, batch=2)
        return generate_toy_batch(spec, 5, 0)

    @staticmethod
    def _stage_inputs(model, features, labels):
        x, frames = pack_features(features, model.config)
        inputs = []
        loss_from(model, x, frames, labels.reshape(-1), 0, inputs)
        return inputs, frames

    @staticmethod
    def _loss_at(model, inputs, frames, labels, start):
        return loss_from(model, Tensor(inputs[start]), frames, labels.reshape(-1), start).item()

    @pytest.mark.parametrize("plan", PLANS.values(), ids=PLANS.keys())
    def test_restart_gives_the_full_loss_bit_for_bit(self, plan):
        model = bind_model(_cfg(), plan, seed=7)
        features, labels = self._batch(model.config)
        inputs, frames = self._stage_inputs(model, features, labels)
        stages = first_stages(model)
        assert set(stages) == set(model.store.keys())
        assert len(inputs) == plan.v + 2
        for key, tensor in model.store.items():
            flat = tensor.data.reshape(-1)
            i = flat.size // 2
            original = flat[i]
            try:
                flat[i] = original + 1e-3
                full = batch_loss(model, features, labels).item()
                assert self._loss_at(model, inputs, frames, labels, stages[key]) == full, key
            finally:
                flat[i] = original

    def test_stages_follow_the_schedule(self):
        model = bind_model(_cfg(), repeat_plan(2, 3), seed=7)
        stages = first_stages(model)
        assert stages[FRONTEND_W] == stages[FRONTEND_B] == 0
        assert stages[REL_TABLE] == 1
        assert stages[("ff_start", "linear1.w", 1)] == 1
        assert stages[("conv", "depth.k", 2)] == 4
        assert stages[HEAD_W] == stages[HEAD_B] == 7
        unshared = first_stages(bind_model(_cfg(), self.PLANS["key-unshared"], seed=7))
        assert [unshared[("attention", "key.w", g)] for g in range(1, 7)] == [1, 2, 3, 4, 5, 6]
        assert unshared[("attention", "query.w", 2)] == 4

    def test_restarting_one_stage_late_misses_the_perturbation(self):
        model = bind_model(_cfg(), repeat_plan(2, 3), seed=7)
        features, labels = self._batch(model.config)
        inputs, frames = self._stage_inputs(model, features, labels)
        key = ("ff_start", "linear1.w", 2)
        start = first_stages(model)[key]
        flat = model.store[key].data.reshape(-1)
        original = flat[0]
        try:
            flat[0] = original + 1e-3
            full = batch_loss(model, features, labels).item()
            assert self._loss_at(model, inputs, frames, labels, start) == full
            assert self._loss_at(model, inputs, frames, labels, start + 1) != full
        finally:
            flat[0] = original

    @pytest.mark.parametrize("key,blocks", [(HEAD_W, 0), (HEAD_B, 0),
                                            (("conv", "depth.k", 2), 3),
                                            (("ff_end", "linear2.b", 1), 6),
                                            (REL_TABLE, 6), (FRONTEND_W, 6)])
    def test_blocks_run_per_evaluation(self, key, blocks, monkeypatch):
        calls = []

        def counting_block(*args):
            calls.append(None)
            return conformer_block(*args)

        monkeypatch.setattr(confshare.encoder, "conformer_block", counting_block)
        model = bind_model(_cfg(), repeat_plan(2, 3), seed=7)
        report = gradcheck_model(model, self._batch(model.config),
                                 samples_per_tensor=2, keys=[key])
        evaluations = 2 * report.entries[0].checked
        assert len(calls) == 6 + evaluations * blocks


class TestLossTrend:
    def test_moving_average_mostly_non_increasing(self):
        # 200-step reference run; 20-step moving average declines for at
        # least 90% of the windows
        model = bind_model(_cfg(d=16, heads=4), repeat_plan(1, 3), seed=13)
        spec = ToyTaskSpec(frames=16, batch=2)
        report = train_steps(model, spec, OptimizerState(), steps=200, seed=13)
        win = 20
        losses = report.losses
        moving = [sum(losses[i:i + win]) / win for i in range(len(losses) - win + 1)]
        drops = sum(1 for i in range(1, len(moving)) if moving[i] <= moving[i - 1])
        assert drops / (len(moving) - 1) >= 0.9
