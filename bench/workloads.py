"""The four benchmark workloads.

Each workload runs in its own process. ``setup()`` does everything before
the first timed op (it is run several times and the last state kept) and
returns a fingerprint of its own output, so set-ups of one seed can be
compared byte for byte. ``op(i)`` is one timed operation: it returns the
frames it pushed through the encoder and the output checks that failed.
``probe()`` runs after the timed ops of a traced run and measures single
layers on the workload's own model and shapes.

Every call into confshare goes through ``Tracer.call`` with the name
``<module>.<function>``; the module names are the layers.
"""

from __future__ import annotations

import hashlib
import math
import os
import statistics
import tempfile
import time
from collections import Counter
from dataclasses import replace

import numpy as np

from confshare.accounting import SizeBudget, calibrate, count_params, fit_dim_to_budget
from confshare.autodiff import (Rng, Tensor, backward, cross_entropy_mean,
                                sum_all, zero_grads)
from confshare.blocks import (ModelConfig, apply_linear, attention,
                              conformer_block, conv_module, feed_forward)
from confshare.checkpoint import load_checkpoint, save_checkpoint
from confshare.configio import parse_config_text, serialize_config
from confshare.encoder import EvalCounter, bind_model, encoder_forward
from confshare.lowrank import LowRankFactors, LowRankSpec
from confshare.presets import preset, preset_names
from confshare.sharing import bind_parameters, key_str, repeat_plan, validate_plan
from confshare.training import (OptimizerState, ToyTaskSpec, batch_loss,
                                generate_toy_batch, gradcheck_model)

from tracing import rel_offsets_used, tape_stats

MIB = 1.0 / (1 << 20)


def digest(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype=np.float64).tobytes()).hexdigest()


def _ms_since(t0: float) -> float:
    return (time.perf_counter() - t0) * 1e3


def model_counts(models) -> dict[str, tuple[float, str]]:
    """Allocated parameter MiB, and the most virtual layers any one
    physical tensor serves (the quantity sharing changes)."""
    uses = Counter()
    for model in models:
        for entry in model.schedule.entries:
            for binding in entry.values():
                uses.update(binding.values())
    return {"sharing.params_mib": (sum(m.store.total_scalars() for m in models) * 8 * MIB, "MiB"),
            "sharing.max_group_uses": (float(max(uses.values(), default=0)), "count")}


def probe_bind(tr, models, reps: int) -> dict[str, tuple[float, str]]:
    times = []
    for model in models:
        for _ in range(reps):
            t0 = time.perf_counter()
            tr.call("sharing.bind_parameters", bind_parameters,
                    model.config, model.plan, model.store.seed)
            times.append(_ms_since(t0))
    return {"sharing.bind_parameters.ms": (statistics.median(times), "ms")}


def _fwd_bwd(tr, name: str, fn, x_data: np.ndarray, args, reps: int):
    fwd, bwd = [], []
    for _ in range(reps):
        x = Tensor(x_data, requires_grad=True)
        t0 = time.perf_counter()
        y = tr.call(name, fn, x, *args)
        fwd.append(_ms_since(t0))
        t0 = time.perf_counter()
        tr.call("autodiff.backward", backward, tr.call("autodiff.sum_all", sum_all, y))
        bwd.append(_ms_since(t0))
    return statistics.median(fwd), statistics.median(bwd)


def probe_blocks(tr, model, frames: int, seed: int, reps: int):
    """Each public block function on the model's first virtual layer."""
    block = model.virtual_blocks()[0]
    x_data = Rng(seed).derive("probe").uniform(-1.0, 1.0, (frames, model.config.d))
    cases = {"feed_forward": (feed_forward, block.ff_start),
             "attention": (attention, block.attn),
             "conv_module": (conv_module, block.conv),
             "conformer_block": (conformer_block, block)}
    out = {}
    for name, (fn, params) in cases.items():
        fwd, bwd = _fwd_bwd(tr, f"blocks.{name}", fn, x_data, (params,), reps)
        out[f"blocks.{name}.fwd_ms"] = (fwd, "ms")
        out[f"blocks.{name}.bwd_ms"] = (bwd, "ms")
    zero_grads(model.parameters())
    return out


def probe_lowrank(tr, model, frames: int, seed: int, reps: int):
    """``blocks.apply_linear`` on the first layer's first factored linear."""
    ff = model.virtual_blocks()[0].ff_start
    if not isinstance(ff.w1, LowRankFactors):
        raise TypeError("probe_lowrank needs a model with low-rank feed-forward layers")
    x_data = Rng(seed).derive("probe").uniform(-1.0, 1.0, (frames, model.config.d))
    fwd, bwd = _fwd_bwd(tr, "blocks.apply_linear", apply_linear, x_data, (ff.w1, ff.b1), reps)
    zero_grads(model.parameters())
    return {"lowrank.factored_linear.fwd_ms": (fwd, "ms"),
            "lowrank.factored_linear.bwd_ms": (bwd, "ms")}


def tape_metrics(tape, config: ModelConfig, frames: int):
    out = tape_stats(tape)
    out["blocks.attention.rel_offsets_used"] = (
        rel_offsets_used(tape, config.heads, frames), "ratio")
    return out


class Workload:
    name = ""

    def __init__(self, seed: int, tr, workdir: str):
        self.seed = seed
        self.tr = tr
        self.workdir = workdir
        # per-layer counts seen during traced ops and probes
        self.layer: dict[str, tuple[float, str]] = {}

    def setup(self) -> str:
        raise NotImplementedError

    def op(self, i: int) -> tuple[int, list[str]]:
        raise NotImplementedError

    def probe(self) -> dict[str, tuple[float, str]]:
        return {}

    def close(self):
        pass


class ToyTrain(Workload):
    """Tiny arrays and ~1,500 tape nodes a step: Python per-op overhead, the
    per-utterance loop and 63 of 511 rel-pos columns.
    """

    name = "toy_train"
    CONFIG = ModelConfig(d=32, e=7.25, heads=4, kernel_width=11)
    SPEC = ToyTaskSpec()
    WARMUP_STEPS = 3

    def setup(self):
        tr = self.tr
        plan = tr.call("sharing.repeat_plan", repeat_plan, 2, 3)
        self.model = tr.call("encoder.bind_model", bind_model, self.CONFIG, plan, self.seed)
        self.opt = OptimizerState()
        return digest([self._step(i)[0].item() for i in range(self.WARMUP_STEPS)])

    def _step(self, index: int):
        tr = self.tr
        features, labels = tr.call("training.generate_toy_batch", generate_toy_batch,
                                   self.SPEC, self.seed, index)
        tr.call("autodiff.zero_grads", zero_grads, self.model.parameters())
        loss = tr.call("training.batch_loss", batch_loss, self.model, features, labels)
        tape = tr.call("autodiff.backward", backward, loss)
        tr.call("training.optimizer_step", self.opt.step, self.model.store)
        return loss, tape

    def op(self, i):
        loss, tape = self._step(self.WARMUP_STEPS + i)
        if self.tr.enabled and "autodiff.tape_nodes" not in self.layer:
            self.layer.update(tape_metrics(tape, self.CONFIG, self.SPEC.frames))
        value = loss.item()
        failed = [] if math.isfinite(value) else [f"step {i}: loss is {value}"]
        return self.SPEC.batch * self.SPEC.frames, failed

    def probe(self):
        out = {"training.loss_evals": (1.0, "count")}
        out.update(model_counts([self.model]))
        out.update(probe_bind(self.tr, [self.model], reps=5))
        out.update(probe_blocks(self.tr, self.model, self.SPEC.frames, self.seed, reps=20))
        return out


class FdGradcheck(Workload):
    """Thousands of forward-only evaluations whose tapes are thrown away; the
    one workload a no-tape mode helps, and low-rank at small size.
    """

    name = "fd_gradcheck"
    SPEC = ToyTaskSpec(frames=6, batch=2)
    TOL = 1e-5
    # The acceptance-04 inputs, the same for every --seed: with other
    # batches the central differences (eps 1e-4) miss tol 1e-5 on correct
    # gradients of tiny magnitude, an error that shrinks as eps**2.
    BATCH_SEED = 3
    # (config, plan, model seed)
    MODELS = (
        (ModelConfig(d=8, e=7.25, heads=4, kernel_width=11), repeat_plan(2, 3), 3),
        (ModelConfig(d=16, e=7.25, heads=4, kernel_width=11),
         replace(repeat_plan(2, 2), lowrank=LowRankSpec(k=4)), 5),
    )

    def setup(self):
        tr = self.tr
        self.batch = tr.call("training.generate_toy_batch", generate_toy_batch,
                             self.SPEC, self.BATCH_SEED, 0)
        self.models = [tr.call("encoder.bind_model", bind_model, config, plan, model_seed)
                       for config, plan, model_seed in self.MODELS]
        # The slice of an op is one key: ops near 0.1 s let the speed gauge
        # bracket them closely and give a run enough of them for a steady
        # median (with 2-4 keys an op, medians of ten runs spread by
        # 10-15% on a shared 2-vCPU VM). The two models' keys are spread
        # evenly along the cycle, so the median does not hinge on where a
        # run stops.
        per_model = [[(index, [key]) for key in model.store.keys()]
                     for index, model in enumerate(self.models)]
        self.slices = [s for _, s in sorted(((j + 0.5) / len(slices), s)
                                            for slices in per_model
                                            for j, s in enumerate(slices))]
        warm = [tr.call("training.gradcheck_model", gradcheck_model, model, self.batch,
                        tol=self.TOL, keys=list(model.store.keys())[:1])
                for model in self.models]
        self.evals = []
        return digest([r.max_rel_err for r in warm])

    def op(self, i):
        index, keys = self.slices[i % len(self.slices)]
        report = self.tr.call("training.gradcheck_model", gradcheck_model,
                              self.models[index], self.batch, tol=self.TOL, keys=keys)
        failed = []
        if len(report.entries) != len(keys):
            failed.append(f"slice {i}: {len(report.entries)} entries for {len(keys)} keys")
        empty = [key_str(e.key) for e in report.entries if e.checked <= 0]
        if empty:
            failed.append(f"slice {i}: nothing checked for {', '.join(empty)}")
        if not report.passed:
            failed.append(f"slice {i}: max relative error {report.max_rel_err:.3e} "
                          f">= {self.TOL}")
        evals = 2 * sum(e.checked for e in report.entries) + 1
        self.evals.append(evals)
        return evals * self.SPEC.batch * self.SPEC.frames, failed

    def probe(self):
        tr = self.tr
        shared, lowrank = self.models
        out = {"training.loss_evals": (statistics.mean(self.evals), "count")}
        zero_grads(shared.parameters())
        loss = tr.call("training.batch_loss", batch_loss, shared, *self.batch)
        tape = tr.call("autodiff.backward", backward, loss)
        out.update(tape_metrics(tape, shared.config, self.SPEC.frames))
        del loss, tape
        out.update(model_counts(self.models))
        out.update(probe_bind(tr, self.models, reps=5))
        out.update(probe_blocks(tr, shared, self.SPEC.frames, self.seed, reps=20))
        out.update(probe_lowrank(tr, lowrank, self.SPEC.frames, self.seed, reps=20))
        return out


class PaperLrs3(Workload):
    """Large BLAS calls, ~0.7 GiB of retained activations and 5 uses per
    physical group; per-op overhead barely matters.
    """

    name = "paper_lrs3"
    PRESET = "LRS3"
    FRAMES = 128
    UTTERANCES = 4

    def setup(self):
        tr = self.tr
        tr.call("accounting.calibrate", calibrate)
        p = tr.call("presets.preset", preset, self.PRESET)
        self.model = tr.call("encoder.bind_model", bind_model, p.config, p.plan, self.seed)
        spec = ToyTaskSpec(feature_dim=p.config.input_dim, num_classes=p.config.num_classes,
                           frames=self.FRAMES, batch=1)
        self.utterances = [tr.call("training.generate_toy_batch", generate_toy_batch,
                                   spec, self.seed, i) for i in range(self.UTTERANCES)]
        # the first utterance pays page faults and allocator growth
        loss, _tape = self._forward_backward(0, EvalCounter())
        return digest([loss.item()])

    def _forward_backward(self, i: int, counter: EvalCounter):
        tr = self.tr
        features, labels = self.utterances[i % self.UTTERANCES]
        tr.call("autodiff.zero_grads", zero_grads, self.model.parameters())
        logits = tr.call("encoder.encoder_forward", encoder_forward,
                         Tensor(features[0]), self.model, counter)
        loss = tr.call("autodiff.cross_entropy_mean", cross_entropy_mean, logits, labels[0])
        return loss, tr.call("autodiff.backward", backward, loss)

    def op(self, i):
        counter = EvalCounter()
        loss, tape = self._forward_backward(i, counter)
        if self.tr.enabled and "autodiff.tape_nodes" not in self.layer:
            self.layer.update(tape_metrics(tape, self.model.config, self.FRAMES))
            self.layer["encoder.block_evals"] = (float(counter.block_evals), "count")
        del tape
        failed = []
        value = loss.item()
        if not math.isfinite(value):
            failed.append(f"utterance {i}: loss is {value}")
        bad = [key_str(k) for k, t in self.model.store.items()
               if t.grad is None or not np.all(np.isfinite(t.grad))]
        if bad:
            failed.append(f"utterance {i}: {len(bad)} parameters lack a finite "
                          f"gradient, first {bad[0]}")
        return self.FRAMES, failed

    def probe(self):
        out = {"training.loss_evals": (1.0, "count")}
        out.update(model_counts([self.model]))
        out.update(probe_bind(self.tr, [self.model], reps=3))
        out.update(probe_blocks(self.tr, self.model, self.FRAMES, self.seed, reps=5))
        out.update(probe_lowrank(self.tr, self.model, self.FRAMES, self.seed, reps=5))
        return out


class PresetSweep(Workload):
    """All 33 paper-scale presets through accounting, binding, config and
    checkpoint round trips; no forward pass.

    One op is one preset, taken in registry order, so a run passes over
    all 33 about six times. A whole pass per op left five or six samples a
    run, and on a shared 2-vCPU VM their median moved by 10% between runs.
    """

    name = "preset_sweep"
    WARMUP_PRESET = "SL0"

    def setup(self):
        tr = self.tr
        tr.call("accounting.calibrate", calibrate)
        self.names = tr.call("presets.preset_names", preset_names)
        self._tmp = tempfile.TemporaryDirectory(dir=self.workdir)
        self.seen: dict[str, tuple[int, int, float]] = {}
        failed = self._one(self.WARMUP_PRESET)
        return digest([len(failed), *self.seen[self.WARMUP_PRESET]])

    def close(self):
        self._tmp.cleanup()

    def _one(self, name: str) -> list[str]:
        """One preset through every step; returns the failed checks."""
        tr = self.tr
        failed = []
        p = tr.call("presets.preset", preset, name)
        report = tr.call("accounting.count_params", count_params, p.config, p.plan)
        violations = tr.call("sharing.validate_plan", validate_plan, p.plan)
        if violations:
            failed.append(f"{name}: plan violations {violations}")
        if p.published_total is not None:
            budget = SizeBudget(max_params=p.published_total, hard_ceiling=p.published_total)
            d = tr.call("accounting.fit_dim_to_budget", fit_dim_to_budget,
                        budget, p.plan, p.config)
            fitted = tr.call("accounting.count_params", count_params,
                             replace(p.config, d=d), p.plan).grand_total
            if fitted > budget.max_params:
                failed.append(f"{name}: fitted d={d} counts {fitted} > {budget.max_params}")
        model = tr.call("encoder.bind_model", bind_model, p.config, p.plan, self.seed)
        allocated = model.store.total_scalars()
        if report.encoder_total != allocated:
            failed.append(f"{name}: counted {report.encoder_total} != allocated {allocated}")
        text = tr.call("configio.serialize_config", serialize_config, p.config, p.plan)
        if tr.call("configio.parse_config_text", parse_config_text, text) != (p.config, p.plan):
            failed.append(f"{name}: config does not round-trip")
        # A fresh file, removed once read back: overwriting one file would
        # make ext4 flush each checkpoint to disk, and time the disk.
        path = os.path.join(self._tmp.name, f"{name}.ckpt")
        tr.call("checkpoint.save_checkpoint", save_checkpoint, model, path)
        size = os.path.getsize(path)
        loaded = tr.call("checkpoint.load_checkpoint", load_checkpoint, path)
        os.remove(path)
        if not _bit_exact(model, loaded):
            failed.append(f"{name}: checkpoint does not reload bit-exact")
        self.seen[name] = (allocated, size, model_counts([model])["sharing.max_group_uses"][0])
        return failed

    def op(self, i):
        return 0, self._one(self.names[i % len(self.names)])

    def probe(self):
        """Bytes per pass over the presets the run reached, and binding."""
        allocated, size, uses = zip(*self.seen.values())
        out = {"sharing.params_mib": (sum(allocated) * 8 * MIB, "MiB"),
               "checkpoint.mib": (sum(size) * MIB, "MiB"),
               "sharing.max_group_uses": (max(uses), "count")}
        times = []
        for name in self.names:
            p = preset(name)
            t0 = time.perf_counter()
            self.tr.call("sharing.bind_parameters", bind_parameters, p.config, p.plan, self.seed)
            times.append(_ms_since(t0))
        out["sharing.bind_parameters.ms"] = (statistics.median(times), "ms")
        return out


def _bit_exact(a, b) -> bool:
    if (a.config, a.plan, a.store.seed) != (b.config, b.plan, b.store.seed):
        return False
    if list(a.store.keys()) != list(b.store.keys()):
        return False
    return all(x.data.shape == b.store[k].data.shape
               and x.data.tobytes() == b.store[k].data.tobytes()
               for k, x in a.store.items())


WORKLOADS = {w.name: w for w in (ToyTrain, FdGradcheck, PaperLrs3, PresetSweep)}
