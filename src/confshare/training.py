"""Toy supervised task, Adam loop, and finite-difference gradient checking.

The task is framewise prototype classification shaped like the real input
(80-dim feature frames): each frame is one of K seeded prototype vectors
plus bounded noise, and the label is the prototype index. It exists purely
to push gradients through every shared and low-rank path, deterministically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .autodiff import (NonFiniteError, Rng, Tensor, add, backward,
                       cross_entropy_mean, finite_diff_grad, fnv1a64, mix64,
                       relative_error, scale, zero_grads)
from .encoder import BoundModel, encoder_forward
from .sharing import Key


class TrainingError(RuntimeError):
    pass


@dataclass(frozen=True)
class ToyTaskSpec:
    feature_dim: int = 80
    num_classes: int = 8
    frames: int = 32
    batch: int = 4
    noise: float = 0.3  # prototypes live in [-1, 1], so this is 0.3x their scale

    def __post_init__(self):
        if self.frames < 1:
            raise ValueError(f"frames must be positive, got {self.frames}")
        if self.batch < 1:
            raise ValueError(f"batch must be positive, got {self.batch}")


def task_prototypes(spec: ToyTaskSpec, seed: int) -> np.ndarray:
    rng = Rng(seed).derive("prototypes")
    return rng.uniform(-1.0, 1.0, (spec.num_classes, spec.feature_dim))


def generate_toy_batch(spec: ToyTaskSpec, seed: int,
                       batch_index: int) -> tuple[np.ndarray, np.ndarray]:
    """(features[B, T, F], labels[B, T]), a pure function of its arguments."""
    protos = task_prototypes(spec, seed)
    rng = Rng(seed).derive(f"batch.{batch_index}")
    labels = rng.integers(spec.num_classes, (spec.batch, spec.frames))
    noise = rng.uniform(-spec.noise, spec.noise,
                        (spec.batch, spec.frames, spec.feature_dim))
    return protos[labels] + noise, labels


@dataclass
class OptimizerState:
    """Adaptive moment estimation with fixed defaults (lr 1e-3, decays
    0.9/0.999, eps 1e-8). Buffers mirror parameter shapes; updates are
    in-place so bound views stay valid."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: dict[Key, np.ndarray] = field(default_factory=dict)
    v: dict[Key, np.ndarray] = field(default_factory=dict)

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


@dataclass
class TrainReport:
    losses: list[float]
    seed: int
    digest: str
    wall_clock: float
    steps: int

    @property
    def initial_loss(self) -> float:
        return self.losses[0]

    @property
    def final_loss(self) -> float:
        return self.losses[-1]


def model_digest(model: BoundModel, seed: int) -> str:
    """Opaque fingerprint of (config, plan, seed) for report headers.

    Built from explicitly ordered fields: frozenset reprs depend on the
    per-process hash seed and must not leak into anything byte-compared.
    """
    plan = model.plan
    unshared = ",".join(f"{m}.{s}" for m, s in sorted(plan.unshared))
    k = plan.lowrank.k if plan.lowrank is not None else "none"
    text = "|".join([
        repr(model.config),
        f"v:{plan.v}",
        f"ffs:{plan.i_ff_start}", f"att:{plan.i_attention}",
        f"conv:{plan.i_conv}", f"ffe:{plan.i_ff_end}",
        f"unshared:{unshared}", f"misc:{plan.share_misc_small}", f"k:{k}",
        f"seed:{seed}",
    ])
    return f"{mix64(fnv1a64(text)):016x}"


def batch_loss(model: BoundModel, features: np.ndarray,
               labels: np.ndarray) -> Tensor:
    """Mean framewise cross entropy over a batch of utterances."""
    total = None
    for b in range(features.shape[0]):
        loss = cross_entropy_mean(encoder_forward(Tensor(features[b]), model),
                                  labels[b])
        total = loss if total is None else add(total, loss)
    return scale(total, 1.0 / features.shape[0])


def train_steps(model: BoundModel, spec: ToyTaskSpec, opt: OptimizerState,
                steps: int, seed: int) -> TrainReport:
    """Run framewise cross-entropy minimization; every loss is recorded.

    Identical (model seed, task seed) runs produce bit-identical reports.
    A non-finite loss aborts with the offending step index.
    """
    if steps < 1:
        raise ValueError(f"steps must be positive, got {steps}")
    if model.config.num_classes != spec.num_classes:
        raise ValueError(f"model emits {model.config.num_classes} classes but the "
                         f"task has {spec.num_classes}")
    losses: list[float] = []
    started = time.perf_counter()
    for step in range(steps):
        features, labels = generate_toy_batch(spec, seed, step)
        zero_grads(model.parameters())
        try:
            loss = batch_loss(model, features, labels)
        except NonFiniteError as exc:
            raise TrainingError(f"non-finite loss at step {step}") from exc
        backward(loss)
        opt.step(model.store)
        losses.append(loss.item())
    return TrainReport(losses=losses, seed=seed, digest=model_digest(model, seed),
                       wall_clock=time.perf_counter() - started, steps=steps)


def serialize_report(report: TrainReport) -> str:
    """Digest header plus one step<TAB>loss line per step. Wall-clock is
    deliberately omitted so identical runs serialize identically."""
    lines = [f"# confshare train report",
             f"# digest {report.digest}",
             f"# seed {report.seed}",
             f"# steps {report.steps}"]
    lines += [f"{i}\t{loss!r}" for i, loss in enumerate(report.losses)]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class GradcheckEntry:
    key: Key
    max_rel_err: float
    checked: int


@dataclass(frozen=True)
class GradcheckReport:
    entries: tuple[GradcheckEntry, ...]
    tol: float

    @property
    def max_rel_err(self) -> float:
        return max((e.max_rel_err for e in self.entries), default=0.0)

    @property
    def passed(self) -> bool:
        return all(e.max_rel_err < self.tol for e in self.entries)


def gradcheck_model(model: BoundModel, batch: tuple[np.ndarray, np.ndarray],
                    eps: float = 1e-4, tol: float = 1e-5,
                    samples_per_tensor: int = 8,
                    keys: list[Key] | None = None,
                    zero_floor: float = 1e-9) -> GradcheckReport:
    """Backward gradients vs central finite differences on a seeded
    coordinate subset of every physical tensor (or the given slice of
    keys). An empty slice passes vacuously.

    ``zero_floor`` treats coordinates where both sides are below 1e-9 as
    agreeing at zero: the attention key bias is softmax-shift invariant,
    so its true gradient is exactly zero and a finite difference there
    only measures float64 rounding noise (about 1e-12 at this loss scale,
    a thousand times below the floor, while any genuinely wrong gradient
    lands orders of magnitude above it).
    """
    if samples_per_tensor < 1:
        raise ValueError(f"samples per tensor must be positive, got {samples_per_tensor}")
    features, labels = batch

    def loss_value() -> float:
        return batch_loss(model, features, labels).item()

    zero_grads(model.parameters())
    backward(batch_loss(model, features, labels))

    selected = list(model.store.keys()) if keys is None else list(keys)
    entries = []
    for key in selected:
        tensor = model.store[key]
        analytic = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        rng = Rng(model.store.seed).derive(f"gradcheck.{key}")
        coords = sorted({int(i) for i in rng.integers(tensor.size, (samples_per_tensor,))})
        fd = finite_diff_grad(loss_value, tensor.data, eps, coords)
        worst = relative_error(analytic.reshape(-1)[coords], fd, zero_floor=zero_floor)
        entries.append(GradcheckEntry(key=key, max_rel_err=worst, checked=len(coords)))
    return GradcheckReport(entries=tuple(entries), tol=tol)
