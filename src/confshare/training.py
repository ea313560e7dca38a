"""Toy supervised task, Adam loop, and finite-difference gradient checking.

The task is framewise prototype classification shaped like the real input
(80-dim feature frames): each frame is one of K seeded prototype vectors
plus bounded noise, and the label is the prototype index. It exists purely
to push gradients through every shared and low-rank path, deterministically.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .autodiff import (NonFiniteError, Rng, ShapeError, Tensor, _scratch, _scratch_reset,
                       backward, cross_entropy_mean, finite_diff_grad, fnv1a64, mix64,
                       relative_error, zero_grads)
from .blocks import ModelConfig
from .configio import serialize_config
from .encoder import (BoundModel, encode_from, encoder_forward, first_stages,
                      pack_features)
from .sharing import Key, key_str


NOISE = 0.3  # the toy noise half-width: prototypes live in [-1, 1], so 0.3x their scale
LR, BETA1, BETA2, EPS = 1e-3, 0.9, 0.999, 1e-8  # Adam's step size, decays and floor


@dataclass(frozen=True)
class ToyTaskSpec:
    """The shape of a toy batch; every batch draws its noise at ``NOISE``."""

    # a default ModelConfig's input and output sizes
    feature_dim: int = ModelConfig.input_dim
    num_classes: int = ModelConfig.num_classes
    frames: int = 32
    batch: int = 4

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
    noise = rng.uniform(-NOISE, NOISE, (spec.batch, spec.frames, spec.feature_dim))
    return protos[labels] + noise, labels


@dataclass
class OptimizerState:
    """Adaptive moment estimation at the module's fixed ``LR``, ``BETA1``,
    ``BETA2`` and ``EPS``. The moments mirror parameter shapes, and every
    update is in place, so bound views stay valid.

    A step allocates no parameter-sized array: each tensor's update is
    one scratch call, two views of the calling thread's scratch arena
    (``autodiff._scratch``), in the op order of the plain formulas, so
    it gives their bytes: m·β₁ + g·(1−β₁) and v·β₂ + (g·g)·(1−β₂), then
    m/(1−β₁ᵗ) and sqrt(v/(1−β₂ᵗ)) + eps, then the first times lr over
    the second, subtracted from the data. A tensor whose ``grad`` is None is skipped.
    """

    step_count: int = field(default=0, init=False)
    m: dict[Key, np.ndarray] = field(default_factory=dict, init=False)
    v: dict[Key, np.ndarray] = field(default_factory=dict, init=False)

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
            _scratch_reset()
            step = _scratch(g.shape)
            den = _scratch(g.shape)
            m *= BETA1
            m += np.multiply(g, 1.0 - BETA1, out=step)
            v *= BETA2
            np.multiply(g, g, out=step)
            step *= 1.0 - BETA2
            v += step
            np.divide(m, 1.0 - BETA1 ** t, out=step)
            np.divide(v, 1.0 - BETA2 ** t, out=den)
            np.sqrt(den, out=den)
            den += EPS
            step *= LR
            step /= den
            tensor.data -= step


@dataclass
class TrainReport:
    losses: list[float]
    seed: int
    digest: str
    wall_clock: float

    @property
    def initial_loss(self) -> float:
        return self.losses[0]

    @property
    def final_loss(self) -> float:
        return self.losses[-1]


def model_digest(model: BoundModel, seed: int) -> str:
    """Opaque fingerprint of (config, plan, seed) for report headers: a
    hash of the canonical config text plus the seed."""
    text = f"{serialize_config(model.config, model.plan)}seed = {seed}\n"
    return f"{mix64(fnv1a64(text)):016x}"


def batch_loss(model: BoundModel, features: np.ndarray,
               labels: np.ndarray) -> Tensor:
    """Mean framewise cross entropy over a batch of equal-length
    utterances: (B, T, F) features against (B, T) labels, run as one
    packed forward pass."""
    features, labels = _check_batch(features, labels)
    logits = encoder_forward(features, model)
    return cross_entropy_mean(logits, labels.reshape(-1))


def _check_batch(features, labels) -> tuple[np.ndarray, np.ndarray]:
    features = np.asarray(features)
    labels = np.asarray(labels)
    if features.ndim != 3 or labels.shape != features.shape[:2]:
        raise ShapeError(f"batch_loss: features {features.shape} and labels "
                         f"{labels.shape} do not pair up; expected (B, T, F) "
                         f"features and (B, T) labels")
    return features, labels


def train_steps(model: BoundModel, spec: ToyTaskSpec, opt: OptimizerState,
                steps: int, seed: int) -> TrainReport:
    """Run framewise cross-entropy minimization; every loss is recorded.

    Identical (model seed, task seed) runs produce bit-identical reports.
    A non-finite loss aborts with the offending step index.
    """
    _check_count("steps", steps)
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
            raise NonFiniteError(f"non-finite loss at step {step}") from exc
        backward(loss)
        opt.step(model.store)
        losses.append(loss.item())
    return TrainReport(losses=losses, seed=seed, digest=model_digest(model, seed),
                       wall_clock=time.perf_counter() - started)


def serialize_report(report: TrainReport) -> str:
    """Digest header plus one step<TAB>loss line per step. Wall-clock is
    deliberately omitted so identical runs serialize identically."""
    lines = [f"# confshare train report",
             f"# digest {report.digest}",
             f"# seed {report.seed}",
             f"# steps {len(report.losses)}"]
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
        return max(e.max_rel_err for e in self.entries)

    @property
    def passed(self) -> bool:
        return all(e.max_rel_err < self.tol for e in self.entries)


def gradcheck_model(model: BoundModel, batch: tuple[np.ndarray, np.ndarray],
                    eps: float = 1e-4, tol: float = 1e-5,
                    samples_per_tensor: int = 8,
                    keys: list[Key] | None = None) -> GradcheckReport:
    """Backward gradients vs central finite differences on a seeded
    coordinate subset of every physical tensor (or the given slice of
    keys). An empty slice, which would check nothing, and a key the store
    does not hold are rejected before anything is computed. A tensor of
    fewer than ``samples_per_tensor`` scalars has every coordinate
    checked, with no draw.

    Coordinates where both sides are at most 1e-9 count as agreeing at
    zero (``relative_error``): the attention key bias is softmax-shift
    invariant, so its true gradient is exactly zero and a finite
    difference there only measures float64 rounding noise (about 1e-12
    at this loss scale, a thousand times below the floor, while any
    genuinely wrong gradient lands orders of magnitude above it).

    Only the one analytic pass records a tape: the finite-difference
    evaluations run with ``requires_grad`` cleared on every store tensor,
    so their ops keep no parents and no backward rules. Each tensor's
    flag is restored afterwards, also when an evaluation raises.

    The analytic pass also keeps the input of every encoder stage, and
    each evaluation for a key restarts from the input of the first stage
    that reads that key (``encoder.first_stages``): a head key runs only
    the head, a key of a block first applied at virtual layer j runs
    layers j..V−1 and the head, and a frontend key runs the whole pass.
    The skipped stages do not read the perturbed key, and the same ops on
    the same bytes give the same bytes with or without a tape, so every
    loss equals the full ``batch_loss`` bit for bit.
    """
    _check_eps_and_tol(eps, tol)
    _check_count("samples per tensor", samples_per_tensor)
    selected = list(model.store.keys()) if keys is None else list(keys)
    if not selected:
        raise ValueError("gradcheck_model: no keys to check")
    unknown = [key_str(key) for key in selected if key not in model.store]
    if unknown:
        raise ValueError(f"gradcheck_model: the store has no tensor for key "
                         f"{', '.join(unknown)}")
    features, labels = _check_batch(*batch)
    x, frames = pack_features(features, model.config)
    targets = labels.reshape(-1)

    zero_grads(model.parameters())
    inputs: list[np.ndarray] = []
    backward(_loss_from(model, x, frames, targets, 0, inputs))
    stages = first_stages(model)

    entries = []
    tracked = [(t, t.requires_grad) for t in model.parameters()]
    try:
        for t, _ in tracked:
            t.requires_grad = False
        for key in selected:
            tensor = model.store[key]
            start = stages[key]
            analytic = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
            if samples_per_tensor > tensor.size:
                coords = list(range(tensor.size))
            else:
                rng = Rng(model.store.seed).derive(f"gradcheck.{key}")
                drawn = rng.integers(tensor.size, (samples_per_tensor,))
                coords = sorted({int(i) for i in drawn})
            fd = finite_diff_grad(
                lambda: _loss_from(model, Tensor(inputs[start]), frames, targets, start).item(),
                tensor.data, eps, coords)
            worst = relative_error(analytic.reshape(-1)[coords], fd)
            entries.append(GradcheckEntry(key=key, max_rel_err=worst, checked=len(coords)))
    finally:
        for t, requires_grad in tracked:
            t.requires_grad = requires_grad
    return GradcheckReport(entries=tuple(entries), tol=tol)


def _loss_from(model: BoundModel, x: Tensor, frames: int, targets: np.ndarray,
               start: int, inputs: list[np.ndarray] | None = None) -> Tensor:
    """The batch loss computed from ``x``, the input of encoder stage
    ``start`` (see ``encoder.encode_from``)."""
    return cross_entropy_mean(encode_from(x, model, frames, start, inputs=inputs), targets)


def _check_eps_and_tol(eps: float, tol: float):
    """Reject a finite-difference step or tolerance that is not a
    positive finite number (a NaN tolerance would fail every key)."""
    for name, value in (("eps", eps), ("tol", tol)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be positive and finite, got {value}")


def _check_count(name: str, value: int):
    if value < 1:
        raise ValueError(f"{name} must be positive, got {value}")
