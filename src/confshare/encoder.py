"""Encoder assembly: frontend projection, virtual layer stack, class head.

The forward pass is literal iterated composition: virtual layer i applies
``conformer_block`` with whatever physical tensors its schedule entry
binds, so repeated groups re-enter the same weights and gradients
accumulate across uses.

A batch of B equal-length utterances runs as one pass: the (B, T, F)
features are packed into B·T rows, utterance after utterance, and every
block is told the utterance length T, so only attention and the
depthwise convolution see where one utterance ends.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, matmul
from .blocks import (BlockParams, ModelConfig, assemble_block, check_frames,
                     conformer_block, table_heads)
from .sharing import (FRONTEND_B, FRONTEND_W, HEAD_B, HEAD_W, REL_TABLE,
                      BoundSchedule, Key, ParameterStore, SharingPlan,
                      bind_parameters, schedule_keys)


@dataclass
class EvalCounter:
    """Counts block applications during a forward pass."""

    block_evals: int = 0


@dataclass
class BoundModel:
    """A store of physical tensors read through the schedule that
    (config, plan) lays out."""

    config: ModelConfig
    plan: SharingPlan
    store: ParameterStore
    schedule: BoundSchedule = field(init=False, repr=False)
    _blocks: list[BlockParams] | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.schedule = schedule_keys(self.config, self.plan)

    def virtual_blocks(self) -> list[BlockParams]:
        """Materialize one BlockParams view per virtual layer (cached;
        views alias store tensors, so in-place updates stay visible)."""
        if self._blocks is None:
            rel = self.store[REL_TABLE] if len(self.schedule) > 0 else None
            self._blocks = [
                assemble_block({module: {name: self.store[key] for name, key in binding.items()}
                                for module, binding in entry.items()}, self.config, rel)
                for entry in self.schedule.entries]
        return self._blocks

    def parameters(self):
        return self.store.tensors.values()


def bind_model(config: ModelConfig, plan: SharingPlan, seed: int) -> BoundModel:
    return BoundModel(config=config, plan=plan, store=bind_parameters(config, plan, seed))


def encoder_forward(features, model: BoundModel,
                    counter: EvalCounter | None = None) -> Tensor:
    """(T, input_dim) features -> (T, num_classes) logits, or a batch of
    (B, T, input_dim) features -> (B·T, num_classes) logits, packed
    utterance after utterance (row b·T + t is frame t of utterance b).

    Projects to the model dim, applies the virtual layers in schedule
    order, then projects to class logits. An empty schedule degenerates to
    head(frontend(x)). Utterances never see each other's frames. A
    ``counter`` gains one block evaluation per virtual layer.
    """
    x, frames = pack_features(features, model.config)
    logits = encode_from(x, model, frames)
    if counter is not None:
        counter.block_evals += len(model.schedule)
    return logits


def pack_features(features, config: ModelConfig) -> tuple[Tensor, int]:
    """Validated features as packed (B·T, input_dim) rows, and T. The rows are
    a constant leaf, so a ``Tensor`` that requires a gradient is rejected."""
    x = features if isinstance(features, Tensor) else Tensor(features)
    if x.requires_grad:
        raise ValueError(f"features must not require a gradient, got {x}")
    if x.ndim not in (2, 3) or x.shape[-1] != config.input_dim:
        raise ValueError(f"expected (T, {config.input_dim}) or "
                         f"(B, T, {config.input_dim}) features, got {x.shape}")
    frames = x.shape[-2]
    check_frames(frames, config.t_max)
    if x.ndim == 3:
        x = Tensor(x.data.reshape(x.shape[0] * frames, x.shape[2]))
    return x, frames


def encode_from(x: Tensor, model: BoundModel, frames: int, start: int = 0,
                inputs: list[np.ndarray] | None = None) -> Tensor:
    """Logits from ``x``, the packed rows that enter stage ``start``.

    The encoder is V + 2 stages in order: stage 0 is the frontend
    projection, stage i + 1 is virtual layer i, and stage V + 1 is the
    head. Every stage before ``start`` is skipped. When ``inputs`` is a
    list, the input array of every stage that runs is appended to it, so
    a pass from stage 0 leaves ``inputs[s]`` = the input of stage s.

    Every layer reads the same relative-position table, so its
    ``table_heads`` are built once, before the first layer that runs,
    and handed to every layer.
    """
    layers = model.virtual_blocks()
    table = None
    for stage in range(start, len(layers) + 2):
        if inputs is not None:
            inputs.append(x.data)
        if stage == 0:
            x = matmul(x, model.store[FRONTEND_W], bias=model.store[FRONTEND_B])
        elif stage <= len(layers):
            if table is None:
                table = table_heads(layers[0].attn, frames)
            x = conformer_block(x, layers[stage - 1], frames, table)
        else:
            x = matmul(x, model.store[HEAD_W], bias=model.store[HEAD_B])
    return x


def first_stages(model: BoundModel) -> dict[Key, int]:
    """The first ``encode_from`` stage that reads each store key.

    A frontend key is read at stage 0, the relative-position table by
    every virtual layer (so at stage 1), a block key at the stage of the
    first virtual layer whose schedule entry binds it, and a head key
    only at stage V + 1. Stages before a key's own compute the same
    bytes whatever that key holds.
    """
    stages = {FRONTEND_W: 0, FRONTEND_B: 0}
    if len(model.schedule) > 0:
        stages[REL_TABLE] = 1
    for stage, entry in enumerate(model.schedule.entries, start=1):
        for binding in entry.values():
            for key in binding.values():
                stages.setdefault(key, stage)
    stages[HEAD_W] = stages[HEAD_B] = len(model.schedule) + 1
    return stages
