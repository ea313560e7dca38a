"""Encoder assembly: frontend projection, virtual layer stack, class head.

The forward pass is literal iterated composition: virtual layer i applies
``conformer_block`` with whatever physical tensors its schedule entry
binds, so repeated groups re-enter the same weights and gradients
accumulate across uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .autodiff import Tensor, add, as_tensor, matmul
from .blocks import BlockParams, ModelConfig, assemble_block, conformer_block
from .sharing import (FRONTEND_B, FRONTEND_W, HEAD_B, HEAD_W, REL_TABLE,
                      BoundSchedule, ParameterStore, SharingPlan,
                      bind_parameters)


@dataclass
class EvalCounter:
    """Counts block applications during a forward pass."""

    block_evals: int = 0


@dataclass
class BoundModel:
    config: ModelConfig
    plan: SharingPlan
    store: ParameterStore
    schedule: BoundSchedule
    _blocks: list[BlockParams] | None = field(default=None, repr=False)

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
    store, schedule = bind_parameters(config, plan, seed)
    return BoundModel(config=config, plan=plan, store=store, schedule=schedule)


def encoder_forward(features, model: BoundModel,
                    counter: EvalCounter | None = None) -> Tensor:
    """(T, input_dim) features -> (T, num_classes) logits.

    Projects to the model dim, applies the virtual layers in schedule
    order, then projects to class logits. An empty schedule degenerates to
    head(frontend(x)).
    """
    x = as_tensor(features)
    if x.ndim != 2 or x.shape[1] != model.config.input_dim:
        raise ValueError(f"expected (T, {model.config.input_dim}) features, got {x.shape}")
    x = add(matmul(x, model.store[FRONTEND_W]), model.store[FRONTEND_B])
    for params in model.virtual_blocks():
        x = conformer_block(x, params)
        if counter is not None:
            counter.block_evals += 1
    return add(matmul(x, model.store[HEAD_W]), model.store[HEAD_B])
