import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from confshare.autodiff import Rng, Tensor, backward, finite_diff_grad, relative_error
from confshare.encoder import bind_model
from confshare.lowrank import LowRankSpec
from confshare.sharing import repeat_plan


@pytest.fixture
def rng():
    return Rng(2024)


def traced_peak(fn):
    """``fn()``'s result, and the most bytes it held above its start at
    any point of the call (``tracemalloc``'s peak)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    return result, peak


def traced_held(fn):
    """``fn()``'s result, and how many more bytes are allocated after the
    call than before it (``tracemalloc``'s current size)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        if started:
            tracemalloc.stop()
    return result, held


def rand_tensor(rng: Rng, shape, requires_grad=False, scale=1.0) -> Tensor:
    return Tensor(rng.uniform(-scale, scale, shape), requires_grad=requires_grad)


def bound_block(config, seed, lowrank_k=None):
    """The parameters of one standalone block: the only virtual layer of
    a bound one-layer plan."""
    plan = repeat_plan(1, 1)
    if lowrank_k is not None:
        plan = replace(plan, lowrank=LowRankSpec(k=lowrank_k))
    return bind_model(config, plan, seed).virtual_blocks()[0]


def assert_params_match_fd(named_tensors, make_loss, tol=1e-5, eps=1e-4):
    """Backward vs finite differences for every named parameter tensor.

    ``make_loss`` builds a fresh scalar loss Tensor from current data.
    """
    for t in named_tensors.values():
        t.grad = None
    backward(make_loss())
    failures = {}
    for name, tensor in named_tensors.items():
        analytic = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        fd = finite_diff_grad(lambda: make_loss().item(), tensor.data, eps, range(tensor.size))
        err = relative_error(analytic.reshape(-1), fd)
        if err >= tol:
            failures[name] = err
    assert not failures, f"gradient mismatches: {failures}"
