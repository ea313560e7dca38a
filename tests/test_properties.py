"""Property tests over random valid models: small configs (d <= 16) with
random sharing plans, unshared sub-components, misc-small overrides and
low-rank feed-forward layers.

Examples are drawn deterministically (``derandomize=True``), so a run
checks the same plans every time. Hypothesis seeds that draw from the
source text of the decorated function, less its decorators and comments:
an edit to its code reshuffles which examples it checks, and an edit to
a comment, or outside the function (an assertion after the run), does
not.
"""

import math
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from confshare.accounting import count_params
from confshare.autodiff import Rng, backward, relative_error, zero_grads
from confshare.blocks import MODULE_TYPES, ModelConfig, module_tensor_specs
from confshare.checkpoint import load_checkpoint, save_checkpoint
from confshare.configio import parse_config_text, parse_float, parse_int, serialize_config
from confshare.encoder import bind_model
from confshare.lowrank import LowRankSpec
from confshare.presets import SMALL_SUFFIX, preset, preset_names
from confshare.sharing import (ALL_MISC_SMALL, SUBCOMPONENTS, SharingPlan,
                               canonicalize, canonicalize_plan, index_field, key_str,
                               repeat_plan)
from confshare.training import ToyTaskSpec, batch_loss, generate_toy_batch
from oracles import reference_loss

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None, database=None)

_SUBS = sorted((module, sub) for module, subs in SUBCOMPONENTS.items() for sub in subs)


@st.composite
def models(draw):
    """A valid (config, plan) pair at d <= 16."""
    d = draw(st.integers(1, 16))
    config = ModelConfig(
        d=d,
        e=draw(st.floats(0.25, 4.0, allow_nan=False, allow_infinity=False)),
        heads=draw(st.sampled_from([h for h in range(1, d + 1) if d % h == 0])),
        kernel_width=draw(st.sampled_from([1, 3, 5, 7])),
        input_dim=draw(st.integers(1, 12)),
        num_classes=draw(st.integers(1, 8)),
        t_max=draw(st.integers(1, 8)),
        external_params=draw(st.integers(0, 10**6)))
    v = draw(st.integers(1, 4))
    vectors = {index_field(module): draw(st.lists(st.integers(1, v), min_size=v, max_size=v))
               for module in MODULE_TYPES}
    unshared = frozenset(draw(st.sets(st.sampled_from(_SUBS), max_size=4)))
    if draw(st.booleans()):
        unshared |= ALL_MISC_SMALL
    plan = canonicalize_plan(SharingPlan(v=v, unshared=unshared, **vectors))
    # a rank is valid only if it shrinks the d x ffn_width weights
    m, n = config.d, config.ffn_width
    max_rank = (m * n - 1) // (m + n)
    if max_rank >= 1 and draw(st.booleans()):
        plan = replace(plan, lowrank=LowRankSpec(k=draw(st.integers(1, max_rank))))
    return config, plan


def _allocated_rows(model) -> Counter:
    """Allocated scalars per report row: (module, sub-component) for block
    tensors, (encoder, frontend|rel_table|head) for the rest."""
    k = model.plan.lowrank.k if model.plan.lowrank is not None else None
    sub_of = {(module, name): sub for module in MODULE_TYPES
              for name, sub, _shape, _kind in module_tensor_specs(model.config, module, k)}
    rows = Counter()
    for (module, name, _group), tensor in model.store.items():
        sub = sub_of.get((module, name), name.split(".")[0])
        rows[(module, sub)] += tensor.size
    return rows


@PROPERTY
@given(models(), st.integers(0, 2**64 - 1))
def test_count_equals_allocation(model_spec, seed):
    config, plan = model_spec
    report = count_params(config, plan)
    model = bind_model(config, plan, seed)
    assert report.encoder_total == model.store.total_scalars()
    assert _allocated_rows(model) == Counter(
        {(row.module, row.sub): row.total for row in report.rows})


@PROPERTY
@given(models())
def test_config_round_trips_byte_stable(model_spec):
    text = serialize_config(*model_spec)
    parsed = parse_config_text(text)
    assert parsed == model_spec
    assert serialize_config(*parsed) == text


@PROPERTY
@given(models(), st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
def test_every_serialized_value_parses_back_to_itself(model_spec, e):
    # any positive finite expansion, down to subnormals and up to the
    # largest double, so every repr form is written: 7.25, 1e-05, 1e+300
    config, plan = replace(model_spec[0], e=e), model_spec[1]
    text = serialize_config(config, plan)
    for line in text.splitlines():
        key, value = line.split(" = ")
        section, name = key.split(".")
        if section == "model":
            expected = getattr(config, name)
            parse = parse_float if isinstance(expected, float) else parse_int
            assert type(parse(value)) is type(expected) and parse(value) == expected
        elif name == "v":
            assert parse_int(value) == plan.v
        elif name == "lowrank_k":
            assert parse_int(value) == plan.lowrank.k
        elif name != "unshared":
            assert tuple(map(parse_int, value.split(","))) == getattr(plan, name)
    assert parse_config_text(text) == (config, plan)


@PROPERTY
@given(st.floats(allow_nan=False))
def test_every_float_repr_parses_back_to_itself(x):
    assert math.copysign(1.0, parse_float(repr(x))) == math.copysign(1.0, x)
    assert parse_float(repr(x)) == x


@PROPERTY
@given(models(), st.integers(0, 2**64 - 1))
def test_checkpoint_round_trips_bit_exact(tmp_path_factory, model_spec, seed):
    config, plan = model_spec
    model = bind_model(config, plan, seed)
    tmp = tmp_path_factory.mktemp("ckpt")
    first, second = tmp / "first.ckpt", tmp / "second.ckpt"
    save_checkpoint(model, first)
    loaded = load_checkpoint(first)
    assert (loaded.config, loaded.plan, loaded.store.seed) == (config, plan, seed)
    assert list(loaded.store.keys()) == list(model.store.keys())
    for key, tensor in model.store.items():
        assert loaded.store[key].data.tobytes() == tensor.data.tobytes()
    save_checkpoint(loaded, second)
    assert second.read_bytes() == first.read_bytes()


@PROPERTY
@given(st.lists(st.integers(-5, 5), max_size=12), models())
def test_canonicalize_is_idempotent(vec, model_spec):
    once = canonicalize(vec)
    assert canonicalize(once) == once
    assert sorted(set(once)) == list(range(1, len(set(vec)) + 1))
    plan = model_spec[1]
    assert canonicalize_plan(plan) == plan
    assert canonicalize_plan(canonicalize_plan(plan)) == canonicalize_plan(plan)


def _loss_and_grads(model, loss):
    """The loss and every store tensor's gradient, by key (None where the
    loss does not reach it)."""
    zero_grads(model.parameters())
    backward(loss)
    return loss.data, {key: t.grad for key, t in model.store.items()}


# At head width 1, attention_matmul's k and v gradients may round
# differently from attention_chain's (see tests/oracles.py): over 252
# unit-head cases the worst relative error was 3.6e-12 (numpy 2.4.6).
UNIT_HEAD_TOL = 1e-10


def assert_matches_reference(model, features, labels):
    """``batch_loss``'s loss and leaf gradients equal ``reference_loss``'s,
    byte for byte, or within ``UNIT_HEAD_TOL`` at head width 1. A failure
    names the keys that moved."""
    unit_heads = model.config.d == model.config.heads

    def agree(got, want):
        if got is None or want is None:
            return got is want
        if unit_heads:
            return relative_error(got, want) <= UNIT_HEAD_TOL
        return got.tobytes() == want.tobytes()

    loss, grads = _loss_and_grads(model, batch_loss(model, features, labels))
    ref_loss, ref_grads = _loss_and_grads(model, reference_loss(model, features, labels))
    pairs = [("loss", loss, ref_loss)] + [(key_str(key), grads[key], ref_grads[key])
                                          for key in grads]
    assert [name for name, got, want in pairs if not agree(got, want)] == []


def test_model_equals_reference():
    shapes = []

    @settings(PROPERTY, max_examples=60)
    @given(models(), st.integers(1, 3), st.integers(1, 8), st.integers(0, 2**64 - 1))
    # a unit-head case whose k and v gradients move by a few ulp
    @example((ModelConfig(d=2, e=2.0, heads=2, kernel_width=3, input_dim=3, num_classes=3,
                          t_max=8), repeat_plan(1, 1)), 1, 6, 0)
    def check(model_spec, batch, frames, seed):
        config, plan = model_spec
        # T is drawn on its own and t_max raised to it, so a small t_max
        # does not make T small
        config = replace(config, t_max=max(config.t_max, frames))
        rng = Rng(seed)
        features = rng.uniform(-1.0, 1.0, (batch, frames, config.input_dim))
        labels = rng.integers(config.num_classes, (batch, frames))
        assert_matches_reference(bind_model(config, plan, seed), features, labels)
        shapes.append((config.d, config.heads, batch, frames, plan.lowrank))

    check()
    # floors at the coverage of 41 examples that capped T at t_max: 24
    # distinct shapes, 22 with T >= 2 and 28 byte-exact. An edit to check's
    # code reshuffles the draw; one that misses a floor raises max_examples,
    # and never lowers the floor
    assert len(set(shapes)) >= 24
    assert sum(frames >= 2 for *_, frames, _ in shapes) >= 22
    assert sum(d != heads for d, heads, *_ in shapes) >= 28
    assert any(d == heads for d, heads, *_ in shapes)


@pytest.mark.parametrize("name,frames,batch", [
    *(pytest.param(f"{name}{SMALL_SUFFIX}", frames, batch, id=f"{name}-small-{frames}x{batch}")
      for name in preset_names() for frames, batch in ((12, 1), (9, 3))),
    pytest.param("LRS3", 128, 1, id="LRS3-128x1"),
    pytest.param("LRS3", 64, 2, id="LRS3-64x2")])
def test_preset_equals_reference(name, frames, batch):
    p = preset(name)
    spec = ToyTaskSpec(feature_dim=p.config.input_dim, num_classes=p.config.num_classes,
                       frames=frames, batch=batch)
    assert_matches_reference(bind_model(p.config, p.plan, 1), *generate_toy_batch(spec, 1, 0))
