"""Property tests over random valid models: small configs (d <= 16) with
random sharing plans, unshared sub-components, misc-small overrides and
low-rank feed-forward layers.

Examples are drawn deterministically (``derandomize=True``), so a run
checks the same plans every time.
"""

from collections import Counter
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from confshare.accounting import count_params
from confshare.blocks import MODULE_TYPES, ModelConfig, module_tensor_specs
from confshare.checkpoint import load_checkpoint, save_checkpoint
from confshare.configio import parse_config_text, serialize_config
from confshare.encoder import bind_model
from confshare.lowrank import LowRankSpec
from confshare.sharing import (ALL_MISC_SMALL, SUBCOMPONENTS, SharingPlan,
                               canonicalize, canonicalize_plan, index_field)

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
