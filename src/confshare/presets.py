"""Preset registry: every labeled configuration from the published sweeps.

Families:

* B0/B1      - dense baselines (16 and 8 unshared blocks)
* SL0..SL6   - full-layer repetition (N physical blocks, R repeats)
* SM0..SM4   - SL5 with whole modules unshared, dims as published
* SC0..SC10  - SL5 with single sub-components unshared
* LR0..LR3   - dense vs low-rank feed-forward stacks, no repetition
* LRS0..LRS3 - 8 low-rank blocks (k=50) with 2..5 repeats

Where a sweep publishes a model dim it is stored here; everywhere else the
dim comes from the calibrated template and is an assumption, not a fact.
Every canonical name also has a `<name>-small` variant (d=16, rank 4, no
external stub) for fast gradcheck/training runs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

from .accounting import CalibratedDefaults, calibrate
from .blocks import ModelConfig
from .lowrank import LowRankSpec
from .sharing import (ALL_MISC_SMALL, SharingPlan, repeat_plan, unshare_module,
                      unshare_subcomponent)

SMALL_SUFFIX = "-small"
SMALL_DIM = 16
SMALL_RANK = 4

# Published decoder size; echoed as external params when matching
# published grand totals.
EXTERNAL_DECODER_PARAMS = 1_800_000


@dataclass(frozen=True)
class Preset:
    name: str
    config: ModelConfig
    plan: SharingPlan
    note: str
    published_total: int | None = None


@functools.cache
def calibrated_defaults() -> CalibratedDefaults:
    return calibrate()


def calibrated_config(d: int | None = None) -> ModelConfig:
    cal = calibrated_defaults()
    return ModelConfig(d=d if d is not None else cal.d, e=cal.e, heads=cal.heads,
                       kernel_width=cal.kernel_width,
                       external_params=EXTERNAL_DECODER_PARAMS)


def _sl5() -> SharingPlan:
    return repeat_plan(4, 3)


def _with_rank(plan: SharingPlan, k: int) -> SharingPlan:
    return replace(plan, lowrank=LowRankSpec(k=k))


def _builders():
    reg: dict[str, tuple] = {}

    def define(name, plan, d=None, note="", published=None):
        reg[name] = (plan, d, note, published)

    define("B0", repeat_plan(16, 1), d=None,
           note="dense baseline, 16 unshared blocks; published size 14M",
           published=14_000_000)
    # The handcrafted small baseline publishes 8 blocks of ~0.5M and a 4.9M
    # total, which disagree with each other; the dim below lands nearest
    # the published total and is an assumption.
    define("B1", repeat_plan(8, 1), d=104,
           note="handcrafted dense baseline, 8 unshared blocks; published size 4.9M",
           published=4_900_000)

    sl_rows = [("SL0", 1, 1, 2_550_000), ("SL1", 1, 2, 2_550_000),
               ("SL2", 1, 3, 2_550_000), ("SL3", 4, 1, 4_840_000),
               ("SL4", 4, 2, 4_840_000), ("SL5", 4, 3, 4_840_000),
               ("SL6", 4, 4, 4_840_000)]
    for name, n, r, published in sl_rows:
        define(name, repeat_plan(n, r),
               note=f"layer-repetition sweep row {name}: {n} physical x {r} repeats "
                    f"= {n * r} virtual",
               published=published)

    sm_rows = [("SM0", ("ff_start",), 96, 4_930_000),
               ("SM1", ("attention",), 128, 4_990_000),
               ("SM2", ("conv",), 136, 5_030_000),
               ("SM3", ("ff_end",), 96, 4_930_000),
               ("SM4", ("attention", "conv"), 120, 5_030_000)]
    for name, modules, d, published in sm_rows:
        plan = _sl5()
        for module in modules:
            plan = unshare_module(plan, module)
        define(name, plan, d=d,
               note=f"module-unsharing sweep row {name}: SL5 base with "
                    f"{'+'.join(modules)} unshared; published dim {d}",
               published=published)

    sc_rows = [("SC0", ("ff_start", "linear1"), 6_020_000),
               ("SC1", ("ff_start", "linear2"), 6_020_000),
               ("SC2", ("attention", "query"), 5_010_000),
               ("SC3", ("attention", "value"), 5_010_000),
               ("SC4", ("attention", "key"), 5_010_000),
               ("SC5", ("conv", "pre_conv"), 5_170_000),
               ("SC6", ("conv", "depth_conv"), 5_350_000),
               ("SC7", ("conv", "post_conv"), 5_010_000),
               ("SC8", ("ff_end", "linear1"), 6_020_000),
               ("SC9", ("ff_end", "linear2"), 6_020_000)]
    for name, sub, published in sc_rows:
        define(name, unshare_subcomponent(_sl5(), sub),
               note=f"sub-component-unsharing sweep row {name}: SL5 base with "
                    f"{sub[0]}.{sub[1]} unshared",
               published=published)
    define("SC10", replace(_sl5(), unshared=ALL_MISC_SMALL),
           note="sub-component-unsharing sweep row SC10: SL5 base with all "
                "misc small weights (norms) per virtual layer",
           published=5_360_000)

    lr_rows = [("LR0", 4, None, 4_840_000), ("LR1", 8, 50, 5_040_000),
               ("LR2", 12, 20, 4_980_000), ("LR3", 16, 6, 5_000_000)]
    for name, n, k, published in lr_rows:
        plan = repeat_plan(n, 1)
        define(name, _with_rank(plan, k) if k is not None else plan,
               note=f"low-rank sweep row {name}: {n} physical = virtual, "
                    f"rank {'none' if k is None else k}",
               published=published)

    # Published virtual counts 16/24/32/40 over 8 physical layers; encoded
    # as uniform repeats 2..5.
    for idx, r in enumerate((2, 3, 4, 5)):
        name = f"LRS{idx}"
        define(name, _with_rank(repeat_plan(8, r), 50),
               note=f"low-rank + repetition sweep row {name}: 8 physical x {r} "
                    f"repeats = {8 * r} virtual, rank 50",
               published=5_040_000)

    return reg


_REGISTRY = _builders()


def preset_names() -> list[str]:
    return list(_REGISTRY)


def preset(name: str) -> Preset:
    """Resolve a preset by name; `<name>-small` gives the reduced-scale
    variant (d=16, rank 4, no external stub) used for fast CI runs."""
    small = name.endswith(SMALL_SUFFIX)
    base = name[:-len(SMALL_SUFFIX)] if small else name
    if base not in _REGISTRY:
        known = ", ".join(preset_names())
        raise ValueError(f"unknown preset {name!r}; valid names: {known} "
                         f"(each also accepts the {SMALL_SUFFIX} suffix)")
    plan, d, note, published = _REGISTRY[base]
    config = calibrated_config(d=d)
    if small:
        config = replace(config, d=SMALL_DIM, external_params=0)
        if plan.lowrank is not None:
            plan = replace(plan, lowrank=LowRankSpec(k=SMALL_RANK))
        note = f"{note} (reduced-scale variant)"
        published = None
    return Preset(name=name, config=config, plan=plan, note=note,
                  published_total=published)

