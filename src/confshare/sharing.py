"""Sharing plans: which physical parameter group serves each virtual layer.

A plan is four index vectors, one per module type, each of length V (the
virtual layer count). Entry i names the physical group that virtual layer
i's module binds to, so ``[1, 1, 1, 2, 2, 2]`` is two physical groups each
applied three times, and ``[1, 2, 3, 4]`` is plain unshared stacking.
Sub-component overrides carve individual weights out of their module's
vector and give them one group per virtual layer instead; that is the
only per-weight sharing decision a plan makes.

Constraints on every index vector: length V, minimum entry 1, maximum
entry at most V, and canonical labeling (ids are 1..G in first-occurrence
order). ``validate_plan`` reports violations as data; ``bind_parameters``
refuses invalid plans.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .autodiff import Rng, Tensor
from .blocks import INVENTORY, MODULE_TYPES, ModelConfig, init_tensor, module_tensor_specs
from .lowrank import LowRankSpec, check_rank_reduces

# Each module's sub-components in the order the inventory first names
# them, with misc_small (the layer norms) last.
SUBCOMPONENTS: dict[str, tuple[str, ...]] = {
    module: tuple(sorted(dict.fromkeys(sub for _name, sub, _shape, _kind in rows),
                         key=lambda sub: sub == "misc_small"))
    for module, rows in INVENTORY.items()}

SubComponentId = tuple[str, str]  # (module, name)

# Every layer norm of a block: unsharing these is sweep row SC10.
ALL_MISC_SMALL: frozenset[SubComponentId] = frozenset(
    (module, "misc_small") for module in SUBCOMPONENTS)


def index_field(module: str) -> str:
    """The ``SharingPlan`` field, and config key, of a module's index vector."""
    return f"i_{module}"


def check_subcomponent(sub: SubComponentId) -> SubComponentId:
    module, name = sub
    if module not in SUBCOMPONENTS or name not in SUBCOMPONENTS[module]:
        raise ValueError(f"unknown sub-component {module}.{name}; valid names per module: "
                         + "; ".join(f"{m}: {', '.join(s)}" for m, s in SUBCOMPONENTS.items()))
    return (module, name)


@dataclass(frozen=True)
class SharingPlan:
    v: int
    i_ff_start: tuple[int, ...]
    i_attention: tuple[int, ...]
    i_conv: tuple[int, ...]
    i_ff_end: tuple[int, ...]
    unshared: frozenset[SubComponentId] = field(default_factory=frozenset)
    lowrank: LowRankSpec | None = None

    def index_vector(self, module: str) -> tuple[int, ...]:
        return getattr(self, index_field(module))


def validate_plan(plan: SharingPlan) -> list[str]:
    """Every constraint violation, as human-readable strings; empty means valid."""
    violations = []
    if plan.v < 0:
        violations.append(f"virtual layer count must be non-negative, got {plan.v}")
    for module in MODULE_TYPES:
        fname = index_field(module)
        vec = plan.index_vector(module)
        if len(vec) != plan.v:
            violations.append(f"{fname}: length must equal V ({plan.v}), got {len(vec)}")
            continue
        if plan.v == 0:
            continue
        bad = [i for i, g in enumerate(vec) if not isinstance(g, int) or g < 1]
        if bad:
            violations.append(f"{fname}: group ids must be positive integers "
                              f"(positions {bad})")
            continue
        if min(vec) != 1:
            violations.append(f"{fname}: minimum group id must be 1, got {min(vec)}")
        if max(vec) > plan.v:
            violations.append(f"{fname}: maximum group id must not exceed V "
                              f"({plan.v}), got {max(vec)}")
        if canonicalize(vec) != tuple(vec):
            violations.append(f"{fname}: group ids must be canonical "
                              f"(1..G in first-occurrence order), got {vec}")
    for sub in sorted(plan.unshared):
        try:
            check_subcomponent(sub)
        except ValueError as exc:
            violations.append(str(exc))
    return violations


def check_plan(plan: SharingPlan) -> None:
    """Raise ``ValueError`` listing every violation of an invalid plan."""
    violations = validate_plan(plan)
    if violations:
        raise ValueError("invalid sharing plan:\n  " + "\n  ".join(violations))


def canonicalize(vec) -> tuple[int, ...]:
    """Relabel group ids to 1..G in first-occurrence order."""
    remap: dict[int, int] = {}
    out = []
    for g in vec:
        if g not in remap:
            remap[g] = len(remap) + 1
        out.append(remap[g])
    return tuple(out)


def canonicalize_plan(plan: SharingPlan) -> SharingPlan:
    return replace(plan, **{index_field(module): canonicalize(plan.index_vector(module))
                            for module in MODULE_TYPES})


def repeat_plan(n: int, r: int) -> SharingPlan:
    """N physical blocks, each repeated ``r`` times consecutively: every
    module's index vector reads [1]*r + [2]*r + ... + [n]*r."""
    if n < 1:
        raise ValueError(f"need at least one physical block, got {n}")
    if r < 1:
        raise ValueError(f"repeat count must be positive, got {r}")
    vec = tuple(block for block in range(1, n + 1) for _ in range(r))
    return SharingPlan(v=len(vec), **{index_field(module): vec for module in MODULE_TYPES})


def unshare_module(plan: SharingPlan, module: str) -> SharingPlan:
    """Give the module one physical group per virtual layer."""
    if module not in MODULE_TYPES:
        raise ValueError(f"unknown module {module!r}, expected one of {MODULE_TYPES}")
    fresh = tuple(range(1, plan.v + 1))
    return canonicalize_plan(replace(plan, **{index_field(module): fresh}))


def unshare_subcomponent(plan: SharingPlan, sub: SubComponentId) -> SharingPlan:
    """Override one named weight to one group per virtual layer; its module
    siblings keep following the module index vector."""
    sub = check_subcomponent(tuple(sub))
    return replace(plan, unshared=plan.unshared | {sub})


def subcomponent_group_ids(plan: SharingPlan, module: str, name: str) -> tuple[int, ...]:
    """The group id every virtual layer binds for one sub-component."""
    if (module, name) in plan.unshared:
        return tuple(range(1, plan.v + 1))
    return plan.index_vector(module)


def physical_group_counts(plan: SharingPlan) -> dict[SubComponentId, int]:
    """Distinct physical groups per (module, sub-component), overrides applied."""
    return {(module, name): len(set(subcomponent_group_ids(plan, module, name)))
            for module in MODULE_TYPES for name in SUBCOMPONENTS[module]}


# ---------------------------------------------------------------------------
# binding

Key = tuple[str, str, int]  # (module, tensor name, group id)

ENCODER_MODULE = "encoder"
FRONTEND_W: Key = (ENCODER_MODULE, "frontend.w", 1)
FRONTEND_B: Key = (ENCODER_MODULE, "frontend.b", 1)
REL_TABLE: Key = (ENCODER_MODULE, "rel_table", 1)
HEAD_W: Key = (ENCODER_MODULE, "head.w", 1)
HEAD_B: Key = (ENCODER_MODULE, "head.b", 1)


def key_str(key: Key) -> str:
    return f"{key[0]}|{key[1]}|{key[2]}"


@dataclass
class ParameterStore:
    """One tensor per canonical key; shared virtual uses reference the
    same object. Insertion order is the deterministic binding order and
    doubles as the checkpoint payload order."""

    tensors: dict[Key, Tensor]
    seed: int

    def __getitem__(self, key: Key) -> Tensor:
        try:
            return self.tensors[key]
        except KeyError:
            raise KeyError(f"store has no tensor for key {key_str(key)} "
                           f"(unbound or stale schedule)") from None

    def __contains__(self, key: Key) -> bool:
        return key in self.tensors

    def keys(self):
        return self.tensors.keys()

    def items(self):
        return self.tensors.items()

    def total_scalars(self) -> int:
        return sum(t.size for t in self.tensors.values())


@dataclass
class BoundSchedule:
    """Ordered virtual layers; each entry maps every module tensor name to
    its store key."""

    entries: list[dict[str, dict[str, Key]]]

    def __len__(self) -> int:
        return len(self.entries)


def schedule_keys(config: ModelConfig, plan: SharingPlan) -> BoundSchedule:
    """Pure key layout of a plan; no tensors involved."""
    k = plan.lowrank.k if plan.lowrank is not None else None
    columns = {module: [(name, subcomponent_group_ids(plan, module, sub))
                        for name, sub, _shape, _kind in module_tensor_specs(config, module, k)]
               for module in MODULE_TYPES}
    return BoundSchedule([{module: {name: (module, name, groups[i]) for name, groups in column}
                           for module, column in columns.items()}
                          for i in range(plan.v)])


def check_lowrank(config: ModelConfig, plan: SharingPlan) -> None:
    """Refuse a plan's low rank if it would not shrink the config's
    feed-forward weights; a dense plan passes."""
    if plan.lowrank is not None:
        check_rank_reduces(config.d, config.ffn_width, plan.lowrank.k)


def parameter_layout(config: ModelConfig,
                     plan: SharingPlan) -> list[tuple[Key, tuple[int, ...], str]]:
    """(key, shape, init kind) of every physical tensor, in binding order.

    This is the store's layout and the checkpoint manifest's tensor list.
    Invalid plans, and low ranks that would not shrink the feed-forward
    weights, are refused.
    """
    check_plan(plan)
    check_lowrank(config, plan)
    k = plan.lowrank.k if plan.lowrank is not None else None

    layout = [(FRONTEND_W, (config.input_dim, config.d), "matrix"),
              (FRONTEND_B, (config.d,), "zeros")]
    counts = physical_group_counts(plan)
    for module in MODULE_TYPES:
        for name, sub, shape, kind in module_tensor_specs(config, module, k):
            for group in range(1, counts[(module, sub)] + 1):
                layout.append(((module, name, group), shape, kind))
    if plan.v > 0:
        layout.append((REL_TABLE, (config.rel_table_len, config.d), "rel_table"))
    layout.append((HEAD_W, (config.d, config.num_classes), "matrix"))
    layout.append((HEAD_B, (config.num_classes,), "zeros"))
    return layout


def bind_parameters(config: ModelConfig, plan: SharingPlan, seed: int) -> ParameterStore:
    """Allocate exactly one tensor per distinct key.

    Each tensor is initialized from its own SplitMix64 stream derived from
    (seed, key), so the result is independent of allocation order and
    bit-identical across runs.
    """
    base = Rng(seed)
    tensors = {key: init_tensor(shape, kind, base.derive(key_str(key)))
               for key, shape, kind in parameter_layout(config, plan)}
    return ParameterStore(tensors=tensors, seed=seed)
