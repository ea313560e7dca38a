"""Line-oriented config grammar for model/plan pairs.

One `section.key = value` assignment per line, `#` starts a comment,
blank lines are ignored. Index vectors are comma-separated integers;
the unshared list is comma-separated `module.sub_component` names.
Chosen over a nested format for diff-friendliness.

    model.d = 144
    model.e = 7.25
    model.heads = 4
    model.kernel_width = 11
    model.input_dim = 80
    model.num_classes = 8
    model.t_max = 256
    model.external_params = 1800000
    plan.v = 12
    plan.i_ff_start = 1,1,1,2,2,2,3,3,3,4,4,4
    plan.i_attention = 1,1,1,2,2,2,3,3,3,4,4,4
    plan.i_conv = 1,2,3,4,5,6,7,8,9,10,11,12
    plan.i_ff_end = 1,1,1,2,2,2,3,3,3,4,4,4
    plan.unshared = attention.key          # optional
    plan.share_misc_small = true           # optional, default true
    plan.lowrank_k = 50                    # optional, absent means dense

`serialize_config` always emits keys in the order above, so round-trips
are byte-stable.
"""

from __future__ import annotations

from .blocks import ModelConfig
from .lowrank import LowRankSpec
from .sharing import SharingPlan


class ConfigError(ValueError):
    pass


_MODEL_DEFAULTS = {"input_dim": 80, "num_classes": 8, "t_max": 256,
                   "external_params": 0}
_MODEL_REQUIRED = ("d", "e", "heads", "kernel_width")
_MODEL_INT_KEYS = {"d", "heads", "kernel_width", "input_dim", "num_classes",
                   "t_max", "external_params"}
_PLAN_VECTORS = ("i_ff_start", "i_attention", "i_conv", "i_ff_end")


def _parse_assignments(text: str) -> dict[str, tuple[int, str]]:
    """Each key with its line number and value."""
    out: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if "." not in key:
            raise ConfigError(f"line {lineno}: key {key!r} is missing its section")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = (lineno, value)
    return out


def _number(kind, value: str, key: str, lineno: int):
    try:
        return kind(value)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"line {lineno}: {key}: expected {noun}, got {value!r}") from None


def _int_vector(value: str, key: str, lineno: int) -> tuple[int, ...]:
    if not value:
        return ()
    try:
        return tuple(int(part.strip()) for part in value.split(","))
    except ValueError:
        raise ConfigError(f"line {lineno}: {key}: expected comma-separated integers, "
                          f"got {value!r}") from None


def _bool(value: str, key: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    raise ConfigError(f"{key}: expected true or false, got {value!r}")


def parse_config_text(text: str) -> tuple[ModelConfig, SharingPlan]:
    pairs = _parse_assignments(text)
    model: dict[str, object] = dict(_MODEL_DEFAULTS)
    plan_kwargs: dict[str, object] = {}
    for key, (lineno, value) in pairs.items():
        section, _, name = key.partition(".")
        if section == "model":
            if name in _MODEL_INT_KEYS:
                model[name] = _number(int, value, key, lineno)
            elif name == "e":
                model[name] = _number(float, value, key, lineno)
            else:
                raise ConfigError(f"unknown model key {name!r}")
        elif section == "plan":
            if name == "v":
                plan_kwargs["v"] = _number(int, value, key, lineno)
            elif name in _PLAN_VECTORS:
                plan_kwargs[name] = _int_vector(value, key, lineno)
            elif name == "unshared":
                subs = []
                for item in filter(None, (s.strip() for s in value.split(","))):
                    mod, dot, sub = item.partition(".")
                    if not dot or not mod or not sub:
                        raise ConfigError(f"plan.unshared: expected module.sub_component, "
                                          f"got {item!r}")
                    subs.append((mod, sub))
                plan_kwargs["unshared"] = frozenset(subs)
            elif name == "share_misc_small":
                plan_kwargs["share_misc_small"] = _bool(value, key)
            elif name == "lowrank_k":
                plan_kwargs["lowrank"] = LowRankSpec(k=_number(int, value, key, lineno))
            else:
                raise ConfigError(f"unknown plan key {name!r}")
        else:
            raise ConfigError(f"unknown section {section!r} (expected model or plan)")

    missing = [k for k in _MODEL_REQUIRED if k not in model]
    if missing:
        raise ConfigError(f"missing model keys: {', '.join(missing)}")
    missing = [k for k in ("v", *_PLAN_VECTORS) if k not in plan_kwargs]
    if missing:
        raise ConfigError(f"missing plan keys: {', '.join(missing)}")

    try:
        config = ModelConfig(**model)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return config, SharingPlan(**plan_kwargs)


def parse_config_file(path) -> tuple[ModelConfig, SharingPlan]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def serialize_config(config: ModelConfig, plan: SharingPlan) -> str:
    lines = [
        f"model.d = {config.d}",
        f"model.e = {config.e!r}",
        f"model.heads = {config.heads}",
        f"model.kernel_width = {config.kernel_width}",
        f"model.input_dim = {config.input_dim}",
        f"model.num_classes = {config.num_classes}",
        f"model.t_max = {config.t_max}",
        f"model.external_params = {config.external_params}",
        f"plan.v = {plan.v}",
    ]
    for name in _PLAN_VECTORS:
        vec = getattr(plan, name)
        lines.append(f"plan.{name} = {','.join(map(str, vec))}")
    if plan.unshared:
        subs = ",".join(f"{m}.{s}" for m, s in sorted(plan.unshared))
        lines.append(f"plan.unshared = {subs}")
    if not plan.share_misc_small:
        lines.append("plan.share_misc_small = false")
    if plan.lowrank is not None:
        lines.append(f"plan.lowrank_k = {plan.lowrank.k}")
    return "\n".join(lines) + "\n"
