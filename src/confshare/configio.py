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
    plan.lowrank_k = 50                    # optional, absent means dense

The example shows every key, but this module declares neither key list.
The ``model.*`` keys are ``ModelConfig``'s fields in declaration order,
each an int or a float as its annotation says; the fields without a
default are required. The index vectors are ``plan.i_<module>`` for each
module of ``blocks.INVENTORY``, in its order. `serialize_config` always
emits keys in the order above, so round-trips are byte-stable. One older
plan key is still read, so that earlier files load to an equal plan (see
``parse_config_text``).
"""

from __future__ import annotations

import dataclasses
import re
import typing

from .blocks import MODULE_TYPES, ModelConfig, ModelConfigError
from .lowrank import LowRankSpec
from .sharing import ALL_MISC_SMALL, SharingPlan, index_field


class ConfigError(ValueError):
    pass


_MODEL_FIELDS = dataclasses.fields(ModelConfig)
_MODEL_KINDS = typing.get_type_hints(ModelConfig)  # field name -> int or float
_PLAN_VECTORS = tuple(map(index_field, MODULE_TYPES))
_INTEGER = re.compile(r"[+-]?[0-9]+")
_DECIMAL = re.compile(r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[+-]?[0-9]+)?"
                      r"|inf|infinity|nan)", re.IGNORECASE | re.ASCII)


def parse_int(value: str) -> int:
    """``value`` as an integer if it is ASCII ``[+-]?[0-9]+``; a
    ``ValueError`` otherwise. ``int()`` alone also takes ``1_0``, blanks
    around the digits and non-ASCII digits, so two spellings would load
    as one value and a file would not round-trip byte for byte. Config
    files and checkpoint manifests read every integer through here."""
    if _INTEGER.fullmatch(value) is None:
        raise ValueError(f"invalid integer {value!r}")
    return int(value)


def parse_float(value: str) -> float:
    """``value`` as a float if it is an ASCII decimal: an optional sign,
    ASCII digits with at most one point, and an optional exponent
    (``[+-]?(d+.?d*|.d+)(e[+-]?d+)?``, ``e`` in either case), or one of
    the words ``inf``, ``infinity`` and ``nan``, which the range checks
    then reject by name; a ``ValueError`` otherwise. ``float()`` alone
    also takes ``1_7.25``, blanks around the number and non-ASCII digits.
    Config float keys and the CLI's float flags read through here; every
    ``repr`` of a float is in the grammar."""
    if _DECIMAL.fullmatch(value) is None:
        raise ValueError(f"invalid number {value!r}")
    return float(value)


def _parse_assignments(text: str) -> dict[str, tuple[int, str]]:
    """Each key with its line number and value."""
    out: dict[str, tuple[int, str]] = {}
    # lines end at "\n" alone, as decode_text and the checkpoint manifest count them
    for lineno, raw in enumerate(text.split("\n"), start=1):
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
        return parse_int(value) if kind is int else parse_float(value)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"line {lineno}: {key}: expected {noun}, got {value!r}") from None


def _int_vector(value: str, key: str, lineno: int) -> tuple[int, ...]:
    if not value:
        return ()
    try:
        return tuple(parse_int(part.strip()) for part in value.split(","))
    except ValueError:
        raise ConfigError(f"line {lineno}: {key}: expected comma-separated integers, "
                          f"got {value!r}") from None


def _bool(value: str, key: str, lineno: int) -> bool:
    lowered = value.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    raise ConfigError(f"line {lineno}: {key}: expected true or false, got {value!r}")


def parse_config_text(text: str) -> tuple[ModelConfig, SharingPlan]:
    pairs = _parse_assignments(text)
    model: dict[str, object] = {}
    plan_kwargs: dict[str, object] = {}
    unshared: set[tuple[str, str]] = set()
    for key, (lineno, value) in pairs.items():
        section, _, name = key.partition(".")
        if section == "model":
            if name not in _MODEL_KINDS:
                raise ConfigError(f"line {lineno}: unknown model key {name!r}")
            model[name] = _number(_MODEL_KINDS[name], value, key, lineno)
        elif section == "plan":
            if name == "v":
                plan_kwargs["v"] = _number(int, value, key, lineno)
            elif name in _PLAN_VECTORS:
                plan_kwargs[name] = _int_vector(value, key, lineno)
            elif name == "unshared":
                for item in filter(None, (s.strip() for s in value.split(","))):
                    mod, dot, sub = item.partition(".")
                    if not dot or not mod or not sub:
                        raise ConfigError(f"line {lineno}: plan.unshared: expected "
                                          f"module.sub_component, got {item!r}")
                    unshared.add((mod, sub))
            elif name == "share_misc_small":
                # The older spelling of unsharing every <module>.misc_small.
                if not _bool(value, key, lineno):
                    unshared |= ALL_MISC_SMALL
            elif name == "lowrank_k":
                k = _number(int, value, key, lineno)
                try:
                    plan_kwargs["lowrank"] = LowRankSpec(k=k)
                except ValueError as exc:
                    raise ConfigError(f"line {lineno}: {key}: {exc}") from None
            else:
                raise ConfigError(f"line {lineno}: unknown plan key {name!r}")
        else:
            raise ConfigError(f"line {lineno}: unknown section {section!r} "
                              f"(expected model or plan)")

    missing = [f.name for f in _MODEL_FIELDS
               if f.default is dataclasses.MISSING and f.name not in model]
    if missing:
        raise ConfigError(f"missing model keys: {', '.join(missing)}")
    missing = [k for k in ("v", *_PLAN_VECTORS) if k not in plan_kwargs]
    if missing:
        raise ConfigError(f"missing plan keys: {', '.join(missing)}")

    try:
        config = ModelConfig(**model)
    except ModelConfigError as exc:
        key = f"model.{exc.field}"
        # an out-of-range field was set in the text: defaults are valid
        raise ConfigError(f"line {pairs[key][0]}: {key}: {exc}") from None
    return config, SharingPlan(unshared=frozenset(unshared), **plan_kwargs)


def decode_text(blob: bytes, path) -> str:
    """``blob`` as UTF-8 text; a byte that is not UTF-8 is a ``ConfigError``
    naming ``path``, the line and the byte."""
    try:
        return blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = blob[:exc.start].count(b"\n") + 1
        raise ConfigError(f"{path}: line {lineno}: not UTF-8 text "
                          f"(byte {blob[exc.start]:#04x})") from None


def parse_config_file(path) -> tuple[ModelConfig, SharingPlan]:
    with open(path, "rb") as fh:
        text = decode_text(fh.read(), path)
    try:
        return parse_config_text(text)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def serialize_config(config: ModelConfig, plan: SharingPlan) -> str:
    lines = []
    for f in _MODEL_FIELDS:
        value = getattr(config, f.name)
        text = repr(float(value)) if _MODEL_KINDS[f.name] is float else str(value)
        lines.append(f"model.{f.name} = {text}")
    lines.append(f"plan.v = {plan.v}")
    for name in _PLAN_VECTORS:
        vec = getattr(plan, name)
        lines.append(f"plan.{name} = {','.join(map(str, vec))}")
    if plan.unshared:
        subs = ",".join(f"{m}.{s}" for m, s in sorted(plan.unshared))
        lines.append(f"plan.unshared = {subs}")
    if plan.lowrank is not None:
        lines.append(f"plan.lowrank_k = {plan.lowrank.k}")
    return "\n".join(lines) + "\n"
