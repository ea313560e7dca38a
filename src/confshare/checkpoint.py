"""Checkpoint format: text manifest followed by a raw float64 payload.

Layout of a checkpoint file::

    format = confshare-checkpoint-v1
    seed = <int>
    <config/plan lines in the config grammar>
    tensor = <module>|<tensor name>|<group>|<d0>x<d1>...
    ...
    payload_bytes = <N>
    <N raw bytes>

The payload is every tensor's float64 values, little-endian, concatenated
in manifest order (which is the store's deterministic binding order).
Round-trips are bit-exact.

Neither direction holds a second copy of the model. A save writes each
tensor's own buffer to the file. A load reads the manifest line by line
up to ``payload_bytes``, checks it against the file's size and against
the config and plan it names, and only then reads each tensor straight
into its own array; a tensor holding a NaN or an infinity is rejected.
So a load needs the model's memory plus the manifest, and the bytes are
those of a whole-file read.
"""

from __future__ import annotations

import math
import os
from itertools import zip_longest

import numpy as np

from .autodiff import NonFiniteError, Tensor
from .configio import ConfigError, decode_text, parse_config_text, serialize_config
from .encoder import BoundModel
from .sharing import Key, ParameterStore, key_str, parameter_layout

FORMAT_TAG = "confshare-checkpoint-v1"


def _describe(entry) -> str:
    if entry is None:
        return "nothing"
    key, dims = entry
    return f"{key_str(key)}|{'x'.join(map(str, dims))}"


def _manifest(model: BoundModel) -> str:
    lines = [f"format = {FORMAT_TAG}", f"seed = {model.store.seed}"]
    lines.append(serialize_config(model.config, model.plan).rstrip("\n"))
    payload = 0
    for key, tensor in model.store.items():
        lines.append(f"tensor = {_describe((key, tensor.shape))}")
        payload += tensor.size * 8
    lines.append(f"payload_bytes = {payload}")
    return "\n".join(lines) + "\n"


def save_checkpoint(model: BoundModel, path):
    manifest = _manifest(model).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(manifest)
        for tensor in model.store.tensors.values():
            fh.write(np.ascontiguousarray(tensor.data, dtype="<f8"))


def _int(value: str, what: str, where: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{where}: {what}: expected an integer, got {value!r}") from None


_MARKER = b"payload_bytes = "


def _read_head(fh, path) -> tuple[bytes, bytes]:
    """The bytes before the first ``payload_bytes = `` and the rest of its
    line; leaves ``fh`` at the first payload byte."""
    head = []
    for line in fh:
        at = line.find(_MARKER)
        if at >= 0:
            head.append(line[:at])
            return b"".join(head), line[at + len(_MARKER):].removesuffix(b"\n")
        head.append(line)
    raise ConfigError(f"{path}: not a checkpoint (missing payload_bytes)")


def load_checkpoint(path) -> BoundModel:
    with open(path, "rb") as fh:
        head, count_line = _read_head(fh, path)
        payload = os.fstat(fh.fileno()).st_size - fh.tell()
        seed, config, plan, tensor_keys = _check_manifest(path, head, count_line, payload)
        tensors: dict[Key, Tensor] = {}
        for key, dims in tensor_keys:
            arr = np.empty(dims, "<f8")
            if fh.readinto(arr) != arr.nbytes:
                raise ConfigError(f"{path}: payload ends inside tensor {key_str(key)}")
            try:
                tensors[key] = Tensor(arr, requires_grad=True)
            except NonFiniteError:
                raise ConfigError(f"{path}: tensor {key_str(key)} holds non-finite "
                                  f"values") from None
    return BoundModel(config=config, plan=plan,
                      store=ParameterStore(tensors=tensors, seed=seed))


def _check_manifest(path, head: bytes, count_line: bytes, payload: int):
    """The seed, config, plan and tensor list of a manifest whose payload
    is ``payload`` bytes long, each checked against the others."""
    head_lines = decode_text(head, path).splitlines()
    expected = _int(count_line.decode("utf-8", "replace"), "payload_bytes",
                    f"{path}: line {len(head_lines) + 1}")
    if payload != expected:
        raise ConfigError(f"{path}: payload is {payload} bytes, "
                          f"manifest promises {expected}")

    seed = None
    config_lines = []
    tensor_keys: list[tuple[Key, tuple[int, ...]]] = []
    for lineno, raw in enumerate(head_lines, start=1):
        where = f"{path}: line {lineno}"
        key, _, value = (part.strip() for part in raw.partition("="))
        if key == "format":
            if value != FORMAT_TAG:
                raise ConfigError(f"{where}: unsupported format {value!r}")
        elif key == "seed":
            seed = _int(value, "seed", where)
        elif key == "tensor":
            fields = value.split("|")
            if len(fields) != 4:
                raise ConfigError(f"{where}: expected tensor = module|name|group|shape, "
                                  f"got {value!r}")
            module, name, group, shape = fields
            dims = tuple(_int(x, "tensor shape", where) for x in shape.split("x"))
            tensor_keys.append(((module, name, _int(group, "tensor group", where)), dims))
        else:
            config_lines.append(raw)
            continue
        # a blank in place of each manifest line keeps config errors at
        # their line number in the file
        config_lines.append("")
    if seed is None:
        raise ConfigError(f"{path}: manifest is missing the seed")

    try:
        config, plan = parse_config_text("\n".join(config_lines))
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    try:
        layout = [(key, shape) for key, shape, _kind in parameter_layout(config, plan)]
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    for i, (listed, needed) in enumerate(zip_longest(tensor_keys, layout)):
        if listed != needed:
            raise ConfigError(f"{path}: tensor {i} is {_describe(listed)}, but the "
                              f"manifest's config and plan need {_describe(needed)}")
    covered = 8 * sum(math.prod(dims) for _key, dims in tensor_keys)
    if covered != expected:
        raise ConfigError(f"{path}: tensor list covers {covered} bytes, "
                          f"payload has {expected}")
    return seed, config, plan, tensor_keys
