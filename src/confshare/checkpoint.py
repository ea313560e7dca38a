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
"""

from __future__ import annotations

from itertools import zip_longest

import numpy as np

from .autodiff import Tensor
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
            fh.write(tensor.data.astype("<f8").tobytes())


def _int(value: str, what: str, where: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{where}: {what}: expected an integer, got {value!r}") from None


def load_checkpoint(path) -> BoundModel:
    with open(path, "rb") as fh:
        blob = fh.read()
    marker = b"payload_bytes = "
    at = blob.find(marker)
    if at < 0:
        raise ConfigError(f"{path}: not a checkpoint (missing payload_bytes)")
    head = blob[:at]
    end = blob.find(b"\n", at)
    if end < 0:
        end = len(blob)
    count_line = blob[at + len(marker):end]
    # a view, not a copy: the payload is most of the file
    payload = memoryview(blob)[end + 1:]
    head_lines = decode_text(head, path).splitlines()
    expected = _int(count_line.decode("utf-8", "replace"), "payload_bytes",
                    f"{path}: line {len(head_lines) + 1}")
    if len(payload) != expected:
        raise ConfigError(f"{path}: payload is {len(payload)} bytes, "
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
    tensors: dict[Key, Tensor] = {}
    offset = 0
    for key, dims in tensor_keys:
        n = int(np.prod(dims, dtype=np.int64)) if dims else 1
        chunk = np.frombuffer(payload, dtype="<f8", count=n, offset=offset)
        offset += n * 8
        tensors[key] = Tensor(chunk.astype(np.float64).reshape(dims),
                              requires_grad=True)
    if offset != expected:
        raise ConfigError(f"{path}: tensor list covers {offset} bytes, "
                          f"payload has {expected}")

    return BoundModel(config=config, plan=plan,
                      store=ParameterStore(tensors=tensors, seed=seed))
