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
from .configio import ConfigError, parse_config_text, serialize_config
from .encoder import BoundModel
from .sharing import (Key, ParameterStore, key_str, parameter_layout,
                      schedule_keys)

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


def load_checkpoint(path) -> BoundModel:
    with open(path, "rb") as fh:
        blob = fh.read()
    head, sep, tail = blob.partition(b"payload_bytes = ")
    if not sep:
        raise ConfigError(f"{path}: not a checkpoint (missing payload_bytes)")
    count_line, _, payload = tail.partition(b"\n")
    expected = int(count_line)
    if len(payload) != expected:
        raise ConfigError(f"{path}: payload is {len(payload)} bytes, "
                          f"manifest promises {expected}")

    seed = None
    config_lines = []
    tensor_keys: list[tuple[Key, tuple[int, ...]]] = []
    for raw in head.decode("utf-8").splitlines():
        line = raw.strip()
        if not line:
            continue
        key, _, value = (part.strip() for part in line.partition("="))
        if key == "format":
            if value != FORMAT_TAG:
                raise ConfigError(f"{path}: unsupported format {value!r}")
        elif key == "seed":
            seed = int(value)
        elif key == "tensor":
            module, name, group, shape = value.split("|")
            dims = tuple(int(x) for x in shape.split("x"))
            tensor_keys.append(((module, name, int(group)), dims))
        else:
            config_lines.append(line)
    if seed is None:
        raise ConfigError(f"{path}: manifest is missing the seed")

    config, plan = parse_config_text("\n".join(config_lines))
    layout = [(key, shape) for key, shape, _kind in parameter_layout(config, plan)]
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

    store = ParameterStore(tensors=tensors, seed=seed)
    return BoundModel(config=config, plan=plan, store=store,
                      schedule=schedule_keys(config, plan))
