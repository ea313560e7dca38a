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

The lines after the config follow from the config and plan, and one
function writes them for both directions. A load checks the format and
seed lines, parses the config lines up to the first ``tensor`` line,
and requires every later manifest line to be the one a save writes
there; it reports the first that differs by its line number. It then
checks the payload's size and reads each tensor straight into its own
array; a tensor holding a NaN or an infinity is rejected. A save writes
each tensor's own buffer, so neither direction holds a second copy of
the model, and a load needs the model's memory plus the manifest.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .autodiff import NonFiniteError, Tensor, check_seed
from .configio import ConfigError, decode_text, parse_config_text, parse_int, serialize_config
from .encoder import BoundModel
from .sharing import Key, ParameterStore, key_str, parameter_layout

FORMAT_TAG = "confshare-checkpoint-v1"


def _layout_lines(layout: list[tuple[Key, tuple[int, ...]]]) -> tuple[list[str], int]:
    """The manifest lines after the config for (key, shape) pairs in
    binding order, one ``tensor`` line each and then ``payload_bytes``,
    and the payload size they promise."""
    payload = 8 * sum(math.prod(shape) for _key, shape in layout)
    lines = [f"tensor = {key_str(key)}|{'x'.join(map(str, shape))}" for key, shape in layout]
    return lines + [f"payload_bytes = {payload}"], payload


def _manifest(model: BoundModel) -> str:
    tail, _payload = _layout_lines([(key, t.shape) for key, t in model.store.items()])
    lines = [f"format = {FORMAT_TAG}", f"seed = {model.store.seed}",
             serialize_config(model.config, model.plan).rstrip("\n"), *tail]
    return "\n".join(lines) + "\n"


def save_checkpoint(model: BoundModel, path):
    manifest = _manifest(model).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(manifest)
        for tensor in model.store.tensors.values():
            fh.write(np.ascontiguousarray(tensor.data, dtype="<f8"))


_MARKER = b"payload_bytes = "


def _read_manifest(fh, path) -> bytes:
    """The bytes up to the end of the first line that holds
    ``payload_bytes = ``, without its newline; leaves ``fh`` at the first
    payload byte."""
    lines = []
    for line in fh:
        lines.append(line)
        if _MARKER in line:
            return b"".join(lines).removesuffix(b"\n")
    raise ConfigError(f"{path}: not a checkpoint (missing payload_bytes)")


def load_checkpoint(path) -> BoundModel:
    with open(path, "rb") as fh:
        manifest = _read_manifest(fh, path)
        payload = os.fstat(fh.fileno()).st_size - fh.tell()
        seed, config, plan, layout = _check_manifest(path, manifest, payload)
        tensors: dict[Key, Tensor] = {}
        for key, dims in layout:
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


def _differs(path, lineno: int, expected: str, found: str) -> ConfigError:
    return ConfigError(f"{path}: line {lineno}: expected {expected!r}, found {found!r}")


def _check_manifest(path, manifest: bytes, payload: int):
    """The seed, config, plan and (key, shape) layout of ``manifest``,
    whose payload is ``payload`` bytes long. Every line after the config
    must be the one ``_manifest`` writes for that config and plan."""
    lines = decode_text(manifest, path).split("\n")
    tag = lines[0].removeprefix("format = ")
    if tag == lines[0]:
        raise _differs(path, 1, f"format = {FORMAT_TAG}", lines[0])
    if tag != FORMAT_TAG:
        raise ConfigError(f"{path}: line 1: unsupported format {tag!r}")

    key, _, value = (part.strip() for part in lines[1].partition("="))
    if key != "seed":
        raise ConfigError(f"{path}: manifest is missing the seed")
    try:
        seed = parse_int(value)
    except ValueError:
        raise ConfigError(f"{path}: line 2: seed: expected an integer, got {value!r}") from None
    try:
        check_seed(seed)
    except ValueError as exc:
        raise ConfigError(f"{path}: line 2: {exc}") from None
    if lines[1] != f"seed = {seed}":
        raise _differs(path, 2, f"seed = {seed}", lines[1])

    end = next((i for i, line in enumerate(lines) if line.startswith("tensor =")),
               len(lines) - 1)
    try:
        # two blank lines stand for the format and seed lines, so a config
        # error names its line in the file
        config, plan = parse_config_text("\n\n" + "\n".join(lines[2:end]))
        layout = [(key, shape) for key, shape, _kind in parameter_layout(config, plan)]
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    expected, promised = _layout_lines(layout)
    # each list ends at its one payload_bytes line, so unequal lists
    # differ at a line both have
    for lineno, (want, found) in enumerate(zip(expected, lines[end:]), start=end + 1):
        if found != want:
            raise _differs(path, lineno, want, found)
    if payload != promised:
        raise ConfigError(f"{path}: payload is {payload} bytes, manifest promises {promised}")
    return seed, config, plan, layout
