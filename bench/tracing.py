"""Spans around the benchmark's calls into confshare, and tape statistics.

Spans are recorded only from the benchmark's own files, around the public
calls it makes; nothing inside ``src/`` is instrumented. A span is
``[id, name, start, end, parent id, phase]`` where phase is ``"setup"``,
``"probe"`` or the integer id of a timed op. Spans stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """Records a span for every call made through ``call`` while enabled.

    With ``enabled`` false, ``call`` is a plain function call, so an
    untraced run pays one attribute test per call.
    """

    def __init__(self):
        self.enabled = False
        self.phase: str | int = "setup"
        self.spans: list[list] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [sid, name, time.perf_counter(), None, parent, self.phase]
        self.spans.append(record)
        self._stack.append(sid)
        try:
            return fn(*args, **kwargs)
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover.

        The benchmark is single-threaded, so children never overlap and
        the covered time is the sum of their durations.
        """
        covered = [0.0] * len(self.spans)
        for _sid, _name, start, end, parent, _phase in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [end - start - covered[sid]
                for sid, _name, start, end, _parent, _phase in self.spans]

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, phase in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "op": phase}) + "\n")


def _buffer(arr: np.ndarray) -> np.ndarray:
    """The array that owns the memory a view points into."""
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def tape_stats(tape) -> dict[str, tuple[float, str]]:
    """Node counts and retained bytes, per op name, of one backward tape.

    Bytes are computed from array sizes, each underlying buffer counted
    once: a reshape result is a view of its input and adds nothing.
    Buffers owned by leaves (parameters and input features) are reported
    apart as ``leaf_mib``. Arrays held only by backward closures are not
    on the tape and are not counted; ``peak_rss_mib`` covers them.
    """
    mib = 1.0 / (1 << 20)
    nodes: dict[str, int] = defaultdict(int)
    op_bytes: dict[str, int] = defaultdict(int)
    seen: set[int] = set()
    leaf_bytes = 0
    for node in tape.nodes:
        if node.op is None:
            nodes["leaf"] += 1
            buf = _buffer(node.data)
            if id(buf) not in seen:
                seen.add(id(buf))
                leaf_bytes += buf.nbytes
    for node in tape.nodes:
        if node.op is None:
            continue
        nodes[node.op] += 1
        buf = _buffer(node.data)
        if id(buf) not in seen:
            seen.add(id(buf))
            op_bytes[node.op] += buf.nbytes
    out = {"autodiff.tape_nodes": (float(len(tape.nodes)), "count"),
           "autodiff.tape_mib": (sum(op_bytes.values()) * mib, "MiB"),
           "autodiff.leaf_mib": (leaf_bytes * mib, "MiB")}
    for op, count in nodes.items():
        out[f"autodiff.tape_nodes.{op}"] = (float(count), "count")
    for op, size in op_bytes.items():
        out[f"autodiff.tape_mib.{op}"] = (size * mib, "MiB")
    return out


def rel_offsets_used(tape, heads: int, frames: int) -> float:
    """(2T - 1) over the width of the relative-position score product.

    The product is the widest (heads, T, W) matmul result on the tape:
    content scores are T wide and the context dh wide, while the
    positional scores span every offset the table holds.
    """
    widths = [n.data.shape[2] for n in tape.nodes
              if n.op == "matmul" and n.data.ndim == 3
              and n.data.shape[:2] == (heads, frames)]
    return (2 * frames - 1) / max(widths)
