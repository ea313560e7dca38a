"""Dense float64 tensors with tape-based reverse-mode differentiation.

Everything here is deliberately small and deterministic:

* all values are 64-bit floats in row-major (C) order;
* gradients accumulate sequentially in reverse tape order, so repeated
  runs with identical inputs produce bit-identical gradients;
* every op validates that its output is finite and raises
  ``NonFiniteError`` otherwise;
* ``Rng`` is a counter-based SplitMix64 stream (documented below) so
  fixtures are reproducible across platforms and implementations.

The op set is exactly what a conformer block needs: matmul (2-d, and
3-d batched for attention heads), layer norm, softmax, swish/glu,
a depthwise temporal convolution, plus reshape/transpose/gather plumbing.
"""

from __future__ import annotations

import math

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are inconsistent with the requested op."""


class NonFiniteError(FloatingPointError):
    """An op produced (or was handed) a NaN or infinity."""


_U64 = np.uint64
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_SPLITMIX_M1 = 0xBF58476D1CE4E5B9
_SPLITMIX_M2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer (pure Python ints)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _SPLITMIX_M1) & _MASK64
    z = ((z ^ (z >> 27)) * _SPLITMIX_M2) & _MASK64
    return z ^ (z >> 31)


def fnv1a64(text: str) -> int:
    """FNV-1a 64-bit hash of a UTF-8 string; used to derive named seeds."""
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


class Rng:
    """Counter-based SplitMix64 generator.

    The i-th raw draw after construction is
    ``mix64(seed + (counter + i) * 0x9E3779B97F4A7C15)`` with the counter
    starting at 1, i.e. the classic SplitMix64 sequence. Uniform doubles
    take the top 53 bits: ``(raw >> 11) * 2**-53``. Same seed, same
    platform-independent stream, bit for bit.
    """

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self.counter = 0

    def derive(self, label: str) -> "Rng":
        """A statistically independent stream keyed by a name."""
        return Rng(mix64(self.seed ^ fnv1a64(label)))

    def _raw(self, n: int) -> np.ndarray:
        idx = np.arange(self.counter + 1, self.counter + n + 1, dtype=_U64)
        self.counter += n
        z = (_U64(self.seed) + idx * _U64(_SPLITMIX_GAMMA))
        z = (z ^ (z >> _U64(30))) * _U64(_SPLITMIX_M1)
        z = (z ^ (z >> _U64(27))) * _U64(_SPLITMIX_M2)
        z = z ^ (z >> _U64(31))
        return z

    def uniform(self, lo: float, hi: float, shape=()) -> np.ndarray:
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        u = (self._raw(n) >> _U64(11)).astype(np.float64) * (2.0 ** -53)
        out = lo + u * (hi - lo)
        return out.reshape(shape) if shape else out[0]

    def integers(self, upper: int, shape=()) -> np.ndarray:
        """Integers in [0, upper). Floor of a uniform draw; the O(upper/2^53)
        bias is irrelevant at toy scale and keeps the stream portable."""
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        u = (self._raw(n) >> _U64(11)).astype(np.float64) * (2.0 ** -53)
        out = np.minimum((u * upper).astype(np.int64), upper - 1)
        return out.reshape(shape) if shape else int(out[0])


# Optional allocation trace, enabled by tests that assert an op never
# materializes a large intermediate. A list of shapes or None.
_alloc_trace: list[tuple[int, ...]] | None = None


class track_allocations:
    """Context manager recording the shape of every tensor created."""

    def __enter__(self):
        global _alloc_trace
        _alloc_trace = []
        return _alloc_trace

    def __exit__(self, *exc):
        global _alloc_trace
        _alloc_trace = None
        return False


class Tensor:
    """A dense float64 array plus an optional backward rule.

    Leaves are created directly from data; op results carry references to
    their parents and a closure that routes the output gradient to them.
    Tensors are immutable after creation except for the gradient buffer
    (and, between forward passes, in-place parameter updates by an
    optimizer, which is the single-writer case).
    """

    __slots__ = ("data", "requires_grad", "grad", "op", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, *, op: str | None = None,
                 parents: tuple = (), backward=None):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            # ascontiguousarray would promote 0-d scalars to shape (1,)
            arr = np.ascontiguousarray(arr)
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError(f"{op or 'tensor'} produced non-finite values")
        if _alloc_trace is not None:
            _alloc_trace.append(arr.shape)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self.op = op
        self._parents = parents
        self._backward = backward

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def accumulate_grad(self, g: np.ndarray):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def __repr__(self):
        tag = self.op or ("leaf" if not self._parents else "node")
        return f"Tensor(shape={self.shape}, op={tag!r}, requires_grad={self.requires_grad})"

    # Operator sugar; the named functions below are the primary API.
    def __matmul__(self, other):
        return matmul(self, other)

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, s):
        if isinstance(s, (int, float)):
            return scale(self, float(s))
        return mul(self, s)

    __rmul__ = __mul__


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _result(data: np.ndarray, op: str, parents: tuple[Tensor, ...], backward) -> Tensor:
    rg = any(p.requires_grad for p in parents)
    if rg:
        return Tensor(data, requires_grad=True, op=op, parents=parents, backward=backward)
    return Tensor(data, op=op)


class Tape:
    """Topologically ordered record of the ops below one output tensor.

    ``nodes`` satisfies: every tensor appears after all of its parents,
    and exactly once. Backward walks it in reverse, so gradient
    accumulation order is a pure function of graph construction order.
    """

    def __init__(self, nodes: list[Tensor]):
        self.nodes = nodes

    @classmethod
    def trace(cls, root: Tensor) -> "Tape":
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        return cls(order)


def backward(loss: Tensor) -> Tape:
    """Reverse-mode sweep from a scalar loss.

    Populates ``.grad`` on every tensor with ``requires_grad`` reachable
    from ``loss``; a leaf used several times receives the sum of its
    per-use contributions, accumulated in reverse tape order. Returns the
    tape for instrumentation.
    """
    if loss.shape != ():
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    tape = Tape.trace(loss)
    loss.grad = np.ones((), dtype=np.float64)
    for node in reversed(tape.nodes):
        if node._backward is None or node.grad is None:
            continue
        node._backward(node.grad)
    return tape


def zero_grads(tensors):
    for t in tensors:
        t.grad = None


# ---------------------------------------------------------------------------
# ops


def matmul(a: Tensor, b: Tensor, transpose_b: bool = False) -> Tensor:
    """Matrix product. 2-d x 2-d, or 3-d x 3-d batched over the leading axis.

    ``transpose_b=True`` computes ``a @ swap(b)`` without materializing the
    transpose (used for attention scores and low-rank V factors).
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != b.ndim or a.ndim not in (2, 3):
        raise ShapeError(f"matmul supports 2d@2d or 3d@3d, got {a.shape} @ {b.shape}")
    b_eff_inner = b.shape[-1] if transpose_b else b.shape[-2]
    if a.shape[-1] != b_eff_inner or (a.ndim == 3 and a.shape[0] != b.shape[0]):
        raise ShapeError(f"matmul: inner extents differ: {a.shape} @ {b.shape}"
                         f"{' (transposed)' if transpose_b else ''}")
    bd = np.swapaxes(b.data, -1, -2) if transpose_b else b.data
    out = a.data @ bd

    def bw(g):
        if not transpose_b:
            if a.requires_grad:
                a.accumulate_grad(g @ np.swapaxes(b.data, -1, -2))
            if b.requires_grad:
                b.accumulate_grad(np.swapaxes(a.data, -1, -2) @ g)
        else:
            # out = a @ b^T  =>  d_a = g @ b,  d_b = g^T @ a
            if a.requires_grad:
                a.accumulate_grad(g @ b.data)
            if b.requires_grad:
                b.accumulate_grad(np.swapaxes(g, -1, -2) @ a.data)

    return _result(out, "matmul", (a, b), bw)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; b may broadcast over leading axes (bias add)."""
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        if b.ndim > a.ndim or a.shape[a.ndim - b.ndim:] != b.shape:
            raise ShapeError(f"add: incompatible shapes {a.shape} + {b.shape}")
    out = a.data + b.data

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(g)
        if b.requires_grad:
            if b.shape == a.shape:
                b.accumulate_grad(g)
            else:
                axes = tuple(range(a.ndim - b.ndim))
                b.accumulate_grad(g.sum(axis=axes))

    return _result(out, "add", (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"mul: incompatible shapes {a.shape} * {b.shape}")
    out = a.data * b.data

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(g * b.data)
        if b.requires_grad:
            b.accumulate_grad(g * a.data)

    return _result(out, "mul", (a, b), bw)


def scale(a: Tensor, s: float) -> Tensor:
    a = as_tensor(a)
    out = a.data * s

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(g * s)

    return _result(out, "scale", (a,), bw)


def sum_all(a: Tensor) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum()

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(np.full_like(a.data, float(g)))

    return _result(np.asarray(out), "sum", (a,), bw)


def reshape(a: Tensor, shape) -> Tensor:
    a = as_tensor(a)
    out = a.data.reshape(shape)

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(g.reshape(a.shape))

    return _result(out, "reshape", (a,), bw)


def transpose(a: Tensor, axes) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = np.ascontiguousarray(a.data.transpose(axes))

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(g.transpose(inv))

    return _result(out, "transpose", (a,), bw)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # stable on both tails
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def swish(a: Tensor) -> Tensor:
    """x * sigmoid(x)."""
    a = as_tensor(a)
    s = _sigmoid(a.data)
    out = a.data * s

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(g * (s + a.data * s * (1.0 - s)))

    return _result(out, "swish", (a,), bw)


def glu(a: Tensor) -> Tensor:
    """Gated linear unit over the last axis: split halves (u, v), u * sigmoid(v)."""
    a = as_tensor(a)
    last = a.shape[-1]
    if last % 2 != 0:
        raise ShapeError(f"glu requires an even last extent, got {a.shape}")
    n = last // 2
    u = a.data[..., :n]
    v = a.data[..., n:]
    s = _sigmoid(v)
    out = u * s

    def bw(g):
        if a.requires_grad:
            gu = g * s
            gv = g * u * s * (1.0 - s)
            a.accumulate_grad(np.concatenate((gu, gv), axis=-1))

    return _result(out, "glu", (a,), bw)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize the last axis to zero mean / unit population variance,
    then scale and shift: gamma * (x - mean) / sqrt(var + eps) + beta."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layer_norm: gamma/beta must be shape ({d},), "
                         f"got {gamma.shape} and {beta.shape}")
    if eps <= 0:
        raise ValueError("layer_norm: eps must be positive")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = gamma.data * xhat + beta.data

    def bw(g):
        if gamma.requires_grad:
            axes = tuple(range(g.ndim - 1))
            gamma.accumulate_grad((g * xhat).sum(axis=axes))
        if beta.requires_grad:
            axes = tuple(range(g.ndim - 1))
            beta.accumulate_grad(g.sum(axis=axes))
        if x.requires_grad:
            gh = g * gamma.data
            m1 = gh.mean(axis=-1, keepdims=True)
            m2 = (gh * xhat).mean(axis=-1, keepdims=True)
            x.accumulate_grad(inv * (gh - m1 - xhat * m2))

    return _result(out, "layer_norm", (x, gamma, beta), bw)


def softmax(x: Tensor) -> Tensor:
    """Max-subtracted softmax over the last axis; rows sum to one."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    p = ex / ex.sum(axis=-1, keepdims=True)

    def bw(g):
        if x.requires_grad:
            inner = (g * p).sum(axis=-1, keepdims=True)
            x.accumulate_grad(p * (g - inner))

    return _result(p, "softmax", (x,), bw)


def depthwise_conv1d(x: Tensor, kernel: Tensor) -> Tensor:
    """Per-channel temporal convolution with same zero padding.

    x is (T, d), kernel is (w, d) with w odd;
    out[t, c] = sum_j kernel[j, c] * x[t + j - (w-1)/2, c].
    """
    x, kernel = as_tensor(x), as_tensor(kernel)
    if x.ndim != 2 or kernel.ndim != 2:
        raise ShapeError(f"depthwise_conv1d expects 2d operands, got {x.shape}, {kernel.shape}")
    T, d = x.shape
    w, dk = kernel.shape
    if dk != d:
        raise ShapeError(f"depthwise_conv1d: channel mismatch {x.shape} vs {kernel.shape}")
    if w % 2 == 0:
        raise ShapeError(f"depthwise_conv1d: kernel width must be odd, got {w}")
    half = (w - 1) // 2
    xp = np.zeros((T + w - 1, d))
    xp[half:half + T] = x.data
    out = np.zeros((T, d))
    for j in range(w):
        out += kernel.data[j] * xp[j:j + T]

    def bw(g):
        if kernel.requires_grad:
            gk = np.empty_like(kernel.data)
            for j in range(w):
                gk[j] = (g * xp[j:j + T]).sum(axis=0)
            kernel.accumulate_grad(gk)
        if x.requires_grad:
            gxp = np.zeros_like(xp)
            for j in range(w):
                gxp[j:j + T] += g * kernel.data[j]
            x.accumulate_grad(gxp[half:half + T])

    return _result(out, "depthwise_conv1d", (x, kernel), bw)


def rel_position_gather(full: Tensor, t_max: int) -> Tensor:
    """Pick relative-offset positional scores out of a dense table product.

    full is (H, T, 2*t_max - 1) where column c holds the score for key
    offset c - (t_max - 1) relative to the query. Returns (H, T, T) with
    out[h, t, s] = full[h, t, s - t + t_max - 1].
    """
    full = as_tensor(full)
    H, T, L = full.shape
    if L != 2 * t_max - 1:
        raise ShapeError(f"rel_position_gather: table has {L} offsets, expected {2 * t_max - 1}")
    if T > t_max:
        raise ShapeError(f"rel_position_gather: T={T} exceeds t_max={t_max}")
    rows = np.arange(T)[:, None]
    cols = (np.arange(T)[None, :] - np.arange(T)[:, None]) + (t_max - 1)
    out = full.data[:, rows, cols]

    def bw(g):
        if full.requires_grad:
            gf = np.zeros_like(full.data)
            for h in range(H):
                np.add.at(gf[h], (rows, cols), g[h])
            full.accumulate_grad(gf)

    return _result(out, "rel_position_gather", (full,), bw)


def cross_entropy_mean(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean framewise cross entropy of (T, K) logits against integer labels."""
    logits = as_tensor(logits)
    labels = np.asarray(labels, dtype=np.int64)
    T, K = logits.shape
    if labels.shape != (T,):
        raise ShapeError(f"cross_entropy_mean: labels shape {labels.shape} != ({T},)")
    if labels.min() < 0 or labels.max() >= K:
        raise ValueError(f"cross_entropy_mean: labels out of range [0, {K})")
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1)) + logits.data.max(axis=-1)
    ll = logits.data[np.arange(T), labels] - lse
    out = -ll.mean()

    def bw(g):
        if logits.requires_grad:
            p = np.exp(shifted)
            p /= p.sum(axis=-1, keepdims=True)
            p[np.arange(T), labels] -= 1.0
            logits.accumulate_grad(float(g) * p / T)

    return _result(np.asarray(out), "cross_entropy_mean", (logits,), bw)


def finite_diff_grad(loss, theta: np.ndarray, eps: float, coords=None) -> np.ndarray:
    """Central finite differences of a scalar loss with respect to ``theta``.

    ``loss`` takes no arguments and reads ``theta``, which is perturbed in
    place one coordinate at a time and restored after each, also when an
    evaluation raises. ``coords`` lists flat indices to difference; the
    result then holds one entry per index. By default every coordinate is
    differenced and the result is shaped like ``theta``. Raises
    ``NonFiniteError`` if an evaluation is non-finite.
    """
    if eps <= 0:
        raise ValueError("finite_diff_grad: eps must be positive")
    if not (isinstance(theta, np.ndarray) and theta.flags.c_contiguous
            and theta.flags.writeable):
        raise ValueError("finite_diff_grad: theta must be a writeable C-contiguous array")
    flat = theta.reshape(-1)
    indices = range(flat.size) if coords is None else coords
    grad = np.zeros(len(indices))
    for j, i in enumerate(indices):
        orig = flat[i]
        try:
            flat[i] = orig + eps
            fp = float(loss())
            flat[i] = orig - eps
            fm = float(loss())
        finally:
            flat[i] = orig
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise NonFiniteError("finite_diff_grad: non-finite function evaluation")
        grad[j] = (fp - fm) / (2.0 * eps)
    return grad.reshape(theta.shape) if coords is None else grad


def relative_error(a: np.ndarray, b: np.ndarray, zero_floor: float = 0.0) -> float:
    """Max elementwise |a - b| / max(|a|, |b|, 1e-8).

    ``zero_floor`` handles directions whose true gradient is structurally
    zero (e.g. a bias that softmax shift-invariance cancels exactly): a
    central difference there measures only rounding noise, roughly
    |f| * ulp / eps ~ 1e-12 at unit loss scale, which the 1e-8 denominator
    floor would misreport as 1e-4 disagreement. Coordinates where both
    sides are at or below the floor count as agreeing at zero; any real
    gradient defect shows up orders of magnitude above it.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0:
        return 0.0
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    err = np.abs(a - b) / denom
    if zero_floor > 0.0:
        err = np.where((np.abs(a) <= zero_floor) & (np.abs(b) <= zero_floor), 0.0, err)
    return float(np.max(err))
