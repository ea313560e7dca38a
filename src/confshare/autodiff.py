"""Dense float64 tensors with tape-based reverse-mode differentiation.

Everything here is deliberately small and deterministic:

* all values are 64-bit floats in row-major (C) order;
* each op's backward rule is a pure function of the output gradient
  that returns one gradient per parent (``None`` for one that needs
  none), in the order of its parents; ``backward`` alone stores them, on
  parents with ``requires_grad``,
  sequentially in reverse tape order and within a node in parent order,
  so repeated runs with identical inputs produce bit-identical gradients;
* every op validates that its output is finite and raises
  ``NonFiniteError`` otherwise;
* ``Rng`` is a counter-based SplitMix64 stream (documented below) so
  fixtures are reproducible across platforms and implementations.

The op set is what a conformer block needs: three products, layer
norm, glu, a depthwise temporal convolution that pads each utterance of
a packed batch on its own, ``transpose`` (a head split or merge, one
node and one copy), ``slice_rows`` along the leading axis, and
``attention_context``: from the q, k and v projections and each
utterance's relative-position scores to the context, one node per layer
over all heads of a batch, which reads the heads as strided views.

The products are ``matmul`` (2-d, or 3-d batched for the positional
scores), ``swish_matmul`` (swish(a) @ b) and ``linear_swish_matmul``
(swish(a @ w + c) @ b, one node from a feed-forward's first product to
its second). One frame, ``_product``, makes a 2-d one the node
residual + s·(P(LN(a)) + bias), P the product's core, in three optional
steps, so none of them is a node of its own: a ``norm=(gamma, beta)``
prologue that multiplies layer_norm(a, gamma, beta) instead of ``a``, a
bias added to every row, and a residual and scale ``s``, applied as
``out *= s; out += residual``. The parents are (a, gamma, beta,
*operands, bias, residual), and the rule undoes the steps in reverse:
g to the residual, g·s summed over rows to the bias, g·s through the
core's rule arithmetic, and LN(a)'s gradient through layer norm's rule,
with x̂ and LN(a) rebuilt from the per-row statistics. A 4×32 toy step
records 219 nodes, an LRS3 T=128 one 1,123. The tests' unfused oracles
for these ops, ``add`` among them, live in ``tests/oracles.py``.

A rule keeps only the arrays it reads and cannot get from its parents'
data or its own output, and rebuilds the rest by the forward's own ops,
so its bytes are those of keeping them:

* a product keeps nothing of its own beyond a prologue's per-row mean
  and inverse deviation;
* ``swish_matmul`` keeps no activation and recomputes its sigmoid once,
  for both the activation that ``b``'s gradient reads and its
  derivative;
* ``linear_swish_matmul`` keeps neither the activation nor the
  pre-activation, and rebuilds the latter with the same product and
  bias add before it runs ``swish_matmul``'s and ``matmul``'s rule
  arithmetic, so no feed-forward-wide array stays on the tape;
* glu recomputes its sigmoid from the input, and the convolution
  rebuilds its padded input;
* ``layer_norm`` keeps one mean and one inverse deviation per row;
* ``attention_context`` keeps nothing of its own: it rebuilds its
  softmax weights from q, k and the positional scores, so no
  (B·H, T, T) array outlives the forward.

The elementwise kernels write into buffers they own rather than
allocating a temporary per step; the sigmoid is 1 / (1 + exp(-x)) in
four passes over its output. Row and column sums call
``np.add.reduce``, the ufunc that ``ndarray.sum`` wraps, without the
wrapper's per-call cost. All of it gives the same bytes as the plain
formulas.

A temporary that a kernel fills and drops within one call lives in a
scratch buffer (``_scratch``): one per named slot, grown to the largest
size asked for and reused by every later call, so a warm step faults no
pages in for it (the idea of PyTorch's caching allocator). The slots:

* ``norm.y`` and ``norm.xhat``: a ``norm`` prologue's LN(a), built in the
  forward and rebuilt in the rule, and the x̂ that its rule and
  ``layer_norm``'s rebuild;
* ``swish_matmul.act``: the activation, in the forward of
  ``swish_matmul`` and of ``linear_swish_matmul``;
* ``swish_matmul.s`` and ``swish_matmul.ga``: the sigmoid and g @ bᵀ of
  both ops' rules (1 − s sits in the latter until the product needs
  it);
* ``linear_swish_matmul.pre``: the pre-activation, built in the forward
  and rebuilt in the rule, which writes its gradient over it;
* ``glu.s``: the rule's sigmoid;
* ``conv.xp`` and ``conv.tap``: the convolution's padded input and its
  per-tap products, in the forward and in the rule;
* ``attention_context.p``: the scores and then the softmax weights, built
  in the forward and rebuilt in the rule;
* ``softmax_grad.gp``: the g·p product of ``attention_context``'s rule;
* ``adam.step`` and ``adam.den``: ``training.OptimizerState``'s update.

A scratch view never escapes its call: no op output, rule result,
stored gradient or rule closure holds one. The buffers are held per
thread (``threading.local``), so two threads never share one.
"""

from __future__ import annotations

import math
import threading

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are inconsistent with the requested op."""


class NonFiniteError(FloatingPointError):
    """An op produced (or was handed) a NaN or infinity."""


def _finite(arr: np.ndarray, op: str):
    """Raise ``NonFiniteError`` naming ``op`` if ``arr`` holds a NaN or an
    infinity."""
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{op} produced non-finite values")


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


def check_seed(seed: int) -> int:
    """``seed``, if it is in [0, 2**64); a ``ValueError`` otherwise, so no
    two seeds name the same stream."""
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return seed


class Rng:
    """Counter-based SplitMix64 generator, seeded by an integer in
    [0, 2**64) (``check_seed``).

    The i-th raw draw after construction is
    ``mix64(seed + (counter + i) * 0x9E3779B97F4A7C15)`` with the counter
    starting at 1, i.e. the classic SplitMix64 sequence. Uniform doubles
    take the top 53 bits: ``(raw >> 11) * 2**-53``. Same seed, same
    platform-independent stream, bit for bit.

    Every draw returns an array of the ``shape`` it is given; there is
    no scalar draw. A draw of n values works in place on one uint64
    array and one scratch array, and scales its doubles in place
    (``u *= hi - lo; u += lo``), so it holds at most two arrays of n at
    a time. The bytes are those of the plain formulas: the integer steps
    wrap the same way, and addition commutes.
    """

    def __init__(self, seed: int):
        self.seed = check_seed(seed)
        self.counter = 0

    def derive(self, label: str) -> "Rng":
        """A statistically independent stream keyed by a name."""
        return Rng(mix64(self.seed ^ fnv1a64(label)))

    def _raw(self, n: int) -> np.ndarray:
        z = np.arange(self.counter + 1, self.counter + n + 1, dtype=_U64)
        self.counter += n
        z *= _U64(_SPLITMIX_GAMMA)
        z += _U64(self.seed)
        t = np.empty_like(z)
        for shift, mult in ((30, _SPLITMIX_M1), (27, _SPLITMIX_M2)):
            np.right_shift(z, _U64(shift), out=t)
            z ^= t
            z *= _U64(mult)
        np.right_shift(z, _U64(31), out=t)
        z ^= t
        return z

    def _unit(self, shape) -> np.ndarray:
        """``math.prod(shape)`` doubles in [0, 1), one per raw draw."""
        z = self._raw(math.prod(shape))
        np.right_shift(z, _U64(11), out=z)
        u = z.astype(np.float64)
        u *= 2.0 ** -53
        return u

    def uniform(self, lo: float, hi: float, shape) -> np.ndarray:
        out = self._unit(shape)
        out *= hi - lo
        out += lo
        return out.reshape(shape)

    def integers(self, upper: int, shape) -> np.ndarray:
        """Integers in [0, upper). Floor of a uniform draw; the O(upper/2^53)
        bias is irrelevant at toy scale and keeps the stream portable."""
        u = self._unit(shape)
        u *= upper
        return np.minimum(u.astype(np.int64), upper - 1).reshape(shape)


class Tensor:
    """A dense float64 array plus an optional backward rule.

    Leaves are created directly from data; op results carry references to
    their parents and a backward rule that maps the output gradient to a
    tuple of gradients, one per parent in the same order, which
    ``backward`` stores.
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
        _finite(arr, op or "tensor")
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
            # g + 0.0 into a fresh buffer shaped like the data, in one pass:
            # the same bytes as zero-filling and adding (-0.0 + 0.0 = +0.0),
            # and an array also where numpy hands a 0-d g over as a scalar
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += g

    def __repr__(self):
        tag = self.op or ("leaf" if not self._parents else "node")
        return f"Tensor(shape={self.shape}, op={tag!r}, requires_grad={self.requires_grad})"


def _result(data: np.ndarray, op: str, parents: tuple[Tensor, ...], backward) -> Tensor:
    for p in parents:
        if p.requires_grad:
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

    Walks the tape in reverse, calls each node's rule on its gradient and
    adds the returned gradients to the parents that have
    ``requires_grad``, in parent order, and skips the others, whose
    gradient may be ``None``; this is the only place gradients are
    stored. A rule that returns more or fewer gradients than its node
    has parents raises ``ValueError``. Every leaf with ``requires_grad``
    reachable from ``loss`` gets ``.grad``; a leaf used several times
    receives the sum of its per-use contributions, accumulated in reverse
    tape order. Interior gradients are dropped as soon as their node has
    passed them on, so after the sweep only leaves carry ``.grad``.

    An interior node's first gradient is taken over, not copied, when
    nothing else can write to it: a writeable C-contiguous array of the
    node's shape that the rule returned for no other parent. Rules are
    linear in their gradient, so the only difference from a copy
    (``g + 0.0``) is that an interior zero may keep a minus sign; leaves
    always store the copy, which turns -0.0 into +0.0, so leaf bytes are
    those of copying everywhere.

    Returns the tape for instrumentation.
    """
    if loss.shape != ():
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    tape = Tape.trace(loss)
    loss.grad = np.ones((), dtype=np.float64)
    for node in reversed(tape.nodes):
        if node._backward is None or node.grad is None:
            continue
        grads = node._backward(node.grad)
        node.grad = None
        for parent, grad in zip(node._parents, grads, strict=True):
            if not parent.requires_grad:
                continue
            if parent.grad is None and _can_take_over(parent, grad, grads):
                parent.grad = grad
            else:
                parent.accumulate_grad(grad)
    return tape


def _can_take_over(parent: Tensor, grad, grads) -> bool:
    """Whether ``parent``, which holds no gradient yet, may keep ``grad``
    (one of the rule results ``grads``) as its gradient buffer and add
    into it later without changing any other array: only an interior
    node may, and only an owned array of its shape."""
    if parent._backward is None or type(grad) is not np.ndarray or grad.shape != parent.data.shape:
        return False
    flags = grad.flags
    return flags.writeable and flags.c_contiguous and sum(g is grad for g in grads) == 1


def zero_grads(tensors):
    for t in tensors:
        t.grad = None


# ---------------------------------------------------------------------------
# scratch buffers


class _Scratch(threading.local):
    """One thread's scratch buffers: ``buffers`` maps a slot to its flat
    buffer, ``views`` maps (slot, shape) to a view of that buffer's
    head, so a warm lookup is one dict probe."""

    def __init__(self):
        self.buffers: dict[str, np.ndarray] = {}
        self.views: dict[tuple, np.ndarray] = {}


_SCRATCH = _Scratch()
# a bound on the cached views, for a process that runs many shapes
_SCRATCH_VIEWS = 256


def _scratch(slot: str, shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialised float64 ``shape`` array in the calling thread's
    buffer for ``slot``, for a temporary that a kernel fills and drops
    within one call. The buffer grows to the largest size asked for and
    is reused by every later call, so a warm kernel faults no pages in
    for it.

    The view is valid until the next call that asks for the same slot:
    it must never become an op output, a rule result, a stored gradient
    or anything a closure keeps.
    """
    view = _SCRATCH.views.get((slot, shape))
    if view is None:
        view = _scratch_view(slot, shape)
    return view


def _scratch_view(slot: str, shape: tuple[int, ...]) -> np.ndarray:
    own = _SCRATCH
    n = math.prod(shape)
    buf = own.buffers.get(slot)
    if buf is None or buf.size < n:
        buf = own.buffers[slot] = np.empty(n)
        # the old buffer's views go with it
        own.views = {k: v for k, v in own.views.items() if k[0] != slot}
    if len(own.views) >= _SCRATCH_VIEWS:
        own.views.clear()
    view = own.views[(slot, shape)] = buf[:n].reshape(shape)
    return view


# ---------------------------------------------------------------------------
# ops

LN_EPS = 1e-6  # the eps of every layer norm, a node or a product's prologue


def _product(op: str, a: Tensor, rest: tuple, forward, grads, bias: Tensor | None,
             residual: Tensor | None, s: float | None,
             norm: tuple[Tensor, Tensor] | None) -> Tensor:
    """One product node, in the frame that ``matmul``, ``swish_matmul``
    and ``linear_swish_matmul`` share (see the module docstring).

    ``forward(A)`` returns a fresh product of A and the operands ``rest``,
    and ``grads(A, gp, rebuilt)`` the gradients of A and of ``rest`` for
    the product's gradient gp. A is ``a``'s data or, with a ``norm``,
    LN(a) in the ``norm.y`` scratch slot, checked as a ``layer_norm``
    output would be; ``rebuilt`` says that the rule's A is that scratch,
    which ``grads`` may overwrite. The prologue, the bias and the
    residual take 2-d operands only, ``s`` needs a residual, and
    ``out *= s; out += residual`` is the op order of the unfused
    ``add(residual, out, s)`` in ``tests/oracles.py``, so the bytes are
    the same.
    """
    if norm is None:
        ad, parents, gamma, beta, mu, inv = a.data, (a,), None, None, None, None
    else:
        gamma, beta = norm
        if a.ndim != 2:
            raise ShapeError(f"{op}: a norm needs 2-d operands, got {a.shape}")
        _check_norm_params(op, a.shape[1], gamma, beta)
        ad = _scratch("norm.y", a.shape)
        mu, inv = _normalize(a.data, ad)
        ad *= gamma.data
        ad += beta.data
        _finite(ad, "layer_norm")
        parents = (a, gamma, beta)
    out = forward(ad)
    parents += rest
    if bias is not None:
        if out.ndim != 2 or bias.shape != out.shape[1:]:
            raise ShapeError(f"{op}: bias {bias.shape} does not fit product {out.shape} "
                             "(2-d operands only)")
        out += bias.data
        parents += (bias,)
    if residual is not None:
        if out.ndim != 2 or residual.shape != out.shape:
            raise ShapeError(f"{op}: residual {residual.shape} does not fit product "
                             f"{out.shape} (2-d operands only)")
        if s is not None:
            out *= s
        out += residual.data
        parents += (residual,)
    elif s is not None:
        raise ValueError(f"{op}: a scale s needs a residual")

    def rule(g):
        gp = g if s is None else g * s  # the product's gradient
        if mu is None:
            result = grads(a.data, gp, False)
        else:
            xhat = _rebuild_xhat(a.data, mu, inv)
            y = np.multiply(xhat, gamma.data, out=_scratch("norm.y", a.shape))
            y += beta.data
            gy, *others = grads(y, gp, True)
            result = (*_layer_norm_grad(gy, xhat, gamma.data, inv), *others)
        if bias is not None:
            result = (*result, np.add.reduce(gp, axis=0))
        return result if residual is None else (*result, g)

    return _result(out, op, parents, rule)


def matmul(a: Tensor, b: Tensor, transpose_b: bool = False,
           bias: Tensor | None = None, residual: Tensor | None = None,
           s: float | None = None, norm: tuple[Tensor, Tensor] | None = None) -> Tensor:
    """Matrix product. 2-d x 2-d, or 3-d x 3-d batched over the leading axis.

    ``transpose_b=True`` computes ``a @ swap(b)`` without materializing the
    transpose (used for attention scores and low-rank V factors). For 2-d
    operands, ``bias``, ``residual``, ``s`` and ``norm`` make the node
    residual + s·(LN(a) @ b + bias) (``_product``), so a linear layer, its
    residual connection and a layer norm before it are one tape node.
    The rule computes no gradient for a constant ``a`` with no ``norm``
    (the frontend's packed features): ``backward`` would drop it.
    """
    ad, bd = a.data, b.data
    if ad.ndim != bd.ndim or ad.ndim not in (2, 3):
        raise ShapeError(f"matmul supports 2d@2d or 3d@3d, got {ad.shape} @ {bd.shape}")
    b_eff_inner = bd.shape[-1] if transpose_b else bd.shape[-2]
    if ad.shape[-1] != b_eff_inner or (ad.ndim == 3 and ad.shape[0] != bd.shape[0]):
        raise ShapeError(f"matmul: inner extents differ: {ad.shape} @ {bd.shape}"
                         f"{' (transposed)' if transpose_b else ''}")

    def forward(x):
        return x @ (np.swapaxes(b.data, -1, -2) if transpose_b else b.data)

    def grads(x, gp, rebuilt):
        # d_x = g @ bᵀ and d_b = xᵀ @ g, or g @ b and gᵀ @ x for x @ bᵀ; no d_x
        # for a constant a, but a rebuilt LN(a) feeds the norm's gradients
        bt = b.data if transpose_b else np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(gp, -1, -2) @ x if transpose_b else np.swapaxes(x, -1, -2) @ gp
        return gp @ bt if rebuilt or a.requires_grad else None, gb

    return _product("matmul", a, (b,), forward, grads, bias, residual, s, norm)


def sum_all(a: Tensor) -> Tensor:
    return _result(np.asarray(a.data.sum()), "sum", (a,),
                   lambda g: (np.full_like(a.data, float(g)),))


def transpose(a: Tensor, view, shape) -> Tensor:
    """``a`` viewed as the 4-d ``view``, permuted by (0, 2, 1, 3), viewed
    as ``shape``: a reshape-transpose-reshape chain (a head split or
    merge) as one node and one copy. The permutation is its own inverse,
    so the rule runs the chain backwards with it."""
    in_shape = a.data.shape
    permuted = a.data.reshape(view).transpose(0, 2, 1, 3)
    permuted_shape = permuted.shape
    out = np.ascontiguousarray(permuted).reshape(shape)
    return _result(out, "transpose", (a,),
                   lambda g: (g.reshape(permuted_shape).transpose(0, 2, 1, 3).reshape(in_shape),))


def _sigmoid_into(x: np.ndarray, num: np.ndarray) -> np.ndarray:
    """sigmoid(x) = 1 / (1 + exp(-x)), written into ``num``, an array of x's
    shape, and returned; ``num`` keeps the result an array also for 0-d x.

    Below about x = -709.78, exp(-x) overflows to inf, the one intended
    overflow, and 1 / (1 + inf) is the 0.0 that the result rounds to.
    """
    np.negative(x, out=num)
    with np.errstate(over="ignore"):
        np.exp(num, out=num)
    num += 1.0
    return np.divide(1.0, num, out=num)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return _sigmoid_into(x, np.empty(x.shape))


def _swish_product(x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """swish(x) @ b, the activation held only in scratch."""
    act = _sigmoid_into(x, _scratch("swish_matmul.act", x.shape))
    act *= x
    return act @ b


def _swish_product_grad(x: np.ndarray, b: np.ndarray, g: np.ndarray, out=None):
    """The gradients of swish(x) @ b for output gradient g, x's and b's.

    The sigmoid is recomputed once, for both the activation that b's
    gradient reads and swish'(x) = s + act * (1 - s): the same op order,
    and so the same bytes, as ``matmul(swish(x), b)``. s and g @ bᵀ are
    scratch, and 1 - s sits in the latter's buffer until the product
    needs it. act becomes x's gradient, in ``out`` (which may be x: x is
    not read after act is taken) or in a fresh array.
    """
    s = _sigmoid_into(x, _scratch("swish_matmul.s", x.shape))
    act = np.multiply(s, x, out=out)
    gb = act.T @ g
    ga = _scratch("swish_matmul.ga", x.shape)
    act *= np.subtract(1.0, s, out=ga)
    act += s
    act *= np.matmul(g, b.T, out=ga)
    return act, gb


def swish_matmul(a: Tensor, b: Tensor, bias: Tensor | None = None,
                 residual: Tensor | None = None,
                 norm: tuple[Tensor, Tensor] | None = None) -> Tensor:
    """swish(a) @ b for 2-d operands, as one node, made residual +
    swish(LN(a)) @ b + bias by the other arguments, as in ``matmul``.

    The activation is dropped once the product is taken, so the tape
    keeps ``a`` and not ``swish(a)``; the rule rebuilds it
    (``_swish_product_grad``).
    """
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"swish_matmul supports 2d@2d with equal inner extents, "
                         f"got {a.shape} @ {b.shape}")

    def grads(x, gp, rebuilt):
        # a rebuilt operand is scratch, so its gradient may overwrite it
        return _swish_product_grad(x, b.data, gp, out=x if rebuilt else None)

    return _product("swish_matmul", a, (b,), lambda x: _swish_product(x, b.data), grads,
                    bias, residual, None, norm)


def linear_swish_matmul(a: Tensor, w: Tensor, c: Tensor, b: Tensor,
                        bias: Tensor | None = None, transpose_w: bool = False,
                        residual: Tensor | None = None, s: float | None = None,
                        norm: tuple[Tensor, Tensor] | None = None) -> Tensor:
    """swish(a @ w + c) @ b for 2-d operands, as one node, made residual +
    s·(swish(LN(a) @ w + c) @ b + bias) by the other arguments, as in
    ``matmul``.

    ``transpose_w=True`` reads w as its transpose, as ``matmul``'s
    ``transpose_b`` does. The (rows, n) pre-activation a @ w + c is built
    in scratch, checked as a matmul, and dropped with the activation once
    the product is taken, so the tape keeps only ``a``. The rule rebuilds
    the pre-activation with the same product and bias add, then runs
    ``swish_matmul``'s and ``matmul``'s rule arithmetic in turn: the same
    bytes as ``swish_matmul(matmul(a, w, transpose_w, c), b, bias)``, at
    the cost of one more product in backward.
    """
    inner, n = (w.shape[::-1] if transpose_w else w.shape) if w.ndim == 2 else (-1, -1)
    if (a.ndim != 2 or b.ndim != 2 or a.shape[1] != inner or c.shape != (n,)
            or b.shape[0] != n):
        raise ShapeError(f"linear_swish_matmul: expected 2-d a @ w{'ᵀ' if transpose_w else ''}"
                         f" + c of equal inner extents, then @ b, got {a.shape}, "
                         f"{w.shape}, {c.shape} and {b.shape}")
    rows = a.shape[0]

    def pre_activation(x):
        pre = np.matmul(x, w.data.T if transpose_w else w.data,
                        out=_scratch("linear_swish_matmul.pre", (rows, n)))
        pre += c.data
        return pre

    def forward(x):
        pre = pre_activation(x)
        _finite(pre, "matmul")
        return _swish_product(pre, b.data)

    def grads(x, gout, rebuilt):
        # the pre-activation's gradient overwrites it in scratch
        pre = pre_activation(x)
        gp, gb = _swish_product_grad(pre, b.data, gout, out=pre)
        if transpose_w:
            ga, gw = gp @ w.data, gp.T @ x
        else:
            ga, gw = gp @ w.data.T, x.T @ gp
        return ga, gw, np.add.reduce(gp, axis=0), gb

    return _product("linear_swish_matmul", a, (w, c, b), forward, grads, bias, residual, s,
                    norm)


def glu(a: Tensor) -> Tensor:
    """Gated linear unit over the last axis: split halves (u, v), u * sigmoid(v).
    The rule recomputes the sigmoid from v."""
    last = a.shape[-1]
    if last % 2 != 0:
        raise ShapeError(f"glu requires an even last extent, got {a.shape}")
    n = last // 2
    out = _sigmoid(a.data[..., n:])
    out *= a.data[..., :n]

    def rule(g):
        s = _sigmoid_into(a.data[..., n:], _scratch("glu.s", g.shape))
        ga = np.empty_like(a.data)
        np.multiply(g, s, out=ga[..., :n])
        gv = np.multiply(g, a.data[..., :n], out=ga[..., n:])
        gv *= s
        np.subtract(1.0, s, out=s)
        gv *= s  # g * u * s * (1 - s)
        return (ga,)

    return _result(out, "glu", (a,), rule)


def _check_norm_params(op: str, d: int, gamma: Tensor, beta: Tensor):
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise ShapeError(f"{op}: gamma/beta must be shape ({d},), "
                         f"got {gamma.shape} and {beta.shape}")


def _normalize(x: np.ndarray, out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x̂ = (x - mean) / sqrt(var + LN_EPS) over the last axis, written
    into ``out``; returns the per-row mean and inverse deviation, from
    which ``_rebuild_xhat`` gives back the same bytes."""
    d = x.shape[-1]
    # sum then divide, as ndarray.mean does, without its per-call overhead
    mu = np.add.reduce(x, axis=-1, keepdims=True) / d
    xhat = np.subtract(x, mu, out=out)
    var = np.add.reduce(xhat * xhat, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat *= inv
    return mu, inv


def _rebuild_xhat(x: np.ndarray, mu: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """``_normalize``'s x̂, rebuilt in scratch by its ops from the per-row
    mean and inverse deviation."""
    xhat = np.subtract(x, mu, out=_scratch("norm.xhat", x.shape))
    xhat *= inv
    return xhat


def _layer_norm_grad(g: np.ndarray, xhat: np.ndarray, gamma: np.ndarray,
                     inv: np.ndarray) -> tuple:
    """The gradients of gamma * x̂ + beta for output gradient g: x's,
    gamma's and beta's. Overwrites ``xhat``."""
    d = g.shape[-1]
    gh = g * gamma
    m1 = np.add.reduce(gh, axis=-1, keepdims=True) / d
    m2 = np.add.reduce(gh * xhat, axis=-1, keepdims=True) / d
    axes = tuple(range(g.ndim - 1))
    ggamma = np.add.reduce(g * xhat, axis=axes)
    gh -= m1
    xhat *= m2
    gh -= xhat
    gh *= inv  # inv * (gh - m1 - xhat * m2)
    return gh, ggamma, np.add.reduce(g, axis=axes)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit population variance,
    then scale and shift: gamma * (x - mean) / sqrt(var + LN_EPS) + beta.
    The rule keeps one mean and one inverse deviation per row and
    rebuilds x̂ from them. A norm that feeds one 2-d product is that
    product's ``norm=`` prologue instead (``_product``)."""
    _check_norm_params("layer_norm", x.data.shape[-1], gamma, beta)
    out = np.empty_like(x.data)
    mu, inv = _normalize(x.data, out)
    out *= gamma.data
    out += beta.data

    def rule(g):
        return _layer_norm_grad(g, _rebuild_xhat(x.data, mu, inv), gamma.data, inv)

    return _result(out, "layer_norm", (x, gamma, beta), rule)


def _softmax(z: np.ndarray) -> np.ndarray:
    """Max-subtracted softmax over the last axis, computed in z's memory."""
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def _softmax_grad(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The input gradient of a softmax with output p: p * (g - sum(g * p))."""
    gp = np.multiply(g, p, out=_scratch("softmax_grad.gp", p.shape))
    gx = g - gp.sum(axis=-1, keepdims=True)
    gx *= p
    return gx


def _skew(full: np.ndarray) -> np.ndarray:
    """The (H, T, T) view out[h, t, s] = full[h, t, s - t + T - 1] of a
    C-contiguous (H, T, 2T - 1) array, with no index arrays.

    In the (H, T·(2T−1)) flattening, out[h, t, s] is element
    (T − 1) + t·(2T − 2) + s of row h (the skew of Huang et al. 2018,
    arXiv:1809.04281, over a 2T − 1 window), so a fixed offset and
    strides address it. Writing through the view writes those entries
    of ``full``; (t, s) -> s - t + T - 1 is injective, so none is
    written twice.
    """
    H, T, W = full.shape
    step = full.itemsize
    return np.ndarray((H, T, T), dtype=full.dtype, buffer=full, offset=(T - 1) * step,
                      strides=(T * W * step, (W - 1) * step, step))


def depthwise_conv1d(x: Tensor, kernel: Tensor, frames: int | None = None) -> Tensor:
    """Per-channel temporal convolution with same zero padding.

    x is (B·T, d), the rows of B utterances of ``frames`` = T frames each
    (by default one utterance of all rows); kernel is (w, d) with w odd.
    Each utterance is padded on its own, so no frame sees another's:
    out[b·T + t, c] = sum_j kernel[j, c] * x[b·T + t + j - (w-1)/2, c],
    where terms outside 0 <= t + j - (w-1)/2 < T are zero.
    """
    if x.ndim != 2 or kernel.ndim != 2:
        raise ShapeError(f"depthwise_conv1d expects 2d operands, got {x.shape}, {kernel.shape}")
    rows, d = x.shape
    w, dk = kernel.shape
    if dk != d:
        raise ShapeError(f"depthwise_conv1d: channel mismatch {x.shape} vs {kernel.shape}")
    if w % 2 == 0:
        raise ShapeError(f"depthwise_conv1d: kernel width must be odd, got {w}")
    T = rows if frames is None else frames
    B = utterance_count(rows, T)
    half = (w - 1) // 2

    def padded():
        xp = _scratch("conv.xp", (B, T + w - 1, d))
        xp[:, :half] = 0.0
        xp[:, half + T:] = 0.0
        xp[:, half:half + T] = x.data.reshape(B, T, d)
        return xp

    xp = padded()
    out = np.zeros((B, T, d))
    tap = _scratch("conv.tap", (B, T, d))  # every per-tap product
    for j in range(w):
        out += np.multiply(kernel.data[j], xp[:, j:j + T], out=tap)

    def rule(g):
        # rebuilt, not kept: the tape would otherwise hold a padded copy of x
        g = g.reshape(B, T, d)
        xp = padded()
        # not scratch: for B = 1 the returned slice is a view of gxp
        gxp = np.zeros_like(xp)
        gk = np.empty_like(kernel.data)
        tap = _scratch("conv.tap", (B, T, d))
        products = tap.reshape(rows, d)
        for j in range(w):
            gxp[:, j:j + T] += np.multiply(g, kernel.data[j], out=tap)
            np.multiply(g, xp[:, j:j + T], out=tap)
            np.add.reduce(products, axis=0, out=gk[j])
        return gxp[:, half:half + T].reshape(rows, d), gk

    return _result(out.reshape(rows, d), "depthwise_conv1d", (x, kernel), rule)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    """Entries ``start:stop`` along the leading axis, as a view of the data.
    Its rule returns an array shaped like ``a``: g in those rows, zeros
    elsewhere. All rows are ``a`` itself, with no node."""
    if a.ndim < 1 or not 0 <= start < stop <= a.shape[0]:
        raise ShapeError(f"slice_rows: rows [{start}, {stop}) of {a.shape}")
    if start == 0 and stop == a.shape[0]:
        return a

    def rule(g):
        ga = np.zeros_like(a.data)
        ga[start:stop] = g
        return (ga,)

    return _result(a.data[start:stop], "slice_rows", (a,), rule)


def utterance_count(rows: int, frames: int) -> int:
    """How many utterances of ``frames`` frames each ``rows`` packed rows hold."""
    if frames < 1 or rows < frames or rows % frames != 0:
        raise ShapeError(f"{rows} rows are not whole utterances of {frames} frames")
    return rows // frames


def attention_context(q: Tensor, k: Tensor, pos, v: Tensor) -> Tensor:
    """softmax((q kᵀ + skew(pos)) / sqrt(d/H)) v for every head, as one node.

    q, k and v are the (B·T, d) projections of B utterances of T frames.
    Their H heads are read as strided (B, H, T, dh) views, with no copies,
    and the context is written through the same view into a (B·T, d)
    output, the heads of each frame side by side. ``pos`` holds the B
    utterances' (H, T, 2T - 1) positional scores, in packing order:
    column c holds the score for key offset c - (T - 1) relative to the
    query, and skew(pos[b])[h, t, s] = pos[b][h, t, s - t + T - 1] (a
    strided view, see ``_skew``). B is ``len(pos)``, and H and T are
    read from the parts' shape, and so the scale 1/sqrt(d/H) of Vaswani
    et al. 2017 (arXiv:1706.03762). The parents are (q, k, *pos, v).

    The q kᵀ product is checked as a matmul and the weights as this op,
    so a score that overflows raises even where the softmax would hide
    it. The weights are built in the ``attention_context.p`` scratch
    slot and dropped once the context is taken, so the node keeps no
    array of its own: the rule rebuilds them there from q, k and pos by
    the forward's ops in the forward's order (the q kᵀ product, each
    utterance's skew add, the scale, ``_softmax``), so the bytes are the
    same, at one more q kᵀ product and softmax in backward. It writes
    the gradients of q, k and v through the head views and each
    utterance's positional gradient into a zeroed (H, T, 2T - 1) array
    through the skew view.
    """
    pos = tuple(pos)
    rows, d = q.shape if q.ndim == 2 else (0, 0)
    B = len(pos)
    H, T, W = pos[0].shape if B and pos[0].ndim == 3 else (0, 0, 0)
    if (not H or d % H or W != 2 * T - 1 or rows != B * T
            or any(part.shape != pos[0].shape for part in pos)
            or k.shape != q.shape or v.shape != q.shape):
        raise ShapeError(f"attention_context: expected (B·T, d) q, k and v and B "
                         f"(H, T, 2T - 1) positional scores with H dividing d, got "
                         f"{q.shape}, {k.shape}, {v.shape} and "
                         f"{[part.shape for part in pos]}")
    dh = d // H
    scale = 1.0 / math.sqrt(dh)

    def heads(a):  # (B·T, d) -> (B, H, T, dh), a view
        return a.reshape(B, T, H, dh).transpose(0, 2, 1, 3)

    def scores():  # q kᵀ, in scratch
        z = _scratch("attention_context.p", (B, H, T, T))
        return np.matmul(heads(q.data), np.swapaxes(heads(k.data), -1, -2), out=z)

    def weights(z):  # the softmax of the scaled scores, over z
        for zb, part in zip(z, pos):
            zb += _skew(part.data)
        z *= scale
        return _softmax(z)

    z = scores()
    _finite(z, "matmul")
    p = weights(z)
    _finite(p, "attention_context")
    out = np.empty((rows, d))
    np.matmul(p, heads(v.data), out=heads(out))

    def rule(g):
        p = weights(scores())
        gh = heads(g)
        gq, gk, gv = (np.empty((rows, d)) for _ in range(3))
        np.matmul(np.swapaxes(p, -1, -2), gh, out=heads(gv))
        # the weights' gradient g vᵀ lives only until the softmax's is taken
        gz = _softmax_grad(p, np.matmul(gh, np.swapaxes(heads(v.data), -1, -2)))
        gz *= scale
        gpos = [np.zeros((H, T, W)) for _ in range(B)]
        for gfull, gzb in zip(gpos, gz):
            _skew(gfull)[...] = gzb
        np.matmul(gz, heads(k.data), out=heads(gq))
        np.matmul(np.swapaxes(gz, -1, -2), heads(q.data), out=heads(gk))
        return gq, gk, *gpos, gv

    return _result(out, "attention_context", (q, k, *pos, v), rule)


def cross_entropy_mean(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean framewise cross entropy of (T, K) logits against integer labels."""
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

    def rule(g):
        p = np.exp(shifted)
        p /= p.sum(axis=-1, keepdims=True)
        p[np.arange(T), labels] -= 1.0
        return (float(g) * p / T,)

    return _result(np.asarray(out), "cross_entropy_mean", (logits,), rule)


def finite_diff_grad(loss, theta: np.ndarray, eps: float, coords=None) -> np.ndarray:
    """Central finite differences of a scalar loss with respect to ``theta``.

    ``loss`` takes no arguments and reads ``theta``, which is perturbed in
    place one coordinate at a time and restored after each, also when an
    evaluation raises. ``coords`` lists flat indices to difference; the
    result then holds one entry per index. By default every coordinate is
    differenced and the result is shaped like ``theta``. Raises
    ``ValueError`` before any evaluation if ``theta ± eps`` rounds back to
    ``theta`` at a coordinate it differences (the difference would be 0
    whatever the gradient), and ``NonFiniteError`` if an evaluation is
    non-finite.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"finite_diff_grad: eps must be positive and finite, got {eps}")
    if not (isinstance(theta, np.ndarray) and theta.flags.c_contiguous
            and theta.flags.writeable):
        raise ValueError("finite_diff_grad: theta must be a writeable C-contiguous array")
    flat = theta.reshape(-1)
    indices = range(flat.size) if coords is None else coords
    for i in indices:
        value = float(flat[i])
        if value + eps == value or value - eps == value:
            raise ValueError(f"finite_diff_grad: a step of {eps} rounds away at "
                             f"coordinate {i}: {value!r} +- {eps} == {value!r}")
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


ZERO_FLOOR = 1e-9  # ``relative_error`` reads both sides at or below this as zero


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Max elementwise |a - b| / max(|a|, |b|, 1e-8), where coordinates
    with both sides at or below ``ZERO_FLOOR`` count as agreeing at zero.

    The floor handles directions whose true gradient is structurally
    zero (e.g. a bias that softmax shift-invariance cancels exactly): a
    central difference there measures only rounding noise, roughly
    |f| * ulp / eps ~ 1e-12 at unit loss scale, which the 1e-8 denominator
    floor would misreport as 1e-4 disagreement; any real gradient defect
    shows up orders of magnitude above it.

    Empty inputs raise ``ValueError``: a comparison of nothing is not a pass.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    err = np.abs(a - b) / denom
    err = np.where((np.abs(a) <= ZERO_FLOOR) & (np.abs(b) <= ZERO_FLOOR), 0.0, err)
    return float(np.max(err))
