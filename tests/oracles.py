"""Reference implementations that only the tests call.

The package ships the fused ops the model runs; the unfused ops here are
what the tests compare them against, and what they build test losses
from: ``add(a, b, s)`` against ``add(a, scale(b, s))``, a product's
``residual`` and ``s`` against ``add(residual, product, s)``,
``linear_swish_matmul`` against ``matmul(swish(matmul(a, w, bias=c)),
b)``, ``glu_conv_swish_matmul`` against the chain ``matmul``, ``glu``,
``depthwise_conv1d``, ``layer_norm``, ``swish``, ``matmul``, a product's
``out_norm`` against ``layer_norm`` of the product, ``attention_matmul``
against ``matmul`` of ``attention_context``, and ``attention_context``
against ``attention_chain``: head splits, the content matmul,
``concat_rows`` of the per-utterance positional scores,
``attention_weights`` (itself checked against ``softmax`` of the summed
scores), the context matmul and the merge. ``split_heads`` is checked
against ``transpose`` of ``slice_rows``. Each op is built from the same
``autodiff`` kernels the package uses (``_result``, ``_sigmoid_into``,
``_scratch``, ``_skew``, ``_softmax`` and ``_softmax_grad``), so a byte
comparison against a fused op checks the fusion and nothing else.
``rule_grads`` replays such a chain's rules, so each fused op's rule is
compared with what its chain's rules hand on (``FUSIONS`` in
``tests/test_autodiff.py``).

``reference_loss`` composes these ops into the whole model, so one
comparison checks every fusion at once: its loss and leaf gradients
equal ``training.batch_loss``'s byte for byte. The one exception is
head width 1 (heads = d), where numpy's product on a strided (…, T, 1)
head view can round differently from the chain's contiguous copy, so
``attention_matmul``'s k and v gradients, and what flows from them,
may move: by at most 3.6e-12 relative error as measured, and the tests
allow 1e-10 (see ``attention_chain``).

``svd_truncate`` is a small-matrix SVD by one-sided Jacobi, for the
property tests of low-rank factors, and ``lowrank_param_count`` the
closed-form size of one factored linear. ``all_presets`` resolves every
registered preset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from confshare.autodiff import (ShapeError, Tape, Tensor, _finite, _result, _scratch,
                                _sigmoid_into, _skew, _softmax, _softmax_grad, cross_entropy_mean,
                                layer_norm, matmul, utterance_count)
from confshare.blocks import MODULE_TYPES, module_tensor_specs
from confshare.encoder import pack_features
from confshare.presets import SMALL_SUFFIX, Preset, preset, preset_names
from confshare.sharing import (FRONTEND_B, FRONTEND_W, HEAD_B, HEAD_W, REL_TABLE,
                               subcomponent_group_ids)


def add(a: Tensor, b: Tensor, s: float | None = None) -> Tensor:
    """Elementwise sum of two same-shaped tensors, or ``a + s * b`` as one
    node: the product is taken first and ``a`` added into it, the same
    bytes as ``add(a, scale(b, s))`` because addition commutes. The
    unfused form of a product's ``residual`` and ``s``."""
    if a.shape != b.shape:
        raise ShapeError(f"add: incompatible shapes {a.shape} + {b.shape}")
    if s is None:
        return _result(a.data + b.data, "add", (a, b), lambda g: (g, g))
    out = b.data * s
    out += a.data
    return _result(out, "add", (a, b), lambda g: (g, g * s))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul: incompatible shapes {a.shape} * {b.shape}")
    return _result(a.data * b.data, "mul", (a, b), lambda g: (g * b.data, g * a.data))


def scale(a: Tensor, s: float) -> Tensor:
    return _result(a.data * s, "scale", (a,), lambda g: (g * s,))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return _sigmoid_into(x, np.empty(x.shape))


def swish(a: Tensor) -> Tensor:
    """x * sigmoid(x). The rule recomputes the sigmoid from x."""
    out = _sigmoid(a.data)
    out *= a.data

    def rule(g):
        s = _sigmoid(a.data)
        ds = np.subtract(1.0, s)
        ds *= out
        ds += s
        ds *= g  # g * (s + out * (1 - s))
        return (ds,)

    return _result(out, "swish", (a,), rule)


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


def softmax(x: Tensor) -> Tensor:
    """Max-subtracted softmax over the last axis; rows sum to one."""
    p = _softmax(x.data.copy())
    return _result(p, "softmax", (x,), lambda g: (_softmax_grad(p, g),))


def attention_weights(content: Tensor, pos_full: Tensor, scale: float) -> Tensor:
    """softmax((content + skew(pos_full)) * scale) over the last axis.

    content is (H, T, T) query-key scores. pos_full is (H, T, 2T - 1)
    positional scores where column c holds the score for key offset
    c - (T - 1) relative to the query, and skew(pos_full)[h, t, s] =
    pos_full[h, t, s - t + T - 1] (a strided view, see ``_skew``). One
    node, which keeps only the weights; its rule writes the positional
    gradient into a zeroed (H, T, 2T - 1) array through the same view.
    """
    if (pos_full.ndim != 3 or pos_full.shape[2] != 2 * pos_full.shape[1] - 1
            or content.shape != pos_full.shape[:2] + (pos_full.shape[1],)):
        raise ShapeError(f"attention_weights: expected (H, T, T) and (H, T, 2T - 1) "
                         f"scores, got {content.shape} and {pos_full.shape}")
    z = content.data + _skew(pos_full.data)
    z *= scale
    p = _softmax(z)

    def rule(g):
        gz = _softmax_grad(p, g)
        gz *= scale
        gfull = np.zeros_like(pos_full.data)
        _skew(gfull)[...] = gz
        return gz, gfull

    return _result(p, "attention_weights", (content, pos_full), rule)


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


def concat_rows(parts) -> Tensor:
    """Join tensors along the leading axis; the other axes must agree.
    One part is returned itself, with no node and no copy."""
    parts = tuple(parts)
    if not parts or any(p.ndim < 1 or p.shape[1:] != parts[0].shape[1:] for p in parts):
        raise ShapeError(f"concat_rows: cannot join {[p.shape for p in parts]}")
    if len(parts) == 1:
        return parts[0]
    out = np.concatenate([p.data for p in parts])
    splits = np.cumsum([p.shape[0] for p in parts[:-1]])
    return _result(out, "concat_rows", parts, lambda g: np.split(g, splits))


def attention_context(q: Tensor, k: Tensor, pos, v: Tensor) -> Tensor:
    """softmax((q kᵀ + skew(pos)) / sqrt(d/H)) v for every head, as one
    node: ``attention_matmul`` without its post-projection, the first link
    of its chain, and itself checked against ``attention_chain``.

    q, k and v are the (B·T, d) projections of B utterances of T frames,
    whose H heads it reads as strided (B, H, T, dh) views; ``pos`` holds
    the B utterances' (H, T, 2T - 1) positional scores, and the scale is
    1/sqrt(d/H). The parents are (q, k, *pos, v). The q kᵀ product is
    checked as a matmul and the weights as this op. The weights are
    built in the ``attention_context.p`` scratch slot, and the rule
    rebuilds them there by the forward's ops, so the node keeps no array
    of its own; the rule writes the gradients of q, k and v through the
    head views and each utterance's positional gradient into a zeroed
    (H, T, 2T - 1) array through the skew view.
    """
    pos = tuple(pos)
    rows, d = q.shape
    B = len(pos)
    H, T, W = pos[0].shape
    dh = d // H
    scale = 1.0 / math.sqrt(dh)

    def head_view(a):  # (B·T, d) -> (B, H, T, dh), a view
        return a.reshape(B, T, H, dh).transpose(0, 2, 1, 3)

    def scores():  # q kᵀ, in scratch
        z = _scratch("attention_context.p", (B, H, T, T))
        return np.matmul(head_view(q.data), np.swapaxes(head_view(k.data), -1, -2), out=z)

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
    np.matmul(p, head_view(v.data), out=head_view(out))

    def rule(g):
        p = weights(scores())
        gh = head_view(g)
        gq, gk, gv = (np.empty((rows, d)) for _ in range(3))
        np.matmul(np.swapaxes(p, -1, -2), gh, out=head_view(gv))
        # the weights' gradient g vᵀ lives only until the softmax's is taken
        gz = _softmax_grad(p, np.matmul(gh, np.swapaxes(head_view(v.data), -1, -2)))
        gz *= scale
        gpos = [np.zeros((H, T, W)) for _ in range(B)]
        for gfull, gzb in zip(gpos, gz):
            _skew(gfull)[...] = gzb
        np.matmul(gz, head_view(k.data), out=head_view(gq))
        np.matmul(np.swapaxes(gz, -1, -2), head_view(q.data), out=head_view(gk))
        return gq, gk, *gpos, gv

    return _result(out, "attention_context", (q, k, *pos, v), rule)


def attention_chain(q: Tensor, k: Tensor, pos, v: Tensor, scale: float) -> Tensor:
    """``attention_context`` as the nodes it stands for: the q, k and v head
    splits into contiguous (B·H, T, dh) copies, q kᵀ, the B utterances'
    (H, T, 2T - 1) positional scores joined by ``concat_rows``, the
    weights, their product with v, and the merge back to (B·T, d).

    The bytes are ``attention_context``'s for head width dh ≥ 2. At
    dh = 1 its rule's ``swapaxes(p) @ head_view(g)`` and
    ``swapaxes(gz) @ head_view(q)`` read strided (…, T, 1) operands,
    which numpy 2.4.6 rounds differently from these contiguous copies
    at some T (6 and 7). Over 252 unit-head cases (d up to 8, T 1-8,
    B 1-3) the worst relative error was 3.6e-12."""
    rows, d = q.shape
    B = len(pos)
    H, T, _ = pos[0].shape
    dh = d // H

    def split(t):
        return transpose(t, (B, T, H, dh), (B * H, T, dh))

    q3, k3, v3 = split(q), split(k), split(v)
    weights = attention_weights(matmul(q3, k3, transpose_b=True), concat_rows(pos), scale)
    return transpose(matmul(weights, v3), (B, H, T, dh), (rows, d))


def rule_grads(out: Tensor, inputs, g) -> list:
    """What the rules of the chain below ``out`` hand each of ``inputs``
    for the gradient ``g`` of ``out``: the rule results that one fused
    node over those inputs must return.

    It runs ``backward``'s reverse sweep and stops at the inputs. A
    gradient passes from rule to rule as the rule returned it, and one
    used more than once is summed in the sweep's order. It is never
    copied, at a leaf or between nodes, so a signed zero survives."""
    grads, stop = {id(out): g}, {id(t) for t in inputs}
    for node in reversed(Tape.trace(out).nodes):
        if id(node) in stop or id(node) not in grads:
            continue
        for parent, grad in zip(node._parents, node._backward(grads.pop(id(node))), strict=True):
            if parent.requires_grad:
                held = grads.get(id(parent))
                grads[id(parent)] = grad if held is None else held + grad
    return [grads.get(id(t)) for t in inputs]


def reference_loss(model, features, labels) -> Tensor:
    """``training.batch_loss`` built from the unfused ops above, a plain
    biased ``matmul`` and ``layer_norm``: the same bytes, in the loss and
    in every leaf gradient, as the fused model.

    Layer i reads each tensor by its store key (module, name, group),
    the group being ``subcomponent_group_ids`` of the plan at i, so the
    schedule and the block assembly are checked too. The table heads are
    built once per forward, as ``encoder.encode_from`` does; built per
    layer, ``encoder|rel_table``'s gradient would sum in another order
    at B > 1.
    """
    config, plan = model.config, model.plan
    x, T = pack_features(features, config)
    B, H, dh = x.shape[0] // T, config.heads, config.d // config.heads
    lowrank_k = plan.lowrank.k if plan.lowrank is not None else None

    def linear(x, t, stem):
        if f"{stem}.w" in t:
            return matmul(x, t[f"{stem}.w"], bias=t[f"{stem}.b"])
        return matmul(matmul(x, t[f"{stem}.u"]), t[f"{stem}.v"], transpose_b=True,
                      bias=t[f"{stem}.b"])

    def norm(x, t, stem):
        return layer_norm(x, t[f"{stem}.gamma"], t[f"{stem}.beta"])

    def heads(a, start, n):  # rows start:start + n of a, split into H heads
        return transpose(slice_rows(a, start, start + n), (1, n, H, dh), (H, n, dh))

    def tensors(module, layer):  # by store key, as the plan binds them
        return {name: model.store[(module, name, subcomponent_group_ids(plan, module, sub)[layer])]
                for name, sub, _shape, _kind in module_tensor_specs(config, module, lowrank_k)}

    def feed_forward(x, t):
        h = linear(norm(x, t, "ln"), t, "linear1")
        return add(x, linear(swish(h), t, "linear2"), 0.5)

    def attention(x, t, table):
        xn = norm(x, t, "ln")
        q, k, v, pq = (linear(xn, t, stem) for stem in ("query", "key", "value", "pos_query"))
        pos = [matmul(heads(pq, b * T, T), table, transpose_b=True) for b in range(B)]
        return add(x, linear(attention_chain(q, k, pos, v, 1.0 / math.sqrt(dh)), t, "post"))

    def conv(x, t):
        gated = glu(linear(norm(x, t, "ln"), t, "pre"))
        h = swish(norm(depthwise_conv1d(gated, t["depth.k"], T), t, "norm"))
        return add(x, linear(h, t, "post"))

    x = matmul(x, model.store[FRONTEND_W], bias=model.store[FRONTEND_B])
    if plan.v:
        table = heads(model.store[REL_TABLE], config.t_max - T, 2 * T - 1)
    for layer in range(plan.v):
        t = {module: tensors(module, layer) for module in MODULE_TYPES}
        x = feed_forward(x, t["ff_start"])
        x = attention(x, t["attention"], table)
        x = conv(x, t["conv"])
        x = norm(feed_forward(x, t["ff_end"]), t["ff_end"], "final_ln")
    logits = matmul(x, model.store[HEAD_W], bias=model.store[HEAD_B])
    return cross_entropy_mean(logits, np.asarray(labels).reshape(-1))


@dataclass
class SvdResult:
    u: np.ndarray      # (m, k), orthonormal columns
    sigma: np.ndarray  # (k,), non-negative, non-increasing
    v: np.ndarray      # (n, k), orthonormal columns


def lowrank_param_count(m: int, n: int, k: int, with_bias: bool) -> int:
    """k*(m+n) factor weights, plus the n-vector bias if kept."""
    if m < 1 or n < 1 or k < 1:
        raise ValueError(f"dimensions must be positive, got m={m} n={n} k={k}")
    return k * (m + n) + (n if with_bias else 0)


_MAX_SWEEPS = 64
_JACOBI_TOL = 1e-10
_ORACLE_EXTENT = 512


def svd_truncate(mat: np.ndarray, k: int) -> SvdResult:
    """Leading-k singular triplets via one-sided (Hestenes) Jacobi.

    Column pairs of a working copy are rotated until all pairs are
    orthogonal to relative tolerance 1e-10; singular values are then the
    column norms. Small-matrix oracle only: extents above 512 are refused,
    and failure to converge within the sweep cap is an error.
    """
    a = np.array(mat, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"svd_truncate expects a matrix, got shape {a.shape}")
    m, n = a.shape
    if max(m, n) > _ORACLE_EXTENT:
        raise ValueError(f"svd_truncate is an oracle for extents <= {_ORACLE_EXTENT}, got {a.shape}")
    if not 1 <= k <= min(m, n):
        raise ValueError(f"k must be in [1, {min(m, n)}] for a {m}x{n} matrix, got {k}")

    transposed = m < n
    if transposed:
        a = a.T
        m, n = n, m

    v = np.eye(n)
    for _ in range(_MAX_SWEEPS):
        off = 0.0
        for i in range(n - 1):
            for j in range(i + 1, n):
                ci = a[:, i]
                cj = a[:, j]
                gamma = ci @ cj
                alpha = ci @ ci
                beta = cj @ cj
                scale = np.sqrt(alpha * beta)
                if scale == 0.0 or abs(gamma) <= _JACOBI_TOL * scale:
                    continue
                off = max(off, abs(gamma) / scale)
                zeta = (beta - alpha) / (2.0 * gamma)
                t = np.sign(zeta) / (abs(zeta) + np.sqrt(1.0 + zeta * zeta))
                if zeta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                a[:, i], a[:, j] = c * ci - s * cj, s * ci + c * cj
                v[:, i], v[:, j] = c * v[:, i] - s * v[:, j], s * v[:, i] + c * v[:, j]
        if off == 0.0:
            break
    else:
        raise ArithmeticError(f"one-sided Jacobi did not converge in {_MAX_SWEEPS} sweeps")

    norms = np.sqrt((a * a).sum(axis=0))
    order = np.argsort(-norms, kind="stable")
    norms = norms[order]
    a = a[:, order]
    v = v[:, order]
    u = np.empty_like(a)
    for idx in range(n):
        if norms[idx] > 0.0:
            u[:, idx] = a[:, idx] / norms[idx]
        else:
            # orthonormal completion for exactly rank-deficient input
            cand = np.zeros(m)
            cand[idx % m] = 1.0
            for prev in range(idx):
                cand -= (u[:, prev] @ cand) * u[:, prev]
            nc = np.linalg.norm(cand)
            u[:, idx] = cand / nc if nc > 0 else cand

    u, sigma, v = u[:, :k], norms[:k], v[:, :k]
    if transposed:
        u, v = v, u
    return SvdResult(u=u, sigma=sigma, v=v)


def fold_sigma(r: SvdResult) -> tuple[np.ndarray, np.ndarray]:
    """Split the singular values symmetrically into both factors:
    U' = U sqrt(diag(sigma)), V' = V sqrt(diag(sigma)), so U'V'^T = U diag(sigma) V^T."""
    root = np.sqrt(r.sigma)
    return r.u * root, r.v * root


def all_presets(small: bool = False) -> list[Preset]:
    suffix = SMALL_SUFFIX if small else ""
    return [preset(f"{name}{suffix}") for name in preset_names()]
