"""Reference implementations that only the tests call.

The package ships the fused ops the model runs; the unfused ops here are
what the tests compare them against, and what they build test losses
from: ``add(a, b, s)`` against ``add(a, scale(b, s))``, a product's
``residual`` and ``s`` against ``add(residual, product, s)``,
``swish_matmul`` against ``matmul(swish(a), b)``, and
``attention_context`` against
``attention_chain``: head splits, the content matmul, ``concat_rows`` of
the per-utterance positional scores, ``attention_weights`` (itself
checked against ``softmax`` of the summed scores), the context matmul
and the merge. Each op is built from the
same ``autodiff`` kernels the package uses (``_result``, ``_sigmoid``,
``_skew``, ``_softmax`` and ``_softmax_grad``), so a byte comparison
against a fused op checks the fusion and nothing else.

``svd_truncate`` is a small-matrix SVD by one-sided Jacobi, for the
property tests of low-rank factors, and ``lowrank_param_count`` the
closed-form size of one factored linear. ``all_presets`` resolves every
registered preset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from confshare.autodiff import (ShapeError, Tensor, _result, _sigmoid, _skew, _softmax,
                                _softmax_grad, matmul, transpose)
from confshare.presets import SMALL_SUFFIX, Preset, preset, preset_names


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


def attention_chain(q: Tensor, k: Tensor, pos, v: Tensor, scale: float) -> Tensor:
    """``attention_context`` as the nodes it replaces: the q, k and v head
    splits into contiguous (B·H, T, dh) copies, q kᵀ, the B utterances'
    (H, T, 2T - 1) positional scores joined by ``concat_rows``, the
    weights, their product with v, and the merge back to (B·T, d)."""
    rows, d = q.shape
    B = len(pos)
    H, T, _ = pos[0].shape
    dh = d // H

    def split(t):
        return transpose(t, (0, 2, 1, 3), (B, T, H, dh), (B * H, T, dh))

    q3, k3, v3 = split(q), split(k), split(v)
    weights = attention_weights(matmul(q3, k3, transpose_b=True), concat_rows(pos), scale)
    return transpose(matmul(weights, v3), (0, 2, 1, 3), (B, H, T, dh), (rows, d))


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
