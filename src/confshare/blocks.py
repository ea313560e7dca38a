"""The four conformer modules and their composition into one block.

A block maps a (T, d) sequence to (T, d) as

    half-step feed-forward -> relative-position self-attention
    -> convolution module -> half-step feed-forward -> final layer norm

with a residual connection around every module. Feed-forward linears may
be dense tensors or ``LowRankFactors`` pairs; everything else is dense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import (Rng, ShapeError, Tensor, add, depthwise_conv1d, glu,
                       layer_norm, matmul, rel_position_gather, reshape,
                       scale, softmax, swish, transpose)
from .lowrank import LowRankFactors

LN_EPS = 1e-6


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters shared by every block of a model.

    ``external_params`` is an opaque scalar count standing in for the
    decoder that the real system carries; it is never allocated, only
    echoed by the accountant when matching published grand totals.
    """

    d: int
    e: float
    heads: int
    kernel_width: int
    input_dim: int = 80
    num_classes: int = 8
    t_max: int = 256
    external_params: int = 0

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"model dim must be positive, got {self.d}")
        if self.e <= 0:
            raise ValueError(f"feed-forward expansion must be positive, got {self.e}")
        if self.heads < 1 or self.d % self.heads != 0:
            raise ValueError(f"heads must divide d: d={self.d}, heads={self.heads}")
        if self.kernel_width < 1 or self.kernel_width % 2 == 0:
            raise ValueError(f"kernel width must be odd, got {self.kernel_width}")
        if self.num_classes < 1:
            raise ValueError(f"num_classes must be positive, got {self.num_classes}")
        if self.t_max < 1:
            raise ValueError(f"t_max must be positive, got {self.t_max}")
        if self.external_params < 0:
            raise ValueError("external_params must be non-negative")

    @property
    def ffn_width(self) -> int:
        return math.ceil(self.e * self.d)

    @property
    def rel_table_len(self) -> int:
        return 2 * self.t_max - 1


@dataclass
class FeedForwardParams:
    ln_gamma: Tensor
    ln_beta: Tensor
    w1: Tensor | LowRankFactors  # (d, ffn_width)
    b1: Tensor
    w2: Tensor | LowRankFactors  # (ffn_width, d)
    b2: Tensor


@dataclass
class AttentionParams:
    heads: int
    ln_gamma: Tensor
    ln_beta: Tensor
    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wpost: Tensor
    bpost: Tensor
    wpos_query: Tensor
    bpos_query: Tensor
    rel_emb: Tensor  # (2*t_max - 1, d), shared across the whole encoder


@dataclass
class ConvParams:
    ln_gamma: Tensor
    ln_beta: Tensor
    wpre: Tensor   # (d, 2d), feeds the glu
    bpre: Tensor
    kdepth: Tensor  # (kernel_width, d)
    norm_gamma: Tensor
    norm_beta: Tensor
    wpost: Tensor  # (d, d)
    bpost: Tensor


@dataclass
class BlockParams:
    ff_start: FeedForwardParams
    attn: AttentionParams
    conv: ConvParams
    ff_end: FeedForwardParams
    final_ln_gamma: Tensor
    final_ln_beta: Tensor


def apply_linear(x: Tensor, w: Tensor | LowRankFactors, b: Tensor) -> Tensor:
    if isinstance(w, LowRankFactors):
        return add(matmul(matmul(x, w.u), w.v, transpose_b=True), b)
    return add(matmul(x, w), b)


def feed_forward(x: Tensor, p: FeedForwardParams) -> Tensor:
    """x + 0.5 * (W2 . swish(W1 . LN(x) + b1) + b2), the half-step residual."""
    xn = layer_norm(x, p.ln_gamma, p.ln_beta, LN_EPS)
    hidden = swish(apply_linear(xn, p.w1, p.b1))
    return add(x, scale(apply_linear(hidden, p.w2, p.b2), 0.5))


def attention(x: Tensor, p: AttentionParams) -> Tensor:
    """Multi-head self-attention with learned relative-position scores.

    Per head: softmax((q k^T + pos) / sqrt(d/h)) v, where pos[t, s] is the
    positional-query projection of frame t dotted with the table row for
    offset s - t. The table rows double as positional keys, so there is a
    single pos-query projection and no separate positional key matrix.
    """
    T, d = x.shape
    H = p.heads
    dh = d // H
    L = p.rel_emb.shape[0]
    t_max = (L + 1) // 2
    if T > t_max:
        raise ShapeError(f"attention: sequence length {T} exceeds t_max {t_max}")

    xn = layer_norm(x, p.ln_gamma, p.ln_beta, LN_EPS)
    q = add(matmul(xn, p.wq), p.bq)
    k = add(matmul(xn, p.wk), p.bk)
    v = add(matmul(xn, p.wv), p.bv)
    pq = add(matmul(xn, p.wpos_query), p.bpos_query)

    def split_heads(t: Tensor, rows: int) -> Tensor:
        return transpose(reshape(t, (rows, H, dh)), (1, 0, 2))

    q3, k3, v3, pq3 = (split_heads(t, T) for t in (q, k, v, pq))
    rel3 = split_heads(p.rel_emb, L)

    content = matmul(q3, k3, transpose_b=True)          # (H, T, T)
    pos_full = matmul(pq3, rel3, transpose_b=True)      # (H, T, L)
    pos = rel_position_gather(pos_full, t_max)          # (H, T, T)
    weights = softmax(scale(add(content, pos), 1.0 / math.sqrt(dh)))
    ctx = matmul(weights, v3)                           # (H, T, dh)
    merged = reshape(transpose(ctx, (1, 0, 2)), (T, d))
    return add(x, add(matmul(merged, p.wpost), p.bpost))


def conv_module(x: Tensor, p: ConvParams) -> Tensor:
    """x + Wpost . swish(LN(depthwise(glu(Wpre . LN(x) + bpre)))) + bpost."""
    xn = layer_norm(x, p.ln_gamma, p.ln_beta, LN_EPS)
    gated = glu(add(matmul(xn, p.wpre), p.bpre))
    conv = depthwise_conv1d(gated, p.kdepth)
    normed = layer_norm(conv, p.norm_gamma, p.norm_beta, LN_EPS)
    return add(x, add(matmul(swish(normed), p.wpost), p.bpost))


def conformer_block(x: Tensor, p: BlockParams) -> Tensor:
    y = feed_forward(x, p.ff_start)
    y = attention(y, p.attn)
    y = conv_module(y, p.conv)
    y = feed_forward(y, p.ff_end)
    return layer_norm(y, p.final_ln_gamma, p.final_ln_beta, LN_EPS)


# ---------------------------------------------------------------------------
# tensor inventory
#
# Every block tensor, its shape, its initializer, and the named
# sub-component it belongs to. This single table drives parameter binding
# and checkpointing; the accountant deliberately re-derives sizes from
# closed-form formulas instead of reading it.

MODULE_TYPES = ("ff_start", "attention", "conv", "ff_end")

# init kinds: "matrix" draws uniform +-sqrt(6/(fan_in+fan_out)),
# "zeros"/"ones" are what they say; "rel_table" is the encoder-level
# relative-position table, a matrix with fan (d, d).
_FF_TENSORS = (
    ("ln.gamma", "misc_small", "ones"),
    ("ln.beta", "misc_small", "zeros"),
    ("linear1.w", "linear1", "matrix"),
    ("linear1.b", "linear1", "zeros"),
    ("linear2.w", "linear2", "matrix"),
    ("linear2.b", "linear2", "zeros"),
)
_ATTN_TENSORS = (
    ("ln.gamma", "misc_small", "ones"),
    ("ln.beta", "misc_small", "zeros"),
    ("query.w", "query", "matrix"),
    ("query.b", "query", "zeros"),
    ("key.w", "key", "matrix"),
    ("key.b", "key", "zeros"),
    ("value.w", "value", "matrix"),
    ("value.b", "value", "zeros"),
    ("post.w", "post", "matrix"),
    ("post.b", "post", "zeros"),
    ("pos_query.w", "pos_query", "matrix"),
    ("pos_query.b", "pos_query", "zeros"),
)
_CONV_TENSORS = (
    ("ln.gamma", "misc_small", "ones"),
    ("ln.beta", "misc_small", "zeros"),
    ("pre.w", "pre_conv", "matrix"),
    ("pre.b", "pre_conv", "zeros"),
    ("depth.k", "depth_conv", "matrix"),
    ("norm.gamma", "misc_small", "ones"),
    ("norm.beta", "misc_small", "zeros"),
    ("post.w", "post_conv", "matrix"),
    ("post.b", "post_conv", "zeros"),
)
# The final layer norm caps the whole block; it travels with ff_end's
# misc-small group so that unsharing misc weights covers it too.
_FF_END_EXTRA = (
    ("final_ln.gamma", "misc_small", "ones"),
    ("final_ln.beta", "misc_small", "zeros"),
)


def _tensor_shape(config: ModelConfig, module: str, name: str) -> tuple[int, ...]:
    d, n, w = config.d, config.ffn_width, config.kernel_width
    if name in ("ln.gamma", "ln.beta", "norm.gamma", "norm.beta",
                "final_ln.gamma", "final_ln.beta"):
        return (d,)
    table = {
        "linear1.w": (d, n), "linear1.b": (n,),
        "linear2.w": (n, d), "linear2.b": (d,),
        "query.w": (d, d), "query.b": (d,),
        "key.w": (d, d), "key.b": (d,),
        "value.w": (d, d), "value.b": (d,),
        "post.w": (d, d), "post.b": (d,),
        "pos_query.w": (d, d), "pos_query.b": (d,),
        "pre.w": (d, 2 * d), "pre.b": (2 * d,),
        "depth.k": (w, d),
    }
    return table[name]


def module_tensor_specs(config: ModelConfig, module: str,
                        lowrank_k: int | None = None):
    """Yield (tensor_name, subcomponent, shape, init_kind) for one module.

    ``lowrank_k`` replaces each feed-forward weight matrix by its two
    factors; biases stay dense.
    """
    base = {"ff_start": _FF_TENSORS, "attention": _ATTN_TENSORS,
            "conv": _CONV_TENSORS, "ff_end": _FF_TENSORS + _FF_END_EXTRA}[module]
    ff_module = module in ("ff_start", "ff_end")
    for name, sub, kind in base:
        if ff_module and lowrank_k is not None and name in ("linear1.w", "linear2.w"):
            m, n = _tensor_shape(config, module, name)
            stem = name[:-2]
            yield f"{stem}.u", sub, (m, lowrank_k), "matrix"
            yield f"{stem}.v", sub, (n, lowrank_k), "matrix"
        else:
            yield name, sub, _tensor_shape(config, module, name), kind


def init_tensor(shape: tuple[int, ...], kind: str, rng: Rng) -> Tensor:
    if kind == "ones":
        data = np.ones(shape)
    elif kind == "zeros":
        data = np.zeros(shape)
    elif kind in ("matrix", "rel_table"):
        if kind == "rel_table":
            # fan taken as (d, d): the table rows act as positional keys.
            fan_in = fan_out = shape[1]
        elif len(shape) == 2:
            fan_in, fan_out = shape
        else:
            fan_in = fan_out = shape[0]
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        data = rng.uniform(-bound, bound, shape)
    else:
        raise ValueError(f"unknown init kind {kind!r}")
    return Tensor(data, requires_grad=True)


def assemble_block(tensors_by_module: dict[str, dict[str, Tensor]],
                   config: ModelConfig, rel_emb: Tensor) -> BlockParams:
    """One block's parameter views from its tensors, keyed by module and
    then by inventory name (``final_ln.*`` travels with ``ff_end``)."""
    def feed_forward_params(t):
        def weight(stem):
            if f"{stem}.w" in t:
                return t[f"{stem}.w"]
            return LowRankFactors(t[f"{stem}.u"], t[f"{stem}.v"])

        return FeedForwardParams(
            ln_gamma=t["ln.gamma"], ln_beta=t["ln.beta"],
            w1=weight("linear1"), b1=t["linear1.b"],
            w2=weight("linear2"), b2=t["linear2.b"])

    a = tensors_by_module["attention"]
    c = tensors_by_module["conv"]
    ff_end = tensors_by_module["ff_end"]
    return BlockParams(
        ff_start=feed_forward_params(tensors_by_module["ff_start"]),
        attn=AttentionParams(
            heads=config.heads,
            ln_gamma=a["ln.gamma"], ln_beta=a["ln.beta"],
            wq=a["query.w"], bq=a["query.b"],
            wk=a["key.w"], bk=a["key.b"],
            wv=a["value.w"], bv=a["value.b"],
            wpost=a["post.w"], bpost=a["post.b"],
            wpos_query=a["pos_query.w"], bpos_query=a["pos_query.b"],
            rel_emb=rel_emb),
        conv=ConvParams(
            ln_gamma=c["ln.gamma"], ln_beta=c["ln.beta"],
            wpre=c["pre.w"], bpre=c["pre.b"],
            kdepth=c["depth.k"],
            norm_gamma=c["norm.gamma"], norm_beta=c["norm.beta"],
            wpost=c["post.w"], bpost=c["post.b"]),
        ff_end=feed_forward_params(ff_end),
        final_ln_gamma=ff_end["final_ln.gamma"],
        final_ln_beta=ff_end["final_ln.beta"])
