"""The four conformer modules and their composition into one block.

A block maps (B·T, d) rows to (B·T, d) as

    half-step feed-forward -> relative-position self-attention
    -> convolution module -> half-step feed-forward -> final layer norm

with a layer norm before and a residual connection around every module.
Each module ends in one node of its op in ``autodiff``, which takes
only the call made here: the feed-forward's and the convolution
module's op normalize their input as a prologue and add that input
back, and the attention's adds the residual it is handed, so no
residual sum is a node of its own, and the final layer norm is the
``out_norm=`` epilogue of the second feed-forward's node. The rows are B
utterances of ``frames`` = T frames each, packed utterance after
utterance; by default all rows are one utterance. Every frame-wise op
(linears, layer norms, activations, residual adds) runs once over all
rows. Only the two ops that look across frames see the utterance
boundaries: attention scores each utterance's frames against its own,
and the depthwise convolution, inside the convolution module's one
``glu_conv_swish_matmul`` node, pads each utterance on its own.
Feed-forward linears may be dense tensors or ``LowRankFactors`` pairs;
everything else is dense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import (Rng, ShapeError, Tensor, attention_matmul, glu_conv_swish_matmul,
                       layer_norm, linear_swish_matmul, matmul, split_heads, utterance_count)
from .lowrank import LowRankFactors


class ModelConfigError(ValueError):
    """A ``ModelConfig`` field is out of range; ``field`` names it."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


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
            raise ModelConfigError("d", f"model dim must be positive, got {self.d}")
        if not (math.isfinite(self.e) and self.e > 0):
            raise ModelConfigError("e", f"feed-forward expansion must be positive and "
                                        f"finite, got {self.e}")
        if self.heads < 1 or self.d % self.heads != 0:
            raise ModelConfigError("heads", f"heads must divide d: d={self.d}, "
                                            f"heads={self.heads}")
        if self.kernel_width < 1 or self.kernel_width % 2 == 0:
            raise ModelConfigError("kernel_width", f"kernel width must be odd, "
                                                   f"got {self.kernel_width}")
        if self.input_dim < 1:
            raise ModelConfigError("input_dim", f"input_dim must be positive, "
                                                f"got {self.input_dim}")
        if self.num_classes < 1:
            raise ModelConfigError("num_classes", f"num_classes must be positive, "
                                                  f"got {self.num_classes}")
        if self.t_max < 1:
            raise ModelConfigError("t_max", f"t_max must be positive, got {self.t_max}")
        if self.external_params < 0:
            raise ModelConfigError("external_params", "external_params must be non-negative")

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
    wpre: Tensor   # (d, 2d), the pre-activation of the gated convolution
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


def apply_linear(x: Tensor, w: LowRankFactors, b: Tensor) -> Tensor:
    """(x . U) . Vᵀ + b, one factored linear on its own; a feed-forward
    applies its factors inside ``linear_swish_matmul`` instead."""
    return matmul(matmul(x, w.u), w.v, transpose_b=True, bias=b)


def feed_forward(x: Tensor, p: FeedForwardParams,
                 out_norm: tuple[Tensor, Tensor] | None = None) -> Tensor:
    """x + 0.5 * (W2 . swish(W1 . LN(x) + b1) + b2), the half-step residual,
    or with ``out_norm=(gamma, beta)`` a layer norm of it (the block's
    final norm, after ``ff_end``).

    One ``linear_swish_matmul`` node, for dense weights and for
    ``LowRankFactors`` pairs alike, which it takes as (U, V) pairs. The
    layer norm is its ``norm=`` prologue, and it adds b2, scales by
    ``autodiff.HALF_STEP`` and adds its input x back, so the tape keeps
    neither LN(x), a (rows, n) array, a low-rank (rows, k) product nor a
    residual sum: the rule rebuilds LN(x), the pre-activation and the
    low-rank products in backward. ``out_norm`` is the node's epilogue,
    so the residual sum is not kept either: the node keeps one mean and
    one inverse deviation per row, and its rule rebuilds the sum from
    the node's last product alone."""
    w1, w2 = ((w.u, w.v) if isinstance(w, LowRankFactors) else w for w in (p.w1, p.w2))
    return linear_swish_matmul(x, w1, p.b1, w2, p.b2, norm=(p.ln_gamma, p.ln_beta),
                               out_norm=out_norm)


def check_frames(frames: int, t_max: int):
    """Reject utterances longer than the relative-position table reaches."""
    if frames > t_max:
        raise ShapeError(f"{frames} frames exceed the model's t_max of {t_max}")


def table_heads(p: AttentionParams, frames: int) -> Tensor:
    """The (H, 2T − 1, dh) heads of the relative-position table window that
    T = ``frames`` frames reach: table row t_max − 1 + o holds offset o, so
    offsets −(T − 1) .. T − 1 are rows t_max − T .. t_max + T − 2. One
    ``split_heads`` node, a view of those rows. Every layer reads the same
    table, so ``encode_from`` builds the heads once per forward and hands
    them to every layer; a standalone ``attention`` call builds its own."""
    t_max = (p.rel_emb.shape[0] + 1) // 2
    check_frames(frames, t_max)
    return split_heads(p.rel_emb, t_max - frames, t_max + frames - 1, p.heads)


def attention(x: Tensor, p: AttentionParams, frames: int | None = None,
              table: Tensor | None = None) -> Tensor:
    """Multi-head self-attention with learned relative-position scores.

    Per head: softmax((q k^T + pos) / sqrt(d/h)) v, where pos[t, s] is the
    positional-query projection of frame t dotted with the table row for
    offset s - t. The table rows double as positional keys, so there is a
    single pos-query projection and no separate positional key matrix.
    Only the 2T - 1 rows a length-T input can reach enter the product.

    ``x`` holds B utterances of ``frames`` = T frames each (default: one).
    One ``attention_matmul`` node runs from the layer norm's output
    through the q and k projections, which it builds itself, and the
    context to the post-projection, which adds bpost and the residual
    ``x``: it reads the q, k and v heads as (B, H, T, dh) views,
    utterance after utterance, so no head sees another utterance's frames,
    and keeps neither q, k, a (B·H, T, T) array nor the (B·T, d) context:
    its rule rebuilds the projections, the softmax weights and the
    context. Only the positional product runs per utterance, on the
    utterance's pos-query rows, split into heads by one ``split_heads``
    node, a view with no copy, against ``table``, the ``table_heads`` of
    ``p`` for T frames (built here when not given), a view of the
    table's rows too. It is a band ``matmul``: of the (H, T, 2T − 1)
    product over every offset the window holds, it keeps the (H, T, T)
    band that scores each key against each query (the skew of Huang et
    al. 2018, arXiv:1809.04281), H·T·T scalars per utterance, and
    ``attention_matmul`` takes the B bands as they are, with no join.
    The layer norm, which v, pq and the attention node read, stays a
    ``layer_norm`` node, and v and pq stay ``matmul`` nodes; q and k are
    no node. So a step records one
    ``split_heads`` per utterance and layer, and one for the table
    (``TAPE_OPS`` in ``tests/test_autodiff.py`` counts every op).
    """
    rows = x.shape[0]
    T = rows if frames is None else frames
    B = utterance_count(rows, T)
    H = p.heads
    if table is None:
        table = table_heads(p, T)

    xn = layer_norm(x, p.ln_gamma, p.ln_beta)
    v = matmul(xn, p.wv, bias=p.bv)
    pq = matmul(xn, p.wpos_query, bias=p.bpos_query)

    pos = [matmul(split_heads(pq, b * T, (b + 1) * T, H), table, transpose_b=True, band=True)
           for b in range(B)]                                # B × (H, T, T)
    return attention_matmul(xn, p.wq, p.bq, p.wk, p.bk, pos, v, p.wpost, bias=p.bpost,
                            residual=x)


def conv_module(x: Tensor, p: ConvParams, frames: int | None = None) -> Tensor:
    """x + Wpost . swish(LN(depthwise(glu(Wpre . LN(x) + bpre)))) + bpost,
    with the depthwise convolution padding each utterance of ``frames``
    frames on its own (default: all rows are one utterance). One
    ``glu_conv_swish_matmul`` node: LN(x) is its ``norm=`` prologue, and
    it adds bpost and its input x back, so the tape keeps only x, the
    output and the two norms' per-row statistics. Its rule rebuilds the
    pre-activation, the gated convolution and the inner norm by the
    forward's ops."""
    return glu_conv_swish_matmul(x, p.wpre, p.bpre, p.kdepth, p.norm_gamma, p.norm_beta,
                                 p.wpost, x.shape[0] if frames is None else frames,
                                 bias=p.bpost, norm=(p.ln_gamma, p.ln_beta))


def conformer_block(x: Tensor, p: BlockParams, frames: int | None = None,
                    table: Tensor | None = None) -> Tensor:
    """One block over utterances of ``frames`` frames each (default: one);
    ``table`` is the attention's ``table_heads``, built here when not
    given. The final layer norm is the ``out_norm`` epilogue of
    ``ff_end``'s node, so the block's output is the one (rows, d)
    array that ``ff_end`` keeps."""
    y = feed_forward(x, p.ff_start)
    y = attention(y, p.attn, frames, table)
    y = conv_module(y, p.conv, frames)
    return feed_forward(y, p.ff_end, (p.final_ln_gamma, p.final_ln_beta))


# ---------------------------------------------------------------------------
# tensor inventory
#
# Every block tensor, its shape, its initializer, and the named
# sub-component it belongs to, keyed by module in application order. This
# single table names the modules and sub-components that plans, configs
# and checkpoints use, and drives parameter binding; the accountant
# deliberately re-derives sizes from closed-form formulas instead of
# reading it.
#
# Each row is (name, sub-component, shape, init kind). Shapes are written
# in the symbols d (model dim), n (feed-forward width), w (conv kernel
# width) and 2d. Init kinds: "matrix" draws uniform +-sqrt(6/(fan_in+fan_out)),
# "zeros"/"ones" are what they say; "rel_table" is the encoder-level
# relative-position table, a matrix with fan (d, d).
_FF_TENSORS = (
    ("ln.gamma", "misc_small", ("d",), "ones"),
    ("ln.beta", "misc_small", ("d",), "zeros"),
    ("linear1.w", "linear1", ("d", "n"), "matrix"),
    ("linear1.b", "linear1", ("n",), "zeros"),
    ("linear2.w", "linear2", ("n", "d"), "matrix"),
    ("linear2.b", "linear2", ("d",), "zeros"),
)

INVENTORY = {
    "ff_start": _FF_TENSORS,
    "attention": (
        ("ln.gamma", "misc_small", ("d",), "ones"),
        ("ln.beta", "misc_small", ("d",), "zeros"),
        ("query.w", "query", ("d", "d"), "matrix"),
        ("query.b", "query", ("d",), "zeros"),
        ("key.w", "key", ("d", "d"), "matrix"),
        ("key.b", "key", ("d",), "zeros"),
        ("value.w", "value", ("d", "d"), "matrix"),
        ("value.b", "value", ("d",), "zeros"),
        ("post.w", "post", ("d", "d"), "matrix"),
        ("post.b", "post", ("d",), "zeros"),
        ("pos_query.w", "pos_query", ("d", "d"), "matrix"),
        ("pos_query.b", "pos_query", ("d",), "zeros"),
    ),
    "conv": (
        ("ln.gamma", "misc_small", ("d",), "ones"),
        ("ln.beta", "misc_small", ("d",), "zeros"),
        ("pre.w", "pre_conv", ("d", "2d"), "matrix"),
        ("pre.b", "pre_conv", ("2d",), "zeros"),
        ("depth.k", "depth_conv", ("w", "d"), "matrix"),
        ("norm.gamma", "misc_small", ("d",), "ones"),
        ("norm.beta", "misc_small", ("d",), "zeros"),
        ("post.w", "post_conv", ("d", "d"), "matrix"),
        ("post.b", "post_conv", ("d",), "zeros"),
    ),
    # The final layer norm caps the whole block; it travels with ff_end's
    # misc-small group so that unsharing misc weights covers it too.
    "ff_end": _FF_TENSORS + (
        ("final_ln.gamma", "misc_small", ("d",), "ones"),
        ("final_ln.beta", "misc_small", ("d",), "zeros"),
    ),
}
MODULE_TYPES = tuple(INVENTORY)


def module_tensor_specs(config: ModelConfig, module: str, lowrank_k: int | None):
    """Yield (tensor_name, subcomponent, shape, init_kind) for one module.

    A ``lowrank_k`` (None for a dense model) replaces each feed-forward
    weight matrix by its two factors; biases stay dense.
    """
    dims = {"d": config.d, "n": config.ffn_width, "w": config.kernel_width,
            "2d": 2 * config.d}
    for name, sub, symbols, kind in INVENTORY[module]:
        shape = tuple(dims[s] for s in symbols)
        if lowrank_k is not None and name in ("linear1.w", "linear2.w"):
            m, n = shape
            stem = name[:-2]
            yield f"{stem}.u", sub, (m, lowrank_k), "matrix"
            yield f"{stem}.v", sub, (n, lowrank_k), "matrix"
        else:
            yield name, sub, shape, kind


def init_tensor(shape: tuple[int, ...], kind: str, rng: Rng) -> Tensor:
    if kind == "ones":
        data = np.ones(shape)
    elif kind == "zeros":
        data = np.zeros(shape)
    elif kind in ("matrix", "rel_table"):
        # every matrix is 2-d; a rel_table's fan is taken as (d, d), since
        # its rows act as positional keys
        fan_in, fan_out = (shape[1], shape[1]) if kind == "rel_table" else shape
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
