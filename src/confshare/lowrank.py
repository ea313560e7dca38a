"""Low-rank factorized linear layers.

A dense weight M (m x n) is replaced by factors U (m x k) and V (n x k)
applied as (x @ U) @ V^T, which never materializes the m x n product and
cuts the weight count from m*n to k*(m+n). Factors are trained from
scratch. In a feed-forward (``blocks.feed_forward``) the products
between U1 and V2 are one ``linear_swish_matmul`` node,
swish((x @ U1) @ V1^T + b1) @ U2, so the tape keeps the (rows, k)
product x @ U1 and no (rows, n) array. ``blocks.apply_linear`` applies
one factored linear on its own; it takes factors only, since a dense
linear is one ``matmul``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .autodiff import Tensor


@dataclass(frozen=True)
class LowRankSpec:
    """Rank applied to both feed-forward linears of every block."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"low-rank k must be >= 1, got {self.k}")


@dataclass
class LowRankFactors:
    """Weight-only factor pair standing in for a dense matrix inside a block."""

    u: Tensor  # (m, k)
    v: Tensor  # (n, k)


def check_rank_reduces(m: int, n: int, k: int):
    """Reject ranks that do not actually shrink the weight matrix. ``k``
    is a ``LowRankSpec`` rank, already at least 1."""
    if k * (m + n) >= m * n:
        raise ValueError(
            f"rank {k} does not reduce a {m}x{n} matrix: "
            f"{k}*({m}+{n})={k * (m + n)} >= {m * n}")

