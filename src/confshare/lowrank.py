"""Low-rank factorized linear layers.

A dense weight M (m x n) is replaced by factors U (m x k) and V (n x k)
applied as (x @ U) @ V^T (``blocks.apply_linear`` on a ``LowRankFactors``
pair), which never materializes the m x n product and cuts the weight
count from m*n to k*(m+n). Factors are trained from scratch.
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
    """Reject ranks that do not actually shrink the weight matrix."""
    if k < 1:
        raise ValueError(f"low-rank k must be >= 1, got {k}")
    if k * (m + n) >= m * n:
        raise ValueError(
            f"rank {k} does not reduce a {m}x{n} matrix: "
            f"{k}*({m}+{n})={k * (m + n)} >= {m * n}")

