"""Low-rank factorized linear layers and a small-matrix SVD oracle.

A dense weight M (m x n) is replaced by factors U (m x k) and V (n x k)
applied as (x @ U) @ V^T (``blocks.apply_linear`` on a ``LowRankFactors``
pair), which never materializes the m x n product and
cuts the weight count from m*n to k*(m+n). Factors are trained from
scratch; ``svd_truncate`` (one-sided Jacobi) exists for property tests and
for compressing an existing dense matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ShapeError, Tensor


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


def check_rank_reduces(m: int, n: int, k: int):
    """Reject ranks that do not actually shrink the weight matrix."""
    if k < 1:
        raise ValueError(f"low-rank k must be >= 1, got {k}")
    if k * (m + n) >= m * n:
        raise ValueError(
            f"rank {k} does not reduce a {m}x{n} matrix: "
            f"{k}*({m}+{n})={k * (m + n)} >= {m * n}")


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
