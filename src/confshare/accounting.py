"""Exact parameter inventory, size evaluation, and budget fitting.

Counting is closed-form integer arithmetic derived from the config shapes;
it never touches allocated tensors, and the test suite cross-checks it
against what ``bind_parameters`` actually allocates. Named sub-component
rows include their attached bias vectors; the per-module "misc_small" rows
hold the layer norms (and the conv module's post-depthwise norm, and the
block's final norm, which travels with ff_end).

The relative-position table is a single encoder-level tensor: at the
default t_max it weighs far more than 1% of a block, so it is counted
explicitly as its own row rather than folded into any module, and it is
excluded from per-block percentages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .blocks import ModelConfig
from .sharing import (SUBCOMPONENTS, SharingPlan, check_lowrank, check_plan,
                      physical_group_counts)


@dataclass(frozen=True)
class ReportRow:
    module: str
    sub: str
    groups: int
    per_group: int
    total: int
    percent: float | None  # of one block; None for encoder-level rows


@dataclass(frozen=True)
class ParamReport:
    rows: tuple[ReportRow, ...]
    block_total: int      # one block, one group of everything
    encoder_total: int    # every scalar bind_parameters would allocate
    external_params: int
    grand_total: int


@dataclass(frozen=True)
class SizeBudget:
    max_params: int
    hard_ceiling: int = 6_000_000

    def __post_init__(self):
        if self.max_params < 1 or self.hard_ceiling < 1:
            raise ValueError("budget values must be positive")
        if self.max_params > self.hard_ceiling:
            raise ValueError(f"max_params {self.max_params} exceeds hard ceiling "
                             f"{self.hard_ceiling}")


def _named_sizes(d: int, n: int, w: int, k: int | None) -> dict[tuple[str, str], int]:
    """Size of one group of every block sub-component (bias included)."""
    lin1 = (k * (d + n) if k is not None else d * n) + n
    lin2 = (k * (n + d) if k is not None else n * d) + d
    proj = d * d + d
    sizes = {
        ("ff_start", "linear1"): lin1,
        ("ff_start", "linear2"): lin2,
        ("ff_start", "misc_small"): 2 * d,
        ("attention", "query"): proj,
        ("attention", "key"): proj,
        ("attention", "value"): proj,
        ("attention", "post"): proj,
        ("attention", "pos_query"): proj,
        ("attention", "misc_small"): 2 * d,
        ("conv", "pre_conv"): d * 2 * d + 2 * d,
        ("conv", "depth_conv"): w * d,
        ("conv", "post_conv"): proj,
        ("conv", "misc_small"): 4 * d,
        ("ff_end", "linear1"): lin1,
        ("ff_end", "linear2"): lin2,
        ("ff_end", "misc_small"): 4 * d,
    }
    return sizes


def block_params_one_group(d: int, n: int, w: int) -> int:
    """The scalars of one dense block, every sub-component one group."""
    return sum(_named_sizes(d, n, w, None).values())


def count_params(config: ModelConfig, plan: SharingPlan) -> ParamReport:
    """Counts every physical tensor exactly once: per-group sizes from the
    config shapes times the plan's physical group counts."""
    check_plan(plan)

    d, n, w = config.d, config.ffn_width, config.kernel_width
    k = plan.lowrank.k if plan.lowrank is not None else None
    sizes = _named_sizes(d, n, w, k)
    block_total = sum(sizes.values())
    groups = physical_group_counts(plan)

    rows = []
    if plan.v > 0:
        for module, subs in SUBCOMPONENTS.items():
            for sub in subs:
                per_group = sizes[(module, sub)]
                g = groups[(module, sub)]
                rows.append(ReportRow(
                    module=module, sub=sub, groups=g, per_group=per_group,
                    total=per_group * g,
                    percent=100.0 * per_group / block_total))

    frontend = config.input_dim * d + d
    rows.append(ReportRow("encoder", "frontend", 1, frontend, frontend, None))
    if plan.v > 0:
        rel = config.rel_table_len * d
        rows.append(ReportRow("encoder", "rel_table", 1, rel, rel, None))
    head = d * config.num_classes + config.num_classes
    rows.append(ReportRow("encoder", "head", 1, head, head, None))

    encoder_total = sum(r.total for r in rows)
    return ParamReport(rows=tuple(rows), block_total=block_total,
                       encoder_total=encoder_total,
                       external_params=config.external_params,
                       grand_total=encoder_total + config.external_params)


def fit_dim_to_budget(budget: SizeBudget, plan: SharingPlan,
                      template: ModelConfig, step: int = 8) -> int:
    """Largest step-aligned model dim whose count fits the budget.

    The count is strictly increasing in d, so a linear scan that stops at
    the first overshoot is exact. The template's own d is ignored. A
    low rank is checked at the fitted dim only: it may not reduce the
    feed-forward weights at the smaller dims the scan passes.
    """
    if step < 1 or step % template.heads != 0:
        raise ValueError(f"step must be a positive multiple of heads "
                         f"({template.heads}), got {step}")
    best = None
    d = step
    while True:
        total = count_params(replace(template, d=d), plan).grand_total
        if total > budget.max_params:
            break
        best = d
        d += step
    if best is None:
        raise ValueError(f"budget of {budget.max_params} cannot fit even d={step} "
                         f"(count {total})")
    try:
        check_lowrank(replace(template, d=best), plan)
    except ValueError as exc:
        raise ValueError(f"fitted d={best}: {exc}") from None
    return best


# ---------------------------------------------------------------------------
# calibration
#
# The reference model family publishes only a per-block composition
# breakdown (percent per sub-component), a per-block total of roughly
# 0.7M, and grand totals per configuration. The hyperparameters behind
# those numbers are not published, so we fit them: choose the expansion
# factor e and kernel width w minimizing squared error against the
# composition percentages, then the smallest head-aligned d whose block
# reaches the per-block target (so grand totals line up with the published
# virtual-layer sweeps). Everything downstream treats the result as an
# assumption, not a fact.

BLOCK_PCT_TARGETS: dict[tuple[str, str], float] = {
    ("ff_start", "linear1"): 19.5,
    ("ff_start", "linear2"): 19.5,
    ("attention", "query"): 2.8,
    ("attention", "key"): 2.8,
    ("attention", "value"): 2.8,
    ("attention", "post"): 2.8,
    ("attention", "pos_query"): 2.8,
    ("conv", "pre_conv"): 5.2,
    ("conv", "depth_conv"): 0.2,
    ("conv", "post_conv"): 2.6,
    ("ff_end", "linear1"): 19.5,
    ("ff_end", "linear2"): 19.5,
}

BLOCK_TARGET_PARAMS = 700_000
DEFAULT_HEADS = 4
CALIBRATION_STEP = 8  # the calibrated d is a multiple of this, and so of the heads


@dataclass(frozen=True)
class CalibratedDefaults:
    e: float
    kernel_width: int
    d: int


def _smallest_dim_reaching(target: int, e: float, w: int) -> int:
    d = CALIBRATION_STEP
    while block_params_one_group(d, math.ceil(e * d), w) < target:
        d += CALIBRATION_STEP
    return d


def composition_sse(d: int, e: float, w: int) -> float:
    sizes = _named_sizes(d, math.ceil(e * d), w, None)
    block = sum(sizes.values())
    err = 0.0
    for key, target in BLOCK_PCT_TARGETS.items():
        pct = 100.0 * sizes[key] / block
        err += (pct - target) ** 2
    return err


def calibrate() -> CalibratedDefaults:
    """Deterministic grid fit of (e, w, d) against the published block
    composition; e on a 0.25 grid in [4, 10], w odd in [3, 31], d a
    multiple of ``CALIBRATION_STEP``."""
    best = None
    for e_quarters in range(16, 41):
        e = e_quarters / 4.0
        for w in range(3, 32, 2):
            d = _smallest_dim_reaching(BLOCK_TARGET_PARAMS, e, w)
            cand = (composition_sse(d, e, w), e, w, d)
            if best is None or cand < best:
                best = cand
    _sse, e, w, d = best
    return CalibratedDefaults(e=e, kernel_width=w, d=d)


# ---------------------------------------------------------------------------
# rendering

_TSV_HEADER = "module\tsub_component\tgroups\tper_group\ttotal\tpercent"


def _row_cells(row: ReportRow) -> list[str]:
    pct = f"{row.percent:.1f}" if row.percent is not None else ""
    return [row.module, row.sub, str(row.groups), str(row.per_group),
            str(row.total), pct]


def report_table(report: ParamReport, format: str) -> str:
    """Deterministic textual report in ``format``, ``pretty`` (aligned
    columns) or ``tsv``, the machine format: one header row, tab
    separators, integer counts, one-decimal percentages."""
    rows = [_row_cells(r) for r in report.rows]
    rows.append(["external", "params", "1", str(report.external_params),
                 str(report.external_params), ""])
    if format == "tsv":
        return "\n".join([_TSV_HEADER] + ["\t".join(r) for r in rows]) + "\n"
    if format != "pretty":
        raise ValueError(f"unknown format {format!r}, expected 'tsv' or 'pretty'")
    header = _TSV_HEADER.split("\t")
    widths = [max(len(header[i]), max((len(r[i]) for r in rows), default=0))
              for i in range(len(header))]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header))]
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(r)))
    lines.append("")
    lines.append(f"block_total    {report.block_total}")
    lines.append(f"encoder_total  {report.encoder_total}")
    lines.append(f"external       {report.external_params}")
    lines.append(f"grand_total    {report.grand_total}")
    return "\n".join(lines) + "\n"
