from dataclasses import replace

import pytest

from confshare.accounting import (BLOCK_PCT_TARGETS, SizeBudget, composition_sse,
                                  count_params, fit_dim_to_budget, report_table)
from confshare.blocks import ModelConfig
from confshare.lowrank import LowRankSpec
from confshare.presets import calibrated_config, calibrated_defaults
from confshare.sharing import (ALL_MISC_SMALL, SharingPlan, bind_parameters,
                               repeat_plan, unshare_module, unshare_subcomponent)
from oracles import lowrank_param_count


def _cfg(**kw):
    base = dict(d=16, e=4, heads=4, kernel_width=3, t_max=32)
    base.update(kw)
    return ModelConfig(**base)


class TestCountParams:
    def test_totals_independent_of_repeats(self):
        cfg = _cfg()
        totals = {r: count_params(cfg, repeat_plan(4, r)).grand_total
                  for r in (1, 2, 3, 4)}
        assert len(set(totals.values())) == 1

    def test_unsharing_additivity(self):
        cfg = _cfg()
        base = repeat_plan(4, 3)
        before = count_params(cfg, base).grand_total
        after = count_params(cfg, unshare_subcomponent(base, ("attention", "key"))).grand_total
        d = cfg.d
        assert after - before == 8 * (d * d + d)  # (12 - 4) extra groups

    def test_additivity_generic(self):
        cfg = _cfg()
        base = repeat_plan(3, 2)
        report = count_params(cfg, base)
        sizes = {(r.module, r.sub): r.per_group for r in report.rows}
        for sub in (("ff_start", "linear1"), ("conv", "depth_conv"),
                    ("ff_end", "misc_small")):
            plan = (unshare_subcomponent(base, sub) if sub[1] != "misc_small"
                    else replace(base, unshared=ALL_MISC_SMALL))
            delta = count_params(cfg, plan).grand_total - report.grand_total
            if sub[1] == "misc_small":
                expected = sum((6 - 3) * sizes[(m, "misc_small")]
                               for m in ("ff_start", "attention", "conv", "ff_end"))
            else:
                expected = (6 - 3) * sizes[sub]
            assert delta == expected

    def test_count_equals_allocation(self):
        cfg = _cfg()
        for plan in (repeat_plan(2, 3),
                     unshare_module(repeat_plan(4, 3), "conv"),
                     replace(repeat_plan(2, 2), lowrank=LowRankSpec(k=3)),
                     replace(repeat_plan(2, 2), unshared=ALL_MISC_SMALL)):
            report = count_params(cfg, plan)
            store = bind_parameters(cfg, plan, seed=0)
            assert report.encoder_total == store.total_scalars()

    def test_lowrank_changes_only_ff_linear_rows(self):
        cfg = _cfg(d=16, e=4)
        dense = count_params(cfg, repeat_plan(2, 1))
        low = count_params(cfg, replace(repeat_plan(2, 1), lowrank=LowRankSpec(k=3)))
        d, n, k = 16, 64, 3
        for row_d, row_l in zip(dense.rows, low.rows):
            assert (row_d.module, row_d.sub) == (row_l.module, row_l.sub)
            if row_d.sub in ("linear1", "linear2"):
                m_in, m_out = (d, n) if row_d.sub == "linear1" else (n, d)
                assert row_d.total - row_l.total == (m_in * m_out - k * (m_in + m_out)) * row_d.groups
            else:
                assert row_d.total == row_l.total

    def test_lowrank_ff_rows_match_formula(self):
        cfg = _cfg(d=16, e=4)
        k = 3
        report = count_params(cfg, replace(repeat_plan(2, 1), lowrank=LowRankSpec(k=k)))
        rows = {(r.module, r.sub): r for r in report.rows}
        lin1 = rows[("ff_start", "linear1")]
        assert lin1.per_group == lowrank_param_count(16, 64, k, with_bias=True)
        lin2 = rows[("ff_start", "linear2")]
        assert lin2.per_group == lowrank_param_count(64, 16, k, with_bias=True)

    def test_block_param_count_decreases_with_rank(self):
        cfg = _cfg(d=16, e=4)
        totals = [count_params(cfg, replace(repeat_plan(1, 1),
                                            lowrank=LowRankSpec(k=k))).block_total
                  for k in (6, 4, 2, 1)]
        assert all(a > b for a, b in zip(totals, totals[1:]))

    def test_percentages_sum_to_100(self):
        report = count_params(_cfg(), repeat_plan(4, 3))
        total_pct = sum(r.percent for r in report.rows if r.percent is not None)
        assert abs(total_pct - 100.0) < 0.1

    def test_grand_total_is_rows_plus_external(self):
        cfg = _cfg(external_params=1234)
        report = count_params(cfg, repeat_plan(2, 1))
        assert report.grand_total == sum(r.total for r in report.rows) + 1234

    def test_rejects_invalid_plan(self):
        bad = SharingPlan(v=2, i_ff_start=(2, 2), i_attention=(1, 1),
                          i_conv=(1, 1), i_ff_end=(1, 1))
        with pytest.raises(ValueError, match="minimum group id"):
            count_params(_cfg(), bad)


class TestCalibration:
    def test_landing_point(self):
        cal = calibrated_defaults()
        assert cal.e == 7.25
        assert cal.kernel_width == 11
        assert cal.d == 144
        assert cal.heads == 4

    def test_fit_beats_neighbours(self):
        cal = calibrated_defaults()
        best = composition_sse(cal.d, cal.e, cal.kernel_width)
        for e in (cal.e - 0.25, cal.e + 0.25):
            assert composition_sse(cal.d, e, cal.kernel_width) >= best
        for w in (cal.kernel_width - 2, cal.kernel_width + 2):
            assert composition_sse(cal.d, cal.e, w) >= best

    def test_module_percentages_near_reference(self):
        report = count_params(calibrated_config(), repeat_plan(4, 3))
        module_pct = {}
        for row in report.rows:
            if row.percent is not None and row.sub != "misc_small":
                module_pct[row.module] = module_pct.get(row.module, 0.0) + row.percent
        targets = {"ff_start": 39.0, "attention": 14.0, "conv": 8.0, "ff_end": 39.0}
        for module, target in targets.items():
            assert abs(module_pct[module] - target) <= 1.0, (module, module_pct[module])

    def test_subcomponent_percentages_tracked(self):
        cal = calibrated_defaults()
        report = count_params(calibrated_config(), repeat_plan(1, 1))
        rows = {(r.module, r.sub): r.percent for r in report.rows}
        for key, target in BLOCK_PCT_TARGETS.items():
            assert abs(rows[key] - target) < 0.5, (key, rows[key], target)


class TestBudgetFit:
    def test_fixed_point(self):
        cfg = _cfg()
        plan = repeat_plan(2, 2)
        exact = count_params(replace(cfg, d=96), plan).grand_total
        fitted = fit_dim_to_budget(SizeBudget(exact), plan, cfg, step=8)
        assert fitted == 96

    def test_monotone_in_budget(self):
        cfg = _cfg()
        plan = repeat_plan(2, 2)
        dims = [fit_dim_to_budget(SizeBudget(b), plan, cfg, step=8)
                for b in (200_000, 400_000, 800_000, 1_600_000)]
        assert dims == sorted(dims)

    def test_matches_exhaustive_scan(self):
        cfg = _cfg()
        plan = unshare_module(repeat_plan(4, 3), "conv")
        for budget in (300_000, 5_030_000):
            fitted = fit_dim_to_budget(SizeBudget(budget), plan, cfg, step=8)
            feasible = [d for d in range(8, 513, 8)
                        if count_params(replace(cfg, d=d), plan).grand_total <= budget]
            assert fitted == max(feasible)

    def test_published_conv_unshared_dim(self):
        template = calibrated_config()
        plan = unshare_module(repeat_plan(4, 3), "conv")
        fitted = fit_dim_to_budget(SizeBudget(5_030_000), plan, template, step=8)
        assert abs(fitted - 136) <= 8

    def test_infeasible_budget_raises(self):
        cfg = _cfg(external_params=10_000_000)
        with pytest.raises(ValueError, match="cannot fit"):
            fit_dim_to_budget(SizeBudget(1_000, hard_ceiling=20_000_000),
                              repeat_plan(1, 1), cfg)

    def test_rejects_step_not_multiple_of_heads(self):
        with pytest.raises(ValueError, match="multiple of heads"):
            fit_dim_to_budget(SizeBudget(1_000_000), repeat_plan(1, 1),
                              _cfg(heads=4), step=2)

    def test_budget_validation(self):
        with pytest.raises(ValueError, match="ceiling"):
            SizeBudget(7_000_000, hard_ceiling=6_000_000)


class TestReportTable:
    def test_empty_plan_table(self):
        plan = SharingPlan(v=0, i_ff_start=(), i_attention=(), i_conv=(), i_ff_end=())
        text = report_table(count_params(_cfg(external_params=5), plan), format="tsv")
        lines = text.rstrip("\n").split("\n")
        assert lines[0].split("\t") == ["module", "sub_component", "groups",
                                        "per_group", "total", "percent"]
        # no block rows; the frontend/head allocations and external remain
        modules = [line.split("\t")[0] for line in lines[1:]]
        assert modules == ["encoder", "encoder", "external"]

    def test_sl5_table_structure(self):
        text = report_table(count_params(_cfg(), repeat_plan(4, 3)), format="tsv")
        lines = text.rstrip("\n").split("\n")
        rows = [line.split("\t") for line in lines[1:]]
        modules = [r[0] for r in rows]
        for module in ("ff_start", "attention", "conv", "ff_end"):
            assert modules.count(module) >= 3
        misc_rows = [r for r in rows if r[1] == "misc_small"]
        assert len(misc_rows) == 4
        # rendered at one decimal, so each of the 16 rows may round by 0.05;
        # the exact-sum invariant is asserted on the float report directly
        pct = sum(float(r[5]) for r in rows if r[5])
        assert abs(pct - 100.0) < 0.8

    def test_tsv_parseable_and_integer_counts(self):
        text = report_table(count_params(_cfg(), repeat_plan(2, 2)), format="tsv")
        for line in text.rstrip("\n").split("\n")[1:]:
            cells = line.split("\t")
            assert len(cells) == 6
            int(cells[2]); int(cells[3]); int(cells[4])
            if cells[5]:
                assert cells[5] == f"{float(cells[5]):.1f}"

    def test_byte_identical_across_runs(self):
        cfg = _cfg()
        plan = unshare_subcomponent(repeat_plan(4, 3), ("conv", "depth_conv"))
        a = report_table(count_params(cfg, plan), format="tsv")
        b = report_table(count_params(cfg, plan), format="tsv")
        assert a.encode() == b.encode()

    def test_pretty_contains_totals(self):
        text = report_table(count_params(_cfg(), repeat_plan(1, 1)))
        assert "grand_total" in text and "block_total" in text

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="unknown format"):
            report_table(count_params(_cfg(), repeat_plan(1, 1)), format="csv")
