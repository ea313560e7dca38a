"""Acceptance suite: one test (or parametrized row) per criterion, each at
its stated tolerance, printing one PASS/FAIL line per criterion. Run with

    pytest tests/test_acceptance.py -v -s

Criteria 7's SM0/SM3 rows are strict xfails: the published dim (96) and
size (4.93M) for those two rows are mutually inconsistent with any
expansion factor that fits the published block composition (the fit needs
e >= 8.55 while the SM2 row needs e <= 7.82), so no calibration can land
them within +-5%. Their deviations are still computed and reported.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from confshare.accounting import (SizeBudget, count_params, fit_dim_to_budget)
from confshare.autodiff import Rng, Tensor, matmul
from confshare.blocks import ModelConfig, conformer_block
from confshare.cli import main as cli_main
from confshare.configio import serialize_config
from confshare.encoder import EvalCounter, bind_model, encoder_forward
from confshare.lowrank import LowRankSpec
from confshare.presets import (calibrated_config, calibrated_defaults, preset,
                               preset_names)
from confshare.sharing import (FRONTEND_B, FRONTEND_W, HEAD_B, HEAD_W,
                               repeat_plan, unshare_module)
from confshare.training import (OptimizerState, ToyTaskSpec,
                                generate_toy_batch, gradcheck_model,
                                serialize_report, train_steps)
from oracles import all_presets, lowrank_param_count, svd_truncate


def _report(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_01_repeat_invariance_of_size():
    started = time.perf_counter()
    cfg = calibrated_config()
    totals = {r: count_params(cfg, repeat_plan(4, r)).grand_total for r in (1, 2, 3, 4)}
    elapsed = time.perf_counter() - started
    ok = len(set(totals.values())) == 1 and elapsed < 1.0
    _report(1, ok, f"repeat-invariance: totals {totals} ({elapsed * 1e3:.0f} ms)")


def test_02_virtual_composition_bitwise():
    started = time.perf_counter()
    cfg = ModelConfig(d=16, e=4, heads=4, kernel_width=3, t_max=32)
    model = bind_model(cfg, repeat_plan(1, 3), seed=21)
    x = Tensor(Rng(2).uniform(-1, 1, (6, cfg.input_dim)))
    logits = encoder_forward(x, model)
    block = model.virtual_blocks()[0]
    h = matmul(x, model.store[FRONTEND_W], bias=model.store[FRONTEND_B])
    for _ in range(3):
        h = conformer_block(h, block)
    manual = matmul(h, model.store[HEAD_W], bias=model.store[HEAD_B])
    bitwise = np.array_equal(logits.data, manual.data)

    counter = EvalCounter()
    model12 = bind_model(cfg, repeat_plan(4, 3), seed=22)
    encoder_forward(x, model12, counter)
    elapsed = time.perf_counter() - started
    ok = bitwise and counter.block_evals == 12 and elapsed < 1.0
    _report(2, ok, f"virtual composition: bitwise={bitwise}, "
                   f"evals={counter.block_evals}/12 ({elapsed * 1e3:.0f} ms)")


def test_03_allocation_consistency_all_presets():
    mismatches = []
    for p in all_presets(small=True):
        report = count_params(p.config, p.plan)
        model = bind_model(p.config, p.plan, seed=13)
        if report.encoder_total != model.store.total_scalars():
            mismatches.append((p.name, report.encoder_total,
                               model.store.total_scalars()))
    ok = not mismatches and len(preset_names()) >= 27
    _report(3, ok, f"allocation consistency: {len(preset_names())} presets, "
                   f"mismatches={mismatches}")


def test_04_gradient_accumulation_gradcheck():
    started = time.perf_counter()
    spec = ToyTaskSpec(frames=6, batch=2)
    batch = generate_toy_batch(spec, 3, 0)

    shared = bind_model(ModelConfig(d=8, e=7.25, heads=4, kernel_width=11),
                        repeat_plan(2, 3), seed=3)
    r1 = gradcheck_model(shared, batch, eps=1e-4, tol=1e-5)

    lowrank = bind_model(ModelConfig(d=16, e=7.25, heads=4, kernel_width=11),
                         replace(repeat_plan(2, 2), lowrank=LowRankSpec(k=4)), seed=5)
    r2 = gradcheck_model(lowrank, batch, eps=1e-4, tol=1e-5)
    elapsed = time.perf_counter() - started
    ok = r1.passed and r2.passed and elapsed < 120.0
    _report(4, ok, f"gradient accumulation: shared max={r1.max_rel_err:.2e}, "
                   f"shared+lowrank max={r2.max_rel_err:.2e} ({elapsed:.0f} s)")


def test_05_lowrank_counting():
    m, n, k = 144, 576, 50
    dense_with_bias = m * n + n
    factors_only = lowrank_param_count(m, n, k, with_bias=False)
    ok = dense_with_bias == 83_520 and factors_only == k * (m + n) == 36_000

    # accountant row vs the same formulas computed independently here
    cfg = ModelConfig(d=144, e=4, heads=4, kernel_width=11)
    plan = replace(repeat_plan(1, 1), lowrank=LowRankSpec(k=k))
    rows = {(r.module, r.sub): r for r in count_params(cfg, plan).rows}
    row = rows[("ff_start", "linear1")]
    ok = ok and row.per_group == k * (m + n) + n == 36_576
    ok = ok and lowrank_param_count(m, n, k, with_bias=True) == row.per_group
    _report(5, ok, f"low-rank counting: dense {dense_with_bias} -> factors "
                   f"{factors_only}, accountant row {row.per_group}")


def test_06_svd_oracle():
    rng = Rng(77)
    ok = True
    detail = []
    for trial in range(3):
        m = rng.uniform(-1, 1, (8, 5))
        sigma_ref = np.sqrt(np.clip(np.linalg.eigvalsh(m.T @ m), 0, None))[::-1]
        prev = np.inf
        for k in range(1, 6):
            r = svd_truncate(m, k)
            err = np.linalg.norm(m - r.u @ np.diag(r.sigma) @ r.v.T)
            expected = math.sqrt(float(np.sum(sigma_ref[k:] ** 2)))
            ok = ok and abs(err - expected) < 1e-8 and err <= prev + 1e-12
            prev = err
    a = rng.uniform(-1, 1, (8,))
    b = rng.uniform(-1, 1, (5,))
    exact = np.outer(a, b)
    r = svd_truncate(exact, 1)
    recon_err = float(np.max(np.abs(r.u @ np.diag(r.sigma) @ r.v.T - exact)))
    ok = ok and recon_err < 1e-10
    _report(6, ok, f"svd oracle: trailing-sigma match and monotone error; "
                   f"rank-1 reconstruction err {recon_err:.1e}")


_PUBLISHED_ROWS = [
    ("SL0", None, False), ("SL3", None, False), ("SL5", None, False),
    ("SM0", 96, True), ("SM1", 128, False), ("SM2", 136, False),
    ("SM3", 96, True), ("SM4", 120, False),
]


def _published_deviation(name):
    p = preset(name)
    total = count_params(p.config, p.plan).grand_total
    return total, p.published_total, 100.0 * (total - p.published_total) / p.published_total


@pytest.mark.parametrize(
    "name",
    [pytest.param(name,
                  marks=pytest.mark.xfail(
                      strict=True,
                      reason="published dim 96 and size 4.93M are inconsistent "
                             "with every expansion factor that fits the "
                             "published block composition") if xfail else ())
     for name, _d, xfail in _PUBLISHED_ROWS])
def test_07_published_totals_within_5pct(name):
    total, published, dev = _published_deviation(name)
    ok = abs(dev) <= 5.0
    print(f"ACCEPTANCE 07 {'PASS' if ok else 'FAIL'}: {name} computed "
          f"{total:,} vs published {published:,} ({dev:+.2f}%)")
    assert ok


def test_07_deviation_report_runtime():
    started = time.perf_counter()
    lines = []
    for name, _d, _xfail in _PUBLISHED_ROWS:
        total, published, dev = _published_deviation(name)
        lines.append(f"{name}: {total:,} vs {published:,} ({dev:+.2f}%)")
    elapsed = time.perf_counter() - started
    print("ACCEPTANCE 07 report: " + "; ".join(lines))
    assert elapsed < 1.0


def test_08_block_composition_percentages():
    report = count_params(calibrated_config(), repeat_plan(1, 1))
    module_pct = {}
    for row in report.rows:
        if row.percent is not None and row.sub != "misc_small":
            module_pct[row.module] = module_pct.get(row.module, 0.0) + row.percent
    targets = {"ff_start": 39.0, "attention": 14.0, "conv": 8.0, "ff_end": 39.0}

    # independent check of the accountant's arithmetic: rebuild the block
    # composition from first principles with plain integers
    cal = calibrated_defaults()
    d, w = cal.d, cal.kernel_width
    n = math.ceil(cal.e * d)
    named = {"ff_start": (d * n + n) + (n * d + d),  # two linears with biases
             "attention": 5 * (d * d + d),
             "conv": (2 * d * d + 2 * d) + w * d + (d * d + d),
             "ff_end": (d * n + n) + (n * d + d)}
    misc = {"ff_start": 2 * d, "attention": 2 * d, "conv": 4 * d, "ff_end": 4 * d}
    block = sum(named.values()) + sum(misc.values())
    ok = block == report.block_total
    deltas = {}
    for module, target in targets.items():
        independent = 100.0 * named[module] / block
        ok = ok and abs(module_pct[module] - independent) < 1e-9
        deltas[module] = module_pct[module] - target
        ok = ok and abs(deltas[module]) <= 1.0
    _report(8, ok, "block composition: deviations "
            + ", ".join(f"{m} {v:+.2f}pp" for m, v in deltas.items()))


def test_09_budget_fit_matches_exhaustive_scan():
    template = calibrated_config()
    sm2_plan = unshare_module(repeat_plan(4, 3), "conv")
    ok = True
    for plan, budget in ((sm2_plan, 5_030_000), (repeat_plan(4, 3), 4_840_000),
                         (repeat_plan(8, 1), 3_000_000)):
        fitted = fit_dim_to_budget(SizeBudget(budget), plan, template, step=8)
        feasible = [d for d in range(8, 513, 8)
                    if count_params(replace(template, d=d), plan).grand_total <= budget]
        ok = ok and fitted == max(feasible)
    sm2_fit = fit_dim_to_budget(SizeBudget(5_030_000), sm2_plan, template, step=8)
    ok = ok and abs(sm2_fit - 136) <= 8
    _report(9, ok, f"budget fit: exhaustive-scan agreement; conv-unshared plan "
                   f"at 5.03M -> d={sm2_fit} (within one step of 136)")


def test_10_toy_training_halves_loss_deterministically():
    started = time.perf_counter()
    cfg = ModelConfig(d=32, e=7.25, heads=4, kernel_width=11)
    plan = repeat_plan(2, 3)
    spec = ToyTaskSpec()

    reports = []
    for _ in range(2):
        model = bind_model(cfg, plan, seed=11)
        reports.append(train_steps(model, spec, OptimizerState(), steps=200, seed=11))
    texts = [serialize_report(r) for r in reports]
    elapsed = time.perf_counter() - started
    ratio = reports[0].final_loss / reports[0].initial_loss
    ok = (ratio <= 0.5 and texts[0].encode() == texts[1].encode()
          and elapsed < 300.0)
    _report(10, ok, f"toy training: final/initial={ratio:.3f} (<= 0.5), "
                    f"byte-identical reports ({elapsed:.0f} s)")


def test_11_plan_validation_exit_codes(tmp_path, capsys):
    base = preset("SL3")
    text = serialize_config(base.config, base.plan)
    fixtures = {
        "min": (text.replace("plan.i_attention = 1,2,3,4",
                             "plan.i_attention = 2,2,3,3"),
                "minimum group id must be 1"),
        "length": (text.replace("plan.i_conv = 1,2,3,4", "plan.i_conv = 1,2,3"),
                   "length must equal V"),
        "max": (text.replace("plan.i_ff_end = 1,2,3,4", "plan.i_ff_end = 1,2,3,5"),
                "must not exceed V"),
    }
    ok = True
    for label, (content, expected_message) in fixtures.items():
        path = tmp_path / f"{label}.conf"
        path.write_text(content)
        code = cli_main(["validate", "--config", str(path)])
        err = capsys.readouterr().err
        ok = ok and code == 1 and expected_message in err
    _report(11, ok, "plan validation: three constraint fixtures exit 1 with "
                    "their documented messages")
