"""Self-test of the benchmark: a minimal-length run of every workload.

    python3 bench/selftest.py

Runs each workload untraced and traced for about a second (toy_train
untraced long enough to have a p90) and asserts that:

* the last line holds ``correct``, ``attempted``, ``failed`` and exactly
  the metrics BENCHMARK.json names for the mode, each with its unit;
* no output check failed;
* the result file carries ``setup_s``, ``op_ms.p50``, ``peak_rss_mib`` and
  ``fail_ratio`` everywhere, ``frames_per_s`` where frames flow, and
  ``op_ms.p90`` where the run has the samples for it;
* every per-layer metric of a layer the workload calls is non-zero;
* in a directory holding only BENCHMARK.json and bench/, the benchmark
  exits non-zero without printing a result.

Exit code 0 when every assertion holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

BLOCKS = {f"blocks.{b}.{d}_ms" for b in ("feed_forward", "attention", "conv_module",
                                         "conformer_block") for d in ("fwd", "bwd")}
TAPE = {"autodiff.tape_nodes", "autodiff.tape_mib", "autodiff.leaf_mib",
        "autodiff.tape_nodes.matmul", "autodiff.tape_mib.matmul",
        "blocks.attention.rel_offsets_used"}
LOWRANK = {"lowrank.factored_linear.fwd_ms", "lowrank.factored_linear.bwd_ms"}
COMMON = {"encoder.bind_model.ms", "sharing.bind_parameters.ms", "sharing.params_mib",
          "sharing.max_group_uses", "bench.self_ms", "trace.op_ms.p50",
          "trace.untraced_op_ms.p50", "trace.overhead"}
# per-layer metrics that must be non-zero on each workload
EXERCISED = {
    "toy_train": COMMON | BLOCKS | TAPE | {
        "training.generate_toy_batch.ms", "training.batch_loss.ms",
        "training.optimizer_step.ms", "autodiff.backward.ms", "training.loss_evals",
        "training.self_ms", "autodiff.self_ms"},
    "fd_gradcheck": COMMON | BLOCKS | TAPE | LOWRANK | {
        "training.gradcheck_model.ms", "training.loss_evals", "training.self_ms"},
    "paper_lrs3": COMMON | BLOCKS | TAPE | LOWRANK | {
        "encoder.encoder_forward.ms", "encoder.block_evals", "autodiff.backward.ms",
        "presets.preset.ms", "training.loss_evals", "encoder.self_ms", "autodiff.self_ms"},
    "preset_sweep": COMMON | {
        "accounting.count_params.ms", "accounting.fit_dim_to_budget.ms",
        "configio.serialize_config.ms", "configio.parse_config_text.ms",
        "checkpoint.save_checkpoint.ms", "checkpoint.load_checkpoint.ms",
        "checkpoint.mib", "presets.preset.ms", "checkpoint.self_ms", "encoder.self_ms"},
}
FRAMES = {"toy_train", "fd_gradcheck", "paper_lrs3"}
SEED = 7
P90_SECONDS = {"toy_train": 15}


def check(ok: bool, message: str, problems: list[str]):
    if not ok:
        problems.append(message)


def run(workload: str, trace: int, seconds: float, cwd: Path = ROOT):
    return subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(SEED), "--seconds", f"{seconds:g}",
                           "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=600, check=False)


def check_contract(problems: list[str]):
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in CONTRACT[key]]
    check(len(names) == len(set(names)), "metric names repeat in BENCHMARK.json", problems)
    check(set(CONTRACT["paths"]) == {"bench"}, "BENCHMARK.json paths is not [bench]", problems)
    check([w["name"] for w in CONTRACT["workloads"]] == list(EXERCISED),
          "BENCHMARK.json workloads differ from the self-test's", problems)
    e2e = {m["name"]: m for m in CONTRACT["end_to_end"]}
    check(e2e.get("setup_s", {}).get("unit") == "s", "setup_s missing or not in s", problems)
    check(all(0 < m["bound"] <= 0.25 for m in e2e.values()), "a bound is out of (0, 0.25]",
          problems)
    check(e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values()),
          "setup_s does not have the largest bound", problems)


def check_run(workload: str, trace: int, problems: list[str]):
    seconds = P90_SECONDS.get(workload, 1) if not trace else 1
    proc = run(workload, trace, seconds)
    where = f"{workload} trace {trace}"
    if proc.returncode != 0:
        problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(line) == {"correct", "attempted", "failed", "metrics"},
          f"{where}: last line keys {sorted(line)}", problems)
    check(line["correct"] and line["failed"] == 0 and line["attempted"] >= 1,
          f"{where}: correct={line['correct']} failed={line['failed']} "
          f"attempted={line['attempted']}", problems)
    specs = CONTRACT["per_layer" if trace else "end_to_end"]
    check(set(line["metrics"]) == {m["name"] for m in specs},
          f"{where}: metrics differ from BENCHMARK.json", problems)
    for m in specs:
        got = line["metrics"].get(m["name"], {})
        check(got.get("unit") == m["unit"] and isinstance(got.get("value"), (int, float)),
              f"{where}: {m['name']} is {got}", problems)
        if trace and m["name"] in EXERCISED[workload]:
            check(got.get("value", 0) > 0, f"{where}: {m['name']} reads 0", problems)
        if not trace:
            check(got.get("value", 0) > 0, f"{where}: {m['name']} reads 0", problems)

    result = json.loads((BENCH / "results" / f"{workload}.seed{SEED}.trace{trace}.json")
                        .read_text(encoding="utf-8"))
    metrics = result["metrics"]
    units = {"setup_s": "s", "op_ms.p50": "ms", "peak_rss_mib": "MiB", "fail_ratio": "ratio"}
    if workload in FRAMES:
        units["frames_per_s"] = "frames/s"
    n = result["samples"]["traced"].count(False)
    if workload in P90_SECONDS and not trace:
        check(n >= 100, f"{where}: {n} samples, too few for a p90", problems)
        units["op_ms.p90"] = "ms"
    for name, unit in units.items():
        check(metrics.get(name, {}).get("unit") == unit,
              f"{where}: result file lacks {name} in {unit}", problems)
    check(metrics["fail_ratio"]["value"] == 0, f"{where}: fail_ratio is not 0", problems)
    for key in ("numpy", "scipy", "blas", "python", "nproc", "cpu_model", "git_commit",
                "seed", "run_seconds", "thread_pins"):
        check(key in result["provenance"], f"{where}: provenance lacks {key}", problems)


def check_bare_directory(problems: list[str]):
    (BENCH / "results").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "results") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        (bare / "bench").mkdir()
        for path in BENCH.glob("*.py"):
            shutil.copy(path, bare / "bench" / path.name)
        proc = run("toy_train", 0, 1, cwd=bare)
        check(proc.returncode != 0, "bare directory: exit code 0", problems)
        check('"metrics"' not in proc.stdout, "bare directory: printed a result", problems)


def main() -> int:
    problems: list[str] = []
    check_contract(problems)
    check_bare_directory(problems)
    for workload in EXERCISED:
        for trace in (0, 1):
            check_run(workload, trace, problems)
            print(f"{workload} trace {trace}: done", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
