"""Compare two sets of benchmark results, parent against change.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the ``<workload>.seed<n>.trace0.json`` files that
``bench/run.py`` writes into ``bench/results/``. The tool prints one row
per workload and end-to-end metric of BENCHMARK.json, plus ``fail_ratio``:
both medians with their quartiles, the share of pairs the change won
(runs are paired by seed), and a verdict:

* gain: the change won at least 9 in 10 pairs (ties count for neither)
  and its median is better than the parent's by more than the parent's
  quartile distance;
* worse: the change's median is worse than the parent's by more than
  the metric's bound (for ``fail_ratio``: higher at all);
* unresolved: the parent's own spread is wider than the bound, and not
  every run of the change reads better than every parent run;
* within bound: otherwise.

Exit code 1 if any row is worse, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

CONTRACT = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
GAIN_SHARE = 0.9


def load(directory: Path) -> dict[str, dict[int, dict]]:
    """{workload: {seed: metrics}} from every untraced result file."""
    runs: dict[str, dict[int, dict]] = {}
    for path in sorted(directory.glob("*.trace0.json")):
        result = json.loads(path.read_text(encoding="utf-8"))
        seed = result["provenance"]["seed"]
        runs.setdefault(result["workload"], {})[seed] = result["metrics"]
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _cell(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            lower_better: bool, bound: float) -> tuple[str, float]:
    sign = 1.0 if lower_better else -1.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    wins = sum(sign * (c - p) < 0 for p, c in pairs)
    share = wins / len(pairs) if pairs else 0.0
    gained = sign * (pm - cm)  # > 0 when the change is better
    if pairs and share >= GAIN_SHARE and gained > p3 - p1:
        return "gain", share
    if -gained > bound * abs(pm):
        return "worse", share
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if pm and (p3 - p1) / abs(pm) > bound and not all_better:
        return "unresolved", share
    return "within bound", share


def compare(parent_dir: Path, change_dir: Path, contract: dict) -> tuple[list[str], bool]:
    parent, change = load(parent_dir), load(change_dir)
    metrics = [(m["name"], m["unit"], m["better"] == "lower", m["bound"])
               for m in contract["end_to_end"]]
    metrics.append(("fail_ratio", "ratio", True, 0.0))
    lines = [f"{'workload':<13} {'metric':<13} {'unit':<6} {'parent median [q1, q3]':<34} "
             f"{'change median [q1, q3]':<34} {'won':>4}  verdict"]
    any_worse = False
    for workload in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(workload, {}), change.get(workload, {})
        if not p_runs or not c_runs:
            lines.append(f"{workload:<13} missing on the {'parent' if not p_runs else 'change'} side")
            continue
        seeds = sorted(set(p_runs) & set(c_runs))
        for name, unit, lower_better, bound in metrics:
            p = [r[name]["value"] for r in p_runs.values()]
            c = [r[name]["value"] for r in c_runs.values()]
            pairs = [(p_runs[s][name]["value"], c_runs[s][name]["value"]) for s in seeds]
            v, share = verdict(p, c, pairs, lower_better, bound)
            any_worse |= v == "worse"
            lines.append(f"{workload:<13} {name:<13} {unit:<6} {_cell(quartiles(p)):<34} "
                         f"{_cell(quartiles(c)):<34} {share:>4.0%}  {v}")
    return lines, any_worse


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="bench/compare.py",
                                 description="Diff two sets of benchmark results.")
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    for d in (args.parent, args.change):
        if not d.is_dir():
            ap.error(f"{d} is not a directory")
    contract = json.loads(CONTRACT.read_text(encoding="utf-8"))
    lines, any_worse = compare(args.parent, args.change, contract)
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
