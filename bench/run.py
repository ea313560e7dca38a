"""confshare benchmark: one workload per process, on one thread.

    python3 bench/run.py --workload toy_train --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads: toy_train, fd_gradcheck, paper_lrs3, preset_sweep (see
BENCHMARK.json for why each is there). Run from the repository root; the
benchmark imports confshare from ``src/`` of the same checkout.

The run sets up several times (the median is ``setup_s``), then runs
timed ops for ``--seconds``, checking every output. It prints each metric
by name with its unit and, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. A per-layer metric of a layer the workload never calls
reads 0. The full result, with provenance and every sample, is written
to ``bench/results/<workload>.seed<n>.trace<t>.json``; a traced run also
writes its spans there. ``bench/compare.py`` diffs two sets of results.

End-to-end times are scaled by a reference kernel run between ops (see
speed.py), because the machine's own speed drifts more than a change
moves them; each also appears unscaled with a ``.raw`` suffix. Memory and
counts are not scaled. ``op_ms.p90`` appears only when at least 10
samples lie above it. ``fail_ratio`` is ``failed`` over ``attempted``.

A traced run alternates pairs of untraced and traced ops, so its
``trace.overhead`` is the traced ops' median over the untraced ops'.

Exit codes: 0 the run was made (failed checks are reported, not fatal);
1 it could not be made (BLAS threads, set-up error); 2 usage, or no
confshare sources or BENCHMARK.json next to this directory.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

_STARTED = time.perf_counter()

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
CONTRACT = ROOT / "BENCHMARK.json"

WORKLOAD_NAMES = ("toy_train", "fd_gradcheck", "paper_lrs3", "preset_sweep")
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUPS = 3
LAYERS = ("autodiff", "blocks", "lowrank", "encoder", "sharing", "accounting",
          "training", "presets", "configio", "checkpoint", "bench")
P90_MIN_ABOVE = 10


class BenchError(Exception):
    """The run cannot be made; carries the exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def load_contract() -> dict:
    try:
        return json.loads(CONTRACT.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(2, f"cannot read {CONTRACT.name} at the repository root: {exc}")


def import_program():
    """Import confshare from this checkout's src/, never from elsewhere."""
    if not (SRC / "confshare" / "__init__.py").is_file():
        raise BenchError(2, "no confshare sources at src/confshare; run the benchmark "
                            "from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import confshare
    if Path(confshare.__file__).resolve().parent != SRC / "confshare":
        raise BenchError(2, f"imported confshare from {confshare.__file__}, "
                            f"not from {SRC / 'confshare'}")


# ---------------------------------------------------------------------------
# provenance


def _blas_runtime(np) -> dict:
    """Thread count and build string reported by the OpenBLAS numpy loaded."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            try:
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                config = getattr(lib, f"{prefix}_get_config{suffix}")
            except AttributeError:
                continue
            threads.restype = ctypes.c_int
            threads.argtypes = []
            config.restype = ctypes.c_char_p
            config.argtypes = []
            return {"threads": threads(), "runtime": config().decode("ascii", "replace"),
                    "library": path.name}
    return {"threads": None, "runtime": "unknown", "library": "unknown"}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _code_sha256() -> str:
    """Digest of the program and benchmark sources, which identifies the
    code where no git metadata is at hand."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _dist_version(name: str) -> str:
    try:
        return metadata.version(name)
    except metadata.PackageNotFoundError:
        return "not installed"


def provenance(np, args) -> dict:
    try:
        blas_build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas_build = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _dist_version("scipy"),
        "blas": {"name": blas_build.get("name", "unknown"),
                 "version": blas_build.get("version", "unknown"),
                 "build": blas_build.get("openblas configuration", "unknown"),
                 **_blas_runtime(np)},
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "code_sha256": _code_sha256(),
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "thread_pins": {v: os.environ.get(v) for v in THREAD_PINS},
    }


# ---------------------------------------------------------------------------
# measurement


def _result_path(workload: str, seed: int, trace: int) -> Path:
    return RESULTS / f"{workload}.seed{seed}.trace{trace}.json"


def _earlier_fingerprint(workload: str, seed: int, code: str) -> str | None:
    """The set-up fingerprint an earlier run of this seed and code recorded."""
    for trace in (0, 1):
        try:
            old = json.loads(_result_path(workload, seed, trace).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue
        if old.get("provenance", {}).get("code_sha256") == code:
            return old.get("fingerprint")
    return None


def _p90(values: list[float]) -> float | None:
    """The 90th percentile, if at least P90_MIN_ABOVE samples lie above it."""
    if len(values) < 10 * P90_MIN_ABOVE:
        return None
    q = statistics.quantiles(values, n=10)[8]
    return q if sum(v > q for v in values) >= P90_MIN_ABOVE else None


def measure(cls, args, import_s: float, code: str):
    from speed import SpeedGauge
    from tracing import Tracer

    gauge = SpeedGauge()
    import_scale = gauge.now()
    tr = Tracer()
    tr.enabled = bool(args.trace)
    setup_s, setup_scale, fingerprints = [], [], []
    w = None
    try:
        for _ in range(SETUPS):
            if w is not None:
                w.close()
                w = None  # free the last set-up's model before the next
            w = cls(args.seed, tr, str(RESULTS))
            t0 = time.perf_counter()
            fingerprints.append(tr.call("bench.setup", w.setup))
            setup_s.append(time.perf_counter() - t0)
            setup_scale.append(gauge.scale(setup_s[-1]))
    except Exception as exc:
        raise BenchError(1, f"set-up of {cls.name} failed: {type(exc).__name__}: {exc}")

    # Determinism checks ride on the first op's outcome.
    first_checks = []
    if len(set(fingerprints)) != 1:
        first_checks.append("set-ups with one seed gave different outputs")
    earlier = _earlier_fingerprint(cls.name, args.seed, code)
    if earlier is not None and earlier != fingerprints[0]:
        first_checks.append("output differs from an earlier run with this seed and code")

    op_s, op_scale, traced, frames, failures = [], [], [], [], []
    failed_ops = 0
    # a traced run needs ops 0-1 untraced and op 2 traced at the least
    min_ops = 3 if args.trace else 1
    start = time.perf_counter()
    i = 0
    try:
        while i < min_ops or time.perf_counter() - start < args.seconds:
            tr.enabled = bool(args.trace) and (i // 2) % 2 == 1
            tr.phase = i
            t0 = time.perf_counter()
            try:
                n_frames, failed = tr.call("bench.op", w.op, i)
            except Exception as exc:  # a failing op is counted, never fatal
                n_frames, failed = 0, [f"op {i}: {type(exc).__name__}: {exc}"]
            op_s.append(time.perf_counter() - t0)
            op_scale.append(gauge.scale(op_s[-1]))
            if i == 0:
                failed = first_checks + failed
            traced.append(tr.enabled)
            frames.append(n_frames)
            failed_ops += bool(failed)
            failures += failed
            i += 1
        layer = {}
        if args.trace:
            tr.enabled, tr.phase = True, "probe"
            layer = tr.call("bench.probe", w.probe)
            layer.update(w.layer)
    finally:
        w.close()

    plain = [j for j, t in enumerate(traced) if not t]
    e2e = {"peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
           "fail_ratio": (failed_ops / len(op_s), "ratio"),
           "speed.kernel_ms": (statistics.median(gauge.passes) * 1e3, "ms")}
    for suffix, imp, setups, ops in (
            ("", import_s * import_scale, [a * b for a, b in zip(setup_s, setup_scale)],
             [op_s[j] * op_scale[j] for j in plain]),
            (".raw", import_s, setup_s, [op_s[j] for j in plain])):
        e2e.update(time_metrics(suffix, imp, setups, ops, [frames[j] for j in plain]))
    if args.trace:
        layer.update(span_metrics(tr, op_s, traced))
    result = {
        "workload": cls.name,
        "correct": failed_ops == 0,
        "attempted": len(op_s),
        "failed": failed_ops,
        "failures": failures[:20],
        "fingerprint": fingerprints[0],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**e2e, **layer}.items()},
        "samples": {"op_s": op_s, "op_scale": op_scale, "traced": traced, "frames": frames,
                    "setup_s": setup_s, "setup_scale": setup_scale,
                    "import_s": import_s, "import_scale": import_scale},
    }
    return result, tr


def time_metrics(suffix: str, import_s: float, setups: list[float], ops: list[float],
                 frames: list[int]) -> dict[str, tuple[float, str]]:
    """The end-to-end times of the untraced ops, scaled or raw."""
    out = {f"setup_s{suffix}": (import_s + statistics.median(setups), "s"),
           f"op_ms.p50{suffix}": (statistics.median(ops) * 1e3, "ms"),
           f"ops_per_s{suffix}": (len(ops) / sum(ops), "1/s")}
    p90 = _p90(ops)
    if p90 is not None:
        out[f"op_ms.p90{suffix}"] = (p90 * 1e3, "ms")
    if sum(frames):
        out[f"frames_per_s{suffix}"] = (sum(frames) / sum(ops), "frames/s")
    return out


def span_metrics(tr, op_s, traced) -> dict[str, tuple[float, str]]:
    """Per-call medians, per-op self time of each layer, trace overhead.

    ``<function>.ms`` is the median call within traced ops, or within
    set-up for a function only set-up calls.
    """
    in_ops: dict[str, list[float]] = {}
    in_setup: dict[str, list[float]] = {}
    self_ms = dict.fromkeys(LAYERS, 0.0)
    for (_sid, name, start, end, _parent, phase), own in zip(tr.spans, tr.self_times()):
        if phase == "probe":
            continue
        ops = isinstance(phase, int)
        if not name.startswith("bench."):
            (in_ops if ops else in_setup).setdefault(name, []).append((end - start) * 1e3)
        if ops:
            self_ms[name.split(".", 1)[0]] += own * 1e3
    n_traced = sum(traced)
    out = {f"{name}.ms": (statistics.median(v), "ms")
           for name, v in {**in_setup, **in_ops}.items()}
    out.update({f"{layer}.self_ms": (v / n_traced, "ms") for layer, v in self_ms.items()})
    with_trace = statistics.median(s for s, t in zip(op_s, traced) if t) * 1e3
    without = statistics.median(s for s, t in zip(op_s, traced) if not t) * 1e3
    out["trace.op_ms.p50"] = (with_trace, "ms")
    out["trace.untraced_op_ms.p50"] = (without, "ms")
    out["trace.overhead"] = (with_trace / without, "ratio")
    return out


def contract_metrics(result: dict, contract: dict, trace: int) -> dict:
    """The metrics BENCHMARK.json names for this mode, with its units."""
    out = {}
    for spec in contract["per_layer" if trace else "end_to_end"]:
        name, unit = spec["name"], spec["unit"]
        got = result["metrics"].get(name)
        if got is None:
            if not trace:
                raise BenchError(1, f"end-to-end metric {name} was not measured")
            got = {"value": 0.0, "unit": unit}  # this workload never calls the layer
        if got["unit"] != unit:
            raise BenchError(1, f"{name} measured in {got['unit']}, BENCHMARK.json says {unit}")
        out[name] = {"value": got["value"], "unit": unit}
    return out


def print_table(result: dict, trace: int):
    from speed import NOMINAL_S

    n = len(result["samples"]["op_s"])
    n_plain = n - sum(result["samples"]["traced"])
    print(f"workload {result['workload']}  seed {result['provenance']['seed']}  "
          f"seconds {result['provenance']['run_seconds']:g}  trace {trace}  "
          f"ops {n} ({n_plain} untraced)")
    notes = {"setup_s": f"median of {SETUPS} set-ups plus imports",
             "op_ms.p50": f"n={n_plain}", "op_ms.p90": f"n={n_plain}",
             "fail_ratio": f"{result['failed']} of {result['attempted']} ops"}
    metrics = result["metrics"]
    if "op_ms.p90" not in metrics:
        notes["op_ms.p90"] = f"not reported: n={n_plain}, needs {P90_MIN_ABOVE} samples above it"
    e2e = ("setup_s", "op_ms.p50", "op_ms.p90", "ops_per_s", "frames_per_s",
           "peak_rss_mib", "fail_ratio")
    print(f"  {'metric':<24} {'scaled':>12} {'raw':>12}  unit      "
          f"(scaled to a {NOMINAL_S * 1e3:g} ms reference kernel; it took "
          f"{metrics['speed.kernel_ms']['value']:.3g} ms)")
    for name in e2e:
        m, raw = metrics.get(name), metrics.get(name + ".raw", metrics.get(name))
        value = f"{m['value']:.6g}" if m else "-"
        raw_value = f"{raw['value']:.6g}" if raw else "-"
        unit = m["unit"] if m else ""
        print(f"  {name:<24} {value:>12} {raw_value:>12}  {unit:<9} {notes.get(name, '')}")
    shown = {*e2e, *(name + ".raw" for name in e2e), "speed.kernel_ms"}
    if trace:
        print("per-layer (traced ops; .ms is the median call, self_ms is per op):")
        for name in sorted(set(metrics) - shown):
            m = metrics[name]
            print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    for message in result["failures"]:
        print(f"  FAILED: {message}")


def run_one(args) -> int:
    for var in THREAD_PINS:
        os.environ[var] = "1"
    contract = load_contract()
    import_program()
    import numpy as np
    from workloads import WORKLOADS
    import_s = time.perf_counter() - _STARTED

    prov = provenance(np, args)
    threads = prov["blas"]["threads"]
    if threads is not None and threads > 1:
        raise BenchError(1, f"BLAS reports {threads} threads after pinning "
                            f"{', '.join(THREAD_PINS)} to 1; the benchmark needs one")
    RESULTS.mkdir(exist_ok=True)
    result, tr = measure(WORKLOADS[args.workload], args, import_s, prov["code_sha256"])
    result["provenance"] = prov
    stem = f"{args.workload}.seed{args.seed}"
    _result_path(args.workload, args.seed, args.trace).write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        tr.dump(RESULTS / f"{stem}.spans.jsonl")
    print_table(result, args.trace)
    line = {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": contract_metrics(result, contract, args.trace)}
    print(json.dumps(line), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    code = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)],
                              check=False)
        code = max(code, proc.returncode)
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run_all(args) if args.workload == "all" else run_one(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
