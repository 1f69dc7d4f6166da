"""treeshift benchmark: seeded CLI workloads, end-to-end and per-layer.

    python3 bench/run.py --workload catalog --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from the repository root (or anywhere: paths are resolved from this
file).  The program under test is ``src/treeshift``; nothing needs to be
installed.  For each workload the benchmark

1. generates the workload's spec files from ``--seed`` (bench/workloads.py);
2. runs the operations in one fresh worker process (bench/worker.py):
   one warm-up pass, then whole timed passes for ``--seconds``; the
   worker also measures ``setup_s``, the time from spawning a fresh
   interpreter until ``treeshift.cli`` is imported, and scales every
   time to a reference host speed with an interleaved calibration
   kernel (bench/README.md explains why);
3. checks every operation's outcome and prints the metrics, one per
   line, then one JSON object as the last line of standard output.

With ``--trace 0`` the JSON metrics are the end-to-end metrics, measured
untraced.  With ``--trace 1`` they are the per-layer metrics of a traced
run (bench/tracer.py), plus ``matrices.cold_eigh_ms`` and the tracing
overhead.  Timed runs pin the BLAS thread count to 1: with more threads
than the operations can use, the first threaded ``eigh`` in a process
stalls for hundreds of milliseconds and some demos slow down several
times; the cold-eigh probe keeps that stall visible with the machine's
default thread count.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# A run must end within 180 s; the worker is stopped before that.
DEADLINE_S = 170.0

END_TO_END = [("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MB")]

_COLD_EIGH = """
import time
from treeshift.matrices import verify_table1
from treeshift.shifts import WeightSpec, build_shift
from treeshift.trees import comb_tree_spec, materialize
shift = build_shift(WeightSpec("adjacency"), materialize(comb_tree_spec(2, 20)))
start = time.perf_counter()
verify_table1(shift, "quasi_brownian", nmax=8)
print((time.perf_counter() - start) * 1e3)
"""


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _env(pinned: bool) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for key in BLAS_PINS:
        if pinned:
            env[key] = "1"
        else:
            env.pop(key, None)
    return env


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("time budget exhausted")
    return left


def cold_eigh_ms(deadline: float) -> float:
    """First verify_table1 in a fresh process with default BLAS threads."""
    proc = subprocess.run([sys.executable, "-c", _COLD_EIGH], env=_env(False),
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=_remaining(deadline))
    if proc.returncode != 0:
        raise BenchError(f"cold eigh probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip())


def run_worker(workload: str, seed: int, seconds: int, trace: bool,
               deadline: float) -> dict:
    work = ROOT / ".bench_run" / workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "specs").mkdir(parents=True)
    (work / "out").mkdir()
    ops = workloads.generate(workload, seed)
    manifest = {"seconds": seconds, "trace": trace,
                "ops": [op.to_manifest(work / "specs", work / "out")
                        for op in ops]}
    (work / "manifest.json").write_text(json.dumps(manifest),
                                        encoding="utf-8")
    result_path = work / "result.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(work / "manifest.json"),
         str(result_path)], env=_env(True), cwd=ROOT, capture_output=True,
        text=True, timeout=_remaining(deadline))
    if proc.returncode != 0:
        raise BenchError(f"worker failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def percentile(values: list[float], pct: float) -> tuple[float, int]:
    """The pct-th percentile, interpolated as statistics.median does at
    pct = 50, and the number of samples above it."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    value = ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
    return value, sum(v > value for v in ordered)


def _timings(setup: list[float], lat: list[float], pct: float) -> dict:
    return {"setup_s": statistics.median(setup),
            "ops_per_s": len(lat) / sum(lat),
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_tail_ms": percentile(lat, pct)[0] * 1e3}


def end_to_end(workload: str, res: dict) -> tuple[dict, dict]:
    """Timings scaled to the reference host speed, and notes giving the
    sample counts and the raw (unscaled) values."""
    pct = workloads.TAIL_PERCENTILE[workload]
    lat = res["scaled_latencies_s"]
    metrics = _timings(res["scaled_setup_s"], lat, pct)
    metrics["peak_rss_mb"] = res["peak_rss_mb"]
    raw = _timings(res["setup_s"], res["latencies_s"], pct)
    beyond = percentile(lat, pct)[1]
    notes = {
        "setup_s": f"median of {len(res['setup_s'])} fresh interpreters",
        "ops_per_s": f"{len(lat)} operations inside main()",
        "op_p50_ms": f"median of {len(lat)} samples",
        "op_tail_ms": f"p{pct:g} of {len(lat)} samples, {beyond} beyond it"
                      + ("" if beyond >= 10 else " (fewer than 10)"),
        "peak_rss_mb": "worker process, ru_maxrss",
    }
    for name, value in raw.items():
        notes[name] += f"; raw {value:.6g}"
    return metrics, notes


def per_layer(res: dict, cold_ms: float) -> tuple[dict, list[str]]:
    """Median per traced pass; exact counts must agree across passes."""
    passes = res["per_pass"]
    metrics, unstable = {}, []
    for name, _ in tracing.PER_LAYER:
        values = [p.get(name, 0) for p in passes]
        if name in tracing.EXACT and len(set(values)) > 1:
            unstable.append(name)
        metrics[name] = statistics.median(values) if values else 0
    metrics["matrices.cold_eigh_ms"] = cold_ms
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(res["traced_pass_s"])
        / statistics.median(res["untraced_pass_s"]) - 1.0)
    return metrics, unstable


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 deadline: float) -> dict:
    res = run_worker(workload, seed, seconds, trace, deadline)
    incorrect = res["failed"] - res["crashed"]
    correct = incorrect == 0 and not res["mismatches"]
    print(f"workload {workload}  seed {seed}  trace {int(trace)}: "
          f"{res['passes']} passes x {res['ops_per_pass']} operations, "
          f"attempted {res['attempted']}, failed {res['failed']} "
          f"(exceptions {res['crashed']}, wrong outcomes {incorrect}, "
          f"reports changed between passes {res['mismatches']})")
    for name, problems in sorted(res["problems"].items()):
        print(f"  failed {name}: {'; '.join(problems)}")
    print(f"  failed_op_frac  {res['failed'] / res['attempted']:.6g} ratio")
    if trace:
        metrics, unstable = per_layer(res, cold_eigh_ms(deadline))
        if unstable:
            correct = False
            print(f"  exact counts differ between passes: {unstable}")
        units = dict(tracing.PER_LAYER)
        notes = {}
    else:
        metrics, notes = end_to_end(workload, res)
        units = dict(END_TO_END)
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:42s} {value:.6g} {units[name]}{note}")
    kernel = statistics.median(res["kernel_s"])
    print(f"  host speed: calibration kernel median {kernel * 1e3:.3f} ms "
          f"over {len(res['kernel_s'])} samples (reference "
          f"{res['reference_kernel_s'] * 1e3:.3f} ms)")
    print(f"  env {json.dumps(res['env'], sort_keys=True)}")
    return {"correct": correct, "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "treeshift" / "cli.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'treeshift'} "
              f"is missing", file=sys.stderr)
        return 2
    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    deadline = time.monotonic() + DEADLINE_S * len(names)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace), deadline)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    for name in names:
        print(json.dumps({"workload": name, **results[name]}))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items()
                    for k, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
