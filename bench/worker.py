"""One workload in one fresh interpreter: warm up, then timed passes.

Usage: python3 bench/worker.py MANIFEST RESULT

The manifest (written by run.py) lists the operations and their
expected outcomes.  Each operation is one call of
``treeshift.cli.main``; the loop is closed, one operation at a time.  A
pass runs every operation once, and only whole passes are timed: passes
continue until the time given in the manifest has elapsed and at least
five have run.

Without tracing every timed pass runs untraced.  With tracing the timed
passes alternate untraced and traced, so tracing overhead is measured
in the same process; spans are written next to the result when the run
ends.  Every pass is checked against the warm-up pass: the report minus
its ``wall_clock_s`` fields must repeat exactly, traced or not.

Untraced runs also time fresh interpreters importing ``treeshift.cli``
(set-up) and keep, next to every raw time, the time scaled to the
reference host speed by ``HostClock``.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer as tracing  # noqa: E402

# At least five timed passes, so that the four-operation deep-trees pass
# leaves ten samples above its median even on a slow host.
MIN_PASSES = 5
# Set-up is sampled half before and half after the timed passes; one
# more untimed spawn first fills the bytecode cache, which users pay
# only once.
SETUP_SPAWNS = 6
CALIBRATE_EVERY_S = 0.2
# Median time of calibrate() on the reference machine (see README.md).
REFERENCE_KERNEL_S = 0.0055

_READY = ("import treeshift.cli, sys; sys.stdout.write('ready\\n'); "
          "sys.stdout.flush()")


def _strip_timing(value):
    if isinstance(value, dict):
        return {k: _strip_timing(v) for k, v in value.items()
                if k != "wall_clock_s"}
    if isinstance(value, list):
        return [_strip_timing(v) for v in value]
    return value


def _check(op: dict, code, error, stderr: str, report) -> list[str]:
    """Reasons the outcome contradicts the operation's expectation."""
    if error is not None:
        return [f"exception escaped main(): {error}"]
    problems = []
    if op["exit_code"] is not None and code != op["exit_code"]:
        problems.append(f"exit code {code}, expected {op['exit_code']}")
    if op["kind"] == "malformed":
        if op["json_path"] not in stderr:
            problems.append(f"stderr lacks JSON path {op['json_path']}")
        return problems
    if report is None:
        return problems + ["no report written"]
    results = report.get("results", [])
    if op["kind"] == "demo":
        if not (results and results[0].get("conclusion_matches") is True):
            problems.append("conclusion_matches is not true")
    for entry in results:
        if entry.get("status") == "error":
            problems.append(f"{entry.get('command')}: status error")
    for index, expected in op["results"].items():
        entry = results[int(index)] if int(index) < len(results) else {}
        got = dict(entry.get("result", {}), status=entry.get("status"))
        for key, want in expected.items():
            if got.get(key) != want:
                problems.append(f"command {index} {key}: {got.get(key)!r}, "
                                f"expected {want!r}")
    return problems


class Runner:
    def __init__(self, manifest: dict):
        self.ops = manifest["ops"]
        import treeshift.cli
        self.cli = treeshift.cli
        self.reference: list = [None] * len(self.ops)
        self.failed = self.crashed = self.mismatches = 0
        self.problems: dict[str, list[str]] = {}
        self.report_bytes = 0

    def run_op(self, i: int) -> float:
        """Run operation i; record its outcome; return its latency in s."""
        op = self.ops[i]
        with contextlib.suppress(FileNotFoundError):
            os.remove(op["out"])
        err, out = io.StringIO(), io.StringIO()
        code = error = None
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
            start = time.perf_counter()
            try:
                code = self.cli.main(op["argv"])
            except (Exception, SystemExit) as exc:  # counted, never hidden
                error = f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - start
        report = None
        if os.path.exists(op["out"]):
            with open(op["out"], "rb") as fh:
                raw = fh.read()
            self.report_bytes += len(raw)
            report = json.loads(raw)
        problems = _check(op, code, error, err.getvalue(), report)
        digest = hashlib.sha256(json.dumps(
            [code, error, _strip_timing(report)],
            sort_keys=True).encode()).hexdigest()
        if self.reference[i] is None:
            self.reference[i] = digest
        elif digest != self.reference[i]:
            self.mismatches += 1
            problems.append("report differs from the first pass")
        if problems:
            self.failed += 1
            self.crashed += error is not None
            self.problems.setdefault(op["name"], problems)
        return latency

    def run_pass(self, clock: "HostClock | None" = None) -> list[float]:
        latencies = []
        for i in range(len(self.ops)):
            latencies.append(self.run_op(i))
            if clock is not None:
                clock.record(latencies[-1])
        return latencies

    def run_traced_pass(self, tracer: tracing.Tracer,
                        pass_no: int) -> tuple[list[float], dict]:
        """One pass with every traced function wrapped; returns the
        latencies and the pass's per-layer values."""
        first_span = len(tracer.spans)
        tracer.take_counts()
        self.report_bytes = 0
        tracer.install()
        try:
            latencies = []
            for i, op in enumerate(self.ops):
                tracer.op_id = f"{pass_no}:{op['name']}"
                latencies.append(self.run_op(i))
        finally:
            tracer.uninstall()
        fn_ms = tracer.self_ms(first_span)
        values = dict(tracer.take_counts())
        values.update(tracing.layer_self_ms(fn_ms))
        values.update({f"{name}.ms": ms for name, ms in fn_ms.items()})
        values["cli.report_bytes"] = self.report_bytes
        return latencies, values


def _kernel() -> float:
    start = time.perf_counter()
    table = {f"g{i}:{i % 7}": float(i) for i in range(8000)}
    total = 0.0
    for key, value in table.items():
        if key[-1] != "3":
            total += value * value
    m = numpy.arange(60 * 60, dtype=float).reshape(60, 60) % 7.0
    for _ in range(3):
        numpy.linalg.eigh(m + m.T)
    return time.perf_counter() - start


def calibrate() -> float:
    """Seconds for a fixed kernel that does not depend on treeshift: dict
    and string work in the interpreter plus small LAPACK calls, the two
    kinds of work the workloads do.  The median of three runs, because
    one run can straddle a change of host speed."""
    return statistics.median(_kernel() for _ in range(3))


class HostClock:
    """Rescales measured times to the reference host speed.

    The calibration kernel runs after every CALIBRATE_EVERY_S of measured
    work.  Each measured time is multiplied by REFERENCE_KERNEL_S over
    the mean of the two kernel times that bracket it, so a stretch in
    which the host runs everything slower does not read as a slower
    program.  Raw times are kept alongside.
    """

    def __init__(self):
        self.kernel_s: list[float] = []
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self._pending: list[float] = []

    def start(self) -> None:
        """Take a fresh kernel time before a stretch of measurements."""
        self.kernel_s.append(calibrate())

    def record(self, seconds: float) -> None:
        self._pending.append(seconds)
        if sum(self._pending) >= CALIBRATE_EVERY_S:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        self.kernel_s.append(calibrate())
        factor = REFERENCE_KERNEL_S / (sum(self.kernel_s[-2:]) / 2)
        self.raw += self._pending
        self.scaled += [t * factor for t in self._pending]
        self._pending = []


def measure_setup(clock: HostClock, spawns: int) -> None:
    """Seconds from spawning a fresh interpreter until treeshift.cli is
    imported, recorded on the clock one spawn at a time."""
    clock.start()
    for _ in range(spawns):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", _READY],
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
        finally:
            proc.stdout.close()
            proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("cannot import treeshift.cli in a fresh "
                               "interpreter")
        clock.record(elapsed)
        clock.flush()


def main() -> int:
    manifest_path, result_path = sys.argv[1], sys.argv[2]
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    seconds, trace = manifest["seconds"], manifest["trace"]
    runner = Runner(manifest)
    tracer = tracing.Tracer() if trace else None
    setup, ops = HostClock(), HostClock()
    if not trace:
        measure_setup(HostClock(), 1)  # fills the bytecode cache
        measure_setup(setup, SETUP_SPAWNS // 2)

    runner.run_pass()
    runner.failed = runner.crashed = 0

    untraced_pass_s: list[float] = []
    traced_pass_s: list[float] = []
    per_pass: list[dict] = []
    passes = 0
    ops.start()
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds or passes < MIN_PASSES
           or (trace and len(traced_pass_s) < 2)):
        if trace and passes % 2 == 1:
            lat, values = runner.run_traced_pass(tracer, passes)
            traced_pass_s.append(sum(lat))
            per_pass.append(values)
        else:
            lat = runner.run_pass(None if trace else ops)
            untraced_pass_s.append(sum(lat))
        passes += 1
    ops.flush()
    if not trace:
        measure_setup(setup, SETUP_SPAWNS // 2)

    result = {
        "attempted": len(runner.ops) * passes,
        "failed": runner.failed,
        "crashed": runner.crashed,
        "mismatches": runner.mismatches,
        "problems": runner.problems,
        "passes": passes,
        "ops_per_pass": len(runner.ops),
        "latencies_s": ops.raw,
        "scaled_latencies_s": ops.scaled,
        "setup_s": setup.raw,
        "scaled_setup_s": setup.scaled,
        "kernel_s": ops.kernel_s + setup.kernel_s,
        "reference_kernel_s": REFERENCE_KERNEL_S,
        "untraced_pass_s": untraced_pass_s,
        "traced_pass_s": traced_pass_s,
        "per_pass": per_pass,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "env": environment(),
    }
    if tracer is not None:
        tracer.write(result_path + ".spans.jsonl")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def environment() -> dict:
    import scipy
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    blas = {}
    with contextlib.suppress(Exception):
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


if __name__ == "__main__":
    sys.exit(main())
