"""Checks of the benchmark itself.

    python3 bench/selftest.py            # all workloads, about two minutes
    python3 bench/selftest.py catalog    # one workload

1. The same seed gives the same inputs; another seed changes parameter
   values and random weights only, never sizes or the operation mix.
2. Two traced runs with the same seed give identical exact counts
   (every ``.calls`` count, ``trees.vertices``, the decision-path counts
   and the computed flops and bytes), pass by pass.
3. No report changes between passes, traced or untraced.
4. BENCHMARK.json names the workloads and metrics that run.py reports.

Exits 0 when every check holds, 1 otherwise.
"""
from __future__ import annotations

import json
import sys
import time
from dataclasses import asdict

import run
import tracer as tracing
import workloads


def _shape(value):
    """The spec with numbers replaced by their type, lists by length."""
    if isinstance(value, dict):
        return {k: _shape(v) for k, v in value.items()
                if k not in ("values", "y1", "y2", "x")}
    if isinstance(value, list):
        return [_shape(v) for v in value]
    if isinstance(value, float):
        return "float"
    return value


def check_inputs(workload: str) -> list[str]:
    a, b, c = ([asdict(op) for op in workloads.generate(workload, seed)]
               for seed in (7, 7, 8))
    problems = []
    if a != b:
        problems.append("same seed gave different inputs")
    if a == c:
        problems.append("another seed gave identical inputs")
    if [_shape(e) for e in a] != [_shape(e) for e in c]:
        problems.append("another seed changed sizes or the operation mix")
    return problems


def check_counts(workload: str) -> list[str]:
    runs = []
    for _ in range(2):
        deadline = time.monotonic() + run.DEADLINE_S
        runs.append(run.run_worker(workload, 7, 0, True, deadline))
    problems = []
    for res in runs:
        if res["mismatches"]:
            problems.append(f"{res['mismatches']} reports changed "
                            f"between passes")
        if res["failed"] != res["crashed"]:
            problems.append(f"wrong outcomes: {res['problems']}")
    for name in tracing.EXACT:
        values = [p.get(name, 0) for res in runs for p in res["per_pass"]]
        if len(set(values)) != 1:
            problems.append(f"{name} differs: {values}")
    return problems


def check_benchmark_json() -> list[str]:
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    if {w["name"]: w["why"] for w in doc["workloads"]} != workloads.WHY:
        problems.append("workloads differ from workloads.WHY")
    if [(m["name"], m["unit"]) for m in doc["end_to_end"]] != run.END_TO_END:
        problems.append("end_to_end differs from run.END_TO_END")
    if [(m["name"], m["unit"]) for m in doc["per_layer"]] != tracing.PER_LAYER:
        problems.append("per_layer differs from tracer.PER_LAYER")
    return problems


def main(argv: list[str]) -> int:
    names = argv or list(workloads.WORKLOADS)
    checks = [("BENCHMARK.json", check_benchmark_json)]
    for name in names:
        checks.append((f"{name} inputs", lambda n=name: check_inputs(n)))
        checks.append((f"{name} exact counts", lambda n=name: check_counts(n)))
    failed = 0
    for label, check in checks:
        problems = check()
        failed += bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {label}")
        for p in problems:
            print(f"     {p}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
