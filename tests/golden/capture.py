"""Write the golden reports that tests/test_golden.py replays.

    PYTHONPATH=src python3 tests/golden/capture.py [--check]

Each case is one call of ``treeshift.cli.main``: a spec under
``specs/`` (optionally with command-line overrides) or a catalog demo.
``reports/<case>.json`` stores the argv (spec paths relative to this
directory), the exit code and the JSON report minus its
``wall_clock_s`` fields.  The reports pin the behaviour of the code
they were captured from; recapture only when a change of a report is
intended, and say which keys changed and why.  With ``--check`` the
reports are captured into a temporary directory instead, and the exit
code is 1 when any of them differs from ``reports/`` by a byte; the
first 40 lines of a unified diff of each such report are printed, so
that the keys that moved are named.
"""
from __future__ import annotations

import argparse
import contextlib
import difflib
import io
import json
import sys
import tempfile
from itertools import islice
from pathlib import Path

from treeshift.cli import DEMO_NAMES

HERE = Path(__file__).resolve().parent

# case name -> argv; "specs/..." entries are resolved against HERE
CASES: dict[str, list[str]] = {
    **{name: ["--spec", f"specs/{name}.json"] for name in (
        "binary-8", "binary-12", "quasi-brownian-20", "star-50",
        "comb-2-14", "comb-3-12", "glowny", "dirichlet", "bergman-dual",
        "treiso", "explicit-random", "path-constant", "zero-weight",
        "split-given", "command-errors")},
    "glowny-overrides": ["--spec", "specs/glowny.json", "--depth", "12",
                         "--nmax", "8", "--tol", "1e-10"],
    "comb-3-depth-override": ["--spec", "specs/comb-3-12.json", "--depth",
                              "9"],
    **{f"demo-{name}": ["--demo", name] for name in DEMO_NAMES},
}


def strip_timing(value):
    if isinstance(value, dict):
        return {k: strip_timing(v) for k, v in value.items()
                if k != "wall_clock_s"}
    if isinstance(value, list):
        return [strip_timing(v) for v in value]
    return value


def run_case(argv: list[str]) -> tuple[int, dict]:
    """Exit code and timing-free report of one CLI call."""
    from treeshift.cli import main

    resolved = [str(HERE / a) if a.startswith("specs/") else a for a in argv]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(resolved + ["--quiet", "--out", str(out)])
        report = json.loads(out.read_text(encoding="utf-8"))
    if "input" in report:
        report["input"]["path"] = argv[argv.index("--spec") + 1]
    return code, strip_timing(report)


def capture(directory: Path) -> None:
    """Write every case's report to ``directory``."""
    for name, argv in CASES.items():
        code, report = run_case(argv)
        doc = {"argv": argv, "exit_code": code, "report": report}
        (directory / f"{name}.json").write_text(
            json.dumps(doc, indent=1, sort_keys=True) + "\n",
            encoding="utf-8")
        print(f"{name}: exit {code}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare a fresh capture with reports/ byte "
                             "for byte instead of rewriting it")
    if not parser.parse_args(argv).check:
        (HERE / "reports").mkdir(exist_ok=True)
        capture(HERE / "reports")
        return 0
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        capture(Path(tmp))
        for name in CASES:
            old = HERE / "reports" / f"{name}.json"
            new = Path(tmp) / f"{name}.json"
            if new.read_bytes() == old.read_bytes():
                continue
            differ += 1
            print(f"{name}: differs from reports/{name}.json")
            diff = difflib.unified_diff(
                old.read_text(encoding="utf-8").splitlines(),
                new.read_text(encoding="utf-8").splitlines(),
                f"reports/{name}.json", "captured", lineterm="")
            for line in islice(diff, 40):
                print(line)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
