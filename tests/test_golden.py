"""Golden reports: every demo and a set of specs covering every tree kind,
weight kind, command and decision path must reproduce its stored report.

Reports are compared after stripping ``wall_clock_s``.  Floats agree
when |a - b| <= 1e-12 * max(1, |a|, |b|); floats printed inside text
(statements, notes) are compared the same way, token by token, and the
rest of the text must match exactly.  Everything else (verdicts,
witnesses, decision paths, failing orders, ``holds``, integers, keys)
must be identical.  tests/golden/capture.py rewrites the reports.
"""
import importlib.util
import json
import math
import re
from pathlib import Path

import pytest

from treeshift import materialize
from treeshift.cli import parse_spec

GOLDEN = Path(__file__).resolve().parent / "golden"
REL_TOL = 1e-12

_spec = importlib.util.spec_from_file_location("golden_capture",
                                               GOLDEN / "capture.py")
capture = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(capture)

# decimal numbers; a token with '.', 'e' or "inf"/"nan" is a float
_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?"
                     r"|[-+]?inf|nan")


def _close(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b) or math.isnan(a) or math.isnan(b):
        return a == b or (math.isnan(a) and math.isnan(b))
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def _is_float_token(tok: str) -> bool:
    return any(c in tok for c in ".eEna")


def _text_diff(a: str, b: str) -> bool:
    """True when the texts differ beyond printed-float rounding."""
    if _NUMBER.sub("#", a) != _NUMBER.sub("#", b):
        return True
    for x, y in zip(_NUMBER.findall(a), _NUMBER.findall(b)):
        if _is_float_token(x) or _is_float_token(y):
            if not _close(float(x), float(y)):
                return True
        elif x != y:
            return True
    return False


def diff(expected, actual, path="$") -> list[str]:
    """Paths where actual departs from expected under the golden rules."""
    if isinstance(expected, bool) or isinstance(actual, bool):
        same = type(expected) is type(actual) and expected == actual
        return [] if same else [f"{path}: {expected!r} != {actual!r}"]
    if isinstance(expected, float) or isinstance(actual, float):
        numbers = all(isinstance(v, (int, float)) for v in (expected, actual))
        if numbers and _close(float(expected), float(actual)):
            return []
        return [f"{path}: {expected!r} != {actual!r}"]
    if isinstance(expected, str) and isinstance(actual, str):
        return [f"{path}: {expected!r} != {actual!r}"] \
            if _text_diff(expected, actual) else []
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{path}: keys {sorted(expected)} != {sorted(actual)}"]
        return [d for k in expected
                for d in diff(expected[k], actual[k], f"{path}.{k}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(expected)} != {len(actual)}"]
        return [d for i, (e, a) in enumerate(zip(expected, actual))
                for d in diff(e, a, f"{path}[{i}]")]
    same = type(expected) is type(actual) and expected == actual
    return [] if same else [f"{path}: {expected!r} != {actual!r}"]


REPORTS = sorted(p.stem for p in (GOLDEN / "reports").glob("*.json"))


def test_every_case_has_a_report():
    assert sorted(capture.CASES) == REPORTS
    assert {f"demo-{d}" for d in capture.DEMO_NAMES} <= set(REPORTS)


@pytest.mark.parametrize("name", REPORTS)
def test_golden_report(name):
    golden = json.loads((GOLDEN / "reports" / f"{name}.json")
                        .read_text(encoding="utf-8"))
    code, report = capture.run_case(golden["argv"])
    assert code == golden["exit_code"]
    problems = diff(golden["report"], report)
    assert not problems, "\n".join(problems[:20])


@pytest.mark.parametrize("path", sorted((GOLDEN / "specs").glob("*.json")),
                         ids=lambda path: path.stem)
def test_parsed_spec_holds_its_tree_at_the_spec_depth(path):
    spec = parse_spec(path.read_text(encoding="utf-8"))
    tree = spec.shift.tree
    assert tree.materialized_depth == spec.tree.depth
    assert tree.generation_sizes == materialize(spec.tree).generation_sizes


@pytest.mark.parametrize("a,b,same", [
    (1.0, 1.0 + 1e-13, True),
    (1.0, 1.0 + 1e-11, False),
    (2.2e-16, 0.0, True),
    (0, 0, True),
    (1, 2, False),
    (True, 1, False),
    ("residual 2.220e-16 at g3:0", "residual 0.000e+00 at g3:0", True),
    ("residual 2.220e-16 at g3:0", "residual 2.220e-16 at g3:1", False),
    ("order 4", "order 5", False),
    ({"a": [1.0, None]}, {"a": [1.0, None]}, True),
    ({"a": 1}, {"b": 1}, False),
])
def test_diff_rules(a, b, same):
    assert (diff(a, b) == []) is same
