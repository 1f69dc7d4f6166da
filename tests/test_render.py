"""Report rendering: ``_render_report`` is ``json.dumps(sort_keys=True,
indent=2)`` byte for byte, and ``main`` behaves the same on every call
of one process."""
import collections
import contextlib
import io
import json
import math
import subprocess
import sys
import unittest.mock
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeshift import cli
from treeshift.cli import (DEMO_NAMES, _render_report, main, parse_spec,
                           run_demo, run_suite)

SPECS = Path(__file__).resolve().parent / "golden" / "specs"


def _dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2)


def _outcome(render, obj):
    """The rendered text, or the type of the error rendering raised."""
    try:
        return render(obj)
    except (TypeError, ValueError) as exc:
        return type(exc)


_text = st.text() | st.sampled_from(
    ["", '"', "\\", "\n\t\r\x00\x1f", " ", "café", "\U0001f600",
     "a\"b\\c\nd"])
_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
            | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0])
            | _text)
# keys of one dict must be mutually comparable, as sort_keys needs
_keys = [_text, st.integers() | st.floats() | st.booleans(), st.none()]


def _containers(children):
    return (st.lists(children, max_size=5)
            | st.lists(children, max_size=5).map(tuple)
            | st.one_of(*(st.dictionaries(k, children, max_size=5)
                          for k in _keys)))


_reports = st.recursive(_scalars, _containers, max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(_reports)
def test_render_matches_json_dumps(obj):
    assert _outcome(_render_report, obj) == _outcome(_dumps, obj)


class _Float(float):
    """A float subclass: the C encoder takes it, a run does not."""


class _Backwards(str):
    """A str that sorts backwards among str keys."""

    def __lt__(self, other):
        return str.__gt__(self, other)

    def __gt__(self, other):
        return str.__lt__(self, other)


_run_keys = st.text(max_size=4) | st.sampled_from(
    ["%", "%s", "%%", "%(a)s", '"', "\\", "caf\u00e9", "\x00\n\x1f",
     "\U0001f600"])
_run_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.sampled_from([math.nan, math.inf, -math.inf]) | _text)
# a run's layout: key -> None for a scalar column, or the nested layout
_layouts = st.dictionaries(_run_keys, st.recursive(
    st.none(), lambda inner: st.dictionaries(_run_keys, inner, min_size=1,
                                             max_size=3),
    max_leaves=6), min_size=1, max_size=4)


def _rows(layout):
    return st.fixed_dictionaries({
        k: _run_scalars if v is None else _rows(v)
        for k, v in layout.items()})


@st.composite
def _runs(draw):
    """A list of dicts of one layout, and whether it is left so; else one
    row changes at one key, which takes the list off the run path: an
    extra key, an empty or a list value, a float subclass, or a cycle."""
    layout = draw(_layouts)
    rows = draw(st.lists(_rows(layout), min_size=2, max_size=5))
    change = draw(st.sampled_from(
        [None, None, "extra", "{}", "[]", "list", "float", "cycle-list",
         "cycle-row"]))
    row = draw(st.sampled_from(rows))
    key = draw(st.sampled_from(sorted(layout)))
    if change == "extra":
        row[draw(_run_keys.filter(lambda k: k not in layout))] = 1
    elif change is not None:
        row[key] = {"{}": {}, "[]": [], "list": [1, [2]],
                    "float": _Float(0.5), "cycle-list": rows,
                    "cycle-row": row}[change]
    return rows, change is None


@settings(max_examples=200, deadline=None)
@given(_runs(), st.booleans(), st.booleans())
def test_runs_render_as_json_dumps(run, nested, no_c_encoder):
    rows, is_run = run
    if is_run:  # the run path is the one taken
        assert cli._row_template(rows, 1, []) is not None
    obj = {"a": [rows], "b": 1} if nested else rows
    with (unittest.mock.patch.object(cli, "c_make_encoder", None)
          if no_c_encoder else contextlib.nullcontext()):
        assert _outcome(_render_report, obj) == _outcome(_dumps, obj)


@settings(max_examples=200, deadline=None)
@given(_runs(), _runs(), _run_scalars, _run_scalars, _run_scalars)
def test_runs_at_several_depths_render_as_json_dumps(run, other, a, b, c):
    # two runs at three depths, among scalars that sort before and after
    # them, all in the one flat list of the report's scalars
    (rows, _), (other_rows, _) = run, other
    obj = {"a": a, "m": rows, "z": [b, other_rows, {"k": rows, "y": c}, "s"]}
    assert _outcome(_render_report, obj) == _outcome(_dumps, obj)


def test_demo_treiso_witnesses_render_as_one_run():
    # the generic path's witness list is the run that makes long reports
    # cheap to render; a column of another type would drop it silently
    payload, _ = run_demo("treiso")
    witnesses = payload["evidence"]["subnormality"]["evidence"]["witnesses"]
    assert len(witnesses) == 30
    assert cli._row_template(witnesses, 1, []) is not None


@pytest.mark.parametrize("obj", [
    {"a": {1: [2], 2.5: 4, True: None}},         # non-str keys
    {"a": [1], None: 2},                         # keys that cannot sort
    {"a": collections.OrderedDict(b=[1])},       # dict subclass
    [collections.UserList([1]), [2]],            # not a JSON container
    # keys equal to a run's but sorted their own way: no run
    [{"a": 1, "b": 2}, {_Backwards("a"): 1, _Backwards("b"): 2}],
    {"a": [], "b": {"c": [()]}},
    "text", 1.5, [], {},
])
def test_render_edge_cases_match_json_dumps(obj):
    assert _outcome(_render_report, obj) == _outcome(_dumps, obj)


def test_render_falls_back_to_json_dumps(monkeypatch):
    cycle: list = [[1]]
    cycle.append(cycle)
    assert _outcome(_render_report, cycle) is ValueError
    monkeypatch.setattr(cli, "c_make_encoder", None)
    assert _render_report({"a": [1, {"b": 2}]}) == _dumps(
        {"a": [1, {"b": 2}]})


@pytest.fixture
def encoder_calls(monkeypatch):
    """The calls of the encoder that ``_scalar_encoder`` returns."""
    calls = []
    encoder = cli._scalar_encoder()

    def counting(*args):
        calls.append(args)
        return encoder(*args)

    monkeypatch.setattr(cli, "_scalar_encoder", lambda: counting)
    return calls


@pytest.mark.parametrize("name", DEMO_NAMES)
def test_render_matches_json_dumps_on_demo_reports(name, encoder_calls):
    payload, code = run_demo(name)
    report = {"tool": "treeshift", "tolerance": 1e-9, "results": [payload],
              "exit_code": code}
    assert _render_report(report) == _dumps(report)
    # every report holds scalars: one C call writes them all, none is made
    # per container
    assert len(encoder_calls) == 1


@pytest.mark.parametrize("path", sorted(SPECS.glob("*.json")),
                         ids=lambda p: p.stem)
def test_render_matches_json_dumps_on_spec_reports(path, encoder_calls):
    report, _ = run_suite(parse_spec(path.read_text(encoding="utf-8")))
    assert _render_report(report) == _dumps(report)
    assert len(encoder_calls) == 1


def _strip_timing(text):
    def strip(value):
        if isinstance(value, dict):
            return {k: strip(v) for k, v in value.items()
                    if k != "wall_clock_s"}
        if isinstance(value, list):
            return [strip(v) for v in value]
        return value
    return strip(json.loads(text)) if text.strip() else text


def _in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, _strip_timing(out.getvalue()), err.getvalue()


def _fresh(argv):
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "treeshift", *argv], capture_output=True,
        text=True, timeout=120, env={"PYTHONPATH": str(src),
                                     "OPENBLAS_NUM_THREADS": "1"})
    return proc.returncode, _strip_timing(proc.stdout), proc.stderr


def test_repeated_main_calls_behave_like_fresh_calls(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text('{"weights":{"kind":"dirichlet"},'
                    '"commands":[{"name":"check-2iso"}]}', encoding="utf-8")
    calls = [[], ["--spec", str(spec)], ["--demo", "two-plus-three"],
             ["--demo", "two-plus-three", "--tol", "0"]]
    repeated = [_in_process(argv) for argv in calls]
    assert [code for code, _, _ in repeated] == [2, 0, 0, 2]
    assert repeated == [_fresh(argv) for argv in calls]
