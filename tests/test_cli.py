"""Command line: spec parsing, suite execution, demos, exit codes."""
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import time
import warnings

import pytest

import treeshift
from treeshift import (ConfigurationError, SpecParseError,
                       TreeSpec, WeightSpec, build_shift, cli, materialize,
                       trees)
from treeshift.cli import (DEMO_NAMES, _Suite, main, parse_spec, run_demo,
                           run_suite)

VALID_MIN = '{"tree":{"kind":"path","depth":64},"weights":{"kind":"dirichlet"},"commands":[{"name":"dual-subnormality"}]}'


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_minimal_valid_specs():
    spec = parse_spec(VALID_MIN)
    assert spec.tree.kind == "path" and spec.tree.depth == 64
    assert spec.weights.kind == "dirichlet"
    assert [c.name for c in spec.commands] == ["dual-subnormality"]

    spec2 = parse_spec('{"tree":{"kind":"t_eta_kappa","eta":2,"kappa":0,'
                       '"depth":16},"weights":{"kind":"glowny","y1":1.1,'
                       '"y2":1.3}}')
    assert spec2.tree.eta == 2
    assert spec2.commands == ()


def test_parse_defaults_tree_from_weight_kind():
    spec = parse_spec('{"weights":{"kind":"glowny","y1":1.1,"y2":1.3}}')
    assert spec.tree.kind == "t_eta_kappa" and spec.tree.depth == 16
    spec2 = parse_spec('{"weights":{"kind":"dirichlet"}}')
    assert spec2.tree.kind == "path" and spec2.tree.depth == 64
    with pytest.raises(SpecParseError) as err:
        parse_spec('{"weights":{"kind":"adjacency"}}')
    assert err.value.json_path == "$.tree"


@pytest.mark.parametrize("text,path_fragment", [
    ('not json', "$"),
    ('[1,2]', "$"),
    ('{"weights":{"kind":"dirichlet"},"bogus":1}', "$.bogus"),
    ('{"weights":{"kind":"glowny","y1":1.5}}', "$.weights.y1"),
    ('{"weights":{"kind":"glowny","y1":1.1,"y2":1.3,"y3":1}}',
     "$.weights.y3"),
    ('{"weights":{"kind":"mystery"}}', "$.weights.kind"),
    ('{"weights":{"kind":"dirichlet"},"tree":{"kind":"path"}}',
     "$.tree.depth"),
    ('{"weights":{"kind":"dirichlet"},"tree":{"kind":"path","depth":-3}}',
     "$.tree.depth"),
    ('{"weights":{"kind":"dirichlet"},"tree":{"kind":"path","depth":2.5}}',
     "$.tree.depth"),
    ('{"weights":{"kind":"dirichlet"},"commands":[{"name":"warp"}]}',
     "$.commands[0].name"),
    ('{"weights":{"kind":"dirichlet"},"commands":[{"name":"moments",'
     '"weird":1}]}', "$.commands[0].weird"),
    ('{"weights":{"kind":"dirichlet"},"commands":[{"name":"verify-table1"}]}',
     "$.commands[0].row"),
    ('{"weights":{"kind":"dirichlet"},"tolerances":{"tol":-1}}',
     "$.tolerances.tol"),
    ('{"weights":{"kind":"dirichlet"},"tolerances":{"tol":0}}',
     "$.tolerances.tol"),
    ('{"weights":{"kind":"dirichlet"},"tolerances":{"tol":NaN}}',
     "$.tolerances.tol"),
    ('{"weights":{"kind":"dirichlet"},"tolerances":{"tol":Infinity}}',
     "$.tolerances.tol"),
    ('{"weights":{"kind":"dirichlet"},"tolerances":{"tol":1' + '0' * 400
     + '}}', "$.tolerances.tol"),
    ('{"weights":{"kind":"kernel_condition","x":1' + '0' * 400 + '}}',
     "$.weights.x"),
    ('{"weights":{"kind":"explicit","values":{"g1:0":1' + '0' * 400
     + '}},"tree":{"kind":"path","depth":1}}', "$.weights.values.g1:0"),
    ('{"weights":{"kind":"kernel_condition","x":1.2,"proportions":'
     '{"g1:0":1,"g1:1":1' + '0' * 400 + '}},'
     '"tree":{"kind":"generation_rule","rule":[[2]],"depth":2}}',
     "$.weights.proportions.g1:1"),
    ('{"weights":{"kind":"kernel_condition"}}', "$.weights.x"),
    ('{"weights":{"kind":"dirichlet"},"commands":[{"name":"check-2iso"}],'
     '"output":{"json":"r.json"}}', "$.output"),
])
def test_parse_errors_carry_json_paths(text, path_fragment):
    with pytest.raises(SpecParseError) as err:
        parse_spec(text)
    assert err.value.json_path == path_fragment


_EDGES_SHAPE = "edges must be a list of [parent, child] string pairs"
_T_ETA_2 = {"kind": "t_eta_kappa", "eta": 2, "depth": 3}


@pytest.mark.parametrize("section,obj,path,message", [
    ("tree", {**_T_ETA_2, "eta": 1}, "$.tree.eta",
     "t_eta_kappa requires eta >= 2"),
    ("tree", {**_T_ETA_2, "kappa": 1}, "$.tree.kappa",
     "only kappa = 0 trees are generated"),
    ("tree", {"kind": "quasi_brownian", "valency": 1, "depth": 3},
     "$.tree.valency", "quasi_brownian requires valency >= 2"),
    ("tree", {"kind": "explicit", "edges": []}, "$.tree.edges",
     "edge list is empty"),
    ("tree", {"kind": "explicit", "edges": [["a", 1]]}, "$.tree.edges",
     _EDGES_SHAPE),
    ("tree", {"kind": "explicit", "edges": [["a", "b", "c"]]},
     "$.tree.edges", _EDGES_SHAPE),
    ("tree", {"kind": "generation_rule", "rule": None, "depth": 3},
     "$.tree.rule", "rule must be a list of per-generation child-count lists"),
    ("weights", {"kind": "kernel_condition", "x": 0.5}, "$.weights.x",
     "x must be >= 1, got 0.5"),
    ("weights", {"kind": "glowny", "y1": 1.1}, "$.weights.y2",
     "glowny requires y2"),
    ("weights", {"kind": "glowny", "y1": 1.1, "y2": 2}, "$.weights.y2",
     "y2 must lie in the open interval (1, sqrt(2)), got 2.0"),
    ("other", {**_T_ETA_2, "eta": 1}, "$.commands[0].other.tree.eta",
     "t_eta_kappa requires eta >= 2"),
])
def test_a_refused_field_value_fails_at_its_field(section, obj, path,
                                                  message):
    """The spec class refuses the value and names the field; the parse
    error lands at that field with the library's message."""
    doc = {"tree": _T_ETA_2, "weights": {"kind": "adjacency"}}
    if section == "other":
        doc["commands"] = [{"name": "equivalent", "other": {
            "tree": obj, "weights": {"kind": "adjacency"}}}]
    else:
        doc[section] = obj
    with pytest.raises(SpecParseError) as err:
        parse_spec(json.dumps(doc))
    assert err.value.json_path == path
    assert str(err.value) == f"{path}: {message}"
    assert err.value.__cause__.field == path.rpartition(".")[2]


def test_proportions_alone_select_the_proportional_split():
    spec = parse_spec(json.dumps({
        "tree": {"kind": "generation_rule", "rule": [[2]], "depth": 2},
        "weights": {"kind": "kernel_condition", "x": 1.2,
                    "proportions": {"g1:0": 5}}}))
    shift = build_shift(spec.weights, materialize(spec.tree))
    # an equal split would give both 0.84853
    assert shift.weight("g1:0") == pytest.approx(1.17670, abs=1e-5)
    assert shift.weight("g1:1") == pytest.approx(0.23534, abs=1e-5)


def test_parse_explicit_tree_infers_depth():
    spec = parse_spec(
        '{"weights":{"kind":"adjacency"},'
        '"tree":{"kind":"explicit","edges":[["r","a"],["a","b"],'
        '["b","c"]]}}')
    assert spec.tree.depth == 3


# ---------------------------------------------------------------------------
# suite behavior
# ---------------------------------------------------------------------------

def test_suite_happy_path_exit_zero():
    spec = parse_spec(
        '{"tree":{"kind":"path","depth":64},"weights":{"kind":"dirichlet"},'
        '"commands":[{"name":"check-2iso"},{"name":"check-kernel"},'
        '{"name":"dual-subnormality"}]}')
    report, code = run_suite(spec)
    assert code == 0
    assert [r["status"] for r in report["results"]] == ["passed"] * 3
    sub = report["results"][2]["result"]
    assert sub["verdict"] == "subnormal"
    assert sub["decision_path"] == "cdsubn"


def test_suite_short_circuits_dependents():
    spec = parse_spec(
        '{"tree":{"kind":"t_eta_kappa","eta":2,"kappa":0,"depth":16},'
        '"weights":{"kind":"adjacency"},'
        '"commands":[{"name":"check-2iso"},{"name":"dual-subnormality"},'
        '{"name":"invariants"},{"name":"verify-table1","row":"kernel"}]}')
    report, code = run_suite(spec)
    assert code == 1
    statuses = {r["command"]: r["status"] for r in report["results"]}
    assert statuses["check-2iso"] == "failed"
    assert statuses["dual-subnormality"] == "skipped"
    assert statuses["invariants"] == "skipped"
    assert statuses["verify-table1"] == "skipped"
    witness = report["results"][0]["result"]["witness"]
    assert witness[0] == "g0:0"


def test_suite_errors_do_not_abort():
    spec = parse_spec(
        '{"tree":{"kind":"path","depth":8},"weights":{"kind":"dirichlet"},'
        '"commands":[{"name":"moments","nmax":50},{"name":"check-2iso"}]}')
    report, code = run_suite(spec)
    assert code == 1
    assert report["results"][0]["status"] == "error"
    assert report["results"][0]["result"]["error_type"] == "RangeError"
    assert report["results"][1]["status"] == "passed"


def test_suite_expectations_flip_status():
    spec = parse_spec(
        '{"tree":{"kind":"path","depth":16},'
        '"weights":{"kind":"bergman_dual"},'
        '"commands":[{"name":"check-2iso","expect":false},'
        '{"name":"dual-subnormality","expect":"not-subnormal"}]}')
    report, code = run_suite(spec)
    # check-2iso fails but was expected to fail -> passed; the
    # subnormality command is still skipped by the dependency rule
    assert report["results"][0]["status"] == "passed"
    assert report["results"][1]["status"] == "skipped"
    assert code == 0


def test_suite_vertex_addressing_and_moments():
    spec = parse_spec(
        '{"tree":{"kind":"t_eta_kappa","eta":2,"kappa":0,"depth":10},'
        '"weights":{"kind":"kernel_condition","x":1.2},'
        '"commands":[{"name":"moments","vertex":[1],"nmax":4,"dual":true},'
        '{"name":"moments","vertex":"g1:0","nmax":4}]}')
    report, code = run_suite(spec)
    assert code == 0
    by_index, by_id = report["results"]
    assert by_index["result"]["vertex"] == "g1:1"
    assert by_id["result"]["vertex"] == "g1:0"
    assert len(by_index["result"]["values"]) == 5
    assert by_index["result"]["values"][0] == 1.0


def test_suite_equivalent_command():
    spec = parse_spec(json.dumps({
        "tree": {"kind": "generation_rule", "rule": [[2], [3, 1]],
                 "depth": 12},
        "weights": {"kind": "kernel_condition", "x": 1.2},
        "commands": [
            {"name": "equivalent", "expect": True,
             "other": {"tree": {"kind": "generation_rule",
                                "rule": [[2], [2, 2]], "depth": 12},
                       "weights": {"kind": "kernel_condition", "x": 1.2}}},
            {"name": "equivalent", "expect": False,
             "other": {"tree": {"kind": "generation_rule",
                                "rule": [[2], [3, 1]], "depth": 12},
                       "weights": {"kind": "kernel_condition",
                                   "x": 1.3}}}]}))
    report, code = run_suite(spec)
    assert code == 0
    assert report["results"][0]["result"]["equivalent"] is True
    assert report["results"][1]["result"]["equivalent"] is False


# ---------------------------------------------------------------------------
# demos
# ---------------------------------------------------------------------------

def test_demo_catalog_names():
    assert "dirichlet" in DEMO_NAMES
    assert "glowny" in DEMO_NAMES
    assert "sl-chm" in DEMO_NAMES
    with pytest.raises(SpecParseError):
        run_demo("unknown-demo")


@pytest.mark.parametrize("name", DEMO_NAMES)
def test_every_demo_matches_its_conclusion(name):
    payload, code = run_demo(name)
    assert code == 0, payload["statement"]
    assert payload["conclusion_matches"] is True
    assert payload["statement"]
    assert payload["evidence"]


# ---------------------------------------------------------------------------
# the executable surface
# ---------------------------------------------------------------------------

def test_main_requires_exactly_one_mode(capsys):
    assert main([]) == 2
    assert main(["--spec", "x.json", "--demo", "dirichlet"]) == 2


def test_main_spec_file_roundtrip(tmp_path, capsys):
    spec_file = tmp_path / "run.json"
    spec_file.write_text(VALID_MIN)
    out_file = tmp_path / "report.json"
    code = main(["--spec", str(spec_file), "--out", str(out_file),
                 "--quiet"])
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["tool"] == "treeshift"
    assert report["input"]["digest"].startswith("sha256:")
    assert report["results"][0]["result"]["decision_path"] == "cdsubn"
    assert capsys.readouterr().out == ""


def test_main_stdout_report(tmp_path, capsys):
    spec_file = tmp_path / "run.json"
    spec_file.write_text(VALID_MIN)
    code = main(["--spec", str(spec_file)])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["results"][0]["command"] == "dual-subnormality"


def test_main_csv_output(tmp_path):
    spec_file = tmp_path / "run.json"
    spec_file.write_text(
        '{"tree":{"kind":"path","depth":16},"weights":{"kind":'
        '"bergman_dual"},"commands":[{"name":"moments","nmax":5}]}')
    csv_file = tmp_path / "m.csv"
    code = main(["--spec", str(spec_file), "--csv", str(csv_file),
                 "--quiet"])
    assert code == 0
    lines = csv_file.read_text().strip().splitlines()
    assert lines[0] == "n,value"
    assert len(lines) == 7
    n, value = lines[2].split(",")
    assert n == "1"
    assert float(value) == pytest.approx(0.5, abs=1e-12)


def test_main_csv_without_sequence_errors(tmp_path, capsys):
    spec_file = tmp_path / "run.json"
    spec_file.write_text(VALID_MIN)
    code = main(["--spec", str(spec_file), "--csv",
                 str(tmp_path / "m.csv"), "--quiet"])
    assert code == 2


def test_main_parse_error_exit_two(tmp_path, capsys):
    spec_file = tmp_path / "bad.json"
    spec_file.write_text('{"weights":{"kind":"glowny","y1":1.5}}')
    assert main(["--spec", str(spec_file), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "y1" in err
    assert main(["--spec", str(tmp_path / "missing.json")]) == 2


def _run_cli(spec_bytes: bytes, tmp_path, from_stdin: bool, *flags):
    """``python -m treeshift`` on a spec given as bytes, from a file or
    from stdin."""
    if from_stdin:
        where, stdin = "-", spec_bytes
    else:
        where, stdin = tmp_path / "run.json", b""
        where.write_bytes(spec_bytes)
    return subprocess.run(
        [sys.executable, "-m", "treeshift", "--spec", str(where), *flags],
        input=stdin, capture_output=True, timeout=60, env=dict(
            os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p)))


@pytest.mark.parametrize("from_stdin", [False, True],
                         ids=["file", "stdin"])
@pytest.mark.parametrize("spec_bytes, error", [
    (b'\xff{"weights": {"kind": "dirichlet"}}',      # not UTF-8
     "error: $: "),
    (b"[" * 100_000, "error: $: "),                  # nested too deep
    # valid, and nested deep enough to exhaust the C stack of a
    # recursive decoder (orjson 3.8.3 segfaults on it)
    (b"[" * 10 ** 6 + b"]" * 10 ** 6, "error: $: "),
    (b'{"weights": {"kind": "dirichlet"}, "commands": [{"name": '
     b'"moments", "nmax": ' + b"9" * 5000 + b"}]}",  # a 5,000-digit int
     "error: $: "),
    # 20-digit integers past 2**64, which orjson reads as floats
    (b'{"weights": {"kind": "dirichlet"}, "commands": [{"name": '
     b'"moments", "nmax": 99999999999999999999}]}',
     "error: $.commands[0].nmax: expected an integer <= "
     "9223372036854775807, got 99999999999999999999\n"),
    (b'{"tree": {"kind": "generation_rule", "rule": '
     b'[[99999999999999999999]], "depth": 3}, '
     b'"weights": {"kind": "dirichlet"}}',
     "error: $.tree.depth: tree of kind 'generation_rule' at depth 3 would "
     "have 299999999999999999998 vertices; the limit is 2000000\n"),
], ids=["not-utf8", "deep-nesting", "valid-deep-nesting", "huge-integer",
        "20-digit-nmax", "20-digit-rule-entry"])
def test_malformed_spec_bytes_exit_two_at_the_top(tmp_path, spec_bytes,
                                                  error, from_stdin):
    out = _run_cli(spec_bytes, tmp_path, from_stdin, "--quiet")
    err = out.stderr.decode()
    assert out.returncode == 2
    assert [line for line in err.splitlines()
            if line.startswith("error:")] == [err.strip()]
    assert err.startswith(error)
    assert "Traceback" not in err
    # the message is treeshift's, not Python's hint to raise the limit
    assert "set_int_max_str_digits" not in err


def test_stdin_and_file_digests_agree(tmp_path):
    spec_bytes = (VALID_MIN + "\r\n").encode()
    reports = [json.loads(_run_cli(spec_bytes, tmp_path, from_stdin).stdout)
               for from_stdin in (False, True)]
    assert [r["input"]["path"] for r in reports] == [
        str(tmp_path / "run.json"), "<stdin>"]
    digests = {r["input"]["digest"] for r in reports}
    assert digests == {"sha256:" + hashlib.sha256(spec_bytes).hexdigest()}


def test_main_demo_failure_surface(capsys):
    assert main(["--demo", "no-such-demo"]) == 2
    err = capsys.readouterr().err
    assert "catalog" in err


@pytest.mark.parametrize("flag", ["--nmax", "--depth"])
def test_main_demo_refuses_spec_options(capsys, flag):
    assert main(["--demo", "treiso", flag, "5", "--quiet"]) == 2
    assert "apply to --spec only" in capsys.readouterr().err


def test_depth_flag_must_be_non_negative(tmp_path, capsys):
    spec_file = tmp_path / "run.json"
    spec_file.write_text(VALID_MIN)
    with pytest.raises(SystemExit) as exc:
        main(["--spec", str(spec_file), "--depth", "-1", "--quiet"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "argument --depth: must be >= 0, got -1" in err


def test_main_demo_report_shape(capsys):
    code = main(["--demo", "nbnkcsub-3"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    entry = report["results"][0]
    assert entry["demo"] == "nbnkcsub-3"
    assert entry["conclusion_matches"] is True
    assert "sequence" in entry


def test_main_deterministic_reports(tmp_path):
    spec_file = tmp_path / "run.json"
    spec_file.write_text(
        '{"tree":{"kind":"path","depth":32},"weights":{"kind":"dirichlet"},'
        '"commands":[{"name":"check-2iso"},{"name":"moments","nmax":6,'
        '"dual":true},{"name":"verify-table1","row":"kernel","nmax":4}]}')
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["--spec", str(spec_file), "--out", str(a), "--quiet"]) == 0
    assert main(["--spec", str(spec_file), "--out", str(b), "--quiet"]) == 0
    ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
    for r in (ra, rb):
        for entry in r["results"]:
            entry.pop("wall_clock_s")
    assert ra == rb


def test_main_tol_and_nmax_flags(tmp_path, capsys):
    spec_file = tmp_path / "run.json"
    spec_file.write_text(
        '{"tree":{"kind":"path","depth":32},"weights":{"kind":"dirichlet"},'
        '"commands":[{"name":"moments","dual":true}]}')
    code = main(["--spec", str(spec_file), "--nmax", "3", "--quiet",
                 "--out", str(tmp_path / "r.json")])
    assert code == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert len(report["results"][0]["result"]["values"]) == 4
    assert report["tolerance"] == 1e-9
    code2 = main(["--spec", str(spec_file), "--tol", "1e-6", "--quiet",
                  "--out", str(tmp_path / "r2.json")])
    assert code2 == 0
    assert json.loads((tmp_path / "r2.json").read_text())["tolerance"] == 1e-6


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf", "abc"])
def test_tol_flag_must_be_finite_and_positive(tmp_path, capsys, tol):
    spec_file = tmp_path / "s.json"
    spec_file.write_text(VALID_MIN)
    with pytest.raises(SystemExit) as exc:
        main(["--spec", str(spec_file), "--quiet", "--tol", tol])
    assert exc.value.code == 2
    assert "--tol: tol must be a finite number > 0" in capsys.readouterr().err


@pytest.mark.parametrize("command,path", [
    ('{"name":"moments","nmax":"5"}', "$.commands[0].nmax"),
    ('{"name":"moments","nmax":true}', "$.commands[0].nmax"),
    ('{"name":"check-kernel","k":1.5}', "$.commands[0].k"),
    ('{"name":"check-kernel","k":false}', "$.commands[0].k"),
    ('{"name":"verify-table1","row":"kernel","depth":"8"}',
     "$.commands[0].depth"),
    ('{"name":"moments","dual":1}', "$.commands[0].dual"),
    ('{"name":"moments","vertex":3}', "$.commands[0].vertex"),
    ('{"name":"moments","vertex":[0,true]}', "$.commands[0].vertex[1]"),
    ('{"name":"dual-subnormality","nmax":12.0}', "$.commands[0].nmax"),
    ('{"name":"dual-subnormality","nmax":-5}', "$.commands[0].nmax"),
    ('{"name":"moments","nmax":-1}', "$.commands[0].nmax"),
    ('{"name":"check-2iso","expect":"no"}', "$.commands[0].expect"),
    ('{"name":"check-kernel","expect":1}', "$.commands[0].expect"),
    ('{"name":"equivalent","other":{"tree":{"kind":"path","depth":3},'
     '"weights":{"kind":"adjacency"}},"expect":"yes"}',
     "$.commands[0].expect"),
    ('{"name":"dual-subnormality","expect":true}', "$.commands[0].expect"),
    ('{"name":"dual-subnormality","expect":"normal"}',
     "$.commands[0].expect"),
    ('{"name":"verify-table1","row":5}', "$.commands[0].row"),
    # fixed ranges, known without the run's depth
    ('{"name":"verify-table1","row":"kernel","nmax":0}',
     "$.commands[0].nmax"),
    ('{"name":"verify-table1","row":"kernel","depth":0}',
     "$.commands[0].depth"),
    ('{"name":"moments","vertex":[0,-1]}', "$.commands[0].vertex[1]"),
    ('{"name":"demo","demo":5}', "$.commands[0].demo"),
    ('{"name":"demo","demo":"no-such-demo"}', "$.commands[0].demo"),
])
def test_command_parameter_types_checked_at_parse_time(tmp_path, capsys,
                                                       command, path):
    spec_file = tmp_path / "run.json"
    spec_file.write_text('{"weights":{"kind":"dirichlet"},"commands":['
                         + command + ']}')
    assert main(["--spec", str(spec_file), "--quiet"]) == 2
    assert f"error: {path}:" in capsys.readouterr().err


def test_size_budget_fails_fast(tmp_path, capsys):
    spec_file = tmp_path / "run.json"
    spec_file.write_text('{"tree":{"kind":"path","depth":100000000},'
                         '"weights":{"kind":"adjacency"}}')
    start = time.perf_counter()
    assert main(["--spec", str(spec_file), "--quiet"]) == 2
    assert time.perf_counter() - start < 2.0
    err = capsys.readouterr().err
    assert "$.tree.depth" in err and "100000001 vertices" in err


def test_explicit_edge_list_is_sized_before_it_is_built(tmp_path, capsys,
                                                        monkeypatch):
    monkeypatch.setattr(trees, "MAX_VERTICES", 3)

    def refuse(*args, **kwargs):
        raise AssertionError("the edge list was built")

    # the two builders every tree goes through
    monkeypatch.setattr(trees, "_rule_classes", refuse)
    monkeypatch.setattr(trees, "_tree_runs", refuse)
    spec_file = tmp_path / "run.json"
    spec_file.write_text(json.dumps({
        "tree": {"kind": "explicit",
                 "edges": [["r", "a"], ["a", "b"], ["b", "c"], ["c", "d"]]},
        "weights": {"kind": "adjacency"}}))
    assert main(["--spec", str(spec_file), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "$.tree.edges" in err and "5 vertices" in err


@pytest.mark.parametrize("tree", [
    {"kind": "quasi_brownian", "valency": 2 ** 63 - 1, "depth": 0},
    {"kind": "t_eta_kappa", "eta": 2 ** 63 - 1, "depth": 0},
], ids=["quasi-brownian", "t-eta-kappa"])
def test_a_tree_of_depth_0_is_one_vertex_whatever_its_branching(tmp_path,
                                                                 capsys,
                                                                 tree):
    spec_file, out = tmp_path / "run.json", tmp_path / "report.json"
    spec_file.write_text(json.dumps({"tree": tree,
                                     "weights": {"kind": "adjacency"}}))
    assert main(["--spec", str(spec_file), "--quiet"]) == 0
    spec_file.write_text(json.dumps({"tree": tree,
                                     "weights": {"kind": "adjacency"},
                                     "commands": [{"name": "materialize"}]}))
    assert main(["--spec", str(spec_file), "--quiet", "--out",
                 str(out)]) == 0
    assert capsys.readouterr().err == ""
    result = json.loads(out.read_text())["results"][0]["result"]
    assert result["vertex_count"] == 1 and result["generation_sizes"] == [1]


def test_a_star_beyond_int64_at_depth_0_is_its_root():
    tree = materialize(TreeSpec("t_eta_kappa", eta=10 ** 30, depth=0))
    assert tree.vertex_count == 1 and tree.labels == ["g0:0"]


def test_size_budget_applies_to_depth_override(tmp_path, capsys):
    spec_file = tmp_path / "run.json"
    spec_file.write_text('{"tree":{"kind":"quasi_brownian","valency":3,'
                         '"depth":4},"weights":{"kind":"adjacency"}}')
    assert main(["--spec", str(spec_file), "--depth", "5000",
                 "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "$.tree.depth" in err and "25010001 vertices" in err


def test_import_loads_no_scipy():
    code = ("import sys, treeshift.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=dict(
                             os.environ, PYTHONPATH=os.pathsep.join(
                                 p for p in sys.path if p)))
    assert out.stdout.strip() == "[]"


def test_package_exports_each_module_all_once():
    names = treeshift.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(treeshift, name) for name in names)
    assert names == ["__version__"] + [
        name for module in ("errors", "trees", "shifts", "moments",
                            "matrices")
        for name in getattr(treeshift, module).__all__]


def test_generation_rule_entries_must_be_integers():
    for row in ("[2, true]", "[2, 1.0]", "[\"2\"]", "[false, 2]",
                "[true, 300]", "[256, -255]", "2", "\"11\""):
        with pytest.raises(SpecParseError) as err:
            parse_spec('{"weights":{"kind":"adjacency"},"tree":{"kind":'
                       '"generation_rule","depth":3,"rule":[[2],' + row
                       + ']}}')
        assert err.value.json_path == "$.tree.rule"


def test_a_parsed_rule_keeps_its_decoded_list_rows():
    # the rows are not copied into tuples, so a parsed generation_rule
    # spec cannot be hashed and differs from the spec with tuple rows
    spec = parse_spec('{"weights":{"kind":"adjacency"},"tree":{"kind":'
                      '"generation_rule","depth":3,"rule":[[2],[1,3]]}}')
    tree = spec.tree
    assert tree.rule == ([2], [1, 3])
    with pytest.raises(TypeError, match="unhashable"):
        hash(tree)
    tupled = TreeSpec("generation_rule", depth=3, rule=((2,), (1, 3)))
    assert tree != tupled
    assert materialize(tree).labels == materialize(tupled).labels


# ---------------------------------------------------------------------------
# the spec schema: TreeSpec/WeightSpec.KIND_FIELDS and the command table
# ---------------------------------------------------------------------------

# a valid value for every required field and command parameter
_SAMPLE = {"depth": 3, "eta": 2, "valency": 3, "edges": [["r", "a"]],
           "rule": [[2]], "values": {"g1:0": 1.0}, "x": 1.2,
           "row": "kernel", "demo": "dirichlet",
           "other": {"tree": {"kind": "path", "depth": 3},
                     "weights": {"kind": "adjacency"}}}
_SECTIONS = {"tree": TreeSpec, "weights": WeightSpec}


def _section_spec(section, obj):
    other = "weights" if section == "tree" else "tree"
    filler = {"kind": "adjacency"} if other == "weights" else \
        {"kind": "path", "depth": 3}
    return json.dumps({section: obj, other: filler})


@pytest.mark.parametrize("section,kind,field", [
    (section, kind, field) for section, cls in _SECTIONS.items()
    for kind, (required, _) in cls.KIND_FIELDS.items() for field in required])
def test_missing_required_field_fails_at_its_path(section, kind, field):
    required = _SECTIONS[section].KIND_FIELDS[kind][0]
    obj = {"kind": kind, **{f: _SAMPLE[f] for f in required if f != field}}
    with pytest.raises(SpecParseError) as err:
        parse_spec(_section_spec(section, obj))
    assert err.value.json_path == f"$.{section}.{field}"


@pytest.mark.parametrize("section,kind,field", [
    (section, kind, field) for section, cls in _SECTIONS.items()
    for kind, own in cls.KIND_FIELDS.items()
    for field in sorted({f for r, o in cls.KIND_FIELDS.values() for f in r + o}
                        - set(own[0] + own[1]))])
def test_field_of_another_kind_is_rejected_at_its_path(section, kind, field):
    required = _SECTIONS[section].KIND_FIELDS[kind][0]
    obj = {"kind": kind, **{f: _SAMPLE[f] for f in required}, field: 1}
    with pytest.raises(SpecParseError) as err:
        parse_spec(_section_spec(section, obj))
    assert err.value.json_path == f"$.{section}.{field}"


@pytest.mark.parametrize("kind", sorted(WeightSpec.KIND_FIELDS))
def test_split_is_not_a_weight_field(kind):
    # a proportional split follows from the presence of "proportions"
    required = WeightSpec.KIND_FIELDS[kind][0]
    obj = {"kind": kind, **{f: _SAMPLE[f] for f in required},
           "split": "given"}
    with pytest.raises(SpecParseError) as err:
        parse_spec(_section_spec("weights", obj))
    assert err.value.json_path == "$.weights.split"


def _command_spec(command):
    return json.dumps({"weights": {"kind": "dirichlet"},
                       "commands": [command]})


@pytest.mark.parametrize("name", sorted(_Suite.COMMANDS))
def test_every_command_checks_its_parameters(name):
    _, required, _ = _Suite.COMMANDS[name]
    full = {"name": name, **{p: _SAMPLE[p] for p in required}}
    assert parse_spec(_command_spec(full)).commands[0].name == name
    for p in required:
        with pytest.raises(SpecParseError) as err:
            parse_spec(_command_spec({k: v for k, v in full.items()
                                      if k != p}))
        assert err.value.json_path == f"$.commands[0].{p}"
    with pytest.raises(SpecParseError) as err:
        parse_spec(_command_spec({**full, "bogus": 1}))
    assert err.value.json_path == "$.commands[0].bogus"


def test_command_depth_must_be_non_negative():
    with pytest.raises(SpecParseError) as err:
        parse_spec(_command_spec({"name": "verify-table1", "row": "kernel",
                                  "depth": -1}))
    assert err.value.json_path == "$.commands[0].depth"


def test_check_kernel_k_must_be_non_negative(tmp_path, capsys):
    with pytest.raises(SpecParseError) as err:
        parse_spec(_command_spec({"name": "check-kernel", "k": -1}))
    assert err.value.json_path == "$.commands[0].k"
    assert "expected an integer >= 0, got -1" in str(err.value)
    assert parse_spec(_command_spec({"name": "check-kernel", "k": 0}))
    spec_file = tmp_path / "run.json"
    spec_file.write_text(_command_spec({"name": "check-kernel", "k": -1}))
    assert main(["--spec", str(spec_file), "--quiet"]) == 2
    assert "$.commands[0].k" in capsys.readouterr().err


@pytest.mark.parametrize("tol", [-1, 0, math.nan, math.inf])
def test_library_entry_points_reject_bad_tolerances(tol):
    spec = parse_spec(VALID_MIN)
    with pytest.raises(ConfigurationError, match="finite number > 0"):
        run_suite(spec, tol=tol)
    with pytest.raises(ConfigurationError, match="finite number > 0"):
        run_suite(dataclasses.replace(spec, tolerance=tol))
    with pytest.raises(ConfigurationError, match="finite number > 0"):
        run_demo("dirichlet", tol=tol)


@pytest.mark.parametrize("tree,path", [
    # a 2-cycle: no root; found while inferring the depth
    ({"kind": "explicit", "edges": [["a", "b"], ["b", "a"]]},
     "$.tree.edges: cycle through vertex"),
    # the same with a depth given: found while parsing too
    ({"kind": "explicit", "edges": [["r", "a"], ["b", "c"], ["c", "b"]],
      "depth": 3}, "$.tree.edges: cycle through vertex"),
    ({"kind": "explicit", "edges": [["r", "a"], ["a", "b"]], "depth": 1},
     "$.tree.edges: vertex 'b' at depth 2"),
    # a rule row that does not match its generation
    ({"kind": "generation_rule", "depth": 3, "rule": [[2], [1]]},
     "$.tree.rule: generation rule row 1 has length 1"),
])
def test_structural_errors_exit_two_with_a_json_path(tmp_path, capsys, tree,
                                                     path):
    spec_file = tmp_path / "run.json"
    spec_file.write_text(json.dumps({
        "tree": tree, "weights": {"kind": "adjacency"},
        "commands": [{"name": "materialize"}]}))
    assert main(["--spec", str(spec_file), "--quiet"]) == 2
    assert path in capsys.readouterr().err


def test_parse_spec_finds_a_cycle_under_a_given_depth():
    with pytest.raises(SpecParseError) as err:
        parse_spec(json.dumps({
            "tree": {"kind": "explicit", "depth": 3,
                     "edges": [["r", "a"], ["b", "c"], ["c", "b"]]},
            "weights": {"kind": "adjacency"}}))
    assert err.value.json_path == "$.tree.edges"
    assert "cycle through vertex" in str(err.value)


def test_spec_run_sizes_and_builds_each_tree_once(tmp_path, monkeypatch):
    sized, built = [], []
    count, intern = trees.spec_vertex_count, trees._edge_arrays
    monkeypatch.setattr(trees, "spec_vertex_count",
                        lambda *args: sized.append(args) or count(*args))
    monkeypatch.setattr(trees, "_edge_arrays",
                        lambda *args: built.append(args) or intern(*args))
    spec_file = tmp_path / "run.json"
    spec_file.write_text(json.dumps({
        "tree": {"kind": "explicit", "edges": [["r", "a"], ["a", "b"]]},
        "weights": {"kind": "adjacency"},
        "commands": [{"name": "materialize"}, {
            "name": "equivalent", "other": {
                "tree": {"kind": "path", "depth": 2},
                "weights": {"kind": "adjacency"}}}]}))
    assert main(["--spec", str(spec_file), "--quiet"]) == 0
    assert len(sized) == 2  # the main tree and the other tree
    assert len(built) == 1  # the explicit one


def test_generic_path_report_is_bounded(tmp_path):
    spec_file, out = tmp_path / "run.json", tmp_path / "report.json"
    spec_file.write_text(json.dumps({
        "tree": {"kind": "path", "depth": 100_000},
        "weights": {"kind": "bergman_dual"},
        "commands": [{"name": "dual-subnormality"}]}))
    main(["--spec", str(spec_file), "--out", str(out), "--quiet"])
    assert out.stat().st_size < 100_000
    evidence = json.loads(out.read_text())["results"][0]["result"][
        "evidence"]
    assert len(evidence["witnesses"]) == 64
    assert evidence["witnesses_omitted"] == 99_998 - 64


@pytest.mark.parametrize("proportions,total", [
    ({"g1:0": 1e200}, "inf"),  # the square overflows
    ({"g1:0": 1e-200, "g1:1": 1e-200}, "0.0"),  # both squares underflow
    # a subnormal sum: the target divided by it overflows
    ({"g1:0": 1e-160, "g1:1": 1e-160}, "2e-320"),
])
def test_proportions_out_of_the_float_range_exit_two(tmp_path, capsys,
                                                     proportions, total):
    spec_file = tmp_path / "run.json"
    spec_file.write_text(json.dumps({
        "tree": {"kind": "generation_rule", "rule": [[2]], "depth": 4},
        "weights": {"kind": "kernel_condition", "x": 1.3,
                    "proportions": proportions},
        "commands": [{"name": "check-2iso"}]}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--spec", str(spec_file), "--quiet"]) == 2
    assert caught == []
    assert capsys.readouterr().err == (
        f"error: $.weights: proportions at the children of 'g0:0' are out "
        f"of range: their sum of squares is {total}\n")


def test_overflowing_dual_moments_are_refused_without_a_warning(
        tmp_path, capsys):
    # dual weights 1e100 on a path: the squared norms of the powers pass
    # 1e308 by order 4, which is an error, not a numpy overflow warning
    spec_file, out = tmp_path / "run.json", tmp_path / "report.json"
    spec_file.write_text(json.dumps({
        "tree": {"kind": "path", "depth": 8},
        "weights": {"kind": "explicit",
                    "values": {f"g{d}:0": 1e-100 for d in range(1, 9)}},
        "commands": [{"name": "moments", "dual": True, "nmax": 6}]}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--spec", str(spec_file), "--out", str(out),
                     "--quiet"]) == 1
    assert caught == []
    assert capsys.readouterr().err == ""
    result = json.loads(out.read_text())["results"][0]["result"]
    assert result == {"error": "moment sequence values must be finite",
                      "error_type": "DomainError"}


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("tree,big,command,value", [
    ({"kind": "path", "depth": 5}, 1e308, "check-2iso", "nan"),
    ({"kind": "generation_rule", "rule": [[2], [2, 2], [1, 1, 1, 1]],
      "depth": 4}, 1e300, "check-kernel", "inf"),
])
def test_overflowed_witness_values_are_strict_json(tmp_path, tree, big,
                                                   command, value):
    labels = materialize(parse_spec(json.dumps({
        "tree": tree, "weights": {"kind": "adjacency"}})).tree).labels
    values = {v: 1.0 for v in labels[1:]}
    values["g3:0"] = big
    spec_file, out = tmp_path / "run.json", tmp_path / "report.json"
    spec_file.write_text(json.dumps({
        "tree": tree, "weights": {"kind": "explicit", "values": values},
        "commands": [{"name": command}]}))
    assert main(["--spec", str(spec_file), "--out", str(out),
                 "--quiet"]) == 1
    result = _strict_json(out.read_text())["results"][0]["result"]
    assert result["holds"] is False
    assert result["witness"] == ["g1:0", None]
    assert f"witness value {value} (an overflow) written as null" in (
        result["note"])


def test_equivalent_builds_an_explicit_other_tree_once(tmp_path,
                                                       monkeypatch):
    built = []
    intern = trees._edge_arrays

    def counted(*args, **kwargs):
        built.append(args)
        return intern(*args, **kwargs)

    monkeypatch.setattr(trees, "_edge_arrays", counted)
    spec_file = tmp_path / "run.json"
    spec_file.write_text(json.dumps({
        "tree": {"kind": "path", "depth": 3},
        "weights": {"kind": "adjacency"},
        "commands": [{"name": "equivalent", "other": {
            "tree": {"kind": "explicit",
                     "edges": [["r", "a"], ["a", "b"], ["b", "c"]]},
            "weights": {"kind": "adjacency"}}}]}))
    assert main(["--spec", str(spec_file), "--quiet"]) == 0
    assert len(built) == 1


# ---------------------------------------------------------------------------
# every shift of a run is built while parsing
# ---------------------------------------------------------------------------

def test_parse_spec_refuses_weights_that_do_not_fit_the_tree(tmp_path,
                                                            capsys):
    spec = json.dumps({
        "tree": {"kind": "path", "depth": 3},
        "weights": {"kind": "kernel_condition", "x": 1.2,
                    "proportions": {"g9:0": 2}}})
    with pytest.raises(SpecParseError) as err:
        parse_spec(spec)
    assert err.value.json_path == "$.weights"
    assert "names no non-root vertex" in str(err.value)
    spec_file = tmp_path / "run.json"
    spec_file.write_text(spec)
    assert main(["--spec", str(spec_file), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("error: $.weights: ")


def test_other_weights_that_do_not_fit_exit_two(tmp_path, capsys):
    spec_file = tmp_path / "run.json"
    spec_file.write_text(json.dumps({
        "tree": {"kind": "path", "depth": 4},
        "weights": {"kind": "dirichlet"},
        "commands": [{"name": "equivalent", "other": {
            "tree": {"kind": "t_eta_kappa", "eta": 2, "depth": 4},
            "weights": {"kind": "dirichlet"}}}]}))
    assert main(["--spec", str(spec_file), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith(
        "error: $.commands[0].other.weights: weight kind 'dirichlet' "
        "requires a path")


def _binary_edges(depth):
    return [[f"v{i}", f"v{2 * i + c}"] for i in range(1, 2 ** depth)
            for c in (0, 1)]


def _table1_result(tree, command):
    report, code = run_suite(parse_spec(json.dumps({
        "tree": tree, "weights": {"kind": "kernel_condition", "x": 1.2},
        "commands": [command]})))
    return code, report["results"][0]


def test_verify_table1_depth_cuts_an_explicit_tree():
    command = {"name": "verify-table1", "row": "kernel", "nmax": 3}
    code, cut = _table1_result(
        {"kind": "explicit", "edges": _binary_edges(6)},
        {**command, "depth": 4})
    assert code == 0 and cut["status"] == "passed"
    _, small = _table1_result(
        {"kind": "explicit", "edges": _binary_edges(4)}, command)
    assert cut["result"] == small["result"]
    assert cut["result"]["verified_depth"] == 3


def test_verify_table1_depth_above_the_run_depth_is_a_range_error():
    code, entry = _table1_result(
        {"kind": "path", "depth": 6},
        {"name": "verify-table1", "row": "kernel", "nmax": 3, "depth": 7})
    assert code == 1 and entry["status"] == "error"
    assert entry["result"] == {
        "error": "cut depth must be in [1, 6], got 7",
        "error_type": "RangeError"}


def test_depth_override_builds_only_the_run_tree(tmp_path, capsys):
    spec_file = tmp_path / "run.json"
    spec_file.write_text(json.dumps({
        "tree": {"kind": "quasi_brownian", "valency": 3, "depth": 5000},
        "weights": {"kind": "adjacency"},
        "commands": [{"name": "materialize"}]}))
    assert main(["--spec", str(spec_file), "--quiet"]) == 2
    assert "$.tree.depth" in capsys.readouterr().err
    out = tmp_path / "report.json"
    assert main(["--spec", str(spec_file), "--depth", "4", "--out",
                 str(out), "--quiet"]) == 0
    result = json.loads(out.read_text())["results"][0]["result"]
    assert result["materialized_depth"] == 4
    assert result["vertex_count"] == 25


def test_run_suite_builds_no_tree_and_no_shift(monkeypatch):
    spec = parse_spec(json.dumps({
        "tree": {"kind": "path", "depth": 12},
        "weights": {"kind": "dirichlet"},
        "commands": [
            {"name": "equivalent", "expect": False, "other": {
                "tree": {"kind": "path", "depth": 12},
                "weights": {"kind": "kernel_condition", "x": 1.3}}},
            {"name": "verify-table1", "row": "kernel", "nmax": 4,
             "depth": 8}]}))

    def refuse(*args, **kwargs):
        raise AssertionError("built while running")

    monkeypatch.setattr(cli, "materialize", refuse)
    monkeypatch.setattr(cli, "build_shift", refuse)
    report, code = run_suite(spec)
    assert code == 0
    assert [r["status"] for r in report["results"]] == ["passed"] * 2


# ---------------------------------------------------------------------------
# resource bounds and malformed input: exit 2 at a JSON path
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tree", [
    {"kind": "explicit", "edges": [["r", "a"]]},
    {"kind": "generation_rule", "rule": [[1], [0]]},
])
def test_level_budget_refuses_deep_trees_of_few_vertices(tmp_path, capsys,
                                                         tree):
    spec_file = tmp_path / "run.json"
    spec_file.write_text(json.dumps({
        "tree": {**tree, "depth": trees.MAX_VERTICES},
        "weights": {"kind": "adjacency"},
        "commands": [{"name": "materialize"}]}))
    start = time.perf_counter()
    assert main(["--spec", str(spec_file), "--quiet"]) == 2
    assert time.perf_counter() - start < 2.0
    assert capsys.readouterr().err == (
        f"error: $.tree.depth: tree of kind {tree['kind']!r} at depth "
        f"{trees.MAX_VERTICES} would have {trees.MAX_VERTICES + 1} "
        f"generations; the limit is {trees.MAX_VERTICES}\n")


def test_level_budget_applies_to_depth_override(tmp_path, capsys):
    spec_file = tmp_path / "run.json"
    spec_file.write_text(json.dumps({
        "tree": {"kind": "explicit", "edges": [["r", "a"]]},
        "weights": {"kind": "adjacency"}}))
    assert main(["--spec", str(spec_file), "--depth", "5000000",
                 "--quiet"]) == 2
    assert "error: $.tree.depth: " in capsys.readouterr().err


@pytest.mark.parametrize("doc,path", [
    ({"weights": {"kind": []}}, "$.weights.kind"),
    ({"tree": {"kind": {}}, "weights": {"kind": "adjacency"}},
     "$.tree.kind"),
    ({"weights": {"kind": "dirichlet"}, "commands": [{"name": []}]},
     "$.commands[0].name"),
    ({"weights": {"kind": "dirichlet"},
      "commands": [{"name": "dual-subnormality", "nmax": 10 ** 30}]},
     "$.commands[0].nmax"),
    ({"weights": {"kind": "dirichlet"},
      "commands": [{"name": "check-kernel", "k": 2 ** 63}]},
     "$.commands[0].k"),
])
def test_malformed_names_and_huge_integers_exit_two(tmp_path, capsys, doc,
                                                    path):
    spec_file = tmp_path / "run.json"
    spec_file.write_text(json.dumps(doc))
    assert main(["--spec", str(spec_file), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


@pytest.mark.parametrize("flag", ["--nmax", "--depth"])
def test_count_flags_above_the_int64_range_are_usage_errors(tmp_path,
                                                            capsys, flag):
    spec_file = tmp_path / "run.json"
    spec_file.write_text('{"weights":{"kind":"dirichlet"},"commands":'
                         '[{"name":"dual-subnormality"}]}')
    with pytest.raises(SystemExit) as raised:
        main(["--spec", str(spec_file), flag, str(10 ** 30), "--quiet"])
    assert raised.value.code == 2
    assert (f"argument {flag}: must be <= {2 ** 63 - 1}, got {10 ** 30}"
            in capsys.readouterr().err)
    # the largest int64 passes the flag check
    assert main(["--spec", str(spec_file), flag, str(2 ** 63 - 1),
                 "--quiet"]) == (0 if flag == "--nmax" else 2)
