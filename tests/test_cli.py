"""Command line: spec parsing, suite execution, demos, exit codes."""
import dataclasses
import json
import math
import os
import subprocess
import sys
import time

import pytest

from treeshift import (ConfigurationError, SpecParseError, TreeSpec,
                       WeightSpec)
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
    ('{"weights":{"kind":"glowny","y1":1.5}}', "$.weights"),
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
     + '}},"tree":{"kind":"path","depth":1}}', "$.weights.values"),
    ('{"weights":{"kind":"kernel_condition"}}', "$.weights.x"),
    ('{"weights":{"kind":"dirichlet"},"commands":[{"name":"check-2iso"}],'
     '"output":{"json":"r.json"}}', "$.output"),
])
def test_parse_errors_carry_json_paths(text, path_fragment):
    with pytest.raises(SpecParseError) as err:
        parse_spec(text)
    assert err.value.json_path == path_fragment


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


def test_main_demo_failure_surface(capsys):
    assert main(["--demo", "no-such-demo"]) == 2
    err = capsys.readouterr().err
    assert "catalog" in err


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


def test_generation_rule_entries_must_be_integers():
    for row in ("[2, true]", "[2, 1.0]", "[\"2\"]"):
        with pytest.raises(SpecParseError) as err:
            parse_spec('{"weights":{"kind":"adjacency"},"tree":{"kind":'
                       '"generation_rule","depth":3,"rule":[[2],' + row
                       + ']}}')
        assert err.value.json_path == "$.tree.rule"


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
    # the same with a depth given: found when the tree is built
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
