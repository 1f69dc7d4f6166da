"""The runner of tests/gates.py on probe rows of a depth-3 path: a row
that holds passes with a record, and each kind of breach exits 1 and
names the row."""
import json

import gates
from gates import Gate, Same

PATH3 = {"tree": {"kind": "path", "depth": 3},
         "weights": {"kind": "dirichlet"},
         "commands": [{"name": "dual-subnormality"}]}


def _run(capsys, *rows: Gate) -> tuple[int, list[dict], str]:
    code = gates.main(rows)
    out, err = capsys.readouterr()
    return code, [json.loads(line) for line in out.splitlines()], err


def test_a_probe_that_holds_passes_with_one_record(capsys):
    code, records, err = _run(
        capsys,
        Gate("probe", PATH3, {"exit": 0, "canonical": True,
                              "results.0.decision_path": "cdsubn"}),
        Gate("probe-again", PATH3, {"results": Same("probe")}))
    assert (code, err) == (0, "")
    assert [r["name"] for r in records] == ["probe", "probe-again"]
    record = records[0]
    # the peak is not bounded here: a child's ru_maxrss starts at the
    # peak of the process that started it, this test run
    assert record["wall_s"] > 0 and record["peak_mb"] > 0
    assert (record["timeout_s"], record["bound_mb"]) == (30.0, None)
    assert record["breaches"] == []


def test_a_peak_over_the_bound_fails_and_names_the_row(capsys):
    code, records, err = _run(
        capsys, Gate("probe-1mb", PATH3, {"exit": 0}, bound_mb=1))
    assert code == 1
    assert "probe-1mb: peak RSS" in err
    assert records[0]["breaches"][0].endswith("bound 1 MB")


def test_a_wrong_result_fails_and_names_the_row(capsys):
    code, records, err = _run(
        capsys, Gate("probe-path", PATH3,
                     {"results.0.decision_path": "main2"}))
    assert code == 1
    assert ('probe-path: results.0.decision_path: expected "main2", '
            'observed "cdsubn"') in err


def test_a_missing_value_or_row_fails(capsys):
    code, _, err = _run(
        capsys, Gate("probe-missing", PATH3,
                     {"results.1.verdict": "subnormal",
                      "results": Same("no-such-row")}))
    assert code == 1
    assert "probe-missing: results.1.verdict: expected" in err
    assert "observed nothing" in err
    assert ("probe-missing: results: expected nothing (as no-such-row)"
            in err)


def test_a_run_past_its_timeout_fails_and_names_the_row(capsys):
    code, records, err = _run(
        capsys, Gate("probe-slow", PATH3, {"exit": 0}, timeout_s=0.01))
    assert code == 1
    assert "probe-slow: timed out after 0.01 s" in err
    assert records[0]["wall_s"] is None
