"""One implementation per class check, read by every layer: the adjacency
expansion identity and the quasi-Brownian verdict in ``trees``, the
kernel-class precondition in ``shifts``, the root extension sum in
``moments``; and the input checks that ride along with them."""
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import treeshift
from treeshift import (DEFAULT_TOL, ClassificationError,
                       ConfigurationError, DirectedTree, DomainError,
                       MomentVerdict, PropertyVerdict, Report,
                       ShiftInvariants, TreeSpec, WeightSpec,
                       build_shift, classify_adjacency,
                       classify_tree, comb_tree_spec,
                       dual_subnormality, hub_comb_tree_spec,
                       is_two_isometry, materialize,
                       perturbed_kernel_dual_moment, quasi_brownian,
                       require_kernel_class, satisfies_kernel_condition,
                       shift_invariants, shifts, stieltjes_test, trees,
                       two_isometry_weight, two_plus_three_tree_spec,
                       verify_table1, vertex_norm)
from treeshift.cli import main, parse_spec, run_suite
from treeshift.moments import (_hankel_scan, _root_extension_sum,
                               _stieltjes_dicts)

# every tree family, at several depths, and trees that break the
# quasi-Brownian pattern in each of its three ways
TREES = {
    **{f"path-{d}": TreeSpec("path", depth=d) for d in (0, 1, 2, 5)},
    "t-3": TreeSpec("t_eta_kappa", eta=3, depth=5),
    **{f"qb-{l}-{d}": TreeSpec("quasi_brownian", valency=l, depth=d)
       for l in (2, 3, 4) for d in (1, 2, 6)},
    **{f"comb-{l}": comb_tree_spec(l, 6) for l in (2, 3, 4)},
    **{f"hub-comb-{l}": hub_comb_tree_spec(l, 6) for l in (2, 3)},
    **{f"two-plus-three-{v}": two_plus_three_tree_spec(v, 5)
       for v in "ab"},
    # a degree-3 vertex under a valency-2 spine: a child degree outside
    # {1, l}
    "stray-child": TreeSpec("generation_rule",
                            rule=((2,), (2, 1), (3, 1, 1)), depth=5),
    # child degrees summing to 2*deg instead of 2*deg - 1
    "bad-sum": TreeSpec("generation_rule", rule=((2,), (2, 2)), depth=5),
    # a leaf above the last level
    "leaf": TreeSpec("generation_rule", rule=((2,), (0, 3)), depth=5),
    "explicit": TreeSpec("explicit", edges=(
        ("r", "a"), ("r", "b"), ("a", "c"), ("a", "d"), ("b", "e"),
        ("c", "f"), ("d", "g"), ("d", "h"), ("e", "i")), depth=3),
}


@pytest.fixture(params=sorted(TREES), ids=str)
def tree(request):
    return materialize(TREES[request.param])


@st.composite
def random_trees(draw):
    depth = draw(st.integers(min_value=0, max_value=6))
    rule, width = [], 1
    for _ in range(draw(st.integers(min_value=0, max_value=min(depth, 3)))):
        row = [draw(st.integers(min_value=0, max_value=3))
               for _ in range(width)]
        if sum(row) == 0:
            row[0] = 1
        rule.append(tuple(row))
        width = sum(row)
    return materialize(TreeSpec("generation_rule", rule=tuple(rule),
                                depth=depth))


def _check_structure(tree):
    report = classify_tree(tree)
    assert quasi_brownian(tree) == report.quasi_brownian
    n = tree.materialized_depth
    grandchildren, target = tree.adjacency_expansion()
    inner = [u for g in range(n - 1) for u in tree.generations()[g]]
    assert grandchildren.tolist() == [
        sum(tree.degree(c) for c in tree.children_of(u)) for u in inner]
    assert target.tolist() == [2 * tree.degree(u) - 1 for u in inner]
    if n >= 2:
        qb = classify_adjacency(tree).quasi_brownian_isometry
        assert qb.note == (f"valency {report.valency}" if report.valency
                           else "")


def test_quasi_brownian_verdict_is_the_one_classify_tree_reports(tree):
    _check_structure(tree)


@settings(max_examples=60, deadline=None)
@given(random_trees())
def test_quasi_brownian_verdict_on_random_trees(tree):
    _check_structure(tree)


def test_classify_adjacency_builds_no_structure_report(monkeypatch):
    def refuse(tree):
        raise AssertionError("classify_tree was called")

    monkeypatch.setattr(trees, "classify_tree", refuse)
    monkeypatch.setattr(shifts, "classify_tree", refuse, raising=False)
    tree = materialize(TreeSpec("quasi_brownian", valency=3, depth=8))
    assert classify_adjacency(tree).quasi_brownian_isometry.holds


# ---------------------------------------------------------------------------
# the kernel-class precondition: one check, six messages
# ---------------------------------------------------------------------------

def _shifts():
    """A shift without the expansion identity, one with it but without
    sibling constancy at the root, and one whose constancy fails in
    generation 1 (a glowny split one level down)."""
    path = materialize(TreeSpec("path", depth=10))
    bergman = build_shift(WeightSpec("bergman_dual"), path)
    glowny = build_shift(WeightSpec("glowny", y1=1.1, y2=1.3),
                         materialize(TreeSpec("t_eta_kappa", eta=2,
                                              depth=10)))
    tree = materialize(TreeSpec("generation_rule", rule=((1,), (2,)),
                                depth=10))
    ys = (1.05, 1.1)
    w = {"g2:0": 1 / math.sqrt(2 * (2 - ys[0] ** 2)),
         "g2:1": 1 / math.sqrt(2 * (2 - ys[1] ** 2))}
    w["g1:0"] = 1 / math.sqrt(2 - w["g2:0"] ** 2 - w["g2:1"] ** 2)
    for d in range(3, 11):
        for i, y in enumerate(ys):
            w[f"g{d}:{i}"] = two_isometry_weight(d - 3, y)
    split = build_shift(WeightSpec("explicit", values=w), tree)
    return bergman, glowny, split


@pytest.mark.parametrize("caller,prefix,k", [
    (lambda s: shift_invariants(s), "invariants require", 0),
    (lambda s: perturbed_kernel_dual_moment(s, n=2), "closed form requires",
     1),
    (lambda s: verify_table1(s, "kernel", nmax=4), "row 'kernel' needs", 0),
])
def test_kernel_class_precondition_messages(caller, prefix, k):
    bergman, glowny, split = _shifts()
    witness = is_two_isometry(bergman).witness
    expansion = f"{prefix} the expansion identity; witness {witness}"
    broken = glowny if k == 0 else split
    since = " from generation 1" if k else ""
    constancy = (f"{prefix} sibling norm constancy{since}; witness "
                 f"{satisfies_kernel_condition(broken, k).witness}")
    for shift, message in ((bergman, expansion), (broken, constancy)):
        for call in (caller, lambda s: require_kernel_class(s, k, 1e-9,
                                                            prefix)):
            with pytest.raises(ClassificationError) as err:
                call(shift)
            assert str(err.value) == message
    require_kernel_class(split, 2, 1e-9, prefix)


# ---------------------------------------------------------------------------
# the root extension sum
# ---------------------------------------------------------------------------

def _loop_extension_sum(shift, n):
    """The per-vertex loop the array computation replaced."""
    tree = shift.tree
    nr2 = vertex_norm(shift, tree.root) ** 2
    total = 0.0
    for v in tree.children_of(tree.root):
        nv2 = vertex_norm(shift, v) ** 2
        total += shift.weight(v) ** 2 / ((n - 1) * nv2 - (n - 2))
    return total / nr2 ** 2


def _extension_shifts():
    t2 = materialize(TreeSpec("t_eta_kappa", eta=2, depth=12))
    t5 = materialize(TreeSpec("t_eta_kappa", eta=5, depth=6))
    rule = materialize(TreeSpec("generation_rule", rule=((7,),), depth=5))
    kids = rule.children_of(rule.root)
    yield from (build_shift(WeightSpec("glowny", y1=y1, y2=y2), t2)
                for y1, y2 in ((1.1, 1.3), (1.01, 1.4), (1.2, 1.2)))
    yield from (build_shift(WeightSpec("kernel_condition", x=x), t)
                for x in (1.0, 1.2, 1.4) for t in (t2, t5))
    yield build_shift(WeightSpec(
        "kernel_condition", x=1.3,
        proportions={v: 1.0 + i / 3 for i, v in enumerate(kids)}), rule)


@pytest.mark.parametrize("n", range(9))
def test_root_extension_sum_matches_the_per_vertex_loop(n):
    for shift in _extension_shifts():
        expected = _loop_extension_sum(shift, n)
        assert abs(_root_extension_sum(shift, n) - expected) <= \
            1e-15 * max(1.0, abs(expected))


def test_root_extension_sum_guards():
    path = materialize(TreeSpec("path", depth=3))
    # the child norm is sqrt(2): the n = 0 denominator vanishes
    at_sqrt2 = build_shift(WeightSpec("explicit", values={
        "g1:0": 1.0, "g2:0": math.sqrt(2.0), "g3:0": 1.0}), path)
    assert _root_extension_sum(at_sqrt2, 0) is None
    zero = build_shift(WeightSpec("explicit", values={
        "g1:0": 0.0, "g2:0": 1.0, "g3:0": 1.0}), path)
    assert _root_extension_sum(zero, 1) is None


def test_perturbed_closed_form_reads_the_arrays(monkeypatch):
    _, glowny, _ = _shifts()
    expected = [perturbed_kernel_dual_moment(glowny, u, n)
                for u in (None, "g1:0", "g3:1") for n in (1, 4)]

    def refuse(self, vid):
        raise AssertionError("children_of was called")

    monkeypatch.setattr(DirectedTree, "children_of", refuse)
    assert [perturbed_kernel_dual_moment(glowny, u, n)
            for u in (None, "g1:0", "g3:1") for n in (1, 4)] == expected


# ---------------------------------------------------------------------------
# the decision procedure: one sibling-spread pass
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("weights,path", [
    (WeightSpec("glowny", y1=1.1, y2=1.3), "main2"),
    (WeightSpec("kernel_condition", x=1.2), "cdsubn"),
])
def test_dual_subnormality_runs_one_constancy_pass(monkeypatch, weights,
                                                   path):
    shift = build_shift(weights, materialize(TreeSpec("t_eta_kappa", eta=2,
                                                      depth=12)))
    calls = []
    spread = shifts._sibling_spread

    def counted(*args):
        calls.append(1)
        return spread(*args)

    monkeypatch.setattr(shifts, "_sibling_spread", counted)
    assert dual_subnormality(shift).decision_path == path
    assert len(calls) == 1


def test_dual_subnormality_rejects_negative_nmax():
    shift = build_shift(WeightSpec("treiso"),
                        materialize(TreeSpec("path", depth=8)))
    with pytest.raises(DomainError, match="nmax must be >= 0, got -5"):
        dual_subnormality(shift, -5)


# ---------------------------------------------------------------------------
# run specs and flags
# ---------------------------------------------------------------------------

def _main(tmp_path, spec, *flags):
    spec_file, out = tmp_path / "run.json", tmp_path / "report.json"
    spec_file.write_text(json.dumps(spec))
    code = main(["--spec", str(spec_file), "--out", str(out), "--quiet",
                 *flags])
    return code, json.loads(out.read_text()) if out.exists() else None


def test_nmax_flag_must_be_non_negative(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        _main(tmp_path, {"weights": {"kind": "treiso"},
                         "commands": [{"name": "dual-subnormality"}]},
              "--nmax", "-4")
    assert exc.value.code == 2
    assert "--nmax: must be >= 0, got -4" in capsys.readouterr().err


@pytest.mark.parametrize("proportions,key", [
    ({"g1:9": 5, "g0:0": 3}, "g1:9"),
    ({"g1:1": 2, "g0:0": 3}, "g0:0"),
])
def test_proportions_must_name_non_root_vertices(tmp_path, capsys,
                                                 proportions, key):
    tree = materialize(TreeSpec("generation_rule", rule=((2,),), depth=4))
    weights = WeightSpec("kernel_condition", x=1.2, proportions=proportions)
    with pytest.raises(ConfigurationError, match=repr(key)):
        build_shift(weights, tree)
    code, _ = _main(tmp_path, {
        "tree": {"kind": "generation_rule", "rule": [[2]], "depth": 4},
        "weights": {"kind": "kernel_condition", "x": 1.2,
                    "proportions": proportions},
        "commands": [{"name": "check-2iso"}]})
    assert code == 2
    assert f"error: $.weights: proportions key {key!r}" in \
        capsys.readouterr().err


def _equivalent(depth, other_depth):
    return {"tree": {"kind": "path", "depth": depth},
            "weights": {"kind": "dirichlet"},
            "commands": [{"name": "equivalent", "other": {
                "tree": {"kind": "path", "depth": other_depth},
                "weights": {"kind": "dirichlet"}}}]}


def test_equivalent_materializes_the_other_tree_at_its_own_depth(tmp_path):
    code, report = _main(tmp_path, _equivalent(12, 3))
    result = report["results"][0]
    assert code == 1 and result["status"] == "error"
    assert result["result"] == {
        "error": "invariants computed to different depths (12 vs 3)",
        "error_type": "ComparisonError"}
    # --depth moves the main tree only
    code, report = _main(tmp_path, _equivalent(12, 12), "--depth", "10")
    assert code == 1
    assert "(10 vs 12)" in report["results"][0]["result"]["error"]
    code, report = _main(tmp_path, _equivalent(12, 10), "--depth", "10")
    assert code == 0
    assert len(report["results"][0]["result"]["right"]["branching"]) == 10


def test_equivalent_other_tree_is_sized_at_parse_time(monkeypatch):
    with pytest.raises(treeshift.SpecParseError) as err:
        parse_spec(json.dumps(_equivalent(12, 100_000_000)))
    assert err.value.json_path == "$.commands[0].other.tree.depth"
    monkeypatch.setattr(treeshift.trees, "MAX_VERTICES", 3)
    spec = _equivalent(2, 2)
    spec["commands"][0]["other"]["tree"] = {
        "kind": "explicit", "edges": [["r", "a"], ["a", "b"], ["b", "c"]]}
    with pytest.raises(treeshift.SpecParseError) as err:
        parse_spec(json.dumps(spec))
    assert err.value.json_path == "$.commands[0].other.tree.edges"


#: the fields each verdict type leaves out of its report form
LEFT_OUT = {PropertyVerdict: {"details"}, ShiftInvariants: {"verified_depth"}}


def test_each_result_type_has_one_serializer():
    tree = materialize(TreeSpec("quasi_brownian", valency=3, depth=4))
    structure = classify_tree(tree)
    assert structure.to_dict() == {
        "leafless_to_depth": True, "max_degree": 3,
        "degree_multiset_per_generation": ((3,), (1, 1, 3), (1, 1, 1, 1, 3),
                                           (1, 1, 1, 1, 1, 1, 3)),
        "quasi_brownian": {"holds": True, "verified_depth": 2,
                           "witness": None, "note": "verified to depth N-2"},
        "valency": 3}
    shift = build_shift(WeightSpec("kernel_condition", x=1.2),
                        materialize(TreeSpec("t_eta_kappa", eta=2, depth=3)))
    inv = shift_invariants(shift)
    assert inv.to_dict() == {"root_norm": inv.root_norm,
                             "branching": (1, 0, 0)}
    report, _ = run_suite(parse_spec(json.dumps({
        "tree": {"kind": "t_eta_kappa", "eta": 2, "depth": 3},
        "weights": {"kind": "kernel_condition", "x": 1.2},
        "commands": [{"name": "invariants"}]})))
    assert report["results"][0]["result"] == {**inv.to_dict(),
                                              "verified_depth": 3}
    # one verdict of each type: its form holds every field but those
    # left out, in declaration order, and a nested verdict's own form
    adjacency = classify_adjacency(tree)
    verdicts = [structure.quasi_brownian, structure, is_two_isometry(shift),
                adjacency, inv, stieltjes_test([1.0, 0.5, 0.25, 0.125]),
                dual_subnormality(shift),
                verify_table1(shift, "kernel", nmax=2)]
    assert len({type(v) for v in verdicts}) == 8
    for verdict in verdicts:
        form = verdict.to_dict()
        names = [f.name for f in dataclasses.fields(verdict)
                 if f.name not in LEFT_OUT.get(type(verdict), ())]
        assert list(form) == names
        for name in names:
            value = getattr(verdict, name)
            assert form[name] == (value.to_dict()
                                  if isinstance(value, Report) else value)
        json.dumps(form, allow_nan=False)
    # an overflowed witness value is null and the note says so, nested
    # in another verdict's form too
    overflow = PropertyVerdict(False, 2, ("g1:0", math.inf), note="spread")
    assert overflow.to_dict() == {
        "holds": False, "verified_depth": 2, "witness": ("g1:0", None),
        "tolerance": DEFAULT_TOL,
        "note": "spread; witness value inf (an overflow) written as null"}
    assert dataclasses.replace(adjacency, isometry=overflow).to_dict() == {
        **adjacency.to_dict(), "isometry": overflow.to_dict()}
    # the generic path's witness rows are MomentVerdict forms
    seqs = [[1.0, 0.5, 0.25, 0.125, 0.0625], [1.0, 2.0, 1.0, 5.0, 1.0],
            [1.0, 0.0, 1.0]]
    caps = [len(seq) - 1 for seq in seqs]
    rows = np.zeros((len(seqs), max(caps) + 1))
    for row, seq in zip(rows, seqs):
        row[:len(seq)] = seq
    scan = failing, worst, thresholds = _hankel_scan(rows, caps, DEFAULT_TOL)
    expected = [MomentVerdict(
        failing[k] < 0, None, None if failing[k] < 0 else failing[k],
        worst[k], f"Hankel orders 0..{caps[k] // 2}, threshold "
                  f"{thresholds[k]:.3e}").to_dict() for k in range(3)]
    picked = _stieltjes_dicts(scan, caps, range(3))
    assert picked == expected
    assert [list(d) for d in picked] == [list(d) for d in expected]
    assert [d["is_stieltjes"] for d in picked] == [True, False, True]


def test_invariants_are_linear_in_depth(tmp_path):
    spec_file = tmp_path / "run.json"
    spec_file.write_text(json.dumps({
        "tree": {"kind": "path", "depth": 1_000_000},
        "weights": {"kind": "dirichlet"},
        "commands": [{"name": "invariants"}]}))
    src = str(Path(treeshift.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in sys.path if p]))
    # quadratic in depth, this takes hours
    proc = subprocess.run([sys.executable, "-m", "treeshift", "--spec",
                           str(spec_file), "--quiet"], env=env, timeout=5)
    assert proc.returncode == 0

