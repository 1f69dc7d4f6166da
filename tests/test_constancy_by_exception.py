"""Sibling constancy reduced over suspect parents only, dual weights
formed only where the moment recurrence reads them, overflow and
non-finite numbers in specs, and a depth-less explicit tree built once
per run."""
import json
import math
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treeshift import (DomainError, NotLeftInvertibleError, TreeSpec,
                       WeightSpec, WeightedShift, cauchy_dual, materialize,
                       satisfies_kernel_condition, trees)
from treeshift.cli import main, parse_spec
from treeshift.moments import _power_norms

SPECS = Path(__file__).resolve().parent / "golden" / "specs"


# -- sibling constancy against a per-parent loop ---------------------------

def _failures_by_loop(shift, tol):
    """(vertex, spread) of every vertex of depth <= N-2 with two or more
    nonzero-weight children whose norms spread beyond tol * (1 + max) or
    include an infinite one, one parent at a time."""
    tree = shift.tree
    norms, w = shift.vertex_norms, shift.weight_array
    failures = []
    for u in range(tree.gen_offsets[tree.materialized_depth - 1]):
        start = tree.child_starts[u]
        kept = [float(norms[c]) for c in range(start,
                                               start + tree.degrees[u])
                if w[c] != 0.0]
        if len(kept) >= 2:
            high, spread = max(kept), max(kept) - min(kept)
            if spread > tol * (1.0 + high) or high == math.inf:
                failures.append((u, spread))
    return failures


def _assert_matches_loop(shift, tol):
    tree = shift.tree
    n = tree.materialized_depth
    failures = _failures_by_loop(shift, tol)
    for k in range(n - 1):
        verdict = satisfies_kernel_condition(shift, k, tol)
        late = [(u, s) for u, s in failures if tree.depth_at(u) >= k]
        assert verdict.holds == (not late)
        if late:
            u, spread = late[0]
            assert verdict.witness[0] == tree.label(u)
            assert verdict.witness[1] == spread or (
                math.isnan(spread) and math.isnan(verdict.witness[1]))
            assert verdict.details["constant_from"] == \
                tree.depth_at(late[-1][0]) + 1
        else:
            assert verdict.witness is None
            assert verdict.details["constant_from"] == k


def _regular_tree(degrees):
    """The generation-rule tree in which every vertex of generation g
    has degrees[g] children."""
    rule, width = [], 1
    for d in degrees:
        rule.append((d,) * width)
        width *= d
    return materialize(TreeSpec("generation_rule", rule=tuple(rule),
                                depth=len(degrees)))


def _generation_weights(tree, per_generation):
    """Weights equal within each generation: weight(v) is
    per_generation[depth(v) - 1]."""
    sizes = np.diff(tree.gen_offsets)
    return np.repeat(np.concatenate([[0.0], per_generation]), sizes)


@st.composite
def near_tie_shifts(draw):
    """Regular trees whose weights are equal within each generation,
    except that a few are moved 1-4 ULPs and some are zeros (0.0 or
    -0.0), so that sibling norms tie or nearly tie."""
    degrees = draw(st.lists(st.integers(min_value=1, max_value=3),
                            min_size=2, max_size=6))
    tree = _regular_tree(degrees)
    base = st.one_of(st.sampled_from((0.5, 1.0, 1.5, 0.1)),
                     st.floats(min_value=0.25, max_value=4.0))
    w = _generation_weights(
        tree, draw(st.lists(base, min_size=len(degrees),
                            max_size=len(degrees))))
    vertex = st.integers(min_value=1, max_value=tree.vertex_count - 1)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        v = draw(vertex)
        toward = draw(st.sampled_from((-math.inf, math.inf)))
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            w[v] = np.nextafter(w[v], toward)
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        w[draw(vertex)] = draw(st.sampled_from((0.0, -0.0)))
    return WeightedShift(tree.expanded(), w)


# tolerances on both sides of a spread of 1-4 ULPs of a norm near 1
NEAR_TOLS = (1e-17, 1e-16, 2.2e-16, 4.4e-16, 8.8e-16, 1e-9)


@settings(max_examples=200, deadline=None)
@given(shift=near_tie_shifts(), tol=st.sampled_from(NEAR_TOLS))
def test_sibling_constancy_matches_a_per_parent_loop_near_ties(shift, tol):
    _assert_matches_loop(shift, tol)


@settings(max_examples=100, deadline=None)
@given(shift=near_tie_shifts(), tol=st.sampled_from(NEAR_TOLS))
def test_sibling_constancy_with_negative_zero_weights(shift, tol):
    w = shift.weight_array.copy()
    w[w == 0.0] = -0.0
    w[1::7] = -0.0
    _assert_matches_loop(WeightedShift(shift.tree, w), tol)


@pytest.mark.parametrize("degrees", [(2,) * 2, (2,) * 5, (3, 1, 2, 2),
                                     (1, 1, 3, 2, 1, 2, 2), (2,) * 10])
@pytest.mark.parametrize("weights", [1.0, 0.7, 1.3, -0.0])
def test_all_equal_generations_have_no_suspect(degrees, weights):
    tree = _regular_tree(degrees)
    per_generation = np.full(len(degrees), weights)
    per_generation[::2] *= 1.1
    shift = WeightedShift(tree.expanded(),
                          _generation_weights(tree, per_generation))
    for tol in (1e-17, 1e-9):
        _assert_matches_loop(shift, tol)
        assert satisfies_kernel_condition(shift, 0, tol).holds


def test_an_infinite_sibling_norm_breaks_constancy():
    # children of the root: norms sqrt(1e600) = inf and 1, inf and inf
    tree = _regular_tree((2, 2, 1))
    w = np.ones(tree.vertex_count)
    w[tree.index("g3:0")] = 1e300
    shift = WeightedShift(tree, w)
    _assert_matches_loop(shift, 1e-9)
    verdict = satisfies_kernel_condition(shift, 0, 1e-9)
    assert verdict.witness == ("g1:0", math.inf)
    w[tree.index("g3:1")] = 1e300
    shift = WeightedShift(tree, w)
    _assert_matches_loop(shift, 1e-9)
    assert not satisfies_kernel_condition(shift, 0, 1e-9).holds


# -- dual weights only where the recurrence reads them ---------------------

def _golden_shifts():
    for path in sorted(SPECS.glob("*.json")):
        yield path.stem, parse_spec(path.read_text()).shift
    # the golden star and quasi-Brownian trees are full trees at the
    # default budget; hashed, they are held as classes
    for stem in ("quasi-brownian-20", "star-50"):
        with mock.patch.object(trees, "MIN_VERTICES_PER_CLASS", 1):
            shift = parse_spec((SPECS / f"{stem}.json").read_text()).shift
        assert shift.tree.class_count < shift.tree.vertex_count
        yield f"{stem}-classes", shift


def _assert_dual_table_matches(shift):
    n = shift.tree.materialized_depth
    for top in sorted({0, 1, n // 2, n - 1, n}):
        for kmax in (0, 1, min(12, n)):
            try:
                expected = _power_norms(cauchy_dual(shift), top, kmax)
            except NotLeftInvertibleError as exc:
                with pytest.raises(type(exc)) as err:
                    _power_norms(shift, top, kmax, dual=True)
                assert str(err.value) == str(exc)
                continue
            got = _power_norms(shift, top, kmax, dual=True)
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("name,shift", list(_golden_shifts()))
def test_dual_table_matches_cauchy_dual_on_golden_shifts(name, shift):
    _assert_dual_table_matches(shift)


@st.composite
def rule_shifts(draw):
    """Generation-rule trees, some with leaves above the last level, and
    weights that are random, repeated or zero."""
    depth = draw(st.integers(min_value=1, max_value=6))
    rule, width = [], 1
    for _ in range(draw(st.integers(min_value=0, max_value=min(depth, 3)))):
        row = [draw(st.integers(min_value=0, max_value=3))
               for _ in range(width)]
        if sum(row) == 0:
            row[0] = 1
        rule.append(tuple(row))
        width = sum(row)
    tree = materialize(TreeSpec("generation_rule", rule=tuple(rule),
                                depth=depth))
    weight = st.one_of(st.sampled_from((0.0, 0.5, 1.0, 1.5)),
                       st.floats(min_value=1e-3, max_value=3.0))
    weights = draw(st.lists(weight, min_size=tree.vertex_count - 1,
                            max_size=tree.vertex_count - 1))
    return WeightedShift(tree.expanded(), [0.0] + weights)


@settings(max_examples=150, deadline=None)
@given(shift=rule_shifts())
def test_dual_table_matches_cauchy_dual_on_random_rule_trees(shift):
    _assert_dual_table_matches(shift)


# -- flags computed once per shift -----------------------------------------

class _CountedReads:
    """Stands in for a weight array and counts the reads."""

    def __init__(self, array):
        self.array, self.reads = array, 0

    def __getitem__(self, index):
        self.reads += 1
        return self.array[index]


def test_shift_flags_are_computed_once_per_shift():
    tree = _regular_tree((2, 2, 2))
    w = np.ones(tree.vertex_count)
    w[3] = 0.0
    for values, zero, adjacency in ((np.ones(tree.vertex_count), False,
                                     True), (w, True, False)):
        shift = WeightedShift(tree, values)
        counted = shift.edge_weights = _CountedReads(shift.edge_weights)
        for _ in range(3):
            assert shift.has_zero_weights is zero
            assert shift.is_adjacency is adjacency
        assert counted.reads == 2


# -- overflow never passes a check -----------------------------------------

def _run(tmp_path, spec, *extra):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec) if isinstance(spec, dict) else spec)
    out = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning fails the test
        code = main(["--spec", str(path), "--quiet", "--out", str(out),
                     *extra])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


_OVERFLOW_PATH = {"tree": {"kind": "path", "depth": 3},
                  "weights": {"kind": "explicit", "values": {
                      "g1:0": 1, "g2:0": 1, "g3:0": 1e308}}}


def test_an_overflowing_path_fails_the_expansion_check(tmp_path, capsys):
    code, report = _run(tmp_path, {**_OVERFLOW_PATH,
                                   "commands": [{"name": "check-2iso"}]})
    assert code == 1
    result = report["results"][0]["result"]
    assert result["holds"] is False and result["witness"][0] == "g1:0"
    assert capsys.readouterr().err == ""


def test_an_overflowing_path_is_not_conclusively_subnormal(tmp_path,
                                                           capsys):
    code, report = _run(tmp_path, {
        **_OVERFLOW_PATH, "commands": [{"name": "dual-subnormality"}]})
    result = report["results"][0]["result"]
    assert result["decision_path"] != "cdsubn"
    assert not (result["conclusive"] and result["verdict"] == "subnormal")
    assert "not a 2-isometry" in result["evidence"]["notes"][0]
    assert capsys.readouterr().err == ""


def test_an_overflowing_rule_tree_fails_sibling_constancy(tmp_path, capsys):
    values = {f"g{g}:{i}": 1 for g, size in ((1, 2), (2, 4), (3, 4))
              for i in range(size)}
    values["g3:0"] = 1e300
    code, report = _run(tmp_path, {
        "tree": {"kind": "generation_rule",
                 "rule": [[2], [2, 2], [1, 1, 1, 1]], "depth": 3},
        "weights": {"kind": "explicit", "values": values},
        "commands": [{"name": "check-kernel"}]})
    assert code == 1
    result = report["results"][0]["result"]
    assert result["holds"] is False
    # the spread overflowed to inf; strict JSON has no token for it
    assert result["witness"] == ["g1:0", None]
    assert "witness value inf" in result["note"]
    assert capsys.readouterr().err == ""


# -- non-finite numbers in specs -------------------------------------------

_RULE_TREE = '{"kind": "generation_rule", "rule": [[2]], "depth": 3}'


@pytest.mark.parametrize("weights,path,message", [
    ('{"kind": "kernel_condition", "x": Infinity}', "$.weights.x",
     "expected a finite number, got inf"),
    ('{"kind": "kernel_condition", "x": NaN}', "$.weights.x",
     "expected a finite number, got nan"),
    ('{"kind": "kernel_condition", "x": -Infinity}', "$.weights.x",
     "expected a finite number, got -inf"),
    ('{"kind": "kernel_condition", "x": 1e400}', "$.weights.x",
     "expected a finite number, got inf"),
    ('{"kind": "kernel_condition", "x": 1e200}', "$.weights.x",
     "x * x - 1 must be finite, got x = 1e+200"),
    ('{"kind": "kernel_condition", "x": 1.2, "proportions": '
     '{"g1:0": NaN}}', "$.weights.proportions.g1:0",
     "expected a finite number, got nan"),
    ('{"kind": "glowny", "y1": Infinity, "y2": 1.2}', "$.weights.y1",
     "expected a finite number, got inf"),
    ('{"kind": "explicit", "values": {"g1:0": 1, "g1:1": NaN, '
     '"g2:0": 1, "g2:1": 1, "g3:0": 1, "g3:1": 1}}',
     "$.weights.values.g1:1", "expected a finite number, got nan"),
])
def test_non_finite_numbers_exit_two_at_their_path(tmp_path, capsys,
                                                   weights, path, message):
    tree = ('{"kind": "t_eta_kappa", "eta": 2, "depth": 6}'
            if "glowny" in weights else _RULE_TREE)
    if "explicit" in weights:
        tree = '{"kind": "generation_rule", "rule": [[2], [1, 1]], ' \
               '"depth": 3}'
    code, report = _run(tmp_path, f'{{"tree": {tree}, "weights": {weights},'
                                  f' "commands": [{{"name": '
                                  f'"check-kernel"}}]}}')
    assert code == 2 and report is None
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_kernel_condition_weights_refuse_an_infinite_ladder():
    with pytest.raises(DomainError, match=r"x \* x - 1 must be finite"):
        WeightSpec("kernel_condition", x=1e200)
    with pytest.raises(DomainError, match=r"x \* x - 1 must be finite"):
        WeightSpec("kernel_condition", x=math.nan)


# -- a depth-less explicit tree is built once ------------------------------

@pytest.mark.parametrize("extra,builds", [((), 1), (("--depth", "3"), 1)])
def test_depthless_explicit_tree_is_built_once(tmp_path, monkeypatch,
                                               extra, builds):
    calls = []
    intern = trees._edge_arrays

    def counted(*args, **kwargs):
        calls.append(args)
        return intern(*args, **kwargs)

    monkeypatch.setattr(trees, "_edge_arrays", counted)
    edges = [["r", "a"], ["r", "b"], ["a", "a1"], ["b", "b1"],
             ["a1", "a2"], ["b1", "b2"]]
    code, report = _run(tmp_path, {
        "tree": {"kind": "explicit", "edges": edges},
        "weights": {"kind": "adjacency"},
        "commands": [{"name": "materialize"}, {"name": "check-2iso"}]},
        *extra)
    assert len(calls) == builds
    assert report["results"][0]["result"]["materialized_depth"] == 3
    assert report["results"][0]["result"]["vertex_count"] == 7
