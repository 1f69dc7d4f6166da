"""Large trees in linear memory: the Table-1 oracle read from a shift's
index arrays, sibling constancy over branching parents only, generation
rules flattened once, and the malloc thresholds the CLI sets."""
import json
import os
import platform
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import treeshift
from treeshift import (ClassificationError, NotLeftInvertibleError,
                       RangeError, StructureError, TreeSpec, WeightSpec,
                       WeightedShift, build_shift, cli, comb_tree_spec,
                       dual_matrix, hub_comb_tree_spec, materialize,
                       satisfies_kernel_condition,
                       sibling_constancy_by_generation, spec_vertex_count,
                       truncate, verify_table1)
from treeshift.cli import main
from treeshift.moments import TABLE1_ROWS


def _zero_weight_shift():
    """A kernel-class shift with a zero weight: the first root child of a
    kernel_condition shift carries nothing, the others carry its share."""
    shift = build_shift(WeightSpec("kernel_condition", x=1.3),
                        materialize(TreeSpec("t_eta_kappa", eta=3,
                                             depth=7)))
    w = shift.weight_array.copy()
    w[1], w[2:4] = 0.0, w[2:4] * np.sqrt(1.5)
    return WeightedShift.from_array(shift.tree, w, name="zero-weight")


def _shift(tree, weights):
    return build_shift(weights, materialize(tree))


SHIFTS = {
    "path-dirichlet": _shift(TreeSpec("path", depth=10),
                             WeightSpec("dirichlet")),
    "path-adjacency": _shift(TreeSpec("path", depth=9),
                             WeightSpec("adjacency")),
    "t-eta-kappa": _shift(TreeSpec("t_eta_kappa", eta=3, depth=8),
                          WeightSpec("kernel_condition", x=1.3)),
    "binary-rule": _shift(TreeSpec("generation_rule",
                                   rule=tuple((2,) * 2 ** g
                                              for g in range(4)),
                                   depth=7),
                          WeightSpec("kernel_condition", x=1.1)),
    "rule-proportions": _shift(
        TreeSpec("generation_rule", rule=((2,), (1, 3)), depth=6),
        WeightSpec("kernel_condition", x=1.2,
                   proportions={"g2:1": 2.0, "g2:3": 0.5})),
    **{f"qb-{l}": _shift(TreeSpec("quasi_brownian", valency=l, depth=8),
                         WeightSpec("adjacency")) for l in (2, 3)},
    **{f"comb-{l}": _shift(comb_tree_spec(l, 9), WeightSpec("adjacency"))
       for l in (2, 3)},
    "hub-comb-2": _shift(hub_comb_tree_spec(2, 8), WeightSpec("adjacency")),
    "explicit": _shift(
        TreeSpec("explicit", edges=(("r", "a"), ("r", "b"), ("a", "c"),
                                    ("a", "d"), ("b", "e"), ("c", "f"),
                                    ("d", "g"), ("e", "h"), ("f", "i"),
                                    ("g", "j"), ("h", "k")), depth=4),
        WeightSpec("kernel_condition", x=1.4)),
    "zero-weight": _zero_weight_shift(),
}


def _bits(report):
    """Every field but ``note``, floats in their exact repr."""
    return repr(replace(report, note=""))


@pytest.mark.parametrize("name", sorted(SHIFTS))
def test_table1_on_index_arrays_equals_the_truncation(name):
    shift = SHIFTS[name]
    n = shift.tree.materialized_depth
    rows = 0
    for row in TABLE1_ROWS:
        try:
            verify_table1(shift, row, nmax=1)
        except ClassificationError:
            continue
        rows += 1
        for cut in [None, *range(2, n + 1)]:
            top = (n if cut is None else cut) - 1
            for nmax in sorted({1, min(top, 8)}):
                direct = verify_table1(shift, row, nmax, cut)
                dense = verify_table1(truncate(shift, cut), row, nmax)
                assert direct.note and not dense.note
                assert _bits(direct) == _bits(dense), (row, cut, nmax)
            # nmax beyond the interior: the same message either way
            with pytest.raises(RangeError) as direct_error:
                verify_table1(shift, row, top + 1, cut)
            with pytest.raises(RangeError) as dense_error:
                verify_table1(truncate(shift, cut), row, top + 1)
            assert str(direct_error.value) == str(dense_error.value)
        for cut in (0, n + 1):
            with pytest.raises(RangeError) as direct_error:
                verify_table1(shift, row, 1, cut)
            with pytest.raises(RangeError) as dense_error:
                truncate(shift, cut)
            assert str(direct_error.value) == str(dense_error.value)
    assert rows


def test_table1_singular_gram_names_the_first_interior_vector():
    # every vertex of depth N-1 = 4 has only a zero-weight child, and the
    # weights above solve the expansion identity backwards from there:
    # the shift is in the kernel class to depth N-2, yet its Gram
    # diagonal vanishes on the interior
    tree = materialize(TreeSpec("t_eta_kappa", eta=3, depth=5))
    squares = {1: 4 / 15, 2: 3 / 4, 3: 2 / 3, 4: 1 / 2, 5: 0.0}
    w = np.sqrt([0.0] + [squares[tree.depth_at(i)]
                         for i in range(1, tree.vertex_count)])
    shift = WeightedShift.from_array(tree, w)
    message = r"singular on the interior \(basis vector 'g4:0'\)"
    with pytest.raises(NotLeftInvertibleError, match=message):
        verify_table1(shift, "kernel", nmax=2)
    with pytest.raises(NotLeftInvertibleError, match=message):
        verify_table1(truncate(shift), "kernel", nmax=2)
    with pytest.raises(NotLeftInvertibleError, match=message):
        dual_matrix(truncate(shift))
    # at the cut the same vanishing entries are truncation artifacts
    assert _bits(verify_table1(shift, "kernel", 2, 4)) == \
        _bits(verify_table1(truncate(shift, 4), "kernel", 2))


def test_table1_oracle_of_a_large_tree_runs_in_linear_memory(tmp_path):
    # 40,401 vertices: a dense truncation would take 13 GB
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "tree": {"kind": "quasi_brownian", "valency": 3, "depth": 200},
        "weights": {"kind": "adjacency"},
        "commands": [{"name": "verify-table1", "row": "quasi_brownian",
                      "nmax": 8}]}))
    out = tmp_path / "report.json"
    tracemalloc.start()
    try:
        code = main(["--spec", str(spec), "--quiet", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    result = json.loads(out.read_text())["results"][0]
    assert result["status"] == "passed"
    assert result["result"]["checked"] > 0
    assert peak < 50 * 2 ** 20


# -- sibling constancy over branching parents ------------------------------

@st.composite
def rule_shifts(draw):
    """Small generation-rule trees (mixed, chains, stars) with weights
    drawn from a few repeated values, floats and zeros."""
    depth = draw(st.integers(min_value=2, max_value=6))
    shape = draw(st.sampled_from(("mixed", "chain", "star")))
    rule, width = [], 1
    for g in range(draw(st.integers(min_value=0, max_value=min(depth, 3)))):
        if shape == "mixed":
            row = [draw(st.integers(min_value=0, max_value=3))
                   for _ in range(width)]
        else:
            row = [1] * width
            if shape == "star" and g == 0:
                row[0] = draw(st.integers(min_value=2, max_value=12))
        if sum(row) == 0:
            row[0] = 1
        rule.append(tuple(row))
        width = sum(row)
    tree = materialize(TreeSpec("generation_rule", rule=tuple(rule),
                                depth=depth))
    weight = st.one_of(st.sampled_from((0.0, 0.5, 1.0, 1.5)),
                       st.floats(min_value=0.0, max_value=2.0))
    weights = draw(st.lists(weight, min_size=tree.vertex_count - 1,
                            max_size=tree.vertex_count - 1))
    return WeightedShift.from_array(tree, np.array([0.0] + weights))


def _failures_by_loop(shift, tol):
    """(vertex, spread) of every vertex of depth <= N-2 whose nonzero-weight
    children's norms spread beyond tol * (1 + max), one parent at a
    time."""
    tree = shift.tree
    norms, w = shift.vertex_norms, shift.weight_array
    failures = []
    for u in range(tree.gen_offsets[tree.materialized_depth - 1]):
        start = tree.child_starts[u]
        kept = [norms[c] for c in range(start, start + tree.degrees[u])
                if w[c] != 0.0]
        if len(kept) >= 2:
            spread = max(kept) - min(kept)
            if spread > tol * (1.0 + max(kept)):
                failures.append((u, spread))
    return failures


@settings(max_examples=150, deadline=None)
@given(shift=rule_shifts(), tol=st.sampled_from((1e-12, 1e-9, 0.1)))
def test_sibling_constancy_matches_a_per_parent_loop(shift, tol):
    tree = shift.tree
    n = tree.materialized_depth
    failures = _failures_by_loop(shift, tol)
    for k in range(n - 1):
        verdict = satisfies_kernel_condition(shift, k, tol)
        late = [(u, s) for u, s in failures if tree.depth_at(u) >= k]
        assert verdict.holds == (not late)
        if late:
            u, spread = late[0]
            assert verdict.witness == (tree.label(u), spread)
            assert verdict.details["constant_from"] == \
                tree.depth_at(late[-1][0]) + 1
        else:
            assert verdict.witness is None
            assert verdict.details["constant_from"] == k
    by_generation = sibling_constancy_by_generation(shift, tol)
    assert by_generation.tolist() == [
        all(tree.depth_at(u) != g for u, _ in failures)
        for g in range(n - 1)]


# -- generation rules flattened once ---------------------------------------

def _rule_error_by_loop(rule):
    width = 1
    for g, row in enumerate(rule):
        if len(row) != width or min(row, default=0) < 0:
            return (f"generation rule row {g} has length {len(row)}; it "
                    f"needs {width} child counts >= 0, one per vertex of "
                    f"generation {g}")
        width = sum(row)
    return None


def _vertex_count_by_loop(rule, depth):
    total = width = 1
    rows = rule[:depth]
    for row in rows:
        width = sum(row)
        total += width
    return total + (depth - len(rows)) * width


@st.composite
def rules(draw):
    """Rule tables, mostly well formed: each row, a tuple or a list,
    usually has one count per vertex of its generation; counts are
    small, now and then at the edge of a byte (254..257), negative or
    far beyond the vertex budget."""
    count = st.one_of(st.integers(min_value=0, max_value=3),
                      st.integers(min_value=254, max_value=257),
                      st.integers(min_value=-2, max_value=-1),
                      st.sampled_from((2 ** 31, 2 ** 40, 10 ** 30)))
    rule, width = [], 1
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        length = draw(st.one_of(st.just(max(0, min(width, 40))),
                                st.integers(min_value=0, max_value=4)))
        row = draw(st.sampled_from((tuple, list)))(draw(st.lists(
            count, min_size=length, max_size=length)))
        rule.append(row)
        width = sum(row)
    return tuple(rule)


@settings(max_examples=300, deadline=None)
@given(rule=rules())
def test_rule_errors_and_counts_match_the_per_row_loop(rule):
    error = _rule_error_by_loop(rule)
    if error is not None:
        with pytest.raises(StructureError) as raised:
            TreeSpec("generation_rule", rule=rule, depth=3)
        assert str(raised.value) == error
        return
    spec = TreeSpec("generation_rule", rule=rule, depth=3)
    for depth in range(len(rule) + 3):
        count = spec_vertex_count(spec, depth)
        assert count == _vertex_count_by_loop(rule, depth)
        if count <= 5_000:
            assert materialize(spec, depth).vertex_count == count


# -- malloc thresholds -----------------------------------------------------

def test_main_sets_the_malloc_thresholds_once(monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(cli.ctypes, "CDLL",
                        lambda name: SimpleNamespace(mallopt=mallopt))
    cli._set_malloc_thresholds.cache_clear()
    try:
        # library calls leave the process's allocator alone
        verify_table1(SHIFTS["qb-3"], "quasi_brownian", nmax=4)
        assert calls == []
        for _ in range(2):
            assert main(["--demo", "dirichlet", "--quiet"]) == 0
        assert calls == [(-3, 64 << 20), (-1, 128 << 20)]
        # a C library without mallopt: nothing to set, nothing fails
        monkeypatch.setattr(cli.ctypes, "CDLL",
                            lambda name: SimpleNamespace())
        cli._set_malloc_thresholds.cache_clear()
        assert main(["--demo", "dirichlet", "--quiet"]) == 0
    finally:
        cli._set_malloc_thresholds.cache_clear()


# two operations of the deep-trees benchmark, with x fixed
FAULT_SPECS = {
    "binary-15": {
        "tree": {"kind": "generation_rule",
                 "rule": [[2] * 2 ** g for g in range(15)], "depth": 15},
        "weights": {"kind": "kernel_condition", "x": 1.3},
        "commands": [{"name": "materialize"}, {"name": "check-2iso"},
                     {"name": "check-kernel"},
                     {"name": "moments", "dual": True, "nmax": 12},
                     {"name": "dual-subnormality"}]},
    "star-20000": {
        "tree": {"kind": "t_eta_kappa", "eta": 20000, "depth": 3},
        "weights": {"kind": "kernel_condition", "x": 1.3},
        "commands": [{"name": "materialize"}, {"name": "check-2iso"},
                     {"name": "dual-subnormality"}]},
}


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the thresholds are glibc's")
@pytest.mark.parametrize("name", FAULT_SPECS)
def test_repeated_cli_runs_take_no_page_faults(tmp_path, name):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(FAULT_SPECS[name]))
    # with glibc's default thresholds a run can map and unmap its arrays
    # afresh, 46 to 262 minor page faults per run on one spec or the
    # other, as the allocations before it move glibc's own threshold;
    # with the thresholds main sets, 0 to 2 on both
    script = (
        "import resource, sys\n"
        "from treeshift.cli import main\n"
        "argv = ['--spec', sys.argv[1], '--quiet']\n"
        "for _ in range(3): main(argv)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for _ in range(5): main(argv)\n"
        "after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "print((after - before) / 5)\n")
    src = str(Path(treeshift.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in sys.path if p]))
    proc = subprocess.run([sys.executable, "-c", script, str(spec)],
                          env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) <= 10


@pytest.mark.parametrize("truncated", (False, True))
def test_table1_sorts_the_gram_diagonal_once(monkeypatch, truncated):
    calls = []
    unique = np.unique

    def counted(*args, **kwargs):
        calls.append(1)
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counted)
    shift = SHIFTS["qb-3"]
    op = truncate(shift) if truncated else shift
    assert verify_table1(op, "quasi_brownian", nmax=6).holds
    assert len(calls) == 1


def test_a_rule_count_beyond_int64_is_sized_exactly(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "tree": {"kind": "generation_rule", "rule": [[10 ** 30]],
                 "depth": 2},
        "weights": {"kind": "adjacency"}}))
    assert main(["--spec", str(spec), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"would have {1 + 2 * 10 ** 30} vertices" in err
    assert "$.tree.depth" in err
