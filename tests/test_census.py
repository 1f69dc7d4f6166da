"""A census of the small leafless 2-isometric adjacency trees.

The adjacency shift is a 2-isometry when the children of every vertex of
degree d have degrees that sum to 2d - 1.  Up to sibling order such a
tree is one partition of 2d - 1 into d parts at every vertex, so with
every degree at most MAX_DEGREE the trees of each depth can be listed as
generation rules.  Each is decided by ``dual_subnormality`` and checked
against the Stieltjes test of the dual sequence at every vertex with a
Hankel block of order 1: a conclusive "subnormal" must have no failing
vertex."""
from functools import cache
from itertools import accumulate, product

import pytest

from treeshift import (TreeSpec, WeightSpec, build_shift, comb_tree_spec,
                       dual_subnormality, hub_comb_tree_spec, materialize,
                       moment_sequence, stieltjes_test)

MAX_DEGREE = 5
NMAX = 12


@cache
def _partitions(total, parts, top=MAX_DEGREE):
    """The partitions of ``total`` into ``parts`` parts of at most
    ``top``, each in descending order."""
    if parts == 0:
        return [()] if total == 0 else []
    return [(p, *rest) for p in range(min(top, total - parts + 1), 0, -1)
            for rest in _partitions(total - p, parts - 1, p)]


def _rules(depth):
    """Every generation rule of ``depth`` rows whose tree is a leafless
    2-isometric adjacency tree with degrees at most MAX_DEGREE."""
    rows = [[(d,)] for d in range(1, MAX_DEGREE + 1)]
    for _ in range(depth - 1):
        rows = [[*rule, tuple(k for part in choice for k in part)]
                for rule in rows
                for choice in product(*(_partitions(2 * d - 1, d)
                                        for d in rule[-1]))]
    return [tuple(rule) for rule in rows]


def _failing_vertices(shift, subtrees, verdicts):
    """(vertex, failing order) for every vertex of depth <= N - 3 whose
    dual sequence, to order min(NMAX, N - 1 - depth), fails the Stieltjes
    test; the small trees here are full, each vertex its own class.

    A vertex's dual sequence depends only on its subtree, so vertices
    with equal subtrees, in one tree or in several, are tested once:
    ``subtrees`` numbers the subtrees met so far and ``verdicts`` keeps
    the verdict of each number."""
    tree = shift.tree
    n = tree.materialized_depth
    assert tree.class_count == tree.vertex_count
    degrees, starts = tree.degrees.tolist(), tree.child_starts.tolist()
    key = [0] * tree.vertex_count
    for v in range(tree.vertex_count - 1, -1, -1):
        subtree = (degrees[v], *key[starts[v]:starts[v] + degrees[v]])
        key[v] = subtrees.setdefault(subtree, len(subtrees))
    failing = []
    for depth in range(n - 2):
        for v in range(tree.gen_offsets[depth], tree.gen_offsets[depth + 1]):
            if key[v] not in verdicts:
                seq = moment_sequence(shift, tree.label(v),
                                      min(NMAX, n - 1 - depth), dual=True)
                verdict = stieltjes_test(seq)
                verdicts[key[v]] = (verdict.is_stieltjes,
                                    verdict.failing_order)
            passed, order = verdicts[key[v]]
            if not passed:
                failing.append((tree.label(v), order))
    return failing


@pytest.mark.parametrize("depth, count", [(7, 212), (8, 306), (9, 425)])
def test_no_conclusive_subnormal_tree_has_a_failing_vertex(depth, count):
    rules = _rules(depth)
    assert len(rules) == len(set(rules)) == count
    subtrees, verdicts = {}, {}
    for rule in rules:
        tree = materialize(TreeSpec("generation_rule", rule=rule,
                                    depth=depth))
        shift = build_shift(WeightSpec("adjacency"), tree)
        report = dual_subnormality(shift, NMAX)
        failing = _failing_vertices(shift, subtrees, verdicts)
        if report.verdict == "subnormal" and report.conclusive:
            assert failing == [], (rule, report.decision_path)


def _sibling_sorted(rule):
    """``rule`` with the children of every vertex ordered by degree,
    descending and stable: the order ``_rules`` lists them in."""
    rows, order = [], [0]  # order: the generation's vertices, sorted
    for g, row in enumerate(rule):
        rows.append(tuple(row[v] for v in order))
        if g + 1 < len(rule):
            starts, below = list(accumulate(row, initial=0)), rule[g + 1]
            order = [c for v in order for c in sorted(
                range(starts[v], starts[v + 1]), key=lambda c: -below[c])]
    return tuple(rows)


@cache
def _census(depth):
    return frozenset(_rules(depth))


def _decision(spec):
    shift = build_shift(WeightSpec("adjacency"), materialize(spec))
    report = dual_subnormality(shift, NMAX)
    return report.verdict, report.decision_path


# combs are constant-t past valency 2, hub combs (przadj's tree is the
# valency-3 one) decided by the generic moment test
@pytest.mark.parametrize("build,past_two", [
    (comb_tree_spec, ("subnormal", "constant-t")),
    (hub_comb_tree_spec, ("not-subnormal", "generic-moment-test"))])
@pytest.mark.parametrize("valency", [2, 3, 4, 5])
@pytest.mark.parametrize("depth", [7, 8, 9])
def test_the_census_holds_every_comb_and_hub_comb(build, past_two, valency,
                                                  depth):
    spec = build(valency, depth)
    rule = _sibling_sorted(spec.rule)
    assert rule in _census(depth)
    decision = _decision(spec)
    assert decision == _decision(TreeSpec("generation_rule", rule=rule,
                                          depth=depth))
    assert decision == (("subnormal", "BrownianG") if valency == 2
                        else past_two)
