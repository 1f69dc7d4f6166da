"""The linear-time edge-list builder DirectedTree.from_edges, and the
array constructor it calls."""
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treeshift import (DirectedTree, ResourceLimitError, StructureError,
                       TreeSpec, Vertex, WeightSpec, build_shift,
                       dual_subnormality, is_two_isometry, materialize, trees)
from treeshift.cli import main


@pytest.mark.parametrize("edges,named", [
    # a second parent
    ((("r", "a"), ("r", "b"), ("a", "c"), ("b", "c")),
     "'c' has two parents"),
    # a self-loop
    ((("r", "a"), ("b", "b")), "cycle through vertex 'b'"),
    ((("b", "b"),), "cycle through vertex 'b'"),
    # a 2-cycle and nothing else: no root at all
    ((("a", "b"), ("b", "a")), "cycle through vertex '[ab]'"),
    # a valid tree under r beside a cycle with a branch hanging off it
    ((("r", "a"), ("x", "y"), ("y", "z"), ("z", "x"), ("z", "t")),
     "cycle through vertex '[xyz]'"),
    # two roots
    ((("r", "a"), ("s", "b")), "'r' and 's' both have no parent"),
])
def test_malformed_edge_lists_name_a_vertex(edges, named):
    with pytest.raises(StructureError, match=named):
        DirectedTree.from_edges(edges)


def test_cycle_below_a_root_names_a_vertex_on_the_cycle():
    edges = [("r", "a"), ("a", "b"), ("t", "u"), ("u", "v"), ("v", "t"),
             ("v", "leaf")]
    with pytest.raises(StructureError,
                       match="cycle through vertex '[tuv]'"):
        DirectedTree.from_edges(edges)


def test_empty_edge_list_is_rejected():
    with pytest.raises(StructureError, match="empty"):
        DirectedTree.from_edges(())


# ids that are not strings, pairs of the wrong length or type, and edge
# lists that are not lists
@pytest.mark.parametrize("edges", [
    [(1, 2)], [("r", 1)], [("a",)], [("a", "b", "c")], [(["a"], "b")],
    ["ab"], [{"r": "a"}], 5, None,
])
def test_malformed_pairs_are_refused_at_the_edges_field(edges):
    for build in (DirectedTree.from_edges,
                  lambda edges: TreeSpec("explicit", edges=edges)):
        with pytest.raises(StructureError) as raised:
            build(edges)
        assert str(raised.value) == (
            "edges must be a list of [parent, child] string pairs")
        assert raised.value.field == "edges"


def test_a_spec_keeps_its_edges_checked(monkeypatch):
    calls = []
    intern = trees._edge_arrays
    monkeypatch.setattr(trees, "_edge_arrays",
                        lambda *args: calls.append(args) or intern(*args))
    spec = TreeSpec("explicit", edges=[("r", "a"), ("a", "b")])
    assert spec.edges == (("r", "a"), ("a", "b"))
    assert len(calls) == 1  # the spec interns its edges once
    # and materialize builds the tree from what the spec kept
    tree = materialize(spec)
    assert tree.root == "r"
    assert len(calls) == 1
    tree.labels[0] = "x"  # each tree holds a list of the ids of its own
    assert materialize(spec).root == "r"


def test_from_edges_counts_its_ids_against_the_vertex_budget(monkeypatch):
    monkeypatch.setattr(trees, "MAX_VERTICES", 3)
    with pytest.raises(ResourceLimitError, match="5 vertices") as raised:
        DirectedTree.from_edges([("r", "a"), ("a", "b"), ("b", "c"),
                                 ("c", "d")])
    assert raised.value.field == "edges"


def test_a_spec_without_a_depth_takes_its_deepest_vertex():
    spec = TreeSpec("explicit", edges=[("r", "a"), ("r", "b"), ("b", "c")])
    assert spec.depth == 2
    assert TreeSpec("explicit", edges=[("r", "a")], depth=4).depth == 4


def test_a_depth_override_under_the_deepest_vertex_fails_at_the_edges(
        tmp_path, capsys):
    spec_file = tmp_path / "run.json"
    spec_file.write_text(json.dumps({
        "tree": {"kind": "explicit",
                 "edges": [["r", "a"], ["a", "b"], ["b", "c"]]},
        "weights": {"kind": "adjacency"}}))
    assert main(["--spec", str(spec_file), "--depth", "1", "--quiet"]) == 2
    assert capsys.readouterr().err == (
        "error: $.tree.edges: vertex 'b' at depth 2 exceeds requested "
        "depth 1\n")


def _rays(count, length):
    """A root with ``count`` rays of ``length`` edges, ray by ray."""
    return [(f"r{i}:{d - 1}" if d else "root", f"r{i}:{d}")
            for i in range(count) for d in range(length)]


@pytest.mark.parametrize("weights", [
    WeightSpec("adjacency"), WeightSpec("kernel_condition", x=1.3)])
def test_a_large_regular_explicit_tree_is_held_as_classes(weights):
    tree = DirectedTree.from_edges(_rays(20_000, 3))
    assert (tree.vertex_count, tree.class_count) == (60_001, 4)
    assert tree.children_of("r7:0") == ("r7:1",)
    full = tree.expanded()
    assert full.labels is tree.labels and full.class_count == 60_001
    shift, full_shift = (build_shift(weights, t) for t in (tree, full))
    for check in (is_two_isometry, dual_subnormality):
        assert check(shift).to_dict() == check(full_shift).to_dict()


def test_a_small_explicit_path_stays_a_full_tree():
    tree = DirectedTree.from_edges(_rays(1, 64))
    assert tree.vertex_count == tree.class_count == 65


def test_repeated_identical_edge_counts_once():
    once = DirectedTree.from_edges([("r", "a"), ("r", "b"), ("a", "c")])
    twice = DirectedTree.from_edges([("r", "a"), ("r", "b"), ("r", "a"),
                                     ("a", "c"), ("a", "c")])
    assert twice.labels == once.labels == ["r", "a", "b", "c"]
    assert np.array_equal(twice.degrees, once.degrees)
    assert twice.generation_sizes == once.generation_sizes == (1, 2, 1)


def test_depth_is_inferred_padded_and_bounded():
    path = [("r", "a"), ("a", "b"), ("b", "c")]
    assert DirectedTree.from_edges(path).materialized_depth == 3
    assert materialize(TreeSpec("explicit",
                                edges=tuple(path))).materialized_depth == 3
    padded = DirectedTree.from_edges(path, 5)
    assert padded.generation_sizes == (1, 1, 1, 1, 0, 0)
    with pytest.raises(StructureError,
                       match="'c' at depth 3 exceeds requested depth 2"):
        DirectedTree.from_edges(path, 2)
    with pytest.raises(StructureError):
        materialize(TreeSpec("explicit", edges=tuple(path), depth=1))


def test_children_keep_the_order_of_their_first_edges():
    tree = DirectedTree.from_edges([("a", "a2"), ("r", "b"), ("r", "a"),
                                    ("a", "a1"), ("b", "b1")])
    assert tree.root == "r"
    assert tree.children_of("r") == ("b", "a")
    assert tree.children_of("a") == ("a2", "a1")
    assert tree.labels == ["r", "b", "a", "b1", "a2", "a1"]


@st.composite
def rule_trees(draw):
    """A generation-rule tree (leaves allowed) and a seed for shuffling."""
    rule, width = [], 1
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        row = [draw(st.integers(min_value=0, max_value=3))
               for _ in range(width)]
        if sum(row) == 0:
            row[0] = 1
        rule.append(tuple(row))
        width = sum(row)
    spec = TreeSpec("generation_rule", rule=tuple(rule), depth=len(rule))
    return materialize(spec), draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=80, deadline=None)
@given(rule_trees())
def test_edges_rebuild_the_degree_tree(case):
    built, seed = case
    rng = random.Random(seed)
    edges = [(built.label(int(p)), v)
             for p, v in zip(built.parents[1:], built.labels[1:])]
    # shuffle the edge list, keeping each vertex's children in order,
    # and repeat a few edges
    slots = list(range(len(edges)))
    rng.shuffle(slots)
    by_parent = {}
    for k, (p, _) in enumerate(edges):
        by_parent.setdefault(p, []).append(k)
    shuffled = [None] * len(edges)
    for p, ks in by_parent.items():
        for k, slot in zip(ks, sorted(slots[k] for k in ks)):
            shuffled[slot] = edges[k]
    shuffled += [rng.choice(shuffled) for _ in range(rng.randrange(3))]
    tree = DirectedTree.from_edges(shuffled)
    assert np.array_equal(tree.degrees, built.degrees)
    assert np.array_equal(tree.gen_offsets, built.gen_offsets)
    assert tree.labels == built.labels
    assert np.array_equal(tree.parents, built.parents)


def test_lone_root_with_labels():
    tree = DirectedTree([0], [1], ["r"])
    assert tree.vertex_count == 1 and tree.materialized_depth == 0
    assert tree.vertex("r") == Vertex("r", 0, None, ())
    assert tree.root == "r" and tree.generations() == (("r",),)


def test_labels_are_the_ids_in_canonical_order():
    built = DirectedTree.from_edges([("r", "a"), ("r", "b"), ("a", "c")])
    tree = DirectedTree([2, 1, 0, 0], [1, 2, 1], ["r", "a", "b", "c"])
    assert tree.labels == built.labels
    assert tree.vertex("a") == built.vertex("a") == Vertex(
        "a", 1, "r", ("c",))


def test_labels_of_the_wrong_length_are_rejected():
    for labels in (["r", "a"], ["r", "a", "b", "c", "d"], []):
        with pytest.raises(StructureError, match="labels for 4 vertices"):
            DirectedTree([2, 1, 0, 0], [1, 2, 1], labels)


def test_duplicate_labels_are_rejected_on_lookup():
    tree = DirectedTree([2, 1, 0, 0], [1, 2, 1], ["r", "a", "b", "a"])
    for _ in range(2):  # the id map is not kept half built
        with pytest.raises(StructureError, match="repeat"):
            tree.index("b")


def test_constructor_checks_consistency():
    tree = DirectedTree([2, 1, 0, 0], [1, 2, 1])
    assert tree.generations() == (("g0:0",), ("g1:0", "g1:1"), ("g2:0",))
    for degrees, sizes in (([2, 1, 1, 0], [1, 2, 1]), ([1, 0], [1, 2]),
                           ([2, 0, 0], [2, 1]), ([1, 1], [1, 1]),
                           ([0], []), ([-1, 2, 0], [1, 1, 1]),
                           ([2, 0, 0], [1, 3, -1])):
        with pytest.raises(StructureError):
            DirectedTree(degrees, sizes)
