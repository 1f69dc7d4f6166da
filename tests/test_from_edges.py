"""The linear-time edge-list builder: DirectedTree.from_edges and the
Vertex-record constructor built on it."""
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treeshift import (DirectedTree, StructureError, TreeSpec, Vertex,
                       materialize)


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


def _records():
    tree = DirectedTree.from_edges([("r", "a"), ("r", "b"), ("a", "c")])
    return {v: tree.vertex(v) for v in tree.ids()}


def test_vertex_records_build_the_same_tree():
    tree = DirectedTree(_records(), "r", 2)
    assert tree.labels == ["r", "a", "b", "c"]
    single = DirectedTree({"r": Vertex("r", 0, None, ())}, "r", 0)
    assert single.vertex_count == 1 and single.materialized_depth == 0


@pytest.mark.parametrize("change,named", [
    ({"c": Vertex("c", 3, "a", ())}, "'c'"),          # wrong depth
    ({"c": Vertex("c", 2, "b", ())}, "'c'"),          # wrong parent
    ({"b": Vertex("b", 1, "r", ("d",))}, "'d'"),      # child with no record
    ({"d": Vertex("d", 1, "r", ())}, "'d'"),          # parent not listing it
    ({"a": Vertex("a", 1, "r", ("c", "c"))}, "'a'"),  # repeated child
])
def test_disagreeing_vertex_records_are_rejected(change, named):
    with pytest.raises(StructureError, match=named):
        DirectedTree({**_records(), **change}, "r", 2)


def test_vertex_records_need_their_root():
    with pytest.raises(StructureError, match="'a'"):
        DirectedTree(_records(), "a", 2)
    with pytest.raises(StructureError, match="'x'"):
        DirectedTree(_records(), "x", 2)
