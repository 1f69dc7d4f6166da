"""Structural layer: materialization, generations, classification."""
import numpy as np
import pytest

from treeshift import (RangeError, StructureError, TreeSpec, classify_tree,
                       comb_tree_spec, generation, hub_comb_tree_spec,
                       materialize, spec_vertex_count,
                       two_plus_three_tree_spec)
from treeshift.errors import ConfigurationError


def test_path_materialization():
    tree = materialize(TreeSpec("path", depth=8))
    assert tree.vertex_count == 9
    assert tree.materialized_depth == 8
    assert [len(g) for g in tree.generations()] == [1] * 9
    assert tree.root == "g0:0"
    assert tree.depth_of(tree.root) == 0
    assert tree.parent_of(tree.root) is None


def test_t_eta_kappa_shape():
    # eta branches splitting right below the root
    tree = materialize(TreeSpec("t_eta_kappa", eta=3, kappa=0, depth=6))
    assert len(generation(tree, 0)) == 1
    assert len(generation(tree, 1)) == 3
    assert all(len(generation(tree, g)) == 3 for g in range(1, 7))
    assert tree.degree(tree.root) == 3
    for v in generation(tree, 1):
        assert tree.degree(v) == 1

    with pytest.raises(ConfigurationError):
        TreeSpec("t_eta_kappa", eta=2, kappa=2, depth=6)


def test_quasi_brownian_tree_shape():
    tree = materialize(TreeSpec("quasi_brownian", valency=3, depth=5))
    # one V-vertex per generation, each contributing valency - 1 new rays
    sizes = [len(g) for g in tree.generations()]
    assert sizes == [1, 3, 5, 7, 9, 11]
    report = classify_tree(tree)
    assert report.quasi_brownian.holds
    assert report.valency == 3
    assert report.leafless_to_depth
    assert report.max_degree == 3
    assert report.quasi_brownian.verified_depth == 3


def test_explicit_tree_and_errors():
    edges = (("r", "a"), ("r", "b"), ("a", "c"), ("b", "d"), ("c", "e"),
             ("d", "f"))
    tree = materialize(TreeSpec("explicit", edges=edges, depth=3))
    assert tree.root == "r"
    assert tree.depth_of("e") == 3
    assert sorted(tree.children_of("r")) == ["a", "b"]

    with pytest.raises(StructureError):
        # two roots
        materialize(TreeSpec("explicit", edges=(("r", "a"), ("s", "b")),
                             depth=2))
    with pytest.raises(StructureError):
        # cycle
        materialize(TreeSpec("explicit",
                             edges=(("a", "b"), ("b", "c"), ("c", "a")),
                             depth=3))
    with pytest.raises(StructureError):
        # duplicate parent for one child
        materialize(TreeSpec("explicit",
                             edges=(("r", "a"), ("r", "b"), ("a", "c"),
                                    ("b", "c")), depth=2))


def test_generation_rule_padding_and_validation():
    tree = materialize(TreeSpec("generation_rule", rule=((2,), (3, 1)),
                                depth=5))
    assert [len(g) for g in tree.generations()] == [1, 2, 4, 4, 4, 4]
    with pytest.raises(StructureError):
        # row length must match the generation it describes
        materialize(TreeSpec("generation_rule", rule=((2,), (3,)), depth=4))


# (2 ** 70, 1.0): a float after an int beyond int64; a bool next to a
# count that fits a byte, and one next to a count that does not; a str
# and an int in place of a row (bytes(2) would be two zero counts)
@pytest.mark.parametrize("row", [(1.5, 1), (True, 1), ("2", 1),
                                 (2 ** 70, 1.0), (None, 1), (2, True),
                                 (False, 2), [1, True], (True, 300),
                                 (np.True_, 1), (np.float64(1.0), 1),
                                 "11", 2])
def test_generation_rule_entries_are_ints(row):
    # a float was truncated to an int, and a bool read as 0 or 1
    with pytest.raises(StructureError, match="child-count lists"):
        TreeSpec("generation_rule", rule=((2,), row), depth=3)


# read by len() and iteration, an empty one of these would be a path and
# a dict the rule of its keys, and a generator has no len()
@pytest.mark.parametrize("rule", [
    {}, "", b"", set(), range(0), {(2,): 1, (1, 1): 1},
    ((2,) * 2 ** g for g in range(3)), np.array([[2]]),
], ids=["dict", "str", "bytes", "set", "range", "dict-of-rows",
        "generator", "ndarray"])
def test_generation_rule_is_a_tuple_or_a_list(rule):
    with pytest.raises(StructureError) as raised:
        TreeSpec("generation_rule", rule=rule, depth=3)
    assert str(raised.value) == (
        "rule must be a list of per-generation child-count lists")


# rows that are not tuples or lists of ints 0..255 take the general
# conversion: a count past a byte, numpy ints (also past a byte), and
# rows of other types, bytes among them
@pytest.mark.parametrize("row", [(256, 0), [255, 1], (np.int64(2), 2),
                                 (np.uint8(1), np.int64(300)),
                                 np.array([2, 2]), b"\x02\x02",
                                 range(1, 3)])
def test_generation_rule_rows_read_as_their_ints(row):
    ints = tuple(map(int, row))
    spec = TreeSpec("generation_rule", rule=((2,), row), depth=3)
    plain = TreeSpec("generation_rule", rule=((2,), ints), depth=3)
    assert spec_vertex_count(spec) == spec_vertex_count(plain)
    assert (materialize(spec).expanded().degrees.tolist()
            == materialize(plain).expanded().degrees.tolist()
            == [2, *ints, *[1] * sum(ints), *[0] * sum(ints)])


@pytest.mark.parametrize("row, length", [((256, -255), 2), ((3, -2), 2),
                                         ((255,), 1), ((2, 0, 0), 3)])
def test_generation_rule_rows_that_miss_their_generation(row, length):
    with pytest.raises(StructureError) as raised:
        TreeSpec("generation_rule", rule=((2,), row), depth=3)
    assert str(raised.value) == (
        f"generation rule row 1 has length {length}; it needs 2 child "
        f"counts >= 0, one per vertex of generation 1")


def test_resolve_path_and_vertex_access():
    tree = materialize(TreeSpec("t_eta_kappa", eta=2, depth=4))
    first = tree.resolve_path([0])
    second = tree.resolve_path([1])
    assert {first, second} == set(tree.children_of(tree.root))
    assert tree.resolve_path([]) == tree.root
    deep = tree.resolve_path([1, 0, 0])
    assert tree.depth_of(deep) == 3
    with pytest.raises(RangeError):
        tree.resolve_path([2])
    with pytest.raises(RangeError):
        tree.resolve_path([0, 5])


def test_degree_range_error_at_materialization_boundary():
    tree = materialize(TreeSpec("path", depth=4))
    (leaf,) = generation(tree, 4)
    with pytest.raises(RangeError):
        tree.degree(leaf)
    # one above is fine
    (v,) = generation(tree, 3)
    assert tree.degree(v) == 1


def test_comb_tree_structure():
    tree = materialize(comb_tree_spec(3, 8))
    assert tree.degree(tree.root) == 3
    degs = sorted(tree.degree(v) for v in tree.children_of(tree.root))
    assert degs == [1, 2, 2]
    report = classify_tree(tree)
    assert not report.quasi_brownian.holds  # two spines, not a V-chain

    two = materialize(comb_tree_spec(2, 8))
    assert classify_tree(two).quasi_brownian.holds
    assert classify_tree(two).valency == 2


def test_hub_comb_structure():
    tree = materialize(hub_comb_tree_spec(3, 8))
    kids = tree.children_of(tree.root)
    assert len(kids) == 3
    # hub is the last root child and carries the full branching
    hub = kids[-1]
    assert tree.degree(hub) == 3
    assert all(tree.degree(v) == 1 for v in kids[:-1])
    hub_kids = sorted(tree.degree(v) for v in tree.children_of(hub))
    assert hub_kids == [1, 2, 2]


def test_two_plus_three_variants():
    a = materialize(two_plus_three_tree_spec("a", 6))
    b = materialize(two_plus_three_tree_spec("b", 6))
    assert [len(g) for g in a.generations()][:3] == [1, 2, 4]
    assert [len(g) for g in b.generations()][:3] == [1, 2, 4]
    # same generation sizes, different degree multisets in generation 1
    degs_a = sorted(a.degree(v) for v in generation(a, 1))
    degs_b = sorted(b.degree(v) for v in generation(b, 1))
    assert degs_a == [1, 3]
    assert degs_b == [2, 2]


def test_classify_tree_on_t20():
    tree = materialize(TreeSpec("t_eta_kappa", eta=2, depth=6))
    report = classify_tree(tree)
    assert not report.quasi_brownian.holds
    assert report.max_degree == 2


def test_spec_validation_errors():
    with pytest.raises(RangeError):
        materialize(TreeSpec("path", depth=-1))
    with pytest.raises(ConfigurationError):
        TreeSpec("t_eta_kappa", eta=0, depth=4)
    with pytest.raises(ConfigurationError):
        TreeSpec("nonsense", depth=4)
    with pytest.raises(ConfigurationError):
        TreeSpec("quasi_brownian", valency=1, depth=4)
    with pytest.raises(ConfigurationError):
        materialize(TreeSpec("path"))  # no depth anywhere
