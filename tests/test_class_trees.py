"""Trees held as subtree classes: ``t_eta_kappa`` and ``quasi_brownian``
trees are materialized as a few classes per generation, and
``generation_rule`` trees are hashed into run classes when they have at
least MIN_VERTICES_PER_CLASS vertices per class; the engine runs on the
classes, and every command reports on them exactly what it reports on
the full tree, ``tree.expanded()``."""
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from treeshift import (MIN_VERTICES_PER_CLASS, DirectedTree, RangeError,
                       StructureError, TreeSpec, WeightSpec, build_shift,
                       classify_tree, comb_tree_spec, generation,
                       materialize, quasi_brownian,
                       two_plus_three_tree_spec)
from treeshift.cli import CommandRecord, RunSpec, run_suite


def _commands(tree, weights):
    """The run's commands: every one that reads a tree or a shift, at
    the root and at a deep vertex, in the last branch of the root;
    dual-subnormality first, since a failed check-2iso skips it."""
    n = tree.materialized_depth
    cmds = [("dual-subnormality", {"nmax": nmax}) for nmax in (2, 6, 12)]
    cmds += [("materialize", {}), ("classify-tree", {}), ("check-2iso", {}),
            *(("check-kernel", {"k": k}) for k in range(3)),
            ("cauchy-dual", {}), ("classify-adjacency", {}),
            ("invariants", {})]
    deep = [tree.degree(tree.root) - 1] + [0] * (n // 2 - 1)
    # the last vertex of generation n // 2, by its id
    last = f"g{n // 2}:{tree.generation_sizes[n // 2] - 1}"
    for dual in (False, True):
        cmds += [("moments", {"nmax": n - 1, "dual": dual}),
                 *(("moments", {"vertex": vertex, "nmax": n - n // 2 - 1,
                                "dual": dual}) for vertex in (deep, last))]
    row = {"adjacency": "quasi_brownian", "kernel_condition": "kernel",
           "dirichlet": "kernel"}.get(weights.kind)
    if row is not None:
        cmds.append(("verify-table1", {"row": row, "nmax": min(4, n - 1)}))
    return tuple(CommandRecord(name, params) for name, params in cmds)


def _results(spec, weights, shift, commands):
    """The result and status of every command, as JSON text: floats are
    written by repr, so equal text is equal bits."""
    report, _ = run_suite(RunSpec(spec, weights, commands, shift))
    return [json.dumps([r["status"], r["result"]], sort_keys=True)
            for r in report["results"]]


def _assert_classes_report_as_full_tree(spec, weights):
    tree = materialize(spec)
    full = tree.expanded()
    assert full.class_count == full.vertex_count
    commands = _commands(tree, weights)
    assert _results(spec, weights, build_shift(weights, tree), commands) \
        == _results(spec, weights, build_shift(weights, full), commands)


def _leafless(tree):
    known = tree.class_degrees[:tree.class_offsets.item(
        tree.materialized_depth)]
    return bool((known > 0).all())


@st.composite
def hashed_rules(draw, depth):
    """A generation rule whose tree is hashed into run classes: a root of
    192 to 320 children, then up to depth + 1 rows (so the depth falls
    below and above the rule's length), each a run or two of equal
    counts cut at any vertex, perhaps with one vertex of its own count,
    whose children then fall in two classes; with leaves allowed, a row
    may be all 0, and the rows after it are empty."""
    leafless = draw(st.booleans())
    counts = st.sampled_from([1, 1, 2] if leafless else [0, 1, 2])
    width = draw(st.integers(min_value=192, max_value=320))
    rule = [(width,)]
    for _ in range(draw(st.integers(min_value=0, max_value=depth))):
        if not width or not leafless and draw(st.integers(0, 9)) == 0:
            row = [0] * width
        else:
            cut = draw(st.integers(min_value=0, max_value=width))
            row = [draw(counts)] * cut + [draw(counts)] * (width - cut)
            if draw(st.booleans()):
                row[draw(st.integers(0, width - 1))] = draw(
                    st.sampled_from([1, 2, 3] if leafless else [0, 2, 3]))
            if sum(row) > 640:
                row = [1] * width
        rule.append(tuple(row))
        width = sum(row)
    spec = TreeSpec("generation_rule", rule=tuple(rule), depth=depth)
    tree = materialize(spec)
    assume(tree.class_count < tree.vertex_count)
    return spec


@st.composite
def class_tree_runs(draw):
    """A tree spec of a family with classes, a hashed generation rule, or
    a path, and weights that fit it."""
    depth = draw(st.integers(min_value=2, max_value=12))
    kind = draw(st.sampled_from(["path", "t_eta_kappa", "quasi_brownian",
                                 "generation_rule"]))
    if kind == "path":
        spec = TreeSpec("path", depth=depth)
    elif kind == "t_eta_kappa":
        spec = TreeSpec("t_eta_kappa",
                        eta=draw(st.integers(min_value=2, max_value=6)),
                        depth=depth)
    elif kind == "quasi_brownian":
        spec = TreeSpec("quasi_brownian",
                        valency=draw(st.integers(min_value=2, max_value=5)),
                        depth=depth)
    else:
        spec = draw(hashed_rules(min(depth, 7)))
    tree = materialize(spec)
    x = draw(st.floats(min_value=1.0, max_value=1.6))
    choices = [WeightSpec("adjacency")]
    if _leafless(tree):
        picked = draw(st.lists(st.sampled_from(tree.labels[1:]), min_size=1,
                               max_size=4, unique=True))
        choices += [WeightSpec("kernel_condition", x=x),
                    WeightSpec("kernel_condition", x=x, proportions={
                        v: draw(st.floats(min_value=0.25, max_value=4.0))
                        for v in picked})]
    if kind == "path":
        choices += [WeightSpec(k) for k in ("dirichlet", "bergman_dual",
                                            "treiso")]
    if spec.eta == 2:
        y = st.floats(min_value=1.01, max_value=1.41)
        choices.append(WeightSpec("glowny", y1=draw(y), y2=draw(y)))
    return spec, draw(st.sampled_from(choices))


@settings(max_examples=120, deadline=None)
@given(class_tree_runs())
def test_every_command_reports_on_classes_as_on_the_full_tree(run):
    _assert_classes_report_as_full_tree(*run)


@pytest.mark.parametrize("spec", [
    TreeSpec("t_eta_kappa", eta=2, depth=12),
    TreeSpec("t_eta_kappa", eta=5, depth=7),
    TreeSpec("quasi_brownian", valency=3, depth=9),
    TreeSpec("quasi_brownian", valency=2, depth=12),
], ids=str)
@pytest.mark.parametrize("weights", [
    WeightSpec("adjacency"), WeightSpec("kernel_condition", x=1.3),
    WeightSpec("kernel_condition", x=1.0)], ids=str)
def test_family_runs_report_on_classes_as_on_the_full_tree(spec, weights):
    _assert_classes_report_as_full_tree(spec, weights)


def test_family_trees_hold_few_classes_and_their_shifts_stay_on_them():
    qb = materialize(TreeSpec("quasi_brownian", valency=3, depth=200))
    assert qb.vertex_count == 40_401
    assert np.diff(qb.class_offsets).max() <= 2
    assert qb.class_count == 401 and len(qb.class_parents) - 1 == 799
    star = materialize(TreeSpec("t_eta_kappa", eta=20_000, depth=3))
    assert star.vertex_count == 60_001
    assert star.class_count == 4 and len(star.class_parents) - 1 == 20_002
    # a fall-back to the full tree would build a shift on tree.expanded()
    for tree, weights in ((qb, WeightSpec("adjacency")),
                          (star, WeightSpec("adjacency")),
                          (star, WeightSpec("kernel_condition", x=1.3))):
        shift = build_shift(weights, tree)
        assert shift.tree is tree
        assert len(shift.class_weights) == tree.class_count
    assert qb._expanded is None and star._expanded is None


def _rule_degrees(rule, depth):
    """Child count of every vertex of a rule tree, read off the rule row
    by row: one child past the rule, none on the last generation."""
    degrees, width = [], 1
    for g in range(depth):
        row = list(rule[g]) if g < len(rule) else [1] * width
        degrees += row
        width = sum(row)
    return degrees + [0] * width


RULE_TREES = {
    "constant-rows": (((200,), (1,) * 200, (2,) * 200), 5),
    # runs cut inside the children of one vertex
    "mixed-runs": (((256,), (1,) * 100 + (2,) * 156,
                    (2,) * 151 + (1,) * 261), 6),
    # the last vertex of generation 1 has children in two classes
    "two-child-classes": (((200,), (1,) * 199 + (3,), (1,) * 199 + (2, 1, 1)),
                          5),
    # a 0 row: the generations after it are empty
    "zero-row": (((300,), (1,) * 150 + (0,) * 150, (0,) * 150), 6),
    "depth-below-rule": (((200,), (1,) * 100 + (2,) * 100,
                          (3,) * 100 + (1,) * 200, (1,) * 500), 2),
    "depth-above-rule": (((200,), (2,) * 50 + (1,) * 150), 9),
}


@pytest.mark.parametrize("rule,depth", RULE_TREES.values(), ids=RULE_TREES)
def test_hashed_rule_trees_report_on_classes_as_on_the_full_tree(rule,
                                                                 depth):
    spec = TreeSpec("generation_rule", rule=rule, depth=depth)
    tree = materialize(spec)
    assert tree.class_count < tree.vertex_count
    assert tree.class_count * MIN_VERTICES_PER_CLASS <= tree.vertex_count
    assert tree.expanded().degrees.tolist() == _rule_degrees(rule, depth)
    weights = [WeightSpec("adjacency")]
    if _leafless(tree):
        weights.append(WeightSpec("kernel_condition", x=1.3))
    for w in weights:
        _assert_classes_report_as_full_tree(spec, w)


def test_a_vertex_with_children_in_two_classes_is_a_class_of_its_own():
    rule, depth = RULE_TREES["two-child-classes"]
    tree = materialize(TreeSpec("generation_rule", rule=rule, depth=depth))
    c = tree.class_of(tree.index("g1:199"))
    assert tree.multiplicities[c] == 1 and tree.class_degrees[c] == 3
    start = tree.class_starts[c]
    kids = tree.children[start:start + 3].tolist()
    assert kids[0] != kids[1] == kids[2]
    # generation 2: the rays, the vertex of degree 2, and its two
    # siblings, which follow the rays but are not in their class
    assert np.diff(tree.class_offsets)[:3].tolist() == [1, 2, 3]


def test_binary_15_is_one_class_per_generation():
    spec = TreeSpec("generation_rule",
                    rule=tuple((2,) * 2 ** g for g in range(15)), depth=15)
    weights = WeightSpec("kernel_condition", x=1.3)
    tree = materialize(spec)
    assert tree.vertex_count == 65_535 and tree.class_count == 16
    shift = build_shift(weights, tree)
    assert shift.tree is tree
    # the commands of the deep-trees benchmark's binary-15 operation
    commands = tuple(CommandRecord(name, params) for name, params in (
        ("materialize", {}), ("check-2iso", {}), ("check-kernel", {}),
        ("moments", {"dual": True, "nmax": 12}), ("dual-subnormality", {})))
    report, _ = run_suite(RunSpec(spec, weights, commands, shift))
    assert [r["status"] for r in report["results"]] == ["passed"] * 5
    assert tree._expanded is None


def test_the_quasi_brownian_rule_hashes_to_no_more_classes_than_its_family():
    depth = 1413
    family = materialize(TreeSpec("quasi_brownian", valency=3, depth=depth))
    rule = materialize(TreeSpec(
        "generation_rule", rule=tuple((3,) + (1,) * (2 * n)
                                      for n in range(depth)), depth=depth))
    assert rule.vertex_count == family.vertex_count == 1_999_396
    assert rule.generation_sizes == family.generation_sizes
    # the family tree splits its last generation into the spine's and
    # the rays' leaves; every leaf of the rule tree is in one class
    assert rule.class_count == 2_826 <= family.class_count == 2_827
    assert quasi_brownian(rule) == quasi_brownian(family)
    assert rule._expanded is None


@pytest.mark.parametrize("spec", [
    comb_tree_spec(2, 40),
    TreeSpec("generation_rule", rule=tuple((2,) * 2 ** g for g in range(8)),
             depth=8),
    two_plus_three_tree_spec("a", 30),
    TreeSpec("path", depth=500),
], ids=["comb-2-depth-40", "binary-8", "two-plus-three-a", "path-500"])
def test_rule_trees_under_the_hashing_bound_stay_full(spec):
    tree = materialize(spec)
    assert tree.class_count == tree.vertex_count


def test_a_deep_comb_is_a_ray_class_and_a_spine_class_per_generation():
    # a valency-2 comb's generation is its rays, then its spine vertex:
    # two runs, and from depth 300 at least 64 vertices per class
    spec = comb_tree_spec(2, 300)
    tree = materialize(spec)
    assert tree.vertex_count == 45_451 and tree.class_count == 600
    assert np.diff(tree.class_offsets).max() == 2
    _assert_classes_report_as_full_tree(spec, WeightSpec("adjacency"))


def test_moments_at_a_default_id_do_not_expand_a_class_tree():
    spec = TreeSpec("quasi_brownian", valency=3, depth=1413)
    weights = WeightSpec("adjacency")
    tree = materialize(spec)
    commands = (CommandRecord("moments", {"vertex": "g5:0", "nmax": 12,
                                          "dual": True}),)
    report, _ = run_suite(RunSpec(spec, weights, commands,
                                  build_shift(weights, tree)))
    assert report["results"][0]["status"] == "passed"
    assert tree._expanded is None


def test_moments_at_a_child_index_path_do_not_expand_a_class_tree():
    spec = TreeSpec("quasi_brownian", valency=3, depth=1413)
    weights = WeightSpec("adjacency")
    tree = materialize(spec)
    commands = (CommandRecord("moments", {"vertex": [1, 0, 0], "nmax": 12,
                                          "dual": True}),)
    report, _ = run_suite(RunSpec(spec, weights, commands,
                                  build_shift(weights, tree)))
    assert tree._expanded is None
    full, _ = run_suite(RunSpec(spec, weights, commands,
                                build_shift(weights, tree.expanded())))
    result = report["results"][0]["result"]
    assert result["vertex"] == "g3:5"
    assert result == full["results"][0]["result"]


@pytest.mark.parametrize("spec", [
    TreeSpec("quasi_brownian", valency=4, depth=7),
    TreeSpec("t_eta_kappa", eta=5, depth=6),
    TreeSpec("generation_rule", rule=((200,), (1,) * 100 + (2,) * 100),
             depth=5),
    comb_tree_spec(3, 7),
])
def test_child_index_paths_walk_the_class_arrays(spec):
    tree = materialize(spec)
    full = materialize(spec).expanded()
    # every path of up to three steps, and each one step past the last
    # child of its end
    paths = [[]]
    for path in paths:
        if len(path) < 3:
            degree = len(full.children_of(full.resolve_path(path)))
            paths += [path + [k] for k in range(degree)]
    paths += [path + [len(full.children_of(full.resolve_path(path)))]
              for path in paths]
    for path in paths:
        try:
            expected = full.resolve_path(path)
        except RangeError as exc:
            with pytest.raises(RangeError) as raised:
                tree.resolve_path(path)
            assert str(raised.value) == str(exc)
        else:
            assert tree.resolve_path(path) == expected
            walked = full.root
            for k in path:
                walked = full.children_of(walked)[k]
            assert walked == expected
    assert tree._expanded is None


def test_generation_never_builds_the_label_list():
    trees = [materialize(TreeSpec("quasi_brownian", valency=3, depth=50)),
             materialize(TreeSpec("path", depth=64)),
             materialize(TreeSpec("generation_rule",
                                  rule=((2,), (1, 2)), depth=6))]
    for tree in trees:
        ids = [generation(tree, n)
               for n in range(tree.materialized_depth + 1)]
        assert tree._labels is None and tree._expanded is None
        off = tree.gen_offsets.tolist()
        assert ids == [tuple(tree.labels[a:b]) for a, b in zip(off, off[1:])]


def test_a_default_id_is_read_from_the_generation_offsets():
    tree = materialize(TreeSpec("quasi_brownian", valency=3, depth=5))
    full = tree.expanded()
    for d, size in enumerate(tree.generation_sizes):
        for i in (0, size - 1):
            assert tree.index(f"g{d}:{i}") == full.labels.index(f"g{d}:{i}")
    assert tree._expanded is full and full._index_map is None


@pytest.mark.parametrize("vid", [
    "g05:0", "g5:+1", "g5: 1", "g5:1_0", "g5:01", "g5:1 ", "g5:1\n",
    "G5:1", "g5:1.0", "g-1:0", "g5:-1", "g6:0", "g5:11", "g\u0665:0",
    "g5:" + "9" * 5000, "", "g5", 5,
])
def test_ids_outside_the_default_form_are_unknown(vid):
    tree = materialize(TreeSpec("quasi_brownian", valency=3, depth=5))
    for t in (tree, tree.expanded()):
        with pytest.raises(RangeError, match="unknown vertex"):
            t.index(vid)
        assert vid not in t


@pytest.mark.parametrize("labelled", (False, True),
                         ids=("formatted", "labelled"))
@pytest.mark.parametrize("spec", [
    TreeSpec("quasi_brownian", valency=3, depth=4), TreeSpec("path", depth=4),
], ids=["quasi-brownian-classes", "path"])
def test_vertex_indices_outside_the_tree_are_out_of_range(spec, labelled):
    tree = materialize(spec)
    if labelled:
        assert len(tree.labels) == tree.vertex_count
    last = tree.vertex_count - 1
    assert tree.depth_at(last) == 4
    assert tree.label(last) == f"g4:{tree.generation_sizes[4] - 1}"
    for i in (last + 1, -1):
        for lookup in (tree.label, tree.depth_at):
            with pytest.raises(RangeError, match="out of range"):
                lookup(i)


def test_explicit_labels_are_looked_up_by_label():
    # a label that reads as a default id names the vertex it labels
    tree = DirectedTree.from_edges([("r", "a"), ("a", "g1:0")])
    assert tree.index("g1:0") == 2 and tree.index("a") == 1
    with pytest.raises(RangeError):
        tree.index("g2:0")


def test_the_constructor_takes_and_freezes_int64_arrays():
    degrees = np.array([2, 0, 0], dtype=np.int64)
    sizes = np.array([1, 2], dtype=np.int64)
    tree = DirectedTree(degrees, sizes)
    assert np.shares_memory(tree.class_degrees, degrees)
    assert not degrees.flags.writeable and not sizes.flags.writeable
    with pytest.raises(ValueError):
        degrees[0] = 3
    # anything else is converted, and the caller's object is left alone
    degrees32, listed = np.array([2, 0, 0], dtype=np.int32), [1, 2]
    tree = DirectedTree(degrees32, listed)
    assert degrees32.flags.writeable and listed == [1, 2]
    assert not np.shares_memory(tree.class_degrees, degrees32)


def test_kernel_condition_on_a_quasi_brownian_tree_uses_the_full_tree():
    # rays born at the spine get t/3 and continuing rays t/1: the edges
    # into a ray class disagree
    spec = TreeSpec("quasi_brownian", valency=3, depth=8)
    weights = WeightSpec("kernel_condition", x=1.2)
    tree = materialize(spec)
    shift = build_shift(weights, tree)
    assert shift.tree is tree.expanded()
    assert shift.tree.class_count == shift.tree.vertex_count
    full = build_shift(weights, tree.expanded())
    assert shift.weight_array.tobytes() == full.weight_array.tobytes()
    _assert_classes_report_as_full_tree(spec, weights)


def test_per_vertex_attributes_keep_their_meaning():
    tree = materialize(TreeSpec("quasi_brownian", valency=3, depth=5))
    full = tree.expanded()
    assert tree.expanded() is full
    for name in ("degrees", "parents", "gen_offsets", "child_starts"):
        assert np.array_equal(getattr(tree, name), getattr(full, name))
    assert tree.labels == full.labels
    assert tree.generation_sizes == full.generation_sizes == (1, 3, 5, 7,
                                                              9, 11)
    assert tree.vertex_count == full.vertex_count == 36
    for vid in ("g0:0", "g2:0", "g3:4", "g5:10"):
        assert tree.index(vid) == full.index(vid)
        assert tree.vertex(vid) == full.vertex(vid)
        assert tree.class_label(tree.class_of(tree.index(vid))) == \
            f"g{vid[1]}:{0 if vid.endswith(':0') else 1}"
    # the same tree built on its own as a full tree, so that nothing
    # below reads what the class tree keeps
    other = DirectedTree(full.degrees.copy(), full.generation_sizes)
    assert other.class_count == other.vertex_count
    assert np.array_equal(tree.adjacency_expansion()[0],
                          other.adjacency_expansion()[0])
    shift = build_shift(WeightSpec("adjacency"), tree)
    assert shift.tree is tree
    full_shift = build_shift(WeightSpec("adjacency"), other)
    for name, class_name in (("weight_array", "class_weights"),
                             ("squared_weights", "class_squared_weights"),
                             ("vertex_norms", "class_norms"),
                             ("squared_norms", "class_squared_norms")):
        per_vertex = getattr(full_shift, name).tobytes()
        assert getattr(shift, name).tobytes() == per_vertex
        # the class arrays, read per vertex, are the full tree's bit for
        # bit: every vertex of a class sums its children in class order
        assert getattr(shift, class_name)[tree.vertex_classes].tobytes() \
            == per_vertex
    assert shift.weights() == full_shift.weights()


def test_a_binary_tree_as_one_class_per_generation():
    # every class sends both its edges to the next one
    depth = 6
    classes = DirectedTree([2] * depth + [0], 2 ** np.arange(depth + 1),
                           children=np.repeat(np.arange(1, depth + 1), 2),
                           multiplicities=2 ** np.arange(depth + 1))
    rule = TreeSpec("generation_rule",
                    rule=tuple((2,) * 2 ** g for g in range(depth)),
                    depth=depth)
    full = materialize(rule)  # under the hashing bound: a full tree
    assert full.class_count == full.vertex_count
    assert np.array_equal(classes.expanded().degrees, full.degrees)
    weights = WeightSpec("kernel_condition", x=1.4)
    commands = _commands(full, weights)
    assert _results(rule, weights, build_shift(weights, classes), commands) \
        == _results(rule, weights, build_shift(weights, full), commands)


@pytest.mark.parametrize("degrees,sizes", [
    ([2.7, 1, 0, 0], [1, 2, 1]),      # a float count
    ([True, 0], [1, 1]),              # a bool mixed with ints
    ([True, False], [1, 1]),          # bools only
    ([1, 0], [1.0, 1]),               # a float size
    (np.array([1.0, 0.0]), [1, 1]),   # a float array
    ([[1, 0]], [1, 1]),               # not one-dimensional
])
def test_constructor_refuses_non_integer_arrays(degrees, sizes):
    with pytest.raises(StructureError, match="must be a list of integers"):
        DirectedTree(degrees, sizes)


@pytest.mark.parametrize("degrees,sizes,children,mult", [
    # children given without multiplicities, and floats among classes
    ([2, 0], [1, 2], [1, 1], None),
    ([2, 0], [1, 2], [1.0, 1.0], [1, 2]),
    ([2, 0], [1, 2], [1, 1], [1, 2.0]),
    # a class of two vertices with edges to two classes: its vertices'
    # children interleave
    ([2, 2, 0, 0], [1, 2, 4], [1, 1, 2, 3], [1, 2, 2, 2]),
    # an edge that skips a generation
    ([2, 0, 0], [1, 1, 1], [1, 2], [1, 1, 1]),
    # multiplicities that the edges do not make up
    ([2, 0], [1, 3], [1, 1], [1, 3]),
    ([2, 0, 0], [1, 2], [1, 1], [1, 1, 1]),
    # edge classes that decrease, or name the root or no class
    ([2, 0, 0], [1, 2], [2, 1], [1, 1, 1]),
    ([1, 0], [1, 1], [0], [1, 1]),
    ([1, 0], [1, 1], [2], [1, 1]),
    # a class of no vertex, and edges out of the last generation
    ([1, 0, 0], [1, 1], [1], [1, 1, 0]),
    ([1, 1], [1, 1], [1, 1], [1, 1]),
])
def test_constructor_refuses_inconsistent_classes(degrees, sizes, children,
                                                  mult):
    with pytest.raises(StructureError):
        DirectedTree(degrees, sizes, children=children, multiplicities=mult)


@st.composite
def class_arrays(draw):
    """Class arrays built generation by generation, often consistent,
    then perhaps one entry moved."""
    degrees, children, mult, sizes, gen = [], [], [1], [1], [0]
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        first = len(mult)
        width = draw(st.integers(min_value=1, max_value=3))
        reached = {}
        for c in gen:
            one = mult[c] > 1
            d = draw(st.integers(min_value=0, max_value=3))
            targets = sorted(draw(st.lists(
                st.integers(min_value=first, max_value=first + width - 1),
                min_size=1 if one else d, max_size=1 if one else d)))
            kids = targets * d if one else targets
            degrees.append(len(kids))
            children += kids
            for k in kids:
                reached[k] = reached.get(k, 0) + mult[c]
        if not reached:
            break
        gen = list(range(first, first + len(reached)))
        renumber = dict(zip(sorted(reached), gen))
        children = [renumber.get(k, k) for k in children]
        mult += [reached[k] for k in sorted(reached)]
        sizes.append(sum(reached.values()))
    degrees += [0] * (len(mult) - len(degrees))
    arrays = [degrees, sizes, children, mult]
    if draw(st.booleans()):
        target = draw(st.sampled_from([a for a in arrays if a]))
        target[draw(st.integers(0, len(target) - 1))] += draw(
            st.sampled_from([-1, 1, 2]))
    return arrays


def _expands_to_consecutive_classes(degrees, sizes, children, mult):
    """The layout rule read vertex by vertex: the children of each
    generation, vertex after vertex, are every class of the next one in
    one run of its multiplicity, in class order."""
    count = len(degrees)
    if (len(mult) != count or sum(degrees) != len(children)
            or min(degrees + sizes) < 0 or min(mult) < 1
            or sizes[:1] != [1] or mult[:1] != [1]
            or not all(0 <= c < count for c in children)):
        return False
    starts = np.cumsum([0] + degrees).tolist()
    flat, gen, widths = [0], [0], [1]
    for _ in sizes[1:]:
        gen = [k for c in gen for k in children[starts[c]:starts[c + 1]]]
        flat += gen
        widths.append(len(gen))
    return (not any(degrees[c] for c in gen) and widths == sizes
            and flat == [c for c in range(count) for _ in range(mult[c])])


@settings(max_examples=400, deadline=None)
@given(class_arrays())
def test_constructor_accepts_exactly_the_consecutive_classes(arrays):
    degrees, sizes, children, mult = arrays
    expected = _expands_to_consecutive_classes(*arrays)
    try:
        tree = DirectedTree(degrees, sizes, children=children,
                            multiplicities=mult)
    except StructureError:
        assert not expected
        return
    assert expected
    full = tree.expanded()
    assert full.degrees.tolist() == [degrees[c] for c in range(len(mult))
                                     for _ in range(mult[c])]
    assert classify_tree(tree).to_dict() == classify_tree(full).to_dict()


@pytest.mark.parametrize("spec", [
    TreeSpec("t_eta_kappa", eta=4, depth=5),
    TreeSpec("quasi_brownian", valency=3, depth=10),
    TreeSpec("path", depth=1),
    TreeSpec("generation_rule", rule=((2,), (0, 3)), depth=4),
], ids=str)
def test_structure_report_is_the_dataclass_as_a_dict(spec):
    report = classify_tree(materialize(spec))
    assert report.to_dict() == dataclasses.asdict(report)
    assert json.dumps(report.to_dict(), sort_keys=True) == \
        json.dumps(dataclasses.asdict(report), sort_keys=True)
