"""Trees held as subtree classes: ``t_eta_kappa`` and ``quasi_brownian``
trees are materialized as a few classes per generation, and
``generation_rule`` trees are hashed into run classes when they have at
least MIN_VERTICES_PER_CLASS vertices per class; the engine runs on the
classes, and every command reports on them exactly what it reports on
the full tree built vertex by vertex."""
import dataclasses
import json
from itertools import chain

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from treeshift import (MIN_VERTICES_PER_CLASS, DirectedTree,
                       NotLeftInvertibleError, RangeError, StructureError,
                       TreeSpec, Vertex, WeightSpec, build_shift,
                       cauchy_dual, classify_tree, comb_tree_spec,
                       generation, hub_comb_tree_spec, materialize,
                       quasi_brownian, truncate, two_plus_three_tree_spec)
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
    """Every command, the cauchy-dual command's weights among them,
    reports on the classes byte for byte what it reports on the full
    tree; weights that follow from the tree's shape never expand it."""
    tree = materialize(spec)
    full = _independent_full_tree(tree)
    commands = _commands(tree, weights)
    assert _results(spec, weights, build_shift(weights, tree), commands) \
        == _results(spec, weights, build_shift(weights, full), commands)
    if weights.kind not in ("explicit", "glowny") \
            and weights.proportions is None:
        assert tree._expanded is None


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
    TreeSpec("quasi_brownian", valency=4, depth=8),
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
        assert len(shift.edge_weights) == len(tree.children)
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


LOOKUP_TREES = {
    "quasi-brownian-3": TreeSpec("quasi_brownian", valency=3, depth=40),
    "quasi-brownian-4": TreeSpec("quasi_brownian", valency=4, depth=30),
    "t-eta-kappa": TreeSpec("t_eta_kappa", eta=5, depth=40),
    "binary-15": TreeSpec("generation_rule",
                          rule=tuple((2,) * 2 ** g for g in range(15)),
                          depth=15),
    "comb-2-depth-300": comb_tree_spec(2, 300),
    "rule-with-leaves": TreeSpec("generation_rule",
                                 rule=RULE_TREES["zero-row"][0],
                                 depth=RULE_TREES["zero-row"][1]),
}


@pytest.mark.parametrize("spec", LOOKUP_TREES.values(), ids=LOOKUP_TREES)
def test_vertex_lookups_on_class_trees_match_an_independent_full_tree(spec):
    tree = materialize(spec)
    assert tree.class_count < tree.vertex_count
    full = DirectedTree(tree.class_degrees.repeat(tree.multiplicities),
                        tree.generation_sizes)
    starts, degrees, parents = (full.child_starts.tolist(),
                                full.degrees.tolist(), full.parents.tolist())
    depths = np.arange(len(tree.generation_sizes)).repeat(
        tree.generation_sizes).tolist()
    offsets = full.gen_offsets.tolist()

    def vid(i):
        return f"g{depths[i]}:{i - offsets[depths[i]]}"

    # every vertex of the first four generations and a sample of the rest
    head = offsets[min(4, len(offsets) - 1)]
    rng = np.random.default_rng(20170205)
    sample = range(head) if head == tree.vertex_count else chain(
        range(head), rng.integers(head, tree.vertex_count, 200).tolist())
    for i in sample:
        v, depth = vid(i), depths[i]
        parent = None if i == 0 else vid(parents[i])
        kids = tuple(map(vid, range(starts[i], starts[i + 1])))
        assert tree.vertex(v) == Vertex(v, depth, parent, kids)
        assert tree.parent_of(v) == parent and tree.children_of(v) == kids
        assert tree.depth_of(v) == depth
        if depth < tree.materialized_depth:
            assert tree.degree(v) == degrees[i] == len(kids)
        else:
            with pytest.raises(RangeError, match="not materialized"):
                tree.degree(v)
        path, j = [], i
        while j:
            path.append(j - starts[parents[j]])
            j = parents[j]
        assert tree.resolve_path(path[::-1]) == v
    assert tree._expanded is None
    assert "labels" not in vars(tree) and tree._index_map is None


@pytest.mark.parametrize("labelled", (False, True),
                         ids=("formatted", "labelled"))
@pytest.mark.parametrize("tree", [
    DirectedTree.from_edges([("r", "a")]), DirectedTree([1, 0], [1, 1]),
], ids=["explicit", "default"])
def test_ids_that_are_not_strings_are_not_in_any_tree(tree, labelled):
    if labelled:
        assert len(tree.labels) == 2
    for vid in (["a"], ["g1:0"], ("a",), None, 1):
        assert vid not in tree
        with pytest.raises(RangeError, match="unknown vertex"):
            tree.index(vid)
    if tree.labels[1] == "g1:0":
        # a default id is read by arithmetic after the labels too
        assert tree.index("g1:0") == 1 and tree._index_map is None


@pytest.mark.parametrize("tree", [
    DirectedTree.from_edges([("r", "a"), ("r", "b"), ("a", "c")]),
    DirectedTree([2, 1, 0, 0], [1, 2, 1]),
], ids=["explicit", "default"])
def test_vertex_indices_must_be_integers(tree):
    for i in (1.5, 2.0, "1", None):
        for lookup in (tree.label, tree.depth_at):
            with pytest.raises(TypeError):
                lookup(i)
    assert tree.label(np.int64(2)) == tree.label(2) == tree.labels[2]
    assert tree.depth_at(np.int32(3)) == tree.depth_at(3) == 2


def test_generation_never_builds_the_label_list():
    trees = [materialize(TreeSpec("quasi_brownian", valency=3, depth=50)),
             materialize(TreeSpec("path", depth=64)),
             materialize(TreeSpec("generation_rule",
                                  rule=((2,), (1, 2)), depth=6))]
    for tree in trees:
        ids = [generation(tree, n)
               for n in range(tree.materialized_depth + 1)]
        assert "labels" not in vars(tree) and tree._expanded is None
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


def test_kernel_condition_on_a_quasi_brownian_tree_stays_on_classes():
    # rays born at the spine get t/3 and continuing rays t/1: the edges
    # into a ray class disagree, and each keeps its own weight
    spec = TreeSpec("quasi_brownian", valency=3, depth=8)
    weights = WeightSpec("kernel_condition", x=1.2)
    tree = materialize(spec)
    shift = build_shift(weights, tree)
    assert shift.tree is tree and tree._expanded is None
    rays = tree.class_of(tree.index("g2:1"))
    assert len(set(shift.edge_weights[tree.children == rays].tolist())) == 2
    full = build_shift(weights, _independent_full_tree(tree))
    assert shift.weight_array.tobytes() == full.weight_array.tobytes()
    _assert_classes_report_as_full_tree(spec, weights)


@pytest.mark.parametrize("spec", [
    TreeSpec("quasi_brownian", valency=3, depth=30),
    TreeSpec("quasi_brownian", valency=4, depth=20),
    hub_comb_tree_spec(2, 300),
], ids=["quasi-brownian-3", "quasi-brownian-4", "hub-comb-2-depth-300"])
def test_kernel_condition_with_disagreeing_in_edges_stays_on_classes(spec):
    # a ray class is entered from a branching class and from a ray class
    tree = materialize(spec)
    assert tree.class_count < tree.vertex_count
    weights = WeightSpec("kernel_condition", x=1.3)
    _assert_per_vertex_arrays_as_full_tree(tree, weights)
    assert tree._expanded is None
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
    other = _independent_full_tree(tree)
    assert np.array_equal(tree.adjacency_expansion()[0],
                          other.adjacency_expansion()[0])
    _assert_per_vertex_arrays_as_full_tree(tree, WeightSpec("adjacency"))
    # weights whose norms are not square roots of integers
    for spec in (TreeSpec("t_eta_kappa", eta=300, depth=4),
                 TreeSpec("generation_rule",
                          rule=tuple((2,) * 2 ** g for g in range(12)),
                          depth=12)):
        tree = materialize(spec)
        assert tree.class_count < tree.vertex_count
        _assert_per_vertex_arrays_as_full_tree(
            tree, WeightSpec("kernel_condition", x=1.3))


def _independent_full_tree(tree):
    """The full tree of a class tree, built from its class arrays
    without ``tree.expanded()``, so that nothing read from it is what
    the class tree keeps."""
    other = DirectedTree(tree.class_degrees.repeat(tree.multiplicities),
                         tree.generation_sizes)
    assert other.class_count == other.vertex_count
    return other


def _assert_per_vertex_arrays_as_full_tree(tree, weights):
    shift = build_shift(weights, tree)
    assert shift.tree is tree
    full_shift = build_shift(weights, _independent_full_tree(tree))
    # vertex v, the j-th child of its parent u, enters on edge j of u's
    # class
    full = full_shift.tree
    classes = np.arange(tree.class_count).repeat(tree.multiplicities)
    parents = full.parents[1:]
    edges = (tree.class_starts[classes[parents]]
             + np.arange(1, full.vertex_count) - full.child_starts[parents])
    assert tree.vertex_edges[1:].tolist() == edges.tolist()
    for name, array, index in (
            ("weight_array", "edge_weights", tree.vertex_edges),
            ("squared_weights", "edge_squared_weights", tree.vertex_edges),
            ("vertex_norms", "class_norms", classes),
            ("squared_norms", "class_squared_norms", classes)):
        per_vertex = getattr(full_shift, name).tobytes()
        assert getattr(shift, name).tobytes() == per_vertex
        # the edge and class arrays, read per vertex, are the full
        # tree's bit for bit: every vertex of a class sums its children
        # in class order
        assert getattr(shift, array)[index].tobytes() == per_vertex
    assert shift.weights() == full_shift.weights()
    try:
        full_dual = cauchy_dual(full_shift)
    except NotLeftInvertibleError as exc:
        with pytest.raises(NotLeftInvertibleError) as err:
            cauchy_dual(shift)
        assert str(err.value) == str(exc)
    else:
        dual = cauchy_dual(shift)
        assert dual.tree is tree
        assert dual.weight_array.tobytes() \
            == full_dual.weight_array.tobytes()


@pytest.mark.parametrize("spec", [
    TreeSpec("quasi_brownian", valency=3, depth=12),
    TreeSpec("quasi_brownian", valency=4, depth=9),
    TreeSpec("t_eta_kappa", eta=70, depth=4),
    TreeSpec("generation_rule", rule=tuple((2,) * 2 ** g for g in range(8)),
             depth=10),
], ids=["quasi-brownian-3", "quasi-brownian-4", "t-eta-kappa", "binary"])
def test_truncate_reads_only_the_cut_of_a_class_tree(spec):
    tree = materialize(spec)
    assert tree.class_count < tree.vertex_count
    full = _independent_full_tree(tree)
    for weights in (WeightSpec("adjacency"),
                    WeightSpec("kernel_condition", x=1.3)):
        shift, full_shift = build_shift(weights, tree), build_shift(weights,
                                                                    full)
        for cut in (1, 2, 4):
            op, expected = truncate(shift, cut), truncate(full_shift, cut)
            assert op.matrix.tobytes() == expected.matrix.tobytes()
            assert (op.basis, op.depths, op.interior_depth) == (
                expected.basis, expected.depths, expected.interior_depth)
    assert tree._expanded is None and "labels" not in vars(tree)


@settings(max_examples=60, deadline=None)
@given(hashed_rules(7), st.floats(min_value=1.0, max_value=1.6))
def test_per_vertex_arrays_on_hashed_rule_trees_are_the_full_trees(spec, x):
    tree = materialize(spec)
    weights = (WeightSpec("kernel_condition", x=x) if _leafless(tree)
               else WeightSpec("adjacency"))
    _assert_per_vertex_arrays_as_full_tree(tree, weights)
    _assert_vertex_arrays_as_full_tree(tree)


@pytest.mark.parametrize("spec", [
    TreeSpec("quasi_brownian", valency=3, depth=30),
    TreeSpec("t_eta_kappa", eta=300, depth=4),
    TreeSpec("generation_rule", rule=tuple((2,) * 2 ** g for g in range(12)),
             depth=12),
], ids=["quasi-brownian", "t-eta-kappa", "binary-12"])
def test_per_vertex_reads_stay_on_the_classes(spec):
    tree = materialize(spec)
    assert tree.class_count < tree.vertex_count
    shift = build_shift(WeightSpec("adjacency"), tree)
    arrays = [tree.degrees, shift.weight_array, shift.squared_weights,
              shift.vertex_norms, shift.squared_norms]
    weights = shift.weights()
    assert tree._expanded is None
    for a in arrays:
        assert a.shape == (tree.vertex_count,) and not a.flags.writeable
    assert len(weights) == tree.vertex_count - 1
    # each read is a fresh gather, not kept by the tree or the shift
    assert shift.weight_array is not shift.weight_array
    full = _independent_full_tree(tree)
    assert tree.degrees.tobytes() == full.degrees.tobytes()
    # on a full tree the class array is its own per-vertex array
    assert full.per_vertex(full.class_degrees) is full.class_degrees


def _assert_vertex_arrays_as_full_tree(tree):
    """``parents``, ``child_starts`` and ``adjacency_expansion()`` of a
    class tree are those of its full tree, read-only, and built without
    expanding it; the expansion is kept."""
    full = _independent_full_tree(tree)
    pairs = [(tree.parents, full.parents),
             (tree.child_starts, full.child_starts),
             *zip(tree.adjacency_expansion(), full.adjacency_expansion())]
    for array, expected in pairs:
        assert array.dtype == expected.dtype == np.int64
        assert array.tolist() == expected.tolist()
        assert not array.flags.writeable
    assert tree.adjacency_expansion() is tree.adjacency_expansion()
    assert tree._expanded is None


@pytest.mark.parametrize("spec", [
    *LOOKUP_TREES.values(),
    TreeSpec("t_eta_kappa", eta=300, depth=1),
    TreeSpec("t_eta_kappa", eta=5, depth=2),
    TreeSpec("quasi_brownian", valency=3, depth=3),
], ids=[*LOOKUP_TREES, "star-depth-1", "t-eta-kappa-depth-2",
        "quasi-brownian-depth-3"])
def test_parents_child_starts_and_expansion_stay_on_the_classes(spec):
    tree = materialize(spec)
    assert tree.class_count < tree.vertex_count
    _assert_vertex_arrays_as_full_tree(tree)


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


@settings(max_examples=200, deadline=None)
@given(class_arrays(), st.randoms(use_true_random=False))
def test_per_vertex_repeats_the_class_runs(arrays, rng):
    degrees, sizes, children, mult = arrays
    assume(_expands_to_consecutive_classes(*arrays))
    tree = DirectedTree(degrees, sizes, children=children,
                        multiplicities=mult)
    values = np.array([rng.uniform(-1, 1) for _ in mult])
    # oracles: the gather through the edge into every vertex, and each
    # class's degree repeated over its run
    gathered = values[tree.children][tree.vertex_edges]
    runs = tree.class_degrees.repeat(tree.multiplicities)
    per_vertex = tree.per_vertex(values)
    assert per_vertex.tobytes() == gathered.tobytes()
    if tree.class_count == tree.vertex_count:
        assert per_vertex is values
    else:
        assert not per_vertex.flags.writeable
    assert tree.child_starts.tolist() == np.cumsum([1, *runs]).tolist()
    full = tree.expanded()
    assert full.class_degrees.tolist() == runs.tolist()
    assert full.generation_sizes == tree.generation_sizes
    assert full.labels == tree.labels


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
