"""Shift layer: weights, expansion identity, constancy, duals, invariants."""
import math

import numpy as np
import pytest

from treeshift import (ClassificationError, ComparisonError,
                       ConfigurationError, DirectedTree, DomainError,
                       NotLeftInvertibleError, RangeError, TreeSpec,
                       WeightSpec, WeightedShift, are_unitarily_equivalent,
                       are_unitarily_equivalent_multiset, build_shift,
                       cauchy_dual, classify_adjacency, comb_tree_spec,
                       generation, is_two_isometry, materialize,
                       operator_norm, satisfies_kernel_condition,
                       shift_invariants, two_isometry_weight,
                       trees, two_plus_three_tree_spec, vertex_norm)

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# the weight ladder
# ---------------------------------------------------------------------------

def test_weight_ladder_values():
    assert two_isometry_weight(0, 1.3) == pytest.approx(1.3, abs=0)
    # squared value at sqrt(2) is (n+2)/(n+1)
    for n in range(20):
        assert two_isometry_weight(n, SQRT2) ** 2 == pytest.approx(
            (n + 2) / (n + 1), abs=1e-14)
    assert two_isometry_weight(7, 1.0) == 1.0


def test_weight_ladder_domain():
    with pytest.raises(DomainError):
        two_isometry_weight(-1, 1.2)
    with pytest.raises(DomainError):
        two_isometry_weight(0, 0.9)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_weighted_shift_validation():
    tree = materialize(TreeSpec("path", depth=3))
    ids = list(tree.ids())
    good = {v: 1.0 for v in ids[1:]}
    s = build_shift(WeightSpec("explicit", values=good), tree)
    assert s.is_adjacency and not s.has_zero_weights

    with pytest.raises(ConfigurationError):
        build_shift(WeightSpec("explicit", values={**good, ids[0]: 1.0}),
                    tree)  # root weight
    with pytest.raises(ConfigurationError):
        build_shift(WeightSpec("explicit",
                               values={k: good[k] for k in ids[2:]}),
                    tree)  # missing
    with pytest.raises(ConfigurationError):
        build_shift(WeightSpec("explicit", values={**good, ids[1]: -0.5}),
                    tree)  # negative
    with pytest.raises(ConfigurationError):
        build_shift(WeightSpec("explicit", values={**good, "nope": 1.0}),
                    tree)  # unknown vertex


def _hashed_binary_tree():
    """The binary rule tree of depth 12, held as one class per
    generation."""
    tree = materialize(TreeSpec(
        "generation_rule", rule=tuple((2,) * 2 ** g for g in range(12)),
        depth=12))
    assert (tree.class_count, tree.vertex_count) == (13, 8191)
    return tree


def test_the_constructor_takes_one_weight_per_edge_and_never_expands():
    tree = _hashed_binary_tree()
    assert len(tree.children) == 25  # the root and 24 child edges
    per_vertex = np.random.default_rng(5).uniform(0.5, 1.5,
                                                  tree.vertex_count)
    with pytest.raises(ConfigurationError,
                       match="^8191 weights for the root and 24 child "
                             "edges$"):
        WeightedShift(tree, per_vertex)
    assert tree._expanded is None
    # the same weights on the full tree: the copy of the array, root
    # entry 0, and the per-vertex arrays of the full tree
    full = tree.expanded()
    shift = WeightedShift(full, per_vertex, name="per-vertex")
    assert shift.tree is full and shift.name == "per-vertex"
    expected = per_vertex.copy()
    expected[0] = 0.0
    assert np.array_equal(shift.edge_weights, expected)
    assert np.array_equal(shift.weight_array, expected)
    squares = expected * expected
    assert np.array_equal(shift.squared_weights, squares)
    assert np.array_equal(shift.vertex_norms, np.sqrt(np.bincount(
        full.parents[1:], weights=squares[1:], minlength=full.vertex_count)))
    # one weight per edge stays on the classes; the per-vertex arrays
    # are those of the same weights spread over the full tree, where
    # the first and second child of a vertex enter on its class's first
    # and second edge
    edge_weights = np.linspace(0.5, 1.5, len(tree.children))
    on_classes = WeightedShift(tree, edge_weights)
    depths = np.repeat(np.arange(13), np.diff(full.gen_offsets))
    second = np.arange(full.vertex_count) % 2 == 0
    spread = WeightedShift(full, edge_weights[2 * depths - 1 + second])
    assert on_classes.tree is tree
    for name in ("weight_array", "squared_weights", "vertex_norms",
                 "squared_norms"):
        assert np.array_equal(getattr(on_classes, name),
                              getattr(spread, name)), name


def test_the_constructor_copies_and_freezes_the_weights():
    tree = materialize(TreeSpec("path", depth=4))
    w = np.full(5, 2.0)
    shift = WeightedShift(tree, w)
    w[1] = 7.0
    assert shift.edge_weights.tolist() == [0.0, 2.0, 2.0, 2.0, 2.0]
    assert not shift.edge_weights.flags.writeable
    assert w.flags.writeable and w[0] == 2.0
    with pytest.raises(ConfigurationError,
                       match=r"^weight at 'g2:0' must be finite and >= 0, "
                             r"got -1\.0$"):
        WeightedShift(tree, [0.0, 1.0, -1.0, 1.0, 1.0])
    with pytest.raises(ConfigurationError,
                       match="^1 weights for the root and 4 child edges$"):
        WeightedShift(tree, 1.0)


@pytest.mark.parametrize("spec", [
    TreeSpec("quasi_brownian", valency=3, depth=5),
    TreeSpec("t_eta_kappa", eta=4, depth=3),
    TreeSpec("generation_rule", rule=tuple((2,) * 2 ** g for g in range(12)),
             depth=12),
], ids=["quasi-brownian", "t-eta-kappa", "binary-12"])
def test_a_bad_edge_weight_on_a_class_tree_names_the_vertex_it_leads_to(
        spec, monkeypatch):
    # small trees, hashed into classes all the same
    monkeypatch.setattr(trees, "MIN_VERTICES_PER_CLASS", 1)
    tree = materialize(spec)
    assert tree.class_count < tree.vertex_count
    # the first vertex on each edge, read off a full tree built vertex by
    # vertex: vertex v, the j-th child of its parent u, is on edge j of
    # u's class
    full = DirectedTree(tree.class_degrees.repeat(tree.multiplicities),
                        tree.generation_sizes)
    first = {}
    for v in range(1, full.vertex_count):
        u = full.parents[v]
        edge = tree.class_starts[tree.class_of(u)] + v - full.child_starts[u]
        first.setdefault(int(edge), full.labels[v])
    assert sorted(first) == list(range(1, len(tree.children)))
    for e, vid in first.items():
        for bad in (-1.0, math.nan, math.inf):
            w = np.ones(len(tree.children))
            w[e] = bad
            with pytest.raises(ConfigurationError) as err:
                WeightedShift(tree, w)
            assert str(err.value) == (f"weight at {vid!r} must be finite "
                                      f"and >= 0, got {bad}")
    assert tree._expanded is None


@pytest.mark.parametrize("values,message", [
    (lambda ids: {v: 1.0 for v in ids}, "root must not carry a weight"),
    (lambda ids: {v: 1.0 for v in ids[1:] if v != "g5:3"},
     "missing weight for vertex 'g5:3'"),
    (lambda ids: {**{v: 1.0 for v in ids[1:]}, "nope": 1.0, "g13:0": 1.0},
     "weights given for unknown vertices: ['g13:0', 'nope']"),
])
def test_explicit_weights_keep_their_messages_on_a_class_tree(values,
                                                              message):
    tree = _hashed_binary_tree()
    ids = list(tree.expanded().ids())
    with pytest.raises(ConfigurationError) as err:
        build_shift(WeightSpec("explicit", values=values(ids)), tree)
    assert str(err.value) == message


def test_explicit_weights_name_the_vertices_of_the_full_tree():
    tree = _hashed_binary_tree()
    ids = list(tree.expanded().ids())
    shift = build_shift(WeightSpec("explicit", values={
        v: 1.0 + i / 8192 for i, v in enumerate(ids) if i}), tree)
    assert shift.tree is tree.expanded() and shift.name == "explicit"
    assert shift.weight("g12:4095") == 1.0 + 8190 / 8192


def test_build_shift_families():
    path = materialize(TreeSpec("path", depth=10))
    dirichlet = build_shift(WeightSpec("dirichlet"), path)
    for d in range(1, 11):
        (v,) = generation(path, d)
        assert dirichlet.weight(v) == pytest.approx(
            math.sqrt((d + 1) / d), abs=1e-15)

    bergman = build_shift(WeightSpec("bergman_dual"), path)
    for d in range(1, 11):
        (v,) = generation(path, d)
        assert bergman.weight(v) == pytest.approx(
            math.sqrt(d / (d + 1)), abs=1e-15)

    treiso = build_shift(WeightSpec("treiso"), path)
    for d in range(1, 11):
        (v,) = generation(path, d)
        phi = lambda k: k * k + 1
        assert treiso.weight(v) == pytest.approx(
            math.sqrt(phi(d) / phi(d - 1)), abs=1e-15)

    branching = materialize(TreeSpec("t_eta_kappa", eta=2, depth=4))
    with pytest.raises(ConfigurationError):
        build_shift(WeightSpec("dirichlet"), branching)


def test_kernel_condition_weights_hit_generation_targets():
    tree = materialize(TreeSpec("t_eta_kappa", eta=3, depth=8))
    x = 1.25
    shift = build_shift(WeightSpec("kernel_condition", x=x), tree)
    for g in range(7):
        for u in generation(tree, g):
            assert vertex_norm(shift, u) == pytest.approx(
                two_isometry_weight(g, x), abs=1e-12)
    assert is_two_isometry(shift).holds
    assert satisfies_kernel_condition(shift, 0).holds


def test_kernel_condition_proportional_split():
    tree = materialize(TreeSpec("t_eta_kappa", eta=2, depth=6))
    kids = tree.children_of(tree.root)
    spec = WeightSpec("kernel_condition", x=1.2,
                      proportions={kids[0]: 2.0, kids[1]: 1.0})
    shift = build_shift(spec, tree)
    assert shift.weight(kids[0]) == pytest.approx(2 * shift.weight(kids[1]),
                                                  abs=1e-14)
    assert vertex_norm(shift, tree.root) == pytest.approx(1.2, abs=1e-12)
    # proportional split preserves the generation norm target, hence both
    # defining properties
    assert is_two_isometry(shift).holds
    assert satisfies_kernel_condition(shift, 0).holds


# a leaf at depth 1 (b) and a parent below it (c); no other leaf
LEAFY_EDGES = [("r", "a"), ("r", "b"), ("a", "c"), ("c", "e")]
# a hashed rule tree whose first leaf is g2:100, at depth 2
LEAFY_RULE = TreeSpec("generation_rule",
                      rule=((200,), (1,) * 200, (1,) * 100 + (0,) * 100),
                      depth=4)


@pytest.mark.parametrize("proportions", [None, {"g1:0": 2.0}])
def test_kernel_condition_names_the_first_leaf_of_a_rule_tree(proportions):
    tree = materialize(LEAFY_RULE)
    assert tree.class_count < tree.vertex_count
    with pytest.raises(ConfigurationError,
                       match=r"need a leafless tree; vertex 'g2:100' at "
                             r"depth 2 has no children"):
        build_shift(WeightSpec("kernel_condition", x=1.2,
                               proportions=proportions), tree)


@pytest.mark.parametrize("proportions", [None, {"a": 2.0},
                                         # nonpositive below the leaf
                                         {"e": -1.0}])
def test_kernel_condition_names_the_first_leaf_of_a_full_tree(proportions):
    tree = DirectedTree.from_edges(LEAFY_EDGES)
    with pytest.raises(ConfigurationError,
                       match=r"need a leafless tree; vertex 'b' at depth 1 "
                             r"has no children"):
        build_shift(WeightSpec("kernel_condition", x=1.2,
                               proportions=proportions), tree)


def test_a_nonpositive_proportion_above_the_first_leaf_is_named_first():
    tree = DirectedTree.from_edges(LEAFY_EDGES)
    with pytest.raises(ConfigurationError,
                       match=r"proportions must be > 0 \(children of 'r'\)"):
        build_shift(WeightSpec("kernel_condition", x=1.2,
                               proportions={"a": 0.0}), tree)


def test_glowny_weights():
    tree = materialize(TreeSpec("t_eta_kappa", eta=2, depth=12))
    shift = build_shift(WeightSpec("glowny", y1=1.1, y2=1.3), tree)
    k1, k2 = tree.children_of(tree.root)
    assert shift.weight(k1) == pytest.approx(
        1 / math.sqrt(2 * (2 - 1.1 ** 2)), abs=1e-15)
    assert shift.weight(k2) == pytest.approx(
        1 / math.sqrt(2 * (2 - 1.3 ** 2)), abs=1e-15)
    assert vertex_norm(shift, k1) == pytest.approx(1.1, abs=1e-12)
    assert vertex_norm(shift, k2) == pytest.approx(1.3, abs=1e-12)

    with pytest.raises(DomainError):
        WeightSpec("glowny", y1=1.5, y2=1.2)
    with pytest.raises(DomainError):
        WeightSpec("glowny", y1=1.2, y2=1.0)
    with pytest.raises(ConfigurationError):
        WeightSpec("glowny", y1=1.2)
    tri = materialize(TreeSpec("t_eta_kappa", eta=3, depth=4))
    with pytest.raises(ConfigurationError):
        build_shift(WeightSpec("glowny", y1=1.1, y2=1.3), tri)


# ---------------------------------------------------------------------------
# property checks
# ---------------------------------------------------------------------------

def test_two_isometry_positive_and_negative():
    path = materialize(TreeSpec("path", depth=16))
    shift = build_shift(WeightSpec("dirichlet"), path)
    v = is_two_isometry(shift)
    assert v.holds and v.witness is None
    assert v.verified_depth == 14

    bergman = build_shift(WeightSpec("bergman_dual"), path)
    bad = is_two_isometry(bergman)
    assert not bad.holds
    witness_vertex, residual = bad.witness
    assert witness_vertex == path.root
    assert residual > 1e-3


def test_two_isometry_depth_guard():
    tiny = materialize(TreeSpec("path", depth=1))
    shift = build_shift(WeightSpec("dirichlet"), tiny)
    with pytest.raises(RangeError):
        is_two_isometry(shift)


def test_kernel_condition_k_parameter():
    tree = materialize(TreeSpec("t_eta_kappa", eta=2, depth=12))
    shift = build_shift(WeightSpec("glowny", y1=1.1, y2=1.3), tree)
    assert not satisfies_kernel_condition(shift, 0).holds
    assert satisfies_kernel_condition(shift, 1).holds
    assert satisfies_kernel_condition(shift, 2).holds
    witness_vertex, _ = satisfies_kernel_condition(shift, 0).witness
    assert witness_vertex == tree.root
    with pytest.raises(DomainError):
        satisfies_kernel_condition(shift, -1)
    with pytest.raises(RangeError):
        satisfies_kernel_condition(shift, 11)


def test_kernel_condition_ignores_zero_weight_children():
    tree = materialize(TreeSpec("t_eta_kappa", eta=2, depth=4))
    k1, k2 = tree.children_of(tree.root)
    w = {}
    for g in range(1, 5):
        for v in generation(tree, g):
            w[v] = 1.0
    w[k2] = 0.0
    for v in generation(tree, 1):
        pass
    # zero out the entire second branch so norms stay consistent
    u = k2
    while True:
        ch = tree.children_of(u)
        if not ch:
            break
        w[ch[0]] = 1.3  # differing norms on the dead branch are invisible
        u = ch[0]
    shift = build_shift(WeightSpec("explicit", values=w), tree)
    verdict = satisfies_kernel_condition(shift, 0)
    assert verdict.holds
    assert "zero-weight" in verdict.note


# ---------------------------------------------------------------------------
# Cauchy dual
# ---------------------------------------------------------------------------

def test_cauchy_dual_weights_and_involution():
    tree = materialize(TreeSpec("t_eta_kappa", eta=2, depth=10))
    shift = build_shift(WeightSpec("kernel_condition", x=1.3), tree)
    dual = cauchy_dual(shift)
    for vid, lam in shift.weights().items():
        parent = tree.parent_of(vid)
        assert dual.weight(vid) == pytest.approx(
            lam / vertex_norm(shift, parent) ** 2, abs=1e-15)
    # applying the dual twice returns the original weights
    double = cauchy_dual(dual)
    for vid, lam in shift.weights().items():
        assert double.weight(vid) == pytest.approx(lam, rel=1e-12)


def test_cauchy_dual_requires_left_invertibility():
    tree = materialize(TreeSpec("path", depth=4))
    ids = list(tree.ids())
    w = {v: 1.0 for v in ids[1:]}
    w[ids[2]] = 0.0
    shift = build_shift(WeightSpec("explicit", values=w), tree)
    with pytest.raises(NotLeftInvertibleError) as err:
        cauchy_dual(shift)
    assert ids[1] in str(err.value)  # names the offending vertex


def test_dual_of_bergman_is_the_expansive_ladder():
    path = materialize(TreeSpec("path", depth=24))
    bergman = build_shift(WeightSpec("bergman_dual"), path)
    dual = cauchy_dual(bergman)
    for d in range(1, 25):
        (v,) = generation(path, d)
        assert dual.weight(v) == pytest.approx(
            two_isometry_weight(d - 1, SQRT2), rel=1e-13)


# ---------------------------------------------------------------------------
# adjacency classification
# ---------------------------------------------------------------------------

def test_classify_adjacency_path():
    tree = materialize(TreeSpec("path", depth=8))
    cls = classify_adjacency(tree)
    assert cls.isometry.holds
    assert cls.two_isometry.holds
    assert cls.kernel_condition.holds
    assert cls.quasi_brownian_isometry.holds
    assert cls.brownian_isometry.holds


def test_classify_adjacency_quasi_brownian():
    tree = materialize(TreeSpec("quasi_brownian", valency=3, depth=10))
    cls = classify_adjacency(tree)
    assert cls.two_isometry.holds
    assert cls.quasi_brownian_isometry.holds
    assert not cls.brownian_isometry.holds
    assert not cls.isometry.holds
    assert not cls.kernel_condition.holds


def test_classify_adjacency_comb_and_t20():
    comb = materialize(comb_tree_spec(3, 10))
    cls = classify_adjacency(comb)
    assert cls.two_isometry.holds
    assert not cls.quasi_brownian_isometry.holds
    assert not cls.isometry.holds

    t20 = materialize(TreeSpec("t_eta_kappa", eta=2, depth=8))
    cls2 = classify_adjacency(t20)
    assert not cls2.two_isometry.holds
    witness_vertex, _ = cls2.two_isometry.witness
    assert witness_vertex == t20.root


# ---------------------------------------------------------------------------
# invariants and equivalence
# ---------------------------------------------------------------------------

def test_shift_invariants_and_equivalence():
    depth = 10
    a = materialize(two_plus_three_tree_spec("a", depth))
    b = materialize(two_plus_three_tree_spec("b", depth))
    sa = build_shift(WeightSpec("kernel_condition", x=1.2), a)
    sb = build_shift(WeightSpec("kernel_condition", x=1.2), b)
    ia, ib = shift_invariants(sa), shift_invariants(sb)
    assert ia.root_norm == pytest.approx(1.2, abs=1e-12)
    assert ia.branching == (1, 2) + (0,) * (depth - 2)
    assert ia.branching == ib.branching
    assert are_unitarily_equivalent(ia, ib)

    sc = build_shift(WeightSpec("kernel_condition", x=1.3), a)
    assert not are_unitarily_equivalent(ia, shift_invariants(sc))


def test_invariants_norm_one_collapses_branching_detail():
    # at root norm 1 only the total branching count matters
    depth = 8
    a = materialize(two_plus_three_tree_spec("a", depth))
    shallow = materialize(TreeSpec("generation_rule",
                                   rule=((2,), (2, 1)), depth=depth))
    ia = shift_invariants(build_shift(WeightSpec("kernel_condition", x=1.0), a))
    ish = shift_invariants(build_shift(WeightSpec("kernel_condition", x=1.0),
                                       shallow))
    assert sum(ia.branching) == 3
    assert sum(ish.branching) == 2
    assert not are_unitarily_equivalent(ia, ish)

    flat = materialize(TreeSpec("generation_rule", rule=((4,),), depth=depth))
    iflat = shift_invariants(build_shift(
        WeightSpec("kernel_condition", x=1.0), flat))
    assert sum(iflat.branching) == 3
    # different branching layout but equal totals at norm one
    assert are_unitarily_equivalent(ia, iflat)
    # the same trees at norm > 1 are inequivalent
    ja = shift_invariants(build_shift(WeightSpec("kernel_condition", x=1.2), a))
    jflat = shift_invariants(build_shift(
        WeightSpec("kernel_condition", x=1.2), flat))
    assert not are_unitarily_equivalent(ja, jflat)


def test_invariants_errors():
    path = materialize(TreeSpec("path", depth=8))
    bergman = build_shift(WeightSpec("bergman_dual"), path)
    with pytest.raises(ClassificationError):
        shift_invariants(bergman)  # not expansive

    t20 = materialize(TreeSpec("t_eta_kappa", eta=2, depth=12))
    glowny = build_shift(WeightSpec("glowny", y1=1.1, y2=1.3), t20)
    with pytest.raises(ClassificationError):
        shift_invariants(glowny)  # constancy fails at the root

    a8 = shift_invariants(build_shift(
        WeightSpec("dirichlet"), materialize(TreeSpec("path", depth=8))))
    a9 = shift_invariants(build_shift(
        WeightSpec("dirichlet"), materialize(TreeSpec("path", depth=9))))
    with pytest.raises(ComparisonError):
        are_unitarily_equivalent(a8, a9)


def test_multiset_equivalence():
    assert are_unitarily_equivalent_multiset(
        [(1.2,), (SQRT2,), (1.2,)], [(SQRT2,), (1.2,), (1.2,)])
    assert not are_unitarily_equivalent_multiset(
        [(1.2,), (1.2,)], [(1.2,), (1.3,)])
    assert not are_unitarily_equivalent_multiset(
        [(1.2,)], [(1.2,), (1.2,)])


def test_operator_norm():
    path = materialize(TreeSpec("path", depth=12))
    dirichlet = build_shift(WeightSpec("dirichlet"), path)
    assert operator_norm(dirichlet) == pytest.approx(SQRT2, abs=1e-12)
    bergman = build_shift(WeightSpec("bergman_dual"), path)
    assert operator_norm(bergman) < 1.0
