"""The array engine against the per-vertex formulas it replaced, and the
diagonal-Gram matrix oracle against its dense eigh fallback."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treeshift import (MAX_VERTICES, DirectedTree, ResourceLimitError,
                       StructureError,
                       TreeSpec, Vertex, WeightSpec, WeightedShift,
                       build_shift, comb_tree_spec,
                       dual_matrix, dual_subnormality, is_two_isometry,
                       materialize, moment_sequence,
                       satisfies_kernel_condition,
                       sibling_constancy_by_generation, spec_vertex_count,
                       stieltjes_test, truncate, verify_table1)
from treeshift.matrices import TruncatedOperator

COMMON = dict(max_examples=40, deadline=None)


@st.composite
def random_shifts(draw):
    """A generation-rule tree (some leaves allowed above depth 2 only)
    with random weights, some of them shared between siblings."""
    depth = draw(st.integers(min_value=3, max_value=7))
    rule, width = [], 1
    for g in range(draw(st.integers(min_value=1, max_value=3))):
        low = 1 if g < 2 else 0
        row = [draw(st.integers(min_value=low, max_value=3))
               for _ in range(width)]
        if sum(row) == 0:
            row[0] = 1
        rule.append(tuple(row))
        width = sum(row)
    tree = materialize(TreeSpec("generation_rule", rule=tuple(rule),
                                depth=depth))
    values = draw(st.lists(st.floats(min_value=0.3, max_value=1.7),
                           min_size=3, max_size=3))
    weights = {v: values[draw(st.integers(0, 2))] for v in tree.ids()
               if v != tree.root}
    return WeightedShift(tree, weights)


def _sum(values):
    """Left-to-right float sum (``sum`` compensates on Python >= 3.12)."""
    total = 0.0
    for v in values:
        total += v
    return total


def _scalar_norm(shift, u):
    return math.sqrt(_sum(shift.weight(c) ** 2
                          for c in shift.tree.children_of(u)))


def _scalar_moments(shift, u, nmax):
    """The per-vertex dictionary recurrence over the cone of u."""
    tree = shift.tree
    cone = [[u]]
    for _ in range(nmax):
        cone.append([w for v in cone[-1] for w in tree.children_of(v)])
    cur = {v: 1.0 for lvl in cone for v in lvl}
    out = [1.0]
    for k in range(nmax):
        nxt = {}
        for lvl in cone[:nmax - k]:
            for v in lvl:
                nxt[v] = _sum(shift.weight(w) ** 2 * cur[w]
                              for w in tree.children_of(v))
        out.append(nxt[u])
        cur = nxt
    return out


@settings(**COMMON)
@given(random_shifts())
def test_arrays_describe_the_tree(shift):
    tree = shift.tree
    for i, vid in enumerate(tree.ids()):
        assert tree.index(vid) == i
        kids = range(tree.child_starts[i],
                     tree.child_starts[i] + tree.degrees[i])
        assert all(tree.parents[c] == i for c in kids)
        if tree.depth_of(vid) < tree.materialized_depth:
            assert tree.children_of(vid) == tuple(tree.label(c)
                                                  for c in kids)
    assert tree.generation_sizes == tuple(len(g)
                                          for g in tree.generations())


@settings(**COMMON)
@given(random_shifts())
def test_norms_and_moments_are_bit_identical_to_scalar_formulas(shift):
    tree = shift.tree
    n = tree.materialized_depth
    for g in range(n):
        for u in tree.generations()[g]:
            assert shift.vertex_norms[tree.index(u)] == \
                _scalar_norm(shift, u)
            nmax = n - g
            assert list(moment_sequence(shift, u, nmax).values) == \
                _scalar_moments(shift, u, nmax)


@settings(**COMMON)
@given(random_shifts())
def test_expansion_witness_matches_scalar_scan(shift):
    tree = shift.tree
    n = tree.materialized_depth
    expected = None
    for g in range(n - 1):
        for u in tree.generations()[g]:
            lhs = _sum(shift.weight(v) ** 2
                       * (2.0 - _scalar_norm(shift, v) ** 2)
                       for v in tree.children_of(u))
            res = abs(lhs - 1.0) / (1.0 + abs(lhs))
            if res > 1e-9 and expected is None:
                expected = (u, res)
    assert is_two_isometry(shift).witness == expected


@settings(**COMMON)
@given(random_shifts())
def test_constancy_profile_agrees_with_every_k(shift):
    n = shift.tree.materialized_depth
    profile = sibling_constancy_by_generation(shift)
    for k in range(n - 1):
        assert satisfies_kernel_condition(shift, k).holds == \
            bool(profile[k:].all())


@settings(**COMMON)
@given(random_shifts())
def test_generic_witnesses_match_their_own_moment_sequences(shift):
    tree = shift.tree
    if not shift.vertex_norms[
            :tree.gen_offsets[tree.materialized_depth]].all():
        return
    report = dual_subnormality(shift, nmax=6)
    for w in report.evidence.get("witnesses", []):
        seq = moment_sequence(shift, w["vertex"], w["nmax"], dual=True)
        alone = stieltjes_test(seq)
        assert (alone.is_stieltjes, alone.failing_order,
                alone.extremal_value) == (
            w["stieltjes"]["is_stieltjes"], w["stieltjes"]["failing_order"],
            w["stieltjes"]["extremal_value"])


def test_mapping_constructor_matches_canonical_order():
    built = materialize(comb_tree_spec(3, 5))
    vertices = {v: built.vertex(v) for v in built.ids()}
    rebuilt = DirectedTree(dict(reversed(list(vertices.items()))),
                           built.root, built.materialized_depth)
    assert rebuilt.labels == built.labels
    assert np.array_equal(rebuilt.degrees, built.degrees)
    assert rebuilt.vertex("g2:2") == built.vertex("g2:2") == Vertex(
        "g2:2", 2, "g1:1", ("g3:2", "g3:3"))


def test_from_degrees_checks_consistency():
    tree = DirectedTree.from_degrees([2, 1, 0, 0], [1, 2, 1])
    assert tree.generations() == (("g0:0",), ("g1:0", "g1:1"), ("g2:0",))
    for degrees, sizes in (([2, 1, 1, 0], [1, 2, 1]), ([1, 0], [1, 2]),
                           ([2, 0, 0], [2, 1]), ([1, 1], [1, 1])):
        with pytest.raises(StructureError):
            DirectedTree.from_degrees(degrees, sizes)


@pytest.mark.parametrize("spec", [
    TreeSpec("path", depth=7),
    TreeSpec("t_eta_kappa", eta=5, depth=4),
    TreeSpec("quasi_brownian", valency=4, depth=6),
    TreeSpec("explicit", edges=(("r", "a"), ("r", "b"), ("a", "c")),
             depth=2),
    TreeSpec("generation_rule", rule=((2,), (0, 3)), depth=5),
    comb_tree_spec(3, 6),
])
def test_vertex_count_is_exact(spec):
    for depth in range(spec.depth + 1):
        if spec.kind == "explicit" and depth < spec.depth:
            continue
        assert spec_vertex_count(spec, depth) == \
            materialize(spec, depth).vertex_count


def test_materialize_refuses_trees_above_the_limit():
    with pytest.raises(ResourceLimitError, match=str(MAX_VERTICES + 1)):
        materialize(TreeSpec("path", depth=MAX_VERTICES))
    with pytest.raises(ResourceLimitError):
        materialize(TreeSpec("generation_rule", rule=((10 ** 9,),),
                             depth=1))


def _rotated_within_generation(trunc: TruncatedOperator, g: int):
    """Conjugate by a rotation mixing the basis vectors of one depth;
    the depth grading, hence the interior blocks, are preserved."""
    idx = [i for i, d in enumerate(trunc.depths) if d == g]
    rng = np.random.default_rng(7)
    q_block, _ = np.linalg.qr(rng.standard_normal((len(idx), len(idx))))
    q = np.eye(trunc.dim)
    q[np.ix_(idx, idx)] = q_block
    return q, TruncatedOperator(q @ trunc.matrix @ q.T, trunc.basis,
                                trunc.depths, trunc.interior_depth)


def test_eigh_fallback_agrees_with_diagonal_oracle():
    shift = build_shift(WeightSpec("adjacency"),
                        materialize(comb_tree_spec(2, 10)))
    trunc = truncate(shift)
    q, rotated = _rotated_within_generation(trunc, 4)
    gram = rotated.matrix.T @ rotated.matrix
    assert np.abs(gram - np.diag(np.diag(gram))).max() > 0.1
    assert np.allclose(dual_matrix(rotated).matrix,
                       q @ dual_matrix(trunc).matrix @ q.T, atol=1e-12)
    plain = verify_table1(trunc, "quasi_brownian", nmax=6)
    dense = verify_table1(rotated, "quasi_brownian", nmax=6)
    assert plain.holds and dense.holds
    assert plain.max_abs_error < 1e-12 and dense.max_abs_error < 1e-12
    assert [p[2] for p in plain.per_order] == [p[2] for p in dense.per_order]


def test_diagonal_oracle_detects_a_broken_identity():
    shift = build_shift(WeightSpec("adjacency"),
                        materialize(comb_tree_spec(3, 10)))
    report = verify_table1(truncate(shift), "quasi_brownian", nmax=4)
    assert not report.holds and report.max_abs_error > 1e-3
