"""The array engine against the per-vertex formulas it replaced, and the
diagonal-Gram matrix oracle against its dense eigh fallback."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treeshift import (MAX_VERTICES, ResourceLimitError,
                       TreeSpec, WeightSpec,
                       build_shift, comb_tree_spec,
                       dual_matrix, dual_subnormality, is_two_isometry,
                       materialize, moment_sequence,
                       satisfies_kernel_condition, spec_vertex_count,
                       stieltjes_test, truncate, verify_table1)
from treeshift import trees
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
    return build_shift(WeightSpec("explicit", values=weights), tree)


def _sq(x):
    """The correctly rounded square, as the engine forms it; ``x ** 2``
    calls libm ``pow``, which misrounds some squares (0.6580808220575628)."""
    return x * x


def _sum(values):
    """Left-to-right float sum (``sum`` compensates on Python >= 3.12)."""
    total = 0.0
    for v in values:
        total += v
    return total


def _scalar_norm(shift, u):
    return math.sqrt(_sum(_sq(shift.weight(c))
                          for c in shift.tree.children_of(u)))


def _scalar_constancy_profile(shift, tol=1e-9):
    """Whether every vertex of generation g (g <= N-2) has nonzero-weight
    children whose norms spread by at most tol * (1 + max), one parent
    at a time."""
    tree = shift.tree
    profile = []
    for g in range(tree.materialized_depth - 1):
        constant = True
        for u in tree.generations()[g]:
            kept = [_scalar_norm(shift, v) for v in tree.children_of(u)
                    if shift.weight(v) != 0.0]
            if len(kept) >= 2 and max(kept) - min(kept) > \
                    tol * (1.0 + max(kept)):
                constant = False
        profile.append(constant)
    return np.array(profile)


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
                nxt[v] = _sum(_sq(shift.weight(w)) * cur[w]
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
            lhs = _sum(_sq(shift.weight(v))
                       * (2.0 - _sq(_scalar_norm(shift, v)))
                       for v in tree.children_of(u))
            res = abs(lhs - 1.0) / (1.0 + abs(lhs))
            if res > 1e-9 and expected is None:
                expected = (u, res)
    assert is_two_isometry(shift).witness == expected


@settings(**COMMON)
@given(random_shifts())
def test_constancy_profile_agrees_with_every_k(shift):
    n = shift.tree.materialized_depth
    profile = _scalar_constancy_profile(shift)
    for k in range(n - 1):
        verdict = satisfies_kernel_condition(shift, k)
        assert verdict.holds == bool(profile[k:].all())
        # the smallest g >= k with constancy in generations g..N-2
        assert verdict.details["constant_from"] == next(
            g for g in range(k, n) if profile[g:].all())


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


def test_budget_errors_name_the_field_they_counted(monkeypatch):
    explicit = TreeSpec("explicit", edges=(("r", "a"),))
    cases = [(TreeSpec("path", depth=MAX_VERTICES), None, "depth"),
             (explicit, MAX_VERTICES, "depth"),
             (TreeSpec("generation_rule", rule=((1,), (0,)), depth=3),
              MAX_VERTICES, "depth")]
    for spec, depth, field in cases:
        with pytest.raises(ResourceLimitError) as raised:
            materialize(spec, depth)
        assert raised.value.field == field
    monkeypatch.setattr(trees, "MAX_VERTICES", 1)
    with pytest.raises(ResourceLimitError, match="2 vertices") as raised:
        materialize(TreeSpec("explicit", edges=(("r", "a"),)))
    assert raised.value.field == "edges"


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


def test_dense_table1_fallback_decomposes_the_gram_matrix_once(monkeypatch):
    shift = build_shift(WeightSpec("adjacency"),
                        materialize(comb_tree_spec(2, 10)))
    _, rotated = _rotated_within_generation(truncate(shift), 4)
    sizes, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a: sizes.append(len(a)) or eigh(a))
    assert verify_table1(rotated, "quasi_brownian", nmax=6).holds
    assert sizes == [rotated.dim]


def test_diagonal_oracle_detects_a_broken_identity():
    shift = build_shift(WeightSpec("adjacency"),
                        materialize(comb_tree_spec(3, 10)))
    report = verify_table1(truncate(shift), "quasi_brownian", nmax=4)
    assert not report.holds and report.max_abs_error > 1e-3
