"""End-to-end acceptance checks for the whole package.

Each test pins the published numeric targets for one worked model family:
closed-form dual moment laws, class decisions, counterexample constants,
measure-theoretic round trips, equivalence invariants, and cross-layer
consistency between the recurrence engine and the matrix oracle.
"""
import math

import numpy as np

from treeshift import (DiscreteMeasure, TreeSpec, WeightSpec,
                       backward_extension, block_shift_from_atoms,
                       build_brownian_shift, build_shift,
                       are_unitarily_equivalent,
                       are_unitarily_equivalent_multiset, cauchy_dual,
                       closed_form_table1, comb_tree_spec, defect,
                       dual_matrix, dual_subnormality, generation, gram_diag,
                       hausdorff_test, hub_comb_tree_spec, is_two_isometry,
                       materialize, moment_sequence,
                       reciprocal_linear_moments, satisfies_kernel_condition,
                       shift_invariants, stieltjes_test, truncate,
                       two_isometry_weight, two_plus_three_tree_spec,
                       verify_table1, vertex_norm)

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# 1. sibling-constant expansive shifts follow the reciprocal-linear law
# ---------------------------------------------------------------------------

def test_01_sibling_constant_dual_moments():
    path = materialize(TreeSpec("path", depth=64))
    dirichlet = build_shift(WeightSpec("dirichlet"), path)
    seq = moment_sequence(dirichlet, nmax=10, dual=True)
    for n in range(11):
        assert abs(seq[n] - 1.0 / (n + 1)) < 1e-9

    tree = materialize(TreeSpec("t_eta_kappa", eta=2, depth=16))
    for x in (1.2, 1.4):
        shift = build_shift(WeightSpec("kernel_condition", x=x), tree)
        dual_seq = moment_sequence(shift, nmax=10, dual=True)
        for n in range(11):
            assert abs(dual_seq[n]
                       - closed_form_table1("kernel", x * x, n)) < 1e-9


# ---------------------------------------------------------------------------
# 2. rank-one perturbations of isometries follow the quasi-Brownian law
# ---------------------------------------------------------------------------

def test_02_brownian_type_closed_form():
    for sigma in (0.5, 1.0, 2.0):
        trunc = build_brownian_shift(sigma, 64)
        rep = verify_table1(trunc, "quasi_brownian", nmax=10)
        assert rep.holds
        assert rep.max_abs_error < 1e-9

    qb = materialize(TreeSpec("quasi_brownian", valency=3, depth=12))
    adjacency = build_shift(WeightSpec("adjacency"), qb)
    rep = verify_table1(adjacency, "quasi_brownian", nmax=10)
    assert rep.holds
    assert rep.max_abs_error < 1e-9


# ---------------------------------------------------------------------------
# 3. comb adjacency shifts follow the valency pattern
# ---------------------------------------------------------------------------

def test_03_comb_pattern_moments_and_positivity():
    for valency in (3, 4):
        tree = materialize(comb_tree_spec(valency, 14))
        shift = build_shift(WeightSpec("adjacency"), tree)
        root_seq = moment_sequence(shift, nmax=12, dual=True)
        for n in range(1, 13):
            assert abs(root_seq[n]
                       - closed_form_table1("adjacency_pattern", valency,
                                            n)) < 1e-10
        verdict = stieltjes_test(root_seq)
        assert verdict.is_stieltjes

    # at valency two the pattern coincides with the quasi-Brownian law
    for n in range(13):
        assert abs(closed_form_table1("adjacency_pattern", 2, n)
                   - closed_form_table1("quasi_brownian", 2.0, n)) < 1e-12


# ---------------------------------------------------------------------------
# 4. the two-branch counterexample
# ---------------------------------------------------------------------------

def _glowny_shift():
    tree = materialize(TreeSpec("t_eta_kappa", eta=2, depth=16))
    return build_shift(WeightSpec("glowny", y1=1.1, y2=1.3), tree), tree


def test_04_branch_counterexample_class_and_constants():
    shift, tree = _glowny_shift()
    assert is_two_isometry(shift).holds
    assert not satisfies_kernel_condition(shift, 0).holds
    assert satisfies_kernel_condition(shift, 1).holds

    cs = sum(shift.weight(v) ** 2 / (2 - vertex_norm(shift, v) ** 2)
             for v in tree.children_of(tree.root))
    fourth = vertex_norm(shift, tree.root) ** 4
    assert abs(cs - 6.004067) < 1e-6
    assert abs(fourth - 5.043683) < 1e-6
    assert cs > fourth

    rep = dual_subnormality(shift)
    assert rep.verdict == "not-subnormal"
    assert rep.conclusive
    assert rep.decision_path == "main2"
    assert rep.evidence["extension_integral"] > 1.0


def test_04b_branch_counterexample_hankel_failure_order_bound():
    # Pinned claim: the root dual sequence breaks Hankel positivity by
    # order 4.  The computed first violation is at order 5 (the order-4
    # minors are still positive, exactly and in floating point), so this
    # assertion is expected to stay red; the adjacent test pins the
    # honest order.
    shift, _ = _glowny_shift()
    seq = moment_sequence(shift, nmax=12, dual=True)
    verdict = stieltjes_test(seq)
    assert not verdict.is_stieltjes
    assert verdict.failing_order is not None
    assert verdict.failing_order <= 4


def test_04c_branch_counterexample_honest_failure_order():
    shift, _ = _glowny_shift()
    seq = moment_sequence(shift, nmax=12, dual=True)
    verdict = stieltjes_test(seq)
    assert not verdict.is_stieltjes
    assert verdict.failing_order == 5


# ---------------------------------------------------------------------------
# 5. the hub-comb adjacency counterexample
# ---------------------------------------------------------------------------

def test_05_hub_comb_counterexample():
    tree = materialize(hub_comb_tree_spec(3, 14))
    shift = build_shift(WeightSpec("adjacency"), tree)
    hub = tree.children_of(tree.root)[-1]

    mu = DiscreteMeasure([(0.25, 4 / 27), (1.0, 5 / 27)])
    admissible, integral, nu = backward_extension(mu)
    assert admissible
    assert abs(integral - 7 / 9) < 1e-12

    hub_seq = moment_sequence(shift, hub, nmax=12, dual=True)
    for n in range(13):
        assert abs(hub_seq[n] - nu.moment(n)) < 1e-12

    rho = DiscreteMeasure.mix([(2 / 9, DiscreteMeasure([(1.0, 1.0)])),
                               (1 / 9, nu)])
    assert abs(rho.mass_at(0.0) - 2 / 81) < 1e-12
    root_seq = moment_sequence(shift, nmax=12, dual=True)
    for n in range(1, 13):
        assert abs(root_seq[n] - rho.moment(n - 1)) < 1e-12

    verdict = stieltjes_test(root_seq)
    assert not verdict.is_stieltjes

    rep = dual_subnormality(shift)
    assert rep.verdict == "not-subnormal"
    assert rep.conclusive
    assert rep.decision_path == "generic-moment-test"


# ---------------------------------------------------------------------------
# 6. the cubic expansive ladder
# ---------------------------------------------------------------------------

def test_06_cubic_ladder_counterexample():
    path = materialize(TreeSpec("path", depth=32))
    shift = build_shift(WeightSpec("treiso"), path)

    trunc = truncate(shift)
    b3 = defect(trunc, 3)
    idx = trunc.interior_indices(3)
    assert np.max(np.abs(b3[np.ix_(idx, idx)])) < 1e-10
    assert not is_two_isometry(shift).holds

    dual = dual_matrix(trunc)
    b4 = defect(dual, 4)
    assert abs(b4[0, 0] - (-12.0 / 85.0)) < 1e-12

    rep = dual_subnormality(shift)
    assert rep.verdict == "not-subnormal"
    assert rep.conclusive
    assert rep.decision_path == "generic-moment-test"


# ---------------------------------------------------------------------------
# 7. reciprocal-linear moments and backward extensions of measures
# ---------------------------------------------------------------------------

def test_07_measure_round_trips():
    for a, b in ((1.0, 0.0), (1.0, 1.0), (2.0, 0.5), (3.0, 2.0)):
        result = reciprocal_linear_moments(a, b, 12)
        assert result.is_hamburger
        assert hausdorff_test(result.moments).is_hausdorff

    assert not hausdorff_test([2.0 ** n for n in range(10)]).is_hausdorff

    rng = np.random.default_rng(20260814)
    for _ in range(50):
        k = int(rng.integers(1, 9))
        locs = np.sort(rng.uniform(0.05, 3.0, size=k))
        while len(set(np.round(locs, 9))) < k:
            locs = np.sort(rng.uniform(0.05, 3.0, size=k))
        masses = rng.uniform(0.05, 1.0, size=k)
        mu = DiscreteMeasure(list(zip(locs.tolist(), masses.tolist())))
        integral = mu.reciprocal_integral()
        if integral > 1.0:
            mu = mu.scaled(0.999 / integral)
        admissible, _, nu = backward_extension(mu)
        assert admissible
        for n in range(9):
            assert abs(nu.moment(n + 1) - mu.moment(n)) < 1e-12


# ---------------------------------------------------------------------------
# 8. complete invariants and orthogonal decompositions
# ---------------------------------------------------------------------------

def test_08_equivalence_and_block_decomposition():
    depth = 12
    a = materialize(two_plus_three_tree_spec("a", depth))
    b = materialize(two_plus_three_tree_spec("b", depth))
    inv_a = shift_invariants(build_shift(
        WeightSpec("kernel_condition", x=1.2), a))
    inv_b = shift_invariants(build_shift(
        WeightSpec("kernel_condition", x=1.2), b))
    assert are_unitarily_equivalent(inv_a, inv_b)

    inv_a13 = shift_invariants(build_shift(
        WeightSpec("kernel_condition", x=1.3), a))
    assert not are_unitarily_equivalent(inv_a, inv_a13)

    c = materialize(TreeSpec("generation_rule", rule=((2,), (4, 1)),
                             depth=depth))
    inv_c = shift_invariants(build_shift(
        WeightSpec("kernel_condition", x=1.2), c))
    assert not are_unitarily_equivalent(inv_a, inv_c)

    block, decomposition = block_shift_from_atoms(
        [(SQRT2, 1), (1.2, 2)], 16)
    hand_built = [(1.2,), (1.2,), (SQRT2,)]
    assert are_unitarily_equivalent_multiset(
        [(x,) for x in decomposition], hand_built)
    idx = block.interior_indices(2)
    assert np.max(np.abs(defect(block, 2)[np.ix_(idx, idx)])) < 1e-10


# ---------------------------------------------------------------------------
# 9. the weight ladder laws
# ---------------------------------------------------------------------------

def test_09_weight_ladder_suite():
    grid = (1.0, 1.05, 1.2, SQRT2, 1.7, 1.9)
    for x in grid:
        for n in range(25):
            w_n = two_isometry_weight(n, x)
            # semigroup law
            for m in range(12):
                assert abs(two_isometry_weight(m, w_n)
                           - two_isometry_weight(m + n, x)) < 1e-12
            # monotone decrease toward 1 for x > 1
            w_next = two_isometry_weight(n + 1, x)
            if x > 1:
                assert 1.0 < w_next < w_n <= x
        # fixed point and the square-two ladder
        assert two_isometry_weight(7, 1.0) == 1.0
        assert abs(two_isometry_weight(11, SQRT2) ** 2 - 13 / 12) < 1e-12
    for n in range(13):
        assert abs(two_isometry_weight(n, SQRT2) ** 2
                   - (n + 2) / (n + 1)) < 1e-12
    # the ladder converges to 1
    assert two_isometry_weight(10 ** 7, 1.4) - 1.0 < 1e-7


# ---------------------------------------------------------------------------
# 10. cross-layer consistency: recurrence engine versus matrix oracle
# ---------------------------------------------------------------------------

def _catalog():
    path24 = materialize(TreeSpec("path", depth=24))
    yield build_shift(WeightSpec("dirichlet"), path24)
    yield build_shift(WeightSpec("bergman_dual"), path24)
    yield build_shift(WeightSpec("treiso"), path24)
    yield build_shift(WeightSpec("glowny", y1=1.1, y2=1.3),
                      materialize(TreeSpec("t_eta_kappa", eta=2, depth=12)))
    yield build_shift(WeightSpec("adjacency"),
                      materialize(hub_comb_tree_spec(3, 10)))
    for valency in (2, 3, 4):
        yield build_shift(WeightSpec("adjacency"),
                          materialize(comb_tree_spec(valency, 10)))
    yield build_shift(WeightSpec("adjacency"),
                      materialize(TreeSpec("quasi_brownian", valency=3,
                                           depth=10)))
    for variant in ("a", "b"):
        yield build_shift(WeightSpec("kernel_condition", x=1.2),
                          materialize(two_plus_three_tree_spec(variant, 10)))
    # many-branch surrogate with explicit weights
    tree = materialize(TreeSpec("t_eta_kappa", eta=4, depth=6))
    w = {}
    for i, first in enumerate(tree.children_of(tree.root), start=1):
        w[first] = 2.0 ** (-i)
        second = math.sqrt(i / 2 + 1) if i % 2 == 0 else 1.0
        u, j = first, 2
        while tree.children_of(u):
            (v,) = tree.children_of(u)
            w[v] = two_isometry_weight(j - 2, second)
            u, j = v, j + 1
    shift = build_shift(WeightSpec("explicit", values=w), tree)
    shift.name = "many-branch"
    yield shift


def test_10_cross_layer_consistency():
    for shift in _catalog():
        tree = shift.tree
        trunc = truncate(shift)
        # moment recurrence against matrix gram diagonals
        for n in (1, 2, 3):
            diag = gram_diag(trunc, n)
            for g in range(trunc.interior_depth - n + 1):
                for u in generation(tree, g):
                    seq = moment_sequence(shift, u, n)
                    assert abs(diag[trunc.index(u)] - seq[n]) < 1e-10, \
                        (shift.name, u, n)
        # dual weights against the matrix pseudo-inverse construction
        dual = cauchy_dual(shift)
        dmat = dual_matrix(trunc)
        for g in range(1, trunc.interior_depth + 1):
            for v in generation(tree, g):
                got = dmat.matrix[dmat.index(v),
                                  dmat.index(tree.parent_of(v))]
                assert abs(got - dual.weight(v)) < 1e-10, (shift.name, v)
