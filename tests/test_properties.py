"""Property-based checks of algebraic laws and numeric stability."""
import pytest
from hypothesis import given, settings, strategies as st

from treeshift import (DiscreteMeasure, TreeSpec, WeightSpec,
                       backward_extension, build_shift, cauchy_dual,
                       closed_form_table1, generation, is_two_isometry,
                       materialize, moment_sequence,
                       satisfies_kernel_condition, stieltjes_test,
                       two_isometry_weight, vertex_norm)

COMMON = dict(max_examples=60, deadline=None)

xs = st.floats(min_value=1.0, max_value=1.9, allow_nan=False,
               allow_infinity=False)
orders = st.integers(min_value=0, max_value=30)


# ---------------------------------------------------------------------------
# the weight ladder
# ---------------------------------------------------------------------------

@settings(**COMMON)
@given(xs, orders, orders)
def test_ladder_semigroup_law(x, m, n):
    lhs = two_isometry_weight(m, two_isometry_weight(n, x))
    rhs = two_isometry_weight(m + n, x)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@settings(**COMMON)
@given(xs, orders)
def test_ladder_bounds_and_monotonicity(x, n):
    w_n = two_isometry_weight(n, x)
    w_next = two_isometry_weight(n + 1, x)
    assert 1.0 <= w_next <= w_n <= x or x == 1.0
    if x > 1.0 + 1e-9:
        assert w_next < w_n
    # squared values follow the reciprocal-linear pattern
    a = x * x - 1
    assert w_n ** 2 == pytest.approx((1 + (n + 1) * a) / (1 + n * a),
                                     rel=1e-13)


@settings(**COMMON)
@given(orders)
def test_ladder_fixed_point(n):
    assert two_isometry_weight(n, 1.0) == 1.0


# ---------------------------------------------------------------------------
# random shifts: dual involution, class preservation
# ---------------------------------------------------------------------------

def _random_tree_and_weights(draw):
    depth = draw(st.integers(min_value=3, max_value=6))
    rule = []
    width = 1
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        row = [draw(st.integers(min_value=1, max_value=3))
               for _ in range(width)]
        rule.append(tuple(row))
        width = sum(row)
    tree = materialize(TreeSpec("generation_rule", rule=tuple(rule),
                                depth=depth))
    weights = {}
    for g in range(1, depth + 1):
        for v in generation(tree, g):
            weights[v] = draw(st.floats(min_value=0.3, max_value=2.0,
                                        allow_nan=False))
    return tree, weights


@settings(**COMMON)
@given(st.data())
def test_dual_is_an_involution(data):
    tree, weights = _random_tree_and_weights(data.draw)
    shift = build_shift(WeightSpec("explicit", values=weights), tree)
    double = cauchy_dual(cauchy_dual(shift))
    for v, lam in shift.weights().items():
        assert double.weight(v) == pytest.approx(lam, rel=1e-10)


@settings(**COMMON)
@given(st.data())
def test_dual_inverts_vertex_norms(data):
    tree, weights = _random_tree_and_weights(data.draw)
    shift = build_shift(WeightSpec("explicit", values=weights), tree)
    dual = cauchy_dual(shift)
    for g in range(tree.materialized_depth):
        for u in generation(tree, g):
            assert vertex_norm(dual, u) == pytest.approx(
                1.0 / vertex_norm(shift, u), rel=1e-12)


@settings(**COMMON)
@given(st.data())
def test_sibling_constancy_transfers_to_the_dual(data):
    # norms invert pointwise, so constancy of child norms is preserved
    tree, weights = _random_tree_and_weights(data.draw)
    x = data.draw(st.floats(min_value=1.0, max_value=1.4))
    shift = build_shift(WeightSpec("kernel_condition", x=x), tree)
    dual = cauchy_dual(shift)
    for k in (0, 1):
        assert satisfies_kernel_condition(shift, k, 1e-9).holds
        assert satisfies_kernel_condition(dual, k, 1e-9).holds


@settings(**COMMON)
@given(st.data())
def test_forced_spread_breaks_constancy_on_both_sides(data):
    tree = materialize(TreeSpec("t_eta_kappa", eta=2, depth=5))
    k1, k2 = tree.children_of(tree.root)
    base = data.draw(st.floats(min_value=0.5, max_value=1.5))
    spread = data.draw(st.floats(min_value=0.3, max_value=1.0))
    weights = {}
    for g in range(1, 6):
        for v in generation(tree, g):
            weights[v] = base
    # push one grandchild norm away from its sibling group
    (g1,) = tree.children_of(k1)
    weights[g1] = base + spread
    shift = build_shift(WeightSpec("explicit", values=weights), tree)
    dual = cauchy_dual(shift)
    assert not satisfies_kernel_condition(shift, 0, 1e-9).holds
    assert not satisfies_kernel_condition(dual, 0, 1e-9).holds


@settings(**COMMON)
@given(st.floats(min_value=1.0, max_value=1.4), st.integers(2, 4))
def test_kernel_family_is_expansive_with_unit_floor(x, eta):
    tree = materialize(TreeSpec("t_eta_kappa", eta=eta, depth=8))
    shift = build_shift(WeightSpec("kernel_condition", x=x), tree)
    verdict = is_two_isometry(shift)
    assert verdict.holds
    assert verdict.details["min_vertex_norm"] >= 1.0 - 1e-12


# ---------------------------------------------------------------------------
# moment recurrence against brute force
# ---------------------------------------------------------------------------

@settings(**COMMON)
@given(st.data())
def test_moment_recurrence_equals_path_products(data):
    tree, weights = _random_tree_and_weights(data.draw)
    shift = build_shift(WeightSpec("explicit", values=weights), tree)
    u = tree.root
    prod = {u: 1.0}
    nmax = tree.materialized_depth
    seq = moment_sequence(shift, u, nmax)
    for n in range(1, nmax + 1):
        nxt = {}
        for w, p in prod.items():
            for v in tree.children_of(w):
                nxt[v] = p * shift.weight(v) ** 2
        prod = nxt
        assert seq[n] == pytest.approx(sum(prod.values()), rel=1e-11)


# ---------------------------------------------------------------------------
# Cauchy-Schwarz gap for the two-branch family
# ---------------------------------------------------------------------------

@settings(**COMMON)
@given(st.floats(min_value=1.01, max_value=1.41),
       st.floats(min_value=1.01, max_value=1.41))
def test_branch_gap_sign(y1, y2):
    tree = materialize(TreeSpec("t_eta_kappa", eta=2, depth=4))
    shift = build_shift(WeightSpec("glowny", y1=y1, y2=y2), tree)
    cs = sum(shift.weight(v) ** 2 / (2 - vertex_norm(shift, v) ** 2)
             for v in tree.children_of(tree.root))
    gap = cs - vertex_norm(shift, tree.root) ** 4
    assert gap >= -1e-10
    if abs(y1 - y2) > 1e-3:
        assert gap > 0


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

atoms = st.lists(
    st.tuples(st.floats(min_value=0.05, max_value=3.0),
              st.floats(min_value=0.01, max_value=1.0)),
    min_size=1, max_size=8,
    unique_by=lambda t: round(t[0], 6))


@settings(**COMMON)
@given(atoms)
def test_backward_extension_round_trip(raw):
    mu = DiscreteMeasure(raw)
    # scale down until the reciprocal integral is at most one
    integral = mu.reciprocal_integral()
    if integral > 1:
        mu = mu.scaled(0.99 / integral)
    admissible, _, nu = backward_extension(mu)
    assert admissible
    for n in range(6):
        assert nu.moment(n + 1) == pytest.approx(mu.moment(n), rel=1e-12,
                                                 abs=1e-12)
    assert nu.total_mass == pytest.approx(1.0, abs=1e-10)


@settings(**COMMON)
@given(atoms, atoms,
       st.floats(min_value=0.1, max_value=0.9))
def test_mixture_moments_are_convex_combinations(raw_a, raw_b, w):
    a, b = DiscreteMeasure(raw_a), DiscreteMeasure(raw_b)
    mixed = DiscreteMeasure.mix([(w, a), (1 - w, b)])
    for n in range(5):
        assert mixed.moment(n) == pytest.approx(
            w * a.moment(n) + (1 - w) * b.moment(n), rel=1e-11, abs=1e-12)


@settings(**COMMON)
@given(atoms)
def test_true_measure_moments_pass_stieltjes(raw):
    mu = DiscreteMeasure(raw)
    verdict = stieltjes_test(mu.moments(8))
    assert verdict.is_stieltjes, verdict.detail


# ---------------------------------------------------------------------------
# closed-form rows
# ---------------------------------------------------------------------------

@settings(**COMMON)
@given(st.floats(min_value=1.0, max_value=5.0), st.integers(0, 20))
def test_rows_bounded_and_monotone(t, n):
    for row in ("kernel", "quasi_brownian"):
        v_n = closed_form_table1(row, t, n)
        v_next = closed_form_table1(row, t, n + 1)
        assert 0 < v_next <= v_n <= 1 + 1e-15
    l = max(2, int(round(t)))
    v_n = closed_form_table1("adjacency_pattern", l, n)
    assert 0 < v_n <= 1 + 1e-15
