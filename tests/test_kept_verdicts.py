"""Check verdicts kept on the shift, squares as correctly rounded
products, and the adjacency expansion kept on the tree."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treeshift import (ConfigurationError, DomainError, RangeError,
                       TreeSpec, WeightSpec, WeightedShift, build_shift,
                       classify_adjacency, cli, comb_tree_spec,
                       hub_comb_tree_spec, is_two_isometry, materialize,
                       quasi_brownian, satisfies_kernel_condition, shifts,
                       two_plus_three_tree_spec)


def _random_weights(tree):
    rng = np.random.default_rng(7)
    return WeightSpec("explicit", values=dict(zip(
        tree.labels[1:], rng.uniform(0.5, 1.5, tree.vertex_count - 1))))


_RANDOM_TREE = TreeSpec("generation_rule", rule=((2,), (1, 3)), depth=6)

# (tree, weights) of each shift family whose verdicts are kept
SHIFTS = {
    "glowny": (TreeSpec("t_eta_kappa", eta=2, depth=10),
               WeightSpec("glowny", y1=1.1, y2=1.3)),
    "kernel_condition": (TreeSpec("t_eta_kappa", eta=3, depth=6),
                         WeightSpec("kernel_condition", x=1.2)),
    "treiso": (TreeSpec("path", depth=10), WeightSpec("treiso")),
    "explicit-random": (_RANDOM_TREE,
                        _random_weights(materialize(_RANDOM_TREE))),
    "adjacency": (TreeSpec("quasi_brownian", valency=3, depth=6),
                  WeightSpec("adjacency")),
}

TOLS = (1e-12, 1e-9, 1e-3)
CALLS = ([("two", None, tol) for tol in TOLS]
         + [("kernel", k, tol) for k in (0, 1, 2) for tol in TOLS])


def _fresh(name):
    tree, weights = SHIFTS[name]
    return build_shift(weights, materialize(tree))


def _call(shift, call):
    check, k, tol = call
    if check == "two":
        return is_two_isometry(shift, tol)
    return satisfies_kernel_condition(shift, k, tol)


# ---------------------------------------------------------------------------
# verdicts kept per shift, k and tolerance
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(SHIFTS))
@settings(max_examples=15, deadline=None)
@given(order=st.permutations(CALLS + CALLS))
def test_kept_verdicts_match_a_fresh_shift_in_any_call_order(name, order):
    shift = _fresh(name)
    for call in order:
        assert _call(shift, call) == _call(_fresh(name), call)


@pytest.mark.parametrize("call", [("two", None, 1e-9), ("kernel", 0, 1e-9),
                                  ("kernel", 1, 1e-9)])
def test_a_kept_verdict_hides_a_callers_changes_to_details(call):
    shift = _fresh("glowny")
    first = _call(shift, call)
    expected = dict(first.details)
    for key in list(first.details):
        first.details[key] = -1
    first.details["added"] = 1
    assert _call(shift, call).details == expected
    assert _call(shift, call) == _call(_fresh("glowny"), call)


@pytest.mark.parametrize("call,error", [
    (("two", None, 0.0), ConfigurationError),
    (("kernel", 0, -1.0), ConfigurationError),
    (("kernel", -1, 1e-9), DomainError),
    (("kernel", 9, 1e-9), RangeError)])
def test_a_bad_argument_raises_beside_kept_verdicts(call, error):
    shift = _fresh("glowny")
    with pytest.raises(error):
        _call(shift, call)
    for good in CALLS:
        _call(shift, good)
    with pytest.raises(error):
        _call(shift, call)


def test_glowny_demo_runs_each_check_pass_once(monkeypatch):
    # the demo asks for the expansion identity 10 times and for sibling
    # constancy 11 times, at k = 0 and k = 1, all on one shift
    expansion, constancy = [], []
    expansion_check = shifts._expansion_check
    constancy_check = shifts._constancy_check

    def counted_expansion(shift, tol):
        expansion.append(id(shift))
        return expansion_check(shift, tol)

    def counted_constancy(shift, k, tol):
        constancy.append((id(shift), k))
        return constancy_check(shift, k, tol)

    monkeypatch.setattr(shifts, "_expansion_check", counted_expansion)
    monkeypatch.setattr(shifts, "_constancy_check", counted_constancy)
    report, code = cli.run_demo("glowny")
    assert code == 0 and report["conclusion_matches"]
    assert len(expansion) == 1
    assert sorted(k for _, k in constancy) == [0, 1]
    assert len(set(expansion) | {s for s, _ in constancy}) == 1


# ---------------------------------------------------------------------------
# squares are correctly rounded products
# ---------------------------------------------------------------------------

TREE_FAMILIES = {
    "path": TreeSpec("path", depth=9),
    "t_eta_kappa": TreeSpec("t_eta_kappa", eta=4, depth=5),
    "quasi_brownian": TreeSpec("quasi_brownian", valency=3, depth=6),
    "comb": comb_tree_spec(3, 7),
    "hub_comb": hub_comb_tree_spec(3, 7),
    "two_plus_three": two_plus_three_tree_spec("a", 6),
    "generation_rule": TreeSpec("generation_rule", rule=((2,), (3, 1)),
                                depth=6),
    "explicit": TreeSpec("explicit", edges=(
        ("r", "a"), ("r", "b"), ("a", "c"), ("a", "d"), ("b", "e"),
        ("c", "f"), ("d", "g"), ("d", "h"), ("e", "i")), depth=3),
}


@pytest.mark.parametrize("family", sorted(TREE_FAMILIES))
def test_squares_are_products_on_every_tree_family(family):
    tree = materialize(TREE_FAMILIES[family])
    rng = np.random.default_rng(len(family))
    cases = [WeightedShift(tree.expanded(),
                           rng.uniform(0.1, 3.0, tree.vertex_count))]
    cases.append(build_shift(WeightSpec("adjacency"), tree))
    if family == "path":
        cases += [build_shift(WeightSpec(kind), tree)
                    for kind in ("dirichlet", "bergman_dual", "treiso")]
    cases.append(build_shift(WeightSpec("kernel_condition", x=1.3), tree))
    for shift in cases:
        w, norms = shift.weight_array, shift.vertex_norms
        assert np.array_equal(shift.squared_weights, w * w)
        assert np.array_equal(shift.squared_norms, norms * norms)


def test_squares_are_correctly_rounded():
    # the exact square of a double, rounded once; libm pow misses it for
    # about one value in a thousand
    tree = materialize(TreeSpec("path", depth=20_000))
    w = np.random.default_rng(3).uniform(0.1, 3.0, tree.vertex_count)
    shift = WeightedShift(tree, w)
    exact = [float(Fraction(x) ** 2) for x in shift.weight_array.tolist()]
    assert shift.squared_weights.tolist() == exact
    exact = [float(Fraction(x) ** 2) for x in shift.vertex_norms.tolist()]
    assert shift.squared_norms.tolist() == exact


# ---------------------------------------------------------------------------
# the adjacency expansion, kept on the tree
# ---------------------------------------------------------------------------

def test_adjacency_expansion_is_computed_once_per_tree():
    tree = materialize(TreeSpec("quasi_brownian", valency=3, depth=8))
    first = tree.adjacency_expansion()
    classify_adjacency(tree)
    quasi_brownian(tree)
    assert tree.adjacency_expansion() is first
    for array in first:
        assert not array.flags.writeable
