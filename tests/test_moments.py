"""Moment layer: sequences, measures, classical tests, subnormality."""
import math
import re
from pathlib import Path

import pytest

from treeshift import (DEFAULT_TOL, ClassificationError, ConfigurationError,
                       DiscreteMeasure, DomainError,
                       MomentSequence, NotLeftInvertibleError, RangeError,
                       TreeSpec, WeightSpec,
                       backward_extension, build_shift,
                       closed_form_table1, comb_tree_spec, dual_subnormality,
                       generation, hausdorff_test, hub_comb_tree_spec,
                       materialize, moment_sequence, operator_norm,
                       perturbed_kernel_dual_moment,
                       reciprocal_linear_moments, stieltjes_test,
                       vertex_norm, check_tolerance, classify_adjacency,
                       is_two_isometry, satisfies_kernel_condition,
                       two_isometry_weight, verify_table1,
                       are_unitarily_equivalent, shift_invariants)
from treeshift.cli import parse_spec
from treeshift.moments import MAX_LISTED_WITNESSES, _THEOREM_RULES

GOLDEN_SPECS = Path(__file__).resolve().parent / "golden" / "specs"

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# moment sequences from shifts
# ---------------------------------------------------------------------------

def test_moment_sequence_path_powers():
    path = materialize(TreeSpec("path", depth=16))
    bergman = build_shift(WeightSpec("bergman_dual"), path)
    seq = moment_sequence(bergman, nmax=12)
    assert seq[0] == 1.0
    for n in range(13):
        assert seq[n] == pytest.approx(1.0 / (n + 1), abs=1e-13)
    assert len(seq) == 13


def test_moment_sequence_recurrence_matches_direct_product():
    tree = materialize(TreeSpec("t_eta_kappa", eta=2, depth=10))
    shift = build_shift(WeightSpec("glowny", y1=1.1, y2=1.3), tree)
    # direct computation: ||S^n e_root||^2 as a sum over depth-n vertices
    # of the squared product of weights along the path from the root
    prod = {tree.root: 1.0}
    for n in range(1, 6):
        nxt = {}
        for u, p in prod.items():
            for v in tree.children_of(u):
                nxt[v] = p * shift.weight(v) ** 2
        prod = nxt
        seq = moment_sequence(shift, nmax=n)
        assert seq[n] == pytest.approx(sum(prod.values()), rel=1e-13)


def test_moment_sequence_depth_guard_and_vertex_choice():
    path = materialize(TreeSpec("path", depth=8))
    shift = build_shift(WeightSpec("dirichlet"), path)
    (v3,) = generation(path, 3)
    seq = moment_sequence(shift, v3, nmax=5)
    assert len(seq) == 6
    with pytest.raises(RangeError):
        moment_sequence(shift, v3, nmax=6)  # 3 + 6 > 8
    with pytest.raises(RangeError):
        moment_sequence(shift, nmax=8, dual=True)  # dual loses one level
    assert len(moment_sequence(shift, nmax=7, dual=True)) == 8


def test_kernel_class_dual_moments_match_closed_form():
    # sibling-constant expansive shifts: dual moments follow the
    # reciprocal-linear law in t = (root norm)^2
    for x in (1.0, 1.2, SQRT2, 1.4):
        for spec in (TreeSpec("path", depth=16),
                     TreeSpec("t_eta_kappa", eta=2, depth=16)):
            tree = materialize(spec)
            shift = build_shift(WeightSpec("kernel_condition", x=x), tree)
            seq = moment_sequence(shift, nmax=12, dual=True)
            for n in range(13):
                assert seq[n] == pytest.approx(
                    closed_form_table1("kernel", x * x, n), abs=1e-10)


def test_perturbed_closed_form_agrees_with_recurrence():
    tree = materialize(TreeSpec("t_eta_kappa", eta=2, depth=16))
    glowny = build_shift(WeightSpec("glowny", y1=1.1, y2=1.3), tree)
    for n in range(1, 13):
        seq = moment_sequence(glowny, nmax=n, dual=True)
        assert perturbed_kernel_dual_moment(glowny, n=n) == pytest.approx(
            seq[n], abs=1e-10)
    # non-root vertices too
    k1 = tree.children_of(tree.root)[0]
    for n in range(1, 8):
        seq = moment_sequence(glowny, k1, nmax=n, dual=True)
        assert perturbed_kernel_dual_moment(glowny, k1, n) == pytest.approx(
            seq[n], abs=1e-10)
    # plain sibling-constant shifts satisfy the weaker constancy too
    kc = build_shift(WeightSpec("kernel_condition", x=1.2), tree)
    for n in range(1, 8):
        assert perturbed_kernel_dual_moment(kc, n=n) == pytest.approx(
            closed_form_table1("kernel", 1.44, n), abs=1e-12)


def test_perturbed_closed_form_requires_class_membership():
    path = materialize(TreeSpec("path", depth=12))
    bergman = build_shift(WeightSpec("bergman_dual"), path)
    with pytest.raises(ClassificationError):
        perturbed_kernel_dual_moment(bergman, n=2)


def test_cauchy_schwarz_gap_strict_iff_parameters_differ():
    tree = materialize(TreeSpec("t_eta_kappa", eta=2, depth=12))

    def gap(y1, y2):
        shift = build_shift(WeightSpec("glowny", y1=y1, y2=y2), tree)
        cs = sum(shift.weight(v) ** 2 / (2 - vertex_norm(shift, v) ** 2)
                 for v in tree.children_of(tree.root))
        return cs - vertex_norm(shift, tree.root) ** 4

    assert gap(1.1, 1.3) > 1e-3
    assert gap(1.05, 1.1) > 1e-6
    assert abs(gap(1.2, 1.2)) < 1e-10
    assert abs(gap(1.4, 1.4)) < 1e-10


def test_dual_moments_monotone_and_vanishing():
    x = 1.3
    tree = materialize(TreeSpec("path", depth=41))
    shift = build_shift(WeightSpec("kernel_condition", x=x), tree)
    seq = moment_sequence(shift, nmax=40, dual=True)
    a = x * x - 1
    for n in range(41):
        assert seq[n] <= 1.0 / (1 + n * a) + 1e-12
    assert all(seq[n + 1] < seq[n] for n in range(40))
    assert seq[40] < 0.1


def test_largest_constant_lower_bounds():
    # sibling-constant class: dual moments dominate the reciprocal-linear
    # law driven by the operator norm
    tree = materialize(TreeSpec("t_eta_kappa", eta=2, depth=14))
    shift = build_shift(WeightSpec("kernel_condition", x=1.2), tree)
    t = operator_norm(shift) ** 2
    for g in range(4):
        u = generation(tree, g)[0]
        for n in range(1, 13 - g):
            seq = moment_sequence(shift, u, nmax=n, dual=True)
            assert seq[n] >= closed_form_table1("kernel", t, n) - 1e-12

    qb = materialize(TreeSpec("quasi_brownian", valency=3, depth=14))
    adjacency = build_shift(WeightSpec("adjacency"), qb)
    t = operator_norm(adjacency) ** 2
    assert t == pytest.approx(3.0, abs=1e-12)
    for g in range(3):
        for u in generation(qb, g):
            for n in range(1, 6):
                seq = moment_sequence(adjacency, u, nmax=n, dual=True)
                assert seq[n] >= (
                    closed_form_table1("quasi_brownian", t, n) - 1e-12)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_closed_form_values():
    assert closed_form_table1("kernel", 2.0, 3) == pytest.approx(0.25, abs=0)
    assert closed_form_table1("adjacency_pattern", 2, 2) == pytest.approx(
        0.375, abs=1e-15)
    assert closed_form_table1("quasi_brownian", 2.0, 1) == pytest.approx(
        0.5, abs=1e-15)
    for row in ("kernel", "quasi_brownian", "adjacency_pattern"):
        t = 2.0 if row != "adjacency_pattern" else 2
        assert closed_form_table1(row, t, 0) == 1.0
    with pytest.raises(DomainError):
        closed_form_table1("nonsense", 2.0, 1)
    with pytest.raises(DomainError):
        closed_form_table1("kernel", 0.5, 1)
    with pytest.raises(DomainError):
        closed_form_table1("adjacency_pattern", 2.5, 1)
    with pytest.raises(DomainError):
        closed_form_table1("kernel", 2.0, -1)


def test_quasi_brownian_row_limit():
    # as the order grows the value approaches 1/(1+t)
    for t in (2.0, 3.0, 5.0):
        assert closed_form_table1("quasi_brownian", t, 25) == pytest.approx(
            1 / (1 + t), abs=1e-9)


def test_rows_agree_at_valency_two():
    for n in range(13):
        assert closed_form_table1("adjacency_pattern", 2, n) == pytest.approx(
            closed_form_table1("quasi_brownian", 2.0, n), abs=1e-12)


# ---------------------------------------------------------------------------
# discrete measures
# ---------------------------------------------------------------------------

def test_discrete_measure_basics():
    mu = DiscreteMeasure([(1.0, 0.5), (0.25, 0.25), (0.0, 0.25)])
    assert mu.total_mass == pytest.approx(1.0, abs=0)
    assert mu.mass_at(0.25) == 0.25
    assert mu.mass_at(0.7) == 0.0
    assert mu.moment(0) == pytest.approx(1.0, abs=0)
    # 0^0 = 1 convention: the zero atom contributes to the 0th moment only
    assert mu.moment(1) == pytest.approx(0.5 + 0.25 * 0.25, abs=1e-15)
    assert mu.reciprocal_integral() == math.inf
    positive = DiscreteMeasure([(0.5, 1.0), (2.0, 1.0)])
    assert positive.reciprocal_integral() == pytest.approx(2.5, abs=1e-15)

    with pytest.raises(DomainError):
        DiscreteMeasure([(-0.5, 1.0)])
    with pytest.raises(DomainError):
        DiscreteMeasure([(0.5, 0.0)])
    with pytest.raises(DomainError):
        DiscreteMeasure([(0.5, 1.0), (0.5, 1.0)])


def test_discrete_measure_mix_merges_close_atoms():
    a = DiscreteMeasure([(1.0, 1.0)])
    b = DiscreteMeasure([(1.0 + 1e-14, 1.0), (2.0, 1.0)])
    mixed = DiscreteMeasure.mix([(0.5, a), (0.5, b)])
    assert len(mixed.atoms) == 2
    assert mixed.mass_at(1.0) == pytest.approx(1.0, abs=1e-12)
    assert mixed.total_mass == pytest.approx(1.5, abs=1e-12)


# ---------------------------------------------------------------------------
# classical moment tests
# ---------------------------------------------------------------------------

def test_stieltjes_accepts_measure_moments():
    mu = DiscreteMeasure([(0.3, 0.5), (1.7, 0.25)])
    verdict = stieltjes_test(mu.moments(10))
    assert verdict.is_stieltjes
    assert verdict.failing_order is None

    constant = MomentSequence((1.0,) * 9)
    assert stieltjes_test(constant).is_stieltjes  # point mass at 1

    zero_atom = DiscreteMeasure([(0.0, 0.5), (1.0, 0.5)])
    assert stieltjes_test(zero_atom.moments(8)).is_stieltjes


def test_stieltjes_rejects_and_reports_order():
    # moments of a signed object: 2^n with an inserted dip
    bad = MomentSequence((1.0, 0.2, 1.0, 0.2, 1.0, 0.2, 1.0))
    verdict = stieltjes_test(bad)
    assert not verdict.is_stieltjes
    assert verdict.failing_order is not None
    assert verdict.failing_order <= 3
    assert verdict.extremal_value < 0

    with pytest.raises(RangeError):
        stieltjes_test(MomentSequence((1.0, 0.5)))


def test_hausdorff_examples():
    # 1/(n+1) and the valency-2 pattern are Hausdorff sequences
    assert hausdorff_test([1 / (n + 1) for n in range(13)]).is_hausdorff
    qb2 = [closed_form_table1("quasi_brownian", 2.0, n) for n in range(13)]
    assert hausdorff_test(qb2).is_hausdorff
    # 2^n grows: fails complete monotonicity immediately
    verdict = hausdorff_test([2.0 ** n for n in range(10)])
    assert not verdict.is_hausdorff
    assert verdict.failing_order == 1


@pytest.mark.parametrize("values", [
    (math.nan, 1.0, 1.0),  # read as "threshold nan" and passed
    (1.0, 0.5, math.inf),  # read as "threshold -inf" and passed
    (1.0, -math.inf, 1.0, 0.5),
    (1.0, 0.5, 0.25, math.nan),
])
def test_moment_tests_refuse_non_finite_values(values):
    for test in (stieltjes_test, hausdorff_test):
        with pytest.raises(DomainError,
                           match="moment sequence values must be finite"):
            test(values)


def test_reciprocal_linear_moments():
    r = reciprocal_linear_moments(1.0, 0.0, 10)
    assert r.is_hamburger
    assert r.atom_measure is not None
    assert r.atom_measure.mass_at(1.0) == pytest.approx(1.0, abs=1e-15)
    assert all(v == pytest.approx(1.0, abs=1e-15) for v in r.moments.values)

    r2 = reciprocal_linear_moments(1.0, 1.0, 12)
    assert r2.is_hamburger
    for n in range(13):
        assert r2.moments[n] == pytest.approx(1 / (1 + n), abs=1e-15)
    sampled = r2.sampled_measure()
    for n in range(13):
        assert sampled.moment(n) == pytest.approx(r2.moments[n], abs=1e-12)

    r3 = reciprocal_linear_moments(2.0, 0.5, 12)
    sampled3 = r3.sampled_measure()
    for n in range(13):
        assert sampled3.moment(n) == pytest.approx(r3.moments[n], abs=1e-12)

    neg = reciprocal_linear_moments(-0.5, 1.0, 6)
    assert not neg.is_hamburger
    with pytest.raises(DomainError):
        neg.sampled_measure()
    with pytest.raises(DomainError):
        reciprocal_linear_moments(2.0, -1.0, 6)  # hits a pole at n = 2


def test_backward_extension():
    mu = DiscreteMeasure([(0.25, 4 / 27), (1.0, 5 / 27)])
    admissible, integral, nu = backward_extension(mu)
    assert admissible
    assert integral == pytest.approx(7 / 9, abs=1e-15)
    # nu has mass (1/t) mu(dt) plus the deficit at zero
    assert nu.mass_at(0.25) == pytest.approx(16 / 27, abs=1e-15)
    assert nu.mass_at(1.0) == pytest.approx(5 / 27, abs=1e-15)
    assert nu.mass_at(0.0) == pytest.approx(2 / 9, abs=1e-15)
    assert nu.total_mass == pytest.approx(1.0, abs=1e-14)
    # shifted moments: nu moment n+1 equals mu moment n ... times nothing:
    # integral of t^(n+1) d(nu) = integral of t^n d(mu)
    for n in range(8):
        assert nu.moment(n + 1) == pytest.approx(mu.moment(n), abs=1e-15)

    heavy = DiscreteMeasure([(0.1, 0.5)])  # integral 5 > 1
    admissible2, integral2, nu2 = backward_extension(heavy)
    assert not admissible2
    assert integral2 == pytest.approx(5.0, abs=1e-14)
    assert nu2 is None

    with_zero = DiscreteMeasure([(0.0, 0.1), (1.0, 0.5)])
    admissible3, integral3, nu3 = backward_extension(with_zero)
    assert not admissible3 and integral3 == math.inf and nu3 is None


# ---------------------------------------------------------------------------
# the decision procedure
# ---------------------------------------------------------------------------

def test_decision_sibling_constant_fast_path():
    path = materialize(TreeSpec("path", depth=16))
    shift = build_shift(WeightSpec("dirichlet"), path)
    rep = dual_subnormality(shift)
    assert rep.verdict == "subnormal" and rep.conclusive
    assert rep.decision_path == "cdsubn"
    assert "representing_measure" in rep.evidence


def test_decision_quasi_brownian_path():
    qb = materialize(TreeSpec("quasi_brownian", valency=3, depth=12))
    rep = dual_subnormality(build_shift(WeightSpec("adjacency"), qb))
    assert rep.verdict == "subnormal" and rep.conclusive
    assert rep.decision_path == "BrownianG"


def test_decision_constant_t_path():
    comb = materialize(comb_tree_spec(3, 14))
    rep = dual_subnormality(build_shift(WeightSpec("adjacency"), comb))
    assert rep.verdict == "subnormal" and rep.conclusive
    assert rep.decision_path == "constant-t"
    assert rep.evidence["closed_form_max_deviation"] < 1e-10


def test_decision_constant_t_valency_two_goes_brownian():
    comb = materialize(comb_tree_spec(2, 14))
    rep = dual_subnormality(build_shift(WeightSpec("adjacency"), comb))
    assert rep.verdict == "subnormal"
    assert rep.decision_path == "BrownianG"


def test_decision_main2_negative():
    tree = materialize(TreeSpec("t_eta_kappa", eta=2, depth=16))
    glowny = build_shift(WeightSpec("glowny", y1=1.1, y2=1.3), tree)
    rep = dual_subnormality(glowny)
    assert rep.verdict == "not-subnormal" and rep.conclusive
    assert rep.decision_path == "main2"
    assert rep.evidence["perturbation_order"] == 1
    assert rep.evidence["extension_integral"] > 1
    assert rep.evidence["root_stieltjes"]["is_stieltjes"] is False


def test_decision_main2_positive_branch_is_unreachable():
    # a sibling-constant expansive shift is caught by the first fast path,
    # never by the perturbed branch
    tree = materialize(TreeSpec("t_eta_kappa", eta=2, depth=12))
    kc = build_shift(WeightSpec("kernel_condition", x=1.2), tree)
    rep = dual_subnormality(kc)
    assert rep.decision_path == "cdsubn"
    assert rep.verdict == "subnormal"


@pytest.mark.parametrize("y2", [1.1 + 1e-8, 1.1 + 1e-3])
def test_main2_states_the_relation_its_integral_satisfies(y2):
    # the extension integral is 1 up to rounding: ".6g" prints 1 on either
    # side of it, so the statement prints enough digits to show the side
    tree = materialize(TreeSpec("t_eta_kappa", eta=2, depth=16))
    rep = dual_subnormality(
        build_shift(WeightSpec("glowny", y1=1.1, y2=y2), tree))
    assert (rep.verdict, rep.decision_path) == ("not-subnormal", "main2")
    assert rep.evidence["perturbation_order"] == 1
    shown, relation = re.search(r"; extension integral (\S+) (>|<=) 1$",
                                rep.statement).groups()
    integral = rep.evidence["extension_integral"]
    assert relation == (">" if integral > 1.0 else "<=")
    assert (float(shown) > 1.0) == (integral > 1.0)


def test_main2_reports_no_extension_integral_past_generation_1():
    # r -> a -> two rays b0, b1: the expansive shifts with first weights
    # y = 1.01 and 1.05, their first vertices weighted for the expansion
    # identity at a.  Constancy holds from generation 2, where the root
    # sum is no extension integral (here it is 0.9999999999999998).
    edges, values = [("r", "a")], {}
    for i, y in enumerate((1.01, 1.05)):
        ray = ["a"] + [f"b{i}_{g}" for g in range(2, 25)]
        edges += list(zip(ray, ray[1:]))
        values[ray[1]] = math.sqrt(1.0 / (2.0 * (2.0 - y * y)))
        values.update((v, two_isometry_weight(j, y))
                      for j, v in enumerate(ray[2:]))
    values["a"] = math.sqrt(1.0 / (2.0 - values["b0_2"] ** 2
                                   - values["b1_2"] ** 2))
    tree = materialize(TreeSpec("explicit", edges=tuple(edges)))
    rep = dual_subnormality(build_shift(WeightSpec("explicit", values=values),
                                        tree))
    assert (rep.verdict, rep.decision_path) == ("not-subnormal", "main2")
    assert rep.evidence["perturbation_order"] == 2
    assert rep.evidence["extension_integral"] is None
    assert "extension integral" not in rep.statement


# shift -> (the theorem rule that fires, the rule that leaves a note); every
# other rule declines silently
RULE_CASES = {
    "dirichlet path": (lambda: build_shift(
        WeightSpec("dirichlet"), materialize(TreeSpec("path", depth=16))),
        "cdsubn", None),
    "quasi-Brownian": (lambda: build_shift(
        WeightSpec("adjacency"),
        materialize(TreeSpec("quasi_brownian", valency=3, depth=12))),
        "BrownianG", None),
    "comb": (lambda: build_shift(
        WeightSpec("adjacency"), materialize(comb_tree_spec(3, 14))),
        "constant-t", None),
    "glowny": (lambda: build_shift(
        WeightSpec("glowny", y1=1.1, y2=1.3),
        materialize(TreeSpec("t_eta_kappa", eta=2, depth=16))),
        "main2", None),
    "zero-weight": (lambda: parse_spec(
        (GOLDEN_SPECS / "zero-weight.json").read_text()).shift, None, "main2"),
    "hub-comb": (lambda: build_shift(
        WeightSpec("adjacency"), materialize(hub_comb_tree_spec(3, 14))),
        None, None),
}


@pytest.mark.parametrize("case", RULE_CASES)
def test_each_theorem_rule_fires_declines_or_notes(case):
    make, fires, noting = RULE_CASES[case]
    shift = make()
    assert is_two_isometry(shift).holds  # the rules' precondition
    outcomes = {path: rule(shift, 12, DEFAULT_TOL)
                for path, rule in _THEOREM_RULES}
    kinds = {path: "fires" if isinstance(o, tuple) else "note" if o else None
             for path, o in outcomes.items()}
    assert kinds == {path: {fires: "fires", noting: "note"}.get(path)
                     for path, _ in _THEOREM_RULES}
    # dual_subnormality reports the first rule that fires, with its
    # outcome, or else the generic test with the notes left
    rep = dual_subnormality(shift)
    if fires:
        assert (rep.decision_path, rep.conclusive) == (fires, True)
        assert (rep.verdict, rep.statement, rep.evidence) == outcomes[fires]
    else:
        assert rep.decision_path == "generic-moment-test"
        assert rep.evidence["notes"] == (
            [outcomes[noting]] if noting else [])


def test_decision_generic_fallback():
    tree = materialize(hub_comb_tree_spec(3, 14))
    rep = dual_subnormality(build_shift(WeightSpec("adjacency"), tree))
    assert rep.verdict == "not-subnormal" and rep.conclusive
    assert rep.decision_path == "generic-moment-test"
    failed = [w for w in rep.evidence["witnesses"]
              if w["stieltjes"]["is_stieltjes"] is False]
    assert failed and failed[0]["vertex"] == tree.root


def test_decision_generic_catches_expansive_dual():
    # the dual of the power-moment contraction is the expansive ladder,
    # whose moments n+1 are not a Stieltjes sequence
    path = materialize(TreeSpec("path", depth=16))
    bergman = build_shift(WeightSpec("bergman_dual"), path)
    rep = dual_subnormality(bergman)
    assert rep.verdict == "not-subnormal" and rep.conclusive
    assert rep.decision_path == "generic-moment-test"


def test_decision_generic_inconclusive_pass():
    # scaled isometry, not expansive-identity class: its dual is a scaled
    # isometry with point-mass moments, so the generic path answers
    # "consistent" without claiming a proof
    path = materialize(TreeSpec("path", depth=16))
    ids = list(path.ids())
    shift = build_shift(
        WeightSpec("explicit", values={v: 0.5 for v in ids[1:]}), path)
    rep = dual_subnormality(shift)
    assert rep.verdict == "consistent"
    assert not rep.conclusive
    assert rep.decision_path == "generic-moment-test"
    for w in rep.evidence["witnesses"]:
        assert w["stieltjes"]["is_stieltjes"] is True


@pytest.mark.parametrize("depth,nmax", [(64, 0), (64, 1), (2, 12)])
def test_decision_generic_says_when_no_witness_is_tested(depth, nmax):
    # every witness needs moments 0..2; with nmax < 2, or a tree too
    # shallow for them, no sequence is tested and the statement says so
    path = materialize(TreeSpec("path", depth=depth))
    rep = dual_subnormality(build_shift(WeightSpec("treiso"), path), nmax)
    assert (rep.verdict, rep.conclusive) == ("consistent", False)
    assert rep.evidence["witnesses"] == []
    assert "every tested dual sequence passes" not in rep.statement
    assert "no witness reaches Hankel order 1" in rep.statement


def test_decision_requires_left_invertibility():
    tree = materialize(TreeSpec("path", depth=6))
    ids = list(tree.ids())
    w = {v: 1.0 for v in ids[1:]}
    w[ids[3]] = 0.0
    with pytest.raises(NotLeftInvertibleError):
        dual_subnormality(build_shift(WeightSpec("explicit", values=w), tree))



def test_generic_report_is_bounded_and_keeps_the_first_failure():
    tree = materialize(TreeSpec("path", depth=200))
    bergman = build_shift(WeightSpec("bergman_dual"), tree)
    # weight 1 down to depth 100: the witnesses above depth 88 see
    # constant dual weights and pass, the later ones fail
    weights = {v: 1.0 if tree.depth_of(v) <= 100 else w
               for v, w in bergman.weights().items()}
    report = dual_subnormality(
        build_shift(WeightSpec("explicit", values=weights), tree), 12)
    assert report.verdict == "not-subnormal"
    listed = report.evidence["witnesses"]
    assert len(listed) == MAX_LISTED_WITNESSES
    assert report.evidence["witnesses_omitted"] == 198 - MAX_LISTED_WITNESSES
    assert [w["vertex"] for w in listed[:-1]] == [
        f"g{d}:0" for d in range(MAX_LISTED_WITNESSES - 1)]
    assert all(w["stieltjes"]["is_stieltjes"] for w in listed[:-1])
    failure = listed[-1]
    assert not failure["stieltjes"]["is_stieltjes"]
    assert failure["vertex"] in report.statement
    assert tree.depth_of(failure["vertex"]) > MAX_LISTED_WITNESSES
    # a short path lists every witness and counts none
    short = dual_subnormality(
        build_shift(WeightSpec("bergman_dual"),
                    materialize(TreeSpec("path", depth=40))), 12)
    assert len(short.evidence["witnesses"]) == 38
    assert "witnesses_omitted" not in short.evidence


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_generic_path_rejects_moments_that_overflow():
    tree = materialize(TreeSpec("path", depth=8))
    # dual weights 1e100: the second dual moment at the root is inf
    shift = build_shift(WeightSpec("explicit", values={
        v: 1e-100 for v in tree.ids() if v != tree.root}), tree)
    with pytest.raises(DomainError, match="finite"):
        dual_subnormality(shift, 6)


def test_nan_tolerance_no_longer_passes_the_treiso_checks():
    shift = build_shift(WeightSpec("treiso"),
                        materialize(TreeSpec("path", depth=8)))
    assert dual_subnormality(shift, 8).verdict == "not-subnormal"
    assert not is_two_isometry(shift).holds
    with pytest.raises(ConfigurationError, match="finite number > 0"):
        dual_subnormality(shift, 8, math.nan)
    with pytest.raises(ConfigurationError, match="finite number > 0"):
        is_two_isometry(shift, math.nan)


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
def test_every_tol_parameter_is_checked(tol):
    dirichlet = build_shift(WeightSpec("dirichlet"),
                            materialize(TreeSpec("path", depth=32)))
    # admissible (integral of 1/t is 0.7), with an atom of mass 0.3 at 0.5
    mu = DiscreteMeasure([(0.5, 0.3), (2.0, 0.2)])
    invariants = shift_invariants(dirichlet)
    calls = [
        lambda: is_two_isometry(dirichlet, tol),
        lambda: satisfies_kernel_condition(dirichlet, 0, tol),
        lambda: classify_adjacency(dirichlet.tree, tol),
        lambda: stieltjes_test([1.0, 0.5, 0.5], tol),
        lambda: hausdorff_test([1.0, 0.5, 0.5], tol),
        lambda: dual_subnormality(dirichlet, 8, tol),
        lambda: perturbed_kernel_dual_moment(dirichlet, n=2, tol=tol),
        lambda: verify_table1(dirichlet, "kernel", 4, tol=tol),
        lambda: backward_extension(mu, tol),
        lambda: mu.mass_at(0.5, tol),
        lambda: are_unitarily_equivalent(invariants, invariants, tol),
    ]
    for call in calls:
        with pytest.raises(ConfigurationError,
                           match="^tol must be a finite number > 0"):
            call()
    with pytest.raises(ConfigurationError,
                       match="^merge_tol must be a finite number > 0"):
        DiscreteMeasure.mix([(1.0, mu), (1.0, mu)], merge_tol=tol)


def test_check_tolerance_returns_a_float():
    assert check_tolerance(1) == 1.0 and type(check_tolerance(1)) is float
    with pytest.raises(ConfigurationError):
        check_tolerance(None)


def test_decision_clamps_nmax_beyond_the_int64_range():
    shift = build_shift(WeightSpec("treiso"),
                        materialize(TreeSpec("path", depth=12)))
    huge, capped = (dual_subnormality(shift, nmax) for nmax in (10 ** 30, 11))
    assert huge.nmax == 10 ** 30
    assert huge.verdict == capped.verdict
    assert huge.evidence["witnesses"] == capped.evidence["witnesses"]


def _zero_weight_over_an_overflow():
    """a: weight 0 over a ray of weights 1e-100, whose dual moments
    overflow; b: weight 1 over a ray of 1s."""
    rays = {c: [f"{c}{i}" for i in range(1, 9)] for c in "ab"}
    edges = [("r", "a"), ("r", "b")] + [
        (p, v) for c, ray in rays.items() for p, v in zip([c] + ray, ray)]
    values = {"a": 0.0, "b": 1.0, **{v: 1e-100 for v in rays["a"]},
              **{v: 1.0 for v in rays["b"]}}
    tree = materialize(TreeSpec("explicit", edges=tuple(edges)))
    return build_shift(WeightSpec("explicit", values=values), tree)


def test_zero_weight_child_adds_zero_below_an_overflow():
    shift = _zero_weight_over_an_overflow()
    assert moment_sequence(shift, "r", 6, dual=True).values == (1.0,) * 7
    assert moment_sequence(shift, "r", 6).values == (1.0,) * 7


def test_witnesses_with_overflowing_dual_moments_are_left_untested():
    # the first vertex of generations 1..6 lies on the ray of a, whose
    # dual moments overflow; the root's are all 1.0 and still decide
    report = dual_subnormality(_zero_weight_over_an_overflow(), 6)
    assert report.verdict == "consistent"
    assert report.decision_path == "generic-moment-test"
    assert [w["vertex"] for w in report.evidence["witnesses"]] == ["r"]
    assert report.evidence["witnesses"][0]["stieltjes"]["is_stieltjes"]
    assert report.evidence["witnesses_not_finite"] == 6
    assert "witnesses_omitted" not in report.evidence
    assert report.evidence["notes"][-1] == (
        "6 witnesses left untested, their dual moments not finite; the "
        "first is a")


def test_generic_path_refuses_when_no_witness_is_finite():
    tree = materialize(TreeSpec("path", depth=8))
    shift = build_shift(WeightSpec("explicit", values=dict.fromkeys(
        tree.labels[1:], 1e-100)), tree)
    with pytest.raises(DomainError, match="moment sequence values must be "
                                          "finite"):
        dual_subnormality(shift, 6)
