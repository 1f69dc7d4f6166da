"""The generic decision path's evidence against the scalar Stieltjes
oracle of test_hankel_batch, witness by witness and bit for bit."""
import pytest
from hypothesis import assume, given, settings, strategies as st

from treeshift import (TreeSpec, WeightSpec, build_shift, comb_tree_spec,
                       dual_subnormality, materialize, moment_sequence,
                       stieltjes_test)
from test_hankel_batch import TOLS, _fields, _oracle


def _bits(fields):
    """Verdict fields with the extremal value as its exact bits."""
    is_stieltjes, failing_order, extremal_value, detail = fields
    return is_stieltjes, failing_order, extremal_value.hex(), detail


@pytest.mark.parametrize("gamma", [
    # least eigenvalues 1.0 and 0.0 at order 0, -0.0 at order 1: min
    # keeps 0.0, the first of the equal values
    (1.0, 0.0, -0.0),
    (1.0, -0.0, 0.0),
    (0.0, -0.0, 0.0, 0.5),
    (-0.0, 0.0, 0.0, -0.0, 0.0),
])
def test_signed_zero_least_eigenvalues_keep_the_first(gamma):
    assert _bits(_fields(stieltjes_test(gamma))) == _bits(
        _fields(_oracle(gamma, TOLS[0])))


@st.composite
def random_shifts(draw):
    """A path or a comb tree with explicit weights in U(0.6, 1.4)."""
    if draw(st.booleans()):
        spec = TreeSpec("path", depth=draw(st.integers(2, 40)))
    else:
        spec = comb_tree_spec(draw(st.integers(2, 4)),
                              draw(st.integers(2, 14)))
    tree = materialize(spec)
    weights = draw(st.lists(st.floats(0.6, 1.4),
                            min_size=tree.vertex_count - 1,
                            max_size=tree.vertex_count - 1))
    return build_shift(WeightSpec("explicit", values=dict(
        zip(tree.labels[1:], weights))), tree)


@settings(max_examples=60, deadline=None)
@given(random_shifts(), st.integers(0, 30), st.sampled_from(TOLS))
def test_generic_evidence_matches_oracle_on_random_weights(shift, nmax, tol):
    report = dual_subnormality(shift, nmax, tol)
    assume(report.decision_path == "generic-moment-test")
    witnesses = report.evidence["witnesses"]
    for w in witnesses:
        seq = moment_sequence(shift, w["vertex"], w["nmax"], dual=True)
        got = w["stieltjes"]
        assert got["is_hausdorff"] is None
        assert _bits((got["is_stieltjes"], got["failing_order"],
                      got["extremal_value"], got["detail"])) == _bits(
            _fields(_oracle(seq.values, tol)))
    failed = [w for w in witnesses if not w["stieltjes"]["is_stieltjes"]]
    assert report.conclusive == bool(failed)
    if failed:
        assert f"at {failed[0]['vertex']} fails" in report.statement


def test_no_witness_reaches_order_one():
    # depth 2 leaves the root moments 0..1 only, and nmax 1 leaves every
    # witness of a deeper tree short of them
    for depth, nmax in ((2, 30), (12, 1)):
        tree = materialize(comb_tree_spec(3, depth))
        shift = build_shift(WeightSpec("explicit", values=dict.fromkeys(
            tree.labels[1:], 0.9)), tree)
        report = dual_subnormality(shift, nmax)
        assert report.decision_path == "generic-moment-test"
        assert report.verdict == "consistent"
        assert report.evidence["witnesses"] == []
        assert "witnesses_omitted" not in report.evidence
        assert "no dual sequence was tested" in report.statement
