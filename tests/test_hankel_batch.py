"""The stacked Stieltjes test against the one-block-at-a-time loop it
replaced: same verdicts, same failing orders, bit-identical extremal
values."""
import math
from typing import Optional

import numpy as np
from hypothesis import given, settings, strategies as st

from treeshift import (DEFAULT_TOL, DiscreteMeasure, MomentVerdict,
                       TreeSpec, WeightSpec, build_shift, dual_subnormality,
                       materialize, moment_sequence, stieltjes_test)
from treeshift.moments import _hankel_scan, _stieltjes_dicts

TOLS = (DEFAULT_TOL, 1e-12, 1e-6)


def _oracle(gamma, tol):
    """The scalar loop: one eigvalsh per order, per shift, per sequence."""
    nn = len(gamma) - 1
    threshold = -tol * (1.0 + max(abs(g) for g in gamma))
    worst = math.inf
    failing: Optional[int] = None
    p_top = nn // 2
    for p in range(p_top + 1):
        for shiftby in (0, 1):
            top = 2 * p + shiftby
            if top > nn:
                continue
            h = np.array([[gamma[i + j + shiftby] for j in range(p + 1)]
                          for i in range(p + 1)])
            low = float(np.linalg.eigvalsh(h)[0])
            worst = min(worst, low)
            if low < threshold and failing is None:
                failing = p
        if failing is not None:
            break
    return MomentVerdict(
        is_stieltjes=failing is None,
        failing_order=failing,
        extremal_value=worst,
        detail=f"Hankel orders 0..{p_top}, threshold {threshold:.3e}")


def _fields(v: MomentVerdict):
    return (v.is_stieltjes, v.failing_order, v.extremal_value, v.detail)


def _stieltjes_batch(seqs, tol):
    """Verdicts of one ``_hankel_scan`` over the zero-padded table of
    several sequences."""
    caps = [len(s) - 1 for s in seqs]
    rows = np.zeros((len(seqs), max(caps) + 1))
    for row, s in zip(rows, seqs):
        row[:len(s)] = s
    scan = _hankel_scan(rows, caps, tol)
    return [MomentVerdict(**d)
            for d in _stieltjes_dicts(scan, caps, range(len(seqs)))]


def _assert_matches_oracle(seqs, tol):
    batch = _stieltjes_batch(seqs, tol)
    assert len(batch) == len(seqs)
    for seq, verdict in zip(seqs, batch):
        expected = _fields(_oracle(seq, tol))
        assert _fields(verdict) == expected
        assert _fields(stieltjes_test(seq, tol)) == expected


atoms = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=3.0),
              st.floats(min_value=0.01, max_value=1.0)),
    min_size=1, max_size=6, unique_by=lambda t: t[0])


@st.composite
def sequences(draw):
    """Moments of a random measure, the same with one entry perturbed,
    or a random positive list; 3 to 31 entries."""
    length = draw(st.integers(min_value=3, max_value=31))
    kind = draw(st.sampled_from(("measure", "perturbed", "positive")))
    if kind == "positive":
        return tuple(draw(st.lists(
            st.floats(min_value=1e-3, max_value=1e3),
            min_size=length, max_size=length)))
    values = list(DiscreteMeasure(draw(atoms)).moments(length - 1).values)
    if kind == "perturbed":
        i = draw(st.integers(min_value=0, max_value=length - 1))
        values[i] *= draw(st.sampled_from((1 - 1e-9, 1 + 1e-6, 0.5, 2.0,
                                           -1.0)))
    return tuple(values)


@settings(max_examples=80, deadline=None)
@given(st.lists(sequences(), min_size=1, max_size=8), st.sampled_from(TOLS))
def test_batch_matches_scalar_oracle(seqs, tol):
    _assert_matches_oracle(seqs, tol)


def test_failure_first_seen_in_the_shifted_block():
    # atoms at -1 and 2: a Hamburger but not a Stieltjes moment sequence,
    # so every [gamma_(i+j)] block is PSD and [gamma_(i+j+1)] fails at 1
    gamma = tuple((-1.0) ** n + 2.0 ** n for n in range(9))
    assert np.linalg.eigvalsh(
        np.array([[gamma[0], gamma[1]], [gamma[1], gamma[2]]]))[0] > 0
    verdict = stieltjes_test(gamma)
    assert verdict.failing_order == 1
    assert verdict.extremal_value < 0
    for tol in TOLS:
        _assert_matches_oracle([gamma], tol)


def test_rows_with_different_caps_in_one_batch():
    mu = DiscreteMeasure([(0.5, 0.3), (1.5, 0.2), (2.5, 0.5)])
    seqs = [mu.moments(n).values for n in (2, 3, 8, 17, 30)]
    seqs.append((1.0, 2.0, 1.0, 2.0, 5.0))  # fails at order 1
    seqs.append(tuple(1.0 / (n + 1) for n in range(25)))
    verdicts = _stieltjes_batch(seqs, DEFAULT_TOL)
    assert [v.detail.split(",")[0] for v in verdicts] == [
        "Hankel orders 0..1", "Hankel orders 0..1", "Hankel orders 0..4",
        "Hankel orders 0..8", "Hankel orders 0..15", "Hankel orders 0..2",
        "Hankel orders 0..12"]
    assert verdicts[5].failing_order == 1
    for tol in TOLS:
        _assert_matches_oracle(seqs, tol)


def test_row_with_cap_two():
    # order 1 has only its unshifted block; here that block fails
    for gamma in ((1.0, 0.5, 0.3), (1.0, 2.0, 1.0)):
        for tol in TOLS:
            _assert_matches_oracle([gamma], tol)
            _assert_matches_oracle([gamma, (1.0, 0.5, 0.25, 0.125)], tol)
    assert stieltjes_test((1.0, 2.0, 1.0)).failing_order == 1


def test_treiso_generic_evidence_matches_oracle_witness_by_witness():
    path = materialize(TreeSpec("path", depth=64))
    shift = build_shift(WeightSpec("treiso"), path)
    report = dual_subnormality(shift, nmax=30)
    assert report.decision_path == "generic-moment-test"
    witnesses = report.evidence["witnesses"]
    assert len(witnesses) == 62
    for w in witnesses:
        seq = moment_sequence(shift, w["vertex"], w["nmax"], dual=True)
        expected = _oracle(seq.values, DEFAULT_TOL)
        got = w["stieltjes"]
        assert (got["is_stieltjes"], got["failing_order"],
                got["extremal_value"], got["detail"]) == _fields(expected)
