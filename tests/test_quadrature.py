"""The Gauss-Jacobi rule behind ReciprocalLinearResult.sampled_measure.

The pinned rules in data/roots_jacobi_64.json were computed by
scipy.special.roots_jacobi(64, 0.0, beta), the routine the package used
before it computed the rule itself."""
import json
import math
import pathlib
import warnings

import numpy as np
import pytest

from treeshift.errors import DomainError
from treeshift.moments import DiscreteMeasure, reciprocal_linear_moments

_PINNED = json.loads((pathlib.Path(__file__).parent / "data"
                      / "roots_jacobi_64.json").read_text())["rules"]


def _atoms(measure):
    locs, masses = zip(*measure.atoms)
    return np.array(locs), np.array(masses)


def _moments(locs, masses, nmax=30):
    return np.array([masses @ locs ** n for n in range(nmax + 1)])


@pytest.mark.parametrize("beta", sorted(_PINNED, key=float))
def test_rule_matches_the_pinned_nodes_and_weights(beta):
    # density t^beta on [0, 1]: a = beta + 1 with b = 1
    rule = _PINNED[beta]
    x, w = np.array(rule["x"]), np.array(rule["w"])
    b = 1.0
    locs, masses = _atoms(reciprocal_linear_moments(
        float(beta) + 1.0, b, 30).sampled_measure(64))
    assert len(locs) == 64
    assert np.abs(2.0 * locs - 1.0 - x).max() <= 1e-15
    pinned = _moments((1.0 + x) / 2.0, w / (b * 2.0 ** (float(beta) + 1.0)))
    rel = np.abs(_moments(locs, masses) - pinned) / pinned
    assert rel.max() <= 1e-12


# (1, 1e-9): some masses underflow to 0, and such a node is no atom
@pytest.mark.parametrize("a,b", [(1.0, 1e-4), (2000.0, 1.0), (1.0, 1e-9)])
def test_large_beta_without_overflow(a, b):
    # beta = a/b - 1 is above 1023, where 2^(beta+1) overflows a float
    result = reciprocal_linear_moments(a, b, 30)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        locs, masses = _atoms(result.sampled_measure())
    n = np.arange(31)
    rel = np.abs(_moments(locs, masses) * (a + b * n) - 1.0)
    assert rel.max() <= 1e-12


def test_sampled_measure_needs_a_node():
    with pytest.raises(DomainError, match="nodes must be >= 1"):
        reciprocal_linear_moments(1.0, 1.0, 6).sampled_measure(0)


@pytest.mark.parametrize("atom", [(math.nan, 1.0), (1.0, math.nan),
                                  (math.inf, 1.0), (1.0, math.inf)])
def test_atoms_are_finite(atom):
    # a/b = 1e300/1e-300 overflows to beta = inf, and the rule's NaN
    # node was kept as an atom
    with pytest.raises(DomainError, match="must be finite"):
        DiscreteMeasure([atom])
