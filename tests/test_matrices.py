"""Matrix oracle: truncations, defects, duals, closed-form row checks."""
import math

import numpy as np
import pytest

from treeshift import (ClassificationError, DomainError,
                       NotLeftInvertibleError, RangeError, TreeSpec,
                       WeightSpec, block_shift_from_atoms,
                       build_brownian_shift, build_shift, cauchy_dual,
                       comb_tree_spec, defect,
                       dual_matrix, generation, gram_diag,
                       materialize, moment_sequence, truncate, verify_table1)

SQRT2 = math.sqrt(2.0)


def _catalog_two_isometries():
    yield build_shift(WeightSpec("dirichlet"),
                      materialize(TreeSpec("path", depth=24)))
    yield build_shift(WeightSpec("glowny", y1=1.1, y2=1.3),
                      materialize(TreeSpec("t_eta_kappa", eta=2, depth=12)))
    yield build_shift(WeightSpec("adjacency"),
                      materialize(comb_tree_spec(3, 10)))
    yield build_shift(WeightSpec("adjacency"),
                      materialize(TreeSpec("quasi_brownian", valency=3,
                                           depth=10)))
    yield build_shift(WeightSpec("kernel_condition", x=1.3),
                      materialize(TreeSpec("t_eta_kappa", eta=2, depth=12)))


# ---------------------------------------------------------------------------
# truncation basics
# ---------------------------------------------------------------------------

def test_truncate_shape_and_interior():
    tree = materialize(TreeSpec("t_eta_kappa", eta=2, depth=6))
    shift = build_shift(WeightSpec("adjacency"), tree)
    trunc = truncate(shift)
    assert trunc.dim == tree.vertex_count
    assert trunc.interior_depth == 5
    # columns at the cut depth are zeroed
    for i, d in enumerate(trunc.depths):
        col = trunc.matrix[:, i]
        if d == 6:
            assert not col.any()
        else:
            assert col.any()
    shallow = truncate(shift, depth=3)
    assert shallow.interior_depth == 2
    assert shallow.dim == sum(len(g) for g in tree.generations()[:4])
    with pytest.raises(RangeError):
        truncate(shift, depth=0)
    with pytest.raises(RangeError):
        truncate(shift, depth=7)


def test_matrix_reproduces_weights():
    tree = materialize(TreeSpec("t_eta_kappa", eta=2, depth=5))
    shift = build_shift(WeightSpec("kernel_condition", x=1.2), tree)
    trunc = truncate(shift)
    for g in range(5):
        for u in generation(tree, g):
            for v in tree.children_of(u):
                assert trunc.matrix[trunc.index(v), trunc.index(u)] == \
                    pytest.approx(shift.weight(v), abs=0)


# ---------------------------------------------------------------------------
# dual operator laws
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("idx", range(5))
def test_dual_operator_laws(idx):
    shift = list(_catalog_two_isometries())[idx]
    trunc = truncate(shift)
    dual = dual_matrix(trunc)
    a, d = trunc.matrix, dual.matrix
    interior = trunc.interior_indices()
    eye = np.eye(trunc.dim)

    # left inverse: T* T' = I on interior columns
    lhs = a.T @ d
    assert np.max(np.abs((lhs - eye)[np.ix_(interior, interior)])) < 1e-10

    # T' T* is the orthogonal projection onto the range of T
    p = d @ a.T
    assert np.max(np.abs(p - p.T)) < 1e-10
    assert np.max(np.abs((p @ p - p)[np.ix_(interior, interior)])) < 1e-10
    # fixes the columns of T
    assert np.max(np.abs((p @ a - a)[:, interior])) < 1e-10

    # T'* T' = (T* T)^(-1) on the interior block
    gram = a.T @ a
    dual_gram = d.T @ d
    sub = np.ix_(interior, interior)
    inv = np.linalg.inv(gram[sub])
    assert np.max(np.abs(dual_gram[sub] - inv)) < 1e-10


def test_dual_matrix_matches_dual_weights():
    shift = build_shift(WeightSpec("glowny", y1=1.1, y2=1.3),
                        materialize(TreeSpec("t_eta_kappa", eta=2, depth=10)))
    trunc = truncate(shift)
    dmat = dual_matrix(trunc)
    dual = cauchy_dual(shift)
    tree = shift.tree
    for g in range(1, trunc.interior_depth + 1):
        for v in generation(tree, g):
            got = dmat.matrix[dmat.index(v), dmat.index(tree.parent_of(v))]
            assert got == pytest.approx(dual.weight(v), abs=1e-10)


def test_dual_matrix_rejects_interior_kernel():
    tree = materialize(TreeSpec("path", depth=5))
    ids = list(tree.ids())
    w = {v: 1.0 for v in ids[1:]}
    w[ids[2]] = 0.0
    trunc = truncate(build_shift(WeightSpec("explicit", values=w), tree))
    with pytest.raises(NotLeftInvertibleError):
        dual_matrix(trunc)


# ---------------------------------------------------------------------------
# defect operators
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [2, 3, 4])
def test_defect_vanishes_for_expansive_catalog(m):
    for shift in _catalog_two_isometries():
        trunc = truncate(shift)
        b = defect(trunc, m)
        idx = trunc.interior_indices(m)
        assert np.max(np.abs(b[np.ix_(idx, idx)])) < 1e-9, shift.name


def test_defect_guards():
    shift = build_shift(WeightSpec("dirichlet"),
                        materialize(TreeSpec("path", depth=8)))
    trunc = truncate(shift)
    with pytest.raises(DomainError):
        defect(trunc, 0)
    with pytest.raises(RangeError):
        defect(trunc, trunc.interior_depth + 1)
    # WeightedShift accepted directly
    b2 = defect(shift, 2)
    idx = trunc.interior_indices(2)
    assert np.max(np.abs(b2[np.ix_(idx, idx)])) < 1e-10


def test_defect_order_three_no_less():
    shift = build_shift(WeightSpec("treiso"),
                        materialize(TreeSpec("path", depth=32)))
    trunc = truncate(shift)
    b3 = defect(trunc, 3)
    i3 = trunc.interior_indices(3)
    assert np.max(np.abs(b3[np.ix_(i3, i3)])) < 1e-10
    b2 = defect(trunc, 2)
    i2 = trunc.interior_indices(2)
    assert np.max(np.abs(b2[np.ix_(i2, i2)])) > 1e-2


def test_agler_probes():
    # nonnegative hereditary sums for the dual of the expansive ladder
    dirichlet = build_shift(WeightSpec("dirichlet"),
                            materialize(TreeSpec("path", depth=32)))
    dual = dual_matrix(truncate(dirichlet))
    for m in range(1, 7):
        b = defect(dual, m)
        assert b[0, 0] >= -1e-10
    # the cubic expansive ladder fails the first dual probe of order 4
    treiso = build_shift(WeightSpec("treiso"),
                         materialize(TreeSpec("path", depth=32)))
    dual_t = dual_matrix(truncate(treiso))
    b4 = defect(dual_t, 4)
    assert b4[0, 0] == pytest.approx(-12.0 / 85.0, abs=1e-12)


# ---------------------------------------------------------------------------
# first-order characterization column test
# ---------------------------------------------------------------------------

def test_first_order_identity_columns():
    # T' - 2T + T*T^2 annihilates basis vectors exactly for the
    # sibling-constant expansive class
    for spec, tree_spec in (
            (WeightSpec("dirichlet"), TreeSpec("path", depth=16)),
            (WeightSpec("kernel_condition", x=1.3),
             TreeSpec("t_eta_kappa", eta=2, depth=12))):
        shift = build_shift(spec, materialize(tree_spec))
        trunc = truncate(shift)
        a = trunc.matrix
        m = dual_matrix(trunc).matrix - 2 * a + a.T @ a @ a
        for i in trunc.interior_indices(1):
            assert np.linalg.norm(m[:, i]) < 1e-9

    glowny = build_shift(WeightSpec("glowny", y1=1.1, y2=1.3),
                         materialize(TreeSpec("t_eta_kappa", eta=2,
                                              depth=12)))
    trunc = truncate(glowny)
    a = trunc.matrix
    m = dual_matrix(trunc).matrix - 2 * a + a.T @ a @ a
    root_col = m[:, trunc.index(glowny.tree.root)]
    assert np.linalg.norm(root_col) >= 0.1
    # away from the root the identity is restored
    k1 = glowny.tree.children_of(glowny.tree.root)[0]
    assert np.linalg.norm(m[:, trunc.index(k1)]) < 1e-9


# ---------------------------------------------------------------------------
# gram diagonals
# ---------------------------------------------------------------------------

def test_gram_diag_matches_moments_and_off_diagonals_vanish():
    shift = build_shift(WeightSpec("glowny", y1=1.1, y2=1.3),
                        materialize(TreeSpec("t_eta_kappa", eta=2, depth=10)))
    trunc = truncate(shift)
    tree = shift.tree
    for n in (1, 2, 3):
        diag = gram_diag(trunc, n)
        power = np.linalg.matrix_power(trunc.matrix, n)
        full = power.T @ power
        idx = trunc.interior_indices(n)
        off = full[np.ix_(idx, idx)] - np.diag(np.diag(full))[np.ix_(idx,
                                                                     idx)]
        assert np.max(np.abs(off)) < 1e-12
        for g in range(trunc.interior_depth - n + 1):
            for u in generation(tree, g):
                seq = moment_sequence(shift, u, n)
                assert diag[trunc.index(u)] == pytest.approx(seq[n],
                                                             rel=1e-12)
    with pytest.raises(DomainError):
        gram_diag(trunc, -1)
    with pytest.raises(RangeError):
        gram_diag(trunc, trunc.interior_depth + 1)


# ---------------------------------------------------------------------------
# closed-form row verification
# ---------------------------------------------------------------------------

def test_verify_table1_kernel_row():
    shift = build_shift(WeightSpec("kernel_condition", x=1.3),
                        materialize(TreeSpec("t_eta_kappa", eta=2, depth=14)))
    rep = verify_table1(shift, "kernel", nmax=8)
    assert rep.holds
    assert rep.max_abs_error < 1e-9
    assert rep.nmax == 8
    assert len(rep.per_order) == 9  # orders 0 through nmax


def test_verify_table1_membership_guards():
    bergman = build_shift(WeightSpec("bergman_dual"),
                          materialize(TreeSpec("path", depth=12)))
    with pytest.raises(ClassificationError):
        verify_table1(bergman, "kernel")
    comb = build_shift(WeightSpec("adjacency"), materialize(comb_tree_spec(3, 10)))
    with pytest.raises(ClassificationError):
        verify_table1(comb, "quasi_brownian")
    qb = build_shift(WeightSpec("adjacency"),
                     materialize(TreeSpec("quasi_brownian", valency=3,
                                          depth=10)))
    with pytest.raises(ClassificationError):
        verify_table1(qb, "adjacency_pattern")
    with pytest.raises(DomainError):
        verify_table1(comb, "no-such-row")
    with pytest.raises(RangeError):
        verify_table1(comb, "adjacency_pattern", nmax=20)


def test_verify_table1_both_rows_on_valency_two_comb():
    shift = build_shift(WeightSpec("adjacency"),
                        materialize(comb_tree_spec(2, 12)))
    pattern = verify_table1(shift, "adjacency_pattern", nmax=8)
    quasi = verify_table1(shift, "quasi_brownian", nmax=8)
    assert pattern.holds and quasi.holds


def test_verify_table1_depth_override():
    shift = build_shift(WeightSpec("adjacency"),
                        materialize(comb_tree_spec(3, 14)))
    rep = verify_table1(shift, "adjacency_pattern", nmax=6, depth=10)
    assert rep.holds
    assert rep.verified_depth == 9


# ---------------------------------------------------------------------------
# block constructions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
def test_brownian_block(sigma):
    trunc = build_brownian_shift(sigma, 32)
    assert trunc.dim == 33
    assert trunc.basis[-1] == "c"
    rep = verify_table1(trunc, "quasi_brownian", nmax=8)
    assert rep.holds and rep.max_abs_error < 1e-9
    b2 = defect(trunc, 2)
    idx = trunc.interior_indices(2)
    assert np.max(np.abs(b2[np.ix_(idx, idx)])) < 1e-10
    with pytest.raises(DomainError):
        build_brownian_shift(0.0, 32)
    with pytest.raises(RangeError):
        build_brownian_shift(1.0, 3)


def test_block_shift_from_atoms():
    trunc, decomposition = block_shift_from_atoms(
        [(SQRT2, 1), (1.2, 2)], 12)
    assert sorted(decomposition) == sorted((1.2, 1.2, SQRT2))
    # the block is expansive with the sibling-constant property per copy
    b2 = defect(trunc, 2)
    idx = trunc.interior_indices(2)
    assert np.max(np.abs(b2[np.ix_(idx, idx)])) < 1e-10
    # block-diagonal: no cross terms between copies
    gram = trunc.matrix.T @ trunc.matrix
    labels = trunc.basis
    for i, li in enumerate(labels):
        for j, lj in enumerate(labels):
            if li.split(":")[0] != lj.split(":")[0]:
                assert gram[i, j] == 0.0
    with pytest.raises(DomainError):
        block_shift_from_atoms([(0.9, 1)], 8)
    with pytest.raises(DomainError):
        block_shift_from_atoms([(1.2, 1), (1.2, 1)], 8)
    with pytest.raises(RangeError):
        block_shift_from_atoms([(1.2, 1)], 1)
