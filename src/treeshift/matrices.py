"""Finite matrix truncations of shifts and matrix-side verification.

A truncation keeps the basis vectors up to a cut depth and represents
the shift as a square matrix in that basis.  Entries involving vectors
near the cut are artifacts; every result here tracks an interior depth
up to which a single application of the matrix agrees exactly with the
operator, and identities are asserted only on interior blocks, shrinking
by one depth level per operator application.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import comb
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

from .errors import (ClassificationError, DomainError,
                     NotLeftInvertibleError, RangeError)
from .moments import TABLE1_ROWS, table1_value
from .shifts import (DEFAULT_TOL, WeightedShift, check_tolerance,
                     classify_adjacency, require_kernel_class,
                     two_isometry_weight)
from .trees import Report, comb_pattern_valency, generation

__all__ = [
    "TruncatedOperator",
    "Table1Report",
    "truncate",
    "defect",
    "dual_matrix",
    "gram_diag",
    "verify_table1",
    "build_brownian_shift",
    "block_shift_from_atoms",
]


@dataclass(frozen=True)
class TruncatedOperator:
    """Square matrix of a shift on the span of basis vectors.

    depths[i] is the depth grading of basis vector i; applying the
    matrix once is exact on vectors supported at depths <=
    interior_depth, so identities involving n applications hold on the
    block of depths <= interior_depth - n.
    """

    matrix: np.ndarray
    basis: tuple[str, ...]
    depths: tuple[int, ...]
    interior_depth: int
    name: str = ""

    def __post_init__(self):
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DomainError(f"matrix must be square, got {m.shape}")
        if len(self.basis) != m.shape[0] or len(self.depths) != m.shape[0]:
            raise DomainError("basis/depths length must match matrix size")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def index(self, label: str) -> int:
        try:
            return self.basis.index(label)
        except ValueError:
            raise DomainError(f"no basis vector labelled {label!r}") from None

    def interior_indices(self, order: int = 0) -> list[int]:
        """Basis indices free of truncation artifacts after `order`
        applications of the operator."""
        top = self.interior_depth - order
        return [i for i, d in enumerate(self.depths) if d <= top]


def _cut(shift: WeightedShift, depth: Optional[int]
         ) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Cut depth (default: materialized), and the depth, parent and
    weight of every basis vertex (-1 and 0 for the root)."""
    tree = shift.tree
    cut = tree.materialized_depth if depth is None else depth
    if cut < 1 or cut > tree.materialized_depth:
        raise RangeError(
            f"cut depth must be in [1, {tree.materialized_depth}], "
            f"got {cut}")
    depths = np.arange(cut + 1).repeat(np.diff(tree.gen_offsets[:cut + 2]))
    parents, edges = tree.links(cut)
    return cut, depths, parents, shift.edge_weights[edges]


def truncate(shift: WeightedShift,
             depth: Optional[int] = None) -> TruncatedOperator:
    """Matrix of the shift on basis vectors of depth <= depth.

    Columns of cut-depth vertices are zero (their children fall outside
    the basis), so the interior depth is depth - 1.  The basis is the
    vertices of the tree, in canonical order.
    """
    cut, depths, parents, weights = _cut(shift, depth)
    m = np.zeros((len(depths), len(depths)))
    m[np.arange(1, len(depths)), parents[1:]] = weights[1:]
    basis = chain.from_iterable(generation(shift.tree, g)
                                for g in range(cut + 1))
    return TruncatedOperator(m, tuple(basis), tuple(depths.tolist()), cut - 1,
                             name=f"truncate({shift.name or 'shift'}, "
                                  f"{cut})")


def defect(op: Union[WeightedShift, TruncatedOperator],
           m: int) -> np.ndarray:
    """Defect matrix sum of (-1)^k C(m,k) (T*)^k T^k, k = 0..m.

    Vanishing of the defect characterizes m-isometries.  The meaningful
    part is the block of rows/columns with depth <= interior_depth - m.
    """
    if m < 1:
        raise DomainError(f"defect order must be >= 1, got {m}")
    trunc = truncate(op) if isinstance(op, WeightedShift) else op
    if m > trunc.interior_depth:
        raise RangeError(
            f"defect order {m} exceeds interior depth "
            f"{trunc.interior_depth}")
    a = trunc.matrix
    out = np.zeros_like(a)
    power = np.eye(trunc.dim)
    for k in range(m + 1):
        out += (-1.0) ** k * comb(m, k) * (power.T @ power)
        if k < m:
            power = a @ power
    return out


def _row_entries(a: np.ndarray
                 ) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """When no row of T has two nonzero entries (the columns have
    disjoint supports, as for any shift on a tree), T*T is exactly
    diagonal: return the column and value of each row's entry (value 0
    in column 0 for an empty row).  Otherwise None."""
    nonzero = a != 0
    if a.size and nonzero.sum(axis=1).max() > 1:
        return None
    col = nonzero.argmax(axis=1)
    return col, a[np.arange(len(a)), col]


def _gram_diagonal(col: np.ndarray, val: np.ndarray) -> np.ndarray:
    """T*T of a matrix whose row i holds val[i] in column col[i]."""
    return np.bincount(col, weights=val * val, minlength=len(col))


def _inverse_gram_diagonal(gram: np.ndarray, depths: np.ndarray,
                           interior_depth: int,
                           label: Callable[[int], str]) -> np.ndarray:
    """Reciprocals of the Gram diagonal, with the eigh path's cutoff;
    a vanishing entry is tolerated only beyond the interior depth
    (``depths[j]`` is the depth of basis vector j, ``label(j)`` its
    name)."""
    cutoff = max(float(gram.max(initial=0.0)), 0.0) * 1e-12 + 1e-300
    small = gram <= cutoff
    inside = np.flatnonzero(small & (depths <= interior_depth))
    if len(inside):
        raise NotLeftInvertibleError(
            f"Gram matrix is singular on the interior (basis "
            f"vector {label(inside.item(0))!r})")
    inv = np.zeros_like(gram)
    np.divide(1.0, gram, out=inv, where=~small)
    return inv


def _dense_dual(trunc: TruncatedOperator) -> tuple[np.ndarray, ...]:
    """T (T*T)^(-1) by one dense eigendecomposition of T*T, inverted on
    its positive eigenspace, with the eigenvalues and eigenvectors."""
    a = trunc.matrix
    eigval, eigvec = np.linalg.eigh(a.T @ a)
    cutoff = max(float(eigval[-1]), 0.0) * 1e-12 + 1e-300
    inv = np.zeros_like(eigval)
    for i, lam in enumerate(eigval):
        if lam > cutoff:
            inv[i] = 1.0 / lam
        else:
            for j in np.flatnonzero(np.abs(eigvec[:, i]) > 1e-8):
                if trunc.depths[j] <= trunc.interior_depth:
                    raise NotLeftInvertibleError(
                        f"Gram matrix is singular on the interior "
                        f"(basis vector {trunc.basis[j]!r})")
    return a @ (eigvec @ np.diag(inv) @ eigvec.T), eigval, eigvec


def dual_matrix(trunc: TruncatedOperator) -> TruncatedOperator:
    """Matrix of the Cauchy dual T (T*T)^(-1) of a truncation.

    When T*T is diagonal (disjoint column supports) the dual is T with
    each column divided by its squared norm.  Otherwise T*T is inverted
    on its positive eigenspace by a dense eigendecomposition.  Either
    way, null directions are tolerated only when supported strictly
    beyond the interior depth (truncation artifacts), otherwise the
    operator is not left invertible.
    """
    a = trunc.matrix
    entries = _row_entries(a)
    if entries is not None:
        dual = a * _inverse_gram_diagonal(
            _gram_diagonal(*entries), np.asarray(trunc.depths),
            trunc.interior_depth, trunc.basis.__getitem__)
    else:
        dual = _dense_dual(trunc)[0]
    return TruncatedOperator(dual, trunc.basis, trunc.depths,
                             trunc.interior_depth,
                             name=f"dual({trunc.name or 'truncation'})")


def gram_diag(trunc: TruncatedOperator, n: int) -> np.ndarray:
    """Diagonal of (T*)^n T^n, i.e. squared norms of T^n on basis
    vectors.  Exact at depths <= interior_depth - n + 1."""
    if n < 0:
        raise DomainError(f"power must be >= 0, got {n}")
    if n > trunc.interior_depth:
        raise RangeError(
            f"power {n} exceeds interior depth {trunc.interior_depth}")
    p = np.linalg.matrix_power(trunc.matrix, n)
    return np.einsum("ij,ij->j", p, p)


@dataclass(frozen=True)
class Table1Report(Report):
    """Per-order comparison of dual power norms against a closed form."""

    row: str
    holds: bool
    max_abs_error: float
    nmax: int
    tolerance: float
    checked: int
    verified_depth: int
    per_order: tuple[tuple[int, float, int], ...]
    note: str = ""


def _require_row_membership(shift: WeightedShift, row: str,
                            tol: float) -> str:
    if row == "kernel":
        require_kernel_class(shift, 0, tol, "row 'kernel' needs")
        return "sibling-constant expansive shift"
    if not shift.is_adjacency:
        raise ClassificationError(
            f"row {row!r} applies to adjacency shifts (all weights 1)")
    cls = classify_adjacency(shift.tree, tol)
    if row == "quasi_brownian":
        if not cls.quasi_brownian_isometry.holds:
            raise ClassificationError(
                "row 'quasi_brownian' needs a quasi-Brownian adjacency "
                f"shift; witness {cls.quasi_brownian_isometry.witness}")
        return "quasi-Brownian adjacency shift"
    valency = comb_pattern_valency(shift.tree)
    if valency is None:
        raise ClassificationError(
            "row 'adjacency_pattern' needs a comb-pattern tree")
    return f"comb-pattern adjacency shift of valency {valency}"


def _table1_of_gram(row: str, gram: np.ndarray
                    ) -> Callable[[int], np.ndarray]:
    """n -> the row's r_n at each Gram eigenvalue; values <= 0.5 are
    truncation artifacts and map to r_n(0) = [n == 0].  The eigenvalues
    are sorted once, not once per order."""
    values, where = np.unique(gram, return_inverse=True)
    where = where.reshape(-1)
    genuine = (values > 0.5).tolist()

    def at(n: int) -> np.ndarray:
        table = np.array([table1_value(row, lam, n) if live
                          else (1.0 if n == 0 else 0.0)
                          for lam, live in zip(values.tolist(), genuine)])
        return table[where]
    return at


# Both per-order generators yield (max |lhs - rhs| on the interior
# block, max |rhs| on it, block size) for n = 0..nmax.

def _table1_orders_dense(trunc: TruncatedOperator, row: str, nmax: int
                         ) -> Iterator[tuple[float, float, int]]:
    dual, eigval, eigvec = _dense_dual(trunc)
    r_n = _table1_of_gram(row, eigval)
    power = np.eye(trunc.dim)
    for n in range(nmax + 1):
        if n > 0:
            power = dual @ power
        rhs = eigvec @ np.diag(r_n(n)) @ eigvec.T
        idx = trunc.interior_indices(n)
        if not idx:
            yield 0.0, 0.0, 0
            continue
        block = np.ix_(idx, idx)
        yield (float(np.max(np.abs((power.T @ power)[block] - rhs[block]))),
               float(np.max(np.abs(rhs[block]))), len(idx))


def _table1_orders_diagonal(row: str, nmax: int, col: np.ndarray,
                            val: np.ndarray, depths: np.ndarray,
                            interior_depth: int,
                            label: Callable[[int], str]
                            ) -> Iterator[tuple[float, float, int]]:
    """Row i of T holds its one entry, val[i], in column col[i] (value 0
    for an empty row); basis vector i has depth depths[i] and name
    label(i)."""
    dim = len(col)
    gram = _gram_diagonal(col, val)
    dual_val = val * _inverse_gram_diagonal(gram, depths, interior_depth,
                                            label)[col]
    r_n = _table1_of_gram(row, gram)
    # Row i of the n-th dual power holds its one entry, power_val[i], in
    # column power_col[i]; (T')^n* (T')^n is then exactly diagonal.
    power_col, power_val = np.arange(dim), np.ones(dim)
    for n in range(nmax + 1):
        if n > 0:
            power_col, power_val = power_col[col], dual_val * power_val[col]
        inside = depths <= interior_depth - n
        if not inside.any():
            yield 0.0, 0.0, 0
            continue
        lhs = np.bincount(power_col, weights=power_val * power_val,
                          minlength=dim)
        rhs = r_n(n)[inside]
        yield (float(np.abs(lhs[inside] - rhs).max()),
               float(np.abs(rhs).max()), int(inside.sum()))


def _shift_orders(shift: WeightedShift, row: str, nmax: int,
                  depth: Optional[int]
                  ) -> tuple[int, Iterator[tuple[float, float, int]]]:
    """Interior depth and per-order generator of ``truncate(shift,
    depth)``, read as index arrays: row i holds weight_array[i] in column
    parents[i], or 0 in column 0 for the root and zero weights, as
    ``_row_entries`` reads the matrix.  No V x V matrix is built."""
    cut, depths, parents, val = _cut(shift, depth)
    if nmax > cut - 1:
        raise RangeError(f"nmax {nmax} exceeds interior depth {cut - 1}")
    col = np.where(val != 0.0, parents, 0)
    return cut - 1, _table1_orders_diagonal(row, nmax, col, val, depths,
                                            cut - 1, shift.tree.label)


def verify_table1(op: Union[WeightedShift, TruncatedOperator], row: str,
                  nmax: int = 8, depth: Optional[int] = None,
                  tol: float = DEFAULT_TOL) -> Table1Report:
    """Check the closed-form identity (T')* ^n (T')^n = r_n(T*T) on the
    interior blocks of a truncation, order by order.

    When no row of T has two nonzero entries (every shift on a tree),
    T*T is diagonal, the dual is a column scaling of T, each dual power
    keeps one entry per row and is composed index by index in O(dim),
    and r_n(T*T) is r_n of the diagonal.  A weighted shift is read this
    way straight from its parent and weight arrays, in O(V) time and
    memory, and gives the same report as ``truncate(shift, depth)``
    apart from ``note``.  Otherwise the left side comes from repeated
    dense multiplication of the dual matrix and the right side from the
    spectral decomposition of T*T.  Either way r_n is applied to Gram
    eigenvalues above 0.5 (truncation artifacts contribute spurious zero
    eigenvalues; genuine Gram eigenvalues of the covered classes are
    >= 1).  For weighted shifts the class membership matching the row is
    verified first.
    """
    tol = check_tolerance(tol)
    if row not in TABLE1_ROWS:
        raise DomainError(
            f"unknown row {row!r}; expected one of {list(TABLE1_ROWS)}")
    if nmax < 1:
        raise DomainError(f"nmax must be >= 1, got {nmax}")
    note = ""
    if isinstance(op, WeightedShift):
        note = _require_row_membership(op, row, tol)
        interior, orders = _shift_orders(op, row, nmax, depth)
    else:
        interior = op.interior_depth
        if nmax > interior:
            raise RangeError(
                f"nmax {nmax} exceeds interior depth {interior}")
        entries = _row_entries(op.matrix)
        orders = (_table1_orders_dense(op, row, nmax) if entries is None
                  else _table1_orders_diagonal(
                      row, nmax, *entries, np.asarray(op.depths),
                      interior, op.basis.__getitem__))
    max_err = 0.0
    scale = 1.0
    checked = 0
    per_order: list[tuple[int, float, int]] = []
    for n, (err, rhs_max, size) in enumerate(orders):
        max_err = max(max_err, err)
        scale = max(scale, rhs_max)
        checked += size
        per_order.append((n, err, size))
    holds = max_err <= tol * (1.0 + scale)
    return Table1Report(row, holds, max_err, nmax, tol, checked,
                        interior, tuple(per_order), note)


def build_brownian_shift(sigma: float, size: int) -> TruncatedOperator:
    """Truncated two-block expansion: a ray v_0..v_(size-1) shifted one
    step per application, plus a fixed direction c with image
    sigma * v_0 + c.  The Gram matrix is diag(1, ..., 1, 1 + sigma^2)
    up to the cut artifact, and the defect T*T - I has rank one."""
    if sigma <= 0.0:
        raise DomainError(f"sigma must be > 0, got {sigma}")
    if size < 4:
        raise RangeError(f"size must be >= 4, got {size}")
    basis = tuple(f"v{i}" for i in range(size)) + ("c",)
    depths = tuple(range(size)) + (0,)
    m = np.zeros((size + 1, size + 1))
    for i in range(size - 1):
        m[i + 1, i] = 1.0
    m[0, size] = sigma
    m[size, size] = 1.0
    return TruncatedOperator(m, basis, depths, size - 2,
                             name=f"brownian(sigma={sigma}, size={size})")


def block_shift_from_atoms(atoms: Sequence[tuple[float, int]], size: int
                           ) -> tuple[TruncatedOperator,
                                      tuple[float, ...]]:
    """Orthogonal sum of expansive unilateral shifts, one block per
    atom copy: the atom (x, m) contributes m components with weight
    sequence two_isometry_weight(n, x).

    Returns the block operator together with the decomposition multiset
    (the component labels x, one per copy, sorted) — the complete datum
    the unitary-equivalence comparison consumes.
    """
    if size < 2:
        raise RangeError(f"size must be >= 2, got {size}")
    cleaned: list[tuple[float, int]] = []
    for x, mult in atoms:
        x = float(x)
        if x < 1.0:
            raise DomainError(f"atom location {x} < 1")
        if mult < 1:
            raise DomainError(f"multiplicity {mult} < 1")
        cleaned.append((x, int(mult)))
    if len({x for x, _ in cleaned}) != len(cleaned):
        raise DomainError("atom locations must be distinct")
    labels: list[str] = []
    depths: list[int] = []
    weights: list[list[float]] = []
    decomposition: list[float] = []
    for j, (x, mult) in enumerate(sorted(cleaned)):
        for c in range(mult):
            decomposition.append(x)
            labels.extend(f"a{j}c{c}:g{n}" for n in range(size + 1))
            depths.extend(range(size + 1))
            weights.append([two_isometry_weight(n, x) for n in range(size)])
    dim = len(labels)
    m = np.zeros((dim, dim))
    offset = 0
    for comp in weights:
        for n, w in enumerate(comp):
            m[offset + n + 1, offset + n] = w
        offset += size + 1
    trunc = TruncatedOperator(m, tuple(labels), tuple(depths), size - 1,
                              name=f"block sum of {len(weights)} "
                                   f"expansive shifts")
    return trunc, tuple(decomposition)
