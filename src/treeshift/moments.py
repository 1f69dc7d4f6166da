"""Moment sequences of shifts and their Cauchy duals.

The n-th moment of a shift at a vertex u is the squared norm of the n-th
power applied to the basis vector at u.  For the dual of an expansive
shift these sequences decide subnormality: they must be moment sequences
of a positive measure on [0, infinity) (Stieltjes).  This module computes
the sequences by exact recurrence, evaluates the known closed forms,
tests the Stieltjes/Hausdorff conditions by Hankel positivity and
complete monotonicity, handles backward extension of atomic measures, and
drives the full decision procedure with its fast analytic paths.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .errors import DomainError, NotLeftInvertibleError, RangeError
from .shifts import (DEFAULT_TOL, WeightedShift, cauchy_dual_weights,
                     check_tolerance, classify_adjacency, is_two_isometry,
                     require_kernel_class, satisfies_kernel_condition,
                     vertex_norm)
from .trees import Report, comb_pattern_valency

__all__ = [
    "MomentSequence",
    "DiscreteMeasure",
    "MomentVerdict",
    "ReciprocalLinearResult",
    "SubnormalityReport",
    "moment_sequence",
    "closed_form_table1",
    "perturbed_kernel_dual_moment",
    "stieltjes_test",
    "hausdorff_test",
    "reciprocal_linear_moments",
    "backward_extension",
    "dual_subnormality",
]


_NOT_FINITE = "moment sequence values must be finite"


@dataclass(frozen=True)
class MomentSequence:
    """A finite moment prefix gamma_0..gamma_N with provenance text."""

    values: tuple[float, ...]
    source: str = ""

    def __post_init__(self):
        if not self.values:
            raise DomainError("moment sequence must contain gamma_0")
        if not all(map(math.isfinite, self.values)):
            raise DomainError(_NOT_FINITE)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> float:
        return self.values[i]


_SequenceLike = Union[MomentSequence, Sequence[float]]


def _values(seq: _SequenceLike) -> tuple[float, ...]:
    if isinstance(seq, MomentSequence):
        return seq.values
    return tuple(float(v) for v in seq)


class DiscreteMeasure:
    """Finite atomic positive measure on [0, infinity)."""

    def __init__(self, atoms: Sequence[tuple[float, float]]):
        cleaned = sorted((float(t), float(w)) for t, w in atoms)
        for t, w in cleaned:  # the comparisons are false for NaN
            if not 0.0 <= t < math.inf:
                raise DomainError(f"atom location {t} must be finite, >= 0")
            if not 0.0 < w < math.inf:
                raise DomainError(f"atom mass {w} must be finite, > 0")
        for (t1, _), (t2, _) in zip(cleaned, cleaned[1:]):
            if t1 == t2:
                raise DomainError(f"duplicate atom location {t1}")
        self._atoms = tuple(cleaned)

    @property
    def atoms(self) -> tuple[tuple[float, float], ...]:
        return self._atoms

    @property
    def total_mass(self) -> float:
        return sum(w for _, w in self._atoms)

    def mass_at(self, location: float, tol: float = 1e-12) -> float:
        tol = check_tolerance(tol)
        for t, w in self._atoms:
            if abs(t - location) <= tol * max(1.0, abs(location)):
                return w
        return 0.0

    def moment(self, n: int) -> float:
        if n < 0:
            raise DomainError(f"moment index must be >= 0, got {n}")
        total = 0.0
        for t, w in self._atoms:
            total += w if n == 0 else w * t ** n
        return total

    def moments(self, nmax: int) -> MomentSequence:
        return MomentSequence(tuple(self.moment(n) for n in range(nmax + 1)),
                              source=f"atomic measure with "
                                     f"{len(self._atoms)} atoms")

    def reciprocal_integral(self) -> float:
        """Integral of 1/t; an atom at 0 makes it infinite."""
        total = 0.0
        for t, w in self._atoms:
            if t == 0.0:
                return math.inf
            total += w / t
        return total

    def scaled(self, c: float) -> "DiscreteMeasure":
        if c <= 0.0:
            raise DomainError("scale factor must be > 0")
        return DiscreteMeasure([(t, c * w) for t, w in self._atoms])

    @staticmethod
    def mix(parts: Sequence[tuple[float, "DiscreteMeasure"]],
            merge_tol: float = 1e-12) -> "DiscreteMeasure":
        """Nonnegative combination sum of c_i * mu_i, merging coincident
        atom locations."""
        merge_tol = check_tolerance(merge_tol, "merge_tol")
        raw: list[tuple[float, float]] = []
        for c, mu in parts:
            if c < 0.0:
                raise DomainError("mixture coefficients must be >= 0")
            if c == 0.0:
                continue
            raw.extend((t, c * w) for t, w in mu.atoms)
        raw.sort()
        merged: list[list[float]] = []
        for t, w in raw:
            if merged and abs(t - merged[-1][0]) <= merge_tol * max(1.0, t):
                merged[-1][1] += w
            else:
                merged.append([t, w])
        return DiscreteMeasure([(t, w) for t, w in merged])

    def __repr__(self) -> str:
        inside = " + ".join(f"{w:.6g}*delta({t:.6g})" for t, w in self._atoms)
        return f"DiscreteMeasure({inside})"


@dataclass(frozen=True)
class MomentVerdict(Report):
    """Outcome of a moment-problem membership test."""

    is_stieltjes: Optional[bool] = None
    is_hausdorff: Optional[bool] = None
    failing_order: Optional[int] = None
    extremal_value: float = 0.0
    detail: str = ""


def _power_norms(shift: WeightedShift, top: int, kmax: int,
                 dual: bool = False) -> np.ndarray:
    """Squared norms of S^k e_v for k = 0..kmax at every class of
    depth <= top (each vertex of a class has its class's), by the
    children-sum recurrence d(v, k+1) = sum over children c of
    weight(c)^2 d(c, k), where S is the shift or, with dual=True, its
    Cauchy dual.

    Row k, column c; an entry is exact when depth(c) + k <= top.  The
    sums run over child edges in order, as a left-to-right loop over a
    vertex's children would.  The dual weights are formed for the edges
    the recurrence reads only, and are those of ``cauchy_dual(shift)``
    bit for bit.
    """
    tree = shift.tree
    end = tree.class_offsets.item(top + 1)  # classes of depth <= top
    edges = tree.class_starts.item(tree.class_offsets.item(top))
    parents = tree.class_parents[1:edges]
    kids = tree.edge_classes(slice(1, edges))
    out = np.empty((kmax + 1, end))
    out[0] = 1.0
    # an overflow becomes inf (and inf times a square that underflowed
    # to 0 NaN), which the callers refuse as not finite
    with np.errstate(over="ignore", invalid="ignore"):
        if dual:
            w = cauchy_dual_weights(shift, edges)
            w2 = w * w
        else:
            w2 = shift.edge_squared_weights[1:edges]
        # a zero-weight child adds exactly 0, even below an overflow
        zero = (shift.edge_weights[1:edges] == 0.0
                if shift.has_zero_weights else None)
        for k in range(kmax):
            terms = w2 * out[k, kids]
            if zero is not None:
                terms[zero] = 0.0
            out[k + 1] = np.bincount(parents, weights=terms, minlength=end)
    return out


def moment_sequence(shift: WeightedShift, u: Optional[str] = None,
                    nmax: int = 12, dual: bool = False) -> MomentSequence:
    """Squared norms of the n-th powers at vertex u, n = 0..nmax.

    Computed by the exact children-sum recurrence; with dual=True the
    recurrence runs on the Cauchy dual (which costs one depth level of
    headroom, hence the stricter precondition).
    """
    tree = shift.tree
    if u is None:
        u = tree.root
    i = tree.index(u)
    d0 = tree.depth_at(i)
    if nmax < 0:
        raise DomainError(f"nmax must be >= 0, got {nmax}")
    limit = tree.materialized_depth - (1 if dual else 0)
    if d0 + nmax > limit:
        raise RangeError(
            f"sequence at {u!r} (depth {d0}) to order {nmax} requires "
            f"materialized depth >= {d0 + nmax + (1 if dual else 0)}, "
            f"have {tree.materialized_depth}")
    table = _power_norms(shift, d0 + nmax, nmax, dual)
    c = tree.class_of(i)
    name = shift.name
    if dual and name:
        name = f"dual({name})"  # the name cauchy_dual gives
    label = "dual " if dual else ""
    return MomentSequence(
        tuple(table[:, c].tolist()),
        source=f"{label}power norm sequence at {u} "
               f"(shift {name or 'unnamed'}, nmax={nmax})")


TABLE1_ROWS = ("kernel", "quasi_brownian", "adjacency_pattern")


def table1_value(row: str, t: float, n: int) -> float:
    """Row formulas of ``closed_form_table1`` without its domain guards
    (t >= 1 assumed)."""
    if n == 0:
        return 1.0
    if row == "kernel":
        return 1.0 / (1.0 + n * (t - 1.0))
    if row == "quasi_brownian":
        return (1.0 + t ** (1 - 2 * n)) / (1.0 + t)
    # adjacency_pattern; smooth at t = 1 where it returns 1
    return (t + 2.0 + 2.0 * (t - 1.0) * 2.0 ** (2 * (1 - n))) / (3.0 * t * t)


def closed_form_table1(row: str, t: float, n: int) -> float:
    """Closed-form dual moment families, catalogued by row token.

    kernel: 1/(1+n(t-1)); quasi_brownian: (1+t^(1-2n))/(1+t);
    adjacency_pattern (integer t >= 2): (t+2+2(t-1)2^(2(1-n)))/(3t^2)
    for n >= 1.  Every row returns 1 at n = 0.
    """
    if row not in TABLE1_ROWS:
        raise DomainError(
            f"unknown row {row!r}; expected one of {list(TABLE1_ROWS)}")
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    if t < 1.0:
        raise DomainError(f"t must be >= 1, got {t}")
    if row == "adjacency_pattern":
        if abs(t - round(t)) > 1e-9 or t < 2.0:
            raise DomainError(
                f"adjacency_pattern requires integer t >= 2, got {t}")
        t = float(round(t))
    return table1_value(row, t, n)


def perturbed_kernel_dual_moment(shift: WeightedShift, u: Optional[str] = None,
                                 n: int = 1,
                                 tol: float = DEFAULT_TOL) -> float:
    """Closed-form dual moment for expansive shifts whose sibling norms
    are constant from generation 1 on.

    At the root: (1/norm(root)^4) * sum over children v of
    weight(v)^2 / ((n-1) norm(v)^2 - (n-2)).  Elsewhere:
    norm(u)^(-2) / ((n-1) a^2 - (n-2)) with a the common child norm.
    """
    tol = check_tolerance(tol)
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    require_kernel_class(shift, 1, tol, "closed form requires")
    tree = shift.tree
    i = 0 if u is None else tree.index(u)
    if i == 0:
        value = _root_extension_sum(shift, n)
        if value is None:
            raise DomainError(f"no closed form at the root at order {n}: "
                              f"a denominator vanishes")
        return value
    du = tree.depth_at(i)
    if du > tree.materialized_depth - 2:
        raise RangeError(
            f"closed form at {u!r} needs grandchildren; depth {du} too deep")
    c = tree.class_of(i)
    nu2 = shift.class_squared_norms.item(c)
    if nu2 == 0.0:
        raise NotLeftInvertibleError(f"vertex norm is 0 at {u!r}")
    start = tree.class_starts.item(c)
    edges = slice(start, start + tree.class_degrees.item(c))
    weighted = np.flatnonzero(shift.edge_weights[edges])
    if not len(weighted):
        raise NotLeftInvertibleError(
            f"all children of {u!r} carry zero weight")
    alpha2 = shift.class_squared_norms[tree.edge_classes(edges)].item(
        weighted.item(0))
    return (1.0 / nu2) / ((n - 1) * alpha2 - (n - 2))


def _root_extension_sum(shift: WeightedShift, n: int) -> Optional[float]:
    """Sum over the root's children v of
    weight(v)^2 / ((n-1) norm(v)^2 - (n-2)), divided by norm(root)^4.

    At n >= 1 this is the root closed form of
    ``perturbed_kernel_dual_moment``; at n = 0 it is the integral of 1/t
    for the backward extension of the root dual tail.  None when the root
    norm is 0 or a denominator is within 1e-12 of 0."""
    tree = shift.tree
    edges = slice(1, 1 + tree.class_degrees.item(0))  # the root's
    norms2 = shift.class_squared_norms
    root2 = norms2.item(0)
    den = (n - 1) * norms2[tree.edge_classes(edges)] - (n - 2)
    if root2 == 0.0 or np.any(np.abs(den) < 1e-12):
        return None
    # cumsum adds left to right, as the sums of class_norms do
    return (np.cumsum(shift.edge_squared_weights[edges] / den).item(-1)
            / root2 ** 2)


def _hankel_scan(rows: np.ndarray, caps: Sequence[int], tol: float
                 ) -> tuple[list[int], list[float], list[float]]:
    """Stieltjes test of every row of ``rows``: row r holds
    gamma_0..gamma_caps[r] (caps[r] >= 2) in its first caps[r] + 1
    entries and zeros after them.

    Order p runs one stacked ``eigvalsh`` over the Hankel and shifted
    blocks of size p+1 of every row still alive whose cap admits them,
    row by row, unshifted first; a row drops out after its first failing
    order.  The blocks examined, and hence each verdict, are those of a
    row-by-row loop; LAPACK solves each stacked matrix on its own, so the
    eigenvalues are bit-identical too.

    Returns per row the failing order (-1 on a pass), the least
    eigenvalue over the blocks examined (the first of equal ones, as
    ``min`` keeps it) and the threshold -tol * (1 + max |gamma|).  A
    value that is not finite raises DomainError.
    """
    n, width = rows.shape
    bound = np.abs(rows).max(axis=1).tolist()
    if not all(map(math.isfinite, bound)):
        raise DomainError(_NOT_FINITE)
    thresholds = [-tol * (1.0 + b) for b in bound]
    flat = np.ascontiguousarray(rows).ravel()  # a view of a C-order table
    step = flat.itemsize
    worst = [math.inf] * n
    failing = [-1] * n
    # block 2r + s is [gamma_(i+j+s)] of row r; it ends after order last
    owner, shift = np.divmod(np.arange(2 * n), 2)
    last = (np.repeat(caps, 2) - shift) // 2
    rows_of = owner.tolist()  # owner as a list, for the fold below
    p, drop = 0, int(last.min()) + 1  # drop: the next order a block leaves
    while True:
        if p == drop:
            keep = (last >= p) & (np.array(failing)[owner] < 0)
            owner, shift, last = owner[keep], shift[keep], last[keep]
            if not len(owner):
                break
            rows_of = owner.tolist()
            drop = int(last.min()) + 1
        # blocks[r, s] is [gamma_(i+j+s)] of size p+1 of row r, a view of
        # flat; a shifted block fits only while 2p + 1 < width
        blocks = np.ndarray((n, min(2, width - 2 * p), p + 1, p + 1),
                            flat.dtype, flat, 0,
                            (width * step, step, step, step))
        lows = np.linalg.eigvalsh(blocks[owner, shift])[:, 0].tolist()
        for r, low in zip(rows_of, lows):
            if low < worst[r]:  # as min(worst[r], low) does
                worst[r] = low
            if low < thresholds[r]:
                failing[r] = p
                drop = p + 1
        p += 1
    return failing, worst, thresholds


def _stieltjes_dicts(scan: tuple[list[int], list[float], list[float]],
                     caps: Sequence[int], picked: Sequence[int]
                     ) -> list[dict]:
    """``MomentVerdict.to_dict`` of ``_hankel_scan`` rows ``picked``."""
    failing, worst, thresholds = scan
    names = MomentVerdict._reported_fields()
    return [dict(zip(names, (
        failing[k] < 0, None, None if failing[k] < 0 else failing[k],
        worst[k], f"Hankel orders 0..{caps[k] // 2}, threshold "
                  f"{thresholds[k]:.3e}")))
            for k in picked]


def stieltjes_test(seq: _SequenceLike,
                   tol: float = DEFAULT_TOL) -> MomentVerdict:
    """Hankel positivity test for moments of a measure on [0, infinity).

    At order p the matrices [gamma_(i+j)] and [gamma_(i+j+1)] for
    i, j = 0..p must both be positive semidefinite.  PSD means the least
    eigenvalue is >= -tol * (1 + max |gamma|).  failing_order is the
    smallest violating p; the test stops there, and extremal_value is
    the least eigenvalue over the blocks examined up to that order.  A
    moment that is not finite raises DomainError.
    """
    tol = check_tolerance(tol)
    gamma = _values(seq)
    if len(gamma) < 3:
        raise RangeError("stieltjes test needs at least 3 moments")
    caps = [len(gamma) - 1]
    scan = _hankel_scan(np.array([gamma]), caps, tol)
    return MomentVerdict(**_stieltjes_dicts(scan, caps, [0])[0])


def hausdorff_test(seq: _SequenceLike,
                   tol: float = DEFAULT_TOL) -> MomentVerdict:
    """Complete monotonicity test for moments of a measure on [0, 1].

    All alternating finite differences sum_j (-1)^j C(k,j) gamma_(n+j)
    with k + n <= N must be >= -tol after scaling by 1 + max |gamma|.
    failing_order is the smallest violating difference order k.  A
    moment that is not finite raises DomainError.
    """
    tol = check_tolerance(tol)
    gamma = _values(seq)
    nn = len(gamma) - 1
    if len(gamma) < 2:
        raise RangeError("hausdorff test needs at least 2 moments")
    if not all(map(math.isfinite, gamma)):
        raise DomainError(_NOT_FINITE)
    scale = 1.0 + max(abs(g) for g in gamma)
    worst = math.inf
    failing: Optional[int] = None
    for k in range(nn + 1):
        coeffs = [(-1.0) ** j * math.comb(k, j) for j in range(k + 1)]
        for n in range(nn - k + 1):
            c = sum(coeffs[j] * gamma[n + j] for j in range(k + 1)) / scale
            worst = min(worst, c)
            if c < -tol and failing is None:
                failing = k
        if failing is not None:
            break
    return MomentVerdict(
        is_hausdorff=failing is None,
        failing_order=failing,
        extremal_value=worst,
        detail=f"difference orders 0..{nn}")


@dataclass(frozen=True)
class ReciprocalLinearResult:
    """Moments gamma_n = 1/(a+bn) with their representing measure.

    These are moments of a positive measure exactly when a > 0 and
    b >= 0: a point mass of 1/a at 1 when b = 0, otherwise the density
    t^(a/b-1)/b on [0, 1].
    """

    moments: MomentSequence
    a: float
    b: float
    is_hamburger: bool
    description: str
    atom_measure: Optional[DiscreteMeasure] = None

    def sampled_measure(self, nodes: int = 64) -> DiscreteMeasure:
        """Atomic quadrature surrogate of the representing measure: the
        Gauss-Jacobi rule for (1+x)^beta, beta = a/b - 1, by Golub-Welsch
        (Math. Comp. 23 (1969)), moved to [0, 1].  Node i's mass is
        v_0i^2 / a; the total mass 2^(beta+1)/(beta+1) cancels, so no
        power is formed and nothing overflows."""
        if not self.is_hamburger:
            raise DomainError(
                "no representing measure: the sequence is not a moment "
                "sequence")
        if nodes < 1:
            raise DomainError(f"nodes must be >= 1, got {nodes}")
        if self.b == 0.0:
            assert self.atom_measure is not None
            return self.atom_measure
        beta = self.a / self.b - 1.0
        m = np.arange(1.0, nodes)
        t = 2.0 * m + beta
        diag = np.concatenate([[beta / (beta + 2.0)],
                               beta / t * (beta / (t + 2.0))])
        sub = 2.0 * m * ((m + beta) / t) / np.sqrt(t + 1.0) / np.sqrt(t - 1.0)
        x, v = np.linalg.eigh(np.diag(diag) + np.diag(sub, -1), UPLO="L")
        masses = v[0] * v[0] / self.a  # an underflow to 0 is no atom
        return DiscreteMeasure([(loc, w) for loc, w in zip(
            ((1.0 + x) / 2.0).tolist(), masses.tolist()) if w > 0.0])


def reciprocal_linear_moments(a: float, b: float,
                              nmax: int = 12) -> ReciprocalLinearResult:
    """Build gamma_n = 1/(a+bn) for n <= nmax with measure bookkeeping."""
    if nmax < 0:
        raise DomainError(f"nmax must be >= 0, got {nmax}")
    vals = []
    for n in range(nmax + 1):
        den = a + b * n
        if abs(den) < 1e-14:
            raise DomainError(f"a + b*n vanishes at n = {n}")
        vals.append(1.0 / den)
    hamburger = a > 0.0 and b >= 0.0
    if not hamburger:
        desc = "not a Hamburger moment sequence (requires a > 0 and b >= 0)"
        measure = None
    elif b == 0.0:
        desc = f"point mass {1.0 / a:.6g} at 1"
        measure = DiscreteMeasure([(1.0, 1.0 / a)])
    else:
        desc = f"density t^({a / b - 1.0:.6g})/{b:.6g} on [0, 1]"
        measure = None
    return ReciprocalLinearResult(
        MomentSequence(tuple(vals), source=f"1/({a} + {b} n)"),
        a, b, hamburger, desc, measure)


def backward_extension(mu: DiscreteMeasure, tol: float = 1e-12
                       ) -> tuple[bool, float, Optional[DiscreteMeasure]]:
    """Try to prepend gamma_0 = 1 to the moment sequence of mu.

    Possible iff the integral of 1/t against mu is <= 1 (an atom at 0
    makes it infinite).  On success the extended sequence is represented
    by (1/t) mu plus a deficit mass at 0.
    """
    tol = check_tolerance(tol)
    integral = mu.reciprocal_integral()
    if not integral <= 1.0 + tol:
        return False, integral, None
    atoms = [(t, w / t) for t, w in mu.atoms]
    deficit = 1.0 - integral
    if deficit > tol:
        atoms.append((0.0, deficit))
    return True, integral, DiscreteMeasure(atoms)


# ---------------------------------------------------------------------------
# decision procedure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubnormalityReport(Report):
    """Decision about subnormality of the Cauchy dual.

    verdict is "subnormal" or "not-subnormal" when conclusive, else
    "consistent" (all finite tests passed to the requested order, which
    proves nothing).  decision_path names the single rule that fired.
    """

    verdict: str
    conclusive: bool
    decision_path: str
    statement: str
    verified_depth: int
    nmax: int
    evidence: Mapping[str, object] = field(default_factory=dict)


#: Most witnesses a generic-path report lists; it counts the others.
MAX_LISTED_WITNESSES = 64
#: A theorem rule's outcome: (verdict, statement, evidence) when it fires;
#: None, or a note for the generic evidence, when it declines.
_Outcome = Union[None, str, tuple[str, str, dict]]


def _cdsubn(shift: WeightedShift, cap: int, tol: float) -> _Outcome:
    kc0 = satisfies_kernel_condition(shift, 0, tol)
    if not kc0.holds:
        return None
    t = vertex_norm(shift, shift.tree.root) ** 2
    measure = reciprocal_linear_moments(1.0, t - 1.0, cap)
    return ("subnormal", "subnormal contraction: expansion identity plus "
            "sibling norm constancy (decision path cdsubn)",
            {"two_isometry": is_two_isometry(shift, tol).to_dict(),
             "kernel_condition": kc0.to_dict(),
             "representing_measure": measure.description,
             "dual_root_moments": list(measure.moments.values)})


def _brownian_g(shift: WeightedShift, cap: int, tol: float) -> _Outcome:
    if not shift.is_adjacency:
        return None
    qb = classify_adjacency(shift.tree, tol).quasi_brownian_isometry
    if not qb.holds:
        return None
    return ("subnormal", "subnormal: quasi-Brownian adjacency isometry "
            "(decision path BrownianG)", {"quasi_brownian": qb.to_dict()})


def _constant_t(shift: WeightedShift, cap: int, tol: float) -> _Outcome:
    l = comb_pattern_valency(shift.tree) if shift.is_adjacency else None
    if l is None:
        return None
    root_seq = moment_sequence(shift, None, cap, dual=True)
    dev = max(abs(g - table1_value("adjacency_pattern", float(l), k))
              for k, g in enumerate(root_seq.values))
    return ("subnormal", f"subnormal: comb-pattern adjacency shift of "
            f"valency {l} (decision path constant-t)",
            {"valency": l, "root_sequence": list(root_seq.values),
             "closed_form_max_deviation": dev})


def _main2(shift: WeightedShift, cap: int, tol: float) -> _Outcome:
    tree = shift.tree
    # the smallest k with constancy in every generation k..N-2; k = 0 is
    # the case of cdsubn
    k = satisfies_kernel_condition(shift, 0, tol).details["constant_from"]
    if not 1 <= k <= tree.materialized_depth - 2:
        return None
    # the edges into generations 1..k
    into = slice(1, tree.class_starts[tree.class_offsets[k]])
    if not np.all(shift.edge_weights[into] > 0.0):
        return (f"sibling constancy holds from generation {k} but zero "
                f"weights below it block the fast path")
    root_seq = moment_sequence(shift, None, cap, dual=True)
    st = stieltjes_test(root_seq, tol)
    statement = (f"NOT subnormal: sibling constancy holds from generation "
                 f"{k} but not from the root (decision path main2)")
    if st.failing_order is not None:
        statement += f"; root moment test fails at order {st.failing_order}"
    # the root sum is the extension integral only for constancy from 1 on
    integral = _root_extension_sum(shift, 0) if k == 1 else None
    if integral is not None:
        shown = f"{integral:.6g}"  # "1" would hide which side of 1
        statement += (f"; extension integral "
                      f"{repr(integral) if shown == '1' else shown} "
                      f"{'>' if integral > 1.0 else '<='} 1")
    return ("not-subnormal", statement,
            {"perturbation_order": k, "root_sequence": list(root_seq.values),
             "root_stieltjes": st.to_dict(), "extension_integral": integral})


#: The theorem rules by decision path, tried in this order on a 2-isometry.
_THEOREM_RULES = (("cdsubn", _cdsubn), ("BrownianG", _brownian_g),
                  ("constant-t", _constant_t), ("main2", _main2))
_UNDECIDED = ("(decision path generic-moment-test); subnormality is not "
              "decided by finite prefixes")


def _generic_moment_test(shift: WeightedShift, cap: int, nmax: int,
                         tol: float, notes: list[str]
                         ) -> tuple[str, str, dict]:
    """The fallback rule, as (verdict, statement, evidence): the Stieltjes
    test of the dual sequences of the root and of the first vertex of
    every later generation (the witnesses), all from one pass of the
    recurrence and one Hankel scan.  A failure is conclusive, a pass is
    only "consistent to order nmax".  The evidence lists at most
    MAX_LISTED_WITNESSES witnesses, the first failure included, counts
    the rest as ``witnesses_omitted``, and carries ``notes``.  A witness
    whose dual moments are not finite is left untested and counted as
    ``witnesses_not_finite``; when no witness has finite ones,
    DomainError.
    """
    tree = shift.tree
    n = tree.materialized_depth
    # the witnesses: the root and the first vertex of every later
    # non-empty generation above the last, the first of its first class;
    # a witness needs moments 0..2 for the Hankel block of order 1
    off = tree.class_offsets
    depths = np.flatnonzero(off[:n] < off[1:n + 1])
    caps = np.minimum(cap, n - 1 - depths)
    depths, caps = depths[caps >= 2], caps[caps >= 2]
    evidence: dict = {"witnesses": [], "notes": notes}
    if not len(depths):
        return ("consistent", f"consistent: no dual sequence was tested, "
                f"since no witness reaches Hankel order 1 at nmax {nmax} "
                f"and materialized depth {n} {_UNDECIDED}", evidence)
    # one row per witness, zero past the moments it reads
    cols = off[depths]
    rows = _power_norms(shift, int((depths + caps).max()), int(caps.max()),
                        dual=True)[:, cols].T
    rows[np.arange(rows.shape[1]) > caps[:, None]] = 0.0
    # a witness whose dual moments overflow is left untested; the others
    # still decide
    finite = np.isfinite(rows).all(axis=1)
    if not finite.any():
        raise DomainError(_NOT_FINITE)
    not_finite = len(cols) - int(finite.sum())
    if not_finite:
        u = tree.class_label(cols.item(int(np.argmin(finite))))
        notes.append(f"{not_finite} witnesses left untested, their dual "
                     f"moments not finite; the first is {u}")
        rows, cols, caps = rows[finite], cols[finite], caps[finite]
    caps = caps.tolist()
    scan = _hankel_scan(rows, caps, tol)
    failed = next((k for k, f in enumerate(scan[0]) if f >= 0), None)
    # the report lists the first witnesses and the first failure
    listed = list(range(min(len(cols), MAX_LISTED_WITNESSES)))
    if failed is not None and failed >= len(listed):
        listed[-1] = failed
    evidence["witnesses"] = [
        {"vertex": tree.class_label(cols.item(k)), "nmax": caps[k],
         "stieltjes": d}
        for k, d in zip(listed, _stieltjes_dicts(scan, caps, listed))]
    if len(cols) > len(listed):
        evidence["witnesses_omitted"] = len(cols) - len(listed)
    if not_finite:
        evidence["witnesses_not_finite"] = not_finite
    if failed is None:
        return ("consistent", f"consistent to order {nmax}: every tested "
                f"dual sequence passes the Stieltjes test {_UNDECIDED}",
                evidence)
    return ("not-subnormal", f"NOT subnormal: dual moment sequence at "
            f"{tree.class_label(cols.item(failed))} fails the Stieltjes "
            f"test at order {scan[0][failed]} (decision path "
            f"generic-moment-test)", evidence)


def dual_subnormality(shift: WeightedShift, nmax: int = 12,
                      tol: float = DEFAULT_TOL) -> SubnormalityReport:
    """Decide subnormality of the Cauchy dual.

    Requires left invertibility.  On a shift with the expansion identity
    the rules of ``_THEOREM_RULES`` are tried in order, and the first
    that fires decides, conclusively.  Otherwise ``_generic_moment_test``
    decides, with the notes of the rules that declined with one.
    """
    tol = check_tolerance(tol)
    if nmax < 0:
        raise DomainError(f"nmax must be >= 0, got {nmax}")
    tree = shift.tree
    n = tree.materialized_depth
    if n < 2:
        raise RangeError("need materialized depth >= 2")
    # the deepest dual moment the tree holds; clamped in Python, so that
    # any nmax reaches numpy as an int64
    cap = min(nmax, n - 1)
    norms = shift.class_norms[:tree.class_offsets.item(n)]
    if not norms.all():
        u = tree.class_label(int(np.argmin(norms != 0.0)))
        raise NotLeftInvertibleError(
            f"vertex norm is 0 at {u!r}; dual undefined")
    two = is_two_isometry(shift, tol)
    rules, notes = _THEOREM_RULES, []
    if not two.holds:  # every theorem rule assumes the identity
        rules, notes = (), [f"not a 2-isometry (witness {two.witness[0]}); "
                            f"fast paths unavailable"]
    for path, rule in rules:
        outcome = rule(shift, cap, tol)
        if isinstance(outcome, tuple):
            verdict, statement, evidence = outcome
            return SubnormalityReport(verdict, True, path, statement, n - 2,
                                      nmax, evidence)
        if outcome:
            notes.append(outcome)
    verdict, statement, evidence = _generic_moment_test(shift, cap, nmax,
                                                        tol, notes)
    return SubnormalityReport(verdict, verdict != "consistent",
                              "generic-moment-test", statement, n - 2, nmax,
                              evidence)
