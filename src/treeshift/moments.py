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

import functools
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .errors import (ClassificationError, DomainError,
                     NotLeftInvertibleError, RangeError)
from .shifts import (DEFAULT_TOL, WeightedShift, cauchy_dual,
                     check_tolerance, classify_adjacency, is_two_isometry,
                     satisfies_kernel_condition,
                     sibling_constancy_by_generation, vertex_norm)
from .trees import DirectedTree, comb_pattern_valency

__all__ = [
    "MomentSequence",
    "DiscreteMeasure",
    "MomentVerdict",
    "ReciprocalLinearResult",
    "TABLE1_ROWS",
    "SubnormalityReport",
    "moment_sequence",
    "closed_form_table1",
    "table1_value",
    "perturbed_kernel_dual_moment",
    "stieltjes_test",
    "hausdorff_test",
    "reciprocal_linear_moments",
    "backward_extension",
    "dual_subnormality",
]


@dataclass(frozen=True)
class MomentSequence:
    """A finite moment prefix gamma_0..gamma_N with provenance text."""

    values: tuple[float, ...]
    source: str = ""

    def __post_init__(self):
        if not self.values:
            raise DomainError("moment sequence must contain gamma_0")
        if not all(math.isfinite(v) for v in self.values):
            raise DomainError("moment sequence values must be finite")

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
        for t, w in cleaned:
            if t < 0.0:
                raise DomainError(f"atom location {t} < 0")
            if w <= 0.0:
                raise DomainError(f"atom mass {w} must be > 0")
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
class MomentVerdict:
    """Outcome of a moment-problem membership test."""

    is_stieltjes: Optional[bool] = None
    is_hausdorff: Optional[bool] = None
    failing_order: Optional[int] = None
    extremal_value: float = 0.0
    detail: str = ""

    @property
    def passed(self) -> bool:
        flags = [f for f in (self.is_stieltjes, self.is_hausdorff)
                 if f is not None]
        return bool(flags) and all(flags)

    def to_dict(self) -> dict:
        """Report form of the verdict."""
        return {"is_stieltjes": self.is_stieltjes,
                "is_hausdorff": self.is_hausdorff,
                "failing_order": self.failing_order,
                "extremal_value": self.extremal_value,
                "detail": self.detail}


def _power_norms(shift: WeightedShift, top: int, kmax: int) -> np.ndarray:
    """Squared norms of S^k e_v for k = 0..kmax at every vertex v of
    depth <= top, by the children-sum recurrence
    d(v, k+1) = sum over children c of weight(c)^2 d(c, k).

    Row k, column v; an entry is exact when depth(v) + k <= top.  The
    sums run over children in order, as a left-to-right loop would.
    """
    tree = shift.tree
    end = int(tree.gen_offsets[top + 1])
    parents = tree.parents[1:end]
    w2 = shift.squared_weights[1:end]
    out = np.empty((kmax + 1, end))
    out[0] = 1.0
    for k in range(kmax):
        out[k + 1] = np.bincount(parents, weights=w2 * out[k, 1:],
                                 minlength=end)
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
    s = cauchy_dual(shift) if dual else shift
    table = _power_norms(s, d0 + nmax, nmax)
    label = "dual " if dual else ""
    return MomentSequence(
        tuple(table[:, i].tolist()),
        source=f"{label}power norm sequence at {u} "
               f"(shift {s.name or 'unnamed'}, nmax={nmax})")


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
    two = is_two_isometry(shift, tol)
    if not two.holds:
        raise ClassificationError(
            f"closed form requires the expansion identity; witness "
            f"{two.witness}")
    kc1 = satisfies_kernel_condition(shift, 1, tol)
    if not kc1.holds:
        raise ClassificationError(
            f"closed form requires sibling norm constancy from generation "
            f"1; witness {kc1.witness}")
    tree = shift.tree
    if u is None:
        u = tree.root
    if u == tree.root:
        nr2 = vertex_norm(shift, u) ** 2
        total = 0.0
        for v in tree.children_of(u):
            nv2 = vertex_norm(shift, v) ** 2
            total += shift.weight(v) ** 2 / ((n - 1) * nv2 - (n - 2))
        return total / nr2 ** 2
    du = tree.depth_of(u)
    if du > tree.materialized_depth - 2:
        raise RangeError(
            f"closed form at {u!r} needs grandchildren; depth {du} too deep")
    nu2 = vertex_norm(shift, u) ** 2
    if nu2 == 0.0:
        raise NotLeftInvertibleError(f"vertex norm is 0 at {u!r}")
    child_norms = [vertex_norm(shift, v) for v in tree.children_of(u)
                   if shift.weight(v) != 0.0]
    if not child_norms:
        raise NotLeftInvertibleError(
            f"all children of {u!r} carry zero weight")
    alpha2 = child_norms[0] ** 2
    return (1.0 / nu2) / ((n - 1) * alpha2 - (n - 2))


@functools.lru_cache(maxsize=64)
def _hankel_index(size: int) -> np.ndarray:
    """Read-only (size, size) array of i + j: the offsets a Hankel block
    of that size reads from its first moment."""
    r = np.arange(size)
    index = r[:, None] + r
    index.flags.writeable = False
    return index


def _stieltjes_batch(seqs: Sequence[Sequence[float]],
                     tol: float) -> list[MomentVerdict]:
    """``stieltjes_test`` of several sequences (each of length >= 3).

    Order p runs one stacked ``eigvalsh`` over the Hankel and shifted
    blocks of size p+1 of every sequence still alive whose length
    admits them; a sequence drops out after its first failing order.
    The blocks examined, and hence each verdict, are those of a
    sequence-by-sequence loop; LAPACK solves each stacked matrix on its
    own, so the eigenvalues are bit-identical too.
    """
    caps = [len(s) - 1 for s in seqs]
    width = max(caps) + 1
    flat = np.zeros(len(seqs) * width)
    for r, s in enumerate(seqs):
        flat[r * width:r * width + len(s)] = s
    thresholds = [-tol * (1.0 + max(map(abs, s))) for s in seqs]
    worst = [math.inf] * len(seqs)
    failing: list[Optional[int]] = [None] * len(seqs)
    live = range(len(seqs))
    p = 0
    while live:
        # block (r, s) reads flat[r * width + s + i + j]
        starts = [r * width + s for r in live for s in (0, 1)
                  if 2 * p + s <= caps[r]]
        stack = flat.take(np.add.outer(starts, _hankel_index(p + 1)))
        lows = np.linalg.eigvalsh(stack)[:, 0].tolist()
        for start, low in zip(starts, lows):
            r = start // width
            worst[r] = min(worst[r], low)
            if low < thresholds[r]:
                failing[r] = p
        p += 1
        live = [r for r in live if failing[r] is None and 2 * p <= caps[r]]
    return [MomentVerdict(
                is_stieltjes=f is None, failing_order=f, extremal_value=w,
                detail=f"Hankel orders 0..{c // 2}, threshold {t:.3e}")
            for f, w, c, t in zip(failing, worst, caps, thresholds)]


def stieltjes_test(seq: _SequenceLike,
                   tol: float = DEFAULT_TOL) -> MomentVerdict:
    """Hankel positivity test for moments of a measure on [0, infinity).

    At order p the matrices [gamma_(i+j)] and [gamma_(i+j+1)] for
    i, j = 0..p must both be positive semidefinite.  PSD means the least
    eigenvalue is >= -tol * (1 + max |gamma|).  failing_order is the
    smallest violating p; the test stops there, and extremal_value is
    the least eigenvalue over the blocks examined up to that order.
    """
    tol = check_tolerance(tol)
    gamma = _values(seq)
    if len(gamma) < 3:
        raise RangeError("stieltjes test needs at least 3 moments")
    return _stieltjes_batch([gamma], tol)[0]


def hausdorff_test(seq: _SequenceLike,
                   tol: float = DEFAULT_TOL) -> MomentVerdict:
    """Complete monotonicity test for moments of a measure on [0, 1].

    All alternating finite differences sum_j (-1)^j C(k,j) gamma_(n+j)
    with k + n <= N must be >= -tol after scaling by 1 + max |gamma|.
    failing_order is the smallest violating difference order k.
    """
    tol = check_tolerance(tol)
    gamma = _values(seq)
    nn = len(gamma) - 1
    if len(gamma) < 2:
        raise RangeError("hausdorff test needs at least 2 moments")
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
        """Atomic quadrature surrogate of the representing measure."""
        if not self.is_hamburger:
            raise DomainError(
                "no representing measure: the sequence is not a moment "
                "sequence")
        if self.b == 0.0:
            assert self.atom_measure is not None
            return self.atom_measure
        from scipy.special import roots_jacobi  # slow import, rarely used

        beta = self.a / self.b - 1.0
        x, w = roots_jacobi(nodes, 0.0, beta)
        locs = (1.0 + x) / 2.0
        masses = w / (self.b * 2.0 ** (beta + 1.0))
        return DiscreteMeasure(list(zip(locs.tolist(), masses.tolist())))


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

_DECISION_PATHS = ("cdsubn", "BrownianG", "constant-t", "main2",
                   "generic-moment-test")


@dataclass(frozen=True)
class SubnormalityReport:
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

    def to_dict(self) -> dict:
        """Report form of the decision."""
        return {"verdict": self.verdict, "conclusive": self.conclusive,
                "decision_path": self.decision_path,
                "statement": self.statement,
                "verified_depth": self.verified_depth, "nmax": self.nmax,
                "evidence": self.evidence}


def _extension_integral(shift: WeightedShift) -> Optional[float]:
    """Integral of 1/t for the backward extension of the root dual tail:
    sum over root children of weight^2/(2 - norm^2), divided by the
    fourth power of the root norm.  None when a child norm reaches
    sqrt(2)."""
    tree = shift.tree
    norms = shift.vertex_norms.tolist()
    w = shift.weight_array.tolist()
    nr = norms[0]
    if nr == 0.0:
        return None
    total = 0.0
    for c in range(int(tree.child_starts[0]),
                   int(tree.child_starts[0] + tree.degrees[0])):
        den = 2.0 - norms[c] ** 2
        if abs(den) < 1e-12:
            return None
        total += w[c] ** 2 / den
    return total / nr ** 4


#: Most witnesses a generic-path report lists; it counts the others.
MAX_LISTED_WITNESSES = 64


def _default_witnesses(tree: DirectedTree) -> list[int]:
    """Indices of the root and of the first vertex of every later
    non-empty generation above the last."""
    off = tree.gen_offsets.tolist()
    return [off[g] for g in range(tree.materialized_depth)
            if off[g] < off[g + 1]]


def dual_subnormality(shift: WeightedShift, nmax: int = 12,
                      tol: float = DEFAULT_TOL,
                      witnesses: Optional[Sequence[str]] = None
                      ) -> SubnormalityReport:
    """Decide subnormality of the Cauchy dual.

    Fast analytic paths (conclusive): sibling-constant expansive shifts
    (cdsubn), quasi-Brownian adjacency shifts (BrownianG), comb-pattern
    adjacency shifts (constant-t), and expansive shifts whose sibling
    constancy holds only from some generation k >= 1 on (main2, a
    negative).  Otherwise the generic moment test runs the Stieltjes
    check on dual sequences over a witness set; a failure is conclusive,
    a pass is only "consistent to order nmax".  The dual sequences of
    all witnesses come from one pass of the recurrence over the tree.
    The evidence lists at most MAX_LISTED_WITNESSES of them, the first
    failure included, and counts the rest as ``witnesses_omitted``.

    Requires left invertibility.  Shifts that fail the expansion
    identity skip the fast paths and go straight to the generic test.
    """
    tol = check_tolerance(tol)
    tree = shift.tree
    n = tree.materialized_depth
    if n < 2:
        raise RangeError("need materialized depth >= 2")
    norms = shift.vertex_norms[:int(tree.gen_offsets[n])]
    if not norms.all():
        u = tree.label(int(np.argmin(norms != 0.0)))
        raise NotLeftInvertibleError(
            f"vertex norm is 0 at {u!r}; dual undefined")
    notes: list[str] = []
    two = is_two_isometry(shift, tol)
    if two.holds:
        kc0 = satisfies_kernel_condition(shift, 0, tol)
        if kc0.holds:
            t = vertex_norm(shift, tree.root) ** 2
            measure = reciprocal_linear_moments(1.0, t - 1.0,
                                                min(nmax, n - 1))
            return SubnormalityReport(
                "subnormal", True, "cdsubn",
                "subnormal contraction: expansion identity plus sibling "
                "norm constancy (decision path cdsubn)",
                n - 2, nmax,
                {"two_isometry": two.to_dict(),
                 "kernel_condition": kc0.to_dict(),
                 "representing_measure": measure.description,
                 "dual_root_moments": list(measure.moments.values)})
        if shift.is_adjacency:
            cls = classify_adjacency(tree, tol)
            if cls.quasi_brownian_isometry.holds:
                return SubnormalityReport(
                    "subnormal", True, "BrownianG",
                    "subnormal: quasi-Brownian adjacency isometry "
                    "(decision path BrownianG)",
                    n - 2, nmax,
                    {"quasi_brownian":
                        cls.quasi_brownian_isometry.to_dict()})
            l = comb_pattern_valency(tree)
            if l is not None:
                root_seq = moment_sequence(shift, tree.root,
                                           min(nmax, n - 1), dual=True)
                dev = max(
                    abs(root_seq[k] - table1_value("adjacency_pattern",
                                                   float(l), k))
                    for k in range(len(root_seq)))
                return SubnormalityReport(
                    "subnormal", True, "constant-t",
                    f"subnormal: comb-pattern adjacency shift of valency "
                    f"{l} (decision path constant-t)",
                    n - 2, nmax,
                    {"valency": l,
                     "root_sequence": list(root_seq.values),
                     "closed_form_max_deviation": dev})
        # smallest k >= 1 with constancy in every generation k..N-2
        constant = sibling_constancy_by_generation(shift, tol)
        holds_from = np.logical_and.accumulate(constant[::-1])[::-1]
        k_found = next((k for k in range(1, n - 1) if holds_from[k]), None)
        if k_found is not None:
            first_gens = slice(1, int(tree.gen_offsets[k_found + 1]))
            if np.all(shift.weight_array[first_gens] > 0.0):
                cap = min(nmax, n - 1)
                root_seq = moment_sequence(shift, tree.root, cap, dual=True)
                st = stieltjes_test(root_seq, tol)
                integral = _extension_integral(shift)
                extra = ""
                if st.failing_order is not None:
                    extra = (f"; root moment test fails at order "
                             f"{st.failing_order}")
                if integral is not None:
                    extra += f"; extension integral {integral:.6g} > 1"
                return SubnormalityReport(
                    "not-subnormal", True, "main2",
                    f"NOT subnormal: sibling constancy holds from "
                    f"generation {k_found} but not from the root "
                    f"(decision path main2){extra}",
                    n - 2, nmax,
                    {"perturbation_order": k_found,
                     "root_sequence": list(root_seq.values),
                     "root_stieltjes": st.to_dict(),
                     "extension_integral": integral})
            notes.append(
                f"sibling constancy holds from generation {k_found} but "
                f"zero weights below it block the fast path")
    else:
        w = two.witness[0] if two.witness else "?"
        notes.append(
            f"not a 2-isometry (witness {w}); fast paths unavailable")

    # generic moment test
    picks = (_default_witnesses(tree) if witnesses is None
             else [tree.index(u) for u in witnesses])
    plan = []
    for i in picks:
        cap = min(nmax, n - 1 - tree.depth_at(i))
        if cap >= 2:
            plan.append((tree.label(i), i, cap))
    verdicts: list[MomentVerdict] = []
    if plan:
        caps = np.array([cap for _, _, cap in plan])
        top = max(tree.depth_at(i) + cap for _, i, cap in plan)
        table = _power_norms(cauchy_dual(shift), top, int(caps.max()))
        # witness k reads rows 0..caps[k] of its column
        read = np.arange(len(table))[:, None] <= caps
        if not np.isfinite(table[:, [i for _, i, _ in plan]][read]).all():
            raise DomainError("moment sequence values must be finite")
        # lists, not tuples: CPython 3.11 keeps every freed 20-tuple on a
        # free list it never reuses, and only a full collection empties it
        verdicts = _stieltjes_batch(
            [table[:cap + 1, i].tolist() for _, i, cap in plan], tol)
    failed = next((k for k, v in enumerate(verdicts) if not v.is_stieltjes),
                  None)
    # every witness is tested; the report lists the first ones and the
    # first failure
    listed = list(range(min(len(plan), MAX_LISTED_WITNESSES)))
    if failed is not None and failed not in listed:
        listed[-1] = failed
    evidence: dict = {
        "witnesses": [{"vertex": plan[k][0], "nmax": plan[k][2],
                       "stieltjes": verdicts[k].to_dict()} for k in listed],
        "notes": notes}
    if len(plan) > len(listed):
        evidence["witnesses_omitted"] = len(plan) - len(listed)
    if failed is not None:
        u, v = plan[failed][0], verdicts[failed]
        return SubnormalityReport(
            "not-subnormal", True, "generic-moment-test",
            f"NOT subnormal: dual moment sequence at {u} fails the "
            f"Stieltjes test at order {v.failing_order} "
            f"(decision path generic-moment-test)",
            n - 2, nmax, evidence)
    return SubnormalityReport(
        "consistent", False, "generic-moment-test",
        f"consistent to order {nmax}: every tested dual sequence passes "
        f"the Stieltjes test (decision path generic-moment-test); "
        f"subnormality is not decided by finite prefixes",
        n - 2, nmax, evidence)
