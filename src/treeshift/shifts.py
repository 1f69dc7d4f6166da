"""Weighted shifts on rooted directed trees.

A shift maps the basis vector at a vertex u to the weighted sum of the
basis vectors at the children of u.  Everything computed here derives from
the weight map: vertex norms, the expansion (2-isometry) identity, sibling
norm constancy, the Cauchy dual, adjacency-operator classification, and
the complete unitary invariants for the sibling-constant class.

All property checks are depth-bounded: a check at a vertex needs the norms
of its children, so verdicts cover vertices of depth <= N-2 and every
verdict records that verified depth.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import (ClassificationError, ComparisonError, ConfigurationError,
                     DomainError, NotLeftInvertibleError, RangeError)
from .trees import DirectedTree, branching_degree, classify_tree

__all__ = [
    "WeightedShift",
    "WeightSpec",
    "PropertyVerdict",
    "AdjacencyClassification",
    "ShiftInvariants",
    "two_isometry_weight",
    "build_shift",
    "vertex_norm",
    "operator_norm",
    "is_two_isometry",
    "satisfies_kernel_condition",
    "sibling_constancy_by_generation",
    "cauchy_dual",
    "classify_adjacency",
    "shift_invariants",
    "are_unitarily_equivalent",
    "are_unitarily_equivalent_multiset",
    "DEFAULT_TOL",
    "check_tolerance",
]

DEFAULT_TOL = 1e-9


def check_tolerance(tol: object) -> float:
    """``tol`` as a float when it is finite and > 0, else
    ConfigurationError.  Every function that takes ``tol`` checks it."""
    try:
        value = float(tol)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise ConfigurationError(
            f"tol must be a finite number > 0, got {tol!r}")
    return value


_SQRT2 = math.sqrt(2.0)


def _squared(a: np.ndarray) -> np.ndarray:
    """Elementwise a ** 2 through libm pow, as Python's ``x ** 2`` does.

    ``a * a`` is correctly rounded and pow is not always, so the two
    differ in the last bit for about one value in a thousand; this keeps
    the array code bit-identical to the scalar formulas."""
    return np.float_power(a, 2.0)


def two_isometry_weight(n: int, x: float) -> float:
    """n-th weight of the expansive unilateral shift with first weight x.

    Equals sqrt((1 + (n+1)(x^2-1)) / (1 + n(x^2-1))).  The family is a
    semigroup under composition in x, is strictly decreasing in n for
    x > 1, and fixes x = 1.
    """
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    if x < 1.0:
        raise DomainError(f"x must be >= 1, got {x}")
    a = x * x - 1.0
    return math.sqrt((1.0 + (n + 1) * a) / (1.0 + n * a))


def _two_isometry_weights(n: np.ndarray, x: float) -> np.ndarray:
    """two_isometry_weight over an array of n, bit for bit."""
    a = x * x - 1.0
    return np.sqrt((1.0 + (n + 1) * a) / (1.0 + n * a))


class WeightedShift:
    """A tree plus a nonnegative weight per non-root vertex.

    The weights are one float array in the tree's canonical vertex
    order (``weight_array``; its root entry is 0 and carries no
    meaning).  ``squared_weights``, ``vertex_norms`` and
    ``squared_norms`` are computed on first use and kept.
    """

    def __init__(self, tree: DirectedTree, weights: Mapping[str, float],
                 name: Optional[str] = None):
        labels = tree.labels
        if labels[0] in weights:
            raise ConfigurationError("root must not carry a weight")
        try:
            w = [0.0] + [weights[v] for v in labels[1:]]
        except KeyError as exc:
            raise ConfigurationError(
                f"missing weight for vertex {exc.args[0]!r}") from None
        if len(weights) != len(labels) - 1:
            extra = set(weights) - set(labels)
            raise ConfigurationError(
                f"weights given for unknown vertices: {sorted(extra)[:3]}")
        self._init(tree, w, name)

    @classmethod
    def from_array(cls, tree: DirectedTree, weights: np.ndarray,
                   name: Optional[str] = None) -> "WeightedShift":
        """Shift from weights in canonical order (entry 0 is ignored)."""
        shift = cls.__new__(cls)
        shift._init(tree, weights, name)
        return shift

    def _init(self, tree: DirectedTree, weights: Sequence[float],
              name: Optional[str]) -> None:
        w = np.array(weights, dtype=float)
        w[0] = 0.0
        bad = _first(~(np.isfinite(w) & (w >= 0.0)))
        if bad is not None:
            raise ConfigurationError(
                f"weight at {tree.label(bad)!r} must be finite and >= 0, "
                f"got {float(w[bad])}")
        w.flags.writeable = False
        self._tree = tree
        #: weights in canonical vertex order; entry 0 (the root) is 0
        self.weight_array = w
        self.name = name

    @property
    def tree(self) -> DirectedTree:
        return self._tree

    @cached_property
    def squared_weights(self) -> np.ndarray:
        squares = _squared(self.weight_array)
        squares.flags.writeable = False
        return squares

    @cached_property
    def vertex_norms(self) -> np.ndarray:
        """sqrt of the children's squared-weight sum, per vertex, summed
        left to right in child order; 0 on the last materialized level."""
        norms = np.sqrt(np.bincount(self._tree.parents[1:],
                                    weights=self.squared_weights[1:],
                                    minlength=self._tree.vertex_count))
        norms.flags.writeable = False
        return norms

    @cached_property
    def squared_norms(self) -> np.ndarray:
        """``vertex_norms`` squared, through the same libm pow as
        ``vertex_norm(shift, v) ** 2``."""
        squares = _squared(self.vertex_norms)
        squares.flags.writeable = False
        return squares

    def weight(self, vid: str) -> float:
        try:
            i = self._tree.index(vid)
        except RangeError:
            i = 0
        if i == 0:
            raise RangeError(f"no weight for vertex {vid!r}")
        return self.weight_array.item(i)

    def weights(self) -> dict[str, float]:
        return dict(zip(self._tree.labels[1:],
                        self.weight_array[1:].tolist()))

    @property
    def has_zero_weights(self) -> bool:
        return bool(np.any(self.weight_array[1:] == 0.0))

    @property
    def is_adjacency(self) -> bool:
        return bool(np.all(self.weight_array[1:] == 1.0))


@dataclass(frozen=True)
class WeightSpec:
    """Declarative weight assignment.

    kind:
      - "explicit": ``values`` maps every non-root vertex id to a weight.
      - "adjacency": every weight 1.
      - "kernel_condition": sibling groups share their parent's generation
        norm target; a vertex in generation n has squared norm
        two_isometry_weight(n, x)^2, split equally among children or
        according to ``proportions``.
      - "glowny": on a degree-2 root with two infinite rays; branch i gets
        first weight 1/sqrt(2(2-y_i^2)) and then the two-isometry weight
        ladder started at y_i.
      - "dirichlet": path weights two_isometry_weight(n, sqrt(2)).
      - "bergman_dual": path weights sqrt((n+1)/(n+2)).
      - "treiso": path weights sqrt(phi(n+1)/phi(n)) with phi(n) = n^2+1.
    """

    kind: str
    values: Optional[Mapping[str, float]] = None
    x: Optional[float] = None
    split: str = "equal"
    proportions: Optional[Mapping[str, float]] = None
    y1: Optional[float] = None
    y2: Optional[float] = None

    # kind -> (required fields, optional fields), in the order a run
    # spec checks them; glowny needs y1 and y2 too, but __post_init__
    # checks that, after the range of whichever one is given
    KIND_FIELDS = {
        "explicit": (("values",), ()),
        "adjacency": ((), ()),
        "kernel_condition": (("x",), ("split", "proportions")),
        "glowny": ((), ("y1", "y2")),
        "dirichlet": ((), ()),
        "bergman_dual": ((), ()),
        "treiso": ((), ()),
    }

    def __post_init__(self):
        if self.kind not in self.KIND_FIELDS:
            raise ConfigurationError(
                f"unknown weight kind {self.kind!r}; expected one of "
                f"{list(self.KIND_FIELDS)}")
        if self.kind == "explicit" and self.values is None:
            raise ConfigurationError("explicit weights require values")
        if self.kind == "kernel_condition":
            if self.x is None:
                raise ConfigurationError("kernel_condition requires x")
            if self.x < 1.0:
                raise DomainError(f"x must be >= 1, got {self.x}")
            if self.split not in ("equal", "given"):
                raise ConfigurationError(
                    f"split must be 'equal' or 'given', got {self.split!r}")
            if self.split == "given" and self.proportions is None:
                raise ConfigurationError(
                    "split='given' requires proportions")
        if self.kind == "glowny":
            for label, y in (("y1", self.y1), ("y2", self.y2)):
                if y is None:
                    raise ConfigurationError(f"glowny requires {label}")
                if not 1.0 < y < _SQRT2:
                    raise DomainError(
                        f"{label} must lie in the open interval "
                        f"(1, sqrt(2)), got {y}")


def _first(mask: np.ndarray) -> Optional[int]:
    """Index of the first True entry, or None."""
    i = int(np.argmax(mask)) if len(mask) else 0
    return i if len(mask) and mask[i] else None


def _require_path(tree: DirectedTree, kind: str) -> None:
    deg = tree.degrees[:int(tree.gen_offsets[tree.materialized_depth])]
    bad = _first(deg != 1)
    if bad is not None:
        raise ConfigurationError(
            f"weight kind {kind!r} requires a path; vertex "
            f"{tree.label(bad)!r} has degree {int(deg[bad])}")


def build_shift(spec: WeightSpec, tree: DirectedTree) -> WeightedShift:
    """Assign weights per the spec; the tree must be compatible."""
    n = tree.materialized_depth
    count = tree.vertex_count
    if spec.kind == "explicit":
        assert spec.values is not None
        return WeightedShift(tree, spec.values, name="explicit")
    if spec.kind == "adjacency":
        return WeightedShift.from_array(tree, np.ones(count),
                                        name="adjacency")
    if spec.kind in ("dirichlet", "bergman_dual", "treiso"):
        _require_path(tree, spec.kind)
        d = np.arange(1, count)  # on a path the index is the depth
        if spec.kind == "dirichlet":
            w = _two_isometry_weights(d - 1, _SQRT2)
        elif spec.kind == "bergman_dual":
            w = np.sqrt(d / (d + 1.0))
        else:  # treiso: sqrt(phi(d) / phi(d - 1)), phi(k) = k^2 + 1
            w = np.sqrt((d * d + 1.0) / ((d - 1) * (d - 1) + 1.0))
        return WeightedShift.from_array(tree, np.concatenate([[0.0], w]),
                                        name=spec.kind)
    parents = tree.parents[1:]
    if spec.kind == "kernel_condition":
        assert spec.x is not None
        inner = int(tree.gen_offsets[n])  # vertices of depth <= N-1
        deg = tree.degrees[:inner]
        leaf = _first(deg == 0)
        targets = _squared(_two_isometry_weights(np.arange(n), spec.x))
        # squared norm target of every parent, by depth
        target = np.repeat(targets, np.diff(tree.gen_offsets[:n + 1]))[parents]
        if spec.split == "equal":
            if leaf is not None:
                _leaf_error(tree, leaf)
            w = np.sqrt(target / deg[parents])
        else:
            assert spec.proportions is not None
            props = np.ones(count - 1)
            for vid, p in spec.proportions.items():
                if vid in tree and tree.index(vid) > 0:
                    props[tree.index(vid) - 1] = float(p)
            nonpositive = np.bincount(parents, weights=props <= 0,
                                      minlength=inner)
            bad = _first(nonpositive > 0)
            if leaf is not None and (bad is None or leaf < bad):
                _leaf_error(tree, leaf)
            if bad is not None:
                raise ConfigurationError(
                    f"proportions must be > 0 (children of "
                    f"{tree.label(bad)!r})")
            s = np.bincount(parents, weights=props * props, minlength=inner)
            w = np.sqrt(target / s[parents]) * props
        return WeightedShift.from_array(tree, np.concatenate([[0.0], w]),
                                        name=f"kernel_condition(x={spec.x})")
    # glowny
    assert spec.y1 is not None and spec.y2 is not None
    root_degree = int(tree.degrees[0])
    if root_degree != 2:
        raise ConfigurationError(
            f"glowny weights require a degree-2 root, got degree "
            f"{root_degree}")
    deg = tree.degrees[1:int(tree.gen_offsets[n])]
    bad = _first(deg != 1)
    if bad is not None:
        raise ConfigurationError(
            f"glowny weights require two infinite rays; vertex "
            f"{tree.label(bad + 1)!r} has degree {int(deg[bad])}")
    # two rays: generation g holds vertices 2g - 1 (first ray), 2g
    w = np.zeros(count)
    steps = np.arange(n - 1)
    for i, y in enumerate((spec.y1, spec.y2)):
        w[1 + i] = 1.0 / math.sqrt(2.0 * (2.0 - y * y))
        w[3 + i::2] = _two_isometry_weights(steps, y)
    return WeightedShift.from_array(tree, w,
                                    name=f"glowny(y1={spec.y1}, y2={spec.y2})")


def _leaf_error(tree: DirectedTree, i: int) -> None:
    raise ConfigurationError(
        f"kernel_condition weights need a leafless tree; vertex "
        f"{tree.label(i)!r} at depth {tree.depth_at(i)} has no children")


def _checked_index(shift: WeightedShift, u: str) -> int:
    """Index of u, which must have materialized children."""
    tree = shift.tree
    i = tree.index(u)
    depth = tree.depth_at(i)
    if depth > tree.materialized_depth - 1:
        raise RangeError(
            f"children of {u!r} at depth {depth} are not materialized")
    return i


def vertex_norm(shift: WeightedShift, u: str) -> float:
    """Norm of the image of the basis vector at u: sqrt(sum of squared
    child weights).  Requires depth(u) <= N-1."""
    return shift.vertex_norms.item(_checked_index(shift, u))


def operator_norm(shift: WeightedShift) -> float:
    """Largest vertex norm over the materialized range (the operator norm
    for shifts whose vertex norms are monotone along rays)."""
    tree = shift.tree
    inner = int(tree.gen_offsets[tree.materialized_depth])
    return float(shift.vertex_norms[:inner].max()) if inner else 0.0


@dataclass(frozen=True)
class PropertyVerdict:
    """Outcome of a depth-bounded operator property check."""

    holds: bool
    verified_depth: int
    witness: Optional[tuple[str, float]] = None
    tolerance: float = DEFAULT_TOL
    note: str = ""
    details: Mapping[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Report form of the verdict (``details`` is not reported)."""
        return {"holds": self.holds, "verified_depth": self.verified_depth,
                "witness": list(self.witness) if self.witness else None,
                "tolerance": self.tolerance, "note": self.note}


def _scaled(residual: float, lhs: float) -> float:
    return residual / (1.0 + abs(lhs))


def is_two_isometry(shift: WeightedShift,
                    tol: float = DEFAULT_TOL) -> PropertyVerdict:
    """Check the expansion identity at every vertex of depth <= N-2:
    sum over children v of weight(v)^2 * (2 - norm(v)^2) must equal 1."""
    tol = check_tolerance(tol)
    tree = shift.tree
    n = tree.materialized_depth
    if n < 2:
        raise RangeError("need materialized depth >= 2")
    off = tree.gen_offsets
    norms = shift.vertex_norms
    min_norm = float(norms[:off[n]].min())
    note = f"min vertex norm = {min_norm:.12g}"
    if shift.has_zero_weights:
        note += "; zero weights present"
    kids = slice(1, int(off[n]))
    terms = shift.squared_weights[kids] * (2.0 - shift.squared_norms[kids])
    lhs = np.bincount(tree.parents[kids], weights=terms,
                      minlength=int(off[n - 1]))[:off[n - 1]]
    res = np.abs(lhs - 1.0) / (1.0 + np.abs(lhs))
    bad = _first(res > tol)
    if bad is not None:
        return PropertyVerdict(False, n - 2,
                               (tree.label(bad), float(res[bad])), tol, note,
                               {"min_vertex_norm": min_norm})
    return PropertyVerdict(True, n - 2, None, tol, note,
                           {"min_vertex_norm": min_norm})


def _sibling_spread(shift: WeightedShift, tol: float
                    ) -> tuple[np.ndarray, np.ndarray]:
    """For every vertex of depth <= N-2: the spread (max - min) of the
    norms of its nonzero-weight children, and whether that spread breaks
    sibling constancy (two or more such children and spread above
    tol * (1 + max))."""
    tree = shift.tree
    n = tree.materialized_depth
    off = tree.gen_offsets
    parents_end = int(off[n - 1])
    kids = slice(1, int(off[n]))
    norms = shift.vertex_norms[kids]
    nonzero = shift.weight_array[kids] != 0.0
    deg = tree.degrees[:parents_end]
    # children of consecutive parents are consecutive: one segment each
    starts = (tree.child_starts[:parents_end] - 1)[deg > 0]
    spread = np.zeros(parents_end)
    bad = np.zeros(parents_end, dtype=bool)
    if len(starts):
        high = np.maximum.reduceat(np.where(nonzero, norms, -np.inf), starts)
        low = np.minimum.reduceat(np.where(nonzero, norms, np.inf), starts)
        counted = np.add.reduceat(nonzero.astype(np.int64), starts) >= 2
        with np.errstate(invalid="ignore"):
            gap = np.where(counted, high - low, 0.0)
        spread[deg > 0] = gap
        bad[deg > 0] = counted & (gap > tol * (1.0 + high))
    return spread, bad


def satisfies_kernel_condition(shift: WeightedShift, k: int = 0,
                               tol: float = DEFAULT_TOL) -> PropertyVerdict:
    """Sibling norm constancy from generation k on.

    For every vertex u with k <= depth(u) <= N-2, the norms of the
    children of u that carry a nonzero weight must coincide (relative
    spread within tolerance).  k = 0 is the plain condition; k >= 1 is
    the perturbed variant.
    """
    tol = check_tolerance(tol)
    if k < 0:
        raise DomainError(f"k must be >= 0, got {k}")
    tree = shift.tree
    n = tree.materialized_depth
    if n < k + 2:
        raise RangeError(
            f"need materialized depth >= {k + 2} for k = {k}")
    note = ""
    if shift.has_zero_weights:
        note = "zero-weight children excluded from constancy groups"
    spread, bad = _sibling_spread(shift, tol)
    start = int(tree.gen_offsets[k])
    first = _first(bad[start:])
    if first is not None:
        u = start + first
        return PropertyVerdict(False, n - 2,
                               (tree.label(u), float(spread[u])), tol, note)
    return PropertyVerdict(True, n - 2, None, tol, note)


def sibling_constancy_by_generation(shift: WeightedShift,
                                    tol: float = DEFAULT_TOL) -> np.ndarray:
    """Entry g is True when every vertex of depth g (g <= N-2) passes the
    sibling constancy check of ``satisfies_kernel_condition``; the
    condition from generation k on is ``all(result[k:])``."""
    tol = check_tolerance(tol)
    tree = shift.tree
    n = tree.materialized_depth
    if n < 2:
        raise RangeError("need materialized depth >= 2")
    _, bad = _sibling_spread(shift, tol)
    generation_of = np.repeat(np.arange(n - 1),
                              np.diff(tree.gen_offsets[:n]))
    return np.bincount(generation_of, weights=bad, minlength=n - 1) == 0


def cauchy_dual(shift: WeightedShift) -> WeightedShift:
    """Dual shift: weight(v) divided by the squared norm at parent(v).

    Requires every vertex norm to be positive (left invertibility on the
    materialized part).  The result lives on the same tree; treat its
    deepest level as one step less reliable than the original's.
    """
    tree = shift.tree
    norms = shift.vertex_norms
    zero = _first(norms[:int(tree.gen_offsets[tree.materialized_depth])]
                  == 0.0)
    if zero is not None:
        raise NotLeftInvertibleError(
            f"vertex norm is 0 at {tree.label(zero)!r}; the shift is not "
            f"left invertible")
    w = np.zeros(tree.vertex_count)
    w[1:] = shift.weight_array[1:] / shift.squared_norms[tree.parents[1:]]
    return WeightedShift.from_array(
        tree, w, name=f"dual({shift.name})" if shift.name else None)


@dataclass(frozen=True)
class AdjacencyClassification:
    """Class membership of the all-weights-one shift on a tree.

    Flags are mutually consistent: isometry implies all others.  The
    kernel_condition flag reports membership in the joint class
    (expansion identity plus sibling constancy), which for adjacency
    shifts holds exactly on paths.
    """

    two_isometry: PropertyVerdict
    kernel_condition: PropertyVerdict
    quasi_brownian_isometry: PropertyVerdict
    brownian_isometry: PropertyVerdict
    isometry: PropertyVerdict


def classify_adjacency(tree: DirectedTree,
                       tol: float = DEFAULT_TOL) -> AdjacencyClassification:
    """Classify the adjacency (all weights one) shift on the tree."""
    tol = check_tolerance(tol)
    n = tree.materialized_depth
    if n < 2:
        raise RangeError("need materialized depth >= 2")
    vd = n - 2

    def verdict(holds, witness=None, res=0.0, note=""):
        return PropertyVerdict(holds, vd,
                               None if holds else (witness, res), tol, note)

    off = tree.gen_offsets
    parents_end = int(off[n - 1])
    deg = tree.degrees

    # expansion identity: child degrees sum to 2*deg - 1
    kids = slice(1, int(off[n]))
    child_sum = np.bincount(tree.parents[kids], weights=deg[kids],
                            minlength=parents_end)[:parents_end]
    bad = _first(child_sum != 2 * deg[:parents_end] - 1)
    two_iso = verdict(True)
    if bad is not None:
        lhs, rhs = int(child_sum[bad]), 2 * int(deg[bad]) - 1
        two_iso = verdict(False, tree.label(bad),
                          _scaled(abs(lhs - rhs), lhs),
                          note=f"degree sum {lhs} != {rhs}")

    # all degrees one (isometry; on rooted leafless trees: a path)
    branch = _first(deg[:parents_end] != 1)
    path_witness = None if branch is None else tree.label(branch)
    iso = verdict(path_witness is None, path_witness,
                  0.0 if branch is None else float(deg[branch] - 1))

    # the joint class and the Brownian isometries: exactly the paths
    joint = iso.holds and two_iso.holds
    joint_witness = None if joint else (path_witness or two_iso.witness[0])
    kernel = verdict(
        joint, joint_witness, 1.0,
        note="adjacency shifts satisfy the joint sibling-constant class "
             "exactly on paths")

    structure = classify_tree(tree)
    qb_holds = two_iso.holds and (iso.holds or structure.quasi_brownian.holds)
    qb_witness = None
    if not qb_holds:
        if not two_iso.holds:
            qb_witness = two_iso.witness[0]
        elif structure.quasi_brownian.witness is not None:
            qb_witness = structure.quasi_brownian.witness
        else:
            qb_witness = tree.root
    qb = verdict(qb_holds, qb_witness, 0.0 if qb_holds else 1.0,
                 note=f"valency {structure.valency}" if structure.valency
                 else "")

    brownian = verdict(joint, joint_witness, 1.0,
                       note="rooted case: requires a path")
    return AdjacencyClassification(two_iso, kernel, qb, brownian, iso)


@dataclass(frozen=True)
class ShiftInvariants:
    """Complete unitary invariants within the sibling-constant class:
    root norm and the per-generation branching degrees."""

    root_norm: float
    branching: tuple[int, ...]
    verified_depth: int


def shift_invariants(shift: WeightedShift,
                     tol: float = DEFAULT_TOL) -> ShiftInvariants:
    """Invariants of a shift in the sibling-constant expansion class.

    Raises ClassificationError outside that class: the pair is a complete
    invariant only there.
    """
    two = is_two_isometry(shift, tol)
    if not two.holds:
        raise ClassificationError(
            f"invariants require the expansion identity; witness "
            f"{two.witness}")
    kc = satisfies_kernel_condition(shift, 0, tol)
    if not kc.holds:
        raise ClassificationError(
            f"invariants require sibling norm constancy; witness "
            f"{kc.witness}")
    tree = shift.tree
    n = tree.materialized_depth
    return ShiftInvariants(
        float(shift.vertex_norms[0]),
        tuple(branching_degree(tree, k) for k in range(1, n + 1)),
        verified_depth=n)


def are_unitarily_equivalent(a: ShiftInvariants, b: ShiftInvariants,
                             tol: float = 1e-12) -> bool:
    """Equivalence decision from invariant tuples computed at equal depth.

    True iff the root norms agree above 1 and the branching sequences
    agree elementwise, or both root norms are 1 and the branching sums
    agree.
    """
    if a.verified_depth != b.verified_depth:
        raise ComparisonError(
            f"invariants computed to different depths "
            f"({a.verified_depth} vs {b.verified_depth})")
    a_one = math.isclose(a.root_norm, 1.0, rel_tol=tol, abs_tol=tol)
    b_one = math.isclose(b.root_norm, 1.0, rel_tol=tol, abs_tol=tol)
    if a_one and b_one:
        return sum(a.branching) == sum(b.branching)
    if a_one != b_one:
        return False
    return (math.isclose(a.root_norm, b.root_norm, rel_tol=tol, abs_tol=tol)
            and a.branching == b.branching)


def are_unitarily_equivalent_multiset(
        a: Iterable[Sequence[float]], b: Iterable[Sequence[float]]) -> bool:
    """Multiset comparison of scalar-shift weight prefixes (exact)."""
    sa = sorted(tuple(s) for s in a)
    sb = sorted(tuple(s) for s in b)
    return sa == sb
