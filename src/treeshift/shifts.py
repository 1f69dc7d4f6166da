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
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import (ClassificationError, ComparisonError, ConfigurationError,
                     DomainError, NotLeftInvertibleError, RangeError)
from .trees import DirectedTree, Report, quasi_brownian

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
    "require_kernel_class",
    "cauchy_dual",
    "cauchy_dual_weights",
    "classify_adjacency",
    "shift_invariants",
    "are_unitarily_equivalent",
    "are_unitarily_equivalent_multiset",
    "DEFAULT_TOL",
    "check_tolerance",
]

DEFAULT_TOL = 1e-9


def check_tolerance(tol: object, name: str = "tol") -> float:
    """``tol`` as a float when it is finite and > 0, else
    ConfigurationError naming the argument ``name``.  Every function
    that takes a tolerance checks it."""
    try:
        value = float(tol)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise ConfigurationError(
            f"{name} must be a finite number > 0, got {tol!r}", name)
    return value


_SQRT2 = math.sqrt(2.0)


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

    The weights are one float array over the tree's child edges
    (``edge_weights``; its root entry is 0 and carries no meaning): a
    vertex has the weight of the class edge into it, and its children
    are its class's edges, so ``class_norms`` holds one norm per class.
    Both, and the squares, ``has_zero_weights`` and ``is_adjacency``,
    are computed on first use and kept; squares are products, which
    IEEE 754 rounds correctly.  ``weight_array``, ``squared_weights``,
    ``vertex_norms`` and ``squared_norms`` are the same arrays per
    vertex in canonical order, read-only gathers that are not kept (on
    a full tree, the arrays themselves).  The verdicts of
    ``is_two_isometry`` and ``satisfies_kernel_condition`` are kept per
    tolerance (and k), never the arrays behind them.
    """

    def __init__(self, tree: DirectedTree, edge_weights: Sequence[float],
                 name: Optional[str] = None):
        """Shift with the weight ``edge_weights[e]`` at every vertex
        child edge e of ``tree`` leads to (entry 0, the root's, is
        ignored), copied and frozen.  The tree is never expanded."""
        w = np.array(edge_weights, dtype=float)
        edges = len(tree.children)
        if w.shape != (edges,):
            raise ConfigurationError(
                f"{w.size} weights for the root and {edges - 1} child edges")
        w[0] = 0.0
        bad = _first(~(np.isfinite(w) & (w >= 0.0)))
        if bad is not None:
            raise ConfigurationError(
                f"weight at {tree.edge_label(bad)!r} must be finite and "
                f">= 0, got {float(w[bad])}")
        w.flags.writeable = False
        self._tree = tree
        #: weights by child edge; entry 0 (the root) is 0
        self.edge_weights = w
        self.name = name
        # check verdicts by (check, k, tol); see _kept
        self._verdicts: dict[tuple, PropertyVerdict] = {}

    @property
    def tree(self) -> DirectedTree:
        return self._tree

    @cached_property
    def edge_squared_weights(self) -> np.ndarray:
        w = self.edge_weights
        with np.errstate(over="ignore"):  # the checks fail on inf
            squares = w * w
        squares.flags.writeable = False
        return squares

    @cached_property
    def class_norms(self) -> np.ndarray:
        """sqrt of the children's squared-weight sum, per class, summed
        left to right over its child edges, as every vertex of the class
        sums its children; 0 on the last materialized level."""
        tree = self._tree
        norms = np.sqrt(np.bincount(
            tree.class_parents[1:], weights=self.edge_squared_weights[1:],
            minlength=tree.class_count))
        norms.flags.writeable = False
        return norms

    @cached_property
    def class_squared_norms(self) -> np.ndarray:
        """``class_norms`` times itself, entry by entry: the square of
        the rounded norm, not the children's squared-weight sum."""
        norms = self.class_norms
        with np.errstate(over="ignore"):  # the checks fail on inf
            squares = norms * norms
        squares.flags.writeable = False
        return squares

    # per vertex, in canonical order: the edge and class arrays, gathered
    @property
    def weight_array(self) -> np.ndarray:
        """Weights in canonical vertex order; entry 0 (the root) is 0."""
        return self._tree.per_vertex_edge(self.edge_weights)

    @property
    def squared_weights(self) -> np.ndarray:
        return self._tree.per_vertex_edge(self.edge_squared_weights)

    @property
    def vertex_norms(self) -> np.ndarray:
        """``class_norms`` per vertex."""
        return self._tree.per_vertex(self.class_norms)

    @property
    def squared_norms(self) -> np.ndarray:
        return self._tree.per_vertex(self.class_squared_norms)

    def weight(self, vid: str) -> float:
        try:
            i = self._tree.index(vid)
        except RangeError:
            i = 0
        if i == 0:
            raise RangeError(f"no weight for vertex {vid!r}")
        return self.edge_weights.item(self._tree.link(i)[1])

    def weights(self) -> dict[str, float]:
        return dict(zip(self._tree.labels[1:],
                        self.weight_array[1:].tolist()))

    @cached_property
    def has_zero_weights(self) -> bool:
        return bool(np.any(self.edge_weights[1:] == 0.0))

    @cached_property
    def is_adjacency(self) -> bool:
        return bool(np.all(self.edge_weights[1:] == 1.0))


@dataclass(frozen=True)
class WeightSpec:
    """Declarative weight assignment.

    kind:
      - "explicit": ``values`` maps every non-root vertex id to a weight.
      - "adjacency": every weight 1.
      - "kernel_condition": sibling groups share their parent's generation
        norm target; a vertex in generation n has squared norm
        two_isometry_weight(n, x)^2, split equally among children, or in
        proportion to ``proportions`` (default 1) when that is given.
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
    proportions: Optional[Mapping[str, float]] = None
    y1: Optional[float] = None
    y2: Optional[float] = None

    # kind -> (required fields, optional fields), in the order a run
    # spec checks them; glowny needs y1 and y2 too, but __post_init__
    # checks that, after the range of whichever one is given
    KIND_FIELDS = {
        "explicit": (("values",), ()),
        "adjacency": ((), ()),
        "kernel_condition": (("x",), ("proportions",)),
        "glowny": ((), ("y1", "y2")),
        "dirichlet": ((), ()),
        "bergman_dual": ((), ()),
        "treiso": ((), ()),
    }

    def __post_init__(self):
        if self.kind not in self.KIND_FIELDS:
            raise ConfigurationError(
                f"unknown weight kind {self.kind!r}; expected one of "
                f"{list(self.KIND_FIELDS)}", "kind")
        if self.kind == "explicit" and self.values is None:
            raise ConfigurationError("explicit weights require values",
                                     "values")
        if self.kind == "kernel_condition":
            if self.x is None:
                raise ConfigurationError("kernel_condition requires x", "x")
            x = _real(self.x, "x")
            if x < 1.0:
                raise DomainError(f"x must be >= 1, got {self.x}", "x")
            if not math.isfinite(x * x - 1.0):
                raise DomainError(f"x * x - 1 must be finite, got x = "
                                  f"{self.x!r}", "x")
        if self.kind == "glowny":
            for label, y in (("y1", self.y1), ("y2", self.y2)):
                if y is None:
                    raise ConfigurationError(f"glowny requires {label}",
                                             label)
                if not 1.0 < _real(y, label) < _SQRT2:
                    raise DomainError(
                        f"{label} must lie in the open interval "
                        f"(1, sqrt(2)), got {y}", label)


def _real(value: object, name: str) -> float:
    """``value`` as a float; ConfigurationError, its ``field`` ``name``,
    unless it is an int or a float (a bool is neither), and DomainError
    for an int past the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(
            f"{name} must be an int or a float, got {value!r}", name)
    try:
        return float(value)
    except OverflowError:
        raise DomainError(f"{name} must lie within the float range",
                          name) from None


def _first(mask: np.ndarray) -> Optional[int]:
    """Index of the first True entry, or None."""
    i = int(np.argmax(mask)) if len(mask) else 0
    return i if len(mask) and mask[i] else None


def _require_path(tree: DirectedTree, kind: str) -> None:
    deg = tree.class_degrees[:tree.class_offsets.item(tree.materialized_depth)]
    bad = _first(deg != 1)
    if bad is not None:
        raise ConfigurationError(
            f"weight kind {kind!r} requires a path; vertex "
            f"{tree.class_label(bad)!r} has degree {int(deg[bad])}")


def build_shift(spec: WeightSpec, tree: DirectedTree) -> WeightedShift:
    """Assign weights per the spec; the tree must be compatible.

    Adjacency, ``kernel_condition`` without proportions and the path
    kinds follow from the tree's shape: one weight per child edge, and
    the shift lives on the tree's classes.  Explicit weights,
    proportions and glowny weights name vertices or branches, so they
    always use ``tree.expanded()``."""
    if spec.kind in ("explicit", "glowny") or spec.proportions is not None:
        tree = tree.expanded()
    if spec.kind == "explicit":
        values = spec.values
        assert values is not None
        labels = tree.labels
        if labels[0] in values:
            raise ConfigurationError("root must not carry a weight")
        try:
            w = [0.0] + [values[v] for v in labels[1:]]
        except KeyError as exc:
            raise ConfigurationError(
                f"missing weight for vertex {exc.args[0]!r}") from None
        if len(values) != len(labels) - 1:
            extra = set(values) - set(labels)
            raise ConfigurationError(
                f"weights given for unknown vertices: {sorted(extra)[:3]}")
        return WeightedShift(tree, w, name="explicit")
    n = tree.materialized_depth
    edges = len(tree.class_parents)  # the root's entry and the E edges
    if spec.kind == "adjacency":
        return WeightedShift(tree, np.ones(edges), "adjacency")
    if spec.kind in ("dirichlet", "bergman_dual", "treiso"):
        _require_path(tree, spec.kind)
        d = np.arange(1, edges)  # on a path the edge index is the depth
        if spec.kind == "dirichlet":
            w = _two_isometry_weights(d - 1, _SQRT2)
        elif spec.kind == "bergman_dual":
            w = np.sqrt(d / (d + 1.0))
        else:  # treiso: sqrt(phi(d) / phi(d - 1)), phi(k) = k^2 + 1
            w = np.sqrt((d * d + 1.0) / ((d - 1) * (d - 1) + 1.0))
        return WeightedShift(tree, np.concatenate([[0.0], w]), spec.kind)
    parents = tree.class_parents[1:]
    if spec.kind == "kernel_condition":
        assert spec.x is not None
        inner = tree.class_offsets.item(n)  # classes of depth <= N-1
        deg = tree.class_degrees[:inner]
        leaf = _first(deg == 0)
        ladder = _two_isometry_weights(np.arange(n), spec.x)
        targets = ladder * ladder
        # squared norm target of every parent, by depth
        target = np.repeat(targets, np.diff(tree.class_offsets[:n + 1]))
        name = f"kernel_condition(x={spec.x})"
        if spec.proportions is None:
            if leaf is not None:
                _leaf_error(tree, leaf)
            # the weight of every child edge of each parent class
            return WeightedShift(tree, np.concatenate(
                [[0.0], np.sqrt(target / deg)[parents]]), name)
        props = np.ones(edges - 1)
        for vid, p in spec.proportions.items():
            if vid not in tree or tree.index(vid) == 0:
                raise ConfigurationError(
                    f"proportions key {vid!r} names no non-root vertex")
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
        # a sum of squares that overflows, underflows to 0 or leaves
        # target / sum infinite describes no operator in floats
        with np.errstate(over="ignore", divide="ignore"):
            s = np.bincount(parents, weights=props * props,
                            minlength=inner)
            ratio = target / s
        bad = _first(~(np.isfinite(s) & np.isfinite(ratio)))
        if bad is not None:
            raise ConfigurationError(
                f"proportions at the children of {tree.label(bad)!r} "
                f"are out of range: their sum of squares is "
                f"{float(s[bad])!r}")
        w = np.sqrt(ratio[parents]) * props
        return WeightedShift(tree, np.concatenate([[0.0], w]), name)
    # glowny
    assert spec.y1 is not None and spec.y2 is not None
    root_degree = int(tree.class_degrees[0])
    if root_degree != 2:
        raise ConfigurationError(
            f"glowny weights require a degree-2 root, got degree "
            f"{root_degree}")
    deg = tree.class_degrees[1:tree.class_offsets.item(n)]
    bad = _first(deg != 1)
    if bad is not None:
        raise ConfigurationError(
            f"glowny weights require two infinite rays; vertex "
            f"{tree.label(bad + 1)!r} has degree {int(deg[bad])}")
    # two rays: generation g holds vertices 2g - 1 (first ray), 2g
    w = np.zeros(edges)
    steps = np.arange(n - 1)
    for i, y in enumerate((spec.y1, spec.y2)):
        w[1 + i] = 1.0 / math.sqrt(2.0 * (2.0 - y * y))
        w[3 + i::2] = _two_isometry_weights(steps, y)
    return WeightedShift(tree, w, f"glowny(y1={spec.y1}, y2={spec.y2})")


def _leaf_error(tree: DirectedTree, c: int) -> None:
    raise ConfigurationError(
        f"kernel_condition weights need a leafless tree; vertex "
        f"{tree.class_label(c)!r} at depth {tree.class_depth(c)} has no "
        f"children")


def _checked_index(shift: WeightedShift, u: str) -> int:
    """Class of u, which must have materialized children."""
    tree = shift.tree
    i = tree.index(u)
    depth = tree.depth_at(i)
    if depth > tree.materialized_depth - 1:
        raise RangeError(
            f"children of {u!r} at depth {depth} are not materialized")
    return tree.class_of(i)


def vertex_norm(shift: WeightedShift, u: str) -> float:
    """Norm of the image of the basis vector at u: sqrt(sum of squared
    child weights).  Requires depth(u) <= N-1."""
    return shift.class_norms.item(_checked_index(shift, u))


def operator_norm(shift: WeightedShift) -> float:
    """Largest vertex norm over the materialized range (the operator norm
    for shifts whose vertex norms are monotone along rays)."""
    tree = shift.tree
    inner = tree.class_offsets.item(tree.materialized_depth)
    return float(shift.class_norms[:inner].max()) if inner else 0.0


@dataclass(frozen=True)
class PropertyVerdict(Report):
    """Outcome of a depth-bounded operator property check."""

    holds: bool
    verified_depth: int
    witness: Optional[tuple[str, float]] = None
    tolerance: float = DEFAULT_TOL
    note: str = ""
    details: Mapping[str, float] = field(default_factory=dict,
                                         metadata={"report": False})

    def to_dict(self) -> dict:
        """Report form of the verdict.  A witness value that overflowed
        is written as null, which strict JSON parsers accept, and the
        note says so."""
        form, witness = super().to_dict(), self.witness
        if witness is not None and not math.isfinite(witness[1]):
            form["witness"] = (witness[0], None)
            form["note"] = "; ".join(filter(None, (
                self.note, f"witness value {witness[1]!r} (an overflow) "
                           f"written as null")))
        return form


def _scaled(residual: float, lhs: float) -> float:
    return residual / (1.0 + abs(lhs))


def _kept(shift: WeightedShift, key: tuple,
          check: Callable[[], PropertyVerdict]) -> PropertyVerdict:
    """``check()``, run once per shift and key; every caller gets its own
    copy of ``details``, so no caller sees another's changes to it."""
    verdict = shift._verdicts.get(key)
    if verdict is None:
        verdict = shift._verdicts[key] = check()
    return replace(verdict, details=dict(verdict.details))


def is_two_isometry(shift: WeightedShift,
                    tol: float = DEFAULT_TOL) -> PropertyVerdict:
    """Check the expansion identity at every vertex of depth <= N-2:
    sum over children v of weight(v)^2 * (2 - norm(v)^2) must equal 1.
    The verdict is computed once per shift and tolerance."""
    tol = check_tolerance(tol)
    if shift.tree.materialized_depth < 2:
        raise RangeError("need materialized depth >= 2")
    return _kept(shift, ("two_isometry", tol),
                 lambda: _expansion_check(shift, tol))


def _expansion_check(shift: WeightedShift, tol: float) -> PropertyVerdict:
    """The array pass behind ``is_two_isometry``."""
    tree = shift.tree
    n = tree.materialized_depth
    inner = tree.class_offsets.item(n - 1)  # classes of depth <= N-2
    min_norm = float(shift.class_norms[:tree.class_offsets.item(n)].min())
    note = f"min vertex norm = {min_norm:.12g}"
    if shift.has_zero_weights:
        note += "; zero weights present"
    kids = slice(1, tree.class_starts.item(inner))  # their child edges
    with np.errstate(over="ignore", invalid="ignore"):
        terms = shift.edge_squared_weights[kids] * (
            2.0 - shift.class_squared_norms[tree.edge_classes(kids)])
        lhs = np.bincount(tree.class_parents[kids], weights=terms,
                          minlength=inner)[:inner]
        res = np.abs(lhs - 1.0) / (1.0 + np.abs(lhs))
    # an overflow leaves lhs infinite and res NaN: a failure, not a pass
    bad = _first(~(res <= tol))
    if bad is not None:
        return PropertyVerdict(False, n - 2,
                               (tree.class_label(bad), float(res[bad])), tol,
                               note,
                               {"min_vertex_norm": min_norm})
    return PropertyVerdict(True, n - 2, None, tol, note,
                           {"min_vertex_norm": min_norm})


def _child_segments(tree: DirectedTree, parents: np.ndarray
                    ) -> tuple[slice | np.ndarray, np.ndarray]:
    """The child edges of ``parents`` (increasing classes, each with a
    child), in order, as one slice when no other class's edge lies
    between them, else as an index array; and where each parent's
    segment of them starts."""
    counts = tree.class_degrees[parents]
    first = tree.class_starts[parents]
    if first.item(-1) - first.item(0) == counts[:-1].sum():
        return (slice(first.item(0), first.item(-1) + counts.item(-1)),
                first - first.item(0))
    segments = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=segments[1:])
    edges = np.repeat(first - segments, counts)
    edges += np.arange(len(edges))
    return edges, segments


def _sibling_spread(shift: WeightedShift, tol: float
                    ) -> tuple[np.ndarray, np.ndarray]:
    """The classes of depth <= N-2 that break sibling constancy, in
    increasing order, and the spread (max - min) of the norms of each
    one's nonzero-weight children.  A class breaks it with two or more
    such children and a spread above tol * (1 + max), or an infinite
    norm among them (an overflow).

    Only a suspect can break it: a parent with two or more children, one
    of which has a norm other than its previous sibling's; zero weights
    need no test, since any subset of equal norms agrees.  The
    reductions run over the suspects' children alone."""
    tree = shift.tree
    parents_end = tree.class_offsets.item(tree.materialized_depth - 1)
    none = np.zeros(0, dtype=np.int64), np.zeros(0)
    branching = np.flatnonzero(tree.class_degrees[:parents_end] >= 2)
    if not len(branching):
        return none
    edges, segments = _child_segments(tree, branching)
    kid_norms = shift.class_norms[tree.edge_classes(edges)]
    with np.errstate(invalid="ignore"):
        # a difference, not !=, so that inf - inf (NaN) differs too
        differs = kid_norms[1:] - kid_norms[:-1] != 0.0
    differs[segments[1:] - 1] = False  # a first child and the child before
    if not differs.any():
        return none
    # differs[i] compares child i + 1 with child i, both in i's segment
    suspect = np.zeros(len(branching), dtype=bool)
    suspect[np.searchsorted(segments, np.flatnonzero(differs),
                            side="right") - 1] = True
    suspects = branching
    if not suspect.all():
        suspects = branching[suspect]
        edges, segments = _child_segments(tree, suspects)
        kid_norms = shift.class_norms[tree.edge_classes(edges)]
    nonzero = shift.edge_weights[edges] != 0.0
    high = np.maximum.reduceat(np.where(nonzero, kid_norms, -np.inf),
                               segments)
    low = np.minimum.reduceat(np.where(nonzero, kid_norms, np.inf), segments)
    counted = np.add.reduceat(nonzero.astype(np.int64), segments) >= 2
    with np.errstate(invalid="ignore"):
        gap = high - low
        bad = counted & ((gap > tol * (1.0 + high)) | (high == np.inf))
    return suspects[bad], gap[bad]


def satisfies_kernel_condition(shift: WeightedShift, k: int = 0,
                               tol: float = DEFAULT_TOL) -> PropertyVerdict:
    """Sibling norm constancy from generation k on.

    For every vertex u with k <= depth(u) <= N-2, the norms of the
    children of u that carry a nonzero weight must coincide (relative
    spread within tolerance).  k = 0 is the plain condition; k >= 1 is
    the perturbed variant.  ``details["constant_from"]`` is the smallest
    generation g >= k such that the condition holds from g on (N-1 when
    it fails in generation N-2).  The verdict is computed once per
    shift, k and tolerance.
    """
    tol = check_tolerance(tol)
    if k < 0:
        raise DomainError(f"k must be >= 0, got {k}")
    if shift.tree.materialized_depth < k + 2:
        raise RangeError(
            f"need materialized depth >= {k + 2} for k = {k}")
    return _kept(shift, ("kernel_condition", k, tol),
                 lambda: _constancy_check(shift, k, tol))


def _constancy_check(shift: WeightedShift, k: int,
                     tol: float) -> PropertyVerdict:
    """The array pass behind ``satisfies_kernel_condition``."""
    tree = shift.tree
    n = tree.materialized_depth
    note = ""
    if shift.has_zero_weights:
        note = "zero-weight children excluded from constancy groups"
    failing, spreads = _sibling_spread(shift, tol)
    i = int(np.searchsorted(failing, tree.class_offsets[k]))
    if i == len(failing):
        return PropertyVerdict(True, n - 2, None, tol, note,
                               {"constant_from": k})
    # constancy holds from the generation after the last failure
    after = np.searchsorted(tree.class_offsets, failing.item(-1),
                            side="right")
    return PropertyVerdict(False, n - 2,
                           (tree.class_label(failing.item(i)),
                            spreads.item(i)),
                           tol, note, {"constant_from": int(after)})


def require_kernel_class(shift: WeightedShift, k: int, tol: float,
                         prefix: str) -> None:
    """Raise ClassificationError unless the shift satisfies the expansion
    identity and sibling norm constancy from generation k on.  The
    message starts with ``prefix`` (what needs the class) and names the
    witness of the first check that fails."""
    two = is_two_isometry(shift, tol)
    if not two.holds:
        raise ClassificationError(
            f"{prefix} the expansion identity; witness {two.witness}")
    constancy = satisfies_kernel_condition(shift, k, tol)
    if not constancy.holds:
        since = f" from generation {k}" if k else ""
        raise ClassificationError(
            f"{prefix} sibling norm constancy{since}; witness "
            f"{constancy.witness}")


def cauchy_dual_weights(shift: WeightedShift,
                        end: Optional[int] = None) -> np.ndarray:
    """Weights of the Cauchy dual at the child edges 1..end-1 (default:
    every edge), weight(v) / norm(parent(v))^2 for the vertex v an edge
    leads to; entry i holds edge i + 1, which on a full tree leads to
    vertex i + 1.

    Raises NotLeftInvertibleError at the first vertex of the
    materialized part whose norm is 0, whatever ``end`` is."""
    tree = shift.tree
    inner = tree.class_offsets.item(tree.materialized_depth)
    zero = _first(shift.class_norms[:inner] == 0.0)
    if zero is not None:
        raise NotLeftInvertibleError(
            f"vertex norm is 0 at {tree.class_label(zero)!r}; the shift "
            f"is not left invertible")
    return (shift.edge_weights[1:end]
            / shift.class_squared_norms[tree.class_parents[1:end]])


def cauchy_dual(shift: WeightedShift) -> WeightedShift:
    """Dual shift: weight(v) divided by the squared norm at parent(v),
    one weight per child edge (``cauchy_dual_weights``).

    Requires every vertex norm to be positive (left invertibility on the
    materialized part).  The result lives on ``shift.tree``; treat its
    deepest level as one step less reliable than the original's.
    """
    return WeightedShift(shift.tree,
                         np.concatenate(([0.0], cauchy_dual_weights(shift))),
                         f"dual({shift.name})" if shift.name else None)


@dataclass(frozen=True)
class AdjacencyClassification(Report):
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

    inner = tree.class_offsets.item(n - 1)  # classes of depth <= N-2
    deg = tree.class_degrees

    grandchildren, target = tree.class_adjacency_expansion()
    bad = _first(grandchildren != target)
    two_iso = verdict(True)
    if bad is not None:
        lhs, rhs = grandchildren.item(bad), target.item(bad)
        two_iso = verdict(False, tree.class_label(bad),
                          _scaled(abs(lhs - rhs), lhs),
                          note=f"degree sum {lhs} != {rhs}")

    # all degrees one (isometry; on rooted leafless trees: a path)
    branch = _first(deg[:inner] != 1)
    path_witness = None if branch is None else tree.class_label(branch)
    iso = verdict(path_witness is None, path_witness,
                  0.0 if branch is None else float(deg[branch] - 1))

    # the joint class and the Brownian isometries: exactly the paths
    joint = iso.holds and two_iso.holds
    joint_witness = None if joint else (path_witness or two_iso.witness[0])
    kernel = verdict(
        joint, joint_witness, 1.0,
        note="adjacency shifts satisfy the joint sibling-constant class "
             "exactly on paths")

    structure = quasi_brownian(tree)
    qb_holds = two_iso.holds and (iso.holds or structure.holds)
    qb_witness = None
    if not qb_holds:
        if not two_iso.holds:
            qb_witness = two_iso.witness[0]
        elif structure.witness is not None:
            qb_witness = structure.witness
        else:
            qb_witness = tree.root
    # a quasi-Brownian tree's valency is its maximum degree
    qb = verdict(qb_holds, qb_witness, 0.0 if qb_holds else 1.0,
                 note=f"valency {int(deg.max())}" if structure.holds
                 else "")

    brownian = verdict(joint, joint_witness, 1.0,
                       note="rooted case: requires a path")
    return AdjacencyClassification(two_iso, kernel, qb, brownian, iso)


@dataclass(frozen=True)
class ShiftInvariants(Report):
    """Complete unitary invariants within the sibling-constant class:
    root norm and the per-generation branching degrees."""

    root_norm: float
    branching: tuple[int, ...]
    verified_depth: int = field(metadata={"report": False})


def shift_invariants(shift: WeightedShift,
                     tol: float = DEFAULT_TOL) -> ShiftInvariants:
    """Invariants of a shift in the sibling-constant expansion class.

    Raises ClassificationError outside that class: the pair is a complete
    invariant only there.
    """
    require_kernel_class(shift, 0, tol, "invariants require")
    tree = shift.tree
    # generation k - 1's sum of (degree - 1), k = 1..N
    return ShiftInvariants(
        float(shift.class_norms[0]),
        tuple(np.diff(tree.gen_offsets, 2).tolist()),
        verified_depth=tree.materialized_depth)


def are_unitarily_equivalent(a: ShiftInvariants, b: ShiftInvariants,
                             tol: float = 1e-12) -> bool:
    """Equivalence decision from invariant tuples computed at equal depth.

    True iff the root norms agree above 1 and the branching sequences
    agree elementwise, or both root norms are 1 and the branching sums
    agree.
    """
    tol = check_tolerance(tol)
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
