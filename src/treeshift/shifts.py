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
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import (ClassificationError, ComparisonError, ConfigurationError,
                     DomainError, NotLeftInvertibleError, RangeError)
from .trees import DirectedTree, quasi_brownian

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
    "sibling_constancy_by_generation",
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

    The weights are one float array in the tree's class order
    (``class_weights``; its root entry is 0 and carries no meaning):
    every vertex of a class has its class's weight.  ``class_norms`` and
    the squares are computed per class on first use and kept, and so
    are ``has_zero_weights`` and ``is_adjacency``; squares are products,
    which IEEE 754 rounds correctly.  ``weight_array``,
    ``squared_weights``, ``vertex_norms`` and ``squared_norms`` are the
    same arrays per vertex in canonical order: the class arrays of
    ``expanded()``, which on a full tree is the shift itself.  The
    verdicts of ``is_two_isometry`` and ``satisfies_kernel_condition``
    are kept per tolerance (and k), never the arrays behind them.
    """

    def __init__(self, tree: DirectedTree, weights: Mapping[str, float],
                 name: Optional[str] = None):
        """Shift with the weight ``weights[v]`` at every non-root vertex
        id v; the weights name vertices, so on a class tree the shift
        lives on ``tree.expanded()``."""
        tree = tree.expanded()
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
        """Shift from weights in canonical order, one per class of the
        tree (entry 0 is ignored); on a class tree, one weight per vertex
        builds the shift on ``tree.expanded()``."""
        if len(weights) != tree.class_count \
                and len(weights) == tree.vertex_count:
            tree = tree.expanded()
        shift = cls.__new__(cls)
        shift._init(tree, weights, name)
        return shift

    @classmethod
    def _keeping(cls, tree: DirectedTree, weights: np.ndarray,
                 name: Optional[str]) -> "WeightedShift":
        """Shift that keeps ``weights``, a fresh float array of one
        weight per class, as its ``class_weights``, without a copy."""
        shift = cls.__new__(cls)
        shift._init(tree, weights, name, copy=False)
        return shift

    def _init(self, tree: DirectedTree, weights: Sequence[float],
              name: Optional[str], copy: bool = True) -> None:
        w = (np.array if copy else np.asarray)(weights, dtype=float)
        if w.shape != (tree.class_count,):
            raise ConfigurationError(
                f"{len(w)} weights for a tree of {tree.class_count} classes")
        w[0] = 0.0
        bad = _first(~(np.isfinite(w) & (w >= 0.0)))
        if bad is not None:
            raise ConfigurationError(
                f"weight at {tree.class_label(bad)!r} must be finite and "
                f">= 0, got {float(w[bad])}")
        w.flags.writeable = False
        self._tree = tree
        #: weights in class order; entry 0 (the root) is 0
        self.class_weights = w
        self.name = name
        # check verdicts by (check, k, tol); see _kept
        self._verdicts: dict[tuple, PropertyVerdict] = {}
        self._expanded: Optional[WeightedShift] = None

    @property
    def tree(self) -> DirectedTree:
        return self._tree

    def expanded(self) -> "WeightedShift":
        """This shift on ``tree.expanded()``, one weight per vertex:
        built on first use and kept.  A shift on a full tree is its
        own."""
        full = self._tree.expanded()
        if full is self._tree:
            return self
        if self._expanded is None:
            self._expanded = WeightedShift._keeping(
                full, self.class_weights[self._tree.vertex_classes],
                self.name)
        return self._expanded

    @cached_property
    def class_squared_weights(self) -> np.ndarray:
        w = self.class_weights
        with np.errstate(over="ignore"):  # the checks fail on inf
            squares = w * w
        return _frozen(squares)

    @cached_property
    def class_norms(self) -> np.ndarray:
        """sqrt of the children's squared-weight sum, per class, summed
        left to right over its child edges, as every vertex of the class
        sums its children; 0 on the last materialized level."""
        tree = self._tree
        return _frozen(np.sqrt(np.bincount(
            tree.class_parents[1:],
            weights=self.class_squared_weights[tree.edge_classes(
                slice(1, None))],
            minlength=tree.class_count)))

    @cached_property
    def class_squared_norms(self) -> np.ndarray:
        """``class_norms`` times itself, entry by entry: the square of
        the rounded norm, not the children's squared-weight sum."""
        norms = self.class_norms
        with np.errstate(over="ignore"):  # the checks fail on inf
            squares = norms * norms
        return _frozen(squares)

    # per vertex, in canonical order: the class arrays of expanded()
    @property
    def weight_array(self) -> np.ndarray:
        """Weights in canonical vertex order; entry 0 (the root) is 0."""
        return self.expanded().class_weights

    @property
    def squared_weights(self) -> np.ndarray:
        return self.expanded().class_squared_weights

    @property
    def vertex_norms(self) -> np.ndarray:
        """``class_norms`` per vertex."""
        return self.expanded().class_norms

    @property
    def squared_norms(self) -> np.ndarray:
        return self.expanded().class_squared_norms

    def weight(self, vid: str) -> float:
        try:
            i = self._tree.index(vid)
        except RangeError:
            i = 0
        if i == 0:
            raise RangeError(f"no weight for vertex {vid!r}")
        return self.class_weights.item(self._tree.class_of(i))

    def weights(self) -> dict[str, float]:
        return dict(zip(self._tree.labels[1:],
                        self.weight_array[1:].tolist()))

    @cached_property
    def has_zero_weights(self) -> bool:
        return bool(np.any(self.class_weights[1:] == 0.0))

    @cached_property
    def is_adjacency(self) -> bool:
        return bool(np.all(self.class_weights[1:] == 1.0))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


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
                f"{list(self.KIND_FIELDS)}")
        if self.kind == "explicit" and self.values is None:
            raise ConfigurationError("explicit weights require values")
        if self.kind == "kernel_condition":
            if self.x is None:
                raise ConfigurationError("kernel_condition requires x")
            if self.x < 1.0:
                raise DomainError(f"x must be >= 1, got {self.x}")
            if not math.isfinite(self.x * self.x - 1.0):
                raise DomainError(f"x * x - 1 must be finite, got x = "
                                  f"{self.x!r}")
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
    the shift lives on the tree's classes when all the edges into each
    class agree, else on ``tree.expanded()``.  Explicit weights,
    proportions and glowny weights name vertices or branches, so they
    always use ``tree.expanded()``."""
    if spec.kind == "explicit":
        assert spec.values is not None
        return WeightedShift(tree, spec.values, name="explicit")
    if spec.kind == "glowny" or spec.proportions is not None:
        tree = tree.expanded()
    n = tree.materialized_depth
    count = tree.class_count
    edges = len(tree.class_parents)  # the root's entry and the E edges
    if spec.kind == "adjacency":
        return _on_classes(spec, tree, np.ones(edges), "adjacency")
    if spec.kind in ("dirichlet", "bergman_dual", "treiso"):
        _require_path(tree, spec.kind)
        d = np.arange(1, edges)  # on a path the edge index is the depth
        if spec.kind == "dirichlet":
            w = _two_isometry_weights(d - 1, _SQRT2)
        elif spec.kind == "bergman_dual":
            w = np.sqrt(d / (d + 1.0))
        else:  # treiso: sqrt(phi(d) / phi(d - 1)), phi(k) = k^2 + 1
            w = np.sqrt((d * d + 1.0) / ((d - 1) * (d - 1) + 1.0))
        return _on_classes(spec, tree, np.concatenate([[0.0], w]), spec.kind)
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
            w = np.zeros(edges)
            w[1:] = np.sqrt(target / deg)[parents]
            return _on_classes(spec, tree, w, name)
        props = np.ones(count - 1)
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
        return WeightedShift.from_array(tree, np.concatenate([[0.0], w]),
                                        name=name)
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
    w = np.zeros(count)
    steps = np.arange(n - 1)
    for i, y in enumerate((spec.y1, spec.y2)):
        w[1 + i] = 1.0 / math.sqrt(2.0 * (2.0 - y * y))
        w[3 + i::2] = _two_isometry_weights(steps, y)
    return WeightedShift.from_array(tree, w,
                                    name=f"glowny(y1={spec.y1}, y2={spec.y2})")


def _on_classes(spec: WeightSpec, tree: DirectedTree, weights: np.ndarray,
                name: str) -> WeightedShift:
    """The shift whose child edge e has weight ``weights[e]`` (entry 0,
    the root's, is 0): on the tree's classes when all the edges into
    each class agree, else ``build_shift`` on ``tree.expanded()``.  On a
    full tree every class has one edge, so they do."""
    # the edges into a class are consecutive, since the edge classes
    # never decrease; the first gives the class its weight, and every
    # later one must have the weight of the edge before it
    kids = tree.children
    first = np.empty(len(kids), dtype=bool)
    first[0] = True
    np.not_equal(kids[1:], kids[:-1], out=first[1:])
    if not (first[1:] | (weights[1:] == weights[:-1])).all():
        return build_shift(spec, tree.expanded())
    return WeightedShift._keeping(tree, weights[first], name)


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
class PropertyVerdict:
    """Outcome of a depth-bounded operator property check."""

    holds: bool
    verified_depth: int
    witness: Optional[tuple[str, float]] = None
    tolerance: float = DEFAULT_TOL
    note: str = ""
    details: Mapping[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Report form of the verdict (``details`` is not reported).  A
        witness value that overflowed is written as null, which strict
        JSON parsers accept, and the note says so."""
        witness, note = self.witness, self.note
        if witness is not None and not math.isfinite(witness[1]):
            note = "; ".join(filter(None, (
                note, f"witness value {witness[1]!r} (an overflow) "
                      f"written as null")))
            witness = (witness[0], None)
        return {"holds": self.holds, "verified_depth": self.verified_depth,
                "witness": list(witness) if witness else None,
                "tolerance": self.tolerance, "note": note}


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
    edges = tree.class_starts.item(inner)  # their child edges: 1..edges-1
    top = tree.class_offsets.item(n)  # the classes those edges lead to
    with np.errstate(over="ignore", invalid="ignore"):
        terms = (shift.class_squared_weights[:top]
                 * (2.0 - shift.class_squared_norms[:top]))
        lhs = np.bincount(tree.class_parents[1:edges],
                          weights=terms[tree.edge_classes(slice(1, edges))],
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
    """The classes the child edges of ``parents`` (increasing classes,
    each with a child) lead to, in order, as ``edge_classes`` gives them
    for one slice of edges when no other class's edge lies between them,
    else for an index array; and where each parent's segment of them
    starts."""
    counts = tree.class_degrees[parents]
    first = tree.class_starts[parents]
    if first.item(-1) - first.item(0) == counts[:-1].sum():
        return (tree.edge_classes(slice(first.item(0),
                                        first.item(-1) + counts.item(-1))),
                first - first.item(0))
    segments = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=segments[1:])
    edges = np.repeat(first - segments, counts)
    edges += np.arange(len(edges))
    return tree.edge_classes(edges), segments


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
    norms, w = shift.class_norms, shift.class_weights
    kids, segments = _child_segments(tree, branching)
    kid_norms = norms[kids]
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
        kids, segments = _child_segments(tree, suspects)
        kid_norms = norms[kids]
    nonzero = w[kids] != 0.0
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
    failing, _ = _sibling_spread(shift, tol)
    generations = np.searchsorted(tree.class_offsets, failing,
                                  side="right") - 1
    return np.bincount(generations, minlength=n - 1) == 0


def cauchy_dual_weights(shift: WeightedShift,
                        end: Optional[int] = None) -> np.ndarray:
    """Weights of the Cauchy dual at the child edges 1..end-1 (default:
    every edge), weight(v) / norm(parent(v))^2 for the vertex v an edge
    leads to; entry i holds edge i + 1, which on a full tree leads to
    vertex i + 1.  The edges into one class may differ, as their parents
    do.

    Requires every vertex norm on the materialized part to be positive,
    whatever ``end`` is."""
    tree = shift.tree
    norms = shift.class_norms
    zero = _first(norms[:tree.class_offsets.item(tree.materialized_depth)]
                  == 0.0)
    if zero is not None:
        raise NotLeftInvertibleError(
            f"vertex norm is 0 at {tree.class_label(zero)!r}; the shift "
            f"is not left invertible")
    if end is None:
        end = len(tree.class_parents)
    return (shift.class_weights[tree.edge_classes(slice(1, end))]
            / shift.class_squared_norms[tree.class_parents[1:end]])


def cauchy_dual(shift: WeightedShift) -> WeightedShift:
    """Dual shift: weight(v) divided by the squared norm at parent(v).

    Requires every vertex norm to be positive (left invertibility on the
    materialized part).  The result lives on the full tree,
    ``shift.tree.expanded()``; treat its deepest level as one step less
    reliable than the original's.
    """
    shift = shift.expanded()
    w = np.zeros(shift.tree.vertex_count)
    w[1:] = cauchy_dual_weights(shift)
    return WeightedShift.from_array(
        shift.tree, w, name=f"dual({shift.name})" if shift.name else None)


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

    def to_dict(self) -> dict:
        """Report form: each flag's verdict under its field name."""
        return {f.name: getattr(self, f.name).to_dict()
                for f in fields(self)}


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
class ShiftInvariants:
    """Complete unitary invariants within the sibling-constant class:
    root norm and the per-generation branching degrees."""

    root_norm: float
    branching: tuple[int, ...]
    verified_depth: int

    def to_dict(self) -> dict:
        """Report form of the pair (``verified_depth`` is not reported)."""
        return {"root_norm": self.root_norm,
                "branching": list(self.branching)}


def shift_invariants(shift: WeightedShift,
                     tol: float = DEFAULT_TOL) -> ShiftInvariants:
    """Invariants of a shift in the sibling-constant expansion class.

    Raises ClassificationError outside that class: the pair is a complete
    invariant only there.
    """
    require_kernel_class(shift, 0, tol, "invariants require")
    tree = shift.tree
    # branching_degree(tree, k), k = 1..N, from the generation offsets
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
