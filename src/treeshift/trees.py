"""Rooted directed trees: finite-depth materialization, generators, classifiers.

A tree is materialized to a finite depth N: every vertex of depth <= N is
present and none deeper.  All structural verdicts are statements about the
materialized part only and carry the depth to which they were verified.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import (ConfigurationError, RangeError, ResourceLimitError,
                     StructureError)

__all__ = [
    "Vertex",
    "DirectedTree",
    "TreeSpec",
    "TreeStructureReport",
    "StructureVerdict",
    "MAX_VERTICES",
    "spec_vertex_count",
    "materialize",
    "generation",
    "branching_degree",
    "classify_tree",
    "comb_pattern_valency",
    "comb_tree_spec",
    "hub_comb_tree_spec",
    "two_plus_three_tree_spec",
]

#: Largest tree ``materialize`` builds.  Checked from the spec alone,
#: before anything is allocated.
MAX_VERTICES = 2_000_000


@dataclass(frozen=True)
class Vertex:
    """One vertex: opaque id, depth, optional parent id, ordered child ids."""

    id: str
    depth: int
    parent: Optional[str]
    children: tuple[str, ...]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class DirectedTree:
    """Immutable rooted directed tree truncated at ``materialized_depth``.

    Every non-root vertex has exactly one parent; depth(child) equals
    depth(parent) + 1; the depth-n slice equals the n-th generation of
    descendants of the root.

    Vertices are numbered 0..V-1 in canonical order: generation by
    generation, and within a generation by parent order, then by child
    index.  The children of vertex i are therefore the contiguous range
    ``child_starts[i] : child_starts[i] + degrees[i]``, and the arrays
    ``degrees``, ``parents`` and ``gen_offsets`` describe the whole tree.
    String ids (``labels``) are kept for the public API only.
    """

    def __init__(self, vertices: Mapping[str, Vertex], root: str,
                 materialized_depth: int):
        """Tree from Vertex records keyed by id.  The children lists give
        the edges; every record must agree with the tree they build."""
        records = dict(vertices)
        edges = [(vid, c) for vid, v in records.items() for c in v.children]
        # every record is interned first, so one that no edge reaches
        # shows up as a second root
        ids = {vid: i for i, vid in enumerate(records)}
        self._setup(*_edge_arrays(edges, materialized_depth, ids))
        for vid in self.labels:
            if records.get(vid) != self.vertex(vid):
                raise StructureError(
                    f"vertex {vid!r}: the records give {records.get(vid)}, "
                    f"their children lists {self.vertex(vid)}")
        if self.root != root:
            raise StructureError(f"the root is {self.root!r}, not {root!r}")

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[str, str]],
                   depth: Optional[int] = None) -> "DirectedTree":
        """Tree from (parent, child) id pairs, in O(E).

        A vertex keeps its children in the order of their first edges; a
        repeated edge counts once.  The tree is materialized to ``depth``,
        or, when that is None, to the depth of its deepest vertex.
        Raises StructureError naming the vertex at fault for a second
        parent, a cycle (a self-loop too), a second root and a vertex
        deeper than ``depth``."""
        tree = cls.__new__(cls)
        tree._setup(*_edge_arrays(edges, depth, {}))
        return tree

    @classmethod
    def from_degrees(cls, degrees: Sequence[int],
                     generation_sizes: Sequence[int]) -> "DirectedTree":
        """Tree from child counts in canonical order (0 on the last
        generation) and the generation sizes.  Vertex ids are
        ``g<depth>:<index in generation>``."""
        degrees = np.asarray(degrees, dtype=np.int64)
        sizes = np.asarray(generation_sizes, dtype=np.int64)
        ends = np.cumsum(sizes)
        summed = np.concatenate([[0], np.cumsum(degrees)])
        if (len(sizes) == 0 or sizes[0] != 1 or degrees.min(initial=0) < 0
                or len(degrees) != ends[-1]
                # the children of generation g make up generation g + 1
                or not np.array_equal(summed[ends] - summed[ends - sizes],
                                      np.append(sizes[1:], 0))):
            raise StructureError(
                "child counts do not match the generation sizes")
        tree = cls.__new__(cls)
        tree._setup(degrees, sizes, None)
        return tree

    def _setup(self, degrees: np.ndarray, sizes: np.ndarray,
               labels: Optional[list[str]]) -> None:
        self._depth = len(sizes) - 1
        count = len(degrees)
        offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        child_starts = np.ones(count + 1, dtype=np.int64)
        np.cumsum(degrees, out=child_starts[1:])
        child_starts[1:] += 1
        parents = np.empty(count, dtype=np.int64)
        parents[0] = -1
        parents[1:] = np.repeat(np.arange(count, dtype=np.int64), degrees)
        #: child count per vertex (0 on the last materialized level)
        self.degrees = _frozen(degrees)
        #: generation g is the index range gen_offsets[g]:gen_offsets[g+1]
        self.gen_offsets = _frozen(offsets)
        #: index of the first child per vertex; length V + 1
        self.child_starts = _frozen(child_starts)
        #: parent index per vertex; -1 for the root
        self.parents = _frozen(parents)
        self._labels = labels
        self._index_map: Optional[dict[str, int]] = None
        self._depths: Optional[np.ndarray] = None
        self._generations: Optional[tuple[tuple[str, ...], ...]] = None

    @property
    def generation_sizes(self) -> tuple[int, ...]:
        return tuple(np.diff(self.gen_offsets).tolist())

    @property
    def labels(self) -> list[str]:
        """Vertex ids in canonical order (built on first use)."""
        if self._labels is None:
            self._labels = [f"g{d}:{i}"
                            for d, size in enumerate(self.generation_sizes)
                            for i in range(size)]
        return self._labels

    def label(self, index: int) -> str:
        return self._label_range(index, index + 1)[0]

    def _label_range(self, start: int, stop: int) -> list[str]:
        """Ids of the vertices start..stop-1, which lie in one generation
        unless the labels are already built."""
        if self._labels is not None:
            return self._labels[start:stop]
        if start >= stop:
            return []
        d = self.depth_at(start)
        first = start - self.gen_offsets.item(d)
        return [f"g{d}:{i}" for i in range(first, first + stop - start)]

    def depth_at(self, index: int) -> int:
        if self._depths is None:
            self._depths = np.repeat(np.arange(self._depth + 1),
                                     np.diff(self.gen_offsets))
        return self._depths.item(index)

    def index(self, vid: str) -> int:
        """Canonical index of a vertex id.  The root needs no lookup
        table; any other id builds one on first use."""
        if self._labels is None and vid == "g0:0":
            return 0
        if self._index_map is None:
            self._index_map = {v: i for i, v in enumerate(self.labels)}
        try:
            return self._index_map[vid]
        except KeyError:
            raise RangeError(f"unknown vertex {vid!r}") from None

    def _children(self, i: int) -> range:
        start = self.child_starts.item(i)
        return range(start, start + self.degrees.item(i))

    def _child_labels(self, i: int) -> tuple[str, ...]:
        kids = self._children(i)
        return tuple(self._label_range(kids.start, kids.stop))

    # -- read API ---------------------------------------------------------
    @property
    def root(self) -> str:
        return self.label(0)

    @property
    def materialized_depth(self) -> int:
        return self._depth

    @property
    def vertex_count(self) -> int:
        return len(self.degrees)

    def ids(self) -> Iterable[str]:
        return iter(self.labels)

    def __contains__(self, vid: str) -> bool:
        try:
            self.index(vid)
        except RangeError:
            return False
        return True

    def vertex(self, vid: str) -> Vertex:
        i = self.index(vid)
        parent = None if i == 0 else self.label(self.parents.item(i))
        return Vertex(vid, self.depth_at(i), parent, self._child_labels(i))

    def depth_of(self, vid: str) -> int:
        return self.depth_at(self.index(vid))

    def parent_of(self, vid: str) -> Optional[str]:
        i = self.index(vid)
        return None if i == 0 else self.label(self.parents.item(i))

    def children_of(self, vid: str) -> tuple[str, ...]:
        return self._child_labels(self.index(vid))

    def degree(self, vid: str) -> int:
        """Number of children.  Meaningful for depth <= N-1 only."""
        i = self.index(vid)
        depth = self.depth_at(i)
        if depth > self._depth - 1:
            raise RangeError(
                f"degree of {vid!r} at depth {depth} is unknown: children "
                f"beyond depth {self._depth} are not materialized")
        return self.degrees.item(i)

    def generations(self) -> tuple[tuple[str, ...], ...]:
        if self._generations is None:
            labels, off = self.labels, self.gen_offsets.tolist()
            self._generations = tuple(tuple(labels[a:b])
                                      for a, b in zip(off, off[1:]))
        return self._generations

    def resolve_path(self, indices: Sequence[int]) -> str:
        """Vertex reached from the root by successive child indices."""
        i = 0
        for k in indices:
            ch = self._children(i)
            if not 0 <= k < len(ch):
                raise RangeError(
                    f"child index {k} out of range at vertex "
                    f"{self.label(i)!r} (degree {len(ch)})")
            i = ch[k]
        return self.label(i)


def _edge_arrays(edges: Iterable[tuple[str, str]], depth: Optional[int],
                 ids: dict[str, int]
                 ) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Degrees, generation sizes and labels, in canonical order, of the
    tree with the given edges (see ``DirectedTree.from_edges``).  ``ids``
    maps the ids interned so far to 0, 1, ...; it takes the others."""
    intern = ids.setdefault
    edges = tuple(edges)
    par = np.array([intern(p, len(ids)) for p, _ in edges], dtype=np.int64)
    kid = np.array([intern(c, len(ids)) for _, c in edges], dtype=np.int64)
    names = list(ids)
    count = len(names)
    if not count:
        raise StructureError("edge list is empty")
    parent = np.full(count, -1, dtype=np.int64)
    parent[kid] = par
    clash = _first(parent[kid] != par)
    if clash is not None:
        c = kid.item(clash)
        raise StructureError(
            f"vertex {names[c]!r} has two parents ({names[parent.item(c)]!r} "
            f"and {names[par.item(clash)]!r})")
    roots = np.flatnonzero(parent < 0).tolist()
    if len(roots) > 1:
        raise StructureError(
            f"edge list must describe one tree; {names[roots[0]]!r} and "
            f"{names[roots[1]]!r} both have no parent")
    if len(kid) >= count:  # a repeated edge: keep the first of each
        first = np.sort(np.unique(kid, return_index=True)[1])
        par, kid = par[first], kid[first]
    # children grouped by parent, each group in edge order; an edge list
    # written parent by parent is grouped already
    if np.any(par[1:] < par[:-1]):
        kid = kid[np.argsort(par, kind="stable")]
    seq = kid.tolist()
    degree = np.bincount(par, minlength=count)
    ends = np.cumsum(degree).tolist()
    starts = [0] + ends
    canon = roots  # breadth first; the list grows as it is read
    for v in canon:
        canon.extend(seq[starts[v]:ends[v]])
    if len(canon) < count:
        # a vertex the root does not reach has an ancestor on a cycle (a
        # self-loop included)
        v, seen = min(set(range(count)).difference(canon)), set()
        while v not in seen:
            seen.add(v)
            v = parent.item(v)
        raise StructureError(f"cycle through vertex {names[v]!r}")
    degrees = degree[canon]
    # the children of generation g make up generation g + 1
    child_starts = np.cumsum(np.append(1, degrees)).tolist()
    offsets, end = [0], 0
    while end < count:
        end = child_starts[end]
        offsets.append(end)
    inferred = len(offsets) - 2
    if depth is not None and inferred > depth:
        raise StructureError(
            f"vertex {names[canon[offsets[depth + 1]]]!r} at depth "
            f"{depth + 1} exceeds requested depth {depth}")
    pad = 0 if depth is None else depth - inferred  # empty generations
    return (degrees, np.diff(offsets + [count] * pad),
            list(map(names.__getitem__, canon)))


@dataclass(frozen=True)
class TreeSpec:
    """Declarative description of a tree family.

    kind:
      - "path": one child per vertex.
      - "t_eta_kappa": root with ``eta`` children, every other vertex one
        child (only ``kappa`` = 0 is supported).
      - "quasi_brownian": every vertex has degree 1 or ``valency`` l, and
        each degree-l vertex has exactly one degree-l child; generation n
        has 1 + n(l-1) vertices.
      - "explicit": ``edges`` is a (parent, child) list over opaque ids.
      - "generation_rule": ``rule[g][i]`` is the child count of the i-th
        vertex of generation g; generations beyond the rule continue with
        one child each.
    """

    kind: str
    eta: Optional[int] = None
    kappa: int = 0
    valency: Optional[int] = None
    edges: Optional[tuple[tuple[str, str], ...]] = None
    rule: Optional[tuple[tuple[int, ...], ...]] = None
    depth: Optional[int] = None

    # kind -> (required fields, optional fields), in the order a run
    # spec checks them; explicit trees infer a missing depth
    KIND_FIELDS = {
        "path": (("depth",), ()),
        "t_eta_kappa": (("depth", "eta"), ("kappa",)),
        "quasi_brownian": (("depth", "valency"), ()),
        "explicit": (("edges",), ("depth",)),
        "generation_rule": (("depth", "rule"), ()),
    }

    def __post_init__(self):
        if self.kind not in self.KIND_FIELDS:
            raise ConfigurationError(
                f"unknown tree kind {self.kind!r}; expected one of "
                f"{list(self.KIND_FIELDS)}")
        if self.kind == "t_eta_kappa":
            if self.eta is None or self.eta < 2:
                raise ConfigurationError("t_eta_kappa requires eta >= 2")
            if self.kappa != 0:
                raise ConfigurationError(
                    "only kappa = 0 trees are generated")
        if self.kind == "quasi_brownian":
            if self.valency is None or self.valency < 2:
                raise ConfigurationError(
                    "quasi_brownian requires valency >= 2")
        if self.kind == "explicit" and not self.edges:
            raise ConfigurationError("explicit tree requires an edge list")
        if self.kind == "generation_rule":
            if self.rule is None:
                raise ConfigurationError(
                    "generation_rule requires a rule table")
            width = 1
            for g, row in enumerate(self.rule):
                if len(row) != width or min(row, default=0) < 0:
                    raise StructureError(
                        f"generation rule row {g} has length {len(row)}; "
                        f"it needs {width} child counts >= 0, one per "
                        f"vertex of generation {g}")
                width = sum(row)


def _tree_from_rule(rows: Sequence[Sequence[int]],
                    depth: int) -> DirectedTree:
    """Tree whose generation g < len(rows) has child counts rows[g];
    later generations continue with one child each."""
    sizes = [1] + [sum(row) for row in rows]  # rows checked by TreeSpec
    sizes += [sizes[-1]] * (depth - len(rows))
    degrees = np.ones(sum(sizes), dtype=np.int64)
    ruled = sum(sizes[:len(rows)])
    degrees[:ruled] = np.fromiter(chain.from_iterable(rows), np.int64, ruled)
    degrees[len(degrees) - sizes[-1]:] = 0
    return DirectedTree.from_degrees(degrees, sizes)


def _comb_rule_spec(children: Mapping[str, tuple[str, ...]],
                    depth: int) -> TreeSpec:
    """Generation rule of the tree whose root has kind "root" and whose
    vertex of kind k has children of kinds children[k]; rays continue
    as rays and every comb spine vertex has one ray and one spine
    child."""
    children = {"ray": ("ray",), "spine": ("ray", "spine"), **children}
    rows = []
    kinds = ["root"]
    for _ in range(depth):
        # a tuple of known length reuses the interpreter's free tuples;
        # tuple(generator) would not, while still returning them
        rows.append(tuple([len(children[k]) for k in kinds]))
        kinds = [c for k in kinds for c in children[k]]
    return TreeSpec(kind="generation_rule", rule=tuple(rows), depth=depth)


def comb_tree_spec(valency: int, depth: int) -> TreeSpec:
    """Generation rule for the comb tree of the given valency: a root of
    degree l whose children are one ray and l-1 comb spines."""
    if valency < 2:
        raise ConfigurationError("comb tree requires valency >= 2")
    return _comb_rule_spec({"root": ("ray",) + ("spine",) * (valency - 1)},
                           depth)


def hub_comb_tree_spec(valency: int, depth: int) -> TreeSpec:
    """Generation rule for the hub-comb tree of the given valency: a root
    of degree l with l-1 ray children and one degree-l hub child, whose
    children are one ray and l-1 comb spines."""
    if valency < 2:
        raise ConfigurationError("hub-comb tree requires valency >= 2")
    return _comb_rule_spec({"root": ("ray",) * (valency - 1) + ("hub",),
                            "hub": ("ray",) + ("spine",) * (valency - 1)},
                           depth)


def two_plus_three_tree_spec(variant: str, depth: int) -> TreeSpec:
    """The two non-isomorphic trees with branching degrees (1, 2, 0, ...).

    Variant "a": root degree 2, generation-1 degrees (3, 1).
    Variant "b": root degree 2, generation-1 degrees (2, 2).
    All later vertices have one child.
    """
    if variant not in ("a", "b"):
        raise ConfigurationError("variant must be 'a' or 'b'")
    if depth < 2:
        raise ConfigurationError("two-plus-three trees need depth >= 2")
    start: list[tuple[int, ...]] = [(2,), (3, 1) if variant == "a" else (2, 2)]
    return TreeSpec(kind="generation_rule", rule=tuple(start), depth=depth)


def spec_vertex_count(spec: TreeSpec, depth: Optional[int] = None) -> int:
    """Exact vertex count of ``materialize(spec, depth)``, computed from
    the spec alone (explicit trees: the number of distinct ids)."""
    if depth is None:
        depth = spec.depth
    if depth is None:
        raise ConfigurationError("no materialization depth given")
    if depth < 0:
        raise RangeError(f"depth must be >= 0, got {depth}")
    if spec.kind == "path":
        return depth + 1
    if spec.kind == "t_eta_kappa":
        assert spec.eta is not None
        return 1 + spec.eta * depth
    if spec.kind == "quasi_brownian":
        assert spec.valency is not None
        # generation n has 1 + n(valency - 1) vertices
        return depth + 1 + (spec.valency - 1) * depth * (depth + 1) // 2
    if spec.kind == "explicit":
        assert spec.edges is not None
        return len(set(chain.from_iterable(spec.edges)))
    assert spec.rule is not None
    total = width = 1
    rows = spec.rule[:depth]
    for row in rows:
        width = sum(row)
        total += width
    return total + (depth - len(rows)) * width


def materialize(spec: TreeSpec, depth: Optional[int] = None) -> DirectedTree:
    """Materialize a tree spec to the given depth (default: spec.depth).

    Raises ResourceLimitError, before allocating anything, when the tree
    would have more than MAX_VERTICES vertices."""
    if depth is None:
        depth = spec.depth
    count = spec_vertex_count(spec, depth)
    assert depth is not None
    if count > MAX_VERTICES:
        raise ResourceLimitError(
            f"tree of kind {spec.kind!r} at depth {depth} would have "
            f"{count} vertices; the limit is {MAX_VERTICES}")
    if spec.kind == "quasi_brownian":
        assert spec.valency is not None
        # the first vertex of each generation has degree valency, the
        # others are rays
        sizes = [1 + n * (spec.valency - 1) for n in range(depth + 1)]
        degrees = np.ones(count, dtype=np.int64)
        degrees[np.cumsum([0] + sizes[:-1])] = spec.valency
        degrees[count - sizes[-1]:] = 0
        return DirectedTree.from_degrees(degrees, sizes)
    if spec.kind == "explicit":
        assert spec.edges is not None
        return DirectedTree.from_edges(spec.edges, depth)
    if spec.kind == "path":
        rule: Sequence[Sequence[int]] = ()
    elif spec.kind == "t_eta_kappa":
        assert spec.eta is not None
        rule = ((spec.eta,),)
    else:
        assert spec.rule is not None
        rule = spec.rule
    return _tree_from_rule(rule[:depth], depth)


def generation(tree: DirectedTree, n: int) -> tuple[str, ...]:
    """Vertices of depth n, in canonical order."""
    if not 0 <= n <= tree.materialized_depth:
        raise RangeError(
            f"generation {n} out of range [0, {tree.materialized_depth}]")
    off = tree.gen_offsets
    return tuple(tree._label_range(off.item(n), off.item(n + 1)))


def branching_degree(tree: DirectedTree, k: int) -> int:
    """Sum over generation k-1 of (degree - 1)."""
    if not 1 <= k <= tree.materialized_depth:
        raise RangeError(
            f"branching degree index {k} out of range "
            f"[1, {tree.materialized_depth}]")
    sizes = tree.generation_sizes
    return sizes[k] - sizes[k - 1]


@dataclass(frozen=True)
class StructureVerdict:
    """Outcome of a structural check, bounded by the verified depth."""

    holds: bool
    verified_depth: int
    witness: Optional[str] = None
    note: str = ""


@dataclass(frozen=True)
class TreeStructureReport:
    """Structure report: verdicts are claims about depth <= verified_depth
    only, never about the unmaterialized tail."""

    leafless_to_depth: bool
    locally_finite: bool
    max_degree: int
    degree_multiset_per_generation: tuple[tuple[int, ...], ...]
    quasi_brownian: StructureVerdict
    valency: Optional[int] = None


def _first(mask: np.ndarray) -> Optional[int]:
    """Index of the first True entry, or None."""
    i = int(np.argmax(mask)) if len(mask) else 0
    return i if len(mask) and mask[i] else None


def _child_degree_checks(tree: DirectedTree, allowed: Sequence[int]
                         ) -> tuple[np.ndarray, np.ndarray]:
    """For every vertex of depth <= N-2: whether the child degrees sum
    to 2*degree - 1, and whether every child degree is in ``allowed``."""
    n = tree.materialized_depth
    parents_end = int(tree.gen_offsets[n - 1])
    kids = slice(1, int(tree.gen_offsets[n]))
    deg, par = tree.degrees, tree.parents[kids]
    child_sum = np.bincount(par, weights=deg[kids], minlength=parents_end)
    stray = np.bincount(par, weights=~np.isin(deg[kids], allowed),
                        minlength=parents_end)
    return (child_sum[:parents_end] == 2 * deg[:parents_end] - 1,
            stray[:parents_end] == 0)


def classify_tree(tree: DirectedTree) -> TreeStructureReport:
    """Structural classification of the materialized tree.

    The quasi-Brownian verdict checks, for every vertex u of depth
    <= N-2: the degree of u and of each child is 1 or l (l = the maximum
    degree), and the child degrees sum to 2*deg(u) - 1.
    """
    n = tree.materialized_depth
    off = tree.gen_offsets.tolist()
    known = tree.degrees[:off[n]]
    leafless = bool(np.all(known >= 1))
    max_deg = int(known.max()) if len(known) else 0
    multisets = tuple(tuple(np.sort(tree.degrees[off[g]:off[g + 1]]).tolist())
                      for g in range(n))
    valency = None
    if n < 2:
        verdict = StructureVerdict(
            False, max(n - 2, 0),
            note="materialized depth < 2: quasi-Brownian condition "
                 "unverifiable")
    elif max_deg < 2:
        verdict = StructureVerdict(
            False, n - 2, note="no vertex of degree >= 2")
    else:
        sums_ok, kids_ok = _child_degree_checks(tree, (1, max_deg))
        own_ok = np.isin(tree.degrees[:len(sums_ok)], (1, max_deg))
        bad = _first(~(own_ok & kids_ok & sums_ok))
        verdict = StructureVerdict(
            bad is None, n - 2, None if bad is None else tree.label(bad),
            note="verified to depth N-2")
        valency = max_deg if bad is None else None
    return TreeStructureReport(leafless, True, max_deg, multisets, verdict,
                               valency)


def comb_pattern_valency(tree: DirectedTree) -> Optional[int]:
    """Valency l if the tree is the comb pattern to depth N-2: root of
    degree l with one degree-1 and l-1 degree-2 children, every later
    degree-2 vertex with one degree-1 and one degree-2 child, rays
    staying rays.

    Equivalently: every vertex of depth <= N-2 has child degrees in
    {1, 2} summing to 2*degree - 1, and every such non-root vertex has
    degree 1 or 2.
    """
    n = tree.materialized_depth
    if n < 3:
        return None
    l = int(tree.degrees[0])
    if l < 2:
        return None
    sums_ok, kids_ok = _child_degree_checks(tree, (1, 2))
    own_ok = np.isin(tree.degrees[1:len(sums_ok)], (1, 2))
    if not (sums_ok.all() and kids_ok.all() and own_ok.all()):
        return None
    return l
