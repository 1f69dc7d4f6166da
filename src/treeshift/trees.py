"""Rooted directed trees: finite-depth materialization, generators, classifiers.

A tree is materialized to a finite depth N: every vertex of depth <= N is
present and none deeper.  All structural verdicts are statements about the
materialized part only and carry the depth to which they were verified.
"""
from __future__ import annotations

from array import array
from dataclasses import asdict, dataclass
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
    "quasi_brownian",
    "comb_pattern_valency",
    "comb_tree_spec",
    "hub_comb_tree_spec",
    "two_plus_three_tree_spec",
]

#: Largest tree ``materialize`` builds, in vertices and in generations.
#: Checked from the spec alone, before anything is allocated.
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

    def __init__(self, degrees: Sequence[int],
                 generation_sizes: Sequence[int],
                 labels: Optional[list[str]] = None):
        """Tree from child counts in canonical order (0 on the last
        generation) and the generation sizes.  ``labels`` are the vertex
        ids in canonical order (default ``g<depth>:<index in
        generation>``).  Raises StructureError when the counts do not
        build the generations, or the labels are not one distinct id per
        vertex (duplicates are caught when ``index`` first maps ids)."""
        degrees = np.asarray(degrees, dtype=np.int64)
        sizes = np.asarray(generation_sizes, dtype=np.int64)
        count = len(degrees)
        offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        child_starts = np.ones(count + 1, dtype=np.int64)
        np.cumsum(degrees, out=child_starts[1:])
        child_starts[1:] += 1
        # the children of generation g make up generation g + 1, and the
        # last generation has none
        if (len(sizes) == 0 or sizes[0] != 1 or sizes.min() < 0
                or degrees.min(initial=0) < 0 or offsets[-1] != count
                or child_starts.item(-1) != count
                or np.any(child_starts[offsets[1:-1]] != offsets[2:])):
            raise StructureError(
                "child counts do not match the generation sizes")
        if labels is not None and len(labels) != count:
            raise StructureError(
                f"{len(labels)} labels for {count} vertices")
        parents = np.empty(count, dtype=np.int64)
        parents[0] = -1
        parents[1:] = np.repeat(np.arange(count, dtype=np.int64), degrees)
        self._depth = len(sizes) - 1
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
        self._expansion: Optional[tuple[np.ndarray, np.ndarray]] = None
        self._generations: Optional[tuple[tuple[str, ...], ...]] = None

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
        return cls(*_edge_arrays(edges, depth))

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
            if len(self._index_map) < self.vertex_count:
                self._index_map = None
                raise StructureError("the vertex labels repeat an id")
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

    def adjacency_expansion(self) -> tuple[np.ndarray, np.ndarray]:
        """Both sides of the adjacency shift's expansion identity at every
        vertex u of depth <= N-2, in canonical order: the sum of the
        degrees of u's children (its grandchild count), and 2*deg(u) - 1.
        Computed on first use and kept (read-only).
        """
        if self._expansion is None:
            inner = self.gen_offsets.item(max(self._depth - 1, 0))
            starts = self.child_starts
            # the grandchildren of u are the range starts[starts[u]] :
            # starts[starts[u + 1]]
            grandchildren = (starts[starts[1:inner + 1]]
                             - starts[starts[:inner]])
            self._expansion = (_frozen(grandchildren),
                               _frozen(2 * self.degrees[:inner] - 1))
        return self._expansion

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


def _edge_arrays(edges: Iterable[tuple[str, str]], depth: Optional[int]
                 ) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Degrees, generation sizes and labels, in canonical order, of the
    tree with the given edges (see ``DirectedTree.from_edges``)."""
    ids: dict[str, int] = {}
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
        # a path is the rule () and a t_eta_kappa tree the rule ((eta,),);
        # spec_vertex_count and materialize read each rule's arrays
        arrays = _PATH_ARRAYS if self.kind == "path" else None
        if self.kind == "t_eta_kappa":
            if self.eta is None or self.eta < 2:
                raise ConfigurationError("t_eta_kappa requires eta >= 2")
            if self.kappa != 0:
                raise ConfigurationError(
                    "only kappa = 0 trees are generated")
            # held as _rule_arrays holds the entries of a rule
            dtype = np.int64 if self.eta <= _RULE_ENTRY_MAX else object
            arrays = (np.array([self.eta], dtype),
                      np.array([1, self.eta], dtype))
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
            arrays = _rule_arrays(self.rule)
        object.__setattr__(self, "_rule_arrays", arrays)


#: Largest rule entry kept in int64: sums of fewer than 2**31 such
#: entries cannot overflow.  A rule with a larger entry is held as
#: Python ints, whose sums are exact (its tree is never materialized).
_RULE_ENTRY_MAX = 2 ** 31

#: ``_rule_arrays`` of the empty rule: every generation has one vertex
_PATH_ARRAYS = (_frozen(np.zeros(0, dtype=np.int64)),
                _frozen(np.ones(1, dtype=np.int64)))


def _rule_arrays(rule: Sequence[Sequence[int]]
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The rule's child counts in one array, generation after
    generation, and the generation sizes: 1, then the sum of each row.
    Raises StructureError when an entry is not an int (a bool is not),
    or naming the first row that is not one count >= 0 per vertex of
    its generation."""
    entries = list(chain.from_iterable(rule))
    try:
        # one pass converts every entry and refuses all but ints and
        # bools; a bool lands on 0 or 1, so only those entries' types
        # are looked at
        flat = np.frombuffer(array("q", entries), np.int64)
        exact = flat.max(initial=0) <= _RULE_ENTRY_MAX
        typed = bool not in set(map(type, map(
            entries.__getitem__, np.flatnonzero(flat <= 1).tolist())))
    except TypeError:
        typed = False
    except OverflowError:
        exact, typed = False, set(map(type, entries)) <= {int}
    if not typed:
        raise StructureError(
            "rule must be a list of per-generation child-count lists")
    if not exact:
        flat = np.array(entries, dtype=object)
    lengths = np.fromiter(map(len, rule), np.int64, len(rule))
    ends = np.cumsum(lengths)
    summed = np.concatenate([[0], np.cumsum(flat)])
    sizes = np.concatenate([[1], summed[ends] - summed[ends - lengths]])
    # the row of the first negative count
    negative = np.searchsorted(ends, np.flatnonzero(flat < 0), side="right")
    bad = np.flatnonzero(lengths != sizes[:-1])
    g = min(bad[:1].tolist() + negative[:1].tolist(), default=None)
    if g is not None:
        raise StructureError(
            f"generation rule row {g} has length {lengths.item(g)}; it "
            f"needs {sizes[g]} child counts >= 0, one per vertex of "
            f"generation {g}")
    return flat, sizes


def _tree_from_rule(flat: np.ndarray, sizes: np.ndarray,
                    depth: int) -> DirectedTree:
    """Tree whose generation g < len(sizes) - 1 has the child counts of
    rule row g (``_rule_arrays``); later generations continue with one
    child each."""
    rows = min(depth, len(sizes) - 1)
    generations = np.full(depth + 1, sizes[rows], dtype=np.int64)
    generations[:rows] = sizes[:rows]
    count = int(generations.sum())
    degrees = np.ones(count, dtype=np.int64)
    # generations rows..depth all have sizes[rows] vertices
    ruled = count - (depth + 1 - rows) * generations.item(-1)
    degrees[:ruled] = flat[:ruled]
    degrees[count - generations.item(-1):] = 0
    return DirectedTree(degrees, generations)


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
    the spec alone (explicit trees: the number of distinct ids, which
    needs no depth)."""
    if depth is None:
        depth = spec.depth
    if depth is not None and depth < 0:
        raise RangeError(f"depth must be >= 0, got {depth}")
    if spec.kind == "explicit":
        assert spec.edges is not None
        return len(set(chain.from_iterable(spec.edges)))
    if depth is None:
        raise ConfigurationError("no materialization depth given")
    if spec.kind == "quasi_brownian":
        assert spec.valency is not None
        # generation n has 1 + n(valency - 1) vertices
        return depth + 1 + (spec.valency - 1) * depth * (depth + 1) // 2
    sizes = spec._rule_arrays[1]
    rows = min(depth, len(sizes) - 1)
    return int(sizes[:rows + 1].sum()) + (depth - rows) * int(sizes[rows])


def materialize(spec: TreeSpec, depth: Optional[int] = None) -> DirectedTree:
    """Materialize a tree spec to the given depth (default: spec.depth;
    an explicit tree without either goes to its deepest vertex).

    Raises ResourceLimitError, before allocating anything, when the tree
    would have more than MAX_VERTICES vertices (its ``field`` is the one
    counted, ``edges`` for an explicit tree and ``depth`` otherwise), or
    more than MAX_VERTICES generations (``depth``)."""
    if depth is None:
        depth = spec.depth
    count = spec_vertex_count(spec, depth)
    at = "" if depth is None else f" at depth {depth}"
    if count > MAX_VERTICES:
        raise ResourceLimitError(
            f"tree of kind {spec.kind!r}{at} would have {count} vertices; "
            f"the limit is {MAX_VERTICES}",
            "edges" if spec.kind == "explicit" else "depth")
    # few vertices can still span many generations, empty ones included
    # (an explicit tree or a rule with a 0 row), and each costs an array
    # entry
    if depth is not None and depth >= MAX_VERTICES:
        raise ResourceLimitError(
            f"tree of kind {spec.kind!r}{at} would have {depth + 1} "
            f"generations; the limit is {MAX_VERTICES}", "depth")
    if spec.kind == "explicit":
        assert spec.edges is not None
        return DirectedTree.from_edges(spec.edges, depth)
    assert depth is not None
    if spec.kind == "quasi_brownian":
        assert spec.valency is not None
        # the first vertex of each generation has degree valency, the
        # others are rays
        sizes = [1 + n * (spec.valency - 1) for n in range(depth + 1)]
        degrees = np.ones(count, dtype=np.int64)
        degrees[np.cumsum([0] + sizes[:-1])] = spec.valency
        degrees[count - sizes[-1]:] = 0
        return DirectedTree(degrees, sizes)
    return _tree_from_rule(*spec._rule_arrays, depth)


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
    off = tree.gen_offsets
    return off.item(k + 1) - 2 * off.item(k) + off.item(k - 1)


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
    max_degree: int
    degree_multiset_per_generation: tuple[tuple[int, ...], ...]
    quasi_brownian: StructureVerdict
    valency: Optional[int] = None

    def to_dict(self) -> dict:
        """Report form of the classification: every field, the verdict as
        a dict of its fields (tuples render as JSON arrays)."""
        return asdict(self)


def _first(mask: np.ndarray) -> Optional[int]:
    """Index of the first True entry, or None."""
    i = int(np.argmax(mask)) if len(mask) else 0
    return i if len(mask) and mask[i] else None


def _either(degrees: np.ndarray, a: int, b: int) -> np.ndarray:
    """Whether each degree is a or b."""
    return (degrees == a) | (degrees == b)


def _child_degree_checks(tree: DirectedTree, a: int, b: int
                         ) -> tuple[np.ndarray, np.ndarray]:
    """For every vertex of depth <= N-2: whether the adjacency expansion
    identity holds, and whether every child degree is a or b."""
    grandchildren, target = tree.adjacency_expansion()
    kids = slice(1, tree.gen_offsets.item(tree.materialized_depth))
    stray = np.bincount(tree.parents[kids],
                        weights=~_either(tree.degrees[kids], a, b),
                        minlength=len(target))
    return grandchildren == target, stray == 0


def quasi_brownian(tree: DirectedTree) -> StructureVerdict:
    """Quasi-Brownian verdict of the materialized tree: for every vertex
    u of depth <= N-2, the degree of u and of each child is 1 or l
    (l = the maximum degree), and the child degrees sum to
    2*deg(u) - 1.  ``classify_tree`` reports this verdict."""
    n = tree.materialized_depth
    if n < 2:
        return StructureVerdict(
            False, max(n - 2, 0),
            note="materialized depth < 2: quasi-Brownian condition "
                 "unverifiable")
    # the last level has degree 0, so this is the maximum over depth < N
    max_deg = int(tree.degrees.max())
    if max_deg < 2:
        return StructureVerdict(False, n - 2,
                                note="no vertex of degree >= 2")
    sums_ok, kids_ok = _child_degree_checks(tree, 1, max_deg)
    own_ok = _either(tree.degrees[:len(sums_ok)], 1, max_deg)
    bad = _first(~(own_ok & kids_ok & sums_ok))
    return StructureVerdict(bad is None, n - 2,
                            None if bad is None else tree.label(bad),
                            note="verified to depth N-2")


def classify_tree(tree: DirectedTree) -> TreeStructureReport:
    """Structural classification of the materialized tree, with the
    ``quasi_brownian`` verdict; the valency is the maximum degree when
    that verdict holds."""
    n = tree.materialized_depth
    off = tree.gen_offsets.tolist()
    known = tree.degrees[:off[n]]
    leafless = bool(np.all(known >= 1))
    max_deg = int(known.max()) if len(known) else 0
    multisets = tuple(tuple(np.sort(tree.degrees[off[g]:off[g + 1]]).tolist())
                      for g in range(n))
    verdict = quasi_brownian(tree)
    return TreeStructureReport(leafless, max_deg, multisets, verdict,
                               max_deg if verdict.holds else None)


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
    sums_ok, kids_ok = _child_degree_checks(tree, 1, 2)
    own_ok = _either(tree.degrees[1:len(sums_ok)], 1, 2)
    if not (sums_ok.all() and kids_ok.all() and own_ok.all()):
        return None
    return l
