"""Rooted directed trees: finite-depth materialization, generators, classifiers.

A tree is materialized to a finite depth N: every vertex of depth <= N is
present and none deeper.  All structural verdicts are statements about the
materialized part only and carry the depth to which they were verified.
"""
from __future__ import annotations

from dataclasses import dataclass
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
        vertices = dict(vertices)
        _validate(vertices, root, materialized_depth)
        labels = [root]
        degrees = []
        sizes = [0] * (materialized_depth + 1)
        for vid in labels:  # breadth first; the list grows as it is read
            v = vertices[vid]
            sizes[v.depth] += 1
            degrees.append(len(v.children))
            labels.extend(v.children)
        self._setup(np.array(degrees, dtype=np.int64),
                    np.array(sizes, dtype=np.int64), labels)

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


def _validate(vertices: Mapping[str, Vertex], root: str,
              depth: int) -> None:
    roots = [v for v in vertices.values() if v.parent is None]
    if len(roots) != 1 or roots[0].id != root:
        extra = [v.id for v in roots if v.id != root]
        raise StructureError(
            f"tree must have exactly one parentless vertex (the root); "
            f"offenders: {extra or [root]}")
    if roots[0].depth != 0:
        raise StructureError(f"root {root!r} must have depth 0")
    listed_by: dict[str, set[str]] = {}
    for v in vertices.values():
        for c in v.children:
            listed_by.setdefault(c, set()).add(v.id)
    for v in vertices.values():
        if v.depth > depth:
            raise StructureError(
                f"vertex {v.id!r} at depth {v.depth} exceeds "
                f"materialized depth {depth}")
        if v.parent is not None:
            p = vertices.get(v.parent)
            if p is None:
                raise StructureError(
                    f"vertex {v.id!r} names missing parent {v.parent!r}")
            if v.depth != p.depth + 1:
                raise StructureError(
                    f"vertex {v.id!r}: depth {v.depth} is not parent "
                    f"depth {p.depth} + 1")
            if p.id not in listed_by.get(v.id, ()):
                raise StructureError(
                    f"vertex {v.id!r} missing from children of "
                    f"{v.parent!r}")
        for c in v.children:
            cv = vertices.get(c)
            if cv is None:
                raise StructureError(
                    f"vertex {v.id!r} lists missing child {c!r}")
            if cv.parent != v.id:
                raise StructureError(
                    f"vertex {c!r} has two parents "
                    f"({cv.parent!r} and {v.id!r})")


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

    _KINDS = ("path", "t_eta_kappa", "quasi_brownian", "explicit",
              "generation_rule")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ConfigurationError(
                f"unknown tree kind {self.kind!r}; expected one of "
                f"{list(self._KINDS)}")
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
        if self.kind == "generation_rule" and self.rule is None:
            raise ConfigurationError("generation_rule requires a rule table")


def _tree_from_rule(rows: Sequence[Sequence[int]],
                    depth: int) -> DirectedTree:
    """Tree whose generation g < len(rows) has child counts rows[g];
    later generations continue with one child each."""
    sizes = [1]
    for g, row in enumerate(rows):
        if len(row) != sizes[-1]:
            raise StructureError(
                f"generation rule row of length {len(row)} does not match "
                f"generation size {sizes[-1]}")
        sizes.append(sum(row))
    for g, row in enumerate(rows):
        if min(row, default=0) < 0:
            raise StructureError(f"negative child count at generation {g}")
    sizes += [sizes[-1]] * (depth - len(rows))
    degrees = np.ones(sum(sizes), dtype=np.int64)
    ruled = sum(sizes[:len(rows)])
    degrees[:ruled] = [d for row in rows for d in row]
    degrees[len(degrees) - sizes[-1]:] = 0
    return DirectedTree.from_degrees(degrees, sizes)


def _comb_degrees(valency: int, depth: int) -> list[list[int]]:
    """Root of degree l; its children are one ray and l-1 comb spines;
    every spine vertex has one ray child and one spine child."""
    degs: list[list[int]] = []
    kinds = ["root"]
    deg_of = {"root": valency, "ray": 1, "spine": 2}
    child_of = {"root": ["ray"] + ["spine"] * (valency - 1),
                "ray": ["ray"], "spine": ["ray", "spine"]}
    for _ in range(depth):
        degs.append([deg_of[k] for k in kinds])
        kinds = [c for k in kinds for c in child_of[k]]
    return degs


def _hub_comb_degrees(valency: int, depth: int) -> list[list[int]]:
    """Root of degree l with l-1 ray children and one degree-l hub child;
    the hub's children are one ray and l-1 comb spines."""
    degs: list[list[int]] = []
    kinds = ["root"]
    deg_of = {"root": valency, "hub": valency, "ray": 1, "spine": 2}
    child_of = {"root": ["ray"] * (valency - 1) + ["hub"],
                "hub": ["ray"] + ["spine"] * (valency - 1),
                "ray": ["ray"], "spine": ["ray", "spine"]}
    for _ in range(depth):
        degs.append([deg_of[k] for k in kinds])
        kinds = [c for k in kinds for c in child_of[k]]
    return degs


def comb_tree_spec(valency: int, depth: int) -> TreeSpec:
    """Generation rule for the comb tree of the given valency."""
    if valency < 2:
        raise ConfigurationError("comb tree requires valency >= 2")
    return TreeSpec(kind="generation_rule",
                    rule=tuple(tuple(r) for r in _comb_degrees(valency, depth)),
                    depth=depth)


def hub_comb_tree_spec(valency: int, depth: int) -> TreeSpec:
    """Generation rule for the hub-comb tree of the given valency."""
    if valency < 2:
        raise ConfigurationError("hub-comb tree requires valency >= 2")
    return TreeSpec(kind="generation_rule",
                    rule=tuple(tuple(r) for r in
                               _hub_comb_degrees(valency, depth)),
                    depth=depth)


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


def _build_explicit(edges: Sequence[tuple[str, str]],
                    depth: int) -> DirectedTree:
    parents: dict[str, str] = {}
    child_lists: dict[str, list[str]] = {}
    nodes: set[str] = set()
    for p, c in edges:
        nodes.add(p)
        nodes.add(c)
        child_lists.setdefault(p, [])
        child_lists.setdefault(c, [])
        if c in parents and parents[c] != p:
            raise StructureError(f"vertex {c!r} has two parents")
        if c in parents:
            continue
        if p == c:
            raise StructureError(f"vertex {c!r} is its own parent (cycle)")
        parents[c] = p
        child_lists[p].append(c)
    roots = sorted(nodes - set(parents))
    if len(roots) != 1:
        raise StructureError(
            f"edge list must describe one tree; parentless vertices: {roots}")
    root = roots[0]
    depths: dict[str, int] = {}
    for v in nodes:
        chain = []
        cur = v
        while cur not in depths and cur in parents:
            if cur in chain:
                raise StructureError(f"cycle through vertex {cur!r}")
            chain.append(cur)
            cur = parents[cur]
        base = depths.get(cur, 0)
        for i, u in enumerate(reversed(chain)):
            depths[u] = base + i + 1
        depths.setdefault(v, depths.get(v, 0))
    depths[root] = 0
    too_deep = sorted(v for v, d in depths.items() if d > depth)
    if too_deep:
        raise StructureError(
            f"vertex {too_deep[0]!r} at depth {depths[too_deep[0]]} exceeds "
            f"requested depth {depth}")
    vertices = {
        v: Vertex(v, depths[v], parents.get(v), tuple(child_lists[v]))
        for v in nodes
    }
    return DirectedTree(vertices, root, depth)


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
        return len({v for edge in spec.edges for v in edge})
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
        return _build_explicit(spec.edges, depth)
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
    if n < 2:
        verdict = StructureVerdict(
            False, max(n - 2, 0),
            note="materialized depth < 2: quasi-Brownian condition "
                 "unverifiable")
        return TreeStructureReport(leafless, True, max_deg, multisets,
                                   verdict, None)
    if max_deg < 2:
        verdict = StructureVerdict(
            False, n - 2, note="no vertex of degree >= 2")
        return TreeStructureReport(leafless, True, max_deg, multisets,
                                   verdict, None)
    valency = max_deg
    sums_ok, kids_ok = _child_degree_checks(tree, (1, valency))
    own_ok = np.isin(tree.degrees[:len(sums_ok)], (1, valency))
    bad = _first(~(own_ok & kids_ok & sums_ok))
    if bad is not None:
        verdict = StructureVerdict(False, n - 2, witness=tree.label(bad),
                                   note="verified to depth N-2")
        return TreeStructureReport(leafless, True, max_deg, multisets,
                                   verdict, None)
    verdict = StructureVerdict(True, n - 2, note="verified to depth N-2")
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
