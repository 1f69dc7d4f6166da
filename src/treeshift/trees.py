"""Rooted directed trees: finite-depth materialization, generators, classifiers.

A tree is materialized to a finite depth N: every vertex of depth <= N is
present and none deeper.  All structural verdicts are statements about the
materialized part only and carry the depth to which they were verified.
"""
from __future__ import annotations

import operator
import re
from array import array
from bisect import bisect_right
from dataclasses import dataclass, fields
from functools import cache, cached_property
from itertools import chain
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import (ConfigurationError, RangeError, ResourceLimitError,
                     StructureError)

__all__ = [
    "Vertex",
    "DirectedTree",
    "TreeSpec",
    "Report",
    "TreeStructureReport",
    "StructureVerdict",
    "MAX_VERTICES",
    "MIN_VERTICES_PER_CLASS",
    "spec_vertex_count",
    "materialize",
    "generation",
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

#: ``materialize`` holds a ``generation_rule`` tree as subtree classes
#: when it has at least this many vertices per class, and as a full tree
#: otherwise.  Hashing a rule loops in Python over its runs of equal
#: child counts and over the classes it finds, and stops as soon as
#: they pass vertex_count / MIN_VERTICES_PER_CLASS, so the loop stays
#: short beside the per-vertex cost of reading the rule.
MIN_VERTICES_PER_CLASS = 64

# a default vertex id: generation and position, decimal without sign,
# underscore or leading zero; more digits than any tree has never match
_DEFAULT_ID = re.compile(r"g(0|[1-9][0-9]{0,17}):(0|[1-9][0-9]{0,17})")


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


def _int_array(values: Sequence[int], what: str) -> np.ndarray:
    """``values`` as a one-dimensional int64 array, or StructureError
    unless they are integers.  One look at the dtype numpy infers
    refuses floats and bools; numpy reads a list that mixes bools with
    ints as int64, so the entry types of a sequence that is not already
    an array are looked at too."""
    if isinstance(values, np.ndarray) and values.dtype == np.int64 \
            and values.ndim == 1:
        return values
    a = np.asarray(values)
    if a.ndim != 1 or (a.size and (
            a.dtype.kind not in "iu" or (not isinstance(values, np.ndarray)
                                         and bool in set(map(type, values))))):
        raise StructureError(f"{what} must be a list of integers")
    return a.astype(np.int64, copy=False)


class DirectedTree:
    """Immutable rooted directed tree truncated at ``materialized_depth``,
    held as subtree classes.

    Every non-root vertex has exactly one parent; depth(child) equals
    depth(parent) + 1; the depth-n slice equals the n-th generation of
    descendants of the root.

    Vertices are numbered 0..V-1 in canonical order: generation by
    generation, and within a generation by parent order, then by child
    index.  A class stands for ``multiplicities[c]`` consecutive vertices
    with the same subtree; classes are numbered in the order of their
    vertices, and generation g holds the classes
    ``class_offsets[g]:class_offsets[g+1]``.  Every vertex of class c has
    ``class_degrees[c]`` children, and its j-th child lies in class
    ``children[class_starts[c] + j]``.  The child edges are numbered
    1..E class by class, and ``class_parents[e]`` is the class edge e
    leaves; entry 0 of both stands for the root (class 0, parent -1).

    A full tree is the case ``class_count == vertex_count``: every class
    is one vertex, edge e leads to vertex e, and the class arrays are the
    vertex arrays.  Its ``children`` and first vertex per class are one
    shared ``arange(V)``, and its ``multiplicities`` a read-only view of
    a single 1.  ``per_vertex`` repeats per-class arrays, ``degrees``
    among them, over the class runs; only ``per_vertex_edge`` gathers,
    per-edge arrays through ``vertex_edges``, the edge into every vertex;
    ``parents``, ``child_starts``, ``adjacency_expansion`` and the
    lookups of one vertex (``index``, ``vertex``, ``parent_of``,
    ``children_of``, ``resolve_path``) read the class arrays, and the
    lookups format only the ids they return.  String ids (``labels``)
    are kept for the public API only.
    """

    def __init__(self, degrees: Sequence[int],
                 generation_sizes: Sequence[int],
                 labels: Optional[list[str]] = None,
                 children: Optional[Sequence[int]] = None,
                 multiplicities: Optional[Sequence[int]] = None):
        """Tree from child counts in canonical order (0 on the last
        generation) and the generation sizes, in vertices.  With
        ``children`` and ``multiplicities`` the counts are per class,
        ``children`` holds the class of every child edge, class by class,
        and ``multiplicities`` the vertices of every class; without them
        every class is one vertex.  ``labels`` are the vertex ids in
        canonical order (default ``g<depth>:<index in generation>``).

        The tree takes the arrays it is given: a one-dimensional int64
        array is kept without a copy and made read-only, so that writes
        through it raise from then on; anything else is converted, and
        the caller's object is left as it was.  A caller that still
        writes to an int64 array, or to the array it is a view of,
        passes a copy.

        Raises StructureError when an array is not integers, the counts
        do not build the generations, the classes do not stand for
        consecutive vertices, or the labels are not one distinct id per
        vertex (duplicates are caught when ``index`` first maps ids)."""
        degrees = _int_array(degrees, "child counts")
        sizes = _int_array(generation_sizes, "generation sizes")
        count = len(degrees)
        offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.add.accumulate(sizes, out=offsets[1:])
        child_starts = np.ones(count + 1, dtype=np.int64)
        np.add.accumulate(degrees, out=child_starts[1:])
        child_starts[1:] += 1
        if (children is None) != (multiplicities is None):
            raise StructureError(
                "a class tree needs both children and multiplicities")
        if len(sizes) == 0 or sizes[0] != 1 or sizes.min() < 0 \
                or degrees.min(initial=0) < 0:
            layout = None
        elif children is None:
            # the children of generation g make up generation g + 1, and
            # the last generation has none
            layout = None
            if (offsets[-1] == count and child_starts.item(-1) == count
                    and (child_starts[offsets[1:-1]] == offsets[2:]).all()):
                # every class one vertex: edge e leads to vertex e
                ident = np.arange(count, dtype=np.int64)
                layout = (offsets, ident,
                          np.broadcast_to(np.int64(1), (count,)), ident,
                          child_starts[:-1])
        else:
            layout = _class_layout(
                degrees, offsets, child_starts,
                _int_array(children, "children"),
                _int_array(multiplicities, "multiplicities"))
        if layout is None:
            raise StructureError(
                "child counts do not match the generation sizes")
        class_offsets, kids, mult, first, first_child = layout
        if labels is not None and len(labels) != offsets[-1]:
            raise StructureError(
                f"{len(labels)} labels for {offsets[-1]} vertices")
        self._depth = len(sizes) - 1
        #: child edges per class (0 on the last materialized level)
        self.class_degrees = _frozen(degrees)
        #: generation g holds the classes class_offsets[g]:class_offsets[g+1]
        self.class_offsets = _frozen(class_offsets)
        #: first child edge per class; length C + 1, edges are 1..E
        self.class_starts = _frozen(child_starts)
        #: class each child edge leads to, 0 at entry 0 (the root)
        self.children = _frozen(kids)
        #: vertices per class
        self.multiplicities = _frozen(mult)
        #: generation g is the vertex range gen_offsets[g]:gen_offsets[g+1]
        self.gen_offsets = _frozen(offsets)
        self._sizes = _frozen(sizes)
        self._first = _frozen(first)  # first vertex per class
        # first child of each class's first vertex
        self._first_child = _frozen(first_child)
        self._labels = labels
        self._index_map: Optional[dict[str, int]] = None
        self._expansion: Optional[tuple[np.ndarray, np.ndarray]] = None
        self._vertex_expansion: Optional[tuple[np.ndarray, np.ndarray]] = None
        self._generations: Optional[tuple[tuple[str, ...], ...]] = None
        self._expanded: Optional[DirectedTree] = None

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[str, str]],
                   depth: Optional[int] = None) -> "DirectedTree":
        """Tree from (parent, child) id pairs, in O(E):
        ``materialize(TreeSpec("explicit", edges=edges), depth)``.

        A vertex keeps its children in the order of their first edges; a
        repeated edge counts once.  The tree is materialized to ``depth``,
        or, when that is None, to the depth of its deepest vertex.
        Raises StructureError, its ``field`` ``edges``, unless every
        edge is a tuple or a list of two id strings, and naming the
        vertex at fault for a second parent, a cycle (a self-loop too), a
        second root and a vertex deeper than ``depth``; and
        ResourceLimitError (``edges``) past MAX_VERTICES ids."""
        return materialize(TreeSpec("explicit", edges=edges), depth)

    # -- classes ----------------------------------------------------------
    @property
    def class_count(self) -> int:
        return len(self.class_degrees)

    @property
    def _is_full(self) -> bool:
        """Whether every class is one vertex: the full-tree data test."""
        return self.class_count == self.vertex_count

    @cached_property
    def class_parents(self) -> np.ndarray:
        """The class each child edge leaves; -1 at entry 0 (the
        root)."""
        parents = np.empty(self.class_starts.item(-1), dtype=np.int64)
        parents[0] = -1
        parents[1:] = np.arange(self.class_count,
                                dtype=np.int64).repeat(self.class_degrees)
        return _frozen(parents)

    def expanded(self) -> "DirectedTree":
        """The full tree, every class replaced by its vertices: built on
        first use and kept.  A full tree is its own."""
        if self._is_full:
            return self
        if self._expanded is None:
            self._expanded = DirectedTree(self.degrees, self._sizes,
                                          self._labels)
        return self._expanded

    @cached_property
    def vertex_edges(self) -> np.ndarray:
        """The edge into every vertex, 0 for the root; built on first use."""
        return _frozen(self._links(self._depth, parents=False))

    def per_vertex(self, values: np.ndarray) -> np.ndarray:
        """The per-class array ``values`` with one entry per vertex, in
        canonical order: ``values`` itself on a full tree, else each entry
        repeated over its class's run, read-only and not kept."""
        return values if self._is_full else _frozen(
            values.repeat(self.multiplicities))

    def per_vertex_edge(self, values: np.ndarray) -> np.ndarray:
        """``per_vertex`` of a per-edge array: the entry of the edge into
        each vertex (entry 0 for the root)."""
        return values if self._is_full else _frozen(
            values[self.vertex_edges])

    def links(self, depth: int) -> tuple[np.ndarray, np.ndarray]:
        """``link`` of every vertex of depth <= ``depth``, as two arrays
        in canonical order (-1 and 0 for the root)."""
        return self._links(depth, True), self._links(depth, False)

    def _links(self, depth: int, parents: bool) -> np.ndarray:
        """Parent (-1 for the root) or, unless ``parents``, edge into (0
        for the root) each vertex of depth <= ``depth``, in canonical
        order, built in place from the classes above it: child j of the
        r-th vertex of class c is vertex ``_first_child[c] + r *
        class_degrees[c] + j``, on edge ``class_starts[c] + j``."""
        size = self.gen_offsets.item(depth + 1)
        if self._is_full:
            return (self.class_parents if parents else self.children)[:size]
        top = self.class_offsets.item(depth)  # the classes of the parents
        span = self.class_degrees[:top] * self.multiplicities[:top]
        step, base, root = ((np.floor_divide, self._first, -1) if parents
                            else (np.remainder, self.class_starts, 0))
        out = np.arange(size, dtype=np.int64)
        out[1:] -= self._first_child[:top].repeat(span)  # r * degree + j
        step(out[1:], self.class_degrees[:top].repeat(span), out=out[1:])
        out[1:] += base[:top].repeat(span)
        out[0] = root
        return out

    def edge_classes(self, edges: slice | np.ndarray) -> slice | np.ndarray:
        """Classes the child edges ``edges`` (a slice or an index array)
        lead to, as an index into per-class arrays.  On a full tree that
        is ``edges`` itself, so that indexing with a slice stays a
        view."""
        return edges if self._is_full else self.children[edges]

    def class_of(self, index: int) -> int:
        """Class of vertex ``index``."""
        return int(self._first.searchsorted(index, side="right")) - 1

    def class_depth(self, c: int) -> int:
        return int(self.class_offsets.searchsorted(c, side="right")) - 1

    def class_label(self, c: int) -> str:
        """Id of the first vertex of class c."""
        return self.label(self._first.item(c))

    def edge_label(self, e: int) -> str:
        """Id of the first vertex that child edge e >= 1 leads to."""
        c = int(self.class_starts.searchsorted(e, side="right")) - 1
        return self.label(self._first_child.item(c) + e
                          - self.class_starts.item(c))

    # -- vertices ---------------------------------------------------------
    @property
    def degrees(self) -> np.ndarray:
        """Child count per vertex (0 on the last materialized level)."""
        return self.per_vertex(self.class_degrees)

    @property
    def child_starts(self) -> np.ndarray:
        """Index of the first child per vertex; length V + 1."""
        return self.class_starts if self._is_full else _frozen(np.cumsum(
            np.append(1, self.degrees)))

    @property
    def parents(self) -> np.ndarray:
        """Parent index per vertex; -1 for the root."""
        return _frozen(self._links(self._depth, True))

    @property
    def generation_sizes(self) -> tuple[int, ...]:
        return tuple(self._sizes.tolist())

    @cached_property
    def labels(self) -> list[str]:
        """Vertex ids in canonical order: those given to the constructor,
        or the default ones, formatted on first use."""
        if self._labels is not None:
            return self._labels
        return [f"g{d}:{i}" for d, size in enumerate(self.generation_sizes)
                for i in range(size)]

    def label(self, index: int) -> str:
        """Id of vertex ``index``; RangeError outside 0..V-1,
        TypeError unless ``index`` is an integer."""
        index = operator.index(index)
        depth = self.depth_at(index)  # RangeError outside 0..V-1
        return self._label_range(index, index + 1, depth)[0]

    def _label_range(self, start: int, stop: int, depth: int) -> list[str]:
        """Ids of the vertices start..stop-1 of generation ``depth``."""
        if self._labels is not None:
            return self._labels[start:stop]
        first = start - self.gen_offsets.item(depth)
        return [f"g{depth}:{i}" for i in range(first, first + stop - start)]

    def depth_at(self, index: int) -> int:
        """Depth of vertex ``index``; RangeError outside 0..V-1,
        TypeError unless ``index`` is an integer."""
        index = operator.index(index)
        count = self.gen_offsets.item(-1)
        if not 0 <= index < count:
            raise RangeError(f"vertex index {index} out of range "
                             f"[0, {count})")
        return int(self.gen_offsets.searchsorted(index, side="right")) - 1

    def index(self, vid: str) -> int:
        """Canonical index of a vertex id.  A default id
        ``g<depth>:<index in generation>`` is read from the generation
        offsets; ids given to the constructor are looked up in a map of
        them, built on first use."""
        if not isinstance(vid, str):
            raise RangeError(f"unknown vertex {vid!r}")
        if self._labels is None:
            match = _DEFAULT_ID.fullmatch(vid)
            if match:
                d, i = int(match[1]), int(match[2])
                if d <= self._depth and i < self._sizes.item(d):
                    return self.gen_offsets.item(d) + i
            raise RangeError(f"unknown vertex {vid!r}")
        if self._index_map is None:
            self._index_map = {v: i for i, v in enumerate(self._labels)}
            if len(self._index_map) < self.vertex_count:
                self._index_map = None
                raise StructureError("the vertex labels repeat an id")
        try:
            return self._index_map[vid]
        except KeyError:
            raise RangeError(f"unknown vertex {vid!r}") from None

    def _children(self, i: int) -> range:
        """Children of vertex i, read on the class arrays: those of the
        r-th vertex of class c start r * class_degrees[c] vertices after
        those of the class's first vertex."""
        c = self.class_of(i)
        degree = self.class_degrees.item(c)
        start = self._first_child.item(c) + (i - self._first.item(c)) * degree
        return range(start, start + degree)

    def link(self, index: int) -> tuple[int, int]:
        """Parent of vertex ``index`` >= 1 and the edge into it, the
        inverse of ``_children``: class c's vertices have the children
        from ``_first_child[c]`` on, child j of each on edge
        ``class_starts[c] + j``."""
        c = int(self._first_child.searchsorted(index, side="right")) - 1
        r, j = divmod(index - self._first_child.item(c),
                      self.class_degrees.item(c))
        return self._first.item(c) + r, self.class_starts.item(c) + j

    # -- read API ---------------------------------------------------------
    @property
    def root(self) -> str:
        return self._label_range(0, 1, 0)[0]

    @property
    def materialized_depth(self) -> int:
        return self._depth

    @property
    def vertex_count(self) -> int:
        return self.gen_offsets.item(-1)

    def ids(self) -> Iterable[str]:
        return iter(self.labels)

    def __contains__(self, vid: str) -> bool:
        try:
            self.index(vid)
        except RangeError:
            return False
        return True

    def vertex(self, vid: str) -> Vertex:
        return Vertex(vid, self.depth_of(vid), self.parent_of(vid),
                      self.children_of(vid))

    def depth_of(self, vid: str) -> int:
        return self.depth_at(self.index(vid))

    def parent_of(self, vid: str) -> Optional[str]:
        i = self.index(vid)
        return None if i == 0 else self.label(self.link(i)[0])

    def children_of(self, vid: str) -> tuple[str, ...]:
        i = self.index(vid)
        kids = self._children(i)
        return tuple(self._label_range(kids.start, kids.stop,
                                       self.depth_at(i) + 1))

    def degree(self, vid: str) -> int:
        """Number of children.  Meaningful for depth <= N-1 only."""
        i = self.index(vid)
        depth = self.depth_at(i)
        if depth > self._depth - 1:
            raise RangeError(
                f"degree of {vid!r} at depth {depth} is unknown: children "
                f"beyond depth {self._depth} are not materialized")
        return self.class_degrees.item(self.class_of(i))

    def class_adjacency_expansion(self) -> tuple[np.ndarray, np.ndarray]:
        """Both sides of the adjacency shift's expansion identity at every
        class of depth <= N-2, in class order: the sum of the degrees of
        a vertex's children (its grandchild count), and 2*deg - 1.
        Computed on first use and kept (read-only).
        """
        if self._expansion is None:
            inner = self.class_offsets.item(max(self._depth - 1, 0))
            edges = self.class_starts.item(inner)  # their edges: 1..edges-1
            grandchildren = np.bincount(
                self.class_parents[1:edges],
                weights=self.class_degrees[self.edge_classes(slice(1, edges))],
                minlength=inner).astype(np.int64)
            self._expansion = (_frozen(grandchildren),
                               _frozen(2 * self.class_degrees[:inner] - 1))
        return self._expansion

    def adjacency_expansion(self) -> tuple[np.ndarray, np.ndarray]:
        """``class_adjacency_expansion`` at every vertex of depth <= N-2,
        in canonical order: each class's entries repeated for its
        vertices, which are consecutive.  Kept (read-only)."""
        if self._is_full:
            return self.class_adjacency_expansion()
        if self._vertex_expansion is None:
            self._vertex_expansion = tuple(
                _frozen(side.repeat(self.multiplicities[:len(side)]))
                for side in self.class_adjacency_expansion())
        return self._vertex_expansion

    def generations(self) -> tuple[tuple[str, ...], ...]:
        if self._generations is None:
            self._generations = tuple(generation(self, n)
                                      for n in range(self._depth + 1))
        return self._generations

    def resolve_path(self, indices: Sequence[int]) -> str:
        """Vertex reached from the root by successive child indices,
        walked on the class arrays."""
        i = 0
        for k in map(operator.index, indices):
            kids = self._children(i)
            if not 0 <= k < len(kids):
                raise RangeError(
                    f"child index {k} out of range at vertex "
                    f"{self.label(i)!r} (degree {len(kids)})")
            i = kids[k]
        return self.label(i)


def _class_layout(degrees: np.ndarray, offsets: np.ndarray,
                  starts: np.ndarray, children: np.ndarray,
                  mult: np.ndarray) -> Optional[tuple]:
    """Class offsets, child-edge classes (0 first, for the root), the
    multiplicities, and the first vertex of every class and the first
    child of that vertex, or None when the classes do not stand for
    consecutive vertices.

    They do when the multiplicities cut the generations (vertex offsets
    ``offsets``) at class boundaries, the edge classes never decrease,
    and, counting the vertices the edges lead to in edge order (class
    p's edges lead to mult[p] each), the first edge into each class
    leads to its first vertex, the first edge out of each generation g
    to the first vertex of generation g + 1, and all edges to the V - 1
    non-root vertices; a first edge into a class must moreover be the
    first edge of its own class unless that class is one vertex.  Then
    the children of a generation, vertex by vertex, are every class of
    the next one, each in one run and in class order.  Past the
    ordering, every check reads the class arrays and the ends of runs of
    edges only."""
    count, edges = len(degrees), len(children)
    if (len(mult) != count or edges != starts.item(-1) - 1
            or mult.min(initial=1) < 1):
        return None
    first = np.zeros(count + 1, dtype=np.int64)
    np.add.accumulate(mult, out=first[1:])
    class_offsets = first.searchsorted(offsets)
    kids = np.zeros(edges + 1, dtype=np.int64)
    kids[1:] = children
    if (first.item(-1) != offsets.item(-1)
            or (first[class_offsets] != offsets).any()
            or (edges and (kids.item(1) < 1 or kids.item(-1) >= count
                           or (kids[1:] < kids[:-1]).any()))):
        return None
    # the edges numbered e: the first into each class, the first out of
    # each generation g >= 1, and one past the last
    e = np.concatenate((kids.searchsorted(np.arange(1, count)),
                        starts[class_offsets[1:-1]], [edges + 1]))
    need = np.concatenate((first[1:-1], offsets[2:], offsets[-1:]))
    # edge e is edge e - starts[p] of class p, and the edges before
    # class p's lead to reach[p] vertices
    reach = np.zeros(count, dtype=np.int64)
    np.add.accumulate(degrees[:-1] * mult[:-1], out=reach[1:])
    p = starts[:-1].searchsorted(e, side="right") - 1
    within, each = e - starts[p], mult[p]
    if ((reach[p] + within * each + 1 != need)
            | (within * (each - 1) != 0)).any():
        return None
    return class_offsets, kids, mult, first[:-1], reach + 1


_EDGES_SHAPE = "edges must be a list of [parent, child] string pairs"


def _edge_list(edges: Iterable[tuple[str, str]]
               ) -> tuple[tuple[str, str], ...]:
    """``edges`` as a tuple of (parent, child) pairs, each kept as
    given; StructureError (field ``edges``) unless each is a tuple or a
    list of two strings."""
    try:
        pairs = tuple(edges)
        typed = (set(map(type, pairs)) <= {tuple, list}
                 and set(map(len, pairs)) <= {2})
        if typed:  # join refuses every id that is not a str
            "".join(chain.from_iterable(pairs))
    except TypeError:  # not iterable, or an id that is not a str
        typed = False
    if not typed:
        raise StructureError(_EDGES_SHAPE, "edges")
    return pairs


def _edge_arrays(edges: tuple[tuple[str, str], ...]
                 ) -> tuple[tuple[np.ndarray, np.ndarray], tuple[str, ...]]:
    """The generation rule of the tree with the given checked edges, as
    ``_rule_arrays`` gives it: every vertex's child count in canonical
    order and the generation sizes, ending with an empty generation;
    and the ids in canonical order (see ``DirectedTree.from_edges``).
    The ids are interned once, and counted against MAX_VERTICES before
    the tree's arrays are built."""
    ids: dict[str, int] = {}
    intern = ids.setdefault
    par = np.array([intern(p, len(ids)) for p, _ in edges], dtype=np.int64)
    kid = np.array([intern(c, len(ids)) for _, c in edges], dtype=np.int64)
    count = len(ids)
    if not count:
        raise StructureError("edge list is empty", "edges")
    if count > MAX_VERTICES:
        raise ResourceLimitError(
            f"tree of kind 'explicit' would have {count} vertices; the "
            f"limit is {MAX_VERTICES}", "edges")
    names = list(ids)
    parent = np.full(count, -1, dtype=np.int64)
    parent[kid] = par
    clashes = np.flatnonzero(parent[kid] != par)
    if len(clashes):
        clash = clashes.item(0)
        c = kid.item(clash)
        raise StructureError(
            f"vertex {names[c]!r} has two parents ({names[parent.item(c)]!r} "
            f"and {names[par.item(clash)]!r})", "edges")
    roots = np.flatnonzero(parent < 0).tolist()
    if len(roots) > 1:
        raise StructureError(
            f"edge list must describe one tree; {names[roots[0]]!r} and "
            f"{names[roots[1]]!r} both have no parent", "edges")
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
        raise StructureError(f"cycle through vertex {names[v]!r}", "edges")
    degrees = degree[canon]
    # the children of generation g make up generation g + 1, and the
    # last one has none
    child_starts = np.cumsum(np.append(1, degrees)).tolist()
    offsets, end = [0], 0
    while end < count:
        end = child_starts[end]
        offsets.append(end)
    return ((degrees, np.diff(offsets + [count])),
            tuple(map(names.__getitem__, canon)))


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
      - "explicit": ``edges`` is a list of (parent, child) pairs of id
        strings (each a tuple or a list), kept as a tuple of its pairs.
        The spec interns them once, into the tree's generation rule and
        its ids in canonical order, and takes the depth of the deepest
        vertex when ``depth`` is None.
      - "generation_rule": ``rule[g][i]`` is the child count of the i-th
        vertex of generation g (the rule and its rows tuples or lists;
        the rule is kept as a tuple of its rows); generations beyond the
        rule continue with one child each.

    Each field is checked when the spec is built, and an error about
    one names it in its ``field``.  The rule and the edges are read
    once, then; do not change their rows or pairs afterwards.  A spec
    parsed from JSON keeps the decoded lists as rule rows and edge
    pairs, so it cannot be hashed and compares unequal to the same spec
    with tuples.
    """

    kind: str
    eta: Optional[int] = None
    kappa: int = 0
    valency: Optional[int] = None
    edges: Optional[tuple[tuple[str, str], ...]] = None
    rule: Optional[tuple[Sequence[int], ...]] = None
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
                f"{list(self.KIND_FIELDS)}", "kind")
        # a path is the rule (), and an explicit tree the rule of its
        # edges; spec_vertex_count and materialize read each rule's
        # arrays, and the ids of an explicit tree
        arrays = _PATH_ARRAYS if self.kind == "path" else None
        ids = None
        if self.kind == "t_eta_kappa":
            if self.eta is None or self.eta < 2:
                raise ConfigurationError("t_eta_kappa requires eta >= 2",
                                         "eta")
            if self.kappa != 0:
                raise ConfigurationError(
                    "only kappa = 0 trees are generated", "kappa")
        if self.kind == "quasi_brownian":
            if self.valency is None or self.valency < 2:
                raise ConfigurationError(
                    "quasi_brownian requires valency >= 2", "valency")
        if self.kind == "explicit":
            edges = _edge_list(self.edges)
            arrays, ids = _edge_arrays(edges)
            object.__setattr__(self, "edges", edges)
            if self.depth is None:
                object.__setattr__(self, "depth", len(arrays[1]) - 2)
        if self.kind == "generation_rule":
            arrays = _rule_arrays(self.rule)
            object.__setattr__(self, "rule", tuple(self.rule))
        object.__setattr__(self, "_rule_arrays", arrays)
        object.__setattr__(self, "_ids", ids)


#: Largest rule entry kept in int64: sums of fewer than 2**31 such
#: entries cannot overflow.  A rule with a larger entry is held as
#: Python ints, whose sums are exact (its tree is never materialized).
_RULE_ENTRY_MAX = 2 ** 31

_RULE_SHAPE = "rule must be a list of per-generation child-count lists"

#: ``_rule_arrays`` of the empty rule: every generation has one vertex
_PATH_ARRAYS = (_frozen(np.zeros(0, dtype=np.int64)),
                _frozen(np.ones(1, dtype=np.int64)))


def _rule_arrays(rule: Sequence[Sequence[int]]
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The rule's child counts in one array, generation after
    generation, and the generation sizes: 1, then the sum of each row.
    Raises StructureError, its ``field`` ``rule``, when the rule is not
    a tuple or a list of rows of ints (a bool is not one), or naming the
    first row that is not one count >= 0 per vertex of its generation.

    Rows that are tuples or lists of counts 0..255 are packed into
    bytes in one C pass and widened once; any other rule takes the
    general conversion, which also holds every error."""
    if not isinstance(rule, (tuple, list)):
        raise StructureError(_RULE_SHAPE, "rule")
    try:
        # bytes() refuses every entry but an int 0..255 (or a bool);
        # bytes(n) of an int row would be n zero bytes
        packed = (list(map(bytes, rule))
                  if set(map(type, rule)) <= {tuple, list} else None)
    except (TypeError, ValueError):
        packed = None
    if packed is None:
        flat = _rule_entries(rule)
    else:
        # bytes() reads a bool as 0 or 1, so the rows that hold one of
        # those have their entry types looked at
        if bool in set(map(type, chain.from_iterable(
                row for row, data in zip(rule, packed)
                if b"\0" in data or b"\1" in data))):
            raise StructureError(_RULE_SHAPE, "rule")
        flat = np.frombuffer(b"".join(packed), np.uint8).astype(np.int64)
    lengths = np.fromiter(map(len, rule), np.int64, len(rule))
    ends = np.cumsum(lengths)
    starts = ends - lengths
    summed = np.concatenate([[0], np.cumsum(flat)])
    sizes = np.concatenate([[1], summed[ends] - summed[starts]])
    # the row of the first negative count
    negative = ends.searchsorted(np.flatnonzero(flat < 0), side="right")
    bad = np.flatnonzero(lengths != sizes[:-1])
    g = min(bad[:1].tolist() + negative[:1].tolist(), default=None)
    if g is not None:
        raise StructureError(
            f"generation rule row {g} has length {lengths.item(g)}; it "
            f"needs {sizes[g]} child counts >= 0, one per vertex of "
            f"generation {g}", "rule")
    return flat, sizes


def _rule_entries(rule: Sequence[Sequence[int]]) -> np.ndarray:
    """The rule's entries in one int64 array, or an object array of
    Python ints when one passes _RULE_ENTRY_MAX; StructureError unless
    the rule is rows of ints."""
    try:
        entries = list(chain.from_iterable(rule))
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
        raise StructureError(_RULE_SHAPE, "rule")
    return flat if exact else np.array(entries, dtype=object)


def _rule_generations(sizes: np.ndarray, depth: int) -> np.ndarray:
    """Generation sizes of the rule tree to ``depth``: the rule's, then
    that of its last generation, which continues with one child per
    vertex."""
    rows = min(depth, len(sizes) - 1)
    generations = np.full(depth + 1, sizes[rows], dtype=np.int64)
    generations[:rows] = sizes[:rows]
    return generations


def _tree_from_rule(flat: np.ndarray, sizes: np.ndarray, depth: int,
                    count: int, labels: Optional[list[str]] = None
                    ) -> DirectedTree:
    """Tree of ``count`` vertices whose generation g < len(sizes) - 1
    has the child counts of rule row g (``_rule_arrays``), with the
    vertex ids ``labels``; later generations continue with one child
    each."""
    generations = _rule_generations(sizes, depth)
    last = count - generations.item(-1)  # the last generation has none
    degrees = np.ones(count, dtype=np.int64)
    # the rule gives the child counts of its rows above the last one
    ruled = min(len(flat), last)
    degrees[:ruled] = flat[:ruled]
    degrees[last:] = 0
    return DirectedTree(degrees, generations, labels)


def _rule_classes(flat: np.ndarray, sizes: np.ndarray, depth: int,
                  count: int, labels: Optional[list[str]] = None
                  ) -> Optional[DirectedTree]:
    """The tree of ``_tree_from_rule``, of ``count`` vertices, as run
    classes, or None when it has fewer than MIN_VERTICES_PER_CLASS
    vertices per class.

    The classes are hashed bottom-up from the rule's runs of equal
    child counts, without building the tree: a vertex joins the class
    of the vertex before it in its generation when both have the same
    child count and all their children lie in one class (leaves
    included).  So a class of several vertices sends all its edges to
    one class, which is the layout ``DirectedTree`` checks, and its
    vertices have one cone type.  A class starts where a run starts,
    at the parent of the first vertex of a class of the next
    generation, and after a parent whose children start a class past
    its first child.  The one-child tail past the rule, and the last
    generation, are one class each."""
    rows = min(depth, len(sizes) - 1)
    budget = count // MIN_VERTICES_PER_CLASS
    # each generation up to the first empty one holds a class, and after
    # an empty generation every one is empty
    if budget <= depth and sizes.item(rows):
        return None
    generations = _rule_generations(sizes, depth)
    offsets = np.zeros(depth + 2, dtype=np.int64)
    np.add.accumulate(generations, out=offsets[1:])
    tail = depth - rows + 1 if generations.item(-1) else 0
    ruled = offsets.item(rows)
    counts = flat[:ruled].astype(np.int64, copy=False)
    # runs of equal counts within a row
    new = np.empty(ruled, dtype=bool)
    new[:1] = True
    np.not_equal(counts[1:], counts[:-1], out=new[1:])
    new[offsets[:rows][generations[:rows] > 0]] = True
    starts = np.flatnonzero(new)
    if len(starts) + tail > budget:
        return None
    degrees = counts[starts]
    # the first child of each run's first vertex v: vertex 1 + (the child
    # counts before v)
    first_child = np.ones(len(starts), dtype=np.int64)
    np.add.accumulate((np.diff(starts, append=ruled) * degrees)[:-1],
                      out=first_child[1:])
    first_child[1:] += 1
    run_at = starts.searchsorted(offsets[:rows + 1]).tolist()
    run_starts, run_degrees = starts.tolist(), degrees.tolist()
    run_child, off = first_child.tolist(), offsets.tolist()
    found = tail
    below: list[int] = []  # class starts of generation g + 1 past its first
    firsts = []
    for g in range(rows - 1, -1, -1):
        a, b = run_at[g], run_at[g + 1]
        if below:
            cut = set(run_starts[a:b])
            end = off[g + 1]
            for c in below:
                j = bisect_right(run_child, c, a, b) - 1
                q, r = divmod(c - run_child[j], run_degrees[j])
                p = run_starts[j] + q
                cut.add(p)
                if r and p + 1 < end:
                    cut.add(p + 1)
            cut = sorted(cut)
        else:
            cut = run_starts[a:b]
        found += len(cut)
        if found > budget:
            return None
        firsts.append(cut)
        below = cut[1:]
    ruled_firsts = np.fromiter(chain.from_iterable(reversed(firsts)),
                               np.int64, found - tail)
    run = starts.searchsorted(ruled_firsts, side="right") - 1
    run_degree = degrees[run]
    first = np.concatenate((ruled_firsts, offsets[rows:rows + tail]))
    class_degrees = np.ones(found, dtype=np.int64)
    class_degrees[:len(run)] = run_degree
    if tail:
        class_degrees[-1] = 0
    # the first child of each class's first vertex
    class_child = np.concatenate((
        first_child[run] + (ruled_firsts - starts[run]) * run_degree,
        offsets[rows + 1:rows + tail + 1]))
    edges = np.zeros(found, dtype=np.int64)
    np.add.accumulate(class_degrees[:-1], out=edges[1:])
    children = first.searchsorted(
        np.arange(class_degrees.sum())
        + (class_child - edges).repeat(class_degrees), side="right") - 1
    return DirectedTree(class_degrees, generations, labels,
                        children=children,
                        multiplicities=np.diff(first, append=count))


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
    the spec alone: a path, an explicit tree and a generation rule from
    their rule arrays.  Raises StructureError (``edges``), naming the
    first vertex past ``depth``, when that is shallower than an
    explicit tree's deepest vertex."""
    if depth is None:
        depth = spec.depth
    if depth is None:
        raise ConfigurationError("no materialization depth given")
    if depth < 0:
        raise RangeError(f"depth must be >= 0, got {depth}")
    if spec.kind == "t_eta_kappa":
        assert spec.eta is not None
        return 1 + spec.eta * depth
    if spec.kind == "quasi_brownian":
        assert spec.valency is not None
        # generation n has 1 + n(valency - 1) vertices
        return depth + 1 + (spec.valency - 1) * depth * (depth + 1) // 2
    sizes = spec._rule_arrays[1]
    if spec._ids is not None and depth < len(sizes) - 2:
        raise StructureError(
            f"vertex {spec._ids[int(sizes[:depth + 1].sum())]!r} at depth "
            f"{depth + 1} exceeds requested depth {depth}", "edges")
    rows = min(depth, len(sizes) - 1)
    return int(sizes[:rows + 1].sum()) + (depth - rows) * int(sizes[rows])


def materialize(spec: TreeSpec, depth: Optional[int] = None) -> DirectedTree:
    """Materialize a tree spec to the given depth (default: spec.depth,
    which an explicit tree without one takes from its deepest vertex).
    A path, an explicit tree and a generation rule are built from their
    rule arrays by one path: as classes when they compress, else vertex
    by vertex, an explicit tree with its ids.

    Raises ResourceLimitError (``depth``), before allocating anything,
    when the tree would have more than MAX_VERTICES vertices or
    generations; the spec of an explicit tree counted its ids against
    the limit when it was built."""
    if depth is None:
        depth = spec.depth
    count = spec_vertex_count(spec, depth)
    assert depth is not None
    if count > MAX_VERTICES:
        raise ResourceLimitError(
            f"tree of kind {spec.kind!r} at depth {depth} would have "
            f"{count} vertices; the limit is {MAX_VERTICES}", "depth")
    # few vertices can still span many generations, empty ones included
    # (an explicit tree or a rule with a 0 row), and each costs an array
    # entry
    if depth >= MAX_VERTICES:
        raise ResourceLimitError(
            f"tree of kind {spec.kind!r} at depth {depth} would have "
            f"{depth + 1} generations; the limit is {MAX_VERTICES}", "depth")
    if spec.kind == "t_eta_kappa":
        return _star_classes(spec.eta, depth)
    if spec.kind == "quasi_brownian":
        assert spec.valency is not None
        return _quasi_brownian_classes(spec.valency, depth)
    # every tree of an explicit spec gets a list of its ids of its own
    labels = None if spec._ids is None else list(spec._ids)
    tree = _rule_classes(*spec._rule_arrays, depth, count, labels)
    return tree if tree is not None else _tree_from_rule(
        *spec._rule_arrays, depth, count, labels)


def _star_classes(eta: int, depth: int) -> DirectedTree:
    """The t_eta_kappa tree (kappa = 0) as its root and one ray class per
    generation: the root's eta edges all lead to the first ray class."""
    rays = eta if depth else 0  # the vertex budget bounds eta only then
    mult = np.full(depth + 1, rays, dtype=np.int64)
    mult[0] = 1
    degrees = np.ones(depth + 1, dtype=np.int64)
    degrees[0] = rays
    degrees[-1] = 0
    children = np.concatenate([np.ones(rays, dtype=np.int64),
                               np.arange(2, depth + 1)])
    # one class per generation: the generation sizes are the multiplicities
    return DirectedTree(degrees, mult, children=children,
                        multiplicities=mult)


def _quasi_brownian_classes(valency: int, depth: int) -> DirectedTree:
    """The quasi-Brownian tree as a spine class and a ray class per
    generation n >= 1 (classes 2n - 1 and 2n; the root is class 0).  The
    spine vertex, first in its generation, has degree valency: its first
    child is the next spine vertex and the others start rays; a ray
    vertex has one child."""
    n = np.arange(depth, dtype=np.int64)
    # generation n's edges: the spine's, then the ray's (none at n = 0)
    edges = np.empty((depth, valency + 1), dtype=np.int64)
    edges[:, 0] = 2 * n + 1
    edges[:, 1:] = (2 * n + 2)[:, None]
    children = np.concatenate((edges[:1, :valency].ravel(),
                               edges[1:].ravel()))
    mult = np.ones(2 * depth + 1, dtype=np.int64)
    mult[2::2] = (n + 1) * (valency - 1)
    degrees = np.ones(2 * depth + 1, dtype=np.int64)
    degrees[0] = degrees[1::2] = valency  # the spine classes
    degrees[-2:] = 0
    sizes = 1 + np.arange(depth + 1) * (valency - 1)
    return DirectedTree(degrees, sizes, children=children,
                        multiplicities=mult)


def generation(tree: DirectedTree, n: int) -> tuple[str, ...]:
    """Vertices of depth n, in canonical order: the ids given to the
    tree, or the default ones formatted at the cost of the generation
    alone."""
    if not 0 <= n <= tree.materialized_depth:
        raise RangeError(
            f"generation {n} out of range [0, {tree.materialized_depth}]")
    start, stop = tree.gen_offsets.item(n), tree.gen_offsets.item(n + 1)
    return tuple(tree._label_range(start, stop, n))


class Report:
    """Base of the verdict and report dataclasses.  ``to_dict`` is the
    report form: each field under its name, in declaration order, and a
    field that is a Report as its own form; a field declared with
    ``field(metadata={"report": False})`` is left out."""

    @classmethod
    @cache
    def _reported_fields(cls) -> tuple[str, ...]:
        """Names of the fields ``to_dict`` writes, found once per class."""
        return tuple(f.name for f in fields(cls)
                     if f.metadata.get("report", True))

    def to_dict(self) -> dict:
        """Report form (tuples render as JSON arrays)."""
        return {name: value.to_dict() if isinstance(value, Report) else value
                for name in self._reported_fields()
                for value in (getattr(self, name),)}


@dataclass(frozen=True)
class StructureVerdict(Report):
    """Outcome of a structural check, bounded by the verified depth."""

    holds: bool
    verified_depth: int
    witness: Optional[str] = None
    note: str = ""


@dataclass(frozen=True)
class TreeStructureReport(Report):
    """Structure report: verdicts are claims about depth <= verified_depth
    only, never about the unmaterialized tail."""

    leafless_to_depth: bool
    max_degree: int
    degree_multiset_per_generation: tuple[tuple[int, ...], ...]
    quasi_brownian: StructureVerdict
    valency: Optional[int] = None


def _either(degrees: np.ndarray, a: int, b: int) -> np.ndarray:
    """Whether each degree is a or b."""
    return (degrees == a) | (degrees == b)


def _child_degree_checks(tree: DirectedTree, a: int, b: int
                         ) -> tuple[np.ndarray, np.ndarray]:
    """For every class of depth <= N-2: whether the adjacency expansion
    identity holds, and whether every child degree is a or b."""
    grandchildren, target = tree.class_adjacency_expansion()
    # the child edges of the classes of depth <= N-2
    edges = tree.class_starts.item(len(target))
    kids = tree.edge_classes(slice(1, edges))
    stray = np.bincount(tree.class_parents[1:edges],
                        weights=~_either(tree.class_degrees[kids], a, b),
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
    max_deg = int(tree.class_degrees.max())
    if max_deg < 2:
        return StructureVerdict(False, n - 2,
                                note="no vertex of degree >= 2")
    sums_ok, kids_ok = _child_degree_checks(tree, 1, max_deg)
    own_ok = _either(tree.class_degrees[:len(sums_ok)], 1, max_deg)
    bad = np.flatnonzero(~(own_ok & kids_ok & sums_ok))
    witness = tree.class_label(bad.item(0)) if len(bad) else None
    return StructureVerdict(witness is None, n - 2, witness,
                            note="verified to depth N-2")


def classify_tree(tree: DirectedTree) -> TreeStructureReport:
    """Structural classification of the materialized tree, with the
    ``quasi_brownian`` verdict; the valency is the maximum degree when
    that verdict holds.  The degree multisets are the class degrees,
    each repeated by its multiplicity."""
    n = tree.materialized_depth
    inner = tree.class_offsets.item(n)  # classes of depth <= N-1
    known = tree.class_degrees[:inner]
    leafless = bool(np.all(known >= 1))
    max_deg = int(known.max()) if len(known) else 0
    # the classes sorted by generation, then degree, each repeated by
    # its multiplicity: every generation's sorted degrees in a row
    order = np.lexsort((known, np.arange(n).repeat(
        np.diff(tree.class_offsets[:n + 1]))))
    degrees = known[order].repeat(tree.multiplicities[:inner][order]).tolist()
    off = tree.gen_offsets.tolist()
    multisets = tuple(tuple(degrees[off[g]:off[g + 1]]) for g in range(n))
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
    l = int(tree.class_degrees[0])
    if l < 2:
        return None
    sums_ok, kids_ok = _child_degree_checks(tree, 1, 2)
    own_ok = _either(tree.class_degrees[1:len(sums_ok)], 1, 2)
    if not (sums_ok.all() and kids_ok.all() and own_ok.all()):
        return None
    return l
