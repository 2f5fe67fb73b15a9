"""Bit-packed simple graphs and the named constructions.

A ``Graph`` is its rows, one Python integer bitmask per vertex, so
neighborhood intersection, union and popcount are word-parallel; that is what
the containment search and the exhaustive enumeration spend their time on.
Graphs are immutable and safe to share between tasks. The representation is
stated here once: ``_members`` lists a mask's set bits (``_indices``, as an
array), and ``_pairs``, ``_column`` and ``_triangle`` give the graph6 triangle
order that the codec, canon and the orderly walker share.

Vertex labelling of the constructions is fixed: join/clique vertices come
first, then the independent or augmented part, so tests can rely on exact
labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .errors import ParameterError

__all__ = [
    "Graph",
    "ShellDecomposition",
    "from_edges",
    "complete_split",
    "complete_split_plus",
    "complete_bipartite",
    "bipartite_plus_edge",
    "bipartite_plus_path",
    "bipartite_plus_matching",
    "path_graph",
    "clique",
    "cycle",
    "join",
    "disjoint_union",
    "FAMILIES",
    "construct",
    "shells",
]


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1, built from its rows.

    ``rows[v]`` is the neighbor bitmask of ``v``; callers pass a tuple whose
    relation is symmetric and loop-free. ``n`` and ``edge_count`` are read
    off the rows, so they cannot disagree with them.
    """

    rows: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.rows)

    @cached_property
    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(r.bit_count() for r in self.rows)

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return _members(self.rows[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        for u, row in enumerate(self.rows):
            for off in _members(row >> (u + 1)):
                yield (u, u + 1 + off)

    def with_edge(self, u: int, v: int) -> "Graph":
        """A new graph with edge (u, v) added (must not already exist)."""
        if u == v:
            raise ParameterError("loops are not allowed")
        if self.has_edge(u, v):
            raise ParameterError(f"edge ({u}, {v}) already present")
        rows = list(self.rows)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph(tuple(rows))

    def relabel(self, perm: tuple[int, ...]) -> "Graph":
        """Image under ``perm``: old vertex v becomes perm[v]."""
        rows = [0] * self.n
        for v, row in enumerate(self.rows):
            rows[perm[v]] = _image(row, perm)
        return Graph(tuple(rows))

    def subgraph(self, vertices: Iterable[int]) -> "Graph":
        """Induced subgraph; vertex i of the result is sorted(vertices)[i]."""
        verts = sorted(set(vertices))
        index = {v: i for i, v in enumerate(verts)}
        kept = _mask(verts)
        return Graph(tuple(_image(self.rows[v] & kept, index) for v in verts))

    def components(self) -> list[tuple[int, ...]]:
        """Connected components as sorted vertex tuples, by smallest vertex."""
        seen = 0
        out = []
        full = (1 << self.n) - 1
        while seen != full:
            comp = sum(_frontiers(self, _lowest_bit(full & ~seen)))
            out.append(_members(comp))
            seen |= comp
        return out

    def is_connected(self) -> bool:
        return len(self.components()) == 1

    @cached_property
    def twin_classes(self) -> tuple[tuple[int, ...], ...]:
        """Classes of vertices with equal open or equal closed neighborhoods.

        Open twins are pairwise non-adjacent and closed twins pairwise
        adjacent, so no vertex has twins of both kinds and the classes
        partition the vertex set. The partition is equitable: all vertices
        of a class have the same number of neighbors in each class. Classes
        are sorted tuples, ordered by smallest vertex.
        """
        return tuple(map(tuple, _twin_groups(self.rows)))

    @cached_property
    def twin_masks(self) -> tuple[int, ...]:
        """Bitmask of each vertex's twin class (see ``twin_classes``)."""
        masks = [0] * self.n
        for members in _twin_groups(self.rows):
            mask = _mask(members)
            for v in members:
                masks[v] = mask
        return tuple(masks)

    def np_adjacency(self) -> np.ndarray:
        """Dense float64 adjacency matrix."""
        nbytes = (self.n + 7) // 8
        buf = b"".join(r.to_bytes(nbytes, "little") for r in self.rows)
        bits = np.unpackbits(
            np.frombuffer(buf, dtype=np.uint8).reshape(self.n, nbytes),
            axis=1,
            bitorder="little",
        )
        return bits[:, : self.n].astype(np.float64)


def _twin_groups(rows: tuple[int, ...]) -> list[list[int]]:
    """The twin classes of ``Graph.twin_classes`` as sorted lists.

    Open twins share a row; closed twins share the closed row
    ``row | 1 << v``, which is formed only for vertices alone in their open
    class. That keeps the cost linear in the row sizes where a large class
    shares one row (an independent part), whose members' closed rows would
    be distinct and up to n bits each.
    """
    by_open: dict[int, list[int]] = {}
    for v, row in enumerate(rows):
        by_open.setdefault(row, []).append(v)
    # by_open runs in order of smallest vertex, and a class is listed when
    # its smallest vertex comes up, so the list needs no sort
    classes: list[list[int]] = []
    by_closed: dict[int, list[int]] = {}
    for row, members in by_open.items():
        if len(members) > 1:
            classes.append(members)
            continue
        v = members[0]
        closed = by_closed.setdefault(row | 1 << v, [])
        if not closed:
            classes.append(closed)
        closed.append(v)
    return classes


def _members(mask: int) -> tuple[int, ...]:
    """The set bits of a mask in increasing order, in time linear in its length.

    Peeling the lowest bit makes a pass over the mask per bit, so only masks
    of a few bits are peeled; the others are unpacked by ``_indices``.
    """
    if mask.bit_count() <= 64:
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return tuple(out)
    return tuple(_indices(mask).tolist())


def _indices(mask: int) -> np.ndarray:
    """The set bits of a mask in increasing order, unpacked in one pass into np.intp."""
    data = np.frombuffer(mask.to_bytes((mask.bit_length() + 7) // 8, "little"), np.uint8)
    return np.unpackbits(data, bitorder="little").nonzero()[0]


def _mask(bits: list[int]) -> int:
    """The mask with the given bits set, the inverse of ``_members``.

    ORing bits in one at a time copies the growing mask once per bit, so
    many bits are written out as binary digits and read in one pass.
    """
    if len(bits) <= 64:
        mask = 0
        for b in bits:
            mask |= 1 << b
        return mask
    top = max(bits)
    digits = bytearray(b"0") * (top + 1)
    for b in bits:
        digits[top - b] = 49  # ord("1")
    return int(digits, 2)


def _image(row: int, img) -> int:
    """The mask of the bits img[u] for the set bits u of row, in linear time."""
    if row.bit_count() > 64:
        return _mask([img[u] for u in _members(row)])
    mask = 0
    while row:
        low = row & -row
        mask |= 1 << img[low.bit_length() - 1]
        row ^= low
    return mask


def _frontiers(g: Graph, start: int) -> Iterator[int]:
    """Breadth-first layers from ``start``, as bitmasks at distance 0, 1, 2, ...

    The layers are disjoint, so their sum is the component of ``start``.
    Each layer expands one vertex per twin class it holds: open twins share
    a row, and a closed twin's row lacks only itself, which the layer holds.
    """
    rows, twins = g.rows, g.twin_masks
    seen = frontier = 1 << start
    while frontier:
        yield frontier
        nxt, rest = 0, frontier
        while rest:
            v = _lowest_bit(rest)
            nxt |= rows[v]
            rest &= ~twins[v]
        frontier = nxt & ~seen
        seen |= nxt


def _lowest_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _pairs(n: int) -> list[tuple[int, int]]:
    """Upper-triangle positions (i, j), i < j, column by column: the graph6 bit order."""
    return [(i, j) for j in range(1, n) for i in range(j)]


def _column(row: int, j: int) -> int:
    """Column j of the triangle: row's bits at 0..j-1, bit 0 most significant."""
    val = 0
    for i in range(j):
        val = val << 1 | (row >> i) & 1
    return val


def _triangle(cols: Iterable[int]) -> int:
    """Columns 0, 1, .. (column j has j bits) packed into one int, column 0 first."""
    acc = 0
    for j, col in enumerate(cols):
        acc = acc << j | col
    return acc


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    if n < 1:
        raise ParameterError(f"vertex count must satisfy 1 <= n, got {n}")
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ParameterError(f"edge ({u}, {v}) out of range for n = {n}")
        if u == v:
            raise ParameterError(f"loop ({u}, {v}) is not allowed")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(tuple(rows))


# ---------------------------------------------------------------------------
# named constructions


def complete_split(n: int, k: int) -> Graph:
    """Join of a k-clique (vertices 0..k-1) with n-k independent vertices."""
    if not 1 <= k < n:
        raise ParameterError(f"complete split graph needs 1 <= k < n, got k={k}, n={n}")
    full = (1 << n) - 1
    rows = [0] * n
    for v in range(k):
        rows[v] = full & ~(1 << v)
    for v in range(k, n):
        rows[v] = (1 << k) - 1
    return Graph(tuple(rows))


def complete_split_plus(n: int, k: int) -> Graph:
    """complete_split(n, k) plus one edge between the first two independent vertices."""
    if not 1 <= k < n:
        raise ParameterError(f"complete split graph needs 1 <= k < n, got k={k}, n={n}")
    if n - k < 2:
        raise ParameterError(f"independent part needs n - k >= 2, got n-k={n - k}")
    return complete_split(n, k).with_edge(k, k + 1)


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b}: part A is vertices 0..a-1, part B is a..a+b-1."""
    if a < 1 or b < 1:
        raise ParameterError(f"complete bipartite parts need a >= 1 and b >= 1, got a={a}, b={b}")
    n = a + b
    amask = (1 << a) - 1
    bmask = ((1 << n) - 1) ^ amask
    rows = [bmask] * a + [amask] * b
    return Graph(tuple(rows))


def bipartite_plus_edge(a: int, b: int) -> Graph:
    """K_{a,b} plus a single edge inside the b-part (vertices a, a+1)."""
    if b < 2:
        raise ParameterError(f"adding an edge in the b-part needs b >= 2, got b={b}")
    return complete_bipartite(a, b).with_edge(a, a + 1)


def bipartite_plus_path(a: int, b: int) -> Graph:
    """K_{a,b} plus a path on 3 vertices inside the b-part (a, a+1, a+2)."""
    if b < 3:
        raise ParameterError(f"adding a 3-vertex path in the b-part needs b >= 3, got b={b}")
    return complete_bipartite(a, b).with_edge(a, a + 1).with_edge(a + 1, a + 2)


def bipartite_plus_matching(a: int, b: int) -> Graph:
    """K_{a,b} plus two disjoint edges inside the b-part."""
    if b < 4:
        raise ParameterError(f"adding a 2-edge matching in the b-part needs b >= 4, got b={b}")
    return complete_bipartite(a, b).with_edge(a, a + 1).with_edge(a + 2, a + 3)


def path_graph(t: int) -> Graph:
    if t < 1:
        raise ParameterError(f"path needs t >= 1, got t={t}")
    return from_edges(t, [(i, i + 1) for i in range(t - 1)])


def clique(t: int) -> Graph:
    if t < 1:
        raise ParameterError(f"clique needs t >= 1, got t={t}")
    full = (1 << t) - 1
    return Graph(tuple(full & ~(1 << v) for v in range(t)))


def cycle(t: int) -> Graph:
    if t < 3:
        raise ParameterError(f"cycle needs t >= 3, got t={t}")
    return from_edges(t, [(i, (i + 1) % t) for i in range(t)])


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus all edges between the two vertex sets."""
    n = g.n + h.n
    gfull = (1 << g.n) - 1
    hfull = ((1 << n) - 1) ^ gfull
    rows = [g.rows[v] | hfull for v in range(g.n)]
    rows += [(h.rows[v] << g.n) | gfull for v in range(h.n)]
    return Graph(tuple(rows))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    rows = list(g.rows) + [h.rows[v] << g.n for v in range(h.n)]
    return Graph(tuple(rows))


# construction families by name: (builder, parameter names in call order)
FAMILIES = {
    "S": (complete_split, ("n", "k")),
    "S_plus": (complete_split_plus, ("n", "k")),
    "K": (complete_bipartite, ("a", "b")),
    "K_plus": (bipartite_plus_edge, ("a", "b")),
    "K_path": (bipartite_plus_path, ("a", "b")),
    "K_matching": (bipartite_plus_matching, ("a", "b")),
    "path": (path_graph, ("t",)),
    "clique": (clique, ("t",)),
    "cycle": (cycle, ("t",)),
}


def family_parameters(family: str) -> tuple[str, ...]:
    """Parameter names a construction family takes."""
    if family not in FAMILIES:
        raise ParameterError(f"unknown construction family {family!r}")
    return FAMILIES[family][1]


def construct(family: str, **params: int) -> Graph:
    """Build a named construction from a descriptor.

    ``family`` is one of S, S_plus, K, K_plus, K_path, K_matching, path,
    clique, cycle; ``params`` supplies exactly the parameters that family
    needs (n/k, a/b, or t).
    """
    wanted = family_parameters(family)
    missing = [p for p in wanted if params.get(p) is None]
    if missing:
        raise ParameterError(f"family {family} needs parameters {', '.join(wanted)}")
    extra = [p for p, v in params.items() if v is not None and p not in wanted]
    if extra:
        raise ParameterError(f"family {family} does not take {', '.join(sorted(extra))}")
    args = [int(params[p]) for p in wanted]
    return FAMILIES[family][0](*args)


# ---------------------------------------------------------------------------
# breadth-first shells


@dataclass(frozen=True)
class ShellDecomposition:
    """BFS layering from ``source``: shells[i] is the set at distance i."""

    source: int
    shells: tuple[tuple[int, ...], ...]
    unreachable: tuple[int, ...]


def shells(g: Graph, u: int) -> ShellDecomposition:
    if not 0 <= u < g.n:
        raise ParameterError(f"source vertex must satisfy 0 <= u < n, got u={u}, n={g.n}")
    layers = tuple(_frontiers(g, u))
    unreachable = ((1 << g.n) - 1) & ~sum(layers)
    return ShellDecomposition(u, tuple(_members(s) for s in layers), _members(unreachable))
