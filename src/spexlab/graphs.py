"""Bit-packed simple graphs and the named constructions.

Adjacency is stored as one Python integer bitmask per vertex, so neighborhood
intersection, union and popcount are word-parallel; that is what the
containment search and the exhaustive enumeration spend their time on.
Graphs are immutable and safe to share between tasks.

Vertex labelling of the constructions is fixed: join/clique vertices come
first, then the independent or augmented part, so tests can rely on exact
labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

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
    """Undirected simple graph on vertices 0..n-1.

    ``rows[v]`` is the neighbor bitmask of ``v``; the relation is symmetric
    and loop-free, and ``edge_count`` caches half the number of set bits.
    """

    n: int
    rows: tuple[int, ...]
    edge_count: int

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(r.bit_count() for r in self.rows)

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(_bits(self.rows[v]))

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            higher = self.rows[u] >> (u + 1)
            for off in _bits(higher):
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
        return Graph(self.n, tuple(rows), self.edge_count + 1)

    def relabel(self, perm: tuple[int, ...]) -> "Graph":
        """Image under ``perm``: old vertex v becomes perm[v]."""
        rows = [0] * self.n
        for v in range(self.n):
            mask = 0
            for u in _bits(self.rows[v]):
                mask |= 1 << perm[u]
            rows[perm[v]] = mask
        return Graph(self.n, tuple(rows), self.edge_count)

    def subgraph(self, vertices: Iterable[int]) -> "Graph":
        """Induced subgraph; vertex i of the result is sorted(vertices)[i]."""
        verts = sorted(set(vertices))
        index = {v: i for i, v in enumerate(verts)}
        rows = [0] * len(verts)
        for v in verts:
            for u in _bits(self.rows[v]):
                if u in index:
                    rows[index[v]] |= 1 << index[u]
        return _from_rows(len(verts), rows)

    def components(self) -> list[tuple[int, ...]]:
        """Connected components as sorted vertex tuples, by smallest vertex."""
        seen = 0
        out = []
        full = (1 << self.n) - 1
        while seen != full:
            start = _lowest_bit(full & ~seen)
            comp = 1 << start
            frontier = comp
            while frontier:
                nxt = 0
                for v in _bits(frontier):
                    nxt |= self.rows[v]
                frontier = nxt & ~comp
                comp |= nxt
            out.append(tuple(_bits(comp)))
            seen |= comp
        return out

    def is_connected(self) -> bool:
        return len(self.components()) == 1

    @cached_property
    def twin_masks(self) -> tuple[int, ...]:
        """Bitmask of each vertex's twin class (see ``twin_classes``)."""
        return _twin_masks(self.rows)

    def twin_classes(self) -> tuple[tuple[int, ...], ...]:
        """Classes of vertices with equal open or equal closed neighborhoods.

        Open twins are pairwise non-adjacent and closed twins pairwise
        adjacent, so no vertex has twins of both kinds and the classes
        partition the vertex set. The partition is equitable: all vertices
        of a class have the same number of neighbors in each class. Classes
        are sorted tuples, ordered by smallest vertex.
        """
        return tuple(tuple(_bits(mask)) for mask in dict.fromkeys(self.twin_masks))

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


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _twin_masks(rows: Sequence[int]) -> tuple[int, ...]:
    """Bitmask of each vertex's twin class, for the graph with these rows.

    Open twins share a row; closed twins share the closed row ``row | 1 << v``.
    No vertex has twins of both kinds, so closed rows are formed only for
    vertices alone in their open class. That keeps the cost linear in the
    row sizes where a large class shares one row (an independent part), whose
    members' closed rows would be distinct and up to n bits each.
    """
    by_open: dict[int, list[int]] = {}
    for v, row in enumerate(rows):
        by_open.setdefault(row, []).append(v)
    classes = [members for members in by_open.values() if len(members) > 1]
    by_closed: dict[int, list[int]] = {}
    for row, members in by_open.items():
        if len(members) == 1:
            v = members[0]
            by_closed.setdefault(row | 1 << v, []).append(v)
    classes += by_closed.values()
    masks = [0] * len(rows)
    for members in classes:
        mask = 0
        for v in members:
            mask |= 1 << v
        for v in members:
            masks[v] = mask
    return tuple(masks)


def _lowest_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _from_rows(n: int, rows: list[int]) -> Graph:
    """Internal fast constructor; callers guarantee symmetry and no loops."""
    edge_count = sum(r.bit_count() for r in rows) // 2
    return Graph(n, tuple(rows), edge_count)


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
    return _from_rows(n, rows)


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
    return _from_rows(n, rows)


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
    return _from_rows(n, rows)


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
    return _from_rows(t, [full & ~(1 << v) for v in range(t)])


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
    return _from_rows(n, rows)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    rows = list(g.rows) + [h.rows[v] << g.n for v in range(h.n)]
    return _from_rows(g.n + h.n, rows)


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
    layers = []
    seen = 1 << u
    frontier = seen
    while frontier:
        layers.append(tuple(_bits(frontier)))
        nxt = 0
        for v in _bits(frontier):
            nxt |= g.rows[v]
        frontier = nxt & ~seen
        seen |= nxt
    full = (1 << g.n) - 1
    return ShellDecomposition(u, tuple(layers), tuple(_bits(full & ~seen)))
