"""Exhaustive free-tree families via canonical level sequences.

Rooted trees on t vertices correspond to canonical level sequences
(root at level 1, children subtrees emitted in non-increasing order), and
the classic successor rule walks all of them in decreasing lexicographic
order starting from the path. A free tree is kept exactly when its sequence
is the canonical rooting at a centroid, i.e. equals the largest canonical
sequence over the centroid set; every isomorphism class survives exactly
once. Families are therefore emitted in decreasing lexicographic order of
their canonical level sequences, path first, star last.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import ParameterError
from .graphs import Graph, from_edges

__all__ = ["Tree", "TreeFamily", "generate_trees", "bipartition", "tree_from_graph"]

MAX_VERTICES = 16


@dataclass(frozen=True)
class Tree:
    """A free tree together with its unique bipartition (|part_a| <= |part_b|)."""

    graph: Graph
    part_a: tuple[int, ...]
    part_b: tuple[int, ...]

    @cached_property
    def bfs_order(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """Vertices in BFS order from the lowest-index centroid, computed once.

        Returns (order, parent position in order, degree), each indexed by
        position in order, with parent position -1 for the root.
        """
        g = self.graph
        adj = [g.neighbors(v) for v in range(g.n)]
        root = min(_centroids(adj))
        order = [root]
        parent_pos = [-1]
        pos_of = {root: 0}
        for v in order:
            for u in adj[v]:
                if u not in pos_of:
                    pos_of[u] = len(order)
                    order.append(u)
                    parent_pos.append(pos_of[v])
        return tuple(order), tuple(parent_pos), tuple(len(adj[v]) for v in order)


@dataclass(frozen=True)
class TreeFamily:
    """All pairwise non-isomorphic trees on t vertices, in a fixed order."""

    t: int
    trees: tuple[Tree, ...]

    def __len__(self) -> int:
        return len(self.trees)

    def __iter__(self):
        return iter(self.trees)


def _successor(seq: list[int]) -> list[int] | None:
    """Next canonical rooted level sequence in decreasing lex order."""
    p = max((i for i, lvl in enumerate(seq) if lvl > 2), default=None)
    if p is None:
        return None
    q = max(i for i in range(p) if seq[i] == seq[p] - 1)
    block = seq[q:p]
    out = seq[:p]
    while len(out) < len(seq):
        out.extend(block[: len(seq) - len(out)])
    return out


def _rooted_sequences(t: int):
    seq = list(range(1, t + 1))
    while seq is not None:
        yield seq
        seq = _successor(seq)


def _edges_from_sequence(seq: list[int]) -> list[tuple[int, int]]:
    last_at_level = {seq[0]: 0}
    edges = []
    for v in range(1, len(seq)):
        lvl = seq[v]
        edges.append((last_at_level[lvl - 1], v))
        last_at_level[lvl] = v
    return edges


def _adjacency(t: int, edges: list[tuple[int, int]]) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(t)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _centroids(adj: list[list[int]]) -> list[int]:
    t = len(adj)
    if t == 1:
        return [0]
    order = [0]
    parent = [-1] * t
    for v in order:
        for u in adj[v]:
            if u != parent[v]:
                parent[u] = v
                order.append(u)
    size = [1] * t
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    best: list[int] = []
    for v in range(t):
        heaviest = t - size[v]
        for u in adj[v]:
            if u != parent[v]:
                heaviest = max(heaviest, size[u])
        if heaviest <= t // 2:
            best.append(v)
    return best


def _canonical_rooted(adj: list[list[int]], root: int) -> tuple[int, ...]:
    def sub(v: int, parent: int, depth: int) -> tuple[int, ...]:
        branches = sorted(
            (sub(u, v, depth + 1) for u in adj[v] if u != parent), reverse=True
        )
        out = (depth,)
        for b in branches:
            out += b
        return out

    return sub(root, -1, 1)


def _bipartition_parts(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    color = [-1] * g.n
    color[0] = 0
    queue = [0]
    for v in queue:
        for u in g.neighbors(v):
            if color[u] < 0:
                color[u] = color[v] ^ 1
                queue.append(u)
    even = tuple(v for v in range(g.n) if color[v] == 0)
    odd = tuple(v for v in range(g.n) if color[v] == 1)
    return (even, odd) if len(even) <= len(odd) else (odd, even)


def _make_tree(t: int, edges: list[tuple[int, int]]) -> Tree:
    g = from_edges(t, edges) if t > 1 else from_edges(1, [])
    part_a, part_b = _bipartition_parts(g)
    return Tree(g, part_a, part_b)


@lru_cache(maxsize=None)
def generate_trees(t: int) -> TreeFamily:
    """All non-isomorphic free trees on t vertices, 1 <= t <= 16."""
    if not 1 <= t <= MAX_VERTICES:
        raise ParameterError(f"tree order must satisfy 1 <= t <= {MAX_VERTICES}, got t={t}")
    trees = []
    for seq in _rooted_sequences(t):
        edges = _edges_from_sequence(seq)
        adj = _adjacency(t, edges)
        cents = _centroids(adj)
        best = max(_canonical_rooted(adj, c) for c in cents)
        if tuple(seq) == best:
            trees.append(_make_tree(t, edges))
    return TreeFamily(t, tuple(trees))


def bipartition(tree: Tree) -> tuple[int, int]:
    """Sizes of the two color classes, smaller first."""
    return (len(tree.part_a), len(tree.part_b))


def tree_from_graph(g: Graph) -> Tree:
    """Wrap a graph as a Tree, checking it is connected and acyclic."""
    if g.edge_count != g.n - 1 or not g.is_connected():
        raise ParameterError(
            f"not a tree: n={g.n}, edges={g.edge_count}, connected={g.is_connected()}"
        )
    part_a, part_b = _bipartition_parts(g)
    return Tree(g, part_a, part_b)
