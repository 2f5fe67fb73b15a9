"""Exhaustive free-tree families via canonical level sequences.

Rooted trees on t vertices correspond to canonical level sequences
(root at level 1, children subtrees emitted in non-increasing order), and
the classic successor rule walks all of them in decreasing lexicographic
order starting from the path. A free tree is kept exactly when its sequence
is the largest canonical rooting over its centroids, so every isomorphism
class survives exactly once. The test reads the sizes of the root's
branches off the sequence in O(t). If a branch has more than t/2
vertices, the root is no centroid and the sequence is dropped; if every
branch has fewer, the root is the unique centroid, where the sequence is
already canonical, and it is kept. Only a bicentroidal tree, with a branch
of exactly t/2 vertices, is re-rooted at the head of that branch and
compared. Families are therefore emitted in decreasing lexicographic order
of their canonical level sequences, path first, star last; a kept tree's
bipartition is read off its level parities.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import ParameterError
from .graphs import Graph, from_edges

__all__ = ["Tree", "TreeFamily", "check_order", "generate_trees", "bipartition", "tree_from_graph"]

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
        order, parent = _bfs(adj, min(_centroids(adj)))
        pos_of = {v: i for i, v in enumerate(order)}
        parent_pos = tuple(pos_of.get(parent[v], -1) for v in order)
        return tuple(order), parent_pos, tuple(len(adj[v]) for v in order)


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
    p = len(seq) - 1
    while p >= 0 and seq[p] <= 2:
        p -= 1
    if p < 0:
        return None
    q = p - 1
    while seq[q] != seq[p] - 1:
        q -= 1
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


def _largest_branch(seq: list[int]) -> tuple[int, int]:
    """(size, start) of the root's largest branch, seq[start:start + size].

    A branch of the root is a run that starts at an entry equal to 2. A
    single vertex has no branch and reads (0, 1).
    """
    size, start, end = 0, 1, len(seq)
    for i in range(end - 1, 0, -1):
        if seq[i] == 2:
            if end - i >= size:
                size, start = end - i, i
            end = i
    return size, start


def _rooted_at_head(seq: list[int], start: int, end: int) -> list[int]:
    """Canonical level sequence of the same tree rooted at vertex start.

    That vertex heads the root branch seq[start:end]. Its own branches move
    one level up; the old root, with its other branches one level down,
    becomes one more branch; the branches are then sorted again.
    """
    branches = [[2] + [lvl + 1 for lvl in seq[1:start] + seq[end:]]]
    heads = [i for i in range(start + 1, end) if seq[i] == 3] + [end]
    for lo, hi in zip(heads, heads[1:]):
        branches.append([lvl - 1 for lvl in seq[lo:hi]])
    branches.sort(reverse=True)
    out = [1]
    for b in branches:
        out += b
    return out


def _edges_from_sequence(seq: list[int]) -> list[tuple[int, int]]:
    last_at_level = {seq[0]: 0}
    edges = []
    for v in range(1, len(seq)):
        lvl = seq[v]
        edges.append((last_at_level[lvl - 1], v))
        last_at_level[lvl] = v
    return edges


def _bfs(adj, root: int) -> tuple[list[int], list[int]]:
    """BFS of a tree from root: (vertices in visit order, parent of each vertex).

    Neighbours are visited in adjacency order; the root's parent is -1.
    """
    order = [root]
    parent = [None] * len(adj)
    parent[root] = -1
    for v in order:
        for u in adj[v]:
            if parent[u] is None:
                parent[u] = v
                order.append(u)
    return order, parent


def _centroids(adj: list[list[int]]) -> list[int]:
    t = len(adj)
    order, parent = _bfs(adj, 0)
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


def _sides(color: list[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    even = tuple(v for v, c in enumerate(color) if c == 0)
    odd = tuple(v for v, c in enumerate(color) if c == 1)
    return (even, odd) if len(even) <= len(odd) else (odd, even)


def _bipartition_parts(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    order, parent = _bfs([g.neighbors(v) for v in range(g.n)], 0)
    color = [0] * g.n
    for v in order[1:]:
        color[v] = color[parent[v]] ^ 1
    return _sides(color)


def _tree_from_sequence(seq: list[int]) -> Tree:
    # BFS from the root colours each vertex by the parity of its level
    part_a, part_b = _sides([(lvl - 1) & 1 for lvl in seq])
    return Tree(from_edges(len(seq), _edges_from_sequence(seq)), part_a, part_b)


def check_order(t: int) -> None:
    """Refuse a tree order outside 1 <= t <= MAX_VERTICES with ParameterError."""
    if not 1 <= t <= MAX_VERTICES:
        raise ParameterError(f"tree order must satisfy 1 <= t <= {MAX_VERTICES}, got t={t}")


@lru_cache(maxsize=None)
def generate_trees(t: int) -> TreeFamily:
    """All non-isomorphic free trees on t vertices, 1 <= t <= 16."""
    check_order(t)
    trees = []
    for seq in _rooted_sequences(t):
        size, start = _largest_branch(seq)
        if 2 * size > t:
            continue  # the root is not a centroid
        if 2 * size == t and seq < _rooted_at_head(seq, start, start + size):
            continue  # the other centroid roots a larger canonical sequence
        trees.append(_tree_from_sequence(seq))
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
