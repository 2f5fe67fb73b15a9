"""Independent brute-force oracles used to derive and check expected values.

Everything here deliberately avoids the code paths it is used to check:
trees come from Prüfer sequences, isomorphism classes from labeled
enumeration plus canonical dedup, containment from raw injective map
search, and eigenvalues from a dense symmetric solver.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

from spexlab.graphs import Graph, from_edges


def prufer_tree(t: int, seq: tuple[int, ...]) -> Graph:
    """Decode a Prüfer sequence over 0..t-1 into a labeled tree."""
    degree = [1] * t
    for s in seq:
        degree[s] += 1
    edges = []
    leaves = [v for v in range(t) if degree[v] == 1]
    heapq.heapify(leaves)
    for s in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, s))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return from_edges(t, edges)


def all_prufer_trees(t: int):
    if t == 1:
        yield from_edges(1, [])
        return
    if t == 2:
        yield from_edges(2, [(0, 1)])
        return
    for seq in itertools.product(range(t), repeat=t - 2):
        yield prufer_tree(t, seq)


def prufer_certificate(t: int, seq: tuple[int, ...]) -> str:
    """``ahu_certificate`` of the tree with Prüfer sequence seq, without a Graph.

    Leaves are removed smallest first (a forward pointer finds the next one),
    so a vertex is removed only after its whole subtree: its AHU code is
    formed on the spot from its children's codes, which gives the tree
    rooted at t - 1, the one vertex never removed. Walking from t - 1 down
    heavy children reaches a centroid; re-rooting there rewrites only the
    codes on that walk. A second centroid is the heavy child holding exactly
    half the vertices.
    """
    if t <= 2:
        return "()" if t == 1 else "(())"
    degree = [1] * t + [1]  # a sentinel for the pointer after the last edge
    for s in seq:
        degree[s] += 1
    kids = [[] for _ in range(t)]
    code = [""] * t
    size = [1] * t
    heavy = [0] * t
    ptr = leaf = degree.index(1)
    for s in seq + (t - 1,):
        code[leaf] = _wrap(kids[leaf])
        kids[s].append(code[leaf])
        size[s] += size[leaf]
        if len(kids[s]) == 1 or size[leaf] > size[heavy[s]]:
            heavy[s] = leaf
        degree[s] -= 1
        if s < ptr and degree[s] == 1:
            leaf = s
        else:
            ptr = leaf = degree.index(1, ptr + 1)
    path = [t - 1]
    while 2 * size[heavy[path[-1]]] > t:
        path.append(heavy[path[-1]])
    up = []  # code of the part above the current vertex of the walk
    for v, below in zip(path, path[1:]):
        rest = kids[v] + up
        rest.remove(code[below])
        up = [_wrap(rest)]
    c = path[-1]
    best = _wrap(kids[c] + up)
    if 2 * size[heavy[c]] == t:
        rest = kids[c] + up
        rest.remove(code[heavy[c]])
        best = max(best, _wrap(kids[heavy[c]] + [_wrap(rest)]))
    return best


def _wrap(codes: list[str]) -> str:
    return "(" + "".join(sorted(codes)) + ")"


def all_prufer_certificates(t: int):
    """``prufer_certificate`` of every Prüfer sequence over 0..t-1."""
    for seq in itertools.product(range(t), repeat=max(t - 2, 0)):
        yield prufer_certificate(t, seq)


def all_labeled_graphs(n: int):
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    for bits in range(1 << len(pairs)):
        rows = [0] * n
        for p, (i, j) in enumerate(pairs):
            if (bits >> p) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        yield Graph(tuple(rows))


def naive_contains(host: Graph, pattern: Graph) -> bool:
    """Search all injective vertex maps, pruning only on already-placed edges."""
    t = pattern.n
    if t > host.n:
        return False
    padj = [pattern.neighbors(v) for v in range(t)]

    def extend(mapping: list[int], used: set[int]) -> bool:
        v = len(mapping)
        if v == t:
            return True
        for hv in range(host.n):
            if hv in used:
                continue
            if all(u >= v or host.has_edge(mapping[u], hv) for u in padj[v]):
                mapping.append(hv)
                used.add(hv)
                if extend(mapping, used):
                    return True
                mapping.pop()
                used.remove(hv)
        return False

    return extend([], set())


def eig_radius(g: Graph) -> float:
    """Spectral radius via the dense symmetric eigensolver."""
    if g.edge_count == 0:
        return 0.0
    return float(np.linalg.eigvalsh(g.np_adjacency())[-1])


def ahu_certificate(g: Graph) -> str:
    """Canonical string of a free tree: AHU encoding rooted at the centroid."""
    adj = [g.neighbors(v) for v in range(g.n)]
    order = [0]
    parent = [-1] * g.n
    for v in order:
        for u in adj[v]:
            if u != parent[v]:
                parent[u] = v
                order.append(u)
    size = [1] * g.n
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    cents = []
    for v in range(g.n):
        heavy = g.n - size[v]
        for u in adj[v]:
            if u != parent[v]:
                heavy = max(heavy, size[u])
        if heavy <= g.n // 2:
            cents.append(v)

    def enc(v, par):
        return "(" + "".join(sorted(enc(u, v) for u in adj[v] if u != par)) + ")"

    return max(enc(c, -1) for c in cents)
