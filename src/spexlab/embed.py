"""Tree containment and the constructive bipartite-host embeddings.

``contains_tree`` is exhaustive backtracking over bitmasks: pattern vertices
are taken in BFS order from a tree centroid, so every vertex after the first
has exactly one placed neighbor. Each level forms one candidate mask, the
host row of that neighbor's image less the used vertices (every vertex at
the root), and peels its lowest bit per try; a candidate of too low degree
is dropped, and a failed one drops its whole host twin class with one
AND-NOT. ``embed_constructive`` instead places trees into complete bipartite
hosts (possibly with an edge, path or matching added to the large side) by
explicit case analysis on the bipartition, and validates its output against
the host before returning; a dead end there is a bug, not an answer. Every
case is one slot layout, ``_layout``; the cases differ only in which side
comes first and which anchor vertices take the slots from a on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import EmbeddingCaseError, ParameterError
from .graphs import FAMILIES, Graph
from .trees import MAX_VERTICES, Tree, TreeFamily

__all__ = [
    "Embedding",
    "FamilyMembership",
    "verify_embedding",
    "contains_tree",
    "family_membership",
    "embed_constructive",
]


@dataclass(frozen=True)
class Embedding:
    """Injective map pattern vertex -> host vertex covering all pattern edges."""

    mapping: tuple[int, ...]


@dataclass(frozen=True)
class FamilyMembership:
    """Whether a host misses at least one tree of a family.

    ``witness`` is the first missing tree in family order (with its index)
    when ``in_family`` holds.
    """

    in_family: bool
    witness_index: int | None
    witness: Tree | None


def verify_embedding(host: Graph, pattern: Graph, emb: Embedding) -> bool:
    """Is the mapping injective, in range, and every pattern edge a host edge?

    Each pattern row's bits are looked up in the row of its image.
    """
    m = emb.mapping
    if len(m) != pattern.n or len(set(m)) != pattern.n:
        return False
    if any(not 0 <= v < host.n for v in m):
        return False
    hrows = host.rows
    for u, row in enumerate(pattern.rows):
        image = hrows[m[u]]
        while row:
            low = row & -row
            if not image >> m[low.bit_length() - 1] & 1:
                return False
            row ^= low
    return True


def contains_tree(host: Graph, tree: Tree) -> Embedding | None:
    """An embedding of the tree into the host, or None if there is none.

    Pattern vertex i (BFS order) takes the lowest host vertex of its
    candidate mask, the row of its parent's image less ``used``, whose degree
    is at least its own. When that subtree fails, the candidate's whole host
    twin class (``Graph.twin_masks``) leaves the mask in one AND-NOT:
    swapping twins is a host automorphism fixing the partial assignment, so
    a retry on a twin cannot succeed. This keeps misses polynomial on hosts
    with large interchangeable classes (independent parts, bipartite sides).
    The search is depth-first over ascending candidates, so the embedding
    returned is the first one in that order. It is one loop over the levels
    with each level's remaining candidates kept in ``cands``, so its depth
    is not bounded by the interpreter's recursion limit.
    """
    t = tree.graph.n
    if t > host.n:
        return None
    order, parent_pos, pdeg = tree.bfs_order
    hdeg = host.degrees()
    hrows = host.rows
    twins = host.twin_masks
    assign = [0] * t
    cands = [0] * t
    cands[0] = (1 << host.n) - 1
    i = used = 0
    while i < t:
        need = pdeg[i]
        cand = cands[i]
        while cand:
            low = cand & -cand
            hv = low.bit_length() - 1
            if hdeg[hv] >= need:
                break
            cand ^= low
        else:
            # level i is exhausted: undo level i - 1 and drop its twin class
            if not i:
                return None
            i -= 1
            hv = assign[i]
            used ^= 1 << hv
            cands[i] &= ~twins[hv]
            continue
        cands[i] = cand
        assign[i] = hv
        used |= low
        i += 1
        if i < t:
            cands[i] = hrows[assign[parent_pos[i]]] & ~used
    mapping = [0] * t
    for i, v in enumerate(order):
        mapping[v] = assign[i]
    return Embedding(tuple(mapping))


def family_membership(host: Graph, family: TreeFamily) -> FamilyMembership:
    """First tree of the family missing from the host, if any."""
    if not family.trees:
        raise ParameterError("family must be non-empty")
    for i, tree in enumerate(family.trees):
        if contains_tree(host, tree) is None:
            return FamilyMembership(True, i, tree)
    return FamilyMembership(False, None, None)


# ---------------------------------------------------------------------------
# constructive embeddings


_TARGETS = ("K", "K_plus", "K_path", "K_matching")


def embed_constructive(tree: Tree, target: str, a: int, b: int) -> Embedding:
    """Embed a tree into its bipartite host by case analysis, not search.

    Supported targets: K(floor(t/2), t-1) for any tree on t vertices;
    K_plus(a, 2a+1) for trees on 2a+2 vertices; K_path(a, 2a+2) and
    K_matching(a, 2a+2) for trees on 2a+3 vertices; always a >= 1.
    """
    emb, _ = constructive_with_case(tree, target, a, b)
    return emb


def constructive_with_case(tree: Tree, target: str, a: int, b: int) -> tuple[Embedding, str]:
    if target not in _TARGETS:
        raise ParameterError(f"unknown target {target!r}; expected one of {sorted(_TARGETS)}")
    t = tree.graph.n
    if t < 2:
        raise ParameterError(f"constructive embeddings need a tree on at least 2 vertices, got {t}")
    if a < 1:
        raise ParameterError(f"constructive embeddings need a >= 1, got a={a}")
    if target == "K":
        if (a, b) != (t // 2, t - 1):
            raise ParameterError(
                f"bipartite target for a tree on {t} vertices must be K({t // 2}, {t - 1})"
            )
    elif target == "K_plus":
        if b != 2 * a + 1 or t != 2 * a + 2:
            raise ParameterError(
                f"K_plus target needs b = 2a+1 and |T| = 2a+2, got a={a}, b={b}, |T|={t}"
            )
    else:
        if b != 2 * a + 2 or t != 2 * a + 3:
            raise ParameterError(
                f"{target} target needs b = 2a+2 and |T| = 2a+3, got a={a}, b={b}, |T|={t}"
            )
    emb, case = _place(tree, target, a, b)
    if not verify_embedding(_host(target, a, b), tree.graph, emb):
        raise EmbeddingCaseError(
            f"constructive case {case!r} produced an invalid embedding; this falsifies the case analysis"
        )
    return emb, case


@lru_cache(maxsize=3 * MAX_VERTICES)
def _host(target: str, a: int, b: int) -> Graph:
    """The host graph of a target shape, built once per shape.

    A tree order t admits at most three valid (target, a, b), so the cache
    holds the hosts of every family with t <= MAX_VERTICES at once.
    """
    return FAMILIES[target][0](a, b)


def _layout(tree: Tree, first, second, anchors, a: int) -> Embedding:
    """The one slot layout every constructive case uses.

    ``first`` less the anchors takes slots 0, 1, ...; the anchors take slots
    a, a+1, ... in order; ``second`` less the anchors follows them. Both
    sides must be increasing, as ``Tree.part_a`` and ``part_b`` are, so the
    slots follow label order.
    """
    mapping = [0] * tree.graph.n
    for slot, v in enumerate(v for v in first if v not in anchors):
        mapping[v] = slot
    for slot, v in enumerate((*anchors, *(v for v in second if v not in anchors)), start=a):
        mapping[v] = slot
    return Embedding(tuple(mapping))


def _leaves(tree: Tree, within) -> list[int]:
    return [v for v in within if tree.graph.degree(v) == 1]


def _place(tree: Tree, target: str, a: int, b: int) -> tuple[Embedding, str]:
    pa, pb = tree.part_a, tree.part_b
    t = tree.graph.n

    if target == "K" or len(pa) <= a:
        # the small part always fits beside the a-side
        return _layout(tree, pa, pb, (), a), "direct"

    if target == "K_plus":
        # both parts have a+1 vertices: drop the lowest leaf, embed the rest
        # into K(a, a+1), and reattach the leaf along the added edge
        leaf = _leaves(tree, range(t))[0]
    else:
        # K_path or K_matching with parts (a+1, a+2): the same surgery on the
        # lowest small-part leaf, if any; both hosts contain the edge (a, a+1)
        leaf = next(iter(_leaves(tree, pa)), None)
    if leaf is not None:
        (anchor,) = tree.graph.neighbors(leaf)
        leaf_side, other_side = (pa, pb) if leaf in pa else (pb, pa)
        return _layout(tree, leaf_side, other_side, (anchor, leaf), a), "leaf"

    if target == "K_path":
        # no leaf in the small part forces every small-part degree to be 2;
        # remove one such vertex and bridge its two neighbors with the path
        v0 = pa[0]
        if tree.graph.degree(v0) != 2:
            raise EmbeddingCaseError(
                "small part without leaves must be all degree 2; found degree "
                f"{tree.graph.degree(v0)} at vertex {v0}"
            )
        w1, w2 = tree.graph.neighbors(v0)
        return _layout(tree, pa, pb, (w1, v0, w2), a), "degree-two"

    # K_matching residual case: two large-part leaves with distinct anchors
    # land on the matching edges (a, a+1) and (a+2, a+3)
    big_leaves = _leaves(tree, pb)
    if len(big_leaves) < 2:
        raise EmbeddingCaseError(
            "residual matching case needs two leaves in the large part, found "
            f"{len(big_leaves)}"
        )
    l1 = big_leaves[0]
    (u1,) = tree.graph.neighbors(l1)
    l2 = next((l for l in big_leaves[1:] if tree.graph.neighbors(l) != (u1,)), None)
    if l2 is None:
        raise EmbeddingCaseError(
            "all large-part leaves share one anchor, which the case analysis excludes"
        )
    (u2,) = tree.graph.neighbors(l2)
    return _layout(tree, pb, pa, (u1, l1, u2, l2), a), "two-leaves"
