"""Canonical labelling via lexicographically maximal adjacency strings.

The canonical representative of an isomorphism class is the labelling whose
upper-triangle adjacency bits, read column by column (the graph6 bit order),
form the lexicographically largest string. Two graphs are isomorphic exactly
when their canonical strings agree.

One branch-and-bound engine over bitmasks assigns labels 0, 1, ... in turn;
vertex v at label d fixes column d, v's adjacency bits against the placed
labels (label 0 most significant). d bitwise ANDs over the placed rows give
the largest column a free vertex can take and its tie set. A column below the
best cuts the node; otherwise the engine branches on the tie set from the
lowest vertex, skipping twins of an explored sibling (the swap is an
automorphism; classes from ``Graph.twin_masks``) and vertices in its orbit
under the recorded automorphisms fixing the prefix (complete labellings that
tie the best).

The engine is one loop with an explicit stack, so the label count is not
bound by the recursion limit. It visits nodes depth first, candidates in
increasing vertex order. Only a branch node, with two or more candidates,
gets a stack frame: a forced step, with a single candidate, is taken in
place, and a child whose column falls below the best is cut before it is
entered. A frame keeps the automorphisms that fix its prefix, filtered once
and again only after new ones are recorded.

The (column, tie set) chain is carried down the search. When the tie set
T has at least two vertices and v in T takes label d, the rest of T still
attains the same column over the free vertices left, so the child's pair
follows from one AND: ((T - v) & rows[v], 2 val + 1) when that is non-empty,
else (T - v, 2 val). Only a forced step redoes the d ANDs.

Both modes start from best columns of -1, below every column. A column above
the best at label d replaces it and resets the deeper ones to -1, so the
loop's own next path, lowest candidate first and never cut, completes the new
best and installs its labelling at the leaf. The accept test of ``search``,
``is_canonically_labeled``, only adds a stopping rule: after the first path a
column above the best rejects, and on it one above the identity's own column
(``graphs._column``). That first path is the identity's: with labels 0..d-1
on vertices 0..d-1, vertex d is the lowest free vertex and has the identity's
column, so the largest column either beats it (reject) or ties it with vertex
d the lowest candidate. Accepted, the test can hand back the automorphisms it
recorded, which with the twin swaps generate a subgroup of Aut(g) that the
walker prunes children with. ``graphs._triangle`` packs a column string.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import graph6
from .graphs import Graph, _column, _triangle

__all__ = [
    "CanonicalForm",
    "canonical_form",
    "canonical_graph",
    "canonical_g6",
    "is_canonically_labeled",
]


@dataclass(frozen=True)
class CanonicalForm:
    """Canonical byte string plus one labelling that attains it.

    ``data`` encodes (n, canonical triangle bits); ``relabeling[v]`` is the
    canonical label of input vertex v, so relabelling the input graph with it
    yields the canonical representative.
    """

    data: bytes
    relabeling: tuple[int, ...]


def _top(rows: Sequence[int], assigned: Sequence[int], d: int, free: int) -> tuple[int, int]:
    """Largest column value at label d over the free vertices, and its tie set."""
    val = 0
    ties = free
    for i in range(d):
        hit = ties & rows[assigned[i]]
        val <<= 1
        if hit:
            ties = hit
            val |= 1
    return val, ties


def _search(g: Graph, test: bool) -> tuple[list[int], tuple[int, ...], dict] | None:
    """Branch-and-bound over labellings for the maximal column string.

    Returns the best columns, one labelling attaining them (the vertex at each
    label) and the recorded automorphisms, each mapped to its fixed-point
    mask; None once test mode sees the identity beaten.
    """
    rows, n, twins = g.rows, g.n, g.twin_masks
    full = (1 << n) - 1
    assigned = [0] * n
    best_cols = [-1] * n  # below every column, so the first path sets the best
    best_assigned = None  # None while the path being walked sets a new best
    gens: dict[tuple[int, ...], int] = {}  # automorphism -> fixed-point mask
    # one frame per open branch node:
    # [d, free, val, ties, todo, explored, stabiliser gens, len(gens) when filtered]
    stack: list[list] = []
    d, free, val, ties = 0, full, 0, full
    while True:
        # enter the node at label d; forced steps (one candidate) run inline
        while True:
            if d == n:
                if best_assigned is None:  # the path that set the new best
                    best_assigned = tuple(assigned)
                else:  # a labelling tying the best differs from it by an automorphism
                    phi = [0] * n
                    for lbl, v in enumerate(best_assigned):
                        phi[v] = assigned[lbl]
                    perm = tuple(phi)
                    fixed = sum(1 << x for x in range(n) if perm[x] == x)
                    if fixed != full:
                        gens[perm] = fixed
                break
            target = best_cols[d]
            if val < target:
                break
            if val > target:
                # the test's first path is the identity's (module docstring)
                if test and (best_assigned is not None or val > _column(rows[d], d)):
                    return None
                # a new best from label d on; no deeper target cuts its completion
                best_cols[d] = val
                best_cols[d + 1 :] = [-1] * (n - d - 1)
                best_assigned = None
            if ties & (ties - 1):
                stack.append([d, free, val, ties, ties, 0, (), -1])
                break
            # one candidate: the chain restarts from the placed rows
            assigned[d] = ties.bit_length() - 1
            free ^= ties
            d += 1
            if free:
                val, ties = _top(rows, assigned, d, free)
        # resume the innermost branch node that has a candidate left
        while stack:
            frame = stack[-1]
            d, free, val, ties, todo, explored, stab, seen = frame
            while todo:
                low = todo & -todo
                v = low.bit_length() - 1
                if explored:
                    if seen != len(gens):  # new automorphisms: filter the stabiliser again
                        prefix = full ^ free
                        stab = [p for p, fixed in gens.items() if prefix & fixed == prefix]
                        seen = len(gens)
                    if stab and _orbit_hit(stab, v, explored):
                        todo ^= low
                        continue
                explored |= low
                todo &= ~twins[v]  # twins of an explored sibling are skipped
                assigned[d] = v
                # the other ties still attain val, so one AND extends the chain
                rest = ties ^ low
                hit = rest & rows[v]
                cval, cties = (val << 1 | 1, hit) if hit else (val << 1, rest)
                if cval >= best_cols[d + 1]:  # else the child is cut on entry
                    break
            else:
                stack.pop()
                continue
            frame[4:] = todo, explored, stab, seen
            d, free, val, ties = d + 1, free ^ low, cval, cties
            break
        else:
            return best_cols, best_assigned, gens


def _orbit_hit(gens: list[tuple[int, ...]], v: int, explored: int) -> bool:
    """Do the automorphisms ``gens`` map v onto an explored sibling?"""
    orbit = 1 << v
    stack = [v]
    while stack:
        x = stack.pop()
        for g in gens:
            y = g[x]
            if not (orbit >> y) & 1:
                if (explored >> y) & 1:
                    return True
                orbit |= 1 << y
                stack.append(y)
    return False


def is_canonically_labeled(g: Graph, automorphisms: list | None = None) -> bool:
    """True iff the labelled graph equals its own canonical representative.

    When the test accepts and ``automorphisms`` is a list, the automorphisms
    the search recorded are appended to it, each as a tuple mapping vertex x
    to ``perm[x]``. They generate a subgroup of Aut(g); together with the
    twin swaps they are what the orderly walker prunes children with.
    """
    found = _search(g, test=True)
    if found is None:
        return False
    if automorphisms is not None:
        automorphisms.extend(found[2])
    return True


def _pack(n: int, cols: list[int]) -> bytes:
    nbits = n * (n - 1) // 2
    return n.to_bytes(2, "big") + _triangle(cols).to_bytes((nbits + 7) // 8 or 1, "big")


def canonical_form(g: Graph) -> CanonicalForm:
    cols, best, _ = _search(g, test=False)
    relab = [0] * g.n
    for label, v in enumerate(best):
        relab[v] = label
    return CanonicalForm(_pack(g.n, cols), tuple(relab))


def canonical_graph(g: Graph) -> Graph:
    """The canonical representative of g's isomorphism class."""
    return g.relabel(canonical_form(g).relabeling)


def canonical_g6(g: Graph) -> str:
    """graph6 text of the canonical representative (n <= 62)."""
    return graph6.encode(canonical_graph(g))
