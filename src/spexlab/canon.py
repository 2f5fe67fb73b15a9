"""Canonical labelling via lexicographically maximal adjacency strings.

The canonical representative of an isomorphism class is the labelling whose
upper-triangle adjacency bits, read column by column (the graph6 bit order),
form the lexicographically largest string. Two graphs are isomorphic exactly
when their canonical strings agree.

One branch-and-bound engine over bitmasks assigns labels 0, 1, ... in turn;
vertex v at label d fixes column d, v's adjacency bits against the placed
labels (label 0 most significant). d bitwise ANDs over the placed rows give
the largest column a free vertex can take and its tie set. A column below the
target cuts the node; otherwise the engine branches on the tie set from the
lowest vertex, skipping twins of an explored sibling (the swap is an
automorphism; classes from ``Graph.twin_masks``) and vertices in its orbit
under the recorded automorphisms fixing the prefix (complete labellings that
tie the target).

The (column, tie set) chain is carried down the recursion. When the tie set
T has at least two vertices and v in T takes label d, the rest of T still
attains the same column over the free vertices left, so the child's pair
follows from one AND: ((T - v) & rows[v], 2 val + 1) when that is non-empty,
else (T - v, 2 val). Only a forced step, with a single candidate, redoes
the d ANDs. The accept test's target columns are read straight off the rows.

``canonical_form`` completes a column above the best greedily and installs it
as the new best. ``is_canonically_labeled``, the accept test of the orderly
enumeration in ``search``, fixes the identity labelling as the target and
fails once a column beats it. ``graphs._column`` reads the identity's columns
and ``graphs._triangle`` packs a column string, as in the graph6 codec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import graph6
from .graphs import Graph, _column, _members, _triangle

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


class _Exceeded(Exception):
    """A column beat the identity labelling's column (test mode)."""


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


class _Search:
    """Branch-and-bound over labellings for the maximal column string."""

    __slots__ = ("rows", "n", "test", "twins", "assigned", "best_cols", "best_assigned", "gens")

    def __init__(self, g: Graph, test: bool):
        rows = self.rows = g.rows
        n = self.n = g.n
        self.test = test
        self.twins = g.twin_masks
        self.assigned = [0] * n
        self.best_assigned = tuple(range(n))
        if test:  # the identity labelling's columns are the fixed target
            self.best_cols = [_column(row, d) for d, row in enumerate(rows)]
        else:  # below every column, so the root is completed greedily
            self.best_cols = [-1] * n
        self.gens: dict[tuple[int, ...], int] = {}  # automorphism -> fixed-point mask

    def run(self) -> bool:
        """Search every labelling; False iff test mode saw the identity beaten."""
        full = (1 << self.n) - 1
        try:
            self._descend(0, full, 0, full)
        except _Exceeded:
            return False
        return True

    def _greedy(self, d: int, val: int, ties: int, free: int) -> None:
        """Install the greedy completion of the prefix as the new best."""
        asg = self.assigned[:d]
        cols = self.best_cols[:d]
        while True:
            v = (ties & -ties).bit_length() - 1
            asg.append(v)
            cols.append(val)
            free ^= 1 << v
            if not free:
                break
            val, ties = _top(self.rows, asg, len(asg), free)
        self.best_cols = cols
        self.best_assigned = tuple(asg)

    def _record_automorphism(self) -> None:
        phi = [0] * self.n
        for lbl, v in enumerate(self.best_assigned):
            phi[v] = self.assigned[lbl]
        perm = tuple(phi)
        fixed = sum(1 << x for x in range(self.n) if perm[x] == x)
        if fixed != (1 << self.n) - 1:
            self.gens[perm] = fixed

    def _orbit_hit(self, v: int, explored: int, prefix: int) -> bool:
        """Is v mapped onto an explored sibling by automorphisms fixing the prefix?"""
        gens = [g for g, fixed in self.gens.items() if prefix & fixed == prefix]
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

    def _descend(self, d: int, free: int, val: int, ties: int) -> None:
        """Branch at label d; (val, ties) is ``_top`` of the node, carried in."""
        if d == self.n:
            # a complete labelling tying the best string: an automorphism
            self._record_automorphism()
            return
        target = self.best_cols[d]
        if val < target:
            return
        if val > target:
            if self.test:
                raise _Exceeded
            self._greedy(d, val, ties, free)
        rows = self.rows
        assigned = self.assigned
        if not ties & (ties - 1):  # one candidate: the chain restarts from the placed rows
            assigned[d] = ties.bit_length() - 1
            free ^= ties
            val, ties = _top(rows, assigned, d + 1, free)
            self._descend(d + 1, free, val, ties)
            return
        prefix = ((1 << self.n) - 1) ^ free
        twins = self.twins
        explored = 0
        for v in _members(ties):
            if twins[v] & explored:
                continue  # a twin of an explored sibling
            if explored and self._orbit_hit(v, explored, prefix):
                continue
            explored |= 1 << v
            assigned[d] = v
            # the other ties still attain val, so one AND extends the chain
            rest = ties ^ (1 << v)
            hit = rest & rows[v]
            if hit:
                self._descend(d + 1, free ^ (1 << v), val << 1 | 1, hit)
            else:
                self._descend(d + 1, free ^ (1 << v), val << 1, rest)


def is_canonically_labeled(g: Graph) -> bool:
    """True iff the labelled graph equals its own canonical representative."""
    return _Search(g, test=True).run()


def _pack(n: int, cols: list[int]) -> bytes:
    nbits = n * (n - 1) // 2
    return n.to_bytes(2, "big") + _triangle(cols).to_bytes((nbits + 7) // 8 or 1, "big")


def canonical_form(g: Graph) -> CanonicalForm:
    search = _Search(g, test=False)
    search.run()
    relab = [0] * g.n
    for label, v in enumerate(search.best_assigned):
        relab[v] = label
    return CanonicalForm(_pack(g.n, search.best_cols), tuple(relab))


def canonical_graph(g: Graph) -> Graph:
    """The canonical representative of g's isomorphism class."""
    return g.relabel(canonical_form(g).relabeling)


def canonical_g6(g: Graph) -> str:
    """graph6 text of the canonical representative (n <= 62)."""
    return graph6.encode(canonical_graph(g))
