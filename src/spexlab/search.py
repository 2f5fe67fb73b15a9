"""Isomorph-free exhaustive enumeration and brute-force extremal searches.

Enumeration is orderly generation: the fixed bit order is the column-major
upper triangle (the graph6 order), children of a graph add one edge at a
position after its last edge, and a child survives exactly when the new edge
sits in the canonical position, i.e. the labelled child is its own canonical
representative (``canon.is_canonically_labeled``). Deleting the last edge of
a canonical string leaves a canonical string, so every isomorphism class
appears exactly once, with a deterministic DFS order.

Children that cannot pass the accept test are skipped before it runs, by
this lemma (Read 1978; McKay 1998): if g + e is canonical, then e is the
least non-edge position in its Aut(g) orbit. Proof: take s in Aut(g) with
s(e) = e'. Then g + e' is a relabelling of g + e, and the two strings differ
only at e and e'. If e' came earlier, g + e' would be lexicographically
larger, which contradicts canonicity. Permuting a twin class (vertices with
equal open, or equal closed, neighbourhoods; ``Graph.twin_masks``) is an
automorphism, so a pair (i, j) is skipped when some earlier pair (a, b) has
a != b, a a twin of i and b a twin of j. The accept test that admitted g
has also recorded automorphisms of g (``is_canonically_labeled`` hands them
back), so a pair is skipped too when its orbit under those and the twin
swaps holds an earlier position. Any subset of Aut(g) is sound. A walk root
has no accept test and so no recorded automorphisms: the unit roots of a
split walk prune by twin swaps alone, which tests more children but never
changes what is kept. The skipped children would all be rejected; the
stream and every report are unchanged.

One walker, ``_walk``, is the only copy of that DFS. It has two users:
``enumerate_graphs`` filters its stream, and ``_scan`` walks a subtree with
``_process`` deciding descent; given a cut depth, ``_scan`` also cuts the
work units.

``spex_search`` and ``ex_search`` are one pipeline fed two job records. A job
names the excluded trees (the whole family for spex, the one tree for ex),
whether to prune, whether only connected graphs count, and the objective.
The objective is the only difference: with no radius seed it is the edge
count (ex), otherwise the spectral radius (spex). One ledger, ``_offer``,
keeps the best value and its ties within TIE_TOL, as Graphs, for both;
``_merge`` folds every part through it and encodes only the winners.

Two exact monotone facts allow subtree pruning without changing results: a
graph containing every excluded tree only gains trees when edges are added,
and the radius bound lambda^2 <= max_v sum_{u ~ v} d(u) lets hopeless spex
candidates skip the eigenvalue solve. It implies lambda <= sqrt(2 e(G)),
since sum_{u ~ v} d(u) <= sum_u d(u) = 2 e(G), so that bound is not
checked. Ground-truth mode disables all of it and visits every class.

Tree containment is hereditary the same way: a child adds one edge to its
parent, so every embedding into the parent is one into the child, and the
child misses a subset of the trees its parent misses. ``_process`` returns
the indices of the family trees a class misses, the walker carries them to
its children, and a child tests only those, in family order. The root of a
walk tests the whole family; that is each unit root, and each class the
parent examines while splitting. The missing sets are exact with pruning on
or off.

Work splitting follows from the worker count. One worker walks the whole
tree in process. With w > 1 workers the parent examines the tree one edge
level at a time until a level holds ``UNITS_PER_WORKER`` * w classes or the
tree ends; each class on that level roots one work unit, which a worker
walks and examines whole, and the pool hands the units out one at a time.
``UNITS_PER_WORKER`` = 16 is measured on a 2-CPU machine, spex with k = 2
and two workers: 8 and 16 tie at n = 8 (0.48 and 0.49 s; one worker 0.65 s),
16 wins at n = 9 (2.34 against 2.67 s; one worker 4.06 s) and at n = 10
(19.4 against 22.9 s; one worker 35.1 s). The merge (sums, and an
``_offer`` fold that keeps the ties of the overall best in any order) is
associative and commutative, so results are identical for any worker count.
The worker count defaults to ``os.cpu_count()`` and is capped there: more
processes than CPUs would only contend, so both the split and the pool use
at most that many.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from multiprocessing import get_context
from typing import Callable, Iterator

from . import graph6
from .canon import canonical_g6, is_canonically_labeled
# family_membership is not called here, but perfbench/layers.py wraps
# search.family_membership by name, so the binding stays
from .embed import contains_tree, family_membership  # noqa: F401
from .errors import ParameterError
from .graphs import Graph, _pairs, complete_split, complete_split_plus
from .schemas import dump_json
from .spectral import (
    DEFAULT_TOL,
    audit_extremal_lemmas,
    default_constants,
    spectral_radius,
    split_radius_closed_form,
)
from .trees import Tree, generate_trees

__all__ = ["SearchReport", "enumerate_graphs", "spex_search", "ex_search"]

MAX_N = 10
TIE_TOL = 1e-9
BOUND_SLACK = 1e-6
UNITS_PER_WORKER = 16


def _walk(
    n: int,
    visit: Callable[[Graph, int, int, object], object] | None = None,
    rows: tuple[int, ...] = (),
    last: int = -1,
) -> Iterator[Graph]:
    """The orderly DFS: each canonical class below ``rows`` in pre-order.

    ``rows`` and ``last`` (the position of its last edge) give the subtree
    root, by default the empty graph. A class is yielded before any of its
    children is tested; ``visit(g, last, depth, carried)``, when given, then
    decides whether to descend, with ``depth`` counted in edges from the
    root. ``carried`` is what the parent's visit returned (None at the root);
    a return of None stops the descent, anything else is carried to the
    children.
    """
    pairs = _pairs(n)
    nbits = len(pairs)

    def rec(g: Graph, last: int, depth: int, carried: object, gens: list) -> Iterator[Graph]:
        yield g
        if visit is not None:
            carried = visit(g, last, depth, carried)
            if carried is None:
                return
        twins = g.twin_masks
        for pos in range(last + 1, nbits):
            i, j = pairs[pos]
            if _first_image(twins, i, j) < pos or gens and _orbit_earlier(gens, twins, i, j, pos):
                continue
            child = g.with_edge(i, j)
            child_gens: list = []
            if is_canonically_labeled(child, child_gens):
                yield from rec(child, pos, depth + 1, carried, child_gens)

    yield from rec(Graph(rows or (0,) * n), last, 0, None, [])


def _first_image(twins: tuple[int, ...], x: int, y: int) -> int:
    """Position of the earliest image of the pair {x, y} under twin swaps.

    That image is (a, b) for the least twin a of x and the least twin b != a
    of y.
    """
    lo = twins[x] & -twins[x]
    hi = twins[y] & ~lo
    a, b = lo.bit_length() - 1, (hi & -hi).bit_length() - 1
    return a * (a - 1) // 2 + b if a > b else b * (b - 1) // 2 + a


def _orbit_earlier(gens: list, twins: tuple[int, ...], i: int, j: int, pos: int) -> bool:
    """Do the automorphisms ``gens`` and the twin swaps map (i, j) before ``pos``?

    Twin swaps map twin classes to twin classes, so each automorphism
    normalises the group of twin swaps, and every element of the group both
    generate is a twin swap after a product of ``gens``. So the walk follows
    the orbit of (i, j) under ``gens`` alone and takes the earliest twin-swap
    image of each pair it finds.
    """
    seen = {(i, j)}
    stack = [(i, j)]
    while stack:
        x, y = stack.pop()
        for s in gens:
            a, b = s[x], s[y]
            if _first_image(twins, a, b) < pos:
                return True
            if a > b:
                a, b = b, a
            if (a, b) not in seen:
                seen.add((a, b))
                stack.append((a, b))
    return False


def enumerate_graphs(n: int, connected_only: bool = False) -> Iterator[Graph]:
    """One representative per isomorphism class on n vertices, 1 <= n <= 10.

    Each yielded graph carries its canonical labelling. Calling again
    restarts the stream; the DFS order is deterministic.
    """
    if not 1 <= n <= MAX_N:
        raise ParameterError(f"enumeration supports 1 <= n <= {MAX_N}, got n={n}")
    for g in _walk(n):
        if not connected_only or g.is_connected():
            yield g


# ---------------------------------------------------------------------------
# search reports


@dataclass(frozen=True)
class SearchReport:
    """Outcome of a brute-force extremal search over isomorphism classes."""

    kind: str
    n: int
    k: int | None
    prime: bool | None
    family_kind: str
    candidates_examined: int
    in_family_count: int
    best_value: float | int | None
    argmax: tuple[str, ...]
    comparison: dict
    audit: dict
    params: dict

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["argmax"] = list(self.argmax)
        return d

    def to_json(self) -> str:
        return dump_json(self.to_dict())


# ---------------------------------------------------------------------------
# subtree scanning (runs in workers)


def _radius_upper_bound(g: Graph) -> float:
    """sqrt(max_v sum_{u ~ v} d(u)), peeling each row once against the degrees."""
    rows = g.rows
    degs = [row.bit_count() for row in rows]
    top = 0
    for row in rows:
        total = 0
        while row:
            low = row & -row
            total += degs[low.bit_length() - 1]
            row ^= low
        if total > top:
            top = total
    return math.sqrt(top)


def _fresh_state() -> dict:
    return {"examined": 0, "in_family": 0, "best": None, "cands": []}


def _offer(state: dict, value: float | int, g: Graph) -> None:
    """Record a candidate: a new best drops the ties it leaves behind."""
    if state["best"] is None or value > state["best"]:
        state["best"] = value
        state["cands"] = [c for c in state["cands"] if c[0] >= value - TIE_TOL]
    if value >= state["best"] - TIE_TOL:
        state["cands"].append((value, g))


def _process(
    state: dict, g: Graph, job: dict, parent_missing: tuple[int, ...] | None
) -> tuple[int, ...] | None:
    """Examine one class; return the indices of the trees it misses.

    Only the trees in ``parent_missing`` are tested, or all of them at a walk
    root (None). The return value is carried to the children; None, when
    pruning, cuts a subtree that contains every tree.
    """
    state["examined"] += 1
    trees = job["trees"]
    tested = range(len(trees)) if parent_missing is None else parent_missing
    missing = tuple(i for i in tested if contains_tree(g, trees[i]) is None)
    if not missing:
        return None if job["prune"] else missing
    if job["connected_only"] and not g.is_connected():
        return missing
    state["in_family"] += 1
    seed = job["seed"]
    if seed is None:
        _offer(state, g.edge_count, g)
        return missing
    threshold = seed if state["best"] is None else max(state["best"], seed)
    if job["prune"] and _radius_upper_bound(g) < threshold - BOUND_SLACK:
        return missing
    _offer(state, spectral_radius(g).radius, g)
    return missing


def _scan(unit: tuple, cut: int = -1) -> tuple[dict, list[tuple]]:
    """Walk the subtree below a unit's root and examine its classes.

    A class at edge depth ``cut`` below the root is not examined: it is
    returned, in walk order, as the root of a new unit. Workers scan their
    units whole, with no cut.
    """
    n, rows, last, job = unit
    state = _fresh_state()
    roots = []

    def visit(g: Graph, last: int, depth: int, carried):
        if depth == cut:
            roots.append((n, g.rows, last, job))
            return None
        return _process(state, g, job, carried)

    for _ in _walk(n, visit, rows, last):
        pass
    return state, roots


def _run_search(n: int, job: dict, workers: int | None) -> list[dict]:
    if workers is not None and workers < 1:
        raise ParameterError(f"workers must be at least 1, got {workers}")
    cpus = os.cpu_count() or 1
    workers = cpus if workers is None else min(workers, cpus)
    root = (n, (), -1, job)
    if workers == 1:
        return [_scan(root)[0]]
    parts, units = [], [root]
    while units and len(units) < UNITS_PER_WORKER * workers:
        level = [_scan(u, 1) for u in units]
        parts += [state for state, _ in level]
        units = [r for _, roots in level for r in roots]
    if units:
        with get_context("fork").Pool(workers) as pool:
            parts += [state for state, _ in pool.imap_unordered(_scan, units, chunksize=1)]
    return parts


def _merge(parts: list[dict]) -> tuple[int, int, float | int | None, tuple]:
    merged = _fresh_state()
    for p in parts:
        for value, g in p["cands"]:
            _offer(merged, value, g)
    winners = sorted({graph6.encode(g) for _, g in merged["cands"]})
    examined = sum(p["examined"] for p in parts)
    in_family = sum(p["in_family"] for p in parts)
    return examined, in_family, merged["best"], tuple(winners)


# ---------------------------------------------------------------------------
# public searches


def spex_search(
    n: int,
    k: int,
    prime: bool = False,
    *,
    connected_only: bool = False,
    prune: bool = True,
    workers: int | None = None,
) -> SearchReport:
    """Maximize the spectral radius over classes missing some family tree.

    The family is all trees on 2k+2 vertices (2k+3 when ``prime``). The
    report lists every winner within 1e-9 of the maximum, compares against
    the closed-form radius of the complete split graph and against the
    reference construction itself, and audits each winner. With
    ``connected_only`` only connected graphs count as candidates (the
    enumeration still passes through disconnected ones).
    """
    if k < 2:
        raise ParameterError(f"spex search needs k >= 2, got k={k}")
    t = 2 * k + 3 if prime else 2 * k + 2
    if n < t:
        raise ParameterError(f"spex search needs n >= {t} for k={k}, prime={prime}, got n={n}")
    if n > MAX_N:
        raise ParameterError(f"spex search supports n <= {MAX_N}, got n={n}")
    closed = split_radius_closed_form(n, k)
    job = {
        "trees": generate_trees(t).trees,
        "prune": bool(prune),
        "connected_only": bool(connected_only),
        "seed": closed - BOUND_SLACK,
    }
    parts = _run_search(n, job, workers)
    examined, in_family, best, argmax = _merge(parts)

    reference = complete_split_plus(n, k) if prime else complete_split(n, k)
    ref_g6 = canonical_g6(reference)
    ref_lambda = spectral_radius(reference).radius
    comparison = {
        "closed_form": closed,
        "best_minus_closed_form": None if best is None else best - closed,
        "dominates_closed_form": None if best is None else best >= closed - TIE_TOL,
        "reference_g6": ref_g6,
        "reference_radius": ref_lambda,
        "argmax_contains_reference": ref_g6 in argmax,
        "argmax_is_reference": argmax == (ref_g6,),
    }
    audit = {}
    constants = default_constants(k)
    for g6 in argmax:
        g = graph6.decode(g6)
        report = audit_extremal_lemmas(g, constants, spectral_radius(g))
        audit[g6] = report.to_dicts()
    return SearchReport(
        kind="spex",
        n=n,
        k=k,
        prime=prime,
        family_kind=f"all trees on {t} vertices",
        candidates_examined=examined,
        in_family_count=in_family,
        best_value=best,
        argmax=argmax,
        comparison=comparison,
        audit=audit,
        params={
            "connected_only": connected_only,
            "prune": prune,
            "tol": DEFAULT_TOL,
        },
    )


def ex_search(
    n: int,
    tree: Tree,
    *,
    prune: bool = True,
    workers: int | None = None,
) -> SearchReport:
    """Maximize the edge count over classes not containing the given tree."""
    t = tree.graph.n
    if t < 2:
        raise ParameterError(f"excluded tree needs at least 2 vertices, got {t}")
    if not t <= n <= MAX_N:
        raise ParameterError(f"ex search needs |T| <= n <= {MAX_N}, got |T|={t}, n={n}")
    job = {"trees": (tree,), "prune": bool(prune), "connected_only": False, "seed": None}
    parts = _run_search(n, job, workers)
    examined, in_family, best, argmax = _merge(parts)
    lower = (t - 2) * n / 2
    upper = (t - 2) * n
    comparison = {
        "sandwich_lower": lower,
        "sandwich_upper": upper,
        "lower_ok": None if best is None else best >= lower,
        "upper_ok": None if best is None else best <= upper,
    }
    return SearchReport(
        kind="ex",
        n=n,
        k=None,
        prime=None,
        family_kind=f"single tree {graph6.encode(tree.graph)}",
        candidates_examined=examined,
        in_family_count=in_family,
        best_value=best,
        argmax=argmax,
        comparison=comparison,
        audit={},
        params={"prune": prune},
    )
