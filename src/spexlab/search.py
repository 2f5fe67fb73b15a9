"""Isomorph-free exhaustive enumeration and brute-force extremal searches.

Enumeration is orderly generation: the fixed bit order is the column-major
upper triangle (the graph6 order), children of a graph add one edge at a
position after its last edge, and a child survives exactly when the new edge
sits in the canonical position, i.e. the labelled child is its own canonical
representative (``canon.is_canonically_labeled``). Deleting the last edge of
a canonical string leaves a canonical string, so every isomorphism class
appears exactly once, with a deterministic DFS order.

One walker, ``_walk``, is the only copy of that DFS. It has three uses:
``enumerate_graphs`` filters its stream, ``_scan`` walks one work unit with
``_process`` deciding descent, and ``_run_search`` walks the top of the tree
to cut the work units.

Searches walk the same tree. Two exact monotone facts allow subtree pruning
without changing results: a graph containing every tree of the target family
only gains trees when edges are added, and the radius bounds
lambda <= sqrt(2 e(G)) and lambda^2 <= max_v sum_{u ~ v} d(u) let hopeless
candidates skip the eigenvalue solve. Ground-truth mode disables all of it
and visits every class.

Work splitting: the parent process walks the tree down to a fixed edge
depth, ``split_depth``, examining every class above it. Each class reached
at that depth is not examined there; it becomes the root of one work unit,
which a worker walks and examines whole. Depth 0 makes the whole tree one
unit, and a depth beyond every graph's edge count cuts none. The merge
(sums, max, tie filtering, sorted argmax) is associative and commutative, so
results are identical for any worker count and any split depth (the split
depth is echoed in the report parameters, the worker count is not).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Callable, Iterator

from . import graph6
from .canon import canonical_g6, is_canonically_labeled
from .embed import contains_tree, family_membership
from .errors import ParameterError
from .graphs import Graph, _from_rows, complete_split, complete_split_plus
from .schemas import dump_json
from .spectral import (
    audit_extremal_lemmas,
    default_constants,
    spectral_radius,
    split_radius_closed_form,
)
from .trees import Tree, generate_trees

__all__ = ["SearchReport", "enumerate_graphs", "spex_search", "ex_search", "threads_from_env"]

MAX_N = 10
TIE_TOL = 1e-9
BOUND_SLACK = 1e-6
DEFAULT_SPLIT_DEPTH = 2


def _pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for j in range(1, n) for i in range(j)]


def _walk(
    n: int,
    visit: Callable[[Graph, int, int], bool] | None = None,
    rows: tuple[int, ...] = (),
    last: int = -1,
) -> Iterator[Graph]:
    """The orderly DFS: each canonical class below ``rows`` in pre-order.

    ``rows`` and ``last`` (the position of its last edge) give the subtree
    root, by default the empty graph. A class is yielded before any of its
    children is tested; ``visit(g, last, depth)``, when given, then decides
    whether to descend, with ``depth`` counted in edges from the root.
    """
    pairs = _pairs(n)
    nbits = len(pairs)

    def rec(rows: list[int], last: int, depth: int) -> Iterator[Graph]:
        g = _from_rows(n, rows)
        yield g
        if visit is not None and not visit(g, last, depth):
            return
        for pos in range(last + 1, nbits):
            i, j = pairs[pos]
            child = list(rows)
            child[i] |= 1 << j
            child[j] |= 1 << i
            if is_canonically_labeled(child, n):
                yield from rec(child, pos, depth + 1)

    yield from rec(list(rows) if rows else [0] * n, last, 0)


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
        return {
            "kind": self.kind,
            "n": self.n,
            "k": self.k,
            "prime": self.prime,
            "family_kind": self.family_kind,
            "candidates_examined": self.candidates_examined,
            "in_family_count": self.in_family_count,
            "best_value": self.best_value,
            "argmax": list(self.argmax),
            "comparison": self.comparison,
            "audit": self.audit,
            "params": self.params,
        }

    def to_json(self) -> str:
        return dump_json(self.to_dict())

    def csv_row(self) -> str:
        def fmt(x):
            return f"{x:.12g}" if isinstance(x, float) else str(x)

        closed = self.comparison.get("closed_form")
        iso = self.comparison.get("argmax_is_reference")
        return ",".join(fmt(v) for v in (self.n, self.k, self.best_value, closed, iso))


# ---------------------------------------------------------------------------
# subtree scanning (runs in workers)


def _radius_upper_bound(g: Graph) -> float:
    if g.edge_count == 0:
        return 0.0
    degs = g.degrees()
    by_edges = math.sqrt(2 * g.edge_count)
    by_neighbors = math.sqrt(max(sum(degs[u] for u in g.neighbors(v)) for v in range(g.n)))
    return min(by_edges, by_neighbors)


def _fresh_state() -> dict:
    return {"examined": 0, "in_family": 0, "best": None, "cands": []}


def _process(state: dict, g: Graph, cfg: dict) -> bool:
    """Examine one class; return whether its subtree should be explored."""
    state["examined"] += 1
    if cfg["kind"] == "spex":
        family = generate_trees(cfg["family_t"])
        member = family_membership(g, family)
        if not member.in_family:
            return not cfg["prune"]
        if cfg["connected_only"] and not g.is_connected():
            return True
        state["in_family"] += 1
        best = state["best"]
        threshold = cfg["seed"] if best is None else max(best, cfg["seed"])
        if cfg["prune"] and _radius_upper_bound(g) < threshold - BOUND_SLACK:
            return True
        lam = spectral_radius(g, tol=cfg["tol"]).radius
        if best is None or lam > best:
            state["best"] = lam
            state["cands"] = [c for c in state["cands"] if c[0] >= lam - TIE_TOL]
        if lam >= state["best"] - TIE_TOL:
            state["cands"].append((lam, graph6.encode(g)))
        return True
    else:
        if contains_tree(g, cfg["tree"]) is not None:
            return not cfg["prune"]
        state["in_family"] += 1
        edges = g.edge_count
        best = state["best"]
        if best is None or edges > best:
            state["best"] = edges
            state["cands"] = [c for c in state["cands"] if c[0] >= edges]
        if edges >= state["best"]:
            state["cands"].append((edges, graph6.encode(g)))
        return True


def _scan(args) -> dict:
    """Walk one work unit's subtree and summarize it (worker entry point)."""
    n, rows, last, cfg = args
    state = _fresh_state()
    for _ in _walk(n, lambda g, *_: _process(state, g, cfg), rows, last):
        pass
    return state


def threads_from_env() -> int | None:
    """The worker count set by SPEX_THREADS, or None when it is unset.

    Raises ParameterError for a value that is not an integer of at least 1.
    """
    env = os.environ.get("SPEX_THREADS")
    if env is None:
        return None
    try:
        workers = int(env)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ParameterError(f"SPEX_THREADS must be a positive integer, got {env!r}")
    return workers


def _resolve_workers(workers: int | None) -> int:
    if workers is None:
        workers = threads_from_env() or os.cpu_count() or 1
    return workers


def _run_search(n: int, cfg: dict, workers: int | None, split_depth: int) -> list[dict]:
    if workers is not None and workers < 1:
        raise ParameterError(f"workers must be at least 1, got {workers}")
    if split_depth < 0:
        raise ParameterError(f"split_depth must be at least 0, got {split_depth}")
    workers = _resolve_workers(workers)
    parent = _fresh_state()
    units = []

    def visit(g: Graph, last: int, depth: int) -> bool:
        if depth == split_depth:
            units.append((n, g.rows, last, cfg))
            return False
        return _process(parent, g, cfg)

    for _ in _walk(n, visit):
        pass
    if workers <= 1 or len(units) <= 1:
        parts = [_scan(u) for u in units]
    else:
        with get_context("fork").Pool(min(workers, len(units))) as pool:
            parts = pool.map(_scan, units)
    return [parent] + parts


def _merge(parts: list[dict], tie_tol: float) -> tuple[int, int, float | int | None, tuple]:
    examined = sum(p["examined"] for p in parts)
    in_family = sum(p["in_family"] for p in parts)
    bests = [p["best"] for p in parts if p["best"] is not None]
    if not bests:
        return examined, in_family, None, ()
    best = max(bests)
    winners = sorted(
        {g6 for p in parts for value, g6 in p["cands"] if value >= best - tie_tol}
    )
    return examined, in_family, best, tuple(winners)


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
    split_depth: int = DEFAULT_SPLIT_DEPTH,
    tol: float = 1e-12,
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
    cfg = {
        "kind": "spex",
        "family_t": t,
        "connected_only": bool(connected_only),
        "prune": bool(prune),
        "seed": closed - BOUND_SLACK,
        "tol": tol,
    }
    parts = _run_search(n, cfg, workers, split_depth)
    examined, in_family, best, argmax = _merge(parts, TIE_TOL)

    reference = complete_split_plus(n, k) if prime else complete_split(n, k)
    ref_g6 = canonical_g6(reference)
    ref_lambda = spectral_radius(reference, tol=tol).radius
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
        report = audit_extremal_lemmas(g, k, constants, spectral_radius(g, tol=tol))
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
            "split_depth": split_depth,
            "tol": tol,
        },
    )


def ex_search(
    n: int,
    tree: Tree,
    *,
    prune: bool = True,
    workers: int | None = None,
    split_depth: int = DEFAULT_SPLIT_DEPTH,
) -> SearchReport:
    """Maximize the edge count over classes not containing the given tree."""
    t = tree.graph.n
    if t < 2:
        raise ParameterError(f"excluded tree needs at least 2 vertices, got {t}")
    if not t <= n <= MAX_N:
        raise ParameterError(f"ex search needs |T| <= n <= {MAX_N}, got |T|={t}, n={n}")
    cfg = {"kind": "ex", "tree": tree, "prune": bool(prune)}
    parts = _run_search(n, cfg, workers, split_depth)
    examined, in_family, best, argmax = _merge(parts, 0)
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
        params={"prune": prune, "split_depth": split_depth},
    )
