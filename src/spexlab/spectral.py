"""Spectral radius, Perron data, the constants chain, and inequality audits.

Matrix-free: the bit rows are unpacked once into neighbour lists, and one
matvec, a gather with a segmented sum in the dtype of its input, serves the
power loop, its extended-precision check and the audit's A(Ax).

The start vector comes from the twin quotient. Vertices with equal open or
equal closed neighborhoods (``Graph.twin_classes``) form an equitable
partition, so the Perron vector is constant on each class, and the Perron
vector of the small symmetric quotient, solved densely with
``numpy.linalg.eigh``, lifts to that of the whole graph. Complete split
graphs collapse to two classes and the augmented bipartite hosts to at most
four. Above DENSE_LIMIT classes the start is all ones.

Whatever the start, one power loop on A + I (primitive for a connected
graph, so bipartite components cannot oscillate with period two) returns a
float64 vector only once its residual on A, measured in extended precision,
is within the tolerance. A start that already passes costs one step. Both
starts are deterministic.

Each audit inequality is stated once, as its margin, non-negative exactly
on the passing side (positive for ``<``) and, for ``==``, 0 exactly when
the sides are equal; pass/fail is the margin's sign under the relation. For
finite doubles b - a has the sign of the exact difference and is 0 only
when a == b, so the rule decides exactly what the comparison would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .canon import canonical_form
from .errors import ConvergenceError, ParameterError
from .graphs import Graph, _indices, _mask, _members, shells

__all__ = [
    "PerronData",
    "Constants",
    "VertexPartition",
    "AuditEntry",
    "AuditReport",
    "spectral_radius",
    "split_radius_closed_form",
    "default_constants",
    "constants_with",
    "classify_vertices",
    "audit_extremal_lemmas",
]

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITERATIONS = 10**6
# most twin classes solved densely for the start vector; above it the start
# is all ones. A cap on the dense cost, which grows as about q**2.5 (11 ms at
# 300 classes, 0.14 s at 1000, 0.85 s at 2000 on a 2-CPU Xeon VM), not a
# crossover: none holds across graphs. Against the all-ones start the dense
# one loses on random G(q, p), where power iteration converges fastest
# (2.4-3.2x at 300 classes, 2.4-4.5x at 1000, 4.8-5.6x at 2000), and wins on
# random trees (2.3x at 259 classes, 3.3x at 887) and on paths (28 ms against
# 11.7 s on P_400). At the cap the largest measured loss is about 0.1 s
DENSE_LIMIT = 1000
# Perron weights this close to the maximum are treated as tied at 1 (the
# width is further capped at tol / (4 n), see _snap_ties)
TIE_SNAP = 1e-12


@dataclass(frozen=True)
class PerronData:
    """Spectral radius estimate with its scaled eigenvector.

    ``vector`` is scaled so the maximum entry is exactly 1 (entries within
    min(TIE_SNAP, tol / (4 n)) of it are set to 1) and ``z`` is the smallest
    such index.
    ``residual`` is the infinity norm of A x - radius x. For a disconnected
    graph the radius is the maximum over components and the vector is
    supported on one attaining component (ties broken by smallest canonical
    byte string, then smallest vertex).
    """

    radius: float
    vector: tuple[float, ...]
    residual: float
    z: int


def spectral_radius(
    g: Graph,
    tol: float = DEFAULT_TOL,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> PerronData:
    """Dominant adjacency eigenvalue and scaled Perron vector of g."""
    if not (math.isfinite(tol) and tol > 0):
        raise ParameterError(f"tolerance must be finite and positive, got {tol}")
    if max_iterations < 1:
        raise ParameterError(f"iteration budget must be at least 1, got {max_iterations}")
    comps = g.components()
    best = None
    for comp in comps:
        sub = g.subgraph(comp) if len(comps) > 1 else g
        nbr = _neighbours(sub)
        lam, x, residual, ok = _power(nbr, _twin_quotient_start(sub, nbr), tol, max_iterations)
        if not ok:
            partial = _assemble(g, comp, lam, x, residual)
            raise ConvergenceError(
                f"power iteration did not reach residual {tol} in {max_iterations} steps",
                best=partial,
            )
        if best is None or lam > best[0] + tol:
            best = (lam, comp, x, residual)
        elif abs(lam - best[0]) <= tol:
            if _component_key(g, comp) < _component_key(g, best[1]):
                best = (lam, comp, x, residual)
    lam, comp, x, residual = best
    return _assemble(g, comp, lam, x, residual)


def _neighbours(g: Graph):
    """Neighbour lists of g in one np.intp array: v's run is ``index[bounds[v]:bounds[v + 1]]``.

    Each distinct row is unpacked once (open twins share rows). An isolated
    vertex gets the sentinel index n, which ``_matvec`` reads as a zero.
    """
    runs: dict[int, np.ndarray] = {}
    for row in g.rows:
        if row not in runs:
            runs[row] = _indices(row) if row else np.array([g.n], dtype=np.intp)
    lists = [runs[row] for row in g.rows]
    return np.concatenate(lists), np.cumsum([0] + [len(run) for run in lists])


def _matvec(nbr, x):
    """A x in the dtype of x: a gather of x over the neighbour lists, summed per run."""
    index, bounds = nbr
    return np.add.reduceat(np.concatenate((x, np.zeros(1, x.dtype)))[index], bounds[:-1])


def _twin_quotient_start(g: Graph, nbr):
    """Lifted Perron vector of the symmetric twin quotient of a connected g.

    Twin classes form an equitable partition, so with b[i, j] the number of
    neighbors a vertex of class i has in class j, the symmetric quotient
    sqrt(b * b.T) has the same Perron root, and its Perron vector divided by
    the square roots of the class sizes, copied to every class member, is
    the Perron vector of g. Twins therefore get bitwise-equal weights.
    All ones when there are more than DENSE_LIMIT classes.
    """
    classes = g.twin_classes
    q = len(classes)
    if q > DENSE_LIMIT:
        return np.ones(g.n)
    label = [0] * g.n
    for c, members in enumerate(classes):
        for v in members:
            label[v] = c
    label = np.array(label)
    index, bounds = nbr
    label_ext = np.append(label, q)  # an isolated vertex's sentinel falls in class q
    # each class's smallest vertex stands for it
    reps = [members[0] for members in classes]
    b = np.array([np.bincount(label_ext[index[bounds[r]:bounds[r + 1]]], minlength=q + 1)[:q]
                  for r in reps])
    _, vecs = np.linalg.eigh(np.sqrt(b * b.T))
    y = np.abs(vecs[:, -1]) / np.sqrt(np.bincount(label, minlength=q))
    return y[label]


def _snap_ties(x, width):
    """x scaled to maximum 1, entries within width of it set to exactly 1.

    Tied Perron weights come out of the arithmetic a few ulps apart; after
    the snap they are equal, so ``z`` is the smallest tied vertex. Raising
    entries by at most width moves each entry of A x - lambda x by at most
    (max degree) * width < n * width, so with width <= tol / (4 n) the snap
    costs at most a quarter of the tolerance and a vector whose residual is
    well inside it still passes; a true gap wider than width is kept.
    """
    x = x / x.max()
    x[x >= 1.0 - width] = 1.0
    return x


def _power(nbr, x, tol, max_iterations):
    """Power iteration on A + I from x, each step checked in extended precision.

    A step snaps the ties of the float64 vector it would return and measures
    its Rayleigh quotient and residual in long double (float64 sums carry
    rounding noise of order n * eps * radius, which can exceed a tight
    tolerance even for a converged vector). The first within tol is returned.
    """
    width = min(TIE_SNAP, tol / (4 * len(x)))
    for _ in range(max_iterations):
        x64 = _snap_ties(np.asarray(x, dtype=np.float64), width)
        xh = x64.astype(np.longdouble)
        yh = _matvec(nbr, xh)
        lam = float((xh @ yh) / (xh @ xh))
        residual = float(np.abs(yh - lam * xh).max())
        if residual <= tol:
            return lam, x64, residual, True
        x = yh + xh
    return lam, x64, residual, False


def _component_key(g: Graph, comp: tuple[int, ...]):
    return (canonical_form(g.subgraph(comp)).data, comp[0])


def _assemble(g: Graph, comp: tuple[int, ...], lam, x, residual) -> PerronData:
    # x comes from _snap_ties, so its maximum is already exactly 1
    full = np.zeros(g.n)
    full[list(comp)] = x
    vec = tuple(float(v) for v in full)
    z = max(range(g.n), key=lambda v: vec[v])
    return PerronData(float(lam), vec, float(residual), int(z))


def split_radius_closed_form(n: int, k: int) -> float:
    """Spectral radius of the complete split graph on (n, k).

    The two-class equitable quotient gives the characteristic equation
    x^2 - (k-1)x - k(n-k) = 0, whose positive root is returned.
    """
    if not 1 <= k < n:
        raise ParameterError(f"closed form needs 1 <= k < n, got k={k}, n={n}")
    return (k - 1 + math.sqrt((k - 1) ** 2 + 4 * k * (n - k))) / 2


# ---------------------------------------------------------------------------
# the constants chain


@dataclass(frozen=True)
class Constants:
    """Threshold constants (eta, epsilon, alpha, delta) for weight classes.

    ``satisfies_chain`` records whether the strict inequality chain holds:
    eta below both of its bounds, epsilon below min(eta/2, 1/(8k^3),
    eta/(32k^3+2)), alpha below min(eta, epsilon^2/(22k)), and
    delta = epsilon*alpha/(500 k^2) exactly.
    """

    k: int
    eta: float
    epsilon: float
    alpha: float
    delta: float
    satisfies_chain: bool


def _eta_bound(k: int) -> float:
    second = (1 / ((2 * k + 2) * (16 * k**2))) * (
        16 * k**2 - 1 - 4 * (16 * k**3 - 1) / (5 * k)
    )
    return min(1 / (10 * k), second)


def _epsilon_bound(k: int, eta: float) -> float:
    return min(eta / 2, 1 / (8 * k**3), eta / (32 * k**3 + 2))


def _alpha_bound(k: int, eta: float, epsilon: float) -> float:
    return min(eta, epsilon**2 / (22 * k))


def default_constants(k: int) -> Constants:
    """Constants set to 0.9 of each upper bound, evaluated in chain order."""
    return constants_with(k)


def constants_with(
    k: int,
    eta: float | None = None,
    epsilon: float | None = None,
    alpha: float | None = None,
) -> Constants:
    """Constants with selective overrides; the chain flag is recomputed.

    A missing value is 0.9 of its upper bound along the default chain, not
    along the overridden one.
    """
    if k < 2:
        raise ParameterError(f"constants are defined for k >= 2, got k={k}")
    eta_0 = 0.9 * _eta_bound(k)
    epsilon_0 = 0.9 * _epsilon_bound(k, eta_0)
    eta = eta_0 if eta is None else float(eta)
    epsilon = epsilon_0 if epsilon is None else float(epsilon)
    alpha = 0.9 * _alpha_bound(k, eta_0, epsilon_0) if alpha is None else float(alpha)
    if not all(math.isfinite(x) and x > 0 for x in (eta, epsilon, alpha)):
        raise ParameterError(
            f"constants must be finite and strictly positive, got eta={eta}, "
            f"epsilon={epsilon}, alpha={alpha}"
        )
    delta = epsilon * alpha / (500 * k**2)
    ok = (
        eta < _eta_bound(k)
        and epsilon < _epsilon_bound(k, eta)
        and alpha < _alpha_bound(k, eta, epsilon)
    )
    return Constants(k, eta, epsilon, alpha, delta, ok)


# ---------------------------------------------------------------------------
# weight classes


@dataclass(frozen=True)
class VertexPartition:
    """Vertex classes by Perron weight thresholds.

    large:       weight >= alpha            small: the complement
    mid:         weight >= alpha/3          top:   large with weight >= eta
    common:      common neighborhood of the top class
    exceptional: everything outside top and common
    """

    large: tuple[int, ...]
    small: tuple[int, ...]
    mid: tuple[int, ...]
    top: tuple[int, ...]
    common: tuple[int, ...]
    exceptional: tuple[int, ...]


def classify_vertices(g: Graph, p: PerronData, c: Constants) -> VertexPartition:
    x = p.vector
    large = tuple(v for v in range(g.n) if x[v] >= c.alpha)
    small = tuple(v for v in range(g.n) if x[v] < c.alpha)
    mid = tuple(v for v in range(g.n) if x[v] >= c.alpha / 3)
    top = tuple(v for v in large if x[v] >= c.eta)
    mask = (1 << g.n) - 1
    for v in top:
        mask &= g.rows[v]
    common = _members(mask)
    rest = set(range(g.n)) - set(top) - set(common)
    return VertexPartition(large, small, mid, top, common, tuple(sorted(rest)))


# ---------------------------------------------------------------------------
# audit


@dataclass(frozen=True)
class AuditEntry:
    """One checked inequality: identifier, rendering with numbers, outcome.

    ``margin`` is recomputed from the graph: value - floor for ``>=``,
    bound - value for one-sided ``<=`` and ``<``, so it is non-negative
    exactly on the passing side (positive for ``<``); for ``==`` it is 0
    exactly when the sides are equal.
    None marks a vacuous check (a minimum over an empty set). ``passed`` is
    the margin's sign under the relation: a vacuous check passes, ``==``
    passes at 0, ``<`` above 0, ``<=`` and ``>=`` at 0 or above.
    """

    lemma: str
    inequality: str
    passed: bool
    margin: float | None


@dataclass(frozen=True)
class AuditReport:
    entries: tuple[AuditEntry, ...]

    def entry(self, lemma: str) -> AuditEntry:
        for e in self.entries:
            if e.lemma == lemma:
                return e
        raise KeyError(lemma)

    def to_dicts(self) -> list[dict]:
        return [
            {"lemma": e.lemma, "inequality": e.inequality, "pass": e.passed, "margin": e.margin}
            for e in self.entries
        ]


def _num(x: float) -> str:
    return f"{x:.6g}"


def _show(value) -> str:
    # a count or degree as is, a real in six digits, a minimum over nothing as vacuous
    return "vacuous" if value is None else str(value) if isinstance(value, int) else _num(value)


def _edges_between(g: Graph, left, right) -> int:
    rmask = _mask(right)
    return sum((g.rows[v] & rmask).bit_count() for v in left)


def audit_extremal_lemmas(
    g: Graph, c: Constants, p: PerronData, tol: float = DEFAULT_TOL
) -> AuditReport:
    """Recompute every structural inequality on g and report margins.

    The class parameter k is ``c.k``, so the bounds and the weight classes
    come from one chain. Entries report, never raise: the inequalities are
    proved for spectral extremal graphs at large vertex counts, so failures
    on concrete small graphs are data, not errors.
    """
    k = c.k
    if k < 1:
        raise ParameterError(f"audit needs k >= 1, got k={k}")
    n = g.n
    x = p.vector
    lam = p.radius
    part = classify_vertices(g, p, c)
    degs = g.degrees()
    entries = []

    def add(lemma, satisfied, required, relation, margin):
        if margin is None:
            passed = True
        elif relation == "==":
            passed = margin == 0
        elif relation == "<":
            passed = margin > 0
        else:
            passed = margin >= 0
        entries.append(AuditEntry(lemma, f"{satisfied} {relation} {required}", passed, margin))

    def at_least(lemma, name, value, floor):
        add(lemma, f"{name} = {_show(value)}", _num(floor), ">=",
            None if value is None else value - floor)

    def at_most(lemma, name, value, bound, relation="<="):
        add(lemma, f"{name} = {_show(value)}", _num(bound), relation, float(bound - value))

    # size of the large-weight class and of the mid-weight class
    at_most("large-weight-count", "|L|", len(part.large), 5 * math.sqrt(k * n) / c.alpha)
    at_most("mid-weight-count", "|M|", len(part.mid), 15 * math.sqrt(k * n) / c.alpha)
    at_most("large-weight-count-refined", "|L|", len(part.large), 500 * k**2 / c.alpha)

    # linear degree floor on the large-weight class
    at_least("large-weight-degree-floor", "min degree over L",
             min((degs[v] for v in part.large), default=None),
             c.alpha * n / (10 * (4 * k + 3)))

    # degree of a top-weight vertex tracks its weight
    at_least("top-weight-degree", "min over L' of d(v) - (x_v - eps) n",
             min((degs[v] - (x[v] - c.epsilon) * n for v in part.top), default=None), 0)

    # edge window around the maximum-weight vertex
    sh = shells(g, p.z)
    n1 = set(sh.shells[1]) if len(sh.shells) > 1 else set()
    n2 = set(sh.shells[2]) if len(sh.shells) > 2 else set()
    large_set = set(part.large)
    small_set = set(part.small)
    s1 = [v for v in n1 if v in small_set]
    l12z = [p.z] + [v for v in n1 | n2 if v in large_set]
    val = _edges_between(g, s1, l12z)
    lo = (1 - c.epsilon) * k * n
    hi = (k + c.epsilon) * n
    add("max-vertex-edge-window", f"{lo:.6g} <= e(S1, z u L1 u L2) = {val}", _num(hi),
        "<=", min(val - lo, hi - val))

    # the top-weight class has exactly k vertices
    add("top-weight-size", f"|L'| = {len(part.top)}", str(k), "==", float(len(part.top) - k))

    # top-weight vertices have near-full degree and near-maximal weight
    at_least("top-weight-degree-floor", "min degree over L'",
             min((degs[v] for v in part.top), default=None), (1 - 1 / (8 * k**3)) * n)
    at_least("top-weight-floor", "min weight over L'",
             min((x[v] for v in part.top), default=None), 1 - 1 / (16 * k**3))

    # every neighborhood carries almost k units of weight: (Ax)_v
    nbr = _neighbours(g)
    xv = np.asarray(x)
    at_least("neighborhood-weight-floor", "min_v sum of weights over N(v)",
             float(_matvec(nbr, xv).min()), k - 1 / (16 * k**2))

    # the exceptional class vanishes; the common neighborhood is nearly independent
    add("exceptional-empty", f"|E| = {len(part.exceptional)}", "0", "==",
        float(-len(part.exceptional)))
    at_most("common-neighborhood-edges", "e(R)",
            _edges_between(g, part.common, part.common) // 2, 1)

    # connectivity and the global weight floor
    ncomp = len(g.components())
    add("connected", f"components = {ncomp}", "1", "==", float(1 - ncomp))
    at_least("weight-floor", "min weight", min(x), 1 / lam if lam > 0 else 0.0)

    # radius window
    at_most("radius-upper", "radius", lam, math.sqrt((4 * k + 2) * n), "<")
    at_least("radius-lower", "radius", lam,
             split_radius_closed_form(n, k) if k < n else float(k - 1))

    # the mechanism ruling out a nonempty exceptional class: its induced
    # subgraph would need spectral radius at least (4 / 5k) of the whole
    if part.exceptional:
        sub = g.subgraph(part.exceptional)
        sub_lam = spectral_radius(sub, tol=max(tol, 1e-10)).radius
    else:
        sub_lam = 0.0
    at_least("exceptional-subgraph-radius", "radius of G[E]", sub_lam, 4 * lam / (5 * k))

    # second-degree eigen identity, evaluated with the computed pair; drift
    # beyond 10 tol n is numeric rather than structural
    dev = float(np.max(np.abs(_matvec(nbr, _matvec(nbr, xv)) - lam * lam * xv)))
    at_most("second-degree-residual", "max deviation", dev, 10 * tol * n)

    return AuditReport(tuple(entries))
