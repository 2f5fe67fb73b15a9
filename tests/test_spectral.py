import hashlib
import math
import random

import numpy as np
import pytest

from oracles import eig_radius

from spexlab import spectral
from spexlab.errors import ConvergenceError, ParameterError
from spexlab.graphs import (
    Graph,
    bipartite_plus_edge,
    bipartite_plus_matching,
    bipartite_plus_path,
    clique,
    complete_bipartite,
    complete_split,
    complete_split_plus,
    construct,
    cycle,
    disjoint_union,
    from_edges,
    path_graph,
)
from spexlab.search import enumerate_graphs
from spexlab.spectral import (
    DENSE_LIMIT,
    _matvec,
    _neighbours,
    audit_extremal_lemmas,
    classify_vertices,
    constants_with,
    default_constants,
    spectral_radius,
    split_radius_closed_form,
)


def random_connected(rng, n, p=0.35):
    while True:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        g = from_edges(n, edges)
        if g.is_connected():
            return g


def test_single_edge():
    p = spectral_radius(complete_bipartite(1, 1))
    assert p.radius == pytest.approx(1.0, abs=1e-12)
    assert p.vector == (1.0, 1.0)
    assert p.residual <= 1e-12


def test_four_cycle():
    assert spectral_radius(cycle(4)).radius == pytest.approx(2.0, abs=1e-12)


def test_complete_bipartite_2_8():
    # radius of K_{a,b} is sqrt(ab)
    assert spectral_radius(complete_bipartite(2, 8)).radius == pytest.approx(4.0, abs=1e-11)


def test_split_5_2_quotient_values():
    # two-class quotient of S(5,2): radius solves x^2 - x - 6 = 0, so x = 3,
    # and the independent-class weight is k/radius = 2/3
    p = spectral_radius(complete_split(5, 2))
    assert abs(p.radius - 3.0) <= 1e-9
    for v in (2, 3, 4):
        assert p.vector[v] == pytest.approx(2 / 3, abs=1e-9)
    assert p.vector[0] == 1.0 or p.vector[1] == 1.0
    assert p.z in (0, 1)


def test_closed_form_spot_values():
    assert split_radius_closed_form(5, 2) == pytest.approx(3.0, abs=1e-12)
    assert split_radius_closed_form(30, 2) == pytest.approx(8.0, abs=1e-12)
    assert split_radius_closed_form(12, 2) == pytest.approx(5.0, abs=1e-12)
    assert split_radius_closed_form(10, 1) == pytest.approx(3.0, abs=1e-12)
    with pytest.raises(ParameterError):
        split_radius_closed_form(5, 5)


def test_closed_form_against_power_iteration():
    for k in range(2, 6):
        for n in range(k + 1, 61, 5):
            got = spectral_radius(complete_split(n, k)).radius
            assert abs(got - split_radius_closed_form(n, k)) <= 1e-9


def test_closed_form_lower_bound():
    # sqrt(kn) <= closed form holds exactly when n >= k^3/(k-1)^2; below
    # that (k=2 with n in {6,7}) the inequality genuinely reverses
    for k in range(2, 6):
        for n in range(2 * k + 2, 80):
            expect = n >= k**3 / (k - 1) ** 2
            holds = split_radius_closed_form(n, k) >= math.sqrt(k * n) * (1 - 1e-9)
            assert holds == expect


def test_against_dense_eigensolver():
    rng = random.Random(101)
    for _ in range(60):
        g = random_connected(rng, rng.randint(2, 10))
        assert spectral_radius(g).radius == pytest.approx(eig_radius(g), abs=1e-9)


def test_residual_contract():
    rng = random.Random(7)
    graphs = [complete_split(40, 3), cycle(9), path_graph(12), clique(7)]
    graphs += [random_connected(rng, 8) for _ in range(20)]
    for g in graphs:
        p = spectral_radius(g)
        assert p.residual <= 1e-12
        assert max(p.vector) == 1.0
        assert min(p.vector) >= 0.0
        adj = g.np_adjacency()
        x = np.asarray(p.vector)
        assert float(np.max(np.abs(adj @ x - p.radius * x))) <= 1e-10


def test_edge_addition_increases_radius():
    rng = random.Random(13)
    for _ in range(40):
        g = random_connected(rng, 8)
        non_edges = [
            (u, v) for u in range(8) for v in range(u + 1, 8) if not g.has_edge(u, v)
        ]
        if not non_edges:
            continue
        u, v = rng.choice(non_edges)
        before = spectral_radius(g).radius
        after = spectral_radius(g.with_edge(u, v)).radius
        assert after > before + 1e-9


def test_start_vector_does_not_matter(monkeypatch):
    rng = random.Random(23)
    g = random_connected(rng, 9)
    base = spectral_radius(g)
    for _ in range(10):
        start = np.array([rng.uniform(0.1, 2.0) for _ in range(9)])
        monkeypatch.setattr(spectral, "_twin_quotient_start", lambda sub, nbr: start)
        other = spectral_radius(g)
        assert max(abs(a - b) for a, b in zip(base.vector, other.vector)) <= 1e-6
        assert other.radius == pytest.approx(base.radius, abs=1e-9)


def test_disconnected_support_and_tiebreak():
    # K3 and C4 share radius 2; K3 has the smaller canonical bytes
    g = disjoint_union(cycle(4), clique(3))
    p = spectral_radius(g)
    assert p.radius == pytest.approx(2.0, abs=1e-12)
    assert [v > 0 for v in p.vector] == [False] * 4 + [True] * 3
    # two copies of the same component: smallest vertex wins
    g = disjoint_union(cycle(4), cycle(4))
    p = spectral_radius(g)
    assert [v > 0 for v in p.vector] == [True] * 4 + [False] * 4
    # the larger radius wins regardless of order
    g = disjoint_union(path_graph(2), clique(4))
    p = spectral_radius(g)
    assert p.radius == pytest.approx(3.0, abs=1e-12)
    assert p.vector[0] == 0.0 and p.vector[2] == 1.0


def test_tiebreak_past_the_recursion_limit():
    # equal components are ordered by canonical form, which labels all 1100
    # vertices of one copy: more than the default recursion limit of 1000
    s = complete_split(1100, 2)
    p = spectral_radius(disjoint_union(s, s))
    assert p.radius == pytest.approx(split_radius_closed_form(1100, 2), rel=1e-12)
    assert [v > 0 for v in p.vector] == [True] * 1100 + [False] * 1100


def test_empty_graph():
    p = spectral_radius(from_edges(3, []))
    assert p.radius == 0.0
    assert p.vector == (1.0, 0.0, 0.0)
    assert p.residual == 0.0


def test_convergence_error_carries_estimate():
    with pytest.raises(ConvergenceError) as err:
        spectral_radius(path_graph(DENSE_LIMIT + 1), max_iterations=2)
    assert err.value.best is not None
    assert err.value.best.radius > 0


def test_split_graphs_match_closed_form_up_to_20000():
    for k in range(2, 6):
        for n in (2 * k + 2, 97, 500, 2000):
            got = spectral_radius(complete_split(n, k)).radius
            assert abs(got - split_radius_closed_form(n, k)) <= 1e-9
    # matrix-free: dense float64 and long-double copies would take 9.6 GB
    p = spectral_radius(complete_split(20000, 2))
    assert abs(p.radius - split_radius_closed_form(20000, 2)) <= 1e-9
    assert p.residual <= 1e-12


def test_complete_bipartite_is_sqrt_ab():
    for a, b in ((1, 3), (2, 8), (3, 7), (5, 400), (40, 60)):
        assert spectral_radius(complete_bipartite(a, b)).radius == pytest.approx(
            math.sqrt(a * b), abs=1e-9)


@pytest.mark.parametrize("family", ["S_plus", "K_plus", "K_path", "K_matching"])
def test_augmented_hosts_match_dense_eigensolver(family):
    for first in (2, 3, 5):
        params = {"n": 60, "k": first} if family == "S_plus" else {"a": first, "b": 60}
        g = construct(family, **params)
        p = spectral_radius(g)
        assert p.residual <= 1e-12
        assert p.radius == pytest.approx(eig_radius(g), abs=1e-9)


def _twin_heavy_hosts():
    return [complete_split(1000, 2), complete_split(301, 5), complete_bipartite(40, 60),
            construct("S_plus", n=400, k=2), construct("K_path", a=3, b=60),
            construct("K_matching", a=2, b=400)]


def _small_classes():
    for n in range(1, 8):
        yield from enumerate_graphs(n)
    yield cycle(9)


def test_twins_get_bitwise_equal_weights():
    for g in _twin_heavy_hosts():
        p = spectral_radius(g)
        for cls in g.twin_classes:
            assert len({p.vector[v] for v in cls}) == 1


def test_perron_data_pinned():
    # every bit of (radius, vector, residual, z) on the small classes, the
    # twin-heavy hosts and a disconnected graph with tied components
    h = hashlib.sha256()
    graphs = list(_small_classes()) + _twin_heavy_hosts() + [disjoint_union(cycle(4), clique(3))]
    for g in graphs:
        p = spectral_radius(g)
        h.update(repr((p.radius, p.vector, p.residual, p.z)).encode())
    assert h.hexdigest() == "3242c1889cfcbd7c56b2fee0f3fe067ffd7381317e57cc552db7ea0e1bdc7234"


def test_dense_start_passes_the_check_in_one_step():
    # the lifted quotient Perron vector is accepted by the first residual
    # measurement on the full graph; from all ones most of these need many
    # steps and would raise ConvergenceError here
    for g in _twin_heavy_hosts() + list(_small_classes()) + [path_graph(DENSE_LIMIT)]:
        assert spectral_radius(g, max_iterations=1).residual <= 1e-12


def test_every_small_class_matches_dense_eigensolver():
    for g in _small_classes():
        p = spectral_radius(g)
        assert p.residual <= 1e-12
        assert p.radius == pytest.approx(eig_radius(g), abs=1e-9)
        assert max(p.vector) == 1.0
        # tied maxima are snapped to 1, so z is the smallest tied vertex
        assert p.z == min(v for v in range(g.n) if p.vector[v] >= 1 - 1e-9)


def _near_tie(m, length):
    # clique on 0..m-1 with pendant paths of `length` at 0 and `length` + 1
    # at 1: vertex 1 has the largest Perron weight, ahead of vertex 0 by a
    # gap that shrinks geometrically with the path length
    edges = [(i, j) for i in range(m) for j in range(i + 1, m)]
    n = m
    for root, extra in ((0, 0), (1, 1)):
        prev = root
        for _ in range(length + extra):
            edges.append((prev, n))
            prev, n = n, n + 1
    return from_edges(n, edges)


@pytest.mark.parametrize("m,length,tol", [(6, 8, 1e-12), (6, 9, 1e-14), (5, 10, 1e-14)])
def test_near_tied_maxima_are_not_snapped_past_the_tolerance(m, length, tol):
    # gaps 3.3e-13, 1.5e-14 and 9.2e-14: below 1e-12, but snapping vertex 0
    # up to 1 would move its residual by about radius * gap > tol
    g = _near_tie(m, length)
    p = spectral_radius(g, tol=tol)
    assert p.residual <= tol
    assert p.radius == pytest.approx(eig_radius(g), abs=1e-9)
    assert p.z == 1
    assert 0 < 1 - p.vector[0] < 1e-12


def test_tolerance_validation():
    for tol in (0.0, -1e-12, math.nan, math.inf):
        with pytest.raises(ParameterError):
            spectral_radius(cycle(4), tol=tol)
    for budget in (0, -5):
        with pytest.raises(ParameterError):
            spectral_radius(cycle(4), max_iterations=budget)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_matvec_matches_dense_product(dtype):
    # every class with n <= 6, the edgeless ones and isolated vertices included
    rng = np.random.default_rng(5)
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            adj = g.np_adjacency().astype(dtype)
            nbr = _neighbours(g)
            x = rng.uniform(0.1, 2.0, n).astype(dtype)
            got = _matvec(nbr, x)
            assert got.dtype == dtype
            assert np.max(np.abs(got - adj @ x)) <= 1e-12
            x = rng.integers(1, 1000, n).astype(dtype)
            assert np.array_equal(_matvec(nbr, x), adj @ x)


def test_no_dense_adjacency(monkeypatch):
    def refuse(self):
        raise AssertionError("dense adjacency built")

    monkeypatch.setattr(Graph, "np_adjacency", refuse)
    c = default_constants(2)
    for g in (complete_split(1000, 2), disjoint_union(cycle(4), from_edges(3, []))):
        p = spectral_radius(g)
        assert p.residual <= 1e-12
        assert len(audit_extremal_lemmas(g, c, p).entries) == 18


# ---------------------------------------------------------------------------
# constants


def test_default_constants_k2_values():
    c = default_constants(2)
    second = (1 / (6 * 64)) * (63 - 4 * 127 / 10)
    assert second == pytest.approx(12.2 / 384, abs=1e-15)
    assert c.eta == pytest.approx(0.9 * min(1 / 20, second), abs=1e-15)
    assert c.eta == pytest.approx(0.0285937, abs=1e-7)
    # the eta/(32k^3+2) term is the binding epsilon bound at k=2
    assert c.epsilon == pytest.approx(0.9 * c.eta / 258, abs=1e-18)
    assert c.alpha == pytest.approx(0.9 * c.epsilon**2 / 44, rel=1e-12)
    assert c.delta == c.epsilon * c.alpha / 2000
    assert c.satisfies_chain


@pytest.mark.parametrize("k", range(2, 8))
def test_default_constants_chain(k):
    c = default_constants(k)
    assert 0 < c.delta < c.alpha < min(c.eta, c.epsilon**2 / (22 * k))
    assert c.epsilon < min(c.eta / 2, 1 / (8 * k**3), c.eta / (32 * k**3 + 2))
    assert c.eta < 1 / (10 * k)
    assert constants_with(k).satisfies_chain


def test_constants_overrides():
    c = constants_with(2, eta=0.5)
    assert c.eta == 0.5 and not c.satisfies_chain
    assert c.delta == c.epsilon * c.alpha / 2000
    with pytest.raises(ParameterError):
        constants_with(2, alpha=-1.0)
    with pytest.raises(ParameterError):
        default_constants(1)


# ---------------------------------------------------------------------------
# classification


def test_classify_split_12_2_with_large_eta():
    g = complete_split(12, 2)
    p = spectral_radius(g)
    c = constants_with(2, eta=0.5)
    part = classify_vertices(g, p, c)
    # radius 5, independent weight 2/5 = 0.4 < 0.5
    assert part.top == (0, 1)
    assert part.large == tuple(range(12))
    assert part.small == ()
    assert part.common == tuple(range(2, 12))
    assert part.exceptional == ()


def test_classify_all_top_when_eta_below_indep_weight():
    g = complete_split(12, 2)
    p = spectral_radius(g)
    c = constants_with(2, eta=0.3)  # below 0.4
    part = classify_vertices(g, p, c)
    assert part.top == tuple(range(12))
    assert part.common == ()
    assert part.exceptional == ()


def test_partition_invariants():
    rng = random.Random(41)
    for _ in range(15):
        g = random_connected(rng, 9)
        p = spectral_radius(g)
        c = default_constants(2)
        part = classify_vertices(g, p, c)
        assert set(part.large) | set(part.small) == set(range(9))
        assert set(part.large) & set(part.small) == set()
        assert set(part.large) <= set(part.mid)
        assert set(part.top) <= set(part.large)
        assert set(part.top) & set(part.common) == set()
        assert set(part.top) | set(part.common) | set(part.exceptional) == set(range(9))


# ---------------------------------------------------------------------------
# audit


def test_audit_on_regular_graph_reports_failures():
    g = cycle(9)
    p = spectral_radius(g)
    c = default_constants(2)
    report = audit_extremal_lemmas(g, c, p)
    entry = report.entry("top-weight-size")
    assert not entry.passed
    assert entry.margin == 7.0  # |L'| = 9 vs k = 2
    assert report.entry("connected").passed
    assert report.entry("weight-floor").passed


def test_audit_margins_recompute():
    g = complete_split(40, 2)
    p = spectral_radius(g)
    c = default_constants(2)
    report = audit_extremal_lemmas(g, c, p)
    e = report.entry("radius-upper")
    assert e.margin == pytest.approx(math.sqrt(10 * 40) - p.radius, abs=1e-9)
    e = report.entry("neighborhood-weight-floor")
    weights = [sum(p.vector[u] for u in g.neighbors(v)) for v in range(40)]
    assert e.margin == pytest.approx(min(weights) - (2 - 1 / 64), abs=1e-12)
    e = report.entry("common-neighborhood-edges")
    assert e.passed and e.margin == 1.0


def test_audit_never_raises_on_failures():
    rng = random.Random(4242)
    c = default_constants(2)
    for _ in range(10):
        g = random_connected(rng, 8)
        report = audit_extremal_lemmas(g, c, spectral_radius(g))
        assert len(report.entries) == 18
        for e in report.entries:
            assert isinstance(e.passed, bool)


def test_audit_json_round_trip():
    import json

    g = complete_split(20, 2)
    report = audit_extremal_lemmas(g, default_constants(2), spectral_radius(g))
    for d in report.to_dicts():
        parsed = json.loads(json.dumps(d))
        assert set(parsed) == {"lemma", "inequality", "pass", "margin"}


# ---------------------------------------------------------------------------
# audit pins: each entry's outcome is the sign of its margin under its relation


def _audit_corpus():
    """(graph, k) pairs: reference graphs, hosts, small classes, random graphs."""
    corpus = []
    for k in (2, 3, 4):
        for n in (2 * k + 2, 3 * k + 2, 3 * k + 3, 50, 200, 1000):
            corpus += [(complete_split(n, k), k), (complete_split_plus(n, k), k)]
    for a in (2, 3):
        for b in (2 * a + 1, 2 * a + 2, 30):
            for host in (complete_bipartite, bipartite_plus_edge, bipartite_plus_path,
                         bipartite_plus_matching):
                corpus.append((host(a, b), a))
    corpus += [(path_graph(t), 2) for t in (1, 2, 5, 12)]
    corpus += [(cycle(t), 2) for t in (3, 4, 9)]
    corpus += [(clique(t), 2) for t in (1, 3, 6)]
    corpus.append((disjoint_union(cycle(4), complete_split(7, 2)), 2))
    corpus.append((from_edges(5, []), 2))
    for n in range(1, 7):
        corpus += [(g, 2) for g in enumerate_graphs(n)]
    rng = random.Random(1107)
    for _ in range(20):
        n = rng.randint(7, 11)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        corpus.append((from_edges(n, edges), 2))
    return corpus


def _constant_sets(k):
    # the last set puts alpha and eta above every Perron weight, so the
    # minimum-over-a-class entries are vacuous
    return (constants_with(k), constants_with(k, eta=0.5),
            constants_with(k, alpha=1e-3, epsilon=0.01), constants_with(k, eta=2.0, alpha=1.5))


@pytest.fixture(scope="module")
def audit_corpus_reports():
    out = []
    for g, k in _audit_corpus():
        p = spectral_radius(g)
        for c in _constant_sets(k):
            out.append((c, audit_extremal_lemmas(g, c, p)))
    return out


def test_audit_corpus_pinned(audit_corpus_reports):
    # sha256 of every report and its constants, computed before pass/fail
    # was derived from the margins; any changed entry, margin or constant
    # changes it
    h = hashlib.sha256()
    for c, report in audit_corpus_reports:
        h.update((repr(report.to_dicts()) + repr(c)).encode())
    assert len(audit_corpus_reports) == 4 * len(_audit_corpus())
    assert h.hexdigest() == (
        "4b23fbc2963ccbdd684ad13c7683b8fca7a1ce64d0cd9ad8aecc4ed1e53f79ee"
    )


def test_audit_pass_is_margin_sign(audit_corpus_reports):
    def rule(relation, margin):
        if margin is None:
            return True
        if relation == "==":
            return margin == 0
        if relation == "<":
            return margin > 0
        assert relation in ("<=", ">=")
        return margin >= 0

    failing = vacuous = 0
    for _, report in audit_corpus_reports:
        for e in report.entries:
            relation = e.inequality.split(" ")[-2]
            assert e.passed == rule(relation, e.margin), e
            failing += not e.passed
            vacuous += e.margin is None
    # the corpus exercises the failing side and the vacuous case too
    assert failing > 1000 and vacuous > 100


@pytest.mark.parametrize("k", range(2, 21))
def test_constants_with_defaults_are_the_default_chain(k):
    assert constants_with(k) == default_constants(k)
