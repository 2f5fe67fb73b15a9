"""Acceptance suite: one test per criterion, each printing a PASS line.

Budgets are asserted as stated; every expected value is either derived by an
independent oracle in this file, pinned from an offline oracle run, or a
closed-form evaluation.
"""

import random
import time

import pytest

from oracles import naive_contains

from spexlab.canon import canonical_form
from spexlab.embed import contains_tree, embed_constructive, family_membership
from spexlab.graph6 import decode
from spexlab.graphs import (
    complete_bipartite,
    complete_split,
    complete_split_plus,
    from_edges,
    path_graph,
)
from spexlab.search import enumerate_graphs, ex_search, spex_search
from spexlab.spectral import (
    audit_extremal_lemmas,
    classify_vertices,
    default_constants,
    spectral_radius,
    split_radius_closed_form,
)
from spexlab.trees import generate_trees, tree_from_graph


def announce(criterion, started, detail=""):
    took = time.perf_counter() - started
    print(f"[acceptance {criterion}] PASS in {took:.1f}s {detail}")
    return took


def independent_check(host, pattern, mapping):
    assert len(set(mapping)) == pattern.n
    for u, v in pattern.edges():
        assert host.has_edge(mapping[u], mapping[v])


def test_criterion_1_closed_form_radius():
    started = time.perf_counter()
    for k in range(2, 6):
        for n in range(k + 1, 61):
            p = spectral_radius(complete_split(n, k))
            assert abs(p.radius - split_radius_closed_form(n, k)) <= 1e-9
    for n, k, value in ((5, 2, 3.0), (12, 2, 5.0), (30, 2, 8.0)):
        assert abs(spectral_radius(complete_split(n, k)).radius - value) <= 1e-9
    assert announce(1, started, "closed form matches power iteration, k=2..5, n<=60") < 10


def test_criterion_2_path_exclusions():
    started = time.perf_counter()
    for k in (2, 3, 4):
        long_path = tree_from_graph(path_graph(2 * k + 2))
        longer_path = tree_from_graph(path_graph(2 * k + 3))
        assert contains_tree(complete_split(30, k), long_path) is None
        assert contains_tree(complete_split_plus(30, k), longer_path) is None
    assert announce(2, started, "paths excluded from split graphs, k=2..4") < 5


def test_criterion_3_bipartite_host_totality():
    started = time.perf_counter()
    for m in range(2, 11):
        host = complete_bipartite(m // 2, m - 1)
        for tree in generate_trees(m):
            emb = embed_constructive(tree, "K", m // 2, m - 1)
            independent_check(host, tree.graph, emb.mapping)
    assert announce(3, started, "all trees on 2..10 vertices embed constructively") < 30


def test_criterion_4_augmented_host_totality():
    started = time.perf_counter()
    for k in (2, 3, 4):
        from spexlab.graphs import (
            bipartite_plus_edge,
            bipartite_plus_matching,
            bipartite_plus_path,
        )

        host = bipartite_plus_edge(k, 2 * k + 1)
        for tree in generate_trees(2 * k + 2):
            emb = embed_constructive(tree, "K_plus", k, 2 * k + 1)
            independent_check(host, tree.graph, emb.mapping)
        host_p = bipartite_plus_path(k, 2 * k + 2)
        host_m = bipartite_plus_matching(k, 2 * k + 2)
        for tree in generate_trees(2 * k + 3):
            emb = embed_constructive(tree, "K_path", k, 2 * k + 2)
            independent_check(host_p, tree.graph, emb.mapping)
            emb = embed_constructive(tree, "K_matching", k, 2 * k + 2)
            independent_check(host_m, tree.graph, emb.mapping)
    assert announce(4, started, "augmented hosts contain their families, k=2..4") < 120


# (t, index in family order, n) where the idealized lower bound (t-2)n/2
# exceeds the true extremal count; the bound drops the floor in
# floor(n/(t-1)) * C(t-1,2), so it overshoots when t-1 does not divide n
SANDWICH_LOWER_EXCEPTIONS = {
    (3, 0, 3), (3, 0, 5), (3, 0, 7),
    (4, 0, 4), (4, 0, 5), (4, 0, 7), (4, 0, 8),
    (5, 0, 5), (5, 0, 6), (5, 0, 7),
    (5, 1, 5), (5, 1, 6), (5, 1, 7),
    (5, 2, 5), (5, 2, 7),
}


@pytest.mark.xfail(
    strict=True,
    reason="the idealized lower bound (t-2)n/2 genuinely fails when t-1 does "
    "not divide n, e.g. ex(3, P_3) = 1 < 1.5; the floor-corrected bound and "
    "the upper bound hold everywhere (see the characterized variant)",
)
def test_criterion_5_turan_sandwich_as_stated():
    for t in range(2, 6):
        for tree in generate_trees(t):
            for n in range(t, 9):
                best = ex_search(n, tree, workers=1).best_value
                assert best >= (t - 2) * n / 2
                assert best <= (t - 2) * n


def test_criterion_5_turan_sandwich_characterized():
    started = time.perf_counter()
    seen_exceptions = set()
    for t in range(2, 6):
        for index, tree in enumerate(generate_trees(t)):
            for n in range(t, 9):
                report = ex_search(n, tree, workers=1)
                best = report.best_value
                assert best <= (t - 2) * n
                assert best >= (n // (t - 1)) * ((t - 1) * (t - 2) // 2)
                stated_ok = best >= (t - 2) * n / 2
                assert report.comparison["lower_ok"] == stated_ok
                assert report.comparison["upper_ok"]
                if not stated_ok:
                    seen_exceptions.add((t, index, n))
    assert seen_exceptions == SANDWICH_LOWER_EXCEPTIONS
    p4 = tree_from_graph(path_graph(4))
    assert ex_search(6, p4, workers=1).best_value == 6
    star = tree_from_graph(from_edges(4, [(0, 1), (0, 2), (0, 3)]))
    assert ex_search(5, star, workers=1).best_value == 5
    assert announce(5, started, "floor-corrected sandwich, 15 pinned exceptions") < 300


def test_criterion_6_enumeration_counts():
    started = time.perf_counter()
    want = {6: 156, 7: 1044, 8: 12346}
    for n, count in want.items():
        assert sum(1 for _ in enumerate_graphs(n)) == count
    assert announce(6, started, "156 / 1044 / 12346 classes at n = 6 / 7 / 8") < 120


def test_criterion_7_spex_certification():
    started = time.perf_counter()
    records = {}
    for n in (6, 7, 8, 9):
        first = spex_search(n, 2, workers=4)
        second = spex_search(n, 2, workers=1)
        assert first.to_json() == second.to_json()
        report = first
        assert report.best_value >= split_radius_closed_form(n, 2) - 1e-9
        family = generate_trees(6)
        for g6 in report.argmax:
            g = decode(g6)
            # in-family re-verified by the raw injective-map oracle
            assert any(not naive_contains(g, t.graph) for t in family)
            assert family_membership(g, family).in_family
            assert abs(spectral_radius(g).radius - report.best_value) <= 1e-9
        records[n] = report.comparison["argmax_is_reference"]
    # the split graph takes over the argmax at n = 9 for k = 2
    assert records[9] is True
    assert records[6] is False
    took = announce(7, started, f"argmax matches split graph: {records}")
    assert took < 900


def test_criterion_8_perron_structure_at_scale():
    started = time.perf_counter()
    g = complete_split(2500, 2)
    p = spectral_radius(g)
    assert p.residual <= 1e-12
    constants = default_constants(2)
    part = classify_vertices(g, p, constants)
    assert part.top == (0, 1)
    assert len(part.top) == 2
    assert part.exceptional == ()
    report = audit_extremal_lemmas(g, constants, p)
    assert report.entry("exceptional-empty").passed
    entry = report.entry("common-neighborhood-edges")
    assert entry.passed and entry.margin == 1.0  # e(R) = 0
    entry = report.entry("neighborhood-weight-floor")
    assert entry.passed and entry.margin >= 1 / 64 - 1e-9
    assert announce(8, started, "S(2500,2): |L'|=2, E empty, e(R)=0, weight floor") < 30


def test_criterion_9_numerical_properties():
    started = time.perf_counter()
    rng = random.Random(90210)

    def random_connected(n):
        while True:
            edges = [
                (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.35
            ]
            g = from_edges(n, edges)
            if g.is_connected():
                return g

    corpus = [complete_split(40, 3), complete_split(60, 5), path_graph(12)]
    corpus += [random_connected(8) for _ in range(20)]
    for g in corpus:
        assert spectral_radius(g).residual <= 1e-12

    for _ in range(100):
        g = random_connected(8)
        non_edges = [
            (u, v) for u in range(8) for v in range(u + 1, 8) if not g.has_edge(u, v)
        ]
        if not non_edges:
            continue
        u, v = rng.choice(non_edges)
        assert (
            spectral_radius(g.with_edge(u, v)).radius
            > spectral_radius(g).radius + 1e-9
        )

    base = random_connected(8)
    want = canonical_form(base).data
    for _ in range(1000):
        perm = list(range(8))
        rng.shuffle(perm)
        assert canonical_form(base.relabel(tuple(perm))).data == want
    assert announce(9, started, "residuals, monotone radius, canonical stability") < 60
