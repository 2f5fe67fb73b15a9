import hashlib
import itertools

import pytest

from oracles import all_labeled_graphs, eig_radius, naive_contains

from spexlab import search
from spexlab.canon import canonical_form, canonical_g6, is_canonically_labeled
from spexlab.errors import ParameterError
from spexlab.graph6 import decode, encode
from spexlab.graphs import complete_split, from_edges, path_graph
from spexlab.search import enumerate_graphs, ex_search, spex_search
from spexlab.spectral import split_radius_closed_form
from spexlab.trees import generate_trees, tree_from_graph

# isomorphism classes of simple graphs (all / connected) by vertex count
CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346, 9: 274668}
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117, 9: 261080}


@pytest.mark.parametrize("n", range(1, 7))
def test_class_counts_small(n):
    assert sum(1 for _ in enumerate_graphs(n)) == CLASS_COUNTS[n]


def test_class_counts_7(graphs_on_7):
    assert len(graphs_on_7) == CLASS_COUNTS[7]


def test_class_counts_8(graphs_on_8):
    assert len(graphs_on_8) == CLASS_COUNTS[8]


def test_stream_8_pinned(graphs_on_8):
    # the orderly stream's order and labellings, not just its size
    stream = "".join(encode(g) + "\n" for g in graphs_on_8)
    assert hashlib.sha256(stream.encode()).hexdigest() == (
        "982ab91a9236af4ed0cbeaf5f47f10d1e41a821d7d3f3b191109d302fe0e41d6"
    )


@pytest.mark.slow
def test_class_counts_9():
    # the exhaustive n = 9 gate (A000088, A001349), in one walk
    total = connected = 0
    for g in enumerate_graphs(9):
        total += 1
        connected += g.is_connected()
    assert (total, connected) == (CLASS_COUNTS[9], CONNECTED_COUNTS[9])


@pytest.mark.parametrize("n", range(1, 7))
def test_connected_counts(n):
    assert sum(1 for _ in enumerate_graphs(n, connected_only=True)) == CONNECTED_COUNTS[n]


@pytest.mark.parametrize("n", range(1, 6))
def test_against_labeled_dedup_oracle(n):
    oracle = {canonical_form(g).data for g in all_labeled_graphs(n)}
    stream = list(enumerate_graphs(n))
    assert len(stream) == len(oracle)
    assert {canonical_form(g).data for g in stream} == oracle


@pytest.mark.slow
def test_against_labeled_dedup_oracle_6():
    oracle = {canonical_form(g).data for g in all_labeled_graphs(6)}
    assert {canonical_form(g).data for g in enumerate_graphs(6)} == oracle


def _last_position(g):
    return max((j * (j - 1) // 2 + i for i, j in g.edges()), default=-1)


def test_twin_swap_skips_only_rejected_children(graphs_on_7):
    # every child the walker skips untested fails the accept test it skips
    skipped = 0
    for g in [h for n in range(1, 7) for h in enumerate_graphs(n)] + graphs_on_7:
        pairs = [(i, j) for j in range(1, g.n) for i in range(j)]
        for pos in range(_last_position(g) + 1, len(pairs)):
            i, j = pairs[pos]
            if search._first_image(g.twin_masks, i, j) < pos:
                skipped += 1
                assert not is_canonically_labeled(g.with_edge(i, j)), (encode(g), i, j)
    assert skipped > 0


def test_orbit_skip_skips_only_rejected_children(graphs_on_7):
    # the automorphisms an accepted test hands back prune only children that
    # the accept test would reject
    skipped = 0
    for g in [h for n in range(1, 7) for h in enumerate_graphs(n)] + graphs_on_7:
        gens = []
        assert is_canonically_labeled(g, gens)
        twins = g.twin_masks
        pairs = [(i, j) for j in range(1, g.n) for i in range(j)]
        for pos in range(_last_position(g) + 1, len(pairs)):
            i, j = pairs[pos]
            if search._first_image(twins, i, j) < pos:
                continue
            if search._orbit_earlier(gens, twins, i, j, pos):
                skipped += 1
                assert not is_canonically_labeled(g.with_edge(i, j)), (encode(g), i, j)
    assert skipped > 0


def test_stream_is_deterministic_and_canonically_labeled():
    first = [g.rows for g in enumerate_graphs(6)]
    second = [g.rows for g in enumerate_graphs(6)]
    assert first == second
    for g in enumerate_graphs(5):
        assert canonical_form(g).relabeling == tuple(range(g.n))


def test_round_trip_all_six_vertex_classes():
    for g in enumerate_graphs(6):
        assert decode(encode(g)).rows == g.rows


def test_enumerate_bounds():
    with pytest.raises(ParameterError):
        list(enumerate_graphs(0))
    with pytest.raises(ParameterError):
        list(enumerate_graphs(11))


# ---------------------------------------------------------------------------
# ex search


def tree_of(g):
    return tree_from_graph(g)


def test_ex_spot_values():
    p4 = tree_of(path_graph(4))
    r = ex_search(6, p4, workers=1)
    assert r.best_value == 6  # two disjoint triangles
    assert r.in_family_count > 0
    p3 = tree_of(path_graph(3))
    assert ex_search(6, p3, workers=1).best_value == 3  # perfect matching
    star = tree_of(from_edges(4, [(0, 1), (0, 2), (0, 3)]))
    r = ex_search(5, star, workers=1)
    assert r.best_value == 5  # the 5-cycle
    assert decode(r.argmax[0]).degrees() == (2, 2, 2, 2, 2)


def test_ex_argmax_reverifies():
    tree = tree_of(path_graph(4))
    r = ex_search(7, tree, workers=1)
    for g6 in r.argmax:
        g = decode(g6)
        assert g.edge_count == r.best_value
        assert not naive_contains(g, tree.graph)


EX_TREE = tree_of(from_edges(5, [(0, 1), (1, 2), (2, 3), (2, 4)]))


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_ex_ground_truth_matches_pruned(workers):
    a = ex_search(7, EX_TREE, prune=False, workers=workers)
    b = ex_search(7, EX_TREE, prune=True, workers=workers)
    assert a.candidates_examined == CLASS_COUNTS[7]
    assert a.best_value == b.best_value
    assert a.argmax == b.argmax
    assert a.in_family_count == b.in_family_count
    assert a.to_json() == ex_search(7, EX_TREE, prune=False, workers=1).to_json()
    assert b.to_json() == ex_search(7, EX_TREE, workers=1).to_json()


def test_parent_examines_every_class_when_the_tree_is_small(monkeypatch):
    # 11 classes on 4 vertices never reach 4 * UNITS_PER_WORKER units on a level
    def no_pool(method):
        raise AssertionError("no pool expected")

    monkeypatch.setattr(search, "get_context", no_pool)
    p4 = tree_of(path_graph(4))
    a = ex_search(4, p4, prune=False, workers=4)
    assert a.candidates_examined == CLASS_COUNTS[4]
    assert a.to_json() == ex_search(4, p4, prune=False, workers=1).to_json()


class _SerialPool:
    """Stands in for a process pool: records the units, scans them in reverse."""

    def __init__(self, processes):
        self.processes, self.units = processes, []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap_unordered(self, fn, units, chunksize):
        assert chunksize == 1
        self.units = list(units)
        return map(fn, reversed(self.units))


@pytest.fixture
def serial_pools(monkeypatch):
    """Every pool the search opens, as a ``_SerialPool``; no process starts."""
    pools = []

    class Context:
        def Pool(self, processes):
            pools.append(_SerialPool(processes))
            return pools[-1]

    monkeypatch.setattr(search, "get_context", lambda method: Context())
    return pools


def test_split_gives_every_worker_enough_units(serial_pools, monkeypatch):
    monkeypatch.setattr(search.os, "cpu_count", lambda: 2)
    report = spex_search(7, 2, workers=2).to_json()
    (pool,) = serial_pools
    assert pool.processes == 2
    assert len(pool.units) >= 2 * search.UNITS_PER_WORKER
    assert report == spex_search(7, 2, workers=1).to_json()


def test_workers_are_capped_at_the_cpu_count(serial_pools, monkeypatch):
    monkeypatch.setattr(search.os, "cpu_count", lambda: 2)
    report = spex_search(7, 2, workers=10**6).to_json()
    assert report == spex_search(7, 2, workers=2).to_json()
    capped, two = serial_pools
    assert capped.processes == two.processes == 2
    assert capped.units == two.units  # the split follows the capped count too
    assert report == spex_search(7, 2, workers=1).to_json()


@pytest.mark.parametrize("cpus,processes", [(3, 3), (None, None)])
def test_default_workers_is_the_machine_parallelism(cpus, processes, serial_pools, monkeypatch):
    monkeypatch.setattr(search.os, "cpu_count", lambda: cpus)
    report = spex_search(7, 2).to_json()
    assert [pool.processes for pool in serial_pools] == ([processes] if processes else [])
    assert report == spex_search(7, 2, workers=1).to_json()


@pytest.mark.parametrize(
    "n,prune,digest",
    [
        (7, True, "4ef0567d4a764d2e0a14d6afb2dfb89088800629d1e7d68f0aa549b7e224808d"),
        (7, False, "2e362d6fc71f0904010b4aca97539596fe476dde7bb4dcd0185378674e74a36c"),
        (8, True, "e5a9959ecec58a2d8c61903b8bcc5e2bb7d088623196912fcf38cbc3adc030b3"),
    ],
)
def test_ex_reports_pinned(n, prune, digest):
    report = ex_search(n, EX_TREE, prune=prune, workers=1).to_json()
    assert hashlib.sha256(report.encode()).hexdigest() == digest


def test_ex_sandwich_recorded():
    r = ex_search(8, tree_of(path_graph(5)), workers=1)
    assert r.comparison["sandwich_lower"] == 12.0
    assert r.comparison["sandwich_upper"] == 24.0
    assert r.comparison["lower_ok"] and r.comparison["upper_ok"]


def test_ex_parameter_errors():
    with pytest.raises(ParameterError):
        ex_search(11, tree_of(path_graph(4)))
    with pytest.raises(ParameterError):
        ex_search(3, tree_of(path_graph(4)))
    with pytest.raises(ParameterError):
        ex_search(5, tree_of(from_edges(1, [])))


# ---------------------------------------------------------------------------
# spex search


def test_spex_6_2_beats_split_graph():
    r = spex_search(6, 2, workers=1)
    assert r.best_value == pytest.approx(4.0, abs=1e-9)
    assert r.comparison["dominates_closed_form"]
    assert not r.comparison["argmax_contains_reference"]
    # winners: the octahedron (misses the star) and K5 + isolated (misses the path)
    winners = [decode(s) for s in r.argmax]
    assert sorted(sorted(g.degrees()) for g in winners) == [
        [0, 4, 4, 4, 4, 4],
        [4, 4, 4, 4, 4, 4],
    ]


def test_spex_9_2_is_the_split_graph():
    r = spex_search(9, 2, workers=1)
    assert r.comparison["argmax_is_reference"]
    assert r.best_value == pytest.approx(split_radius_closed_form(9, 2), abs=1e-9)
    assert r.in_family_count > 0


def test_spex_dominance_and_reverification():
    for n in (6, 7):
        r = spex_search(n, 2, workers=1)
        assert r.best_value >= split_radius_closed_form(n, 2) - 1e-9
        fam = generate_trees(6)
        for g6 in r.argmax:
            g = decode(g6)
            missing = [t for t in fam if not naive_contains(g, t.graph)]
            assert missing
            assert eig_radius(g) == pytest.approx(r.best_value, abs=1e-9)


def test_spex_ground_truth_matches_pruned():
    a = spex_search(7, 2, prune=False, workers=1)
    b = spex_search(7, 2, prune=True, workers=1)
    assert a.candidates_examined == CLASS_COUNTS[7]
    assert b.candidates_examined < a.candidates_examined
    assert a.best_value == b.best_value
    assert a.argmax == b.argmax
    assert a.in_family_count == b.in_family_count


def test_spex_reports_identical_across_workers_and_split(monkeypatch):
    # the split follows the worker count, so each count cuts its own units
    monkeypatch.setattr(search.os, "cpu_count", lambda: 4)  # workers are capped there
    base = spex_search(7, 2, workers=1).to_json()
    assert hashlib.sha256(base.encode()).hexdigest() == (
        "01bbe43e4b433bbaeb433c995cfdd2fe37da3488fc97caa88a5da48f84c673a8"
    )
    for workers in (2, 4):
        assert spex_search(7, 2, workers=workers).to_json() == base


@pytest.mark.parametrize("prune", [True, False])
def test_carried_missing_sets_match_naive_containment(monkeypatch, prune):
    fam = generate_trees(6)
    real = search._process
    seen = {}

    def recorded(state, g, cfg, parent_missing):
        missing = real(state, g, cfg, parent_missing)
        seen[g.rows] = (g, missing)
        return missing

    monkeypatch.setattr(search, "_process", recorded)
    r = spex_search(7, 2, prune=prune, workers=1)
    assert len(seen) == r.candidates_examined
    for g, missing in seen.values():
        naive = tuple(i for i, t in enumerate(fam) if not naive_contains(g, t.graph))
        # pruning returns None for a class that contains every tree
        assert missing == (None if prune and not naive else naive)


def test_spex_connected_only_same_best():
    for n in (6, 7, 8):
        unrestricted = spex_search(n, 2, workers=1)
        connected = spex_search(n, 2, connected_only=True, workers=1)
        assert connected.best_value == pytest.approx(unrestricted.best_value, abs=1e-12)
        assert connected.in_family_count <= unrestricted.in_family_count


def test_spex_prime_runs():
    r = spex_search(7, 2, prime=True, workers=1)
    assert r.family_kind == "all trees on 7 vertices"
    assert r.best_value >= split_radius_closed_form(7, 2) - 1e-9
    ref = canonical_g6(complete_split(7, 2))
    assert r.comparison["reference_g6"] != ref  # reference is the plus graph


def test_spex_8_2_reference_among_exact_ties():
    # the split graph on (8,2) has radius exactly 4 and ties the degree-4
    # family, so it sits inside the argmax without being alone
    r = spex_search(8, 2, workers=1)
    assert r.best_value == pytest.approx(4.0, abs=1e-9)
    assert r.comparison["argmax_contains_reference"]
    assert not r.comparison["argmax_is_reference"]
    assert len(r.argmax) == 15
    assert hashlib.sha256(r.to_json().encode()).hexdigest() == (
        "6661870fad530924fb4c0916ceeb17593c84421d73c3542686fa90a6f38448ab"
    )


@pytest.mark.slow
def test_spex_9_2_prime_frontier():
    # the empirical frontier for the prime family: at n = 9 the winners all
    # have radius 5 (a K_6 beside a small component, or 5-regular plus an
    # isolated vertex); the augmented split graph is not yet extremal
    r = spex_search(9, 2, prime=True, workers=1)
    assert r.best_value == pytest.approx(5.0, abs=1e-9)
    assert not r.comparison["argmax_is_reference"]
    assert not r.comparison["argmax_contains_reference"]
    assert r.best_value >= r.comparison["reference_radius"] - 1e-9
    degree_profiles = {tuple(sorted(decode(s).degrees(), reverse=True)) for s in r.argmax}
    assert (5, 5, 5, 5, 5, 5, 1, 1, 0) in degree_profiles  # K_6 beside an edge


def test_spex_audits_every_winner():
    r = spex_search(6, 2, workers=1)
    assert set(r.audit) == set(r.argmax)
    for entries in r.audit.values():
        lemmas = {e["lemma"] for e in entries}
        assert "top-weight-size" in lemmas
        assert "neighborhood-weight-floor" in lemmas


def test_spex_parameter_errors():
    with pytest.raises(ParameterError):
        spex_search(9, 5)
    with pytest.raises(ParameterError):
        spex_search(6, 2, prime=True)  # prime needs n >= 2k+3
    with pytest.raises(ParameterError):
        spex_search(6, 1)
    with pytest.raises(ParameterError):
        spex_search(11, 2)


def test_search_report_json_is_deterministic():
    a = ex_search(6, tree_of(path_graph(4)), workers=1).to_json()
    b = ex_search(6, tree_of(path_graph(4)), workers=4).to_json()
    assert a == b


@pytest.mark.parametrize(
    "search,args,workers",
    [(spex_search, (6, 2), 0), (spex_search, (6, 2), -5), (ex_search, (6, EX_TREE), 0)],
)
def test_bad_workers_is_a_parameter_error(search, args, workers):
    with pytest.raises(ParameterError, match="workers"):
        search(*args, workers=workers)


def test_walker_is_lazy_and_tests_through_the_module_global(monkeypatch):
    calls = [0]
    real = search.is_canonically_labeled

    def counted(g, automorphisms=None):
        calls[0] += 1
        return real(g, automorphisms)

    monkeypatch.setattr(search, "is_canonically_labeled", counted)
    first = next(enumerate_graphs(10))
    assert (first.n, first.edge_count, calls[0]) == (10, 0, 0)
    calls[0] = 0
    assert sum(1 for _ in enumerate_graphs(7)) == CLASS_COUNTS[7]
    assert calls[0] == 1281
    calls[0] = 0
    spex_search(7, 2, workers=1)
    assert calls[0] == 767


def test_merge_keeps_exactly_the_near_ties_for_every_split():
    tol = search.TIE_TOL
    offered = [
        (5.0, path_graph(4)),
        (5.0 - 0.5 * tol, complete_split(5, 2)),
        (5.0 - 2 * tol, path_graph(5)),
        (4.0, from_edges(3, [(0, 1)])),
    ]
    winners = tuple(sorted(encode(g) for _, g in offered[:2]))
    for order in itertools.permutations(offered):
        for cut in range(len(order) + 1):
            parts = []
            for chunk in (order[:cut], order[cut:]):
                state = search._fresh_state()
                for value, g in chunk:
                    state["examined"] += 1
                    state["in_family"] += 1
                    search._offer(state, value, g)
                parts.append(state)
            assert search._merge(parts) == (4, 4, 5.0, winners)
    assert search._merge([search._fresh_state()]) == (0, 0, None, ())
