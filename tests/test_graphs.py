import random

import pytest

from oracles import all_labeled_graphs

from spexlab.errors import ParameterError
from spexlab.graphs import (
    _indices,
    _members,
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
    join,
    path_graph,
    shells,
)


def test_complete_split_5_2():
    g = complete_split(5, 2)
    assert g.edge_count == 7
    assert sorted(g.degrees(), reverse=True) == [4, 4, 2, 2, 2]
    # join vertices first, independent part after
    assert g.degree(0) == 4 and g.degree(4) == 2


def test_complete_split_plus_5_2():
    g = complete_split_plus(5, 2)
    assert g.edge_count == 8
    inside = [(u, v) for u in range(2, 5) for v in range(u + 1, 5) if g.has_edge(u, v)]
    assert inside == [(2, 3)]


def test_split_edge_formula_and_degrees():
    for k in range(2, 6):
        for n in range(k + 1, 61, 7):
            g = complete_split(n, k)
            assert g.edge_count == k * (k - 1) // 2 + k * (n - k)
            assert all(g.degree(v) == n - 1 for v in range(k))
            assert all(g.degree(v) == k for v in range(k, n))


def test_bipartite_plus_matching_counts():
    g = bipartite_plus_matching(2, 6)
    assert g.edge_count == 14
    assert g.has_edge(2, 3) and g.has_edge(4, 5)
    assert not g.has_edge(3, 4)


def test_bipartite_plus_edge_and_path():
    assert bipartite_plus_edge(2, 5).edge_count == 11
    g = bipartite_plus_path(2, 6)
    assert g.edge_count == 14
    assert g.has_edge(2, 3) and g.has_edge(3, 4) and not g.has_edge(2, 4)


def test_edge_count_matches_adjacency():
    examples = [
        complete_split(9, 3),
        complete_split_plus(8, 2),
        complete_bipartite(3, 5),
        bipartite_plus_matching(2, 6),
        path_graph(7),
        clique(6),
        cycle(9),
        join(path_graph(3), clique(2)),
        disjoint_union(cycle(4), path_graph(2)),
    ]
    for g in examples:
        recount = sum(r.bit_count() for r in g.rows) // 2
        assert recount == g.edge_count
        for v in range(g.n):
            assert not g.has_edge(v, v)
            for u in g.neighbors(v):
                assert g.has_edge(u, v)


def test_join_of_clique_and_independent_is_split():
    k, n = 3, 8
    g = join(clique(k), from_edges(n - k, []))
    assert g.rows == complete_split(n, k).rows


@pytest.mark.parametrize(
    "family,params",
    [
        ("S", {"n": 5, "k": 5}),
        ("S", {"n": 5, "k": 0}),
        ("S_plus", {"n": 5, "k": 4}),
        ("K", {"a": 0, "b": 3}),
        ("K_plus", {"a": 2, "b": 1}),
        ("K_path", {"a": 2, "b": 2}),
        ("K_matching", {"a": 2, "b": 3}),
        ("path", {"t": 0}),
        ("cycle", {"t": 2}),
    ],
)
def test_parameter_errors(family, params):
    with pytest.raises(ParameterError):
        construct(family, **params)


def test_construct_dispatcher():
    assert construct("S", n=5, k=2).rows == complete_split(5, 2).rows
    assert construct("cycle", t=5).edge_count == 5
    with pytest.raises(ParameterError):
        construct("wheel", t=5)
    with pytest.raises(ParameterError):
        construct("S", n=5)
    with pytest.raises(ParameterError):
        construct("path", t=4, n=9)


def test_shells_on_split_graph():
    g = complete_split(5, 2)
    sh = shells(g, 0)
    assert sh.shells[0] == (0,)
    assert len(sh.shells[1]) == 4
    assert len(sh.shells) == 2
    sh = shells(g, 2)
    assert sh.shells[1] == (0, 1)
    assert sh.shells[2] == (3, 4)
    assert sh.unreachable == ()


def test_shells_on_path_endpoint():
    sh = shells(path_graph(5), 0)
    assert [len(s) for s in sh.shells] == [1, 1, 1, 1, 1]


def test_shells_unreachable():
    g = disjoint_union(path_graph(2), clique(3))
    sh = shells(g, 0)
    assert sh.unreachable == (2, 3, 4)
    # every shell vertex has a neighbor one shell down and none two down
    for i in range(1, len(sh.shells)):
        for v in sh.shells[i]:
            assert any(g.has_edge(v, u) for u in sh.shells[i - 1])
            assert all(not g.has_edge(v, u) for j in range(i - 1) for u in sh.shells[j])


def test_components_and_connectivity():
    g = disjoint_union(cycle(3), path_graph(2))
    assert g.components() == [(0, 1, 2), (3, 4)]
    assert not g.is_connected()
    assert complete_split(6, 2).is_connected()


def _plain_layers(g, u):
    """Breadth-first layers over the neighbour tuples, one vertex at a time."""
    dist = {u: 0}
    queue = [u]
    for v in queue:
        for w in g.neighbors(v):
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    depth = max(dist.values())
    return tuple(tuple(sorted(v for v in dist if dist[v] == d)) for d in range(depth + 1))


def test_components_and_shells_match_a_plain_bfs():
    # twin-heavy hosts with layers of more than 64 vertices, a twin-free
    # graph and unions, so both ways of listing a mask and the twin-class
    # expansion are exercised
    graphs = [
        complete_split(200, 2), complete_split_plus(150, 3), complete_bipartite(3, 90),
        path_graph(130), cycle(9), clique(70), from_edges(5, []),
        disjoint_union(complete_split(80, 2), disjoint_union(path_graph(3), clique(66))),
        disjoint_union(complete_bipartite(2, 70), complete_split_plus(12, 2)),
    ]
    for g in graphs:
        expected = sorted({tuple(sorted(v for layer in _plain_layers(g, u) for v in layer))
                           for u in range(g.n)})
        assert g.components() == expected
        for u in sorted({0, 1, g.n // 2, g.n - 1}):
            sh = shells(g, u)
            layers = _plain_layers(g, u)
            assert sh.shells == layers
            assert sh.unreachable == tuple(sorted(set(range(g.n)) - set(sum(layers, ()))))


def test_relabel_and_subgraph():
    g = path_graph(4)
    rev = g.relabel((3, 2, 1, 0))
    assert sorted(rev.edges()) == [(0, 1), (1, 2), (2, 3)]
    sub = complete_split(6, 2).subgraph([0, 2, 3])
    assert sub.n == 3
    assert sorted(sub.edges()) == [(0, 1), (0, 2)]


def test_loops_and_range_rejected():
    with pytest.raises(ParameterError):
        from_edges(3, [(0, 0)])
    with pytest.raises(ParameterError):
        from_edges(3, [(0, 3)])
    with pytest.raises(ParameterError):
        from_edges(0, [])


# ---------------------------------------------------------------------------
# twin classes


def _open_twins(g, cls):
    return len({g.rows[v] for v in cls}) == 1


def _closed_twins(g, cls):
    return len({g.rows[v] | 1 << v for v in cls}) == 1


def test_twin_classes_of_named_graphs():
    empty = from_edges(6, [])
    assert empty.twin_classes == (tuple(range(6)),)
    assert _open_twins(empty, range(6))
    assert clique(5).twin_classes == (tuple(range(5)),)
    assert _closed_twins(clique(5), range(5))
    assert path_graph(9).twin_classes == tuple((v,) for v in range(9))
    for n, k in ((5, 2), (12, 3), (40, 5)):
        # the clique part is closed twins, the independent part open twins
        assert complete_split(n, k).twin_classes == (tuple(range(k)), tuple(range(k, n)))
    for a, b in ((1, 3), (2, 8), (5, 3)):
        assert complete_bipartite(a, b).twin_classes == (
            tuple(range(a)), tuple(range(a, a + b)))


@pytest.mark.parametrize("n", range(1, 7))
def test_twin_classes_brute_force(n):
    # u and v are twins (open or closed) exactly when N(u) - v == N(v) - u
    for g in all_labeled_graphs(n):
        classes = g.twin_classes
        assert sorted(v for cls in classes for v in cls) == list(range(n))
        assert [cls[0] for cls in classes] == sorted(cls[0] for cls in classes)
        label = {v: i for i, cls in enumerate(classes) for v in cls}
        for u in range(n):
            for v in range(u + 1, n):
                twins = g.rows[u] & ~(1 << v) == g.rows[v] & ~(1 << u)
                assert twins == (label[u] == label[v])
        for cls in classes:
            assert list(cls) == sorted(cls)
            assert {g.twin_masks[v] for v in cls} == {sum(1 << v for v in cls)}
            assert _open_twins(g, cls) or _closed_twins(g, cls)
            for other in classes:
                mask = sum(1 << v for v in other)
                assert len({(g.rows[v] & mask).bit_count() for v in cls}) == 1  # equitable


def test_members_and_indices_list_the_set_bits():
    rng = random.Random(7)
    half = sum(1 << i for i in rng.sample(range(200), 100))
    dense = ((1 << 100_000) - 1) ^ (1 << 3) ^ (1 << 77_777)
    sparse = sum(1 << i for i in rng.sample(range(100_000), 100)) | (1 << 99_999)
    for mask in (0, (1 << 64) - 1, ((1 << 65) - 1) << 3, half, dense, sparse):
        bits = [i for i in range(mask.bit_length()) if mask >> i & 1]
        assert _members(mask) == tuple(bits)
        assert _indices(mask).tolist() == bits
