import hashlib
import random

import pytest

from oracles import naive_contains

from spexlab.embed import (
    constructive_with_case,
    contains_tree,
    embed_constructive,
    family_membership,
    verify_embedding,
)
from spexlab.errors import ParameterError
from spexlab.graph6 import decode
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
    from_edges,
    path_graph,
)
from spexlab.search import enumerate_graphs
from spexlab.trees import bipartition, generate_trees, tree_from_graph


def path_tree(t):
    return tree_from_graph(path_graph(t))


def check_embedding(host: Graph, pattern: Graph, mapping) -> bool:
    # independent validation: injectivity plus edge-by-edge lookup
    if len(set(mapping)) != pattern.n:
        return False
    return all(host.has_edge(mapping[u], mapping[v]) for u, v in pattern.edges())


@pytest.mark.parametrize("k", (2, 3, 4))
def test_path_exclusions(k):
    assert contains_tree(complete_split(30, k), path_tree(2 * k + 2)) is None
    assert contains_tree(complete_split_plus(30, k), path_tree(2 * k + 3)) is None


@pytest.mark.parametrize("k", (2, 3))
def test_one_shorter_path_embeds(k):
    emb = contains_tree(complete_split(30, k), path_tree(2 * k + 1))
    assert emb is not None
    assert check_embedding(complete_split(30, k), path_graph(2 * k + 1), emb.mapping)


def test_small_clique_cannot_host():
    assert contains_tree(clique(5), path_tree(6)) is None


def test_k35_contains_all_six_vertex_trees():
    host = complete_bipartite(3, 5)
    for tree in generate_trees(6):
        emb = contains_tree(host, tree)
        assert emb is not None
        assert check_embedding(host, tree.graph, emb.mapping)


def test_agreement_with_naive_oracle(graphs_on_8):
    rng = random.Random(424242)
    trees = [t for order in range(2, 7) for t in generate_trees(order)]
    pool = graphs_on_8
    for _ in range(500):
        g = rng.choice(pool)
        tree = rng.choice(trees)
        got = contains_tree(g, tree)
        want = naive_contains(g, tree.graph)
        assert (got is not None) == want
        if got is not None:
            assert check_embedding(g, tree.graph, got.mapping)


def test_containment_monotone_under_edge_addition():
    rng = random.Random(8)
    trees = list(generate_trees(6))
    for _ in range(20):
        edges = [(u, v) for u in range(9) for v in range(u + 1, 9) if rng.random() < 0.25]
        g = from_edges(9, edges)
        non_edges = [(u, v) for u in range(9) for v in range(u + 1, 9) if not g.has_edge(u, v)]
        if not non_edges:
            continue
        bigger = g.with_edge(*rng.choice(non_edges))
        for tree in trees:
            if contains_tree(g, tree) is not None:
                assert contains_tree(bigger, tree) is not None


def test_family_membership_witnesses():
    fam6 = generate_trees(6)
    m = family_membership(complete_split(9, 2), fam6)
    assert m.in_family
    assert m.witness_index == 0
    assert sorted(m.witness.graph.degrees()) == [1, 1, 2, 2, 2, 2]  # the path
    assert contains_tree(complete_split(9, 2), m.witness) is None

    assert not family_membership(clique(9), fam6).in_family

    m = family_membership(complete_split_plus(9, 2), generate_trees(7))
    assert m.in_family and m.witness_index == 0


def tree_max_matching(g: Graph) -> int:
    # greedy leaf matching in post-order is optimal on forests
    order = [0]
    parent = [-1] * g.n
    for v in order:
        for u in g.neighbors(v):
            if u != parent[v]:
                parent[u] = v
                order.append(u)
    matched = [False] * g.n
    size = 0
    for v in reversed(order[1:]):
        if not matched[v] and not matched[parent[v]]:
            matched[v] = matched[parent[v]] = True
            size += 1
    return size


def test_split_graph_containment_boundary():
    # a tree lives in the split graph exactly when some vertex cover fits the
    # clique, i.e. max matching <= k; the bipartition sides do not decide it
    for k in (2, 3, 4):
        host = complete_split(30, k)
        for tree in generate_trees(2 * k + 2):
            contained = contains_tree(host, tree) is not None
            assert contained == (tree_max_matching(tree.graph) <= k)


def test_double_star_defeats_the_part_size_rule():
    # both parts have k+1 = 3 vertices, yet the two centers cover every edge,
    # so the tree embeds; part sizes alone do not characterize containment
    double_star = tree_from_graph(
        from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
    )
    assert bipartition(double_star) == (3, 3)
    assert tree_max_matching(double_star.graph) == 2
    emb = contains_tree(complete_split(30, 2), double_star)
    assert emb is not None
    assert check_embedding(complete_split(30, 2), double_star.graph, emb.mapping)
    # the path on 6 vertices has matching 3 and is the canonical miss
    assert tree_max_matching(path_graph(6)) == 3
    assert contains_tree(complete_split(30, 2), path_tree(6)) is None


# ---------------------------------------------------------------------------
# constructive embeddings


def test_bipartite_case_is_total_and_valid():
    for m in range(2, 11):
        host = complete_bipartite(m // 2, m - 1)
        for tree in generate_trees(m):
            emb = embed_constructive(tree, "K", m // 2, m - 1)
            assert check_embedding(host, tree.graph, emb.mapping)


def test_leaf_case_for_path6():
    emb, case = constructive_with_case(path_tree(6), "K_plus", 2, 5)
    assert case == "leaf"
    assert check_embedding(bipartite_plus_edge(2, 5), path_graph(6), emb.mapping)


def test_direct_case_for_star6():
    star6 = tree_from_graph(from_edges(6, [(0, i) for i in range(1, 6)]))
    emb, case = constructive_with_case(star6, "K_plus", 2, 5)
    assert case == "direct"
    assert check_embedding(bipartite_plus_edge(2, 5), star6.graph, emb.mapping)


def test_every_seven_vertex_tree_embeds_in_both_hosts():
    for tree in generate_trees(7):
        for target, host in (
            ("K_path", bipartite_plus_path(2, 6)),
            ("K_matching", bipartite_plus_matching(2, 6)),
        ):
            emb = embed_constructive(tree, target, 2, 6)
            assert check_embedding(host, tree.graph, emb.mapping)
            # the generic search agrees the host contains the tree
            assert contains_tree(host, tree) is not None


@pytest.mark.parametrize("k", (2, 3, 4))
def test_augmented_hosts_total_for_families(k):
    host_plus = bipartite_plus_edge(k, 2 * k + 1)
    for tree in generate_trees(2 * k + 2):
        emb = embed_constructive(tree, "K_plus", k, 2 * k + 1)
        assert check_embedding(host_plus, tree.graph, emb.mapping)
    host_p = bipartite_plus_path(k, 2 * k + 2)
    host_m = bipartite_plus_matching(k, 2 * k + 2)
    for tree in generate_trees(2 * k + 3):
        emb = embed_constructive(tree, "K_path", k, 2 * k + 2)
        assert check_embedding(host_p, tree.graph, emb.mapping)
        emb = embed_constructive(tree, "K_matching", k, 2 * k + 2)
        assert check_embedding(host_m, tree.graph, emb.mapping)


def test_case_distribution_over_seven_vertex_trees():
    cases = {constructive_with_case(t, "K_path", 2, 6)[1] for t in generate_trees(7)}
    assert cases == {"direct", "leaf", "degree-two"}
    cases = {constructive_with_case(t, "K_matching", 2, 6)[1] for t in generate_trees(7)}
    assert cases == {"direct", "leaf", "two-leaves"}


def test_target_shape_mismatches():
    with pytest.raises(ParameterError):
        embed_constructive(path_tree(6), "K", 2, 5)  # needs K(3,5)
    with pytest.raises(ParameterError):
        embed_constructive(path_tree(6), "K_plus", 2, 4)
    with pytest.raises(ParameterError):
        embed_constructive(path_tree(6), "K_path", 2, 6)  # tree order must be 7
    with pytest.raises(ParameterError):
        embed_constructive(path_tree(7), "K_matching", 3, 8)
    with pytest.raises(ParameterError):
        embed_constructive(path_tree(6), "K_star", 2, 5)
    with pytest.raises(ParameterError, match="at least 2 vertices, got 1"):
        embed_constructive(path_tree(1), "K", 0, 0)


@pytest.mark.parametrize(
    "g6,target,a,b", [("Bg", "K_matching", 0, 2), ("Bg", "K_path", 0, 2), ("A_", "K_plus", 0, 1)]
)
def test_empty_small_part_is_refused(g6, target, a, b):
    with pytest.raises(ParameterError, match="a >= 1"):
        embed_constructive(tree_from_graph(decode(g6)), target, a, b)


def test_containment_depth_is_not_bounded_by_the_recursion_limit():
    # one level per pattern vertex, past the interpreter's default limit of 1000
    host = path_graph(1100)
    emb = contains_tree(host, tree_from_graph(path_graph(1100)))
    assert emb is not None and verify_embedding(host, host, emb)


def test_verify_embedding_rejects_bad_maps():
    host = complete_bipartite(3, 5)
    pattern = path_graph(4)
    from spexlab.embed import Embedding

    assert not verify_embedding(host, pattern, Embedding((0, 1, 1, 2)))
    assert not verify_embedding(host, pattern, Embedding((0, 1, 2, 3)))
    assert verify_embedding(host, pattern, Embedding((0, 3, 1, 4)))


# ---------------------------------------------------------------------------
# pinned outputs: every mapping, not only whether one exists


def _lines_sha256(lines) -> str:
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


def _mapping_line(host: Graph, tree) -> str:
    emb = contains_tree(host, tree)
    return repr(None if emb is None else emb.mapping)


def _bipartite_jobs():
    # the paper's lower-bound hosts with their whole families, k = 2..5
    for k in range(2, 6):
        yield "K_plus", k, 2 * k + 1, generate_trees(2 * k + 2)
        for target in ("K_path", "K_matching"):
            yield target, k, 2 * k + 2, generate_trees(2 * k + 3)


def test_containment_mappings_pinned_on_small_classes(graphs_on_7):
    classes = [g for n in range(1, 7) for g in enumerate_graphs(n)] + graphs_on_7
    lines = [
        _mapping_line(g, tree)
        for g in classes
        for t in range(2, min(g.n, 7) + 1)
        for tree in generate_trees(t)
    ]
    assert len(lines) == 27376
    assert _lines_sha256(lines) == "74f98d24dc982bb3553269b870559c1be57d2cddd7cd2c7b14373a202b81b196"


def test_containment_mappings_pinned_on_bipartite_hosts():
    lines = [
        _mapping_line(construct(target, a=a, b=b), tree)
        for target, a, b, family in _bipartite_jobs()
        for tree in family
    ]
    assert len(lines) == 3874
    assert "None" not in lines
    assert _lines_sha256(lines) == "115d9eae2d630169fb62bb6231a4baadf3e8ebf28b17724ead4c0a8485c2d427"


def test_containment_mappings_pinned_on_split_hosts():
    lines = []
    for k in range(2, 6):
        for host, t in ((complete_split(8 * k + 8, k), 2 * k + 2),
                        (complete_split_plus(8 * k + 12, k), 2 * k + 3)):
            lines += [_mapping_line(host, tree) for tree in generate_trees(t)]
    assert len(lines) == 2280
    assert lines.count("None") == 93
    assert _lines_sha256(lines) == "1b1b4c89c7b4afb1605e6b20b9731d614a58596a1e942e25ced540f1947889c1"


def test_constructive_mappings_and_cases_pinned():
    jobs = [(target, a, b, tree) for target, a, b, family in _bipartite_jobs() for tree in family]
    jobs += [("K", t // 2, t - 1, tree) for t in range(2, 12) for tree in generate_trees(t)]
    lines = []
    for target, a, b, tree in jobs:
        emb, case = constructive_with_case(tree, target, a, b)
        lines.append(repr((emb.mapping, case)))
    assert len(lines) == 4309
    assert _lines_sha256(lines) == "ce87bf7d2de093622e6b002c60eb29fcbd99e6be7aa1792c554788f2f693d16c"


def test_constructive_mappings_and_cases_pinned_on_relabelled_trees():
    # generate_trees labels by level sequence; seeded relabellings read
    # through tree_from_graph give the parts and leaves other label orders
    jobs = [(target, a, b, tree) for target, a, b, family in _bipartite_jobs() for tree in family]
    jobs += [("K", t // 2, t - 1, tree) for t in range(2, 12) for tree in generate_trees(t)]
    rng = random.Random(2203)
    lines = []
    for target, a, b, tree in jobs:
        for _ in range(2):
            perm = list(range(tree.graph.n))
            rng.shuffle(perm)
            relabelled = tree_from_graph(tree.graph.relabel(tuple(perm)))
            emb, case = constructive_with_case(relabelled, target, a, b)
            lines.append(repr((emb.mapping, case)))
    assert len(lines) == 8618
    assert _lines_sha256(lines) == "609b3ca31d4fb546deae991626149a158b17964b7b0a403da66405e476aa0b9c"


def test_agreement_with_naive_oracle_on_twin_heavy_hosts():
    # large twin classes (independent parts, bipartite sides) are where a
    # failed candidate drops its whole class at once
    jobs = [
        (complete_split(10, 2), generate_trees(6)),
        (complete_split_plus(11, 2), generate_trees(7)),
        (bipartite_plus_edge(2, 5), generate_trees(6)),
        (bipartite_plus_path(2, 6), generate_trees(7)),
        (bipartite_plus_matching(2, 6), generate_trees(7)),
        (complete_bipartite(3, 5), generate_trees(6)),
    ]
    pairs = misses = 0
    for host, family in jobs:
        for tree in family:
            got = contains_tree(host, tree)
            assert (got is not None) == naive_contains(host, tree.graph)
            if got is None:
                misses += 1
            else:
                assert check_embedding(host, tree.graph, got.mapping)
            pairs += 1
    assert pairs == 51
    assert misses > 0
