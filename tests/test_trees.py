import hashlib
import itertools

import pytest

from oracles import (
    ahu_certificate,
    all_prufer_certificates,
    all_prufer_trees,
    prufer_certificate,
    prufer_tree,
)

from spexlab.canon import canonical_form
from spexlab.errors import ParameterError
from spexlab.graphs import from_edges, path_graph
from spexlab.trees import (
    _centroids,
    _edges_from_sequence,
    _largest_branch,
    _rooted_at_head,
    _rooted_sequences,
    bipartition,
    generate_trees,
    tree_from_graph,
)

# free trees on t vertices; 1..7 re-derived by the Prüfer oracle below,
# 8..9 by the same oracle run offline, the rest pinned for regression
FREE_TREE_COUNTS = {
    1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47,
    10: 106, 11: 235, 12: 551, 13: 1301,
}

# sha256 of each family's (graph.rows, part_a, part_b) stream, computed with
# the generator that built every tree and canonically rooted it at each
# centroid; they pin family order and Tree bytes up to the cap
FAMILY_DIGESTS = {
    1: "002f29036fdd5a55adad7533c574dc501cbbbf61c46540383d1229cde876043f",
    2: "4d5a7a0cf6ba2561c03f913e18f11af1f5710369eb9319115e163579bd7883de",
    3: "84a083b4ee4f231e2af3754881d609f870417c4386984640367cc41b9d12ff05",
    4: "ef0628ebf829a4c0edc3e3906073e5d1ceef13eff26eacadae025ef7554a0ed0",
    5: "ff0afda35ad5bbec4118b959eab5529dbe79392d91b2c842e719352727081ce1",
    6: "ffedd2abd7b9b33e602ea58055f60d61927009db2fc2abc00e8dc9953f6878a3",
    7: "71b1f9233ad5f7056a342fdc1021484b42939dca2d2f857881ac4c38e866588a",
    8: "8c54b883b609139b588a885f0af58879405142025a7f49605d5bb74f157d35e3",
    9: "f0d40fc22bf5215b69598fda8537a24182042d2200d879da655bb0c7b047ec26",
    10: "ac64bbdbdeee2d16c69b028879523318ddaa28d813bba059f8bffaeefffff16d",
    11: "98f043da579e9de45b0dac6d830f253e2efc73d1a2e50827ca3246275439db12",
    12: "f2f7899fec98528b18ecdf0ac3c8fab268acc561a76ddbb5d07400321fc0ce46",
    13: "01fc9bc22b00911140c56f3ddf1f9613d0e2c1ccf2d2f3c159995410193af1ca",
    14: "ff89379c1d9c8829f56585920bcfa7e71ea776bf25cb2728191ad8c670f64f46",
    15: "1da6808bada2c000b377aa96226703c421778ae6828bbc62dd6ebc8bebddc0e9",
    16: "00866ef15874a558767543b88b51099bbaec54c908fd41c16647999fc236bff9",
}


def _family_digest(t):
    h = hashlib.sha256()
    for tree in generate_trees(t):
        h.update(repr((tree.graph.rows, tree.part_a, tree.part_b)).encode())
    return h.hexdigest()

# rooted trees on t = 1..14 vertices (OEIS A000081)
ROOTED_TREE_COUNTS = (1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766, 12486, 32973)


@pytest.mark.parametrize("t,count", sorted(FREE_TREE_COUNTS.items()))
def test_family_sizes(t, count):
    assert len(generate_trees(t)) == count


def test_families_pinned():
    for t in range(1, 14):
        assert _family_digest(t) == FAMILY_DIGESTS[t], t


def test_rooted_sequences_are_the_rooted_trees():
    for t, count in enumerate(ROOTED_TREE_COUNTS, start=1):
        assert len({tuple(seq) for seq in _rooted_sequences(t)}) == count


def _adjacency(seq):
    g = from_edges(len(seq), _edges_from_sequence(seq))
    return [list(g.neighbors(v)) for v in range(g.n)]


def _canonical_rooted(adj, v, parent=-1, depth=1):
    # the sequence with every vertex's branches sorted, built from scratch
    out = [depth]
    for b in sorted(
        (_canonical_rooted(adj, u, v, depth + 1) for u in adj[v] if u != parent), reverse=True
    ):
        out += b
    return out


def _branch_size(adj, v, parent):
    return 1 + sum(_branch_size(adj, u, v) for u in adj[v] if u != parent)


def test_branch_sizes_decide_the_centroids():
    for t in range(1, 13):
        for seq in _rooted_sequences(t):
            adj = _adjacency(seq)
            assert _canonical_rooted(adj, 0) == seq
            size, start = _largest_branch(seq)
            assert size == max((_branch_size(adj, u, 0) for u in adj[0]), default=0)
            if t > 1:
                assert start in adj[0] and _branch_size(adj, start, 0) == size
            cents = _centroids(adj)
            assert (0 in cents) == (size <= t // 2)
            if 0 in cents:
                # the root and the head of the half-size branch
                assert (len(cents) == 2) == (2 * size == t)
                if len(cents) == 2:
                    assert cents == [0, start]
                    assert _rooted_at_head(seq, start, start + size) == _canonical_rooted(
                        adj, start
                    )


def test_every_tree_is_a_tree():
    for t in range(1, 11):
        for tree in generate_trees(t):
            g = tree.graph
            assert g.n == t
            assert g.edge_count == t - 1
            assert g.is_connected()


def test_families_are_duplicate_free():
    for t in range(1, 11):
        forms = {canonical_form(tree.graph).data for tree in generate_trees(t)}
        assert len(forms) == len(generate_trees(t))


@pytest.mark.parametrize("t", range(1, 8))
def test_matches_prufer_oracle(t):
    # dedup both by lexmax canonical form and by the AHU tree certificate
    oracle = {canonical_form(g).data for g in all_prufer_trees(t)}
    generated = {canonical_form(tree.graph).data for tree in generate_trees(t)}
    assert generated == oracle
    oracle = set(all_prufer_certificates(t))
    generated = {ahu_certificate(tree.graph) for tree in generate_trees(t)}
    assert generated == oracle


@pytest.mark.parametrize("t", range(3, 8))
def test_prufer_certificate_matches_decoded_tree(t):
    # the Graph-free decoding gives the AHU string of the decoded tree
    for seq in itertools.product(range(t), repeat=t - 2):
        assert prufer_certificate(t, seq) == ahu_certificate(prufer_tree(t, seq))


@pytest.mark.slow
@pytest.mark.parametrize("t", (8, 9))
def test_matches_prufer_oracle_slow(t):
    oracle = set(all_prufer_certificates(t))
    generated = {ahu_certificate(tree.graph) for tree in generate_trees(t)}
    assert generated == oracle


@pytest.mark.slow
@pytest.mark.parametrize("t,count", [(14, 3159), (15, 7741), (16, 19320)])
def test_family_sizes_up_to_the_cap(t, count):
    fam = generate_trees(t)
    assert len(fam) == count
    assert len({ahu_certificate(tree.graph) for tree in fam}) == count
    assert _family_digest(t) == FAMILY_DIGESTS[t]


def test_path_comes_first():
    for t in (4, 6, 7, 9):
        first = generate_trees(t).trees[0].graph
        assert sorted(first.degrees()) == [1, 1] + [2] * (t - 2)


def test_star_comes_last():
    for t in (4, 6, 7):
        last = generate_trees(t).trees[-1].graph
        assert sorted(last.degrees(), reverse=True) == [t - 1] + [1] * (t - 1)


def test_order_is_deterministic():
    a = [tuple(tree.graph.rows) for tree in generate_trees(8)]
    generate_trees.cache_clear()
    b = [tuple(tree.graph.rows) for tree in generate_trees(8)]
    assert a == b


def test_bipartition_examples():
    path6 = tree_from_graph(path_graph(6))
    assert bipartition(path6) == (3, 3)
    star6 = tree_from_graph(from_edges(6, [(0, i) for i in range(1, 6)]))
    assert bipartition(star6) == (1, 5)
    path7 = tree_from_graph(path_graph(7))
    assert bipartition(path7) == (3, 4)


def test_bipartition_is_proper():
    for tree in generate_trees(9):
        assert len(tree.part_a) + len(tree.part_b) == 9
        assert len(tree.part_a) <= len(tree.part_b)
        inside_a = set(tree.part_a)
        for u, v in tree.graph.edges():
            assert (u in inside_a) != (v in inside_a)
        # the small part can never exceed half the tree
        assert len(tree.part_a) <= 9 // 2


def test_order_bounds():
    with pytest.raises(ParameterError):
        generate_trees(0)
    with pytest.raises(ParameterError):
        generate_trees(17)


def test_tree_from_graph_rejects_non_trees():
    with pytest.raises(ParameterError):
        tree_from_graph(from_edges(3, [(0, 1), (1, 2), (0, 2)]))
    with pytest.raises(ParameterError):
        tree_from_graph(from_edges(4, [(0, 1), (2, 3)]))
