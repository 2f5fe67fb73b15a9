import hashlib
import itertools
import random

import pytest

from oracles import all_labeled_graphs

from spexlab.canon import canonical_form, canonical_g6, canonical_graph, is_canonically_labeled
from spexlab.graphs import (
    clique,
    complete_bipartite,
    complete_split,
    complete_split_plus,
    cycle,
    disjoint_union,
    from_edges,
    path_graph,
)
from spexlab.search import enumerate_graphs


def random_graph(rng, n, p=0.4):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return from_edges(n, edges)


def test_reversed_path_same_form():
    g = path_graph(4)
    assert canonical_form(g).data == canonical_form(g.relabel((3, 2, 1, 0))).data


def test_different_graphs_different_forms():
    assert canonical_form(complete_split(5, 2)).data != canonical_form(cycle(5)).data


def test_thousand_random_relabelings():
    rng = random.Random(20240817)
    g = random_graph(rng, 8)
    want = canonical_form(g).data
    for _ in range(1000):
        perm = list(range(8))
        rng.shuffle(perm)
        assert canonical_form(g.relabel(tuple(perm))).data == want


def test_relabeling_maps_to_canonical_representative():
    rng = random.Random(5)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 9))
        form = canonical_form(g)
        rep = g.relabel(form.relabeling)
        # the representative is canonically labeled and re-canonizing fixes it
        assert is_canonically_labeled(rep)
        assert canonical_form(rep).data == form.data
        assert rep.rows == canonical_graph(g).rows


def test_matches_brute_force_on_small_graphs():
    # lexicographic maximum over all labelings, computed naively
    def brute(g):
        best = None
        for perm in itertools.permutations(range(g.n)):
            h = g.relabel(perm)
            bits = tuple(
                (h.rows[j] >> i) & 1 for j in range(1, g.n) for i in range(j)
            )
            if best is None or bits > best:
                best = bits
        return best

    rng = random.Random(77)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 6), p=rng.choice([0.2, 0.5, 0.8]))
        form = canonical_form(g)
        rep = g.relabel(form.relabeling)
        bits = tuple((rep.rows[j] >> i) & 1 for j in range(1, g.n) for i in range(j))
        assert bits == brute(g)


def test_equivalence_with_permutation_oracle():
    # equal bytes exactly when some relabeling matches
    def isomorphic(a, b):
        if a.n != b.n or a.edge_count != b.edge_count:
            return False
        return any(a.relabel(p).rows == b.rows for p in itertools.permutations(range(a.n)))

    rng = random.Random(99)
    pool = [random_graph(rng, 5, p) for p in (0.2, 0.4, 0.6) for _ in range(6)]
    for a, b in itertools.combinations(pool, 2):
        assert (canonical_form(a).data == canonical_form(b).data) == isomorphic(a, b)


def test_highly_symmetric_graphs_terminate_quickly():
    for g in [
        clique(12),
        from_edges(12, []),
        complete_bipartite(6, 6),
        complete_bipartite(2, 10),
        cycle(12),
        disjoint_union(clique(4), clique(4)),
        disjoint_union(cycle(5), cycle(5)),
    ]:
        form = canonical_form(g)
        assert canonical_form(g.relabel(tuple(reversed(range(g.n))))).data == form.data


def test_is_canonically_labeled_consistent():
    rng = random.Random(3)
    for _ in range(40):
        g = random_graph(rng, 7)
        rep = canonical_graph(g)
        assert is_canonically_labeled(rep)
        perm = list(range(7))
        rng.shuffle(perm)
        shuffled = g.relabel(tuple(perm))
        if shuffled.rows != rep.rows:
            assert not is_canonically_labeled(shuffled) or shuffled.rows == rep.rows


def test_canonical_g6_stable_across_relabelings():
    g = complete_split(7, 3)
    s = canonical_g6(g)
    assert canonical_g6(g.relabel((6, 5, 4, 3, 2, 1, 0))) == s


def _form_digest(graphs, seed, relabelings):
    """sha256 over (data, relabeling) of seeded relabellings of each graph."""
    rng = random.Random(seed)
    h = hashlib.sha256()
    for g in graphs:
        for _ in range(relabelings):
            perm = list(range(g.n))
            rng.shuffle(perm)
            form = canonical_form(g.relabel(tuple(perm)))
            h.update(form.data + bytes(form.relabeling))
    return h.hexdigest()


def test_forms_pinned_for_every_class_up_to_7(graphs_on_7):
    # both the canonical strings and the labellings attaining them are pinned
    graphs = [g for n in range(1, 7) for g in enumerate_graphs(n)] + graphs_on_7
    assert _form_digest(graphs, 20261018, 3) == (
        "68b7c4735cec18e6cb17ba5728bb715569381b1c749dd89c7f30f9e81f271c91"
    )


def test_twin_heavy_forms_pinned():
    graphs = [
        from_edges(10, []),
        complete_split(10, 3),
        complete_bipartite(2, 8),
        complete_split_plus(9, 2),
    ]
    assert _form_digest(graphs, 8, 5) == (
        "edb28afe8981bf5abc737e9895efa2441fcd5e5ab13bd8c6a3559a48f2a88630"
    )
    rng = random.Random(9)
    for g in graphs:
        rep = canonical_graph(g)
        assert is_canonically_labeled(rep)
        for _ in range(5):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = g.relabel(tuple(perm))
            assert canonical_graph(h).rows == rep.rows
            assert is_canonically_labeled(h) == (h.rows == rep.rows)


def test_handed_back_automorphisms_pinned(graphs_on_7):
    # the accept test's verdict and the automorphisms it hands back, in
    # recording order, over canonical and seeded relabelled inputs
    hosts = [
        from_edges(10, []),
        complete_split(10, 3),
        complete_bipartite(2, 8),
        complete_split_plus(9, 2),
    ]
    graphs = [g for n in range(1, 7) for g in enumerate_graphs(n)] + graphs_on_7
    graphs += hosts + [canonical_graph(g) for g in hosts]
    rng = random.Random(20261020)
    h = hashlib.sha256()
    for g in graphs:
        inputs = [g]
        for _ in range(2):
            perm = list(range(g.n))
            rng.shuffle(perm)
            inputs.append(g.relabel(tuple(perm)))
        for x in inputs:
            auts = []
            h.update(bytes([is_canonically_labeled(x, auts), len(auts)]))
            for perm in auts:
                h.update(bytes(perm))
    assert h.hexdigest() == (
        "d2cb4bd4f11b50fb6f6d5a1f99fb125a10a5b4010f1fb8f161e45e13998e68f5"
    )


def test_labels_past_the_recursion_limit():
    # the search assigns labels in a loop: 1200 labels are more than the
    # default recursion limit of 1000 frames
    g = complete_split(1200, 2)
    perm = list(range(g.n))
    random.Random(12).shuffle(perm)
    form = canonical_form(g)
    assert canonical_form(g.relabel(tuple(perm))).data == form.data
    assert is_canonically_labeled(g.relabel(form.relabeling))


@pytest.mark.parametrize("n", range(1, 6))
def test_is_canonically_labeled_matches_brute_force_lex_max(n):
    def column_bits(rows):
        return tuple((rows[j] >> i) & 1 for j in range(1, n) for i in range(j))

    verdict = {}
    for g in all_labeled_graphs(n):
        if g.rows not in verdict:
            orbit = {g.relabel(p).rows for p in itertools.permutations(range(n))}
            best = max(orbit, key=column_bits)
            verdict.update((rows, rows == best) for rows in orbit)
    for g in all_labeled_graphs(n):
        assert is_canonically_labeled(g) == verdict[g.rows]
