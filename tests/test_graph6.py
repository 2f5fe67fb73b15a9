import hashlib
import random

import pytest

from spexlab import graph6
from spexlab.canon import canonical_form
from spexlab.errors import Graph6ParseError, Graph6RangeError
from spexlab.graphs import clique, complete_split, cycle, from_edges, path_graph


def test_triangle_encodes_to_Bw():
    # by hand: n=3 -> chr(3+63)='B'; bits 111 padded to 111000 -> 56+63='w'
    assert graph6.encode(clique(3)) == "Bw"


def test_decode_Bw_is_triangle():
    g = graph6.decode("Bw")
    assert g.n == 3 and g.edge_count == 3


def test_header_is_stripped():
    assert graph6.decode(">>graph6<<Bw").rows == clique(3).rows


def test_round_trip_is_labeled_identity():
    rng = random.Random(11)
    samples = [complete_split(7, 2), path_graph(9), cycle(6), from_edges(1, [])]
    for _ in range(50):
        n = rng.randint(1, 20)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3
        ]
        samples.append(from_edges(n, edges))
    for g in samples:
        back = graph6.decode(graph6.encode(g))
        assert back.n == g.n and back.rows == g.rows


def test_round_trip_order_62():
    g = complete_split(62, 3)
    assert graph6.decode(graph6.encode(g)).rows == g.rows


def test_encode_rejects_large_graphs():
    with pytest.raises(Graph6RangeError):
        graph6.encode(complete_split(63, 2))


def test_decode_rejects_long_form():
    with pytest.raises(Graph6RangeError):
        graph6.decode("~??~?????")


def test_parse_errors_carry_offsets():
    with pytest.raises(Graph6ParseError) as err:
        graph6.decode("")
    assert err.value.offset == 0
    with pytest.raises(Graph6ParseError) as err:
        graph6.decode("B")  # missing data byte
    assert err.value.offset == 1
    with pytest.raises(Graph6ParseError) as err:
        graph6.decode("Bw!")  # trailing junk
    assert err.value.offset >= 1
    with pytest.raises(Graph6ParseError) as err:
        graph6.decode("B\x19")  # data byte below 63
    assert err.value.offset == 1
    # n = 0: a malformed length is reported before the vertex count
    with pytest.raises(Graph6ParseError, match="expected 0 data bytes") as err:
        graph6.decode("?@")
    assert err.value.offset == 1
    with pytest.raises(Graph6ParseError, match="0 vertices") as err:
        graph6.decode("?")
    assert err.value.offset == 0


def test_nonzero_padding_rejected():
    # triangle uses 3 of 6 bits; force a padding bit on
    bad = "B" + chr(63 + 0b111001)
    with pytest.raises(Graph6ParseError):
        graph6.decode(bad)


# every n = 2..12 whose triangle leaves padding bits in the last byte
@pytest.mark.parametrize("n", [n for n in range(2, 13) if n * (n - 1) // 2 % 6])
def test_padding_error_points_at_the_last_data_byte(n):
    data = (n * (n - 1) // 2 + 5) // 6
    bad = chr(n + 63) + "?" * (data - 1) + chr(63 + 1)  # the lowest padding bit set
    with pytest.raises(Graph6ParseError, match="padding") as err:
        graph6.decode(bad)
    assert err.value.offset == data == len(bad) - 1


def _random_corpus():
    """Seeded random graphs for every n = 1..62 at densities 0.1, 0.5, 0.9."""
    rng = random.Random(62)
    out = []
    for n in range(1, 63):
        for p in (0.1, 0.5, 0.9):
            edges = [(i, j) for j in range(1, n) for i in range(j) if rng.random() < p]
            out.append(from_edges(n, edges))
    return out


def _digest(items):
    return hashlib.sha256(repr(items).encode()).hexdigest()


def test_codec_pinned_on_random_corpus():
    codes = [graph6.encode(g) for g in _random_corpus()]
    assert hashlib.sha256("\n".join(codes).encode()).hexdigest() == (
        "9bbf851ec4cf0ed61c53e5c4704faa1c1507cd75293090769347f48856db0f68"
    )
    assert _digest([graph6.decode(s).rows for s in codes]) == (
        "f10a4b3df2dce5870ba215bc15723156f26de1a520babf6fea4129c1c6f72d92"
    )


def test_canonical_data_pinned_on_random_corpus():
    forms = [canonical_form(g).data for g in _random_corpus() if g.n <= 16]
    assert _digest(forms) == (
        "e3979a05b4d8d6a325dfc8b1687f2e0ec298cb779383b858ca77546617a04889"
    )


def test_line_streams():
    graphs = [clique(3), path_graph(4)]
    text = graph6.write_lines(graphs)
    assert text == "Bw\nCh\n"
    back = list(graph6.read_lines(text))
    assert [g.rows for g in back] == [g.rows for g in graphs]
