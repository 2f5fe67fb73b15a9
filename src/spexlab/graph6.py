"""graph6 short-form codec.

Follows the published format bit for bit: the first byte is n + 63 for
n <= 62, then the upper triangle of the adjacency matrix in column-major
order, packed big-endian into 6-bit chunks offset by 63, zero padded.
The triangle order is the one ``graphs`` states (``_column``, ``_triangle``
and ``_pairs``); this module only chunks that int into bytes and back.
The long form (n >= 63) is rejected rather than implemented.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import Graph6ParseError, Graph6RangeError
from .graphs import Graph, _column, _pairs, _triangle, from_edges

__all__ = ["encode", "decode", "write_lines", "read_lines"]

HEADER = ">>graph6<<"


def encode(g: Graph) -> str:
    n = g.n
    if n > 62:
        raise Graph6RangeError(f"short-form graph6 supports n <= 62, got n = {n}")
    nbits = n * (n - 1) // 2
    pad = -nbits % 6  # zero bits that fill the last 6-bit chunk
    acc = _triangle(map(_column, g.rows, range(n))) << pad
    chunks = range(nbits + pad - 6, -1, -6)
    return chr(n + 63) + "".join(chr((acc >> shift & 63) + 63) for shift in chunks)


def decode(text: str) -> Graph:
    s = text.strip()
    if s.startswith(HEADER):
        s = s[len(HEADER):]
    if not s:
        raise Graph6ParseError("empty graph6 string", 0)
    first = ord(s[0])
    if first == 126:
        raise Graph6RangeError("long-form graph6 (n >= 63) is not supported")
    if not 63 <= first <= 125:
        raise Graph6ParseError(f"invalid size byte {s[0]!r}", 0)
    n = first - 63
    nbits = n * (n - 1) // 2
    want = (nbits + 5) // 6
    if len(s) - 1 != want:
        raise Graph6ParseError(
            f"expected {want} data bytes for n = {n}, got {len(s) - 1}", min(len(s), want + 1)
        )
    acc = 0
    for pos, ch in enumerate(s[1:], start=1):
        val = ord(ch) - 63
        if not 0 <= val <= 63:
            raise Graph6ParseError(f"invalid data byte {ch!r}", pos)
        acc = acc << 6 | val
    pad = -nbits % 6
    if acc & ((1 << pad) - 1):
        raise Graph6ParseError("nonzero padding bits", want)  # the last data byte
    if n == 0:
        raise Graph6ParseError("graphs on 0 vertices are not supported", 0)
    bits = format(acc >> pad, f"0{nbits}b")
    return from_edges(n, (pair for pair, bit in zip(_pairs(n), bits) if bit == "1"))


def write_lines(graphs: Iterable[Graph]) -> str:
    """One graph6 line per graph, newline terminated."""
    return "".join(encode(g) + "\n" for g in graphs)


def read_lines(text: str) -> Iterator[Graph]:
    for line in text.splitlines():
        line = line.strip()
        if line:
            yield decode(line)
