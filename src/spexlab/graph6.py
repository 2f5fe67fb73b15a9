"""graph6 short-form codec.

Follows the published format bit for bit: the first byte is n + 63 for
n <= 62, then the upper triangle of the adjacency matrix in column-major
order, packed big-endian into 6-bit chunks offset by 63, zero padded.
The long form (n >= 63) is rejected rather than implemented.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import Graph6ParseError, Graph6RangeError
from .graphs import Graph, _from_rows

__all__ = ["encode", "decode", "write_lines", "read_lines"]

HEADER = ">>graph6<<"


def encode(g: Graph) -> str:
    if g.n > 62:
        raise Graph6RangeError(f"short-form graph6 supports n <= 62, got n = {g.n}")
    chars = [chr(g.n + 63)]
    acc = 0
    nbits = 0
    for j in range(1, g.n):
        col = g.rows[j] & ((1 << j) - 1)
        for i in range(j):
            acc = (acc << 1) | ((col >> i) & 1)
            nbits += 1
            if nbits == 6:
                chars.append(chr(acc + 63))
                acc = 0
                nbits = 0
    if nbits:
        acc <<= 6 - nbits
        chars.append(chr(acc + 63))
    return "".join(chars)


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
    bits = []
    for pos, ch in enumerate(s[1:], start=1):
        val = ord(ch) - 63
        if not 0 <= val <= 63:
            raise Graph6ParseError(f"invalid data byte {ch!r}", pos)
        bits.extend((val >> shift) & 1 for shift in range(5, -1, -1))
    for pos in range(nbits, len(bits)):
        if bits[pos]:
            raise Graph6ParseError("nonzero padding bits", 1 + pos // 6)
    if n == 0:
        raise Graph6ParseError("graphs on 0 vertices are not supported", 0)
    rows = [0] * n
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            idx += 1
    return _from_rows(n, rows)


def write_lines(graphs: Iterable[Graph]) -> str:
    """One graph6 line per graph, newline terminated."""
    return "".join(encode(g) + "\n" for g in graphs)


def read_lines(text: str) -> Iterator[Graph]:
    for line in text.splitlines():
        line = line.strip()
        if line:
            yield decode(line)
