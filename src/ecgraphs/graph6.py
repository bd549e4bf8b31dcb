"""graph6 codec.

The format packs the upper adjacency triangle in column-major pair order
(0,1),(0,2),(1,2),(0,3),... into 6-bit groups offset by 63, preceded by a size
field: one byte 63+n for n <= 62, or the 4-byte long form (126 then three
6-bit groups) which this module uses for n in {63, 64}.  The optional
">>graph6<<" input header is tolerated and never emitted.
"""

from __future__ import annotations

from typing import Sequence

from .graphs import MAX_VERTICES, Graph

HEADER = ">>graph6<<"


class Graph6Error(ValueError):
    """Malformed graph6 text; ``offset`` is the failing byte position."""

    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"{message} (byte offset {offset})")


def parse_graph6(text: str) -> Graph:
    s = text.strip()
    base = 0
    if s.startswith(HEADER):
        base = len(HEADER)
        s = s[base:]
    if not s:
        raise Graph6Error("empty graph6 string", base)
    for i, ch in enumerate(s):
        if not 63 <= ord(ch) <= 126:
            raise Graph6Error(f"byte {ord(ch)} outside the printable range 63..126", base + i)

    if ord(s[0]) != 126:
        n = ord(s[0]) - 63
        body_start = 1
    else:
        if len(s) < 4:
            raise Graph6Error("truncated long size field", base + len(s))
        if ord(s[1]) == 126:
            raise Graph6Error("graph6 sizes beyond 18 bits are not supported", base + 1)
        n = (ord(s[1]) - 63) << 12 | (ord(s[2]) - 63) << 6 | (ord(s[3]) - 63)
        body_start = 4
    if n < 1:
        raise Graph6Error("graphs need at least one vertex", base)
    if n > MAX_VERTICES:
        raise Graph6Error(f"{n} vertices exceeds the {MAX_VERTICES}-vertex limit", base)

    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = s[body_start:]
    if len(body) != nbytes:
        raise Graph6Error(
            f"expected {nbytes} data bytes for n={n}, got {len(body)}",
            base + body_start + min(len(body), nbytes),
        )

    rows = [0] * n
    idx = 0
    i, j = 0, 1  # current column-major pair
    for ch in body:
        val = ord(ch) - 63
        for k in range(5, -1, -1):
            if idx >= nbits:
                break
            if val >> k & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            idx += 1
            i += 1
            if i == j:
                i, j = 0, j + 1
    return Graph(n, tuple(rows))


def write_graph6(g: Graph) -> str:
    return encode_graph6(g.n, g.adj)


def encode_graph6(n: int, adj: Sequence[int]) -> str:
    """graph6 text of adjacency rows that are already known to be a simple graph."""
    if n <= 62:
        head = chr(63 + n)
    else:
        head = chr(126) + chr(63 + (n >> 12)) + chr(63 + (n >> 6 & 63)) + chr(63 + (n & 63))
    chunks = []
    acc = 0
    nbits = 0
    for j in range(1, n):
        for i in range(j):
            acc = acc << 1 | (adj[i] >> j & 1)
            nbits += 1
            if nbits == 6:
                chunks.append(chr(63 + acc))
                acc = 0
                nbits = 0
    if nbits:
        chunks.append(chr(63 + (acc << (6 - nbits))))
    return head + "".join(chunks)
