"""graph6 codec.

The format packs the upper adjacency triangle in column-major pair order
(0,1),(0,2),(1,2),(0,3),... into 6-bit groups offset by 63, preceded by a size
field: one byte 63+n for n <= 62, or the 4-byte long form (126 then three
6-bit groups) which this module uses for n in {63, 64}.  The optional
">>graph6<<" input header is tolerated and never emitted.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .graphs import MAX_VERTICES, Graph

HEADER = ">>graph6<<"
SPACE = " \t\n\r\v\f"  # stripped from lines: ASCII only, so other bytes get named
_PAIRS = [(i, j) for j in range(MAX_VERTICES) for i in range(j)]  # column-major: pair t of the body
_REVERSED = [chr(63 + int(f"{x:06b}"[::-1], 2)) for x in range(64)]  # a group's body byte, its bits read low first


class Graph6Error(ValueError):
    """Malformed graph6 text; ``offset`` is the failing byte position."""

    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"{message} (byte offset {offset})")


def numbered_lines(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """Each line of a text input with its number from 1, stripped of SPACE.
    Lines end at "\\n" only (``newline="\\n"`` or ``text.split("\\n")``): a form
    feed or other control byte inside a line is left for the parser to name."""
    return enumerate((raw.strip(SPACE) for raw in lines), start=1)


def parse_graph6(text: str) -> Graph:
    s = text.strip(SPACE)
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

    val = 0
    for ch in body:
        val = val << 6 | (ord(ch) - 63)
    val >>= 6 * len(body) - nbits  # drop the padding: pair t is now bit nbits-1-t
    rows = [0] * n
    while val:
        low = val & -val
        val ^= low
        i, j = _PAIRS[nbits - low.bit_length()]
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    # n is in 1..64 and each set pair i < j < n sets both of its bits, so the
    # rows are symmetric, loop-free and in range without a re-check
    return Graph._trusted(n, tuple(rows))


def write_graph6(g: Graph) -> str:
    return encode_graph6(g.n, g.adj)


def encode_graph6(n: int, adj: Sequence[int]) -> str:
    """graph6 text of adjacency rows that are already known to be a simple graph.

    The body is built as one int whose bit t is pair t: column j's pairs
    (i, j), i < j, start at bit j(j-1)/2 and are the low j bits of row j.
    Each 6-bit group is then read lowest bit first, as its first pair is the
    group's high bit, through the bit-reversal table."""
    if n <= 62:
        head = chr(63 + n)
    else:
        head = chr(126) + chr(63 + (n >> 12)) + chr(63 + (n >> 6 & 63)) + chr(63 + (n & 63))
    val = 0
    for j in range(1, n):
        val |= (adj[j] & ((1 << j) - 1)) << (j * (j - 1) // 2)
    nbits = n * (n - 1) // 2
    return head + "".join([_REVERSED[val >> s & 63] for s in range(0, nbits, 6)])
