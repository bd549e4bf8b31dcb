"""Bitmask-backed simple graphs and the elementary parameters everything else uses.

Vertices are 0..n-1 with n <= 64, so a neighbour set fits in one machine word
and set algebra on vertex sets is plain integer arithmetic.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

MAX_VERTICES = 64


class GraphError(ValueError):
    """Invalid graph construction or a size outside the supported range."""


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; ``adj[v]`` is the neighbour set of v as a bitmask.

    Rows are validated to be ints, loop-free and within range, and then
    symmetric by one bit-matrix transpose (``relabel_rows`` in the identity
    order), so every constructed Graph is a simple graph by representation;
    ``_trusted`` skips the check for rows that are valid by construction.
    The rows are stored as a tuple, so instances are immutable, hashable and
    safe to share between threads or processes.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        n, adj = self.n, tuple(self.adj)
        object.__setattr__(self, "adj", adj)
        if not 1 <= n <= MAX_VERTICES:
            raise GraphError(f"vertex count must be 1..{MAX_VERTICES}, got {n}")
        if len(adj) != n:
            raise GraphError("adjacency row count does not match vertex count")
        full = (1 << n) - 1
        for v, row in enumerate(adj):
            if not isinstance(row, int):
                raise GraphError(f"adjacency row {v} is not an int bitmask: {row!r}")
            if row & ~full:
                raise GraphError(f"adjacency row {v} references vertices >= {n}")
            if row >> v & 1:
                raise GraphError(f"loop at vertex {v}")
        cols = relabel_rows(adj, range(n))  # cols[v] = {u : v in adj[u]}
        if cols != adj:
            v, extra = next((v, row & ~col) for v, (row, col) in enumerate(zip(adj, cols)) if row & ~col)
            raise GraphError(f"asymmetric adjacency between {v} and {(extra & -extra).bit_length() - 1}")

    @classmethod
    def _trusted(cls, n: int, adj: tuple[int, ...]) -> "Graph":
        """A Graph built without the re-check of ``__post_init__``, for rows
        that are valid by construction: 1 <= n <= 64, one row per vertex,
        and the rows symmetric, loop-free and below bit n.  Input from
        outside the program goes through ``Graph(n, adj)``."""
        g = object.__new__(cls)
        d = g.__dict__
        d["n"] = n
        d["adj"] = adj
        return g

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise GraphError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> list[int]:
        return [row.bit_count() for row in self.adj]

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """Edges as (u, v) with u < v, in lexicographic order."""
        out = []
        for u in range(self.n):
            above = self.adj[u] >> (u + 1) << (u + 1)
            for v in bits(above):
                out.append((u, v))
        return out

    def permuted(self, perm: Sequence[int]) -> "Graph":
        """Relabel: vertex v becomes perm[v]; ``perm`` must be a permutation
        of 0..n-1.  The rows of a valid graph, relabelled, are valid."""
        if sorted(perm) != list(range(self.n)):
            raise GraphError(f"not a permutation of 0..{self.n - 1}: {list(perm)}")
        order = [0] * self.n
        for v, label in enumerate(perm):
            order[label] = v
        return Graph._trusted(self.n, relabel_rows(self.adj, order))

    def induced(self, vertices: Sequence[int]) -> "Graph":
        """Subgraph induced by ``vertices``, relabelled 0.. in the given order."""
        k = len(vertices)
        pos = {v: i for i, v in enumerate(vertices)}
        if len(pos) != k:
            raise GraphError("duplicate vertices in induced subgraph request")
        bad = next((v for v in vertices if not 0 <= v < self.n), None)
        if bad is not None:
            raise GraphError(f"vertex {bad} out of range for n={self.n}")
        rows = [0] * k
        for i, v in enumerate(vertices):
            for u in bits(self.adj[v]):
                j = pos.get(u)
                if j is not None:
                    rows[i] |= 1 << j
        return Graph(k, tuple(rows))


def _swap_masks(width: int) -> list[tuple[int, int]]:
    """The delta-swaps that transpose a width x width bit matrix held in one
    int, row j in bits j*width..j*width+width-1: at each block size k, the
    bits (j, c) with bit k clear in j and set in c trade places with
    (j + k, c - k), k*(width - 1) bits up."""
    swaps = []
    k = width >> 1
    while k:
        row = sum(1 << c for c in range(width) if c & k)
        rows = sum(1 << j * width for j in range(width) if not j & k)
        swaps.append((k * (width - 1), rows * row))
        k >>= 1
    return swaps


def _typecode(size: int) -> str:
    return next(code for code in "BHILQ" if array(code).itemsize == size)


# (width, array typecode of that many bits, delta-swaps) for 1-8, 9-16, 17-32 and 33-64 vertices
_TRANSPOSE = [(width, _typecode(width >> 3), _swap_masks(width)) for width in (8, 16, 32, 64)]
_BIG_ENDIAN = sys.byteorder == "big"


def relabel_rows(adj: Sequence[int], order: Sequence[int]) -> tuple[int, ...]:
    """Symmetric adjacency rows relabelled so that vertex order[i] becomes i.

    The rows in label order are the rows of one bit matrix packed into one
    int; transposing it relabels the columns, and since the rows are
    symmetric, transposed row order[i] is new row i.  In the identity order
    it transposes any rows below bit n, which is how ``Graph`` checks symmetry."""
    n = len(order)
    width, code, swaps = _TRANSPOSE[(n > 8) + (n > 16) + (n > 32)]
    packed = array(code, [adj[v] for v in order])
    if _BIG_ENDIAN:
        packed.byteswap()
    x = int.from_bytes(packed, "little")
    for delta, mask in swaps:
        t = (x ^ x >> delta) & mask
        x ^= t | t << delta
    cols = array(code, x.to_bytes(n * width >> 3, "little"))
    if _BIG_ENDIAN:
        cols.byteswap()
    return tuple([cols[v] for v in order])


# ---------------------------------------------------------------------------
# standard families


def _check_order(n: int, least: int, too_small: str) -> None:
    """Refuse an order below ``least`` or above 64 before any O(n^2)-bit rows exist."""
    if n < least:
        raise GraphError(too_small)
    if n > MAX_VERTICES:
        raise GraphError(f"{n} vertices exceeds the {MAX_VERTICES}-vertex limit")


def empty_graph(n: int) -> Graph:
    _check_order(n, 1, "empty graph needs at least one vertex")
    return Graph(n, (0,) * n)


def complete_graph(n: int) -> Graph:
    _check_order(n, 1, "complete graph needs at least one vertex")
    full = (1 << n) - 1
    return Graph(n, tuple(full & ~(1 << v) for v in range(n)))


def path_graph(n: int) -> Graph:
    _check_order(n, 1, "path needs at least one vertex")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    _check_order(n, 3, "cycle needs at least three vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_multipartite(parts: Sequence[int]) -> Graph:
    """Complete multipartite graph with vertices grouped in block order."""
    if any(p < 1 for p in parts):
        raise GraphError("zero or negative part size")
    n = sum(parts)
    _check_order(n, 1, "at least one part required")
    full = (1 << n) - 1
    rows = []
    start = 0
    for p in parts:
        block = ((1 << p) - 1) << start
        rows.extend([full & ~block] * p)
        start += p
    return Graph(n, tuple(rows))


def complete_bipartite(a: int, b: int) -> Graph:
    return complete_multipartite([a, b])


# name -> (builder, parameter count; None for variadic)
_FAMILIES = {
    "complete": (complete_graph, 1),
    "cycle": (cycle_graph, 1),
    "path": (path_graph, 1),
    "complete_bipartite": (complete_bipartite, 2),
    "complete_multipartite": (lambda *parts: complete_multipartite(list(parts)), None),
    "empty": (empty_graph, 1),
}


def standard_family(name: str, params: Sequence[int]) -> Graph:
    """Build a named family member; used by the CLI ``construct family`` command."""
    if name not in _FAMILIES:
        raise GraphError(f"unknown family {name!r}")
    build, arity = _FAMILIES[name]
    if arity is not None and len(params) != arity:
        raise GraphError(f"family {name!r} takes {arity} parameter(s), got {len(params)}")
    return build(*params)


# ---------------------------------------------------------------------------
# operations


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, tuple(full & ~row & ~(1 << v) for v, row in enumerate(g.adj)))


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product; vertex (u, v) gets index u * h.n + v."""
    n = g.n * h.n
    if n > MAX_VERTICES:
        raise GraphError(f"product would have {n} > {MAX_VERTICES} vertices")
    rows = [0] * n
    for u in range(g.n):
        base = u * h.n
        for v in range(h.n):
            row = h.adj[v] << base
            for u2 in bits(g.adj[u]):
                row |= 1 << (u2 * h.n + v)
            rows[base + v] = row
    return Graph(n, tuple(rows))


def _reach(adj: Sequence[int], start: int, allowed: int) -> int:
    """Vertices reachable from ``start`` inside the ``allowed`` mask."""
    seen = 1 << start
    frontier = seen
    while frontier:
        nxt = 0
        for v in bits(frontier):
            nxt |= adj[v]
        nxt &= allowed & ~seen
        seen |= nxt
        frontier = nxt
    return seen


def is_connected(g: Graph) -> bool:
    return _reach(g.adj, 0, (1 << g.n) - 1) == (1 << g.n) - 1


def diameter(g: Graph) -> int | float:
    """Maximum BFS distance over vertex pairs; ``math.inf`` when disconnected."""
    full = (1 << g.n) - 1
    best = 0
    for s in range(g.n):
        seen = 1 << s
        frontier = seen
        dist = 0
        while True:
            nxt = 0
            for v in bits(frontier):
                nxt |= g.adj[v]
            nxt &= ~seen
            if not nxt:
                break
            dist += 1
            seen |= nxt
            frontier = nxt
        if seen != full:
            return math.inf
        best = max(best, dist)
    return best


def has_induced_2k2(adj: Sequence[int]) -> bool:
    """True iff the graph with adjacency rows ``adj`` has an induced 2K2 (two
    edges with no edge between them).

    An edge uv lies in one exactly when some edge joins two vertices of
    rest = V - (N(u) | N(v)), that is when some vertex of rest has a
    neighbour in rest; u and v are in each other's rows, so never in rest.
    Set bits are walked inline, not through ``bits``, which costs about
    twice as much here; ``filter`` runs this on every line it reads.
    """
    full = (1 << len(adj)) - 1
    for u, row in enumerate(adj):
        above = row >> u >> 1 << u << 1  # each edge uv once, from u < v
        while above:
            v = above & -above
            above ^= v
            rest = full & ~(row | adj[v.bit_length() - 1])
            left = rest
            while left:
                w = left & -left
                if adj[w.bit_length() - 1] & rest:
                    return True
                left ^= w
    return False


def contains_induced(g: Graph, h: Graph) -> bool:
    """True iff some vertex subset of g induces a graph isomorphic to h.

    Backtracking over injective maps with bitmask candidate filtering; meant
    for small patterns (|V(h)| <= 8).
    """
    if h.n > g.n:
        return False
    order = sorted(range(h.n), key=lambda v: (-h.degree(v), v))
    full = (1 << g.n) - 1
    mapping = [0] * h.n

    def place(i: int, used: int) -> bool:
        if i == h.n:
            return True
        hv = order[i]
        cand = full & ~used
        for j in range(i):
            hu = order[j]
            gu = mapping[hu]
            if h.adj[hv] >> hu & 1:
                cand &= g.adj[gu]
            else:
                cand &= ~g.adj[gu]
            if not cand:
                return False
        for gv in bits(cand):
            mapping[hv] = gv
            if place(i + 1, used | 1 << gv):
                return True
        return False

    return place(0, 0)
