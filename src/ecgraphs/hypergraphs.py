"""Hypergraphs with bitmask edges, and closure checks of their line graphs.

Edges are vertex subsets stored as bitmasks and kept sorted by integer value,
which fixes the edge indexing used everywhere (checks, certificates, the text
format).  Closure checking works directly on edge intersections, so the line
graph is never built and the number of edges is not limited by the 64-vertex
cap of the Graph type.

The closure check reduces by the group that twin vertices generate (see
``ec`` for why any group keeps the verdict and the certificate).  Two
vertices are *twins* when swapping them maps the edge set to itself.  Being
twins is an equivalence, because (u w) = (u v)(v w)(u v), and the twin
classes generate a group of automorphisms, all permutations within each
class; two edges lie in one of its orbits exactly when their vertices carry
the same multiset of class labels.  For crossing hypergraphs, whose group
S_x x S_y leaves k - 1 edge orbits, the level-2 search checks k - 1 of its m
prefixes.  An n-line e.c. hypergraph has no edge e inside the union of n - 1
others f1..f(n-1), since ({e}, {f1..f(n-1)}) needs an edge that meets e and
misses every fi: it is an (n - 1)-cover-free family (Erdos, Frankl and
Furedi, Israel J. Math. 51, 1985).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable, Sequence

from .ec import EcVerdict, decide, line_adjacency, vertex_stars
from .graph6 import SPACE, numbered_lines
from .graphs import Graph, GraphError, MAX_VERTICES, bits

_NUMERIC = frozenset("0123456789" + SPACE)  # every character a text-format line may hold

# crossing_hypergraph walks every k-subset of its vertices, so it refuses more
MAX_CROSSING_SUBSETS = 1 << 20


class HypergraphError(ValueError):
    """Invalid hypergraph construction."""


def _check_vertex_count(n: int) -> None:
    if not 1 <= n <= MAX_VERTICES:
        raise HypergraphError(f"vertex count must be 1..{MAX_VERTICES}, got {n}")


@dataclass(frozen=True)
class Hypergraph:
    """Vertices 0..n-1 and a sorted tuple of distinct nonempty edge bitmasks,
    stored as a tuple whatever sequence is given, so instances are hashable."""

    n: int
    edges: tuple[int, ...]

    def __post_init__(self) -> None:
        edges = tuple(self.edges)
        object.__setattr__(self, "edges", edges)
        _check_vertex_count(self.n)
        full = (1 << self.n) - 1
        prev = 0
        for e in edges:
            if not isinstance(e, int):
                raise HypergraphError(f"hyperedge {e!r} is not an int bitmask")
            if e == 0:
                raise HypergraphError("empty hyperedge")
            if e & ~full:
                raise HypergraphError("hyperedge references vertices out of range")
            if e == prev:
                raise HypergraphError("duplicate hyperedge")
            if e < prev:
                raise HypergraphError("hyperedges must be sorted by bitmask")
            prev = e

    @classmethod
    def from_vertex_sets(cls, n: int, edge_sets: Iterable[Iterable[int]]) -> "Hypergraph":
        _check_vertex_count(n)  # before any mask is built
        masks = []
        for es in edge_sets:
            mask = 0
            for v in es:
                if not 0 <= v < n:
                    raise HypergraphError(f"vertex {v} out of range for n={n}")
                if mask >> v & 1:
                    raise HypergraphError(f"vertex {v} repeated within an edge")
                mask |= 1 << v
            masks.append(mask)
        masks.sort()
        return cls(n, tuple(masks))

    def is_uniform(self, k: int) -> bool:
        return all(e.bit_count() == k for e in self.edges)


# ---------------------------------------------------------------------------
# text format: first line "n m", then one line of ascending vertex indices per
# edge, edges ordered by ascending bitmask.


def format_hypergraph(h: Hypergraph) -> str:
    lines = [f"{h.n} {len(h.edges)}"]
    for e in h.edges:
        lines.append(" ".join(str(v) for v in bits(e)))
    return "\n".join(lines) + "\n"


def parse_hypergraph(text: str) -> Hypergraph:
    """The text format back into a hypergraph; every error names its line.
    Tokens split at SPACE only and must be ASCII digits: no NBSP, 0x1c-0x1f,
    "1_1", "+0" or other scripts' digits."""
    lines = [(lineno, line) for lineno, line in numbered_lines(text.split("\n")) if line]
    if not lines:
        raise HypergraphError("empty hypergraph text")
    (lineno, head), *body = lines
    try:
        if len(head.split()) != 2:
            raise HypergraphError("header must be 'n m'")
        n, m = _numbers(head, "header")
        if len(body) != m:
            raise HypergraphError(f"expected {m} edge lines, got {len(body)}")
        _check_vertex_count(n)  # on the header's line
        edges: set[int] = set()
        for lineno, line in body:
            (mask,) = Hypergraph.from_vertex_sets(n, [_numbers(line, "edge line")]).edges
            if mask in edges:
                raise HypergraphError("duplicate hyperedge")
            edges.add(mask)
    except ValueError as exc:  # also int()'s refusal of over-long numbers
        raise HypergraphError(f"line {lineno}: {exc}") from None
    return Hypergraph(n, tuple(sorted(edges)))


def _numbers(line: str, what: str) -> list[int]:
    if not set(line) <= _NUMERIC:  # so str.split() splits at SPACE only
        raise HypergraphError(f"non-numeric {what}: {line!r}")
    return [int(tok) for tok in line.split()]


# ---------------------------------------------------------------------------
# operations


def is_n_line_ec_hyper(h: Hypergraph, n: int) -> EcVerdict:
    """Edge-level closure check, never materializing the line graph."""
    items = [tuple(bits(e)) for e in h.edges]
    return decide(line_adjacency(items, h.n), items, n, lambda: _twin_reps(h, items), "hypergraph", HypergraphError)


def _twin_reps(h: Hypergraph, items: Sequence[Sequence[int]]) -> list[int]:
    """The least item of every orbit of the group the twin classes generate,
    ascending; items are vertex tuples.

    u and v are twins when swapping them maps every edge that holds just one
    of them to an edge.  Being twins is an equivalence, so each vertex is
    tested only against the first vertex of every class found so far."""
    edge_set = set(h.edges)
    firsts: list[int] = []
    labels = []
    for v in range(h.n):
        for label, u in enumerate(firsts):
            pair = 1 << u | 1 << v
            if all(e ^ pair in edge_set for e in h.edges if (e & pair).bit_count() == 1):
                labels.append(label)
                break
        else:
            labels.append(len(firsts))
            firsts.append(v)
    if len(firsts) == h.n:  # no twins: every item is its own orbit
        return list(range(len(items)))
    leaders: dict[tuple[int, ...], int] = {}
    for i, item in enumerate(items):
        leaders.setdefault(tuple(sorted(map(labels.__getitem__, item))), i)
    return list(leaders.values())


def crossing_hypergraph(x: int, y: int, k: int) -> Hypergraph:
    """All k-subsets of X + Y meeting both sides, X the first x vertices."""
    if not (x >= y >= 1):
        raise HypergraphError(f"need x >= y >= 1, got x={x}, y={y}")
    if k < 2:
        raise HypergraphError(f"edge size must be at least 2, got {k}")
    n = x + y
    if n > MAX_VERTICES:
        raise HypergraphError(f"{n} vertices exceeds the {MAX_VERTICES}-vertex limit")
    if k > n:
        raise HypergraphError(f"edge size {k} exceeds the vertex count {n}")
    subsets = comb(n, k)
    if subsets > MAX_CROSSING_SUBSETS:
        raise HypergraphError(f"C({n}, {k}) = {subsets} subsets exceeds the {MAX_CROSSING_SUBSETS} limit")
    xmask = (1 << x) - 1
    ymask = ((1 << y) - 1) << x
    masks = []
    for combo in combinations(range(n), k):
        mask = 0
        for v in combo:
            mask |= 1 << v
        if mask & xmask and mask & ymask:
            masks.append(mask)
    masks.sort()
    return Hypergraph(n, tuple(masks))


def star_dual(g: Graph) -> Hypergraph:
    """Hypergraph on E(g) whose hyperedges are the vertex stars of g.

    The line graph of the result is isomorphic to g; a k-regular g gives a
    k-uniform result.  Isolated vertices (empty star) and single-edge
    components (duplicate stars) are rejected.
    """
    edges = g.edges()
    m = len(edges)
    if m > MAX_VERTICES:
        raise GraphError(f"star dual would have {m} > {MAX_VERTICES} vertices")
    degs = g.degrees()
    if any(d == 0 for d in degs):
        raise GraphError("star dual undefined for graphs with isolated vertices")
    for u, v in edges:
        if degs[u] == 1 and degs[v] == 1:
            raise GraphError("star dual undefined for single-edge components")
    return Hypergraph(m, tuple(sorted(vertex_stars(edges, g.n))))


def cross_join_hypergraphs(h1: Hypergraph, h2: Hypergraph, k: int) -> Hypergraph:
    """Union of two k-uniform hypergraphs (h2 shifted up) plus all k-subsets
    meeting both vertex sets; k must be at least 2, as for crossing_hypergraph."""
    if not h1.is_uniform(k) or not h2.is_uniform(k):
        raise HypergraphError(f"both hypergraphs must be {k}-uniform")
    if not (h1.n >= h2.n >= 2 * k - 1):
        raise HypergraphError(f"need |V1| >= |V2| >= {2 * k - 1}, got {h1.n}, {h2.n}")
    crossing = crossing_hypergraph(h1.n, h2.n, k)
    masks = list(h1.edges) + [e << h1.n for e in h2.edges] + list(crossing.edges)
    return Hypergraph(crossing.n, tuple(sorted(masks)))
