"""Existential-closure deciders for vertex mode and edge (line) mode.

Both modes reduce to the same question over a list of adjacency bitsets: for
every split of every n-subset of items into (A, B), is there an item outside
the subset adjacent to everything in A and nothing in B?  In vertex mode the
items are vertices and the bitsets are the graph's rows; in line mode the
items are graph edges or hyperedges, two of them adjacent when they share a
vertex, and ``line_adjacency`` builds the bitsets for both.  The bitsets are
arbitrary-width ints, so line mode never materializes a line graph and is not
bound by the 64-vertex cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Any, Sequence

from .graphs import Graph, GraphError, MAX_VERTICES


@dataclass(frozen=True)
class EcVerdict:
    """Outcome of one closure check at a given level.

    ``certificate_a``/``certificate_b`` hold the first failing split in the
    fixed enumeration order (subsets lexicographic, then assignment masks
    ascending with bit t meaning element t of the subset goes to A); items are
    vertex indices in vertex mode and endpoint tuples in line/hypergraph mode.
    """

    level: int
    holds: bool
    certificate_a: tuple[Any, ...] | None = None
    certificate_b: tuple[Any, ...] | None = None

    def to_json(self) -> dict:
        cert = None
        if not self.holds:
            cert = {
                "A": [list(x) if isinstance(x, tuple) else x for x in self.certificate_a],
                "B": [list(x) if isinstance(x, tuple) else x for x in self.certificate_b],
            }
        return {"level": self.level, "holds": self.holds, "certificate": cert}


def _ec_split_search(adjacency: Sequence[int], count: int, level: int) -> tuple[int, ...] | None:
    """First failing (subset, assignment) pair, or None if the property holds.

    Returns the failing subset plus assignment packed as ``(*subset, a)``.
    """
    full = (1 << count) - 1
    if level == 2:
        for i in range(count - 1):
            ai = adjacency[i]
            for j in range(i + 1, count):
                aj = adjacency[j]
                rest = full & ~(1 << i) & ~(1 << j)
                if not rest & ~ai & ~aj:
                    return (i, j, 0)
                if not rest & ai & ~aj:
                    return (i, j, 1)
                if not rest & ~ai & aj:
                    return (i, j, 2)
                if not rest & ai & aj:
                    return (i, j, 3)
        return None
    for subset in combinations(range(count), level):
        sbits = 0
        for s in subset:
            sbits |= 1 << s
        rest = full & ~sbits
        for a in range(1 << level):
            w = rest
            for t in range(level):
                if a >> t & 1:
                    w &= adjacency[subset[t]]
                else:
                    w &= ~adjacency[subset[t]]
                if not w:
                    break
            if not w:
                return subset + (a,)
    return None


def _verdict(level: int, failure: tuple[int, ...] | None, items: Sequence[Any] | None) -> EcVerdict:
    if failure is None:
        return EcVerdict(level, True)
    *subset, a = failure
    pick = (lambda s: items[s]) if items is not None else (lambda s: s)
    cert_a = tuple(pick(s) for t, s in enumerate(subset) if a >> t & 1)
    cert_b = tuple(pick(s) for t, s in enumerate(subset) if not a >> t & 1)
    return EcVerdict(level, False, cert_a, cert_b)


def is_n_ec(g: Graph, n: int) -> EcVerdict:
    """Decide whether g is n-existentially closed over vertices."""
    if not 1 <= n <= g.n:
        raise GraphError(f"level must be 1..{g.n} for this graph, got {n}")
    return _verdict(n, _ec_split_search(g.adj, g.n, n), None)


def xi(g: Graph) -> int:
    """Largest n for which g is n-e.c.; 0 when not even 1-e.c.

    Ascends from 1 and stops at the first failure, which is valid because the
    property is monotone in n.
    """
    level = 0
    while level < g.n:
        if not is_n_ec(g, level + 1).holds:
            break
        level += 1
    return level


# ---------------------------------------------------------------------------
# line mode


def vertex_stars(items: Sequence[Sequence[int]], n: int) -> list[int]:
    """Per-vertex bitsets over item indices: bit i of entry v set iff v lies in item i."""
    stars = [0] * n
    for idx, item in enumerate(items):
        for v in item:
            stars[v] |= 1 << idx
    return stars


def line_adjacency(items: Sequence[Sequence[int]], n: int) -> list[int]:
    """Per-item bitsets over item indices: bit j of entry i set iff items i and j meet.

    Items are vertex tuples (graph edges or hyperedges) over 0..n-1, listed in
    the order their indices take in certificates and line graphs.
    """
    stars = vertex_stars(items, n)
    out = []
    for idx, item in enumerate(items):
        acc = 0
        for v in item:
            acc |= stars[v]
        out.append(acc & ~(1 << idx))
    return out


def line_graph(g: Graph) -> tuple[Graph, tuple[tuple[int, int], ...]]:
    """Line graph of g plus the vertex->edge map (edges in lexicographic order)."""
    edges = g.edges()
    m = len(edges)
    if m == 0:
        raise GraphError("line graph of an edgeless graph is empty")
    if m > MAX_VERTICES:
        raise GraphError(f"line graph would have {m} > {MAX_VERTICES} vertices")
    return Graph(m, tuple(line_adjacency(edges, g.n))), tuple(edges)


def is_n_line_ec(g: Graph, n: int) -> EcVerdict:
    """Decide whether g is n-line existentially closed (over edges)."""
    edges = g.edges()
    m = len(edges)
    if not 1 <= n <= m:
        raise GraphError(f"level must be 1..{m} for this graph, got {n}")
    return _verdict(n, _ec_split_search(line_adjacency(edges, g.n), m, n), edges)


def _has_three_disjoint(adjacency: Sequence[int], count: int) -> bool:
    for i in range(count):
        ai = adjacency[i]
        for j in range(i + 1, count):
            if ai >> j & 1:
                continue
            both = ai | adjacency[j] | (1 << i) | (1 << j)
            if both.bit_count() < count:
                return True
    return False


def xi_line(g: Graph) -> int:
    """Largest n for which g is n-line e.c.; 0 when not even 1-line e.c.

    Level 3 is first disproved by exhibiting three pairwise disjoint edges (no
    edge can meet all three), falling back to full enumeration when the graph
    has no such triple; the theorem that the value never exceeds 2 is asserted.
    """
    edges = g.edges()
    m = len(edges)
    level = 0
    while level < m:
        nxt = level + 1
        if nxt == 3:
            if _has_three_disjoint(line_adjacency(edges, g.n), m):
                break
        if not is_n_line_ec(g, nxt).holds:
            break
        level = nxt
    if level > 2:
        raise AssertionError(f"graph found {level}-line e.c.; levels beyond 2 are impossible")
    return level
