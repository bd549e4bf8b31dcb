"""Existential-closure deciders for vertex mode and edge (line) mode.

Both modes reduce to the same question over a list of adjacency bitsets: for
every split of every n-subset of items into (A, B), is there an item outside
the subset adjacent to everything in A and nothing in B?  In vertex mode the
items are vertices and the bitsets are the graph's rows; in line mode the
items are graph edges or hyperedges, two of them adjacent when they share a
vertex, and ``line_adjacency`` builds the bitsets for both.  The bitsets are
arbitrary-width ints, so line mode never materializes a line graph and is not
bound by the 64-vertex cap.  One split search, ``_ec_split_search``, decides
every level in every mode, and ``xi``/``xi_line`` ascend through it.
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
    """First failing split packed as ``(*subset, a)`` in the certificate
    order, or None if the property holds.

    One loop serves every level.  Each (level-1)-prefix, in lexicographic
    order, splits the other items into cells by adjacency to the prefix (bit
    t of a cell's index set: the cell lies in the neighbourhood of prefix
    item t).  A later item j completes a failing subset exactly when some
    cell holds no neighbour of j or no non-neighbour other than j, so OR-ing
    each cell's rows into ``meet`` and AND-ing ``row | bit(v)`` into
    ``common`` marks every such j at once.  That reads j's neighbours off the
    rows of the cell members, so the adjacency must be symmetric and
    loop-free, as ``Graph`` rows and ``line_adjacency`` output are.
    """
    full = (1 << count) - 1
    for prefix in combinations(range(count - 1), level - 1):
        cells = [full]
        for s in prefix:
            row = adjacency[s]
            cells = [c & ~row & ~(1 << s) for c in cells] + [c & row for c in cells]
        later = full & ~((2 << prefix[-1]) - 1) if prefix else full
        ok = later
        for c in cells:
            meet, common = 0, -1
            while c:
                low = c & -c
                row = adjacency[low.bit_length() - 1]
                meet |= row
                common &= row | low
                c ^= low
            ok &= meet & ~common
            if not ok:
                break
        if ok != later:
            failing = later & ~ok
            j = (failing & -failing).bit_length() - 1
            row = adjacency[j]
            split = [c & ~row & ~(1 << j) for c in cells] + [c & row for c in cells]
            return (*prefix, j, split.index(0))
    return None


def _verdict(level: int, failure: tuple[int, ...] | None, items: Sequence[Any]) -> EcVerdict:
    if failure is None:
        return EcVerdict(level, True)
    *subset, a = failure
    cert_a = tuple(items[s] for t, s in enumerate(subset) if a >> t & 1)
    cert_b = tuple(items[s] for t, s in enumerate(subset) if not a >> t & 1)
    return EcVerdict(level, False, cert_a, cert_b)


def is_n_ec(g: Graph, n: int) -> EcVerdict:
    """Decide whether g is n-existentially closed over vertices."""
    if not 1 <= n <= g.n:
        raise GraphError(f"level must be 1..{g.n} for this graph, got {n}")
    return _verdict(n, _ec_split_search(g.adj, g.n, n), range(g.n))


def _closure_number(adjacency: Sequence[int], count: int) -> int:
    """Largest level the split search passes; ascending stops at the first
    failure, which is valid because the property is monotone."""
    level = 0
    while level < count and _ec_split_search(adjacency, count, level + 1) is None:
        level += 1
    return level


def xi(g: Graph) -> int:
    """Largest n for which g is n-e.c.; 0 when not even 1-e.c."""
    return _closure_number(g.adj, g.n)


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


def xi_line(g: Graph) -> int:
    """Largest n for which g is n-line e.c.; 0 when not even 1-line e.c.

    Every level, the third included, is decided by the one split search over
    one adjacency list; the theorem that the value never exceeds 2 is asserted.
    """
    edges = g.edges()
    level = _closure_number(line_adjacency(edges, g.n), len(edges))
    if level > 2:
        raise AssertionError(f"graph found {level}-line e.c.; levels beyond 2 are impossible")
    return level
