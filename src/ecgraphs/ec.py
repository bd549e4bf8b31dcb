"""Existential-closure deciders for vertex mode and edge (line) mode.

Both modes reduce to the same question over a list of adjacency bitsets: for
every split of every n-subset of items into (A, B), is there an item outside
the subset adjacent to everything in A and nothing in B?  In vertex mode the
items are vertices and the bitsets are the graph's rows; in line mode the
items are graph edges or hyperedges, two of them adjacent when they share a
vertex, and ``line_adjacency`` builds the bitsets of both.  The bitsets are
arbitrary-width ints, so line mode never materializes a line graph and is not
bound by the 64-vertex cap.  One split search, ``_ec_split_search``, decides
every level in every mode: ``decide`` checks one level and names its
certificate, and ``xi``/``xi_line`` ascend through the levels.

Symmetric inputs are checked on fewer subsets.  An automorphism maps failing
subsets to failing subsets, so take any group of automorphisms, acting on the
items, and in each orbit of level-subsets a member S whose least item is as
small as possible: that item is the least of its own item orbit, or a group
element would map S to a member with a smaller least item.  So the property
holds when every subset whose least item is an orbit representative passes,
that is when every prefix of the ordered search led by a representative
passes.  The same argument shows that the first failing subset is led by a
representative (an image with a smaller least item would fail earlier), so
searching the led prefixes in order finds the same certificate.  Any group
will do, provided each representative is the *least* item of its orbit.

Each kind of input has one group.  A graph's is its full automorphism group,
generated by the permutations ``canon.canonical_search`` finds, at every
level; in line mode each of them maps edge (u, v) to the sorted edge
(p[u], p[v]).  Paley graphs have a vertex-transitive group, so only the
prefixes led by vertex 0 remain.  A hypergraph's is the group its twin
vertices generate (see ``hypergraphs``).

The split search reads one lazy stream of prefixes: those led by item 0,
the least item of its orbit under any group, then, only once they all pass,
those led by the other representatives.  Most small graphs fail at a 0-led
prefix, and in vertex mode a vertex-transitive graph fails nowhere else, so
the searches and ``filter``, which ask only level-2 questions, rarely pay
for a canonical search (8, 15 and 10 in one pass of the three benchmark
workloads).  A decider finds its group at most once per call.

Which graphs are 2-line e.c. is known.  Theorem: a graph with no isolated
vertex and at least two edges is 2-line e.c. if and only if its minimum
degree is at least 3, it is 2K2-free, and no two edges span a vertex
cover.  Necessity: ({}, {e, f}) fails when e and f span a cover, and
({e, f}, {}) when they form an induced 2K2.  If deg v = 1 on the edge uv,
({uv}, {uw}) fails for an edge uw, and ({uv}, {f}) for every other edge f
when uv is a component.  If N(v) = {u, w}, ({vu, vw}, {}) fails when uw
is no edge, and ({uv}, {uw}) when it is one.  Sufficiency: take edges
e = uv and f.  ({}, {e, f}) passes as e and f span no cover.  ({e, f}, {})
passes by an edge between them when they are disjoint (2K2-free), or by a
third edge at their common vertex (degree >= 3).  ({e}, {f}) with f = vx
passes by an edge uw with w not in {v, x} (degree >= 3).  With f = xy
disjoint from e, were it to fail, every edge at u or v but e would meet x
or y, so N(u) = {v, x, y} and N(v) = {u, x, y}; then the edge st that
passes ({}, {ux, vy}) avoids u, v, x and y and forms an induced 2K2 with
uv.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from typing import Any, Callable, Iterable, Iterator, Sequence

from .canon import canonical_search, orbit_leaders
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


def _ec_split_search(
    adjacency: Sequence[int], count: int, level: int, orbit_reps: Callable[[], Sequence[int]] | None = None
) -> tuple[int, ...] | None:
    """First failing split packed as ``(*subset, a)`` in the certificate
    order, or None if the property holds.  ``orbit_reps``, when given,
    returns the least item of each orbit, ascending, of a group of item
    permutations that preserve the adjacency (see the module docstring)."""
    if orbit_reps is None or not 2 <= level < count:
        prefixes: Iterable[tuple[int, ...]] = combinations(range(count - 1), level - 1)
    else:
        prefixes = _led_prefixes(count, level, orbit_reps)
    return _first_failure(adjacency, count, prefixes)


def _led_prefixes(count: int, level: int, orbit_reps: Callable[[], Sequence[int]]) -> Iterator[tuple[int, ...]]:
    """The (level-1)-prefixes led by item 0, then, once those are used up and
    ``orbit_reps`` is called, those led by each other representative."""
    for rest in combinations(range(1, count - 1), level - 2):
        yield (0, *rest)
    for r in orbit_reps()[1:]:
        if r > count - level:  # no level-subset has a larger least item
            return
        for rest in combinations(range(r + 1, count - 1), level - 2):
            yield (r, *rest)


def _first_failure(
    adjacency: Sequence[int], count: int, prefixes: Iterable[tuple[int, ...]]
) -> tuple[int, ...] | None:
    """First failing split ``(*prefix, j, a)`` over the given prefixes, in
    their order, and the items j above each prefix; or None.

    Each prefix splits the other items into cells by adjacency to it (bit t
    of a cell's index set: the cell lies in the neighbourhood of prefix item
    t).  A later item j completes a failing subset exactly when some cell
    holds no neighbour of j or no non-neighbour other than j, so OR-ing each
    cell's rows into ``meet`` and AND-ing ``row | bit(v)`` into ``common``
    marks every such j at once.  That reads j's neighbours off the rows of
    the cell members, so the adjacency must be symmetric and loop-free, as
    ``Graph`` rows and line adjacencies are.
    """
    full = (1 << count) - 1
    for prefix in prefixes:
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


# ---------------------------------------------------------------------------
# symmetry


def _graph_reps(g: Graph, edges: Sequence[tuple[int, int]] | None = None) -> list[int]:
    """The least item of each orbit of the full automorphism group of g,
    over its vertices or the given edges (see the module docstring)."""
    _, gens = canonical_search(g.n, g.adj)
    items = [1 << v for v in range(g.n)] if edges is None else [1 << u | 1 << v for u, v in edges]
    return orbit_leaders(items, gens)


def decide(adjacency: Sequence[int], items: Sequence[Any], level: int, orbit_reps: Callable[[], Sequence[int]] | None,
           what: str = "graph", error: type[ValueError] = GraphError) -> EcVerdict:
    """Decide one level over ``items`` by the split search (``orbit_reps`` as
    there) and name the certificate by them; a level outside 1..len(items)
    is refused with ``error``, naming the ``what`` whose items they are."""
    m = len(items)
    if not 1 <= level <= m:
        raise error(f"level must be 1..{m} for this {what}, got {level}" if m
                    else f"this {what} has no edges, so no line level applies")
    failure = _ec_split_search(adjacency, m, level, orbit_reps)
    if failure is None:
        return EcVerdict(level, True)
    *subset, a = failure
    cert_a = tuple(items[s] for t, s in enumerate(subset) if a >> t & 1)
    cert_b = tuple(items[s] for t, s in enumerate(subset) if not a >> t & 1)
    return EcVerdict(level, False, cert_a, cert_b)


def is_n_ec(g: Graph, n: int) -> EcVerdict:
    """Decide whether g is n-existentially closed over vertices."""
    return decide(g.adj, range(g.n), n, lambda: _graph_reps(g))


def _closure_number(adjacency: Sequence[int], count: int, orbit_reps: Callable[[], Sequence[int]]) -> int:
    """Largest level the split search passes; ascending stops at the first
    failure, which is valid because the property is monotone.  The levels
    share one call of ``orbit_reps``."""
    orbit_reps = cache(orbit_reps)
    level = 0
    while level < count and _ec_split_search(adjacency, count, level + 1, orbit_reps) is None:
        level += 1
    return level


def xi(g: Graph) -> int:
    """Largest n for which g is n-e.c.; 0 when not even 1-e.c."""
    return _closure_number(g.adj, g.n, lambda: _graph_reps(g))


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

    Items are vertex tuples over 0..n-1, graph edges or hyperedges, listed in
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
    return decide(line_adjacency(edges, g.n), edges, n, lambda: _graph_reps(g, edges))


def xi_line(g: Graph) -> int:
    """Largest n for which g is n-line e.c.; 0 when not even 1-line e.c.

    Every level, the third included, is decided by the one split search over
    one adjacency list; the theorem that the value never exceeds 2 is asserted.
    """
    edges = g.edges()
    level = _closure_number(line_adjacency(edges, g.n), len(edges), lambda: _graph_reps(g, edges))
    if level > 2:
        raise AssertionError(f"graph found {level}-line e.c.; levels beyond 2 are impossible")
    return level
