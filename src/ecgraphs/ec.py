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

Symmetric inputs are checked on fewer subsets.  Two vertices are *twins* when
swapping them maps the edge set to itself.  Being twins is an equivalence,
because (u w) = (u v)(v w)(u v), and the twin classes generate a group of
automorphisms, all permutations within each class; two items lie in one of
its orbits exactly when their vertices carry the same multiset of class
labels.  An automorphism maps failing subsets to failing subsets.  In each
orbit of level-subsets take a member S whose least item is as small as
possible: that item is the least of its own item orbit, or an automorphism
would map S to a member with a smaller least item.  So the property holds
when every subset whose least item is an orbit representative passes, that
is when every prefix of the ordered search led by a representative passes.
The same argument shows that the first failing subset is led by a
representative (an image with a smaller least item would fail earlier), so
searching the led prefixes in order finds the same certificate.  For
crossing hypergraphs, whose group S_x x S_y leaves k - 1 edge orbits, that is
k - 1 of the m prefixes at level 2.

The deciders find twins themselves, and only when the first prefix has
passed: most small graphs fail at the first prefix, for less than finding
their twins would cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from typing import Any, Callable, Iterable, Iterator, Sequence

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
    order, or None if the property holds.

    The (level-1)-prefixes are checked in lexicographic order.
    ``orbit_reps``, when given, is asked only once the first prefix has
    passed, and returns the least item of each orbit of a group of item
    permutations that preserve the adjacency.  When some item is not a
    representative, only the prefixes led by a representative are checked
    from then on, which keeps the first failing split (see the module
    docstring).
    """
    prefixes: Iterable[tuple[int, ...]] = combinations(range(count - 1), level - 1)
    failure = _first_failure(adjacency, count, islice(prefixes, 1))
    if failure is not None:
        return failure
    if orbit_reps is not None and 2 <= level < count and len(leaders := orbit_reps()) < count:
        prefixes = _led_prefixes(leaders, count, level)
    return _first_failure(adjacency, count, prefixes)


def _led_prefixes(leaders: Sequence[int], count: int, level: int) -> Iterator[tuple[int, ...]]:
    """The (level-1)-prefixes after the first whose first item is one of
    ``leaders`` (ascending), in lexicographic order."""
    for r in leaders:
        if r > count - level:  # no level-subset has a larger least item
            return
        for rest in combinations(range(r + 1, count - 1), level - 2):
            if r or rest != tuple(range(1, level - 1)):
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
    ``Graph`` rows and ``line_adjacency`` output are.
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
# twin symmetry


def graph_twin_classes(adj: Sequence[int]) -> list[int]:
    """Twin class label of each vertex of a graph, labels in order of first
    vertex.

    u and v are twins when ``(adj[u] ^ adj[v]) & ~(bit u | bit v) == 0``:
    equal open neighbourhoods if they are not adjacent, equal closed ones if
    they are.  The first vertex of each class files both of its
    neighbourhoods, and a later vertex joins the class whose first vertex it
    matches.  N(x) = N[y] would put x in its own neighbourhood, so one dict
    serves both kinds."""
    first: dict[int, int] = {}
    labels = []
    for v, row in enumerate(adj):
        label = first.get(row, first.get(row | 1 << v))
        if label is None:
            label = first[row] = first[row | 1 << v] = len(first) // 2
        labels.append(label)
    return labels


def twin_orbit_reps(labels: Sequence[int], items: Sequence[Sequence[int]]) -> list[int]:
    """The least item of every orbit of the group the twin classes generate,
    ascending; ``labels`` gives each vertex its class and items are vertex
    tuples."""
    if len(set(labels)) == len(labels):  # no twins: every item is its own orbit
        return list(range(len(items)))
    firsts: dict[tuple[int, ...], int] = {}
    for i, item in enumerate(items):
        firsts.setdefault(tuple(sorted(map(labels.__getitem__, item))), i)
    return list(firsts.values())


def _verdict(level: int, failure: tuple[int, ...] | None, items: Sequence[Any]) -> EcVerdict:
    if failure is None:
        return EcVerdict(level, True)
    *subset, a = failure
    cert_a = tuple(items[s] for t, s in enumerate(subset) if a >> t & 1)
    cert_b = tuple(items[s] for t, s in enumerate(subset) if not a >> t & 1)
    return EcVerdict(level, False, cert_a, cert_b)


def _graph_reps(g: Graph, items: Sequence[Sequence[int]]) -> list[int]:
    return twin_orbit_reps(graph_twin_classes(g.adj), items)


def is_n_ec(g: Graph, n: int) -> EcVerdict:
    """Decide whether g is n-existentially closed over vertices."""
    if not 1 <= n <= g.n:
        raise GraphError(f"level must be 1..{g.n} for this graph, got {n}")
    failure = _ec_split_search(g.adj, g.n, n, lambda: _graph_reps(g, [(v,) for v in range(g.n)]))
    return _verdict(n, failure, range(g.n))


def _closure_number(adjacency: Sequence[int], count: int, orbit_reps: Callable[[], Sequence[int]]) -> int:
    """Largest level the split search passes; ascending stops at the first
    failure, which is valid because the property is monotone."""
    level = 0
    while level < count and _ec_split_search(adjacency, count, level + 1, orbit_reps) is None:
        level += 1
    return level


def xi(g: Graph) -> int:
    """Largest n for which g is n-e.c.; 0 when not even 1-e.c."""
    return _closure_number(g.adj, g.n, lambda: _graph_reps(g, [(v,) for v in range(g.n)]))


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
    return _verdict(n, _ec_split_search(line_adjacency(edges, g.n), m, n, lambda: _graph_reps(g, edges)), edges)


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
