"""Shared helpers: random graphs and brute-force oracles kept independent of
the implementation paths they check."""

from __future__ import annotations

import math
import random
from collections import Counter
from functools import lru_cache
from itertools import combinations, permutations

import pytest

from ecgraphs import ec, hypergraphs
from ecgraphs.canon import canonical_search, orbit_partition, refine_partition
from ecgraphs.graphs import Graph, bits, is_connected


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def random_connected_graph(rng: random.Random, n: int, p: float) -> Graph:
    """Random graph forced connected by adding a random spanning tree."""
    g = random_graph(rng, n, p)
    rows = list(g.adj)
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        u = order[i]
        v = order[rng.randrange(i)]
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def random_permutation(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def all_labeled_graphs(n: int):
    """Every labeled graph on n vertices (2^C(n,2) of them)."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        rows = [0] * n
        for idx, (u, v) in enumerate(pairs):
            if mask >> idx & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        yield Graph(n, tuple(rows))


# The five planar 2-line e.c. graphs of acceptance criterion 1 (atlas
# numbering, order 7), entered from their published planar drawings with
# vertices 0..6; Tc43 is the heptahedral graph 34 and Tc44 the
# pentagonal-bipyramid (Johnson solid 13) skeleton.  Every comparison goes
# through canonical forms, so the labelling choice is immaterial.
PLANAR_TWO_LINE_EC = {
    name: Graph.from_edges(7, edges)
    for name, edges in {
        "Tc20": [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (1, 6), (2, 5), (2, 6), (3, 4), (3, 5), (4, 6), (5, 6)],
        "Tc30": [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (1, 6), (2, 5), (2, 6), (3, 4), (3, 5), (4, 5), (4, 6),
                 (5, 6)],
        "Tc39": [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 4), (1, 6), (2, 5), (2, 6), (3, 4), (3, 5),
                 (4, 6), (5, 6)],
        "Tc43": [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 4), (1, 6), (2, 5), (2, 6), (3, 4), (3, 5),
                 (4, 5), (4, 6), (5, 6)],
        "Tc44": [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 4), (1, 6), (2, 5), (2, 6), (3, 4), (3, 5),
                 (3, 6), (4, 6), (5, 6)],
    }.items()
}


def induced(g: Graph, vertices) -> Graph:
    """Subgraph induced by ``vertices``, relabelled 0.. in the given order."""
    pos = {v: i for i, v in enumerate(vertices)}
    return Graph(len(pos), tuple(sum(1 << pos[u] for u in bits(g.adj[v]) if u in pos) for v in vertices))


def diameter(g: Graph) -> int | float:
    """Maximum BFS distance over vertex pairs; ``math.inf`` when disconnected."""
    full = (1 << g.n) - 1
    best = 0
    for s in range(g.n):
        seen = frontier = 1 << s
        dist = 0
        while seen != full:
            reach = 0
            for v in bits(frontier):
                reach |= g.adj[v]
            frontier = reach & ~seen
            if not frontier:
                return math.inf
            seen |= frontier
            dist += 1
        best = max(best, dist)
    return best


def contains_induced(g: Graph, h: Graph) -> bool:
    """True iff some vertex subset of g induces a graph isomorphic to h:
    backtracking over injective maps, the vertices of h by descending degree,
    each one's candidates the vertices of g that match its adjacency to the
    ones placed so far."""
    if h.n > g.n:
        return False
    order = sorted(range(h.n), key=lambda v: (-h.adj[v].bit_count(), v))
    full = (1 << g.n) - 1
    mapping = [0] * h.n

    def place(i: int, used: int) -> bool:
        if i == h.n:
            return True
        hv = order[i]
        cand = full & ~used
        for hu in order[:i]:
            cand &= g.adj[mapping[hu]] if h.adj[hv] >> hu & 1 else ~g.adj[mapping[hu]]
        for gv in bits(cand):
            mapping[hv] = gv
            if place(i + 1, used | 1 << gv):
                return True
        return False

    return place(0, 0)


def brute_isomorphic(g: Graph, h: Graph) -> bool:
    """Isomorphism by exhaustive permutation search (degree-pruned)."""
    if g.n != h.n or sorted(g.degrees()) != sorted(h.degrees()):
        return False
    for perm in permutations(range(g.n)):
        if g.permuted(list(perm)).adj == h.adj:
            return True
    return False


def brute_orbit_partition(g: Graph) -> list[int]:
    """Automorphism orbits via all n! permutations; exact for small n."""
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for perm in permutations(range(g.n)):
        if g.permuted(list(perm)).adj == g.adj:
            for v in range(g.n):
                ra, rb = find(v), find(perm[v])
                if ra != rb:
                    parent[ra] = rb
    roots = [find(v) for v in range(g.n)]
    ids: dict[int, int] = {}
    out = []
    for r in roots:
        if r not in ids:
            ids[r] = len(ids)
        out.append(ids[r])
    return out


def brute_automorphism_count(g: Graph) -> int:
    """Number of automorphisms, by extending partial maps vertex by vertex and
    keeping only those that preserve adjacency and non-adjacency so far."""
    n = g.n
    deg = g.degrees()
    image = [0] * n
    count = 0

    def extend(v: int, used: int) -> None:
        nonlocal count
        if v == n:
            count += 1
            return
        for w in range(n):
            if used >> w & 1 or deg[w] != deg[v]:
                continue
            if all((g.adj[u] >> v & 1) == (g.adj[image[u]] >> w & 1) for u in range(v)):
                image[v] = w
                extend(v + 1, used | 1 << w)

    extend(0, 0)
    return count


def group_order(n: int, gens) -> int:
    """Order of the permutation group on range(n) generated by ``gens``
    (deterministic Schreier-Sims: a base, a strong generating set and one
    transversal per level; every Schreier generator sifts to the identity)."""
    identity = tuple(range(n))
    levels: list[list] = []  # [base point, generators fixing earlier base points, transversal]

    def inverse(p):
        out = [0] * n
        for x, y in enumerate(p):
            out[y] = x
        return tuple(out)

    def sift(g, i):
        while i < len(levels):
            b, _, trans = levels[i]
            if g[b] not in trans:
                break
            u = inverse(trans[g[b]])
            g = tuple(u[y] for y in g)
            i += 1
        return g, i

    def add(g, i):  # g fixes the base points of the levels before i
        g, j = sift(g, i)
        if g == identity:
            return
        if j == len(levels):
            b = next(x for x in range(n) if g[x] != x)
            levels.append([b, [], {b: identity}])
        for k in range(j, i - 1, -1):
            levels[k][1].append(g)
            close(k)

    def close(k):
        _, level_gens, trans = levels[k]
        queue = list(trans)
        for x in queue:
            for s in level_gens:
                if s[x] not in trans:
                    trans[s[x]] = tuple(s[t] for t in trans[x])
                    queue.append(s[x])
        for x in list(trans):
            for s in list(level_gens):
                u = inverse(trans[s[x]])
                add(tuple(u[s[t]] for t in trans[x]), k + 1)

    for g in gens:
        add(tuple(g), 0)
    return math.prod(len(trans) for _, _, trans in levels)


def brute_first_failure(adjacency, count: int, level: int):
    """Definitional closure search: every subset in lexicographic order, then
    every assignment mask ascending (bit t puts subset[t] in A); the first
    split no outside item covers, packed as ``(*subset, a)``, or None."""
    full = (1 << count) - 1
    for subset in combinations(range(count), level):
        rest = full
        for s in subset:
            rest &= ~(1 << s)
        for a in range(1 << level):
            w = rest
            for t, s in enumerate(subset):
                w &= adjacency[s] if a >> t & 1 else ~adjacency[s]
            if not w:
                return subset + (a,)
    return None


def unreduced_verdict(adjacency, items, level: int) -> ec.EcVerdict:
    """The split search's verdict with no symmetry supplied: the reference
    every twin-reduced decider must match, certificate included."""
    return ec.decide(adjacency, items, level, None)


def unreduced_closure_number(adjacency) -> int:
    """Largest level the split search passes with no symmetry supplied."""
    level = 0
    while level < len(adjacency) and ec._ec_split_search(adjacency, len(adjacency), level + 1) is None:
        level += 1
    return level


def brute_twin_classes(n: int, automorphic) -> list[int]:
    """Twin classes by definition: u and v share a class when the
    transposition (u v) passes ``automorphic``; labels in order of first
    appearance."""
    labels: list[int] = []
    for v in range(n):
        for u in range(v):
            swap = list(range(n))
            swap[u], swap[v] = v, u
            if automorphic(swap):
                labels.append(labels[u])
                break
        else:
            labels.append(max(labels, default=-1) + 1)
    return labels


def brute_orbit_reps(n: int, gens, items) -> list[int]:
    """The least item of every orbit of the group that the vertex
    permutations ``gens`` generate, acting on items as vertex sets: the group
    is closed element by element, and each item's orbit is the set of its
    images under every element; representatives ascending."""
    identity = tuple(range(n))
    group = {identity}
    frontier = [identity]
    while frontier:
        p = frontier.pop()
        for s in gens:
            q = tuple(s[x] for x in p)
            if q not in group:
                group.add(q)
                frontier.append(q)
    index = {frozenset(item): i for i, item in enumerate(items)}
    return sorted({min(index[frozenset(p[v] for v in item)] for p in group) for item in items})


def brute_refine(n: int, adj, cells: list[int], work: list[int] | None = None) -> list[int]:
    """Equitable refinement by the general split for every splitter: each
    cell's vertices grouped by their number of neighbours in the splitter,
    subcells by ascending count in place of the cell, and every subcell of a
    cell that splits queued as a splitter."""
    for _, cells in brute_passes(n, adj, cells, work):
        pass
    return list(cells)


def brute_passes(n: int, adj, cells: list[int], work: list[int] | None = None):
    """``(splitter, cells after its pass)`` for each splitter that
    ``brute_refine`` pops, in order."""
    cells = list(cells)
    queue = list(cells if work is None else work)
    while queue:
        splitter = queue.pop(0)
        out = []
        for cell in cells:
            groups: dict[int, int] = {}
            for v in bits(cell):
                cnt = (adj[v] & splitter).bit_count()
                groups[cnt] = groups.get(cnt, 0) | 1 << v
            subs = [groups[cnt] for cnt in sorted(groups)]
            out += subs
            if len(subs) > 1:
                queue += subs
        cells = out
        yield splitter, cells


def brute_row_budget(n: int, adj, cells: list[int], work: list[int] | None = None) -> int:
    """The most adjacency rows an equitable refinement needs to read: one for
    a one-vertex splitter and one per vertex of a non-singleton cell for any
    other, over the splitters that ``brute_refine`` pops while its partition
    is not yet discrete.  A discrete partition splits no further."""
    budget = 0
    for splitter, after in brute_passes(n, adj, cells, work):
        if len(cells) == n:
            break
        budget += 1 if not splitter & (splitter - 1) else sum(c.bit_count() for c in cells if c & (c - 1))
        cells = after
    return budget


def refines_in_place(fine: list[int], coarse: list[int]) -> bool:
    """Each cell of ``fine`` lies inside a cell of ``coarse``, and the cells
    of ``coarse`` they lie in come in the same order."""
    i = 0
    for cell in fine:
        while i < len(coarse) and cell & ~coarse[i]:
            i += 1
        if i == len(coarse):
            return False
    return True


def brute_accepts(g: Graph, connected: bool) -> bool:
    """Canonical-deletion rule by definition, for the newest vertex n-1: a
    vertex is eligible when the others induce a connected graph (any vertex
    when connectivity does not matter); take the first refinement cell holding
    an eligible vertex and its eligible vertex of least canonical label; accept
    when that vertex and n-1 share an automorphism orbit."""
    n = g.n
    eligible = {v for v in range(n)
                if not connected or is_connected(induced(g, [u for u in range(n) if u != v]))}
    cells = refine_partition(n, g.adj, [(1 << n) - 1])
    cell = next(c for c in cells if any(c >> v & 1 for v in eligible))
    order, gens = canonical_search(n, g.adj)
    chosen = next(v for v in order if v in eligible and cell >> v & 1)
    orbits = orbit_partition(n, gens)
    return orbits[chosen] == orbits[n - 1]


@lru_cache(maxsize=1)  # callers ask about one graph many times in a row
def brute_least_images(g: Graph) -> tuple[int, ...]:
    """For every vertex subset of g (as a mask), the least mask in its orbit
    under the automorphisms, found among all n! permutations."""
    autos = [p for p in permutations(range(g.n)) if g.permuted(list(p)).adj == g.adj]
    return tuple(min(sum(1 << p[v] for v in bits(m)) for p in autos) for m in range(1 << g.n))


def brute_neighborhoods(g: Graph, forced: int, lo: int, hi: int, forced_at: tuple[int, int] = (0, 0)) -> list[int]:
    """Orbit representatives of the admissible neighbourhoods by definition:
    the least member of the orbit of every vertex subset that holds
    ``forced``, has lo..hi members and, when it has ``forced_at[0]`` members,
    holds ``forced_at[1]`` too, ascending."""
    least = brute_least_images(g)
    size, extra = forced_at
    return sorted({least[m] for m in range(1 << g.n)
                   if m & forced == forced and lo <= m.bit_count() <= hi
                   and (m.bit_count() != size or m & extra == extra)})


@pytest.fixture
def reduced_outcomes(monkeypatch) -> Counter:
    """Counts by outcome (True: no failing split) of the split searches that
    called their ``orbit_reps`` (their 0-led prefixes all passed) and got
    fewer representatives than items, so went on to the prefixes led by the
    other representatives only; a test can show that its inputs drive the
    reduced search both ways.  The keys ``(source, outcome)`` count them
    again by the source of the representatives: the automorphism group
    (graphs) or the twins (hypergraphs), whichever was computed last."""
    seen: Counter = Counter()
    source = [None]
    real = ec._ec_split_search

    def counted(adjacency, count, level, orbit_reps=None):
        reps = []

        def spy():
            reps.append(orbit_reps())
            return reps[-1]

        out = real(adjacency, count, level, orbit_reps and spy)
        if reps and len(reps[0]) < count:
            seen[out is None] += 1
            seen[source[0], out is None] += 1
        return out

    def tagged(name, real_source):
        def spy(*args):
            source[0] = name
            return real_source(*args)
        return spy

    monkeypatch.setattr(ec, "_ec_split_search", counted)
    monkeypatch.setattr(ec, "canonical_search", tagged("automorphism", ec.canonical_search))
    monkeypatch.setattr(hypergraphs, "_twin_reps", tagged("twins", hypergraphs._twin_reps))
    return seen


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xEC)
