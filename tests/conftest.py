"""Shared helpers: random graphs and brute-force oracles kept independent of
the implementation paths they check."""

from __future__ import annotations

import math
import random
from itertools import combinations, permutations

import pytest

from ecgraphs.graphs import Graph


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


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xEC)
