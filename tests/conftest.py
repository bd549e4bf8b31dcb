"""Shared helpers: random graphs and brute-force oracles kept independent of
the implementation paths they check."""

from __future__ import annotations

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
