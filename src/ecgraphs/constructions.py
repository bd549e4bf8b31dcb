"""Constructions that preserve or create the 2-line e.c. property, plus Paley graphs."""

from __future__ import annotations

from .fields import FiniteField
from .graphs import Graph, GraphError, MAX_VERTICES, empty_graph


def cone(g: Graph) -> Graph:
    """Add one new vertex adjacent to every vertex of g."""
    return join(g, empty_graph(1))


def join_independent(g: Graph, s: int) -> Graph:
    """Add s >= 2 pairwise non-adjacent vertices, each adjacent to all of g."""
    if s < 2:
        raise GraphError(f"independent set size must be at least 2, got {s}")
    return join(g, empty_graph(s))


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus all cross edges (g2's vertices shifted up by g1.n)."""
    n = g1.n + g2.n
    if n > MAX_VERTICES:
        raise GraphError(f"join would have {n} > {MAX_VERTICES} vertices")
    mask1 = (1 << g1.n) - 1
    mask2 = ((1 << g2.n) - 1) << g1.n
    rows = tuple(row | mask2 for row in g1.adj)
    rows += tuple((row << g1.n) | mask1 for row in g2.adj)
    return Graph(n, rows)


def paley(q: int) -> Graph:
    """Paley graph on GF(q), q = p^k <= 64 and q = 1 (mod 4).

    Vertices are field elements (integer encoding); u ~ v iff u - v is a
    nonzero square.  The congruence makes -1 a square, so adjacency is
    symmetric and the graph is (q-1)/2-regular.  Row u is the translate
    u + S of the mask S of nonzero squares.

    Addition is digit-wise mod p in this encoding, so x -> x + p^i adds 1 to
    digit i with no carry: inside each aligned block of p^(i+1) bits, the
    bits below the top p^i move up by p^i and the top p^i wrap down by
    p^(i+1) - p^i.  Row 0 is S, and row u is row u - p^i moved so, where i
    is the lowest nonzero digit of u; for prime q every row is a rotation of
    the one before.
    """
    if q > MAX_VERTICES:
        raise GraphError(f"paley graph order {q} exceeds the {MAX_VERTICES}-vertex limit")
    field = FiniteField(q)  # validates the prime-power requirement
    if q % 4 != 1:
        raise GraphError(f"paley graph needs q = 1 (mod 4), got {q}")
    p = field.p
    # p^i -> the elements whose digit i is p - 1: the top p^i bits of each block
    steps = [p**i for i in range(field.k)]
    top = {step: sum(((1 << step) - 1) << b for b in range((p - 1) * step, q, p * step)) for step in steps}
    rows = [sum(1 << s for s in {field.mul(x, x) for x in range(1, q)})]
    for u in range(1, q):
        step = 1
        while u % (step * p) == 0:
            step *= p
        row = rows[u - step]
        rows.append((row & ~top[step]) << step | (row & top[step]) >> (p - 1) * step)
    return Graph(q, tuple(rows))
