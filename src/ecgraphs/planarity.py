"""Planarity decision by the left-right criterion.

Orient the graph by a depth-first search: tree edges point away from the
root, back edges point from a vertex to one of its ancestors.  Heights
count from the root at 0, and "above" means nearer the root.  The return
edges of an edge e = (u, v) are the back edges that start at v or below it
(or are e itself) and end strictly above u; lowpt(e) is the least height
they reach.  A fork is a vertex u with two outgoing edges e1 and e2, tree
edges and back edges alike.  The left-right criterion (H. de Fraysseix and
P. Rosenstiehl, "A characterization of planar graphs by Tremaux orders",
Combinatorica 5 (1985); U. Brandes, "The left-right planarity test" (2009),
Theorem 1): a graph is planar iff its back edges split into a left and a
right class such that at every fork the return edges of e1 ending at a
height greater than lowpt(e2) all lie in one class, and the return edges of
e2 ending at a height greater than lowpt(e1) all lie in the other.

``lr_planar_rows`` checks the criterion as stated.  One DFS gives every
outgoing edge the bitmask of back edges at or below it and the least height
they reach.  Each pair of outgoing edges at a fork then yields parity
constraints, solved by a union-find over nodes 2i (back edge i on the left)
and 2i + 1 (back edge i on the right).  The graph is nonplanar as soon as
both nodes of some back edge share a class.  Pairing the outgoing edges
of a fork is quadratic in its degree, where the conflict-pair formulation
of the same test is linear; under the 64-vertex cap a fork has at most 63
outgoing edges.  Boolean answer only, no embedding or witness.  The Euler
bound |E| <= 3|V| - 6 and a small-graph shortcut run first.

Correctness is pinned by tests against a brute-force Kuratowski-subdivision
oracle on all connected graphs of order <= 7, by the count of connected
planar graphs on 8 vertices (5,974, OEIS A003094), and by families on up to
64 vertices that are planar or nonplanar by construction.
"""

from __future__ import annotations

from .canon import _find
from .graphs import Graph, bits


def _agree(parent: list[int], x: int, y: int) -> bool:
    """Put nodes x and y in one class (and so their mirrors x ^ 1, y ^ 1);
    False iff that puts x and x ^ 1 together."""
    for a, b in ((x, y), (x ^ 1, y ^ 1)):
        ra, rb = _find(parent, a), _find(parent, b)
        if ra != rb:
            parent[ra] = rb
    return _find(parent, x) != _find(parent, x ^ 1)


def lr_planar_rows(n: int, adj) -> bool:
    """Planarity of raw adjacency rows, Euler shortcut included."""
    m = sum(row.bit_count() for row in adj) // 2
    if n >= 3 and m > 3 * n - 6:
        return False
    if n <= 4 or m <= 8:
        return True  # K5 (10 edges) and K33 subdivisions (>= 9 edges) need more
    height = [-1] * n
    ends = [0] * n  # ends[h]: the back edges ending at height h
    forks: list[tuple[int, list[tuple[int, int]]]] = []
    count = 0

    def dfs(v: int) -> tuple[int, int]:
        """(back edges at or below the tree edge into v, the least height they reach)."""
        nonlocal count
        h = height[v]
        outs = []
        for w in bits(adj[v]):
            if height[w] < 0:
                height[w] = h + 1
                outs.append(dfs(w))  # depth at most n <= 64
            elif height[w] < h - 1:  # an ancestor other than the parent
                ends[height[w]] |= 1 << count
                outs.append((1 << count, height[w]))
                count += 1
        if len(outs) > 1:
            forks.append((h, outs))
        below, low = 0, h
        for sub, lo in outs:
            below |= sub
            low = min(low, lo)
        return below, low

    for root in range(n):
        if height[root] < 0:
            height[root] = 0
            dfs(root)
    above = [0]  # above[h]: the back edges ending at a height less than h
    for row in ends:
        above.append(above[-1] | row)
    parent = list(range(2 * count))
    for h, outs in forks:
        # per outgoing edge with return edges: them, and every back edge ending deeper than its lowpt
        rets = [(sub & above[h], ~above[lo + 1]) for sub, lo in outs if sub & above[h]]
        for i, (r1, deeper1) in enumerate(rets):
            for r2, deeper2 in rets[:i]:
                a, b = r1 & deeper2, r2 & deeper1  # each on one side, a and b on opposite sides
                if (a | b) & ((a | b) - 1):  # two or more edges: a constraint
                    nodes = [2 * e for e in bits(a)] + [2 * e + 1 for e in bits(b)]
                    for y in nodes[1:]:
                        if not _agree(parent, nodes[0], y):
                            return False
    return True


def is_planar(g: Graph) -> bool:
    """True iff g admits a planar embedding."""
    return lr_planar_rows(g.n, g.adj)
