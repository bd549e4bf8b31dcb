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
they reach.  Each pair of outgoing edges at a fork puts back edges A on one
side and B on the other.  Side classes, disjoint bitmask pairs (left, right),
collect these constraints: one starts from (A, B) and takes in every class
meeting A | B, flipped unless its left meets A or its right meets B.  A
class is a connected component of the constraint graph, so an edge lies in
both left and right (nonplanar) exactly when a parity union-find over nodes
2i (edge i left) and 2i + 1 (right) would join 2i and 2i + 1.  The Euler
bound |E| <= 3|V| - 6 and a small-graph shortcut run first.

Correctness is pinned by tests against a brute-force Kuratowski-subdivision
oracle on all connected graphs of order <= 7, by the count of connected
planar graphs on 8 vertices (5,974, OEIS A003094), and by families on up to
64 vertices that are planar or nonplanar by construction.
"""

from __future__ import annotations

from .graphs import Graph


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

    def dfs(v: int, h: int) -> tuple[int, int]:
        """(back edges at or below the tree edge into v, the least height they reach)."""
        nonlocal count
        height[v] = h
        outs = []
        below, low = 0, h
        row = adj[v]
        while row:
            w = (row & -row).bit_length() - 1
            row &= row - 1
            if height[w] < 0:
                sub, lo = dfs(w, h + 1)  # depth at most n <= 64
            elif height[w] < h - 1:  # an ancestor other than the parent
                sub, lo = 1 << count, height[w]
                ends[lo] |= sub
                count += 1
            else:
                continue
            outs.append((sub, lo))
            below |= sub
            if lo < low:
                low = lo
        if len(outs) > 1:
            forks.append((h, outs))
        return below, low

    for root in range(n):
        if height[root] < 0:
            dfs(root, 0)
    above = [0]  # above[h]: the back edges ending at a height less than h
    for row in ends:
        above.append(above[-1] | row)
    classes: list[tuple[int, int]] = []  # disjoint (left, right) side classes
    for h, outs in forks:
        # per outgoing edge with return edges: them, and every back edge ending deeper than its lowpt
        rets = [(sub & above[h], ~above[lo + 1]) for sub, lo in outs if sub & above[h]]
        for i, (r1, deeper1) in enumerate(rets):  # quadratic in the fork's degree, at most 63
            for r2, deeper2 in rets[:i]:
                left, right = r1 & deeper2, r2 & deeper1  # each on one side, on opposite sides
                if (left | right).bit_count() > 1:  # two or more edges: a constraint
                    rest = []
                    for cl, cr in classes:  # left | right grows only by classes disjoint from the rest
                        if not (cl | cr) & (left | right):
                            rest.append((cl, cr))
                        elif cl & left or cr & right:
                            left, right = left | cl, right | cr
                        else:
                            left, right = left | cr, right | cl
                    if left & right:
                        return False
                    classes = rest + [(left, right)]
    return True


def is_planar(g: Graph) -> bool:
    """True iff g admits a planar embedding."""
    return lr_planar_rows(g.n, g.adj)
