"""Planarity tests, pinned by a brute-force Kuratowski-subdivision oracle.

The oracle searches directly for a subdivision of K5 or K33: choose branch
vertices (degree-pruned), then pack internally disjoint paths for every
pattern edge by backtracking.  Exact and affordable for n <= 7.  Past that,
families that are planar or nonplanar by construction reach 64 vertices,
each graph with 9 <= m <= 3n - 6 edges so that no shortcut decides it, and
near-planar graphs of either verdict are checked against a second solver of
the same constraints, a parity union-find over two nodes per back edge.
"""

import math
from itertools import combinations

from ecgraphs.catalog import PLANAR_TWO_LINE_EC_NAMES, named_graph
from ecgraphs.graphs import (
    Graph,
    bits,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    diameter,
    is_connected,
    path_graph,
)
from ecgraphs.planarity import is_planar
from ecgraphs.search import enumerate_connected

from conftest import random_connected_graph, random_permutation


def _pack_paths(g: Graph, pairs, branch: set[int]) -> bool:
    used: set[int] = set()

    def route(i: int) -> bool:
        if i == len(pairs):
            return True
        s, t = pairs[i]

        def dfs(v: int, seen: set[int]) -> bool:
            for w in bits(g.adj[v]):
                if w == t:
                    internals = seen - {s}
                    used.update(internals)
                    if route(i + 1):
                        return True
                    used.difference_update(internals)
                    continue
                if w in seen or w in used or w in branch:
                    continue
                seen.add(w)
                if dfs(w, seen):
                    return True
                seen.remove(w)
            return False

        return dfs(s, {s})

    return route(0)


def _has_k5_subdivision(g: Graph) -> bool:
    cand = [v for v in range(g.n) if g.degree(v) >= 4]
    for branch in combinations(cand, 5):
        pairs = list(combinations(branch, 2))
        if _pack_paths(g, pairs, set(branch)):
            return True
    return False


def _has_k33_subdivision(g: Graph) -> bool:
    cand = [v for v in range(g.n) if g.degree(v) >= 3]
    for six in combinations(cand, 6):
        rest = set(six)
        for left in combinations(six, 3):
            if six[0] not in left:
                continue  # fix side of the smallest vertex: halves the work
            right = tuple(sorted(rest - set(left)))
            pairs = [(a, b) for a in left for b in right]
            if _pack_paths(g, pairs, set(six)):
                return True
    return False


def planar_oracle(g: Graph) -> bool:
    return not (_has_k5_subdivision(g) or _has_k33_subdivision(g))


def test_oracle_sanity():
    assert not planar_oracle(complete_graph(5))
    assert not planar_oracle(complete_bipartite(3, 3))
    assert planar_oracle(complete_graph(4))


def test_kuratowski_pair():
    assert not is_planar(complete_graph(5))
    assert not is_planar(complete_bipartite(3, 3))


def test_figures_are_planar():
    for name in PLANAR_TWO_LINE_EC_NAMES:
        assert is_planar(named_graph(name))


def test_trees_and_cycles(rng):
    for _ in range(50):
        n = rng.randrange(2, 20)
        tree = Graph.from_edges(n, [(i, rng.randrange(i)) for i in range(1, n)])
        assert is_planar(tree)
    for n in range(3, 16):
        assert is_planar(cycle_graph(n))
    assert is_planar(path_graph(10))


def test_oracle_agreement_exhaustive_to_order_7():
    for n in range(1, 8):
        for g in enumerate_connected(n):
            assert is_planar(g) == planar_oracle(g), g.edges()


def test_euler_consistency_and_triangulations():
    for n in range(3, 8):
        for g in enumerate_connected(n):
            if is_planar(g):
                assert g.edge_count() <= 3 * g.n - 6
    for name in ("Tc43", "Tc44"):
        g = named_graph(name)
        assert is_planar(g) and g.edge_count() == 3 * g.n - 6


def test_minor_closure_spot_checks(rng):
    done = 0
    while done < 200:
        g = random_connected_graph(rng, rng.randrange(3, 11), 0.4)
        if not is_planar(g):
            continue
        done += 1
        edges = g.edges()
        if edges:
            u, v = edges[rng.randrange(len(edges))]
            rows = list(g.adj)
            rows[u] &= ~(1 << v)
            rows[v] &= ~(1 << u)
            assert is_planar(Graph(g.n, tuple(rows)))
        if g.n > 1:
            drop = rng.randrange(g.n)
            keep = [w for w in range(g.n) if w != drop]
            assert is_planar(g.induced(keep))


def test_subdivision_invariance(rng):
    # subdividing edges never changes planarity
    def subdivide_random(g, times):
        rows = [list() for _ in range(g.n)]
        edges = g.edges()
        n = g.n
        for _ in range(times):
            idx = rng.randrange(len(edges))
            u, v = edges.pop(idx)
            edges.append((u, n))
            edges.append((n, v))
            n += 1
        return Graph.from_edges(n, edges)

    for base, planar in ((complete_graph(5), False), (complete_bipartite(3, 3), False), (cycle_graph(6), True)):
        for times in (1, 3, 7):
            assert is_planar(subdivide_random(base, times)) == planar


def test_cited_diameter_edge_bound():
    # connected planar graphs obey |E| <= 4|V| - 4 - 3D
    for n in range(2, 8):
        for g in enumerate_connected(n):
            if is_planar(g):
                d = diameter(g)
                assert d != math.inf
                assert g.edge_count() <= 4 * g.n - 4 - 3 * d


def test_disconnected_inputs():
    two_k5 = Graph.from_edges(
        10,
        [(u, v) for u, v in combinations(range(5), 2)]
        + [(u + 5, v + 5) for u, v in combinations(range(5), 2)],
    )
    assert not is_planar(two_k5)
    sparse = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
    assert not is_connected(sparse) and is_planar(sparse)


def _relabelled(rng, n: int, edges) -> Graph:
    perm = random_permutation(rng, n)
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


def _thinned_stacked_triangulation(rng, n: int) -> list[tuple[int, int]]:
    """A maximal planar graph grown by putting each new vertex in a random
    face, then up to n random edges deleted (keeping 9 of them)."""
    edges = [(0, 1), (0, 2), (1, 2)]
    faces = [(0, 1, 2), (0, 1, 2)]  # the two sides of the triangle
    for v in range(3, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        edges += [(a, v), (b, v), (c, v)]
        faces += [(a, b, v), (b, c, v), (a, c, v)]
    rng.shuffle(edges)
    return edges[: max(9, len(edges) - rng.randrange(n + 1))]


def _grid_with_diagonals(rng, rows: int, cols: int) -> list[tuple[int, int]]:
    """A rows x cols grid with one diagonal, either way, in each square."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
            if c + 1 < cols and r + 1 < rows:
                edges.append((v, v + cols + 1) if rng.random() < 0.5 else (v + 1, v + cols))
    return edges


def _kuratowski_with_tree(rng, n: int) -> list[tuple[int, int]]:
    """A subdivided K5 or K3,3 joined to a random tree on the other vertices,
    plus random chords while the Euler bound 3n - 6 still holds."""
    base = list(combinations(range(5), 2)) if rng.random() < 0.5 else [(a, b) for a in range(3) for b in range(3, 6)]
    k = 1 + max(max(e) for e in base)
    edges = []
    for u, v in base:
        while k < n and rng.random() < 0.3:  # subdivide the pattern edge
            edges.append((u, k))
            u, k = k, k + 1
        edges.append((u, v))
    edges += [(v, rng.randrange(v)) for v in range(k, n)]
    present = {frozenset(e) for e in edges}
    for _ in range(rng.randrange(2 * n)):
        u, v = rng.sample(range(n), 2)
        if len(present) < 3 * n - 6 and frozenset((u, v)) not in present:
            present.add(frozenset((u, v)))
            edges.append((u, v))
    return edges


def _assert_past_shortcuts(g: Graph) -> None:
    assert g.n >= 5 and 9 <= g.edge_count() <= 3 * g.n - 6


def test_planar_families_to_64_vertices(rng):
    cases = [_relabelled(rng, n, _thinned_stacked_triangulation(rng, n)) for n in range(6, 65)]
    for rows in range(2, 9):
        for cols in range(max(3, rows), 64 // rows + 1):
            cases.append(_relabelled(rng, rows * cols, _grid_with_diagonals(rng, rows, cols)))
    for n in (7, 12, 33, 64):
        rim = [(i, (i + 1) % (n - 1)) for i in range(n - 1)]
        cases.append(_relabelled(rng, n, rim + [(i, n - 1) for i in range(n - 1)]))  # the wheel W_n
        cases.append(complete_bipartite(2, n - 2))
    for g in cases:
        _assert_past_shortcuts(g)
        assert is_planar(g), g.edges()


def test_nonplanar_families_to_64_vertices(rng):
    for n in list(range(6, 65)) * 3:
        g = _relabelled(rng, n, _kuratowski_with_tree(rng, n))
        _assert_past_shortcuts(g)
        assert not is_planar(g), g.edges()


def _parity_union_find_planar(g: Graph) -> bool:
    """The left-right criterion with its constraints solved by a union-find
    over nodes 2i (back edge i on the left) and 2i + 1 (on the right),
    nonplanar once both nodes of one back edge share a class."""
    height, ends, forks = [-1] * g.n, [0] * g.n, []
    count = 0

    def dfs(v: int, h: int) -> tuple[int, int]:
        nonlocal count
        outs = []
        for w in bits(g.adj[v]):
            if height[w] < 0:
                height[w] = h + 1
                outs.append(dfs(w, h + 1))
            elif height[w] < h - 1:
                ends[height[w]] |= 1 << count
                outs.append((1 << count, height[w]))
                count += 1
        forks.append((h, outs))
        return sum(sub for sub, _ in outs), min([h] + [lo for _, lo in outs])

    for root in range(g.n):
        if height[root] < 0:
            height[root] = 0
            dfs(root, 0)
    above = [0]
    for row in ends:
        above.append(above[-1] | row)
    parent = list(range(2 * count))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for h, outs in forks:
        rets = [(sub & above[h], ~above[lo + 1]) for sub, lo in outs if sub & above[h]]
        for i, (r1, deeper1) in enumerate(rets):
            for r2, deeper2 in rets[:i]:
                nodes = [2 * e for e in bits(r1 & deeper2)] + [2 * e + 1 for e in bits(r2 & deeper1)]
                for x in nodes[1:]:
                    for a, b in ((nodes[0], x), (nodes[0] ^ 1, x ^ 1)):
                        parent[find(a)] = find(b)
                    if find(x) == find(x ^ 1):
                        return False
    return True


def test_side_classes_match_a_parity_union_find(rng):
    # near-planar: a thinned stacked triangulation plus up to three random edges
    verdicts = []
    for n in list(range(9, 65)) * 4:
        edges = _thinned_stacked_triangulation(rng, n)
        present = {frozenset(e) for e in edges}
        for _ in range(rng.randrange(4)):
            u, v = rng.sample(range(n), 2)
            if len(present) < 3 * n - 6 and frozenset((u, v)) not in present:
                present.add(frozenset((u, v)))
                edges.append((u, v))
        g = _relabelled(rng, n, edges)
        _assert_past_shortcuts(g)
        verdicts.append(is_planar(g))
        assert verdicts[-1] == _parity_union_find_planar(g), g.edges()
    assert 0 < sum(verdicts) < len(verdicts)
