"""Canonical labelling by iterated partition refinement with backtracking.

The search individualizes vertices of the first non-singleton cell of the
coarsest equitable partition, re-refines, and keeps the leaf whose relabelled
adjacency rows are lexicographically smallest; that leaf defines the canonical
labelling.  A leaf whose relabelled rows equal those of the first leaf or of
the best leaf so far reveals an automorphism, and the subtree it lies in is
the image of an explored one, so the search jumps straight back to the deepest
common ancestor with that path (McKay 1981; McKay and Piperno 2014).  Each
tree node also keeps one union-find of the orbits, on its target cell, of the
automorphisms found so far that fix its individualized prefix; it folds in
only the generators found since its last check, and skips children in the
orbit of an explored child.  Every skipped subtree is an automorphic image of
an explored one, so the smallest leaf, and the canonical form, are those of
the unpruned tree, and the generators found generate the whole automorphism
group.  Complete and empty graphs, K_{n,n}, rook graphs K_n x K_n,
hypercubes and Paley graphs on up to 64 vertices take well under a second.
Disjoint unions of several kinds of component that refinement cannot tell
apart (2-regular unions of 3-, 4- and 5-cycles, say) remain slow: their
subtrees are not images of each other, so nothing prunes them.

Soundness of the canonical form and completeness of the discovered
automorphism generators are pinned by tests against brute-force oracles on all
graphs of small order and against the known group orders of symmetric
families.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

from .graph6 import encode_graph6
from .graphs import Graph, bits, permute_rows


def refine_partition(n: int, adj: Sequence[int], cells: list[int], work: list[int] | None = None) -> list[int]:
    """Coarsest equitable refinement of an ordered partition (cells as bitmasks).

    Splits cells by neighbour counts into splitter sets, subcells ordered by
    ascending count; the result is deterministic and relabelling-equivariant.
    ``work`` optionally restricts the initial splitter queue (used after
    individualization: only the new singleton needs processing at first).
    """
    cells = list(cells)
    queue = deque(cells if work is None else work)
    while queue:
        splitter = queue.popleft()
        out = []
        for cell in cells:
            if not cell & (cell - 1):  # singleton
                out.append(cell)
                continue
            groups: dict[int, int] = {}
            m = cell
            while m:
                low = m & -m
                v = low.bit_length() - 1
                m ^= low
                cnt = (adj[v] & splitter).bit_count()
                groups[cnt] = groups.get(cnt, 0) | low
            if len(groups) == 1:
                out.append(cell)
            else:
                for cnt in sorted(groups):
                    sub = groups[cnt]
                    out.append(sub)
                    queue.append(sub)
        cells = out
    return cells


def canonical_search(n: int, adj: Sequence[int]) -> tuple[list[int], list[tuple[int, ...]], tuple[int, ...]]:
    """Canonical labelling and automorphism generators of a raw adjacency list.

    Returns ``(perm, generators, rows)`` where ``perm[v]`` is the canonical
    label of vertex v, the generators (vertex permutations fixing the graph)
    generate the whole automorphism group, and ``rows`` are the adjacency rows
    relabelled by ``perm``.
    """
    full = (1 << n) - 1
    cells = refine_partition(n, adj, [full])
    if len(cells) == n:  # discrete: trivial automorphism group, no search
        perm = _leaf_perm(n, cells)
        return perm, [], permute_rows(adj, perm)

    identity = tuple(range(n))
    gens: list[tuple[int, ...]] = []
    # (rows, perm, path) of the first leaf and of the smallest leaf so far
    first: tuple | None = None
    best: tuple | None = None

    def record_automorphism(p1: Sequence[int], p2: Sequence[int]) -> None:
        # identical relabelled rows under p1 and p2 => p2^-1 . p1 in Aut
        inv2 = [0] * n
        for v, lab in enumerate(p2):
            inv2[lab] = v
        sigma = tuple(inv2[p1[v]] for v in range(n))
        if sigma != identity and sigma not in gens:
            gens.append(sigma)

    def descend(cells: list[int], path: list[int]) -> int:
        """Explore the node reached by individualizing ``path``; return the
        depth at which the search resumes (``len(path)``: carry on here)."""
        nonlocal first, best
        depth = len(path)
        target = next((i for i, cell in enumerate(cells) if cell & (cell - 1)), -1)
        if target < 0:
            perm = _leaf_perm(n, cells)
            key = permute_rows(adj, perm)
            if first is None:
                first = best = (key, perm, path)
            elif key == first[0]:
                # this subtree up to the common ancestor mirrors the first path
                record_automorphism(perm, first[1])
                return _common_prefix(path, first[2])
            elif key < best[0]:
                best = (key, perm, path)
            elif key == best[0]:
                # likewise for the best path
                record_automorphism(perm, best[1])
                return _common_prefix(path, best[2])
            return depth

        cell = cells[target]
        # orbits on the cell of the automorphisms found so far that fix the
        # path pointwise; children in the orbit of an explored child are images
        # of its subtree and are skipped
        parent: list[int] | None = None
        folded = 0
        explored: list[int] = []
        m = cell
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            if explored and folded < len(gens):
                fixing = [g for g in gens[folded:] if all(g[w] == w for w in path)]
                folded = len(gens)
                if fixing:
                    if parent is None:
                        parent = list(range(n))
                    _join(parent, fixing, bits(cell))
            if parent is not None:
                root = _find(parent, v)
                if any(_find(parent, u) == root for u in explored):
                    continue
            explored.append(v)
            ncells = cells[:target] + [low, cell ^ low] + cells[target + 1:]
            resume = descend(refine_partition(n, adj, ncells, [low]), path + [v])
            if resume < depth:
                return resume
        return depth

    descend(cells, [])
    return list(best[1]), gens, best[0]


def _leaf_perm(n: int, cells: list[int]) -> list[int]:
    """Labelling of a discrete partition: the vertex of cell i gets label i."""
    perm = [0] * n
    for i, cell in enumerate(cells):
        perm[cell.bit_length() - 1] = i
    return perm


def _common_prefix(a: list[int], b: list[int]) -> int:
    k = 0
    while k < len(a) and k < len(b) and a[k] == b[k]:
        k += 1
    return k


def canonical_form(g: Graph) -> str:
    """Canonical graph6 string: equal strings iff isomorphic graphs."""
    _, _, rows = canonical_search(g.n, g.adj)
    return encode_graph6(g.n, rows)


def is_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count() != h.edge_count():
        return False
    return canonical_form(g) == canonical_form(h)


def automorphism_generators(g: Graph) -> list[tuple[int, ...]]:
    _, gens, _ = canonical_search(g.n, g.adj)
    return gens


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _join(parent: list[int], gens: Iterable[Sequence[int]], vertices: Iterable[int]) -> None:
    """Union each of ``vertices`` with its image under every generator; the
    vertices must be closed under the generators."""
    vertices = list(vertices)
    for g in gens:
        for v in vertices:
            ra, rb = _find(parent, v), _find(parent, g[v])
            if ra != rb:
                parent[ra] = rb


def orbit_partition(n: int, gens: Sequence[Sequence[int]]) -> list[int]:
    """Vertex orbits under the group generated by ``gens``: orbit id per vertex,
    numbered in order of first appearance."""
    parent = list(range(n))
    _join(parent, gens, range(n))
    ids: dict[int, int] = {}
    return [ids.setdefault(_find(parent, v), len(ids)) for v in range(n)]


def automorphism_orbits(g: Graph) -> list[int]:
    return orbit_partition(g.n, automorphism_generators(g))
