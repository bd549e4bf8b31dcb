"""Canonical labelling by iterated partition refinement with backtracking.

The search individualizes vertices of the first non-singleton cell of the
coarsest equitable partition, re-refines, and keeps the leaf whose relabelled
adjacency rows are lexicographically smallest; that leaf defines the canonical
labelling.  Leaves whose relabelled graph equals an earlier reference leaf
reveal automorphisms, and vertices already known to be in the orbit of an
explored sibling (under automorphisms fixing the individualized prefix) are
skipped, which is what keeps highly symmetric graphs tractable.

Soundness of the canonical form and completeness of the discovered
automorphism generators are pinned by tests against brute-force oracles on all
graphs of small order.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Sequence

from .graph6 import write_graph6
from .graphs import Graph, permute_rows


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


def canonical_search(n: int, adj: Sequence[int]) -> tuple[list[int], list[tuple[int, ...]]]:
    """Canonical labelling and automorphism generators of a raw adjacency list.

    Returns ``(perm, generators)`` where ``perm[v]`` is the canonical label of
    vertex v and each generator is a vertex permutation fixing the graph.
    """
    full = (1 << n) - 1
    cells = refine_partition(n, adj, [full])
    if len(cells) == n:  # discrete: trivial automorphism group, no search
        perm = [0] * n
        for i, cell in enumerate(cells):
            perm[cell.bit_length() - 1] = i
        return perm, []

    identity = tuple(range(n))
    gens: list[tuple[int, ...]] = []
    state = {"first_key": None, "first_perm": None, "best_key": None, "best_perm": None}

    def record_automorphism(p1: Sequence[int], p2: Sequence[int]) -> None:
        # identical relabelled rows under p1 and p2 => p2^-1 . p1 in Aut
        inv2 = [0] * n
        for v, lab in enumerate(p2):
            inv2[lab] = v
        sigma = tuple(inv2[p1[v]] for v in range(n))
        if sigma != identity and sigma not in gens:
            gens.append(sigma)

    def orbit_joined(v: int, explored: list[int], fixed: list[int]) -> bool:
        relevant = [g for g in gens if all(g[w] == w for w in fixed)]
        if not relevant:
            return False
        find = _orbit_find(n, relevant)
        rv = find(v)
        return any(find(w) == rv for w in explored)

    def descend(cells: list[int], fixed: list[int]) -> None:
        target = -1
        for i, cell in enumerate(cells):
            if cell & (cell - 1):
                target = i
                break
        if target < 0:
            perm = [0] * n
            for i, cell in enumerate(cells):
                perm[cell.bit_length() - 1] = i
            key = permute_rows(adj, perm)
            if state["first_key"] is None:
                state["first_key"] = key
                state["first_perm"] = perm
                state["best_key"] = key
                state["best_perm"] = perm
                return
            if key == state["first_key"]:
                record_automorphism(perm, state["first_perm"])
            if key < state["best_key"]:
                state["best_key"] = key
                state["best_perm"] = perm
            elif key == state["best_key"] and key != state["first_key"]:
                record_automorphism(perm, state["best_perm"])
            return

        cell = cells[target]
        explored: list[int] = []
        m = cell
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            if explored and orbit_joined(v, explored, fixed):
                continue
            explored.append(v)
            ncells = cells[:target] + [low, cell ^ low] + cells[target + 1:]
            descend(refine_partition(n, adj, ncells, [low]), fixed + [v])

    descend(cells, [])
    return list(state["best_perm"]), gens


def canonical_form(g: Graph) -> str:
    """Canonical graph6 string: equal strings iff isomorphic graphs."""
    perm, _ = canonical_search(g.n, g.adj)
    return write_graph6(g.permuted(perm))


def is_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count() != h.edge_count():
        return False
    return canonical_form(g) == canonical_form(h)


def automorphism_generators(g: Graph) -> list[tuple[int, ...]]:
    _, gens = canonical_search(g.n, g.adj)
    return gens


def _orbit_find(n: int, gens: Sequence[Sequence[int]]) -> Callable[[int], int]:
    """Union-find over the generators; the returned find maps each vertex to
    a root shared by its whole orbit."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in gens:
        for v in range(n):
            ra, rb = find(v), find(g[v])
            if ra != rb:
                parent[ra] = rb
    return find


def orbit_partition(n: int, gens: Sequence[Sequence[int]]) -> list[int]:
    """Vertex orbits under the group generated by ``gens``: orbit id per vertex,
    numbered in order of first appearance."""
    find = _orbit_find(n, gens)
    ids: dict[int, int] = {}
    return [ids.setdefault(find(v), len(ids)) for v in range(n)]


def automorphism_orbits(g: Graph) -> list[int]:
    return orbit_partition(g.n, automorphism_generators(g))
