"""Canonical labelling by iterated partition refinement with backtracking.

The search individualizes vertices of the first non-singleton cell of the
coarsest equitable partition, re-refines, and keeps the leaf whose relabelled
adjacency rows are lexicographically smallest; that leaf defines the canonical
labelling.  A leaf whose relabelled rows equal those of the first leaf or of
the best leaf so far reveals an automorphism, and the subtree it lies in is
the image of an explored one, so the search jumps straight back to the deepest
common ancestor with that path (McKay 1981; McKay and Piperno 2014).  Each
tree node also keeps a bitmask of the vertices of its target cell that lie in
the orbit of an explored child under the automorphisms found so far that fix
its individualized prefix; it closes that mask under new such generators as
they arrive and skips the children in it.  Every skipped subtree is an
automorphic image of an explored one, so the smallest leaf, and the canonical
form, are those of the unpruned tree, and the generators found generate the
whole automorphism group.  Complete and empty graphs, K_{n,n}, rook graphs
K_n x K_n, hypercubes and Paley graphs on up to 64 vertices take well under a
second.  Disjoint unions of several kinds of component that refinement cannot tell
apart (2-regular unions of 3-, 4- and 5-cycles, say) remain slow: their
subtrees are not images of each other, so nothing prunes them.

Refinement splits each cell where it stands, by one adjacency row when the
splitter is a single vertex (every individualized vertex is one) and by
neighbour counts otherwise; the two kinds differ only in how they find a
cell's subcells, and one split step does the rest: it puts the subcells in
the cell's place, queues them, drops new singletons and checks the halt.  So a
caller asking only whether some vertex will precede another can stop it once
one does, and one holding the refined unit partition hands it to
``canonical_search``, which then skips its root refinement.  Refinement skips
the passes that cannot split a cell: a singleton never splits, so a
one-vertex splitter whose row misses every non-singleton cell is dropped
unread, and once the partition is discrete the splitters still queued are
left; a pass copies the cells only from the first cell that splits.  A cell
that splits queues every subcell but the last (Hopcroft's rule, which nauty
and Traces apply to the largest subcell), unless it is an initial cell the
caller did not queue.  The queue is first in, first out, so the cell and the
other subcells are popped before the last one would be; once they are, every
cell has one count into each of them, and so one count into the last
subcell, the cell's count less theirs: its pass would split nothing.  Leaving
out the last subcell, not the largest, keeps every pass that splits, and so
the cells, their order and every canonical form, as they were.  A leaf is
relabelled by one bit-matrix transpose (``relabel_rows``).

Soundness of the canonical form and completeness of the discovered
automorphism generators are pinned by tests against brute-force oracles on all
graphs of small order and against the known group orders of symmetric
families.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

from .graph6 import encode_graph6
from .graphs import Graph, bits, relabel_rows


def refine_partition(
    n: int, adj: Sequence[int], cells: list[int], work: list[int] | None = None, stop: tuple[int, int] | None = None
) -> list[int]:
    """Coarsest equitable refinement of an ordered partition (cells as bitmasks).

    Splits cells by neighbour counts into splitter sets, subcells ordered by
    ascending count; the result is deterministic and relabelling-equivariant.
    A splitter {s} splits each cell into its non-neighbours of s (count 0)
    and its neighbours (count 1), by one row of ``adj``, starting from the
    first cell it splits.  Either way, one split step then takes a cell's
    subcells: they replace it in the output, they are queued under the rule
    below, new singletons leave ``multi``, and a split of v's cell sets the
    halt from the subcells before v's.  ``work`` optionally
    restricts the initial splitter queue (used after individualization: only
    the new singleton needs processing at first).

    Each cell is replaced by its subcells where it stands, so vertices in
    different cells never change order.  With ``stop = (v, mask)`` the
    refinement returns the cells so far at the end of the pass in which a
    split of v's cell puts a vertex of ``mask`` before v, which no later
    split can undo: the full refinement would only split those cells further
    in place.  The caller passes cells where no such vertex precedes v yet.

    Only passes that split nothing are skipped.  ``multi``, the union of the
    non-singleton cells, shrinks as splits leave singletons.  A one-vertex
    splitter whose row misses ``multi`` meets each cell in nothing or in all
    of it, so its pass would leave the cells as they are and queue nothing
    (an empty splitter has an empty row); once ``multi`` is empty no splitter
    can split anything.  A cell C that splits into s1..sr queues s1..s(r-1)
    and not sr, unless C is an initial cell that ``work`` left out.  C was
    queued before sr: initially, or at the split that made it.  The queue is
    first in, first out, so C and s1..s(r-1) are popped before sr would be (a
    subcell left out counts as popped at its turn, by the same argument).
    After a pass every cell has one count into its splitter, and splits only
    refine that; so at sr's turn each cell's count into sr is its count into
    C less its counts into s1..s(r-1), one number, and sr's pass would split
    nothing.  So the cells, their order, the passes that split and the pass
    that sets the halt are those of the procedure that runs every pass.
    """
    vbit, early = (1 << stop[0], stop[1]) if stop else (0, 0)
    cells = list(cells)
    multi = 0  # the union of the non-singleton cells
    for cell in cells:
        if cell & (cell - 1):
            multi |= cell
    # a cell that a split made, or one queued at the start, was queued before
    # its subcells: made covers the former, and every cell when work is None
    made = -1 if work is None else 0
    queue = deque(cells if work is None else work)
    halt = 0
    while queue and multi and not halt:
        splitter = queue.popleft()
        one = not splitter & (splitter - 1)
        if one:  # split by the vertex's row, from the first cell it splits
            row = adj[splitter.bit_length() - 1] if splitter else 0
            if not row & multi:
                continue
            for first, cell in enumerate(cells):
                hit = cell & row
                if hit and hit != cell:
                    break
            else:
                continue
            out, rest = cells[:first], cells[first:]
        else:
            out, rest = [], cells
        for cell in rest:
            # the kinds differ only here: subs, the subcells of a cell that splits
            if one:
                hit = cell & row
                if not hit or hit == cell:
                    out.append(cell)
                    continue
                subs = (cell ^ hit, hit)
            elif cell & (cell - 1):
                groups: dict[int, int] = {}
                m = cell
                while m:
                    low = m & -m
                    m ^= low
                    cnt = (adj[low.bit_length() - 1] & splitter).bit_count()
                    groups[cnt] = groups.get(cnt, 0) | low
                if len(groups) == 1:
                    out.append(cell)
                    continue
                subs = [groups[cnt] for cnt in sorted(groups)]
            else:  # a singleton never splits
                out.append(cell)
                continue
            # the split step
            out += subs
            queue += subs
            if cell & made or cell in work:
                queue.pop()  # every subcell but the last
            made |= cell
            for sub in subs:
                if not sub & (sub - 1):
                    multi ^= sub
            if cell & vbit:  # disjoint subcells: their sum is their union
                halt = sum(subs[: next(i for i, sub in enumerate(subs) if sub & vbit)]) & early
        cells = out
    return cells


def canonical_search(n: int, adj: Sequence[int], cells: list[int] | None = None) -> tuple[list[int], list[tuple[int, ...]]]:
    """Canonical order and automorphism generators of a raw adjacency list.

    Returns ``(order, generators)``: ``order`` is the vertex order of the
    smallest leaf, ``order[i]`` the vertex labelled i, so
    ``relabel_rows(adj, order)`` are the canonical rows; the generators
    (vertex permutations fixing the graph) generate the whole automorphism
    group.  A caller that has already refined the unit partition passes the
    result as ``cells``, and the search starts from it instead of refining
    again.
    """
    if cells is None:
        cells = refine_partition(n, adj, [(1 << n) - 1])
    if len(cells) == n:  # discrete: trivial automorphism group, no search
        return _leaf_order(cells), []

    identity = tuple(range(n))
    gens: list[tuple[int, ...]] = []
    # (rows, order, path) of the first leaf and of the smallest leaf so far,
    # order[i] being the vertex labelled i
    first: tuple | None = None
    best: tuple | None = None

    def descend(cells: list[int], path: list[int]) -> int:
        """Explore the node reached by individualizing ``path``; return the
        depth at which the search resumes (``len(path)``: carry on here)."""
        nonlocal first, best
        depth = len(path)
        target = next((i for i, cell in enumerate(cells) if cell & (cell - 1)), -1)
        if target < 0:
            order = _leaf_order(cells)
            key = relabel_rows(adj, order)
            if first is None:
                first = best = (key, order, path)
                return depth
            for rows, ref, ref_path in (first, best):
                if key == rows:
                    # the vertex labelled i here maps to the vertex labelled
                    # i there, an automorphism, and this subtree up to the
                    # common ancestor mirrors that path
                    sigma = [0] * n
                    for v, w in zip(order, ref):
                        sigma[v] = w
                    sigma = tuple(sigma)
                    if sigma != identity and sigma not in gens:
                        gens.append(sigma)
                    return _common_prefix(path, ref_path)
            if key < best[0]:
                best = (key, order, path)
            return depth

        cell = cells[target]
        # covered: the vertices of the cell in the orbit of an explored child
        # under the automorphisms found so far that fix the path pointwise;
        # those children are images of an explored subtree and are skipped
        fixing: list[tuple[int, ...]] = []
        covered = folded = 0
        m = cell
        while m:
            low = m & -m
            m ^= low
            if covered and folded < len(gens):
                new = [g for g in gens[folded:] if all(g[w] == w for w in path)]
                folded = len(gens)
                if new:
                    fixing += new
                    covered = orbit_closure(covered, fixing)
            if covered & low:
                continue
            covered |= orbit_closure(low, fixing) if fixing else low
            ncells = cells[:target] + [low, cell ^ low] + cells[target + 1:]
            resume = descend(refine_partition(n, adj, ncells, [low]), path + [low.bit_length() - 1])
            if resume < depth:
                return resume
        return depth

    try:
        descend(cells, [])
    finally:
        del descend  # the closure refers to itself: free it without the cyclic collector
    return best[1], gens


def _leaf_order(cells: list[int]) -> list[int]:
    """The vertices of a discrete partition in cell order."""
    return [cell.bit_length() - 1 for cell in cells]


def _common_prefix(a: list[int], b: list[int]) -> int:
    k = 0
    while k < len(a) and k < len(b) and a[k] == b[k]:
        k += 1
    return k


def canonical_form(g: Graph) -> str:
    """Canonical graph6 string: equal strings iff isomorphic graphs."""
    order, _ = canonical_search(g.n, g.adj)
    return encode_graph6(g.n, relabel_rows(g.adj, order))


def degree_triangle_invariant(g: Graph) -> tuple:
    """A cheap isomorphism invariant: n and the sorted multiset of each
    vertex's (degree, sum of its neighbours' degrees, triangles through it).

    Each triple is defined from the edge set alone, without reference to
    vertex labels, so an isomorphism carries every vertex to one with the
    same triple and the sorted multiset is unchanged.  Equal invariants do
    not imply isomorphism: the cube Q3 and the Wagner graph share one.
    """
    adj = g.adj
    deg = [row.bit_count() for row in adj]
    triples = []
    for v, row in enumerate(adj):
        nsum = paired = 0
        rest = row
        while rest:  # bits(row) inline: this runs on every line ``filter`` reads
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            nsum += deg[u]
            paired += (adj[u] & row).bit_count()
        # each triangle through v is seen once from each of its two other ends
        triples.append((deg[v], nsum, paired >> 1))
    triples.sort()
    return g.n, tuple(triples)


def orbit_closure(mask: int, gens: Sequence[Sequence[int]]) -> int:
    """Union of the orbits of the vertices in ``mask`` under the group
    generated by ``gens``: every generator is applied to the newly added
    vertices until no new vertex appears."""
    new = mask
    while new:
        img = 0
        for v in bits(new):
            for g in gens:
                img |= 1 << g[v]
        new = img & ~mask
        mask |= new
    return mask


def orbit_partition(n: int, gens: Sequence[Sequence[int]]) -> list[int]:
    """Vertex orbits under the group generated by ``gens``: orbit id per vertex,
    numbered in order of first appearance."""
    ids = [-1] * n
    k = 0
    for v in range(n):
        if ids[v] < 0:
            for u in bits(orbit_closure(1 << v, gens)):
                ids[u] = k
            k += 1
    return ids


def orbit_leaders(items: Sequence[int], gens: Sequence[Sequence[int]]) -> list[int]:
    """Index of the first item of each orbit of the group generated by the
    vertex permutations ``gens``, ascending.  Items are distinct vertex
    bitmasks, each permutation maps a mask to the mask of its images, and
    the items must be closed under the generators.  Each orbit is swept
    depth first from its first item."""
    maps = [[1 << v for v in g] for g in gens]
    leaders: list[int] = []
    seen: set[int] = set()
    for i, item in enumerate(items):
        if item in seen:
            continue
        leaders.append(i)
        seen.add(item)
        stack = [item]
        while stack:
            cur = stack.pop()
            for mp in maps:
                img = 0
                mm = cur
                while mm:
                    low = mm & -mm
                    img |= mp[low.bit_length() - 1]
                    mm ^= low
                if img not in seen:
                    seen.add(img)
                    stack.append(img)
    return leaders
