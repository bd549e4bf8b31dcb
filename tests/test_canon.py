import gc
import hashlib
import math
import random
import time

from ecgraphs import canon
from ecgraphs.canon import (
    automorphism_generators,
    automorphism_orbits,
    canonical_form,
    canonical_search,
    is_isomorphic,
    orbit_closure,
    refine_partition,
)
from ecgraphs.catalog import named_graph
from ecgraphs.constructions import paley
from ecgraphs.ec import line_graph
from ecgraphs.graph6 import parse_graph6, write_graph6
from ecgraphs.graphs import (
    Graph,
    bits,
    cartesian_product,
    complete_bipartite,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    empty_graph,
    path_graph,
)
from ecgraphs.search import SearchConstraints, enumerate_connected

from conftest import (
    all_labeled_graphs,
    brute_automorphism_count,
    brute_isomorphic,
    brute_orbit_partition,
    brute_refine,
    brute_row_budget,
    group_order,
    random_graph,
    random_permutation,
    refines_in_place,
)

# graphs up to isomorphism on 1..6 vertices (published sequence)
GRAPH_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}

PETERSEN = Graph.from_edges(
    10,
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
     (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)],
)


def test_relabelling_invariance(rng):
    for _ in range(500):
        n = rng.randrange(1, 11)
        g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        assert canonical_form(g) == canonical_form(g.permuted(random_permutation(rng, n)))


def test_distinguishes_p4_from_claw():
    assert canonical_form(path_graph(4)) != canonical_form(complete_bipartite(1, 3))


def test_paley9_is_rook():
    rook = cartesian_product(complete_graph(3), complete_graph(3))
    p9 = paley(9)
    assert brute_isomorphic(p9, rook)  # exhaustive oracle on 9 vertices
    assert canonical_form(p9) == canonical_form(rook)


def test_soundness_by_dedup_counts():
    # distinct canonical forms over all labeled graphs must match the census;
    # an invariance bug overcounts, a collision undercounts
    for n, expected in GRAPH_COUNTS.items():
        forms = {canonical_form(g) for g in all_labeled_graphs(n)}
        assert len(forms) == expected


def test_catalog_relabelings():
    tc20 = named_graph("Tc20")
    rng = random.Random(99)
    for _ in range(10):
        assert canonical_form(tc20.permuted(random_permutation(rng, 7))) == canonical_form(tc20)


def test_is_isomorphic_agrees_with_brute(rng):
    for _ in range(120):
        n = rng.randrange(1, 7)
        g = random_graph(rng, n, 0.5)
        h = random_graph(rng, n, 0.5)
        assert is_isomorphic(g, h) == brute_isomorphic(g, h)
        relabeled = g.permuted(random_permutation(rng, n))
        assert is_isomorphic(g, relabeled)


def test_generators_are_automorphisms(rng):
    for _ in range(80):
        g = random_graph(rng, rng.randrange(2, 9), rng.choice([0.3, 0.5, 0.7]))
        for sigma in automorphism_generators(g):
            assert g.permuted(list(sigma)).adj == g.adj


def test_orbits_exhaustive_small():
    for n in range(1, 5):
        for g in all_labeled_graphs(n):
            assert automorphism_orbits(g) == brute_orbit_partition(g)


def test_orbits_sampled(rng):
    for n in (5, 6):
        for _ in range(150):
            g = random_graph(rng, n, rng.choice([0.25, 0.5, 0.75]))
            assert automorphism_orbits(g) == brute_orbit_partition(g)


def test_orbits_on_transitive_graphs():
    transitive = (
        cycle_graph(9),
        complete_graph(7),
        cartesian_product(complete_graph(3), complete_graph(3)),
        paley(13),
        PETERSEN,
        _hypercube(3),
    )
    for g in transitive:
        assert len(set(automorphism_orbits(g))) == 1


def test_orbit_counts_on_structured_graphs():
    assert len(set(automorphism_orbits(complete_bipartite(1, 5)))) == 2
    assert len(set(automorphism_orbits(complete_bipartite(2, 3)))) == 2
    assert len(set(automorphism_orbits(path_graph(5)))) == 3


# ---------------------------------------------------------------------------
# symmetric families: without automorphism pruning the search tree of these
# grows factorially, so each canonical form must finish within a second


def _rook(n: int) -> Graph:
    return cartesian_product(complete_graph(n), complete_graph(n))


def _hypercube(d: int) -> Graph:
    g = complete_graph(2)
    for _ in range(d - 1):
        g = cartesian_product(g, complete_graph(2))
    return g


def _cycle_union(lengths) -> Graph:
    rows: list[int] = []
    for k in lengths:
        rows += [row << len(rows) for row in cycle_graph(k).adj]
    return Graph(len(rows), tuple(rows))


PALEY_ORDERS = (5, 9, 13, 17, 25, 29, 37, 41, 49, 53, 61)

# name -> (graph, automorphism group order)
SYMMETRIC = {
    **{f"K{n}": (lambda n=n: complete_graph(n), math.factorial(n)) for n in (16, 32, 48, 64)},
    **{f"E{n}": (lambda n=n: empty_graph(n), math.factorial(n)) for n in (16, 32, 48, 64)},
    **{f"K{n},{n}": (lambda n=n: complete_bipartite(n, n), 2 * math.factorial(n) ** 2) for n in (8, 16, 32)},
    **{f"K{n}xK{n}": (lambda n=n: _rook(n), 2 * math.factorial(n) ** 2) for n in range(2, 9)},
    "Q6": (lambda: _hypercube(6), 2**6 * math.factorial(6)),
    "C64": (lambda: cycle_graph(64), 128),
    # x -> a x^s + b, a a nonzero square, s a field automorphism
    **{f"Paley{q}": (lambda q=q: paley(q), q * (q - 1) // 2 * (2 if q in (9, 25, 49) else 1))
       for q in PALEY_ORDERS},
}

# sha256 of the "name form" lines of these families, and of the sorted forms
# of all 853 connected 7-vertex graphs, both recorded from the search before
# automorphism pruning: pruning must not change a single canonical form
PINNED_FAMILIES = (
    "K16 E16 K32 E32 K8,8 K16,16 K2xK2 K3xK3 K4xK4 K5xK5 K6xK6 K7xK7 K8xK8 Q6 C64 "
    + " ".join(f"Paley{q}" for q in PALEY_ORDERS)
).split()
FAMILY_FORMS_SHA256 = "8662ff0400b818b70359f411abd355216a61bcf470f485fcf12ed9cfebffe4bb"
CONNECTED7_FORMS_SHA256 = "4fbb28b94637d3e806445825168ed2a91e6ec575fe70ef8d1f5d6d74ee495bbc"


def test_symmetric_families_fast_and_invariant():
    rng = random.Random(64)
    for name, (make, _) in SYMMETRIC.items():
        g = make()
        start = time.perf_counter()
        form = canonical_form(g)
        assert time.perf_counter() - start < 1.0, name
        assert canonical_form(g.permuted(random_permutation(rng, g.n))) == form, name
        assert len(set(automorphism_orbits(g))) == 1, name  # all vertex-transitive


def test_orbit_counts_on_symmetric_non_transitive_graphs():
    assert len(set(automorphism_orbits(complete_bipartite(8, 24)))) == 2
    assert len(set(automorphism_orbits(complete_multipartite([4, 4, 8, 8, 8])))) == 2
    assert len(set(automorphism_orbits(complete_multipartite([1, 2, 3, 4, 5, 6])))) == 6


def test_generators_generate_symmetric_groups():
    for name, (make, order) in SYMMETRIC.items():
        if order > 10**14:
            continue  # K16,16 and up: too slow for the oracle; forms and orbits are checked above
        g = make()
        gens = automorphism_generators(g)
        assert all(g.permuted(list(sigma)).adj == g.adj for sigma in gens), name
        assert group_order(g.n, gens) == order, name


def test_generators_generate_groups_of_cycle_unions():
    # 2-regular unions: refinement cannot tell the cycles apart, so the search
    # meets leaves that match the best leaf but not the first; interleaving the
    # cycle lengths puts those leaves deep in the tree
    rng = random.Random(5)
    for lengths in ([5, 6, 5], [4, 5, 4, 5], [4, 6, 4, 6], [3, 4, 3, 4, 3], [4, 5, 6, 4, 5, 6], [6, 3, 6, 3, 3]):
        g = _cycle_union(lengths)
        order = math.prod(math.factorial(lengths.count(k)) * (2 * k) ** lengths.count(k) for k in set(lengths))
        assert group_order(g.n, automorphism_generators(g)) == order, lengths
        assert canonical_form(g.permuted(random_permutation(rng, g.n))) == canonical_form(g), lengths


def test_generators_generate_full_group():
    # generators are automorphisms, so equal orders mean equal groups
    graphs = [g for n in range(1, 6) for g in all_labeled_graphs(n)]
    rng = random.Random(0xA07)
    graphs += [random_graph(rng, n, rng.choice([0.1, 0.3, 0.5, 0.7, 0.9])) for n in (6, 7) for _ in range(60)]
    for g in graphs:
        gens = automorphism_generators(g)
        assert all(g.permuted(list(sigma)).adj == g.adj for sigma in gens)
        assert group_order(g.n, gens) == brute_automorphism_count(g)


def test_canonical_forms_pinned():
    lines = "".join(f"{name} {canonical_form(SYMMETRIC[name][0]())}\n" for name in PINNED_FAMILIES)
    assert hashlib.sha256(lines.encode()).hexdigest() == FAMILY_FORMS_SHA256
    rng = random.Random(7)
    forms = []
    for g in enumerate_connected(7):
        forms.append(canonical_form(g.permuted(random_permutation(rng, 7))))
    assert len(set(forms)) == 853
    assert hashlib.sha256("\n".join(sorted(forms)).encode()).hexdigest() == CONNECTED7_FORMS_SHA256
    # every labelling of K_n or E_n has the same rows, so the form is the graph itself
    for n in (48, 64):
        assert canonical_form(complete_graph(n)) == write_graph6(complete_graph(n))
        assert canonical_form(empty_graph(n)) == write_graph6(empty_graph(n))


# tree nodes (one refine_partition call each, the root's included) that
# canonical_search visits, recorded while a node still kept its orbits in a
# union-find; the skip rule must not move them.  In C4 + C6 under this
# relabelling, a generator that moves the path would merge two children that
# the path's stabilizer keeps apart.  A leaf equal to the best leaf, which
# is not the first, yields an automorphism and a jump back: GqLcGs takes 19
# without both, and IOGQCOES? (a C4 + C6) 21 without the jump alone.
TREE_NODES = {
    "K8": (lambda: complete_graph(8), 36),
    "K4,4": (lambda: complete_bipartite(4, 4), 34),
    "Q3": (lambda: _hypercube(3), 10),
    "Petersen": (lambda: PETERSEN, 10),
    "Paley13": (lambda: paley(13), 7),
    "C16": (lambda: cycle_graph(16), 6),
    "E8": (lambda: empty_graph(8), 36),
    "C4+C6 relabelled": (lambda: _cycle_union([4, 6]).permuted(random_permutation(random.Random(8), 10)), 30),
    "GqLcGs": (lambda: parse_graph6("GqLcGs"), 14),
    "IOGQCOES?": (lambda: parse_graph6("IOGQCOES?"), 20),
}


def test_search_tree_sizes_pinned(monkeypatch):
    calls = 0
    refine = canon.refine_partition

    def counting(*args):
        nonlocal calls
        calls += 1
        return refine(*args)

    monkeypatch.setattr(canon, "refine_partition", counting)
    for name, (make, nodes) in TREE_NODES.items():
        g = make()
        calls = 0
        canon.canonical_search(g.n, g.adj)
        assert calls == nodes, name


def test_search_from_the_refined_unit_partition_matches_search_from_scratch():
    # a caller that already refined the unit partition hands the cells over;
    # the labelling and the generators must not depend on who refined them
    rng = random.Random(0x19)
    loose = SearchConstraints(require_connected=False)
    graphs = [g for n in range(1, 8) for g in enumerate_connected(n, loose)]
    # the symmetric families whose canonical forms the benchmark compares
    families = [complete_graph(8), complete_bipartite(4, 4), empty_graph(8), paley(13), cycle_graph(16),
                complete_graph(12), complete_bipartite(8, 8), empty_graph(12), paley(49), paley(61), cycle_graph(64)]
    for n in (3, 4, 5):
        families += [line_graph(complete_bipartite(n, n))[0], _rook(n)]
    families += [g.permuted(random_permutation(rng, g.n)) for g in families]
    for g in graphs + families:
        cells = refine_partition(g.n, g.adj, [(1 << g.n) - 1])
        assert canonical_search(g.n, g.adj, cells) == canonical_search(g.n, g.adj), write_graph6(g)


def test_canonical_search_leaves_no_reference_cycles():
    # every object a search makes is freed by reference counting alone
    graphs = [paley(13), paley(49), complete_bipartite(4, 4), cycle_graph(16), PETERSEN, path_graph(5)]
    gc.collect()
    gc.disable()
    try:
        for g in graphs:
            for _ in range(5):
                canonical_search(g.n, g.adj)
            canonical_form(g)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _random_ordered_partition(rng: random.Random, n: int) -> list[int]:
    """The vertices in random order, cut into random runs of cells."""
    order = random_permutation(rng, n)
    cells = []
    while order:
        size = rng.randint(1, len(order))
        cells.append(sum(1 << v for v in order[:size]))
        order = order[size:]
    return cells


def test_refinement_matches_the_general_split():
    # a single-vertex splitter splits each cell by one adjacency row; the
    # cells and their order must be those of the general count-and-group
    # split, from any ordered partition and any splitter queue
    rng = random.Random(0x12)
    for _ in range(1500):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.uniform(0.1, 0.9))
        kind = rng.randrange(3)
        if kind < 2:
            cells = _random_ordered_partition(rng, n)
            # every cell first, or some cells plus random vertex sets and
            # single vertices that need not be cells
            work = None if kind == 0 else (
                rng.sample(cells, rng.randint(0, len(cells)))
                + [rng.randrange(1, 1 << n) for _ in range(rng.randrange(3))]
                + [1 << rng.randrange(n) for _ in range(rng.randrange(3))])
            if work is not None:
                # an empty splitter splits nothing, wherever it is queued
                for at in range(len(work) + 1):
                    padded = work[:at] + [0] + work[at:]
                    assert refine_partition(n, g.adj, cells, padded) == brute_refine(n, g.adj, cells, padded), (
                        write_graph6(g), cells, padded)
        else:
            # individualize a vertex of a cell, as the canonical search does,
            # of the equitable or of a random partition
            cells = brute_refine(n, g.adj, [(1 << n) - 1]) if rng.random() < 0.5 else _random_ordered_partition(rng, n)
            i = rng.randrange(len(cells))
            low = 1 << rng.choice(list(bits(cells[i])))
            cells[i:i + 1] = [low, cells[i] ^ low] if cells[i] != low else [low]
            work = [low]
        assert refine_partition(n, g.adj, cells, work) == brute_refine(n, g.adj, cells, work), (write_graph6(g), cells, work)


class _CountingRows(list):
    """Adjacency rows that count how many times a row is read."""

    reads = 0

    def __getitem__(self, v):
        self.reads += 1
        return super().__getitem__(v)


def test_refinement_on_large_graphs_matches_the_general_split():
    # the same comparison on 13-64 vertices, from random partitions and
    # splitter queues and from the partitions the canonical search makes, on
    # symmetric families and on random graphs; refinement must also read no
    # row once its partition is discrete (and no more rows than the general
    # split's passes up to then need), and with stop=(v, mask) it may halt
    # only once a vertex of mask precedes v's cell
    rng = random.Random(0x24)
    graphs = [cycle_graph(64), paley(49), paley(61), complete_bipartite(8, 8), line_graph(complete_bipartite(5, 5))[0]]
    graphs += [g.permuted(random_permutation(rng, g.n)) for g in graphs]
    graphs += [random_graph(rng, n, p) for n in (20, 33, 47, 64) for p in (0.08, 0.5, 0.9)]
    graphs += [random_graph(rng, rng.randint(13, 64), rng.uniform(0.05, 0.95)) for _ in range(8)]
    cases = 0
    for g in graphs:
        n = g.n
        full = [(1 << n) - 1]
        equitable = brute_refine(n, g.adj, full)
        part = _random_ordered_partition(rng, n)
        some = rng.sample(part, rng.randint(0, len(part))) + [rng.randrange(1, 1 << n), 1 << rng.randrange(n)]
        cases_of_g = [(full, None), (part, None), (part, some)]
        # individualize a vertex of the first non-singleton cell, as the search
        # does, at each depth of one path until the partition is discrete
        cells = equitable
        while len(cells) < n:
            i = next(i for i, cell in enumerate(cells) if cell & (cell - 1))
            low = 1 << rng.choice(list(bits(cells[i])))
            cells = cells[:i] + [low, cells[i] ^ low] + cells[i + 1:]
            cases_of_g.append((cells, [low]))
            cells = brute_refine(n, g.adj, cells, [low])
        # and a vertex of another non-singleton cell of the equitable partition
        open_cells = [i for i, cell in enumerate(equitable) if cell & (cell - 1)]
        if open_cells:
            i = rng.choice(open_cells)
            low = 1 << rng.choice(list(bits(equitable[i])))
            cases_of_g.append((equitable[:i] + [low, equitable[i] ^ low] + equitable[i + 1:], [low]))
        for cells, work in cases_of_g:
            rows = _CountingRows(g.adj)
            assert refine_partition(n, rows, cells, work) == brute_refine(n, g.adj, cells, work), (write_graph6(g), cells, work)
            assert rows.reads <= brute_row_budget(n, g.adj, cells, work), (write_graph6(g), cells, work)
            cases += 1
        # stop variant: v's cell first, as the test below sets it up
        for cells in (full, _random_ordered_partition(rng, n)):
            v = rng.randrange(n)
            mask = rng.randrange(1 << n)
            cells = sorted(cells, key=lambda c: not c >> v & 1)
            whole = brute_refine(n, g.adj, cells)
            got = refine_partition(n, g.adj, cells, None, (v, mask))
            assert refines_in_place(whole, got), (write_graph6(g), cells, v, mask)
            assert got == whole or _before(got, v) & mask, (write_graph6(g), cells, v, mask)
    assert cases > 100


# rows that refinement reads from the unit partition and after
# individualizing the first vertex of the first non-singleton cell of the
# equitable partition, and the budget of the general split's passes
ROWS_READ = {
    "C64": (lambda: cycle_graph(64), (64, 64), (1955, 3843)),
    "Paley49": (lambda: paley(49), (49, 49), (97, 97)),
}


def test_rows_read_by_refinement_pinned():
    # a split cell queues every subcell but the last, unless it is an initial
    # cell the caller did not queue; the dropped passes read no row
    for name, (make, unit, individualized) in ROWS_READ.items():
        g = make()
        n = g.n
        full = [(1 << n) - 1]
        equitable = refine_partition(n, g.adj, full)
        i = next(i for i, cell in enumerate(equitable) if cell & (cell - 1))
        low = equitable[i] & -equitable[i]
        cells = equitable[:i] + [low, equitable[i] ^ low] + equitable[i + 1:]
        for start, work, (reads, budget) in ((full, None, unit), (cells, [low], individualized)):
            rows = _CountingRows(g.adj)
            assert refine_partition(n, rows, start, work) == brute_refine(n, g.adj, start, work), name
            assert (rows.reads, brute_row_budget(n, g.adj, start, work)) == (reads, budget), name
            assert reads <= budget, name


def test_refinement_stops_only_once_a_vertex_of_the_mask_precedes():
    # refinement with stop=(v, mask) gives the full refinement unless a
    # vertex of mask ends up before v's cell; if it stops, one already
    # precedes v's cell, and the full refinement splits the cells in place
    rng = random.Random(0x5709)
    stopped = 0
    for _ in range(1500):
        n = rng.randint(2, 12)
        g = random_graph(rng, n, rng.uniform(0.1, 0.9))
        v = rng.randrange(n)
        mask = rng.randrange(1 << n)
        # no vertex may precede v's cell at the start: it comes first
        cells = _random_ordered_partition(rng, n) if rng.random() < 0.5 else [(1 << n) - 1]
        cells.sort(key=lambda c: not c >> v & 1)
        full = brute_refine(n, g.adj, cells)
        got = refine_partition(n, g.adj, cells, None, (v, mask))
        assert refines_in_place(full, got), (write_graph6(g), cells, v, mask)
        if got != full:
            stopped += 1
            assert _before(got, v) & mask, (write_graph6(g), cells, v, mask)
    assert stopped > 100


def _before(cells: list[int], v: int) -> int:
    """The vertices in the cells before v's."""
    out = 0
    for cell in cells:
        if cell >> v & 1:
            return out
        out |= cell
    raise ValueError(v)


def _brute_group(n: int, gens) -> set:
    """Every element of the group generated by ``gens``, by breadth-first
    products with the generators from the identity."""
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(g[x] for x in p)
                if q not in group:
                    group.add(q)
                    nxt.append(q)
        frontier = nxt
    return group


def test_orbit_closure_matches_group_closure():
    # each generator permutes some blocks of a random partition into blocks of
    # at most 4 points, so the group stays small enough to list; cycles of
    # length 3 and 4 need several rounds of images, and generators on disjoint
    # blocks share no support
    rng = random.Random(0x0C)
    for _ in range(300):
        n = rng.randrange(1, 11)
        points = random_permutation(rng, n)
        blocks = []
        while points:
            size = rng.randrange(1, 5)
            blocks.append(points[:size])
            points = points[size:]
        gens = []
        for _ in range(rng.randrange(4)):
            g = list(range(n))
            for block in rng.sample(blocks, rng.randrange(1, len(blocks) + 1)):
                for x, y in zip(block, rng.sample(block, len(block))):
                    g[x] = y
            gens.append(tuple(g))
        group = _brute_group(n, gens)
        for mask in [0, (1 << n) - 1] + [rng.randrange(1 << n) for _ in range(4)] + [1 << v for v in range(n)]:
            images = 0
            for p in group:
                for v in range(n):
                    if mask >> v & 1:
                        images |= 1 << p[v]
            assert orbit_closure(mask, gens) == images, (n, gens, mask)
