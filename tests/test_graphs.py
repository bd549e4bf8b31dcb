import math
import random
import tracemalloc
from itertools import combinations

import pytest

from ecgraphs.canon import canonical_form
from ecgraphs.constructions import paley
from ecgraphs.ec import line_graph
from ecgraphs.graphs import (
    Graph,
    GraphError,
    bits,
    cartesian_product,
    complete_bipartite,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    empty_graph,
    has_induced_2k2,
    path_graph,
    relabel_rows,
    standard_family,
)
from ecgraphs.search import SearchConstraints, enumerate_connected

from conftest import contains_induced, diameter, induced, random_graph, random_permutation


TWO_K2 = Graph.from_edges(4, [(0, 1), (2, 3)])


# -- type invariants ---------------------------------------------------------


def test_graph_validation():
    with pytest.raises(GraphError):
        Graph(0, ())
    with pytest.raises(GraphError):
        Graph(65, (0,) * 65)
    with pytest.raises(GraphError):
        Graph(2, (1, 0))  # loop at 0
    with pytest.raises(GraphError):
        Graph(2, (2, 0))  # asymmetric
    with pytest.raises(GraphError):
        Graph.from_edges(3, [(0, 3)])


def test_from_edges_refuses_the_vertex_count_before_allocating():
    # a list of 2^62 rows cannot be built, so this raises MemoryError unless
    # the count is refused first
    with pytest.raises(GraphError, match=r"^vertex count must be 1\.\.64, got 4611686018427387904$"):
        Graph.from_edges(1 << 62, [])


def test_list_rows_are_stored_as_a_tuple():
    g = Graph(2, [2, 1])
    assert g.adj == (2, 1) and g == Graph(2, (2, 1)) and hash(g) == hash(Graph(2, (2, 1)))


def test_non_int_row_is_refused():
    with pytest.raises(GraphError, match="adjacency row 0 is not an int bitmask"):
        Graph(2, (2.0, 1))


def _loop_asymmetry(rows):
    """The per-edge symmetry check: the message for the first v, then the
    least u in N(v), with v not in N(u); None when the rows are symmetric."""
    for v, row in enumerate(rows):
        for u in bits(row):
            if not rows[u] >> v & 1:
                return f"asymmetric adjacency between {v} and {u}"
    return None


def test_symmetry_check_matches_the_per_edge_loop():
    # every transpose width (8, 16, 32, 64) and the orders at its edges
    rng = random.Random(2929)
    outcomes = {True: 0, False: 0}
    for n in (1, 2, 7, 8, 9, 16, 17, 32, 33, 63, 64):
        for _ in range(80):
            rows = list(random_graph(rng, n, rng.random()).adj)
            for _ in range(rng.choice((0, 1, 1, 2, 3)) if n > 1 else 0):
                v, u = rng.sample(range(n), 2)
                rows[v] ^= 1 << u
            message = _loop_asymmetry(rows)
            outcomes[message is None] += 1
            if message is None:
                assert Graph(n, tuple(rows)).adj == tuple(rows)
            else:
                with pytest.raises(GraphError) as refused:
                    Graph(n, tuple(rows))
                assert str(refused.value) == message
    assert min(outcomes.values()) > 200, outcomes


def test_trusted_construction_equals_the_validated_graph(rng):
    for n in (1, 2, 7, 64):
        for g in (random_graph(rng, n, 0.5), complete_graph(n), empty_graph(n)):
            trusted = Graph._trusted(g.n, g.adj)
            assert trusted == g and hash(trusted) == hash(g) and repr(trusted) == repr(g)


def test_permuted_refuses_anything_but_a_permutation():
    p3 = path_graph(3)
    assert p3.permuted([2, 0, 1]) == Graph.from_edges(3, [(2, 0), (0, 1)])
    for perm in ([0, 0, 2], [0, 1], [0, 1, -1], [0, 1, 2, 3]):
        with pytest.raises(GraphError, match="permutation"):
            p3.permuted(perm)


def _relabelled_bit_by_bit(adj, perm) -> tuple[int, ...]:
    """Rows relabelled one adjacency bit at a time: bit u of row v set means
    bit perm[u] of row perm[v] set."""
    n = len(adj)
    rows = [0] * n
    for v in range(n):
        for u in range(n):
            if adj[v] >> u & 1:
                rows[perm[v]] |= 1 << perm[u]
    return tuple(rows)


def test_relabelling_matches_the_bit_by_bit_relabelling():
    # the transpose packs rows 8, 16, 32 or 64 bits wide: every order from 1
    # to 64, and so each side of each width boundary, at several densities,
    # and symmetric families under random permutations
    rng = random.Random(0x25)
    graphs = [random_graph(rng, n, p) for n in range(1, 65) for p in (0.1, 0.5, 0.9)]
    graphs += [g(n) for g in (complete_graph, empty_graph) for n in (1, 8, 9, 16, 17, 32, 33, 64)]
    graphs += [cycle_graph(64), paley(49), paley(61)]
    for g in graphs:
        for _ in range(3):
            perm = random_permutation(rng, g.n)
            order = [0] * g.n
            for v, label in enumerate(perm):
                order[label] = v
            want = _relabelled_bit_by_bit(g.adj, perm)
            assert relabel_rows(g.adj, order) == want, (g.n, g.adj, perm)
            assert g.permuted(perm).adj == want


# -- families ------------------------------------------------------------------


def test_complete_graph():
    g = complete_graph(4)
    assert g.edge_count() == 6 and set(g.degrees()) == {3}


def test_complete_bipartite():
    g = complete_bipartite(3, 3)
    assert g.edge_count() == 9
    # bipartition blocks are independent sets
    assert all(not g.adj[u] >> v & 1 for u, v in combinations(range(3), 2))
    assert all(not g.adj[u] >> v & 1 for u, v in combinations(range(3, 6), 2))


def test_complete_multipartite():
    g = complete_multipartite([3, 3, 3])
    assert g.edge_count() == 27 and set(g.degrees()) == {6}


def test_family_errors():
    with pytest.raises(GraphError):
        complete_multipartite([3, 0, 3])
    with pytest.raises(GraphError):
        standard_family("complete", [0])
    with pytest.raises(GraphError):
        standard_family("nonesuch", [1])
    with pytest.raises(GraphError):
        cycle_graph(2)


def test_family_order_refused_before_allocation():
    # n-bit rows for n vertices would cost O(n^2) memory before the limit check
    for make in (complete_graph, path_graph, cycle_graph):
        tracemalloc.start()
        try:
            with pytest.raises(GraphError):
                make(5000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000, (make.__name__, peak)


def test_standard_family_dispatch():
    assert standard_family("cycle", [5]).adj == cycle_graph(5).adj
    assert standard_family("complete_multipartite", [2, 2]).adj == complete_multipartite([2, 2]).adj
    assert standard_family("empty", [3]).edge_count() == 0
    assert standard_family("path", [4]).adj == path_graph(4).adj


# -- cartesian product --------------------------------------------------------


def test_product_rook():
    rook = cartesian_product(complete_graph(3), complete_graph(3))
    assert rook.n == 9 and rook.edge_count() == 18 and set(rook.degrees()) == {4}


def test_product_identity_and_square():
    h = random_graph(__import__("random").Random(5), 6, 0.5)
    assert cartesian_product(empty_graph(1), h).adj == h.adj
    assert canonical_form(cartesian_product(complete_graph(2), complete_graph(2))) == canonical_form(cycle_graph(4))


def test_product_degree_law(rng):
    g = random_graph(rng, 5, 0.4)
    h = random_graph(rng, 4, 0.6)
    prod = cartesian_product(g, h)
    for u in range(g.n):
        for v in range(h.n):
            assert prod.adj[u * h.n + v].bit_count() == g.adj[u].bit_count() + h.adj[v].bit_count()


def test_product_overflow():
    with pytest.raises(GraphError):
        cartesian_product(complete_graph(9), complete_graph(8))


# -- induced containment --------------------------------------------------------


def test_line_graphs_are_claw_free():
    lg, _ = line_graph(complete_graph(4))
    assert not contains_induced(lg, complete_bipartite(1, 3))


def test_contains_induced_rook_c4():
    rook = cartesian_product(complete_graph(3), complete_graph(3))
    assert contains_induced(rook, cycle_graph(4))
    # independent oracle: scan 4-subsets directly
    found = False
    c4 = cycle_graph(4)
    for sub in combinations(range(9), 4):
        if canonical_form(induced(rook, sub)) == canonical_form(c4):
            found = True
            break
    assert found


def _random_split_graph(rng, n: int) -> Graph:
    """A clique on a random part of 0..n-1, an independent set on the rest,
    random edges between them: split graphs have no induced 2K2."""
    clique = rng.randrange(n + 1)
    edges = [(u, v) for u in range(clique) for v in range(u + 1, n) if v < clique or rng.random() < 0.5]
    return Graph.from_edges(n, edges)


def test_induced_2k2_kernel_matches_contains_induced(rng):
    # every graph on <= 7 vertices, connected or not, as listed and relabelled
    found = free = 0
    for n in range(1, 8):
        for g in enumerate_connected(n, SearchConstraints(require_connected=False)):
            for h in (g, g.permuted(random_permutation(rng, n))):
                expected = contains_induced(h, TWO_K2)
                assert has_induced_2k2(h.adj) == expected, h.adj
                found += expected
                free += not expected
    assert (found, free) == (2 * 666, 2 * 586)  # 1,252 graphs, 586 of them 2K2-free
    # seeded random graphs up to 64 vertices, and split graphs (2K2-free)
    # with one random edge added inside or outside their independent set
    for n in range(2, 65):
        graphs = [random_graph(rng, n, rng.choice((0.05, 0.3, 0.9)))]
        if n <= 16 or n % 16 == 0:
            split = _random_split_graph(rng, n)
            rows = list(split.adj)
            u, v = rng.sample(range(n), 2)
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            graphs += [split, Graph(n, tuple(rows))]
            assert not has_induced_2k2(split.adj)
        for g in graphs:
            assert has_induced_2k2(g.adj) == contains_induced(g, TWO_K2), (n, g.adj)


def test_contains_induced_trivia(rng):
    for _ in range(20):
        g = random_graph(rng, rng.randrange(1, 9), 0.5)
        assert contains_induced(g, empty_graph(1))
    assert not contains_induced(path_graph(3), complete_graph(3))
    assert not contains_induced(path_graph(4), TWO_K2)  # P4's only 4-subset is P4 itself
    assert contains_induced(path_graph(5), TWO_K2)  # e.g. vertices {0,1,3,4}


# -- diameter -------------------------------------------------------------------


def _floyd_warshall_diameter(g: Graph):
    big = 10 ** 6
    dist = [[0 if i == j else (1 if g.adj[i] >> j & 1 else big) for j in range(g.n)] for i in range(g.n)]
    for k in range(g.n):
        for i in range(g.n):
            for j in range(g.n):
                if dist[i][k] + dist[k][j] < dist[i][j]:
                    dist[i][j] = dist[i][k] + dist[k][j]
    worst = max(max(row) for row in dist)
    return math.inf if worst >= big else worst


def test_diameter_examples():
    assert diameter(complete_graph(6)) == 1
    assert diameter(cartesian_product(complete_graph(3), complete_graph(3))) == 2
    assert diameter(TWO_K2) == math.inf
    assert diameter(empty_graph(1)) == 0


def test_diameter_oracle(rng):
    for _ in range(100):
        g = random_graph(rng, rng.randrange(1, 10), rng.choice([0.2, 0.5, 0.8]))
        assert diameter(g) == _floyd_warshall_diameter(g)


def test_input_refusals():
    with pytest.raises(GraphError, match="row count does not match"):
        Graph(3, (0, 0))
    with pytest.raises(GraphError, match="row 0 references vertices >= 2"):
        Graph(2, (0b100, 0))
    with pytest.raises(GraphError, match="loop at vertex 1"):
        Graph.from_edges(3, [(0, 1), (1, 1)])
    with pytest.raises(GraphError, match="family 'cycle' takes 1 parameter"):
        standard_family("cycle", [3, 4])
    with pytest.raises(GraphError, match="family 'complete_bipartite' takes 2 parameter"):
        standard_family("complete_bipartite", [3])
    assert standard_family("complete_bipartite", [2, 3]).adj == complete_bipartite(2, 3).adj
    assert not contains_induced(path_graph(3), empty_graph(4))  # pattern larger than the host
