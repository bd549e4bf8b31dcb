import time
from itertools import combinations
from math import comb

import pytest

from ecgraphs import hypergraphs
from ecgraphs.canon import is_isomorphic
from ecgraphs.constructions import paley
from ecgraphs.ec import is_n_ec, is_n_line_ec, line_adjacency, line_graph, xi, xi_line
from ecgraphs.graphs import (
    Graph,
    GraphError,
    bits,
    cartesian_product,
    complete_graph,
    cycle_graph,
    empty_graph,
)
from ecgraphs.hypergraphs import (
    Hypergraph,
    HypergraphError,
    cross_join_hypergraphs,
    crossing_hypergraph,
    format_hypergraph,
    is_n_line_ec_hyper,
    line_graph_of_hypergraph,
    parse_hypergraph,
    star_dual,
)

from ecgraphs.search import enumerate_connected

from conftest import brute_twin_classes, random_connected_graph, unreduced_closure_number, unreduced_verdict
from test_acceptance import construction_outputs

ROOK = cartesian_product(complete_graph(3), complete_graph(3))


# -- type ---------------------------------------------------------------------


def test_hypergraph_validation():
    with pytest.raises(HypergraphError):
        Hypergraph(3, (0,))  # empty edge
    with pytest.raises(HypergraphError):
        Hypergraph(3, (3, 3))  # duplicate
    with pytest.raises(HypergraphError):
        Hypergraph(2, (5,))  # out of range
    with pytest.raises(HypergraphError):
        Hypergraph.from_vertex_sets(3, [[0, 1], [1, 0]])  # duplicate after sorting
    with pytest.raises(HypergraphError, match="vertex 0 repeated"):
        Hypergraph.from_vertex_sets(3, [[0, 0, 1], [1, 2]])  # not the 2-edge {0, 1}
    h = Hypergraph.from_vertex_sets(4, [[2, 3], [0, 1]])
    assert h.edges == (0b0011, 0b1100)
    assert h.is_uniform(2)
    assert not Hypergraph.from_vertex_sets(3, [[0], [0, 1]]).is_uniform(2)


def test_text_format_roundtrip():
    h = crossing_hypergraph(3, 3, 2)
    text = format_hypergraph(h)
    assert parse_hypergraph(text) == h
    first = text.splitlines()
    assert first[0] == "6 9"
    with pytest.raises(HypergraphError):
        parse_hypergraph("2 1\n0 1\n0 2")
    with pytest.raises(HypergraphError):
        parse_hypergraph("nonsense")


def test_text_format_tokens_are_ascii_digits_split_at_space():
    # str.split() and int() would read each of these as an edge
    for text, lineno in (("3 1\n0\x1c1\x1f2\n", 2), ("1_1 1\n0\n", 1), ("2 1\n+0\n", 2),
                         ("2 1\n\u0660\n", 2), ("3 1\n0\xa01\n", 2)):
        with pytest.raises(HypergraphError, match=f"^line {lineno}: non-numeric"):
            parse_hypergraph(text)
    assert parse_hypergraph("3 1\n0 1\x0c2\n").edges == (0b111,)
    assert parse_hypergraph("3 2\r\n0\t1\r\n1 2\r\n") == Hypergraph.from_vertex_sets(3, [[0, 1], [1, 2]])


# -- line graphs -----------------------------------------------------------------


def test_line_graph_of_crossing_332_is_rook():
    assert is_isomorphic(line_graph_of_hypergraph(crossing_hypergraph(3, 3, 2)), ROOK)


def test_line_graph_disjoint_edges():
    h = Hypergraph.from_vertex_sets(6, [[0, 1], [2, 3], [4, 5]])
    assert line_graph_of_hypergraph(h).edge_count() == 0


def test_two_uniform_matches_graph_line_graph(rng):
    for _ in range(40):
        g = random_connected_graph(rng, rng.randrange(2, 9), 0.4)
        h = Hypergraph.from_vertex_sets(g.n, [list(e) for e in g.edges()])
        from ecgraphs.ec import line_graph

        assert is_isomorphic(line_graph_of_hypergraph(h), line_graph(g)[0])


# -- closure checks -----------------------------------------------------------------


def test_crossing_553_level2_holds():
    assert is_n_line_ec_hyper(crossing_hypergraph(5, 5, 3), 2).holds


def test_uniform_cap_k_plus_one_fails(rng):
    from itertools import combinations

    for k in (2, 3, 4):
        for _ in range(20):
            n = rng.randrange(2 * k, 2 * k + 5)
            all_edges = [frozenset(c) for c in combinations(range(n), k)]
            rng.shuffle(all_edges)
            chosen = all_edges[: rng.randrange(k + 2, min(len(all_edges), 4 * k + 4))]
            h = Hypergraph.from_vertex_sets(n, [sorted(e) for e in chosen])
            v = is_n_line_ec_hyper(h, k + 1)
            assert not v.holds


def test_star_dual_of_two_ec_graph_is_two_line_ec():
    assert is_n_line_ec_hyper(star_dual(ROOK), 2).holds


def test_two_uniform_check_agrees_with_graph_mode(rng):
    for _ in range(40):
        g = random_connected_graph(rng, rng.randrange(3, 9), 0.5)
        h = Hypergraph.from_vertex_sets(g.n, [list(e) for e in g.edges()])
        for n in (1, 2):
            if n <= g.edge_count():
                assert is_n_line_ec_hyper(h, n).holds == is_n_line_ec(g, n).holds


def test_level_domain_errors():
    h = crossing_hypergraph(2, 2, 2)
    with pytest.raises(HypergraphError):
        is_n_line_ec_hyper(h, 5)
    with pytest.raises(HypergraphError):
        is_n_line_ec_hyper(h, 0)


# -- crossing hypergraphs --------------------------------------------------------------


def test_crossing_edge_counts():
    assert len(crossing_hypergraph(3, 3, 2).edges) == 9
    assert len(crossing_hypergraph(5, 5, 3).edges) == 100  # C(10,3) - 2*C(5,3)
    assert len(crossing_hypergraph(2, 2, 2).edges) == 4
    for x, y, k in ((4, 3, 2), (5, 4, 3), (6, 5, 4)):
        h = crossing_hypergraph(x, y, k)
        assert len(h.edges) == comb(x + y, k) - comb(x, k) - comb(y, k)
        assert h.is_uniform(k)


def test_crossing_validation():
    with pytest.raises(HypergraphError):
        crossing_hypergraph(2, 3, 2)  # x < y
    with pytest.raises(HypergraphError):
        crossing_hypergraph(2, 2, 5)  # k > x + y
    with pytest.raises(HypergraphError):
        crossing_hypergraph(3, 3, 1)


def test_oversize_crossing_refused_before_enumerating(monkeypatch):
    # enumeration walks all C(x + y, k) subsets, so the size cap must refuse first
    def refuse(*args):
        raise AssertionError("enumerated subsets")

    monkeypatch.setattr(hypergraphs, "combinations", refuse)
    for x, y, k in ((32, 32, 5), (32, 32, 32), (12, 12, 12)):
        with pytest.raises(HypergraphError, match=f"= {comb(x + y, k)} subsets"):
            crossing_hypergraph(x, y, k)
    h = Hypergraph.from_vertex_sets(32, [range(5)])
    with pytest.raises(HypergraphError, match=f"= {comb(64, 5)} subsets"):
        cross_join_hypergraphs(h, h, 5)


def test_crossing_size_cap_boundary(monkeypatch):
    monkeypatch.setattr(hypergraphs, "MAX_CROSSING_SUBSETS", comb(6, 2))
    assert len(crossing_hypergraph(3, 3, 2).edges) == 9
    monkeypatch.setattr(hypergraphs, "MAX_CROSSING_SUBSETS", comb(6, 2) - 1)
    with pytest.raises(HypergraphError):
        crossing_hypergraph(3, 3, 2)


def test_crossing_below_bound_fails():
    # x = y = 2 < 2k - 1 = 3 at k = 2: the bound is doing real work
    assert not is_n_line_ec_hyper(crossing_hypergraph(2, 2, 2), 2).holds


def test_theorem_xy_small_sweep():
    for k in (2, 3):
        for y in range(2 * k - 1, 2 * k + 2):
            for x in range(y, 2 * k + 2):
                assert is_n_line_ec_hyper(crossing_hypergraph(x, y, k), 2).holds


# -- star dual -------------------------------------------------------------------------


def test_star_dual_rook():
    sd = star_dual(ROOK)
    assert sd.n == 18 and len(sd.edges) == 9 and sd.is_uniform(4)
    assert is_isomorphic(line_graph_of_hypergraph(sd), ROOK)


def test_star_dual_c4():
    sd = star_dual(cycle_graph(4))
    assert sd.n == 4 and len(sd.edges) == 4 and sd.is_uniform(2)
    assert is_isomorphic(line_graph_of_hypergraph(sd), cycle_graph(4))


def test_star_dual_paley_transfer():
    for q in (5, 9):
        g = paley(q)
        back = line_graph_of_hypergraph(star_dual(g))
        assert xi(back) == xi(g)


def test_star_dual_errors():
    with pytest.raises(GraphError):
        star_dual(empty_graph(2))  # isolated vertices
    with pytest.raises(GraphError):
        star_dual(complete_graph(2))  # single-edge component
    with pytest.raises(GraphError):
        star_dual(Graph.from_edges(5, [(0, 1), (2, 3), (3, 4)]))  # K2 component


def test_star_dual_duality_random(rng):
    done = 0
    while done < 200:
        n = rng.randrange(3, 11)
        g = random_connected_graph(rng, n, rng.choice([0.25, 0.5, 0.75]))
        if g.edge_count() < 2:  # K2 component = whole graph
            continue
        done += 1
        sd = star_dual(g)
        assert is_isomorphic(line_graph_of_hypergraph(sd), g)
        assert xi(line_graph_of_hypergraph(sd)) == xi(g)


# -- cross join ------------------------------------------------------------------------


def test_cross_join_two_line_ec():
    h = crossing_hypergraph(3, 3, 2)
    cj = cross_join_hypergraphs(h, h, 2)
    assert cj.is_uniform(2)
    assert is_n_line_ec_hyper(cj, 2).holds


def test_cross_join_edge_count():
    h1 = crossing_hypergraph(4, 3, 2)
    h2 = crossing_hypergraph(3, 3, 2)
    cj = cross_join_hypergraphs(h1, h2, 2)
    expected = len(h1.edges) + len(h2.edges) + comb(13, 2) - comb(7, 2) - comb(6, 2)
    assert len(cj.edges) == expected


def test_cross_join_validation():
    h2 = crossing_hypergraph(3, 3, 2)
    h3 = crossing_hypergraph(5, 5, 3)
    with pytest.raises(HypergraphError):
        cross_join_hypergraphs(h2, h3, 2)  # uniformity mismatch
    small = Hypergraph.from_vertex_sets(2, [[0, 1]])
    with pytest.raises(HypergraphError):
        cross_join_hypergraphs(h2, small, 2)  # |V2| < 2k-1


def test_cross_join_needs_edge_size_two():
    # for k = 1 no edge can meet both sides; refused like crossing_hypergraph
    h = Hypergraph.from_vertex_sets(3, [[0], [1], [2]])
    with pytest.raises(HypergraphError):
        cross_join_hypergraphs(h, h, 1)


def test_hyperedge_adjacency_matches_intersections():
    h = crossing_hypergraph(3, 2, 2)
    adj = line_adjacency([tuple(bits(e)) for e in h.edges], h.n)
    for i in range(len(h.edges)):
        for j in range(len(h.edges)):
            if i != j:
                assert bool(adj[i] >> j & 1) == bool(h.edges[i] & h.edges[j])


def test_graph_and_hypergraph_line_modes_agree():
    # graph mode lists edges lexicographically, hypergraph mode by bitmask;
    # both item orders go through the same builder and must give the same
    # verdicts and isomorphic line graphs
    checked = 0
    for n in range(2, 7):
        for g in enumerate_connected(n):
            h = Hypergraph.from_vertex_sets(g.n, g.edges())
            for level in range(1, min(3, g.edge_count()) + 1):
                assert is_n_line_ec(g, level).holds == is_n_line_ec_hyper(h, level).holds
            assert is_isomorphic(line_graph(g)[0], line_graph_of_hypergraph(h))
            checked += 1
    assert checked == 1 + 2 + 6 + 21 + 112


# -- twin-symmetry reduction -----------------------------------------------------------

CRITERION_9_SWEEP = [
    (x, y, k) for k in (2, 3, 4) for y in range(2 * k - 1, 2 * k + 2) for x in range(y, 2 * k + 2)
]


def young_orbit_hypergraph(rng, k: int) -> Hypergraph:
    """A union of random orbits of k-subsets under a random Young subgroup
    (all permutations within each cell of a random vertex partition); in
    about a third of the draws one edge is deleted afterwards."""
    n = rng.randrange(2 * k, 13)
    classes = [rng.randrange(rng.randrange(1, 4)) for _ in range(n)]
    orbits: dict = {}
    for c in combinations(range(n), k):
        orbits.setdefault(tuple(sorted(classes[v] for v in c)), []).append(c)
    chosen = [o for o in orbits.values() if rng.random() < 0.85] or [next(iter(orbits.values()))]
    edges = [c for o in chosen for c in o]
    if len(edges) > 1 and rng.random() < 1 / 3:
        edges.pop(rng.randrange(len(edges)))
    return Hypergraph.from_vertex_sets(n, edges)


def assert_levels_match_unreduced(h: Hypergraph, levels) -> None:
    items = [tuple(bits(e)) for e in h.edges]
    adjacency = line_adjacency(items, h.n)
    for level in levels:
        if level <= len(items):
            assert is_n_line_ec_hyper(h, level) == unreduced_verdict(adjacency, items, level), (h, level)


def test_hypergraph_twin_classes_match_definition(rng):
    for _ in range(150):
        h = young_orbit_hypergraph(rng, rng.randrange(2, 5))
        expected = brute_twin_classes(
            h.n, lambda p: sorted(sum(1 << p[v] for v in bits(e)) for e in h.edges) == list(h.edges)
        )
        assert hypergraphs._hypergraph_twin_classes(h) == expected, h


def test_twin_reduction_matches_unreduced_search_on_hypergraphs(rng, reduced_outcomes):
    for k in (2, 3, 4):
        for _ in range(100):
            assert_levels_match_unreduced(young_orbit_hypergraph(rng, k), range(1, 5))
    assert reduced_outcomes[True] >= 50 and reduced_outcomes[False] >= 15, reduced_outcomes


def test_twin_reduction_matches_unreduced_search_on_constructions():
    # the crossing sweep of acceptance criterion 9 (level 2 of the inputs
    # over 1,000 edges runs under -m slow), and cone/join/multipartite
    # outputs in vertex and line mode
    for x, y, k in CRITERION_9_SWEEP:
        h = crossing_hypergraph(x, y, k)
        assert_levels_match_unreduced(h, (1, 3, 4) if len(h.edges) > 1000 else range(1, 5))
    for g in construction_outputs():
        edges = g.edges()
        line = line_adjacency(edges, g.n)
        for level in range(1, 5):
            assert is_n_ec(g, level) == unreduced_verdict(g.adj, range(g.n), level)
            assert is_n_line_ec(g, level) == unreduced_verdict(line, edges, level)
        assert xi(g) == unreduced_closure_number(g.adj)
        assert xi_line(g) == unreduced_closure_number(line)


@pytest.mark.slow
def test_twin_reduction_matches_unreduced_search_on_large_crossings():
    for x, y, k in CRITERION_9_SWEEP:
        h = crossing_hypergraph(x, y, k)
        if len(h.edges) > 1000:
            assert_levels_match_unreduced(h, (2,))


def test_large_crossing_hypergraphs_are_two_line_ec():
    # the README's 2808-edge example, and 8316 edges, which took 113 s
    # before the twin reduction
    assert is_n_line_ec_hyper(crossing_hypergraph(9, 9, 4), 2).holds
    h = crossing_hypergraph(9, 9, 5)
    t0 = time.perf_counter()
    assert is_n_line_ec_hyper(h, 2).holds
    assert time.perf_counter() - t0 < 5.0


def test_hypergraph_twins_are_not_sought_when_the_first_prefix_fails(monkeypatch):
    def refuse(*args):
        raise AssertionError("twins sought")

    monkeypatch.setattr(hypergraphs, "_hypergraph_twin_classes", refuse)
    # each fails at the first prefix (level 3 always does on crossings)
    for h, level in ((crossing_hypergraph(7, 7, 4), 3), (crossing_hypergraph(10, 10, 5), 3),
                     (crossing_hypergraph(6, 6, 4), 2), (crossing_hypergraph(2, 2, 2), 2)):
        assert not is_n_line_ec_hyper(h, level).holds
    with pytest.raises(AssertionError, match="twins sought"):
        is_n_line_ec_hyper(crossing_hypergraph(5, 5, 3), 2)


def test_input_refusals():
    for n in (0, 65):
        with pytest.raises(HypergraphError, match="vertex count must be 1..64"):
            Hypergraph(n, ())
    with pytest.raises(HypergraphError, match="sorted by bitmask"):
        Hypergraph(3, (0b110, 0b011))
    with pytest.raises(HypergraphError, match="vertex 3 out of range for n=3"):
        Hypergraph.from_vertex_sets(3, [[0, 3]])
    for text, message in (("", "empty hypergraph text"), (" \n\n", "empty hypergraph text"),
                          ("3 x\n", "^line 1: non-numeric header"), ("3 1\n0 y\n", "^line 2: non-numeric edge line"),
                          ("\n3 2\n0 1\n\n1 0\n", "^line 5: duplicate hyperedge"),
                          ("0 0\n", "^line 1: vertex count must be 1..64")):
        with pytest.raises(HypergraphError, match=message):
            parse_hypergraph(text)
    with pytest.raises(HypergraphError, match="edgeless"):
        line_graph_of_hypergraph(Hypergraph(3, ()))
    all_pairs = Hypergraph.from_vertex_sets(12, combinations(range(12), 2))
    with pytest.raises(HypergraphError, match="66 > 64"):
        line_graph_of_hypergraph(all_pairs)
    with pytest.raises(GraphError, match="66 > 64"):
        star_dual(complete_graph(12))
    with pytest.raises(HypergraphError, match="70 vertices exceeds the 64-vertex limit"):
        crossing_hypergraph(40, 30, 2)
