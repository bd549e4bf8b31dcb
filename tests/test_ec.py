from itertools import combinations

import pytest

from ecgraphs import canon, ec
from ecgraphs.canon import is_isomorphic
from ecgraphs.constructions import paley
from ecgraphs.ec import (
    EcVerdict,
    _ec_split_search,
    _verdict,
    graph_line_adjacency,
    is_n_ec,
    is_n_line_ec,
    line_adjacency,
    line_graph,
    graph_twin_classes,
    xi,
    xi_line,
)
from ecgraphs.graphs import (
    Graph,
    GraphError,
    bits,
    cartesian_product,
    complement,
    complete_bipartite,
    complete_graph,
    contains_induced,
    cycle_graph,
    diameter,
    empty_graph,
    has_induced_2k2,
    path_graph,
)
from ecgraphs.graph6 import write_graph6
from ecgraphs.search import SearchConstraints, enumerate_connected, filter_stream, run_named_search

from conftest import (
    brute_first_failure,
    brute_orbit_reps,
    brute_twin_classes,
    random_graph,
    random_permutation,
    unreduced_closure_number,
    unreduced_verdict,
)

ROOK = cartesian_product(complete_graph(3), complete_graph(3))
TWO_K2 = Graph.from_edges(4, [(0, 1), (2, 3)])


def recheck_vertex_certificate(g: Graph, verdict: EcVerdict) -> bool:
    """Confirm no witness exists for a failing vertex-mode certificate."""
    a, b = verdict.certificate_a, verdict.certificate_b
    excluded = set(a) | set(b)
    for z in range(g.n):
        if z in excluded:
            continue
        if all(g.has_edge(z, u) for u in a) and not any(g.has_edge(z, u) for u in b):
            return False
    return True


def recheck_line_certificate(g: Graph, verdict: EcVerdict) -> bool:
    a, b = verdict.certificate_a, verdict.certificate_b
    excluded = set(a) | set(b)

    def adjacent(e, f):
        return bool(set(e) & set(f))

    for e in g.edges():
        if e in excluded:
            continue
        if all(adjacent(e, f) for f in a) and not any(adjacent(e, f) for f in b):
            return False
    return True


# -- vertex mode ---------------------------------------------------------------


def test_rook_is_two_ec():
    assert is_n_ec(ROOK, 2).holds


def test_c4_levels():
    c4 = cycle_graph(4)
    assert is_n_ec(c4, 1).holds
    v = is_n_ec(c4, 2)
    assert not v.holds and recheck_vertex_certificate(c4, v)
    # deterministic split order: lexicographic subsets, all-B assignment first
    assert (v.certificate_a, v.certificate_b) == ((), (0, 1))


def test_k4_certificate():
    # a universal vertex has no non-neighbour: first failing split is A=(), B=(0,)
    v = is_n_ec(complete_graph(4), 1)
    assert not v.holds
    assert v.certificate_a == () and v.certificate_b == (0,)
    assert recheck_vertex_certificate(complete_graph(4), v)
    assert v.to_json() == {"level": 1, "holds": False, "certificate": {"A": [], "B": [0]}}


def test_level_domain_error():
    with pytest.raises(GraphError):
        is_n_ec(complete_graph(3), 4)
    with pytest.raises(GraphError):
        is_n_ec(complete_graph(3), 0)
    with pytest.raises(GraphError):
        is_n_line_ec(complete_graph(3), 4)  # only 3 edges


def test_xi_values():
    assert xi(ROOK) == 2
    assert xi(cycle_graph(4)) == 1
    assert xi(complete_graph(4)) == 0


def test_failing_certificates_recheck(rng):
    for _ in range(100):
        g = random_graph(rng, rng.randrange(2, 9), 0.5)
        for n in (1, 2):
            if n > g.n:
                continue
            v = is_n_ec(g, n)
            if not v.holds:
                assert recheck_vertex_certificate(g, v)


# -- line graph ------------------------------------------------------------------


def test_line_graph_fixtures():
    lg3, _ = line_graph(complete_graph(3))
    assert is_isomorphic(lg3, complete_graph(3))
    lg5, _ = line_graph(cycle_graph(5))
    assert is_isomorphic(lg5, cycle_graph(5))
    lgk33, emap = line_graph(complete_bipartite(3, 3))
    assert is_isomorphic(lgk33, ROOK)
    assert emap == tuple(complete_bipartite(3, 3).edges())


def test_line_graph_adjacency_matches_edge_intersection():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])
    lg, emap = line_graph(g)
    for i in range(lg.n):
        for j in range(lg.n):
            if i != j:
                expected = bool(set(emap[i]) & set(emap[j]))
                assert lg.has_edge(i, j) == expected


def test_graph_line_adjacency_matches_edges_then_line_adjacency(rng):
    inputs = [complete_graph(1), empty_graph(9), complete_graph(64)]
    inputs += [random_graph(rng, rng.randrange(1, 65), rng.choice([0.05, 0.3, 0.7])) for _ in range(60)]
    for g in inputs:
        edges = g.edges()
        assert graph_line_adjacency(g) == (edges, line_adjacency(edges, g.n))
    edges, adjacency = graph_line_adjacency(complete_graph(64))
    assert len(edges) == 2016 and all(row.bit_count() == 2 * 62 for row in adjacency)


def test_line_graph_errors():
    with pytest.raises(GraphError):
        line_graph(empty_graph(3))
    with pytest.raises(GraphError):
        line_graph(complete_graph(14))  # 91 edges


# -- line mode ---------------------------------------------------------------------


def test_line_ec_fixtures():
    assert is_n_line_ec(complete_bipartite(3, 3), 2).holds
    v = is_n_line_ec(complete_graph(5), 2)
    assert not v.holds and recheck_line_certificate(complete_graph(5), v)
    assert is_n_line_ec(complete_graph(6), 2).holds


def test_level_three_always_fails(rng):
    samples = [complete_bipartite(3, 3), complete_graph(6), cycle_graph(8), ROOK]
    for _ in range(30):
        g = random_graph(rng, rng.randrange(4, 10), 0.5)
        if g.edge_count() >= 3:
            samples.append(g)
    for g in samples:
        v = is_n_line_ec(g, 3)
        assert not v.holds
        assert recheck_line_certificate(g, v)


def test_xi_line_fixtures():
    assert xi_line(complete_bipartite(3, 3)) == 2
    assert xi_line(cycle_graph(4)) == 1
    assert xi_line(path_graph(3)) == 0
    assert xi_line(empty_graph(2)) == 0


def test_k4_line_certificate_is_first_failing_split():
    # the certificate is the lexicographically least failing split
    k4 = complete_graph(4)
    v = is_n_line_ec(k4, 2)
    edges = k4.edges()
    direct = _verdict(2, _ec_split_search(line_adjacency(edges, 4), len(edges), 2), edges)
    assert not v.holds
    assert (v.certificate_a, v.certificate_b) == (direct.certificate_a, direct.certificate_b)
    assert (v.certificate_a, v.certificate_b) == ((), ((0, 1), (0, 2)))


def test_split_search_matches_definitional_search():
    # every graph with n <= 6 and every connected graph with n = 7, levels
    # 1-4, in vertex mode and in line mode: same first failing split
    cases = 0
    for n in range(1, 8):
        for g in enumerate_connected(n, SearchConstraints(require_connected=n == 7)):
            edges = g.edges()
            modes = [(list(g.adj), g.n), (line_adjacency(edges, g.n), len(edges))]
            for adjacency, count in modes:
                for level in range(1, 5):
                    got = _ec_split_search(adjacency, count, level)
                    assert got == brute_first_failure(adjacency, count, level), (g.adj, count, level)
                    cases += 1
    assert cases == 8 * (1 + 2 + 4 + 11 + 34 + 156 + 853)


def test_split_search_matches_definitional_search_on_hypergraphs(rng):
    # seeded random hypergraphs with edge sizes 2-4, levels 1-5
    for _ in range(1000):
        n = rng.randrange(4, 10)
        masks = set()
        for _ in range(rng.randrange(1, 15)):
            masks.add(sum(1 << v for v in rng.sample(range(n), rng.randrange(2, 5))))
        items = [tuple(bits(e)) for e in sorted(masks)]
        adjacency = line_adjacency(items, n)
        for level in range(1, 6):
            got = _ec_split_search(adjacency, len(items), level)
            assert got == brute_first_failure(adjacency, len(items), level), (items, level)


def test_line_certificates_are_endpoint_pairs():
    v = is_n_line_ec(complete_graph(5), 2)
    for item in v.certificate_a + v.certificate_b:
        assert isinstance(item, tuple) and len(item) == 2
    js = v.to_json()
    assert isinstance(js["certificate"]["B"], list)


# -- invariants ----------------------------------------------------------------------


def test_agreement_with_line_graph(rng):
    checked = 0
    while checked < 500:
        g = random_graph(rng, rng.randrange(2, 9), rng.choice([0.25, 0.5, 0.75]))
        m = g.edge_count()
        if not 1 <= m <= 20:
            continue
        checked += 1
        assert xi_line(g) == xi(line_graph(g)[0])


def test_monotone(rng):
    for _ in range(100):
        g = random_graph(rng, rng.randrange(3, 10), 0.5)
        if g.n >= 2 and is_n_ec(g, 2).holds:
            assert is_n_ec(g, 1).holds
        if g.edge_count() >= 2 and is_n_line_ec(g, 2).holds:
            assert is_n_line_ec(g, 1).holds


def test_order_and_edge_bounds():
    # n-e.c. needs order >= n + 2^n and at least n * 2^(n-1) edges
    for g in (ROOK,):
        assert g.n >= 2 + 4 and g.edge_count() >= 2 * 2
    # 2-line e.c. needs at least 6 edges
    for g in (complete_bipartite(3, 3), complete_graph(6)):
        assert g.edge_count() >= 6
    # exhaustive at small order: nothing 2-line e.c. below 6 edges
    for n in range(2, 6):
        for g in enumerate_connected(n):
            if g.edge_count() >= 2 and is_n_line_ec(g, 2).holds:
                assert g.edge_count() >= 6


def test_complement_equivalence(rng):
    for _ in range(120):
        g = random_graph(rng, rng.randrange(2, 9), 0.5)
        for n in (1, 2):
            if n <= g.n:
                assert is_n_ec(g, n).holds == is_n_ec(complement(g), n).holds


def test_local_closure_on_rook():
    full = (1 << ROOK.n) - 1
    for x in range(ROOK.n):
        rest = [v for v in range(ROOK.n) if v != x]
        assert is_n_ec(ROOK.induced(rest), 1).holds
        nbrs = list(bits(ROOK.adj[x]))
        assert is_n_ec(ROOK.induced(nbrs), 1).holds
        non = list(bits(full & ~ROOK.adj[x] & ~(1 << x)))
        assert is_n_ec(ROOK.induced(non), 1).holds


def test_embedding_order_three():
    patterns = [
        empty_graph(3),
        Graph.from_edges(3, [(0, 1)]),
        path_graph(3),
        complete_graph(3),
    ]
    for h in patterns:
        assert contains_induced(ROOK, h)


def test_delta_and_structure_necessary_conditions():
    # over all connected graphs on <= 6 vertices, xi_line >= 2 forces
    # min degree >= 3, diameter <= 3, a claw-free line graph, and no induced
    # 2K2 in the graph itself (the line graph may well contain one)
    claw = complete_bipartite(1, 3)
    found = 0
    for n in range(2, 7):
        for g in enumerate_connected(n):
            if g.edge_count() < 2 or not is_n_line_ec(g, 2).holds:
                continue
            found += 1
            assert min(g.degrees()) >= 3
            assert diameter(g) <= 3
            assert not contains_induced(g, TWO_K2)
            lg, _ = line_graph(g)
            assert not contains_induced(lg, claw)
    assert found > 0  # K33 and K6 live at order 6


def _two_edges_cover(g):
    """True iff two distinct edges of g touch every edge, that is when the
    ends of some two edges form a vertex cover."""
    full = (1 << g.n) - 1
    edges = [1 << u | 1 << v for u, v in g.edges()]
    for i, e in enumerate(edges):
        for f in edges[:i]:
            cover = e | f
            if not any(g.adj[v] & ~cover for v in bits(full & ~cover)):
                return True
    return False


def test_two_line_ec_characterisation_on_small_graphs():
    # with no isolated vertex, 2-line e.c. holds iff min degree >= 3, the
    # graph is 2K2-free, and no two edges touch every edge: checked on every
    # graph on <= 8 vertices with at least two edges, connected or not
    cons = SearchConstraints(require_connected=False, final_min_degree=1)
    checked = 0
    for n in range(2, 9):
        for g in enumerate_connected(n, cons):
            if g.edge_count() < 2:
                continue
            checked += 1
            expected = min(g.degrees()) >= 3 and not has_induced_2k2(g.adj) and not _two_edges_cover(g)
            assert is_n_line_ec(g, 2).holds == expected, write_graph6(g)
    assert checked == 12344  # OEIS A002494 summed over 2..8 vertices, less K2


def test_line_graph_of_k33_contains_induced_2k2():
    # 2K2-freeness belongs to the 2-line e.c. graph, not its line graph: the
    # rook graph L(K33) has one (two row-edges in one row, two column-edges in
    # a disjoint column)
    lg, _ = line_graph(complete_bipartite(3, 3))
    assert contains_induced(lg, TWO_K2)


def test_verdict_json_shape():
    assert is_n_ec(ROOK, 2).to_json() == {"level": 2, "holds": True, "certificate": None}


# -- twin-symmetry reduction ---------------------------------------------------------


def planted_twin_graph(rng, n: int) -> Graph:
    """A blow-up of a random graph: the vertices of one class are twins (a
    clique or an independent set, joined alike to each other class); in about
    a third of the draws one vertex pair is flipped afterwards."""
    classes = [rng.randrange(rng.randrange(1, n + 1)) for _ in range(n)]
    clique = [rng.random() < 0.5 for _ in range(n)]
    flip = tuple(sorted(rng.sample(range(n), 2))) if n >= 2 and rng.random() < 1 / 3 else None
    between = {}
    rows = [0] * n
    for u, v in combinations(range(n), 2):
        cu, cv = sorted((classes[u], classes[v]))
        joined = clique[cu] if cu == cv else between.setdefault((cu, cv), rng.random() < 0.5)
        if joined != ((u, v) == flip):
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def test_twin_classes_match_definition(rng):
    for _ in range(300):
        g = planted_twin_graph(rng, rng.randrange(1, 10))
        expected = brute_twin_classes(g.n, lambda p: g.permuted(p).adj == g.adj)
        assert graph_twin_classes(g.adj) == expected, g.adj
    assert graph_twin_classes(complete_graph(5).adj) == [0] * 5  # adjacent twins
    assert graph_twin_classes(cycle_graph(4).adj) == [0, 1, 0, 1]  # non-adjacent twins


def test_twin_reduction_matches_unreduced_search(rng, reduced_outcomes):
    # vertex and line mode, levels 1-4, and both closure numbers: the
    # reduced deciders give the unreduced verdict and certificate
    for _ in range(1000):
        g = planted_twin_graph(rng, rng.randrange(1, 10))
        edges = g.edges()
        line = line_adjacency(edges, g.n)
        for level in range(1, 5):
            if level <= g.n:
                assert is_n_ec(g, level) == unreduced_verdict(g.adj, range(g.n), level), (g.adj, level)
            if level <= len(edges):
                assert is_n_line_ec(g, level) == unreduced_verdict(line, edges, level), (g.adj, level)
        assert xi(g) == unreduced_closure_number(g.adj)
        assert xi_line(g) == unreduced_closure_number(line)
    assert reduced_outcomes["twins", True] >= 50 and reduced_outcomes["twins", False] >= 50, reduced_outcomes


def test_twin_pair_at_the_end_is_the_first_failure():
    # paley(13) is 2-e.c.; a copy of its last vertex, adjacent to it or not,
    # leaves the new last pair as the only failing one, and that pair is led
    # by the last representative there is
    g = paley(13)
    for joined in (False, True):
        rows = [row | (row >> 12 & 1) << 13 for row in g.adj] + [g.adj[12] | joined << 12]
        rows[12] |= joined << 13
        h = Graph(14, tuple(rows))
        v = is_n_ec(h, 2)
        assert v == unreduced_verdict(h.adj, range(14), 2)
        assert (v.certificate_a, v.certificate_b) == ((12,), (13,))


def test_twins_are_not_sought_when_the_first_prefix_fails(monkeypatch, rng):
    # most small graphs fail at a prefix led by item 0 (at level 2 the first
    # prefix), and finding twins would cost them more than the whole check
    found = []
    real = ec.graph_twin_classes

    def spy(*args):
        found.append(args)
        return real(*args)

    monkeypatch.setattr(ec, "graph_twin_classes", spy)
    first_fails = asked = 0
    for _ in range(300):
        g = planted_twin_graph(rng, rng.randrange(2, 10))
        edges = g.edges()
        for level in (2, 3):
            for decide, adjacency, count in ((is_n_ec, g.adj, g.n),
                                             (is_n_line_ec, line_adjacency(edges, g.n), len(edges))):
                if level > count:
                    continue
                failure = _ec_split_search(adjacency, count, level)
                found.clear()
                decide(g, level)
                if failure is not None and failure[0] == 0:  # a 0-led prefix fails
                    assert not found, (g.adj, level)
                    first_fails += 1
                else:
                    asked += bool(found)
    assert first_fails >= 500 and asked >= 30, (first_fails, asked)


# -- automorphism reduction (level 3 and up) -------------------------------------------

PETERSEN = Graph.from_edges(
    10,
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
     (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)],
)
CUBE = cartesian_product(cartesian_product(complete_graph(2), complete_graph(2)), complete_graph(2))


def cayley_graph(n: int, jumps) -> Graph:
    """The Cayley graph of Z_n with connection set ``jumps`` and its negatives."""
    return Graph.from_edges(n, {tuple(sorted((v, (v + j) % n))) for v in range(n) for j in jumps if j % n})


def twin_free_symmetric_graphs(rng):
    """(graph, levels) pairs: vertex-transitive graphs without twins, so the
    twin source reduces nothing and every reduction comes from the full
    automorphism group.  The large random Cayley graphs often pass the first
    level-3 prefix and fail a later one."""
    cases = [(paley(q), range(1, 5)) for q in (5, 9, 13, 17, 25, 29)]
    cases += [(paley(q), (3, 4)) for q in (37, 41, 49, 53, 61)]
    cases += [(cycle_graph(n), range(1, 5)) for n in range(5, 13)]
    cases += [(g, range(1, 5)) for g in (PETERSEN, ROOK, CUBE)]
    for lo, hi, count, levels in ((5, 17, 40, range(1, 5)), (30, 65, 20, (3, 4))):
        drawn = 0
        while drawn < count:
            n = rng.randrange(lo, hi)
            g = cayley_graph(n, [j for j in range(1, n // 2 + 1) if rng.random() < 0.5])
            if len(set(graph_twin_classes(g.adj))) == n:
                cases.append((g, levels))
                drawn += 1
    return cases


def off_orbit_failures(rng, count: int) -> list[Graph]:
    """Twin-free graphs that are not vertex-transitive and whose first failing
    3-subset avoids vertex 0: paley(q) for q = 29, 37 and 41 (3-e.c.)
    without vertex 0 and one more, relabelled at random until every 3-subset
    holding the new vertex 0 passes.  The few failing subsets these graphs
    have then avoid the whole orbit of vertex 0, and only there can a search
    that passed its 0-led prefixes fail."""
    out = []
    while len(out) < count:
        p = paley(rng.choice((29, 37, 41)))
        g = p.induced([v for v in range(p.n) if v not in (0, rng.randrange(1, p.n))])
        h = g.permuted(random_permutation(rng, g.n))
        failure = _ec_split_search(h.adj, h.n, 3)
        if failure is not None and failure[0] != 0:
            out.append(h)
    return out


def assert_matches_unreduced(g: Graph, levels) -> None:
    edges = g.edges()
    line = line_adjacency(edges, g.n)
    for level in levels:
        if level <= g.n:
            assert is_n_ec(g, level) == unreduced_verdict(g.adj, range(g.n), level), (g.adj, level)
        if level <= len(edges):
            assert is_n_line_ec(g, level) == unreduced_verdict(line, edges, level), (g.adj, level)
    assert xi(g) == unreduced_closure_number(g.adj), g.adj
    assert xi_line(g) == unreduced_closure_number(line), g.adj


def full_group_reps(g: Graph, edges=None) -> list[int]:
    """The representatives the level-3 source of a decider on g returns."""
    return ec._graph_reps(g, edges)(3)


def test_automorphism_orbit_reps_match_group_closure(rng):
    # every graph with n <= 6 in three labellings, over vertices and over
    # edges: the least item of each orbit of the group the generators generate
    classes = 0
    for n in range(1, 7):
        for g in enumerate_connected(n, SearchConstraints(require_connected=False)):
            classes += 1
            for h in (g, g.permuted(random_permutation(rng, n)), g.permuted(random_permutation(rng, n))):
                _, gens = canon.canonical_search(h.n, h.adj)
                assert full_group_reps(h) == brute_orbit_reps(n, gens, [(v,) for v in range(n)]), h.adj
                assert full_group_reps(h, h.edges()) == brute_orbit_reps(n, gens, h.edges()), h.adj
    assert classes == 1 + 2 + 4 + 11 + 34 + 156
    assert full_group_reps(paley(61)) == [0]
    assert full_group_reps(PETERSEN, PETERSEN.edges()) == [0]
    assert full_group_reps(path_graph(5), path_graph(5).edges()) == [0, 1]


def test_automorphism_reduction_matches_unreduced_search(rng, reduced_outcomes):
    # twin-free symmetric graphs and seeded relabellings of them, vertex and
    # line mode, and both closure numbers: verdict and certificate equal the
    # search without symmetry
    cases = twin_free_symmetric_graphs(rng)
    for g, levels in cases:
        assert len(set(graph_twin_classes(g.adj))) == g.n
        assert_matches_unreduced(g, levels)
    # the Paley graphs from q = 29 on are the 3-e.c. ones, so every sixth
    # relabelling is of one of them to drive the reduced search to a pass
    passing = [(paley(q), (3, 4)) for q in (29, 37, 41)]
    for i in range(300):
        g, levels = rng.choice(cases if i % 6 else passing)
        assert_matches_unreduced(g.permuted(random_permutation(rng, g.n)), levels)
    # a search that passed its 0-led prefixes fails only on a subset that
    # avoids the orbit of vertex 0, so failures need graphs with such subsets
    for g in off_orbit_failures(rng, 40):
        assert len(set(graph_twin_classes(g.adj))) == g.n
        assert_matches_unreduced(g, (3, 4))
    assert reduced_outcomes["automorphism", True] >= 50, reduced_outcomes
    assert reduced_outcomes["automorphism", False] >= 50, reduced_outcomes


def test_paley_61_level_three_checks_only_the_prefixes_led_by_vertex_0(monkeypatch):
    # paley(61) is vertex-transitive: of the C(60, 2) = 1,770 prefixes of the
    # unreduced level-3 search only the 59 led by vertex 0 remain
    checked = []
    real = ec._first_failure

    def spy(adjacency, count, prefixes):
        prefixes = list(prefixes)
        checked.extend(prefixes)
        return real(adjacency, count, prefixes)

    monkeypatch.setattr(ec, "_first_failure", spy)
    g = paley(61)
    assert is_n_ec(g, 3).holds
    assert checked == [(0, j) for j in range(1, 60)]
    checked.clear()
    assert _ec_split_search(g.adj, g.n, 3) is None
    assert len(checked) == 1770


def test_paley_61_checks_the_prefixes_led_by_vertex_0_before_asking_for_the_group(monkeypatch):
    # every search checks the prefixes led by item 0, so they go first and
    # the group is asked for only when they all pass: at level 4 paley(61)
    # fails at one of them, and no canonical search runs
    calls = []
    real_first, real_canon = ec._first_failure, ec.canonical_search

    def first(adjacency, count, prefixes):
        prefixes = list(prefixes)
        calls.append(("prefixes", prefixes[:1], len(prefixes)))
        return real_first(adjacency, count, prefixes)

    def canonical(n, adj):
        calls.append(("canonical_search",))
        return real_canon(n, adj)

    monkeypatch.setattr(ec, "_first_failure", first)
    monkeypatch.setattr(ec, "canonical_search", canonical)
    g = paley(61)
    v = is_n_ec(g, 4)
    assert calls == [("prefixes", [(0, 1, 2)], 59 * 58 // 2)]
    assert (v.certificate_a, v.certificate_b) == ((0,), (1, 3, 14))
    assert v == unreduced_verdict(g.adj, range(g.n), 4)
    calls.clear()
    assert is_n_ec(g, 3).holds
    assert calls == [("prefixes", [(0, 1)], 59), ("canonical_search",), ("prefixes", [], 0)]


@pytest.fixture
def canon_calls(monkeypatch) -> list:
    """The adjacency lists ``ec`` hands to ``canonical_search``."""
    calls = []
    real = canon.canonical_search

    def spy(n, adj):
        calls.append(adj)
        return real(n, adj)

    monkeypatch.setattr(ec, "canonical_search", spy)
    return calls


def test_canonical_search_stays_off_the_level_two_path(canon_calls, rng):
    # the searches and filter ask only level-2 questions, whose prefix count
    # is too small to pay for a canonical search
    graphs = [paley(13), paley(61), ROOK, PETERSEN] + [random_graph(rng, rng.randrange(2, 10), 0.5) for _ in range(200)]
    for g in graphs:
        is_n_ec(g, 2)
        if g.edge_count() >= 2:
            is_n_line_ec(g, 2)
    assert is_n_ec(paley(61), 2).holds
    report = run_named_search("planar_2lec", 7)
    assert len(report.survivors) == 5
    lines = [write_graph6(g) for n in range(4, 8) for g in enumerate_connected(n)]
    for predicates in (("two_ec",), ("two_line_ec",), ("planar", "two_line_ec")):
        filter_stream(lines, SearchConstraints(predicates=predicates))
    assert not canon_calls


def test_canonical_search_runs_at_most_once_per_decider_call(canon_calls, rng):
    # a closure number reuses the group across levels 3 and up, and no
    # decider looks for it when a prefix led by item 0 fails
    graphs = [g for g, _ in twin_free_symmetric_graphs(rng)] + off_orbit_failures(rng, 6)
    graphs += [random_graph(rng, rng.randrange(3, 12), rng.choice([0.3, 0.5, 0.7])) for _ in range(300)]
    first_fails = asked = 0
    for g in graphs:
        edges = g.edges()
        for decide in (xi, xi_line):
            canon_calls.clear()
            decide(g)
            assert len(canon_calls) <= 1, (g.adj, decide)
            asked += len(canon_calls)
        for level in (3, 4):
            for decide, adjacency, count in ((is_n_ec, g.adj, g.n),
                                             (is_n_line_ec, line_adjacency(edges, g.n), len(edges))):
                if level > count:
                    continue
                canon_calls.clear()
                failure = _ec_split_search(adjacency, count, level)
                decide(g, level)
                assert len(canon_calls) <= 1, (g.adj, level)
                if failure is not None and failure[0] == 0:  # a 0-led prefix fails
                    assert not canon_calls, (g.adj, level)
                    first_fails += 1
    assert first_fails >= 500 and asked >= 10, (first_fails, asked)
