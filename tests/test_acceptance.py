"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Expensive artefacts (search reports, exhaustive sweeps) are cached at
module level so the criteria can share them in one run yet remain
independently runnable.
"""

import random
import time
from functools import lru_cache
from itertools import combinations

from ecgraphs.canon import canonical_form
from ecgraphs.constructions import cone, join, join_independent, paley
from ecgraphs.ec import is_n_ec, is_n_line_ec, line_adjacency, line_graph, xi, xi_line
from ecgraphs.graph6 import parse_graph6
from ecgraphs.graphs import (
    Graph,
    bits,
    is_connected,
    complete_bipartite,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    empty_graph,
    path_graph,
)
from ecgraphs.hypergraphs import (
    Hypergraph,
    crossing_hypergraph,
    is_n_line_ec_hyper,
    star_dual,
)
from ecgraphs.search import SearchConstraints, enumerate_connected, run_named_search

from conftest import PLANAR_TWO_LINE_EC, contains_induced, diameter, induced, random_connected_graph

RANDOM_SEED = 20260810

TWO_K2 = Graph.from_edges(4, [(0, 1), (2, 3)])
CLAW = complete_bipartite(1, 3)
K33 = complete_bipartite(3, 3)
ROOK_FORM = canonical_form(
    Graph.from_edges(9, [(3 * r + i, 3 * r + j) for r in range(3) for i, j in combinations(range(3), 2)]
                       + [(3 * i + c, 3 * j + c) for c in range(3) for i, j in combinations(range(3), 2)])
)


# -- shared, lazily computed artefacts ----------------------------------------


@lru_cache(maxsize=None)
def planar_search_report():
    return run_named_search("planar_2lec", 9)


@lru_cache(maxsize=None)
def min_2ec_reports():
    return run_named_search("min_2ec", 8), run_named_search("min_2ec", 9)


@lru_cache(maxsize=None)
def nine_edge_report():
    return run_named_search("nine_edge_2lec", 9)


@lru_cache(maxsize=None)
def exhaustive_two_lec_to_order_8() -> tuple[Graph, ...]:
    """All connected graphs on <= 8 vertices with xi_line exactly 2; raises if
    any graph beats the hard cap (xi_line itself asserts the bound)."""
    found = []
    for n in range(1, 9):
        for g in enumerate_connected(n):
            if xi_line(g) == 2:
                found.append(g)
    return tuple(found)


@lru_cache(maxsize=None)
def random_two_lec_n16() -> tuple[Graph, ...]:
    rng = random.Random(RANDOM_SEED)
    found = []
    for _ in range(10_000):
        n = rng.randrange(4, 17)
        p = rng.choice([0.2, 0.35, 0.5, 0.65, 0.8])
        rows = [0] * n
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < p:
                    rows[a] |= 1 << b
                    rows[b] |= 1 << a
        g = Graph(n, tuple(rows))
        if xi_line(g) == 2:
            found.append(g)
    return tuple(found)


def _multipartite_part_vectors(max_total: int = 12):
    """Part vectors with every part >= 3 and at least two parts."""
    out = []

    def rec(prefix, remaining, minimum):
        for p in range(minimum, remaining + 1):
            rest = remaining - p
            if rest == 0:
                if len(prefix) >= 1:
                    out.append(tuple(prefix + [p]))
            elif rest >= p:
                rec(prefix + [p], rest, p)

    for total in range(6, max_total + 1):
        rec([], total, 3)
    return [v for v in out if len(v) >= 2]


@lru_cache(maxsize=None)
def construction_outputs() -> tuple[Graph, ...]:
    seeds = [K33, complete_graph(6), complete_multipartite([3, 3, 3])]
    outputs = []
    for g in seeds:
        outputs.append(g)
        outputs.append(cone(g))
        outputs.append(join_independent(g, 2))
        outputs.append(join_independent(g, 3))
    for g1 in seeds:
        for g2 in seeds:
            outputs.append(join(g1, g2))
    for parts in _multipartite_part_vectors():
        outputs.append(complete_multipartite(list(parts)))
    return tuple(outputs)


# -- line-graph structure checks that work past the 64-vertex cap --------------


def line_graph_has_claw(g: Graph) -> bool:
    adj = line_adjacency(g.edges(), g.n)
    for e in range(len(adj)):
        ne = adj[e]
        f1m = ne
        while f1m:
            lo1 = f1m & -f1m
            f1 = lo1.bit_length() - 1
            f1m ^= lo1
            cand = ne & ~adj[f1] & ~lo1 & ~(lo1 - 1)  # later, non-adjacent to f1
            f2m = cand
            while f2m:
                lo2 = f2m & -f2m
                f2 = lo2.bit_length() - 1
                f2m ^= lo2
                if cand & ~adj[f2] & ~lo2 & ~(lo2 - 1):
                    return True
    return False


def line_graph_has_induced_2k2(g: Graph) -> bool:
    adj = line_adjacency(g.edges(), g.n)
    m = len(adj)
    full = (1 << m) - 1
    for e1 in range(m):
        pm = adj[e1] & ~((1 << (e1 + 1)) - 1)
        while pm:
            lo = pm & -pm
            pm ^= lo
            others = full & ~adj[e1] & ~adj[lo.bit_length() - 1] & ~(1 << e1) & ~lo
            om = others
            while om:
                lo3 = om & -om
                om ^= lo3
                if adj[lo3.bit_length() - 1] & others & ~lo3 & ~(lo3 - 1):
                    return True
    return False


# -- criteria --------------------------------------------------------------------


def test_criterion_01_planar_classification():
    rep = planar_search_report()
    assert len(rep.survivors) == 5
    expected = sorted(canonical_form(g) for g in PLANAR_TWO_LINE_EC.values())
    assert rep.survivors == expected
    orders = sorted(parse_graph6(s).n for s in rep.survivors)
    assert orders == [7] * 5
    edge_counts = sorted(parse_graph6(s).edge_count() for s in rep.survivors)
    assert edge_counts == [12, 13, 14, 15, 15]
    assert rep.generated == 10660
    assert rep.per_filter_rejected == {"planar": 6319, "two_line_ec": 4336}
    assert rep.wall_ms < 60_000  # single-threaded budget
    print(f"\nACCEPTANCE 1 PASS: planar 2-line e.c. classification = 5 graphs of order 7 "
          f"(12,13,14,15,15 edges), canonical match with the figure edge lists "
          f"({rep.wall_ms / 1000:.1f}s)")


def test_criterion_02_minimum_two_ec_graph():
    rep8, rep9 = min_2ec_reports()
    assert rep8.survivors == []
    assert rep9.survivors == [ROOK_FORM]
    assert parse_graph6(rep9.survivors[0]).n == 9
    assert rep9.generated == 15929
    assert rep9.per_filter_rejected == {"two_ec": 15928}
    assert rep8.wall_ms + rep9.wall_ms < 300_000
    print(f"\nACCEPTANCE 2 PASS: no 2-e.c. graph of order <= 8; unique at order 9 = K3[]K3 "
          f"({(rep8.wall_ms + rep9.wall_ms) / 1000:.1f}s)")


def test_criterion_03_nine_edge_uniqueness():
    t0 = time.perf_counter()
    rep = nine_edge_report()
    assert rep.survivors == [canonical_form(K33)]
    assert rep.generated == 5
    assert rep.per_filter_rejected == {"edge_count=9": 2, "two_line_ec": 2}
    # no 2-line e.c. graph with <= 8 edges among all connected graphs, n <= 6
    low = []
    cons = SearchConstraints(max_edges=8, predicates=("two_line_ec",))
    for n in range(1, 7):
        low.extend(enumerate_connected(n, cons))
    assert low == []
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 3 PASS: unique 9-edge 2-line e.c. graph = K33; none with <= 8 edges "
          f"({elapsed:.1f}s)")


def test_criterion_04_order_four_census():
    cons = SearchConstraints(require_connected=False)
    all_order4 = list(enumerate_connected(4, cons))
    assert len(all_order4) == 11
    survivors = {canonical_form(g) for g in all_order4 if is_n_ec(g, 1).holds}
    expected = {
        canonical_form(TWO_K2),
        canonical_form(cycle_graph(4)),
        canonical_form(path_graph(4)),
    }
    assert survivors == expected
    print("\nACCEPTANCE 4 PASS: 1-e.c. graphs of order 4 are exactly {2K2, C4, P4}")


def test_criterion_05_hard_cap():
    t0 = time.perf_counter()
    exhaustive = exhaustive_two_lec_to_order_8()  # xi_line asserts the cap itself
    total = sum(1 for n in range(1, 9) for _ in enumerate_connected(n))
    assert total == 12113
    randoms = random_two_lec_n16()
    for g in exhaustive[:50] + randoms[:50]:  # spot re-verification at level 3
        assert not is_n_line_ec(g, 3).holds
    print(f"\nACCEPTANCE 5 PASS: xi_line <= 2 on all {total} connected graphs with n <= 8 "
          f"and 10000 random graphs with n <= 16 ({time.perf_counter() - t0:.1f}s)")


def test_criterion_06_theorem_one_oracle_suite():
    _, rep9 = min_2ec_reports()
    graphs = [parse_graph6(s) for s in rep9.survivors] + [paley(9)]
    order3 = [empty_graph(3), Graph.from_edges(3, [(0, 1)]), path_graph(3), complete_graph(3)]
    for g in graphs:
        assert is_n_ec(g, 2).holds
        full = (1 << g.n) - 1
        complement = Graph(g.n, tuple(row ^ k for row, k in zip(g.adj, complete_graph(g.n).adj)))
        assert is_n_ec(complement, 2).holds
        for x in range(g.n):
            rest = [v for v in range(g.n) if v != x]
            assert is_n_ec(induced(g, rest), 1).holds
            assert is_n_ec(induced(g, list(bits(g.adj[x]))), 1).holds
            non = list(bits(full & ~g.adj[x] & ~(1 << x)))
            assert is_n_ec(induced(g, non), 1).holds
        for h in order3:
            assert contains_induced(g, h)
    print("\nACCEPTANCE 6 PASS: complement/local-closure/embedding properties hold on the "
          "minimum 2-e.c. graph and paley(9)")


def test_criterion_07_construction_suite():
    t0 = time.perf_counter()
    outputs = construction_outputs()
    for g in outputs:
        assert xi_line(g) == 2, g
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 7 PASS: cone/join-independent/join/multipartite constructions all "
          f"2-line e.c. ({len(outputs)} graphs, {elapsed:.1f}s)")


def test_criterion_08_necessary_conditions():
    t0 = time.perf_counter()
    candidates: dict[str, Graph] = {}
    for s in planar_search_report().survivors:
        candidates.setdefault(s, parse_graph6(s))
    for s in min_2ec_reports()[1].survivors + nine_edge_report().survivors:
        candidates.setdefault(s, parse_graph6(s))
    for g in exhaustive_two_lec_to_order_8() + random_two_lec_n16() + construction_outputs():
        candidates.setdefault(canonical_form(g), g)
    # criterion scope: graphs with xi_line = 2 (criterion 2's survivor is
    # 2-e.c. over vertices; it joins the corpus only if also 2-line e.c.)
    corpus = {form: g for form, g in candidates.items() if xi_line(g) == 2}
    assert len(corpus) > 800
    padded = 0
    for g in corpus.values():
        if not is_connected(g):
            # the only disconnected 2-line e.c. graphs are a connected core
            # plus isolated vertices (edges in two components would lack a
            # common neighbour); the degree/diameter conditions apply there
            core = induced(g, [v for v in range(g.n) if g.adj[v]])
            assert is_connected(core)
            padded += 1
            g = core
        assert min(g.degrees()) >= 3
        assert diameter(g) <= 3
        assert g.edge_count() >= 6
        assert not line_graph_has_claw(g)
        # 2K2-freeness is a property of the graph itself (no induced matching
        # of size two), not of its line graph; see the decisions ledger
        assert not contains_induced(g, TWO_K2)
    # pin why the line-graph reading cannot be the intended one
    assert line_graph_has_induced_2k2(K33)
    lg, _ = line_graph(K33)
    assert contains_induced(lg, TWO_K2)
    print(f"\nACCEPTANCE 8 PASS: min degree >= 3, diameter <= 3, >= 6 edges, claw-free line "
          f"graph, and 2K2-free graph on all {len(corpus)} distinct 2-line e.c. graphs found "
          f"({padded} isolated-vertex-padded, {time.perf_counter() - t0:.1f}s)")


def test_criterion_09_hypergraph_suite():
    t0 = time.perf_counter()
    sweep = 0
    for k in (2, 3, 4):
        for y in range(2 * k - 1, 2 * k + 2):
            for x in range(y, 2 * k + 2):
                assert is_n_line_ec_hyper(crossing_hypergraph(x, y, k), 2).holds
                sweep += 1
    # the failing side: below |Y| = 2k - 1 two edges touch every edge
    failing = 0
    for k in (2, 3, 4):
        for y in range(1, 2 * k - 1):
            for x in range(max(y, k - y), 2 * k + 2):
                h = crossing_hypergraph(x, y, k)
                if len(h.edges) < 2:
                    assert (x, y, k) in ((1, 1, 2), (2, 1, 3), (3, 1, 4), (2, 2, 4))
                    continue
                v = is_n_line_ec_hyper(h, 2)
                assert not v.holds and v.certificate_a == () and len(v.certificate_b) == 2, (x, y, k)
                cover = {u for e in v.certificate_b for u in e}
                assert all(any(e >> u & 1 for u in cover) for e in h.edges), (x, y, k)
                failing += 1
    assert failing == 63
    rng = random.Random(RANDOM_SEED)
    cap_checked = 0
    for k in (2, 3, 4):
        for _ in range(25):
            n = rng.randrange(2 * k, 2 * k + 5)
            pool = list(combinations(range(n), k))
            rng.shuffle(pool)
            count = rng.randrange(k + 2, min(len(pool), 5 * k))
            h = Hypergraph.from_vertex_sets(n, [list(c) for c in pool[:count]])
            assert not is_n_line_ec_hyper(h, k + 1).holds
            cap_checked += 1
    duality_checked = 0
    while duality_checked < 200:
        n = rng.randrange(3, 11)
        g = random_connected_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
        if g.edge_count() < 2:
            continue
        h = star_dual(g)
        back = Graph(len(h.edges), tuple(line_adjacency([tuple(bits(e)) for e in h.edges], h.n)))
        assert canonical_form(back) == canonical_form(g)
        duality_checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 9 PASS: {sweep} crossing hypergraphs 2-line e.c., {failing} with "
          f"|Y| <= 2k - 2 not, {cap_checked} "
          f"k-uniform samples fail level k+1, {duality_checked} star-dual round trips "
          f"({elapsed:.1f}s)")


def test_criterion_10_paley_pipeline():
    t0 = time.perf_counter()
    qs = (5, 9, 13, 17, 29, 37, 41)
    values = [xi(paley(q)) for q in qs]
    assert values[0] == 1 and values[1] == 2
    assert canonical_form(paley(9)) == ROOK_FORM
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert values == [1, 2, 2, 2, 3, 3, 3]  # measured by this checker
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 10 PASS: xi(paley(q)) = {dict(zip(qs, values))} non-decreasing "
          f"({elapsed:.1f}s)")
