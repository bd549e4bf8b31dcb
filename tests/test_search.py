import random
import time

import pytest

from ecgraphs import canon, search
from ecgraphs.canon import canonical_form, canonical_search, degree_triangle_invariant
from ecgraphs.catalog import planar_two_line_ec_graphs
from ecgraphs.ec import is_n_ec, is_n_line_ec
from ecgraphs.graph6 import Graph6Error, numbered_lines, parse_graph6, write_graph6
from ecgraphs.graphs import (
    Graph,
    bits,
    cartesian_product,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    has_induced_2k2,
    is_connected,
    path_graph,
)
from ecgraphs.search import (
    SearchConstraints,
    enumerate_connected,
    filter_stream,
    run_named_search,
)

from conftest import (
    all_labeled_graphs,
    brute_accepts,
    brute_neighborhoods,
    random_connected_graph,
    random_graph,
    random_permutation,
    refines_in_place,
)

# published census: connected graphs and all graphs up to isomorphism
CONNECTED_COUNTS = [1, 1, 2, 6, 21, 112, 853, 11117]
ALL_COUNTS = [1, 2, 4, 11, 34, 156, 1044, 12346]  # OEIS A000088
PLANAR_CONNECTED_COUNTS = [1, 1, 2, 6, 20, 99, 646, 5974]  # OEIS A003094


def test_connected_counts():
    for n, expected in enumerate(CONNECTED_COUNTS, start=1):
        assert sum(1 for _ in enumerate_connected(n)) == expected


def test_walk_graphs_equal_the_validated_graph():
    # the walk builds each counted graph without the constructor's re-check
    loose = SearchConstraints(require_connected=False)
    for n in range(1, 7):
        for cons in (None, loose):
            for g in enumerate_connected(n, cons):
                assert g == Graph(g.n, g.adj)


@pytest.mark.slow
def test_connected_count_order_nine():
    assert sum(1 for _ in enumerate_connected(9)) == 261080  # OEIS A001349


@pytest.mark.slow
def test_connected_planar_count_order_nine():
    cons = SearchConstraints(predicates=("planar",))
    assert sum(1 for _ in enumerate_connected(9, cons)) == 71885  # OEIS A003094


def test_all_graph_counts():
    cons = SearchConstraints(require_connected=False)
    for n, expected in enumerate(ALL_COUNTS, start=1):
        assert sum(1 for _ in enumerate_connected(n, cons)) == expected


def test_isomorph_freeness_against_brute_dedup():
    for n in range(1, 7):
        brute = {canonical_form(g) for g in all_labeled_graphs(n)}
        mine = [canonical_form(g) for g in enumerate_connected(n, SearchConstraints(require_connected=False))]
        assert len(mine) == len(set(mine))
        assert set(mine) == brute


def test_connected_survivors_are_connected_and_exact():
    brute = {canonical_form(g) for g in all_labeled_graphs(5) if is_connected(g)}
    mine = {canonical_form(g) for g in enumerate_connected(5)}
    assert mine == brute


def test_order_four_one_ec_census():
    # exactly 2K2, C4, P4 among the 11 graphs of order 4
    cons = SearchConstraints(require_connected=False)
    survivors = {
        canonical_form(g)
        for g in enumerate_connected(4, cons)
        if is_n_ec(g, 1).holds
    }
    expected = {
        canonical_form(Graph.from_edges(4, [(0, 1), (2, 3)])),
        canonical_form(cycle_graph(4)),
        canonical_form(path_graph(4)),
    }
    assert survivors == expected


def _deletable(g: Graph, connected: bool) -> int:
    """By definition: the vertices whose removal leaves the rest connected
    (every vertex when connectivity does not matter), each found by a
    breadth-first search of the others from the least of them."""
    everyone = (1 << g.n) - 1
    if not connected:
        return everyone
    out = 0
    for v in range(g.n):
        rest = everyone & ~(1 << v)
        seen = frontier = rest & -rest
        while frontier:
            reached = 0
            for u in bits(frontier):
                reached |= g.adj[u]
            frontier = reached & rest & ~seen
            seen |= frontier
        if seen == rest:
            out |= 1 << v
    return out


# two K4s joined through one path vertex of degree 2: the only vertex of
# smaller degree than the rest is a cut vertex
TWO_K4 = Graph.from_edges(
    9, [(a + s, b + s) for s in (0, 4) for a in range(4) for b in range(a + 1, 4)] + [(0, 8), (4, 8)]
)


def _deletion_cases(graphs, connected: bool):
    """Every graph x newest vertex whose removal leaves the rest connected
    (every vertex when connectivity does not matter), that vertex swapped
    with n-1 so it is the newest."""
    for g in graphs:
        for v in bits(_deletable(g, connected)):
            perm = list(range(g.n))
            perm[v], perm[-1] = perm[-1], perm[v]
            yield g.permuted(perm)


def test_accepts_matches_canonical_deletion_rule(monkeypatch):
    # _accepts may stop refining once a deletable vertex precedes the newest
    # vertex's cell: the full refinement must refine the stopped cells in
    # place, and a child whose refinement stopped must be rejected
    refine = search.refine_partition
    seen = []
    monkeypatch.setattr(search, "refine_partition", lambda *args: seen.append(refine(*args)) or seen[-1])
    stopped = {True: 0, False: 0}

    def check(graphs, connected):
        cases = 0
        for h in _deletion_cases(graphs, connected):
            seen.clear()
            accepted = search._accepts(list(h.adj), _deletable(h, connected))[0]
            assert accepted == brute_accepts(h, connected), write_graph6(h)
            (cells,) = seen
            full = refine(h.n, h.adj, [(1 << h.n) - 1])
            assert refines_in_place(full, cells), write_graph6(h)
            if cells != full:
                assert not accepted, write_graph6(h)
                stopped[connected] += 1
            cases += 1
        return cases

    small = [g for n in range(2, 8) for g in enumerate_connected(n)]
    assert check(small, True) == 6098
    # the cut vertex of TWO_K4 has the least degree, so it must not reject;
    # in two triangles joined by a path of three edges, the path's inner
    # vertices are cut vertices in the equitable cell of the triangles'
    # degree-2 vertices, and one of them has the cell's least canonical label
    two_triangles = Graph.from_edges(8, [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4), (4, 5), (5, 6), (5, 7), (6, 7)])
    # K4 and K5 hung on a cut vertex of degree 2: the cut vertex precedes the
    # K4's deletable vertices, which acceptance picks, and the degree cells
    # are not yet equitable, so refinement must not stop for it
    k4_k5 = Graph.from_edges(
        10, [(a, b) for a in range(4) for b in range(a + 1, 4)]
        + [(a, b) for a in range(4, 9) for b in range(a + 1, 9)] + [(0, 9), (4, 9)]
    )
    check([TWO_K4, two_triangles, k4_k5], True)
    rng = random.Random(5)
    check([random_connected_graph(rng, rng.randint(8, 10), rng.uniform(0.1, 0.6)) for _ in range(400)], True)
    loose = SearchConstraints(require_connected=False)
    assert check([g for n in range(2, 7) for g in enumerate_connected(n, loose)], False) == 1166
    assert stopped[True] and stopped[False]


def test_neighborhoods_match_brute_orbits():
    # forced sets defined by degree and size windows are unions of orbits,
    # the condition _neighborhoods relies on
    cases = 0
    for n in range(1, 7):
        for g in enumerate_connected(n):
            degs = g.degrees()
            for t in range(max(degs) + 2):
                forced = sum(1 << v for v in range(n) if degs[v] < t)
                for lo in range(n + 1):
                    for hi in range(lo, n + 1):
                        got = search._neighborhoods(n, list(g.adj), forced, lo, hi)
                        assert got == brute_neighborhoods(g, forced, lo, hi), (write_graph6(g), forced, lo, hi)
                        cases += 1
    assert cases == 21818


def _child(g: Graph, nb: int) -> list[int]:
    """Rows of g plus a new vertex joined to the vertices of ``nb``."""
    return [row | (nb >> v & 1) << g.n for v, row in enumerate(g.adj)] + [nb]


def test_degree_cap_drops_only_rejected_children():
    # the walk lists no neighbourhood with more than ``top`` members, nor one
    # with exactly ``top`` that misses a vertex of ``least``; every such child
    # must fail _accepts, and on the ones it lists, what the walk tells
    # _deletable to take as deletable untested must be so in the child
    def check(graphs, connected):
        dropped = 0
        for g in graphs:
            deletable = _deletable(g, connected)
            assert search._deletable(list(g.adj), connected, 0) == deletable, write_graph6(g)
            top, least = search._degree_cap(list(g.adj), deletable)
            for nb in range(1 if connected else 0, 1 << g.n):
                size = nb.bit_count()
                child = _child(g, nb)
                child_deletable = _deletable(Graph(g.n + 1, tuple(child)), connected)
                if size > top or size == top and nb & least != least:
                    assert not search._accepts(child, child_deletable)[0], (write_graph6(g), nb)
                    dropped += 1
                else:
                    known = (deletable & ~nb if size == 1 else deletable) | 1 << g.n
                    assert known & ~child_deletable == 0, (write_graph6(g), nb)
        return dropped

    small = [g for n in range(1, 8) for g in enumerate_connected(n)]
    assert check(small, True) == 85091
    # the cut vertex of TWO_K4 has the strictly least degree: the cap comes
    # from the degree 3 of the K4 vertices off the path
    assert search._degree_cap(list(TWO_K4.adj), _deletable(TWO_K4, True)) == (4, 0b011101110)
    check([TWO_K4], True)
    rng = random.Random(17)
    check([random_connected_graph(rng, rng.randint(8, 10), rng.uniform(0.1, 0.6)) for _ in range(30)], True)
    loose = SearchConstraints(require_connected=False)
    assert check([g for n in range(1, 7) for g in enumerate_connected(n, loose)], False) == 8159


def test_walk_hands_every_child_its_exact_deletable_mask(monkeypatch):
    # acceptance and the child's degree cap read this one mask, so the walk
    # must compute it exactly, not just a subset of the deletable vertices
    accepts = search._accepts
    checked = {True: 0, False: 0}
    connected = True

    def checked_accepts(rows, deletable):
        assert deletable == _deletable(Graph(len(rows), tuple(rows)), connected), rows
        checked[connected] += 1
        return accepts(rows, deletable)

    monkeypatch.setattr(search, "_accepts", checked_accepts)
    for name in search.NAMED_SEARCHES:
        run_named_search(name, 7)
    connected = False
    loose = SearchConstraints(require_connected=False)
    for n in range(1, 7):
        assert sum(1 for _ in enumerate_connected(n, loose)) == ALL_COUNTS[n - 1]
    assert checked[True] and checked[False]


def test_walk_refines_each_graph_from_the_unit_partition_once(monkeypatch):
    # _accepts refines each candidate child from the unit partition and hands
    # its cells to canonical_search and, for an accepted child with no rival,
    # through the walk to the child's _neighborhoods; beyond those, only K1
    # and the canonical form of each survivor start from the unit partition
    refine = canon.refine_partition
    accepts = search._accepts
    unit = accepts_calls = 0

    def counting(n, adj, cells, *rest):
        nonlocal unit
        unit += cells == [(1 << n) - 1]
        return refine(n, adj, cells, *rest)

    def counting_accepts(rows, deletable):
        nonlocal accepts_calls
        accepts_calls += 1
        return accepts(rows, deletable)

    monkeypatch.setattr(canon, "refine_partition", counting)
    monkeypatch.setattr(search, "refine_partition", counting)
    monkeypatch.setattr(search, "_accepts", counting_accepts)
    for name in search.NAMED_SEARCHES:
        unit = accepts_calls = 0
        report = run_named_search(name, 7)
        assert accepts_calls and unit == accepts_calls + 1 + len(report.survivors), name


def test_neighborhoods_with_a_forced_size_match_brute_orbits():
    # the forced set at one size only, taken from degree and deletability as
    # the walk takes it: both are unions of orbits
    cases = 0
    for n in range(1, 7):
        for g in enumerate_connected(n):
            degs = g.degrees()
            deletable = _deletable(g, True)
            _, gens = canonical_search(n, g.adj)
            # no forced set, or the vertices of least degree
            for forced in {0, sum(1 << v for v in range(n) if degs[v] == min(degs))}:
                for e in set(degs):
                    for extra in {sum(1 << v for v in range(n) if degs[v] == e),
                                  sum(1 << v for v in bits(deletable) if degs[v] == e)}:
                        for lo in range(n + 1):
                            for hi in {lo, min(lo + 1, n), n}:
                                # at either end of the window, inside it and just above it
                                for size in {lo, (lo + hi) // 2, hi, hi + 1}:
                                    at = (size, extra)
                                    got = search._neighborhoods(n, list(g.adj), forced, lo, hi, gens, at)
                                    assert got == brute_neighborhoods(g, forced, lo, hi, at), (write_graph6(g), forced, lo, hi, at)
                                    cases += 1
    assert cases == 47262


def test_order_range_enforced():
    with pytest.raises(ValueError):
        list(enumerate_connected(13))
    with pytest.raises(ValueError):
        run_named_search("min_2ec", 13)
    with pytest.raises(ValueError):
        run_named_search("nonesuch", 9)


def test_max_edges_constraint():
    cons = SearchConstraints(max_edges=5)
    for g in enumerate_connected(6, cons):
        assert g.edge_count() <= 5  # trees only at order 6
    assert sum(1 for _ in enumerate_connected(6, cons)) == 6  # six trees on 6 vertices


def test_order_one_obeys_edge_bound():
    # K1 has no edges: it fits a budget of 0 but not a negative one, at order 1
    # exactly as at higher orders and in filter
    k1 = write_graph6(complete_graph(1))
    assert [canonical_form(g) for g in enumerate_connected(1, SearchConstraints(max_edges=0))] == [k1]
    assert list(enumerate_connected(1, SearchConstraints(max_edges=-1))) == []
    assert list(enumerate_connected(2, SearchConstraints(max_edges=-1))) == []
    rep = filter_stream([k1], SearchConstraints(max_edges=-1))
    assert rep.survivors == [] and rep.per_filter_rejected == {"max_edges": 1}


def test_min_degree_constraint():
    cons = SearchConstraints(final_min_degree=3)
    got = sorted(canonical_form(g) for g in enumerate_connected(5, cons))
    brute = {
        canonical_form(g)
        for g in all_labeled_graphs(5)
        if min(g.degrees()) >= 3 and is_connected(g)
    }
    assert got == sorted(brute)
    # a graph needs more than fmd vertices to have minimum degree fmd
    for order, fmd in ((1, 1), (4, 4)):
        cons = SearchConstraints(final_min_degree=fmd)
        counters = search.new_counters(cons)
        assert list(search._walk(order, order, cons, counters)) == []
        assert counters["generated"] == 0


def test_predicate_chain_counts():
    cons = SearchConstraints(predicates=("edge_count=9", "two_line_ec"))
    found = [g for g in enumerate_connected(6, cons)]
    assert [canonical_form(g) for g in found] == [canonical_form(complete_bipartite(3, 3))]


def test_two_line_ec_predicate_matches_the_decider(monkeypatch):
    # every graph on <= 7 vertices, connected or not, the five catalog forms,
    # K3,3, K6 and F@vf_ (the 11-edge 2-line e.c. graph): the 2K2 rejection
    # never changes the verdict, and the decider runs only on 2K2-free graphs
    graphs = [g for n in range(1, 8) for g in enumerate_connected(n, SearchConstraints(require_connected=False))]
    graphs += planar_two_line_ec_graphs() + [complete_bipartite(3, 3), complete_graph(6), parse_graph6("F@vf_")]
    decided = []
    monkeypatch.setattr(search, "is_n_line_ec", lambda g, n: decided.append(g) or is_n_line_ec(g, n))
    verdicts = {}
    for g in graphs:
        expected = g.edge_count() >= 2 and is_n_line_ec(g, 2).holds
        assert search._pred_two_line_ec(g) == expected, g.adj
        key = (expected, has_induced_2k2(g.adj))
        verdicts[key] = verdicts.get(key, 0) + 1
    assert all(not has_induced_2k2(g.adj) for g in decided)
    # (holds, refused for an induced 2K2): 2K2-free graphs on both sides
    assert verdicts == {(True, False): 64, (False, False): 530, (False, True): 666}


def test_unknown_predicate():
    with pytest.raises(ValueError):
        list(enumerate_connected(4, SearchConstraints(predicates=("bogus",))))


# -- named searches ---------------------------------------------------------------


def test_nine_edge_search():
    rep = run_named_search("nine_edge_2lec", 9)
    assert rep.survivors == [canonical_form(complete_bipartite(3, 3))]
    assert rep.name == "nine_edge_2lec"
    js = rep.to_json()
    assert js["counts"]["generated"] == rep.generated
    assert js["survivors"] == rep.survivors


def test_planar_search_to_order_seven():
    rep = run_named_search("planar-2lec", 7)
    expected = sorted(canonical_form(g) for g in planar_two_line_ec_graphs())
    assert rep.survivors == expected


def test_planar_search_survivor_posthoc_invariants():
    from ecgraphs.graph6 import parse_graph6
    from ecgraphs.graphs import diameter

    for s in run_named_search("planar-2lec", 7).survivors:
        g = parse_graph6(s)
        assert g.n <= 12
        assert min(g.degrees()) >= 3
        assert diameter(g) <= 3


@pytest.mark.slow
def test_planar_search_order_ten():
    rep = run_named_search("planar_2lec", 10)
    assert rep.generated == 156052
    assert rep.per_filter_rejected == {"planar": 102957, "two_line_ec": 53090}
    assert rep.survivors == sorted(canonical_form(g) for g in planar_two_line_ec_graphs())


# the per-order constraints the named searches ran with when each order grew
# its own tree: planar_2lec then carried Euler's bound as an explicit edge cap
PER_ORDER_CONSTRAINTS = {
    "planar_2lec": lambda k: SearchConstraints(
        max_edges=3 * k - 6 if k >= 3 else None, final_min_degree=3, predicates=("planar", "two_line_ec")
    ),
    "min_2ec": lambda k: SearchConstraints(final_min_degree=4, predicates=("two_ec",)),
    "nine_edge_2lec": lambda k: SearchConstraints(
        max_edges=9, final_min_degree=3, predicates=("edge_count=9", "two_line_ec")
    ),
}


def test_named_search_walk_matches_single_order_runs():
    # one tree up to max_order reports the sum of one single-order tree per order
    for name, per_order in PER_ORDER_CONSTRAINTS.items():
        generated, rejected, survivors = 0, {}, []
        for max_order in range(1, 9):
            cons = per_order(max_order)
            counters = search.new_counters(cons)
            survivors += [canonical_form(g) for g in search._walk(max_order, max_order, cons, counters)]
            generated += counters.pop("generated")
            for key, val in counters.items():
                rejected[key] = rejected.get(key, 0) + val
            got = run_named_search(name, max_order).to_json()
            del got["wall_ms"]
            assert got == {
                "name": name,
                "max_order": max_order,
                "counts": {"generated": generated, "per_filter_rejected": rejected},
                "survivors": sorted(survivors),
            }, (name, max_order)


def test_min_2ec_empty_below_nine():
    rep = run_named_search("min_2ec", 6)
    assert rep.survivors == []


def test_pruning_soundness_edge_bound():
    # the 3n-6 edge prune must not change survivors (orders <= 8); the
    # reference chain does not lead with planar, so it carries no cap at all
    for n in range(4, 9):
        pruned = SearchConstraints(
            max_edges=3 * n - 6, final_min_degree=3, predicates=("planar", "two_line_ec")
        )
        free = SearchConstraints(final_min_degree=3, predicates=("connected", "planar", "two_line_ec"))
        a = sorted(canonical_form(g) for g in enumerate_connected(n, pruned))
        b = sorted(canonical_form(g) for g in enumerate_connected(n, free))
        assert a == b


# leading hereditary entries: the first order whose walk counts fewer nodes
# than the unpruned one (K5 is cut by Euler's window, P5 has an induced 2K2
# but no 4-vertex connected graph does)
HEREDITARY_LEADS = {("planar",): 5, ("two_k2_free",): 6, ("two_k2_free", "planar"): 5}


def _check_hereditary_leads(n, connected_count, planar_count):
    """The 2-line e.c. survivors per lead at order n, each chain's pruned walk
    checked against the unpruned one."""
    # "connected" first (always true here) turns pruning off, so the
    # reference walk runs the chain on every connected graph; both walks
    # grow the same tree, so the pruned one yields a sublist of its graphs
    def walk(preds):
        cons = SearchConstraints(predicates=preds)
        counters = search.new_counters(cons)
        return list(search._walk(n, n, cons, counters)), counters

    found = {}
    for lead, first_pruned in HEREDITARY_LEADS.items():
        full, fc = walk(("connected",) + lead)
        pruned, pc = walk(lead)
        assert pruned == full, (lead, n)
        assert fc["generated"] == connected_count
        if lead == ("planar",):  # 5,974 of 11,117 at order 8
            assert len(full) == planar_count
        assert (pc["generated"] < fc["generated"]) == (n >= first_pruned), (lead, n)
        # two_line_ec is not hereditary: a walk pruning through it would
        # lose survivors
        tail, _ = walk(lead + ("two_line_ec",))
        assert tail == [g for g in full if search._pred_two_line_ec(g)], (lead, n)
        found[lead] = len(tail)
    return found


def test_planar_first_chain_prunes_without_losing_survivors():
    found = dict.fromkeys(HEREDITARY_LEADS, 0)
    for n, (connected_count, planar_count) in enumerate(zip(CONNECTED_COUNTS, PLANAR_CONNECTED_COUNTS), start=1):
        for lead, count in _check_hereditary_leads(n, connected_count, planar_count).items():
            found[lead] += count
    # each chain has survivors (the catalog forms at order 7), so a prune
    # through the non-hereditary two_line_ec would show
    assert all(found.values()), found


@pytest.mark.slow
def test_hereditary_leads_prune_without_losing_survivors_order_nine():
    _check_hereditary_leads(9, 261080, 71885)  # OEIS A001349, A003094


def test_two_k2_free_planar_walk_reaches_order_twelve():
    # the planar classification by the walk's own prune: the chain's leading
    # two_k2_free and planar cut the tree, and no node above order 9 is
    # counted, so the run to max order 12 repeats the run to max order 9
    cons = SearchConstraints(final_min_degree=3, predicates=("two_k2_free", "planar", "two_line_ec"))
    expected = sorted(canonical_form(g) for g in planar_two_line_ec_graphs())
    for hi in (9, 12):
        counters = search.new_counters(cons)
        survivors = sorted(canonical_form(g) for g in search._walk(1, hi, cons, counters))
        assert survivors == expected, hi
        assert counters == {"generated": 185, "two_k2_free": 103, "planar": 63, "two_line_ec": 14}, hi


# -- filter_stream ------------------------------------------------------------------


def _figure_lines():
    return [write_graph6(g) for g in planar_two_line_ec_graphs()]


def test_filter_stream_figures_plus_k5():
    lines = _figure_lines() + [write_graph6(complete_graph(5))]
    cons = SearchConstraints(predicates=("planar", "two_line_ec"))
    rep = filter_stream(lines, cons)
    assert len(rep.survivors) == 5
    assert rep.per_filter_rejected.get("planar") == 1
    assert rep.generated == 6


def test_filter_stream_empty():
    rep = filter_stream([])
    assert rep.survivors == [] and rep.generated == 0


def test_filter_stream_dedups_relabelings(rng):
    tc20 = planar_two_line_ec_graphs()[0]
    lines = [write_graph6(tc20.permuted(random_permutation(rng, 7))) for _ in range(3)]
    rep = filter_stream(lines, SearchConstraints())
    assert len(rep.survivors) == 1
    assert rep.per_filter_rejected.get("duplicate") == 2


def test_filter_stream_strict_errors_name_line():
    with pytest.raises(ValueError, match="line 2"):
        filter_stream(["C~", "C\x07~"], SearchConstraints())
    with pytest.raises(ValueError, match="line 2: blank line"):
        filter_stream(["C~", "  ", "C~"], SearchConstraints())


def test_filter_stream_lenient_records_and_continues():
    rep = filter_stream(
        ["C~", "\x01bad", write_graph6(cycle_graph(5))],
        SearchConstraints(),
        lenient=True,
    )
    assert rep.generated == 2
    assert len(rep.errors) == 1 and rep.errors[0]["line"] == 2
    assert len(rep.survivors) == 2


def test_filter_stream_structural_filters():
    lines = [write_graph6(complete_graph(4)), write_graph6(path_graph(4)), write_graph6(Graph.from_edges(4, [(0, 1), (2, 3)]))]
    cons = SearchConstraints(max_edges=4, final_min_degree=1, require_connected=True)
    rep = filter_stream(lines, cons)
    assert rep.per_filter_rejected.get("connected") == 1  # the 2K2 input
    assert rep.per_filter_rejected.get("max_edges") == 1  # K4 has 6 edges
    assert len(rep.survivors) == 1  # P4


def _labelling_every_line(lines, cons, lenient=False):
    """Definitional filter: every line is labelled and a form seen before is a
    duplicate; the report as ``filter_stream`` gives it, without its time."""
    chain = search._structural_checks(cons) + search.predicate_functions(cons.predicates)
    rejected, errors, seen, survivors = {}, [], set(), []
    generated = max_seen = 0
    for lineno, text in numbered_lines(lines):
        try:
            if not text:
                raise Graph6Error("blank line", 0)
            g = parse_graph6(text)
        except Graph6Error as exc:
            assert lenient, exc
            errors.append({"line": lineno, "message": str(exc)})
            continue
        generated += 1
        max_seen = max(max_seen, g.n)
        form = canonical_form(g)
        if form in seen:
            rejected["duplicate"] = rejected.get("duplicate", 0) + 1
        else:
            seen.add(form)
            if search._survives(g, chain, rejected):
                survivors.append(form)
    return {"max_order": max_seen, "counts": {"generated": generated, "per_filter_rejected": rejected},
            "survivors": sorted(survivors), **({"errors": errors} if errors else {})}


CUBE = cartesian_product(cartesian_product(complete_graph(2), complete_graph(2)), complete_graph(2))
WAGNER = Graph.from_edges(8, [(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)])


def _relabelled(rng, g):
    return write_graph6(g.permuted(random_permutation(rng, g.n)))


def test_filter_stream_lazy_dedup_matches_labelling_every_line(rng):
    assert degree_triangle_invariant(CUBE) == degree_triangle_invariant(WAGNER)
    assert canonical_form(CUBE) != canonical_form(WAGNER)
    # a duplicate of the first member of an invariant bucket after the second
    shared = [_relabelled(rng, CUBE), _relabelled(rng, WAGNER), _relabelled(rng, CUBE), _relabelled(rng, WAGNER)]
    small = [write_graph6(g) for n in range(1, 8) for g in enumerate_connected(n)]
    seeded = []
    for _ in range(4):
        graphs = [random_graph(rng, rng.randrange(1, 10), rng.choice([0.2, 0.5, 0.8])) for _ in range(60)]
        graphs += [random_connected_graph(rng, rng.randrange(5, 11), 0.3) for _ in range(60)]
        lines = [write_graph6(g) for g in graphs]
        lines += [_relabelled(rng, rng.choice(graphs)) for _ in range(40)]
        rng.shuffle(lines)
        seeded.append(lines)
    streams = [shared, shared[::-1], small, small[::-1]] + seeded
    chains = [
        SearchConstraints(),
        SearchConstraints(require_connected=False),
        SearchConstraints(max_edges=0),
        SearchConstraints(final_min_degree=3, predicates=("planar", "two_line_ec")),
    ]
    for lines in streams:
        for cons in chains:
            got = filter_stream(lines, cons).to_json()
            del got["wall_ms"], got["name"]
            assert got == _labelling_every_line(lines, cons), (lines[:4], cons)
    bad = ["\x01junk", ""] + shared + ["C\x07~"] + shared[:1]
    for cons in chains:
        got = filter_stream(bad, cons, lenient=True).to_json()
        del got["wall_ms"], got["name"]
        assert got == _labelling_every_line(bad, cons, lenient=True)
    rep = filter_stream(shared, SearchConstraints(max_edges=0))
    assert rep.per_filter_rejected == {"duplicate": 2, "max_edges": 2}


def test_filter_stream_labels_no_line_with_a_new_invariant_that_fails(monkeypatch):
    graphs = {}
    for n in range(1, 7):
        for g in enumerate_connected(n):
            graphs.setdefault(degree_triangle_invariant(g), g)
    lines = [write_graph6(g) for g in graphs.values()]
    calls = []
    real = search.canonical_form

    def spy(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(search, "canonical_form", spy)
    # no graph on fewer than 9 vertices is 2-e.c.
    rep = filter_stream(lines, SearchConstraints(predicates=("two_ec",)))
    assert rep.generated == len(lines) > 100 and rep.survivors == []
    assert "duplicate" not in rep.per_filter_rejected
    assert not calls
    # a repeated line is labelled, and so is the line it repeats
    rep = filter_stream(lines + lines[-1:], SearchConstraints(predicates=("two_ec",)))
    assert rep.per_filter_rejected["duplicate"] == 1 and len(calls) == 2


def test_filter_stream_does_not_label_a_rejected_union_of_cycles():
    # refinement cannot split 4 C5 + 4 C4 + 4 C3, and labelling it takes
    # tens of seconds; the connected check rejects it first
    rows: list[int] = []
    for k in [5, 4, 3] * 4:
        rows += [row << len(rows) for row in cycle_graph(k).adj]
    union = write_graph6(Graph(len(rows), tuple(rows)))
    t0 = time.perf_counter()
    rep = filter_stream([union, "EFz_", "Bw"], SearchConstraints())
    assert time.perf_counter() - t0 < 2.0
    assert rep.per_filter_rejected == {"connected": 1}
    assert rep.survivors == sorted([canonical_form(complete_bipartite(3, 3)), canonical_form(complete_graph(3))])
