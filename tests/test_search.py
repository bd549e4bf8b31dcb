import pytest

from ecgraphs import search
from ecgraphs.canon import canonical_form
from ecgraphs.catalog import planar_two_line_ec_graphs
from ecgraphs.ec import is_n_ec
from ecgraphs.graph6 import write_graph6
from ecgraphs.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    is_connected,
    path_graph,
)
from ecgraphs.search import (
    SearchConstraints,
    enumerate_connected,
    filter_stream,
    run_named_search,
)

from conftest import all_labeled_graphs, random_permutation

# published census: connected graphs and all graphs up to isomorphism
CONNECTED_COUNTS = [1, 1, 2, 6, 21, 112, 853, 11117]
ALL_COUNTS = [1, 2, 4, 11, 34, 156]
PLANAR_CONNECTED_COUNTS = [1, 1, 2, 6, 20, 99, 646]  # OEIS A003094


def test_connected_counts():
    for n, expected in enumerate(CONNECTED_COUNTS, start=1):
        assert sum(1 for _ in enumerate_connected(n)) == expected


@pytest.mark.slow
def test_connected_count_order_nine():
    assert sum(1 for _ in enumerate_connected(9)) == 261080  # OEIS A001349


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


def test_predicate_chain_counts():
    cons = SearchConstraints(predicates=("edge_count=9", "two_line_ec"))
    found = [g for g in enumerate_connected(6, cons)]
    assert [canonical_form(g) for g in found] == [canonical_form(complete_bipartite(3, 3))]


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
    from ecgraphs.graphs import diameter, max_matching_size

    for s in run_named_search("planar-2lec", 7).survivors:
        g = parse_graph6(s)
        assert g.n <= 12
        assert min(g.degrees()) >= 3
        assert diameter(g) <= 3
        assert max_matching_size(g) <= 4


def test_min_2ec_empty_below_nine():
    rep = run_named_search("min_2ec", 6)
    assert rep.survivors == []


def test_worker_determinism():
    reports = [run_named_search("planar_2lec", 7, workers=w) for w in (1, 2, 8)]
    base = reports[0]
    for rep in reports[1:]:
        assert rep.survivors == base.survivors
        assert rep.generated == base.generated
        assert rep.per_filter_rejected == base.per_filter_rejected


def test_pool_sized_by_units_and_cores(monkeypatch):
    # an in-process stand-in records the pool size, so no process is started
    calls = []

    class InlinePool:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            jobs = list(jobs)
            calls.append((self.max_workers, len(jobs)))
            return map(fn, jobs)

    monkeypatch.setattr(search, "ProcessPoolExecutor", InlinePool)
    base = run_named_search("planar_2lec", 7)
    assert calls == []
    for cores in (3, 10_000, None):
        calls.clear()
        monkeypatch.setattr(search.os, "cpu_count", lambda: cores)
        rep = run_named_search("planar_2lec", 7, workers=10_000)
        assert calls and all(size == min(units, cores or 1) for size, units in calls)
        assert (rep.survivors, rep.generated, rep.per_filter_rejected) == (
            base.survivors, base.generated, base.per_filter_rejected)


def test_pruning_soundness_edge_bound():
    # the 3n-6 edge prune must not change survivors (orders <= 8)
    for n in range(4, 9):
        pruned = SearchConstraints(
            max_edges=3 * n - 6, final_min_degree=3, predicates=("planar", "two_line_ec")
        )
        free = SearchConstraints(final_min_degree=3, predicates=("planar", "two_line_ec"))
        a = sorted(canonical_form(g) for g in enumerate_connected(n, pruned))
        b = sorted(canonical_form(g) for g in enumerate_connected(n, free))
        assert a == b


def test_planar_first_chain_prunes_without_losing_survivors():
    # a chain that starts with planar prunes nonplanar intermediate graphs;
    # "connected" first (always true here) turns pruning off
    for n in range(1, 8):
        runs = []
        for preds in (("planar",), ("connected", "planar")):
            cons = SearchConstraints(predicates=preds)
            counters = search.new_counters(cons)
            runs.append(([canonical_form(g) for g in search._enumerate_order(n, cons, counters)], counters))
        (pruned, pc), (full, fc) = runs
        assert pruned == full and len(pruned) == PLANAR_CONNECTED_COUNTS[n - 1]
        assert (pc["generated"] < fc["generated"]) == (n >= 6)  # K5 is the first nonplanar graph


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
