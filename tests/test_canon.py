import hashlib
import math
import random
import time

from ecgraphs.canon import (
    automorphism_generators,
    automorphism_orbits,
    canonical_form,
    is_isomorphic,
)
from ecgraphs.catalog import named_graph
from ecgraphs.constructions import paley
from ecgraphs.graph6 import write_graph6
from ecgraphs.graphs import (
    Graph,
    cartesian_product,
    complete_bipartite,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    empty_graph,
    path_graph,
)
from ecgraphs.search import enumerate_connected

from conftest import (
    all_labeled_graphs,
    brute_automorphism_count,
    brute_isomorphic,
    brute_orbit_partition,
    group_order,
    random_graph,
    random_permutation,
)

# graphs up to isomorphism on 1..6 vertices (published sequence)
GRAPH_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}


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
    petersen = Graph.from_edges(
        10,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
         (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)],
    )
    cube = cartesian_product(
        cartesian_product(complete_graph(2), complete_graph(2)), complete_graph(2)
    )
    transitive = (
        cycle_graph(9),
        complete_graph(7),
        cartesian_product(complete_graph(3), complete_graph(3)),
        paley(13),
        petersen,
        cube,
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
        rows: list[int] = []
        for k in lengths:
            rows += [row << len(rows) for row in cycle_graph(k).adj]
        g = Graph(len(rows), tuple(rows))
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
