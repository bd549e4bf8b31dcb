import hashlib

import pytest

from ecgraphs.canon import canonical_form
from ecgraphs.constructions import cone, join, join_independent, paley
from ecgraphs.ec import xi, xi_line
from ecgraphs.graph6 import write_graph6
from ecgraphs.graphs import (
    Graph,
    GraphError,
    cartesian_product,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    empty_graph,
)

from conftest import random_graph

K33 = complete_bipartite(3, 3)


def test_cone_preserves_two_line_ec():
    assert xi_line(cone(K33)) == 2


def test_cone_shape():
    assert canonical_form(cone(empty_graph(3))) == canonical_form(complete_bipartite(1, 3))


def test_cone_edge_count(rng):
    for _ in range(30):
        g = random_graph(rng, rng.randrange(1, 10), 0.5)
        assert cone(g).edge_count() == g.edge_count() + g.n


def test_join_independent_preserves_two_line_ec():
    assert xi_line(join_independent(K33, 2)) == 2


def test_join_independent_shape():
    assert canonical_form(join_independent(empty_graph(3), 3)) == canonical_form(K33)
    with pytest.raises(GraphError):
        join_independent(K33, 1)
    g = join_independent(K33, 3)
    for u in range(6, 9):  # new vertices pairwise non-adjacent
        for v in range(6, 9):
            if u != v:
                assert not g.adj[u] >> v & 1


def test_join_preserves_two_line_ec():
    assert xi_line(join(K33, K33)) == 2


def test_join_shape(rng):
    assert canonical_form(join(empty_graph(2), empty_graph(3))) == canonical_form(complete_bipartite(2, 3))
    for _ in range(20):
        g1 = random_graph(rng, rng.randrange(1, 7), 0.5)
        g2 = random_graph(rng, rng.randrange(1, 7), 0.5)
        assert join(g1, g2).edge_count() == g1.edge_count() + g2.edge_count() + g1.n * g2.n


def test_size_overflow_errors():
    big = empty_graph(63)
    with pytest.raises(GraphError):
        join_independent(big, 2)
    with pytest.raises(GraphError):
        join(big, empty_graph(2))
    with pytest.raises(GraphError):
        cone(empty_graph(64))
    with pytest.raises(GraphError):
        join_independent(K33, 10**12)  # refused before any row is built


# -- paley ------------------------------------------------------------------------


def test_paley5_is_c5():
    assert canonical_form(paley(5)) == canonical_form(cycle_graph(5))


def test_paley9_is_rook_with_xi_two():
    rook = cartesian_product(complete_graph(3), complete_graph(3))
    assert canonical_form(paley(9)) == canonical_form(rook)
    assert xi(paley(9)) == 2


def test_paley13_regularity():
    g = paley(13)
    assert g.n == 13 and set(g.degrees()) == {6}


def test_paley_regular_and_self_complementary():
    for q in (5, 9, 13, 17):
        g = paley(q)
        assert set(g.degrees()) == {(q - 1) // 2}
        complement = Graph(q, tuple(row ^ k for row, k in zip(g.adj, complete_graph(q).adj)))
        assert canonical_form(g) == canonical_form(complement)


# every q <= 64 with q = 1 (mod 4) that is a prime power
PALEY_ORDERS = (5, 9, 13, 17, 25, 29, 37, 41, 49, 53, 61)

# GF(p^2) = GF(p)[x] / (x^2 + b*x + c), the (c, b) with the least c + b*p
# that has no root in GF(p)
PALEY_MODULI = {9: (1, 0), 25: (2, 0), 49: (1, 0)}


def test_paley_moduli_are_the_least_irreducible():
    for q, (c, b) in PALEY_MODULI.items():
        p = round(q**0.5)
        has_root = [any((r * r + bb * r + cc) % p == 0 for r in range(p)) for bb in range(p) for cc in range(p)]
        assert has_root.index(False) == c + b * p, q


def test_paley_rows_match_the_definition():
    # the oracle: elements are digit pairs (a0, a1) = a0 + a1*x, encoded as
    # a0 + a1*p; subtraction is digit-wise and the squares are found by
    # multiplying every element by itself
    for q in PALEY_ORDERS:
        if q in PALEY_MODULI:
            p, (c, b) = round(q**0.5), PALEY_MODULI[q]
        else:
            p, c, b = q, 0, 0  # one digit: a1 is always 0

        def mul(u, v):
            (u0, u1), (v0, v1) = divmod(u, p)[::-1], divmod(v, p)[::-1]
            low, mid, high = u0 * v0, u0 * v1 + u1 * v0, u1 * v1  # x^2 = -b*x - c
            return (low - c * high) % p + (mid - b * high) % p * p

        def sub(u, v):
            return (u % p - v % p) % p + (u // p - v // p) % p * p

        squares = {mul(x, x) for x in range(1, q)}
        rows = tuple(sum(1 << v for v in range(q) if sub(u, v) in squares) for u in range(q))
        assert paley(q).adj == rows, q


# sha256 of ``write_graph6(paley(q))``: a change of modulus or labelling shows here
PALEY_GRAPH6_SHA256 = {
    5: "36140b971bbe87e934a4d8d6a3e5cddfde8595d587f031ad1b2b31b911492a9b",
    9: "5a9948108d9882e2fca74495f007228fbb44fd61f532fb6a6451d14bd4c6ed89",
    13: "495adb206ae5b4706f05fdc7e9d9dafc02adefdfc29c66ae08671cc555fbd672",
    17: "71b6921606e2ec756e89f2ee16bb60fb849f9a830b3a2667e06da2a7659dde3e",
    25: "d98c1aece27d5706e74ef57e9e133d374ba910177865d1d6adb735ef59901cad",
    29: "641f65af81f20b228088d865c138be86b99fe0eb17615878ea6f050c681fbbd7",
    37: "61d1748003987d985a16b55073ecf5cc1a2e8f67149f931d26810bbfe4da6808",
    41: "7cf2510565124af4a77331aa29e09c89c4f4f5452e684b88c422055c65851f8f",
    49: "d364025a27b5c45ae31497758cf24eef661eaeb20e569c05801d5ed740083bba",
    53: "5a5e7a0ae4897a60c871bc48411362ce5db948d0da7af60b0d47fafa58f1b5cf",
    61: "082b49e36f7573eabceedc0195de63e9392e764b77b4cb623b567e89fbf0dbc1",
}


def test_paley_graph6_is_pinned():
    assert tuple(PALEY_GRAPH6_SHA256) == PALEY_ORDERS
    for q, digest in PALEY_GRAPH6_SHA256.items():
        assert hashlib.sha256(write_graph6(paley(q)).encode()).hexdigest() == digest, q


def test_paley_validation():
    # one refusal of each kind, in the order paley checks them
    for q, message in (
        (81, "paley graph order 81 exceeds the 64-vertex limit"),
        (1, "field order must be at least 2, got 1"),
        (12, "12 is not a prime power"),
        (7, r"paley graph needs q = 1 \(mod 4\), got 7"),
    ):
        with pytest.raises(GraphError, match=f"^{message}$"):
            paley(q)
