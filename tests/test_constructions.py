import pytest

from ecgraphs.canon import canonical_form, is_isomorphic
from ecgraphs.constructions import cone, join, join_independent, paley
from ecgraphs.ec import xi, xi_line
from ecgraphs.fields import FiniteField
from ecgraphs.graphs import (
    GraphError,
    cartesian_product,
    complement,
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
    assert is_isomorphic(cone(empty_graph(3)), complete_bipartite(1, 3))


def test_cone_edge_count(rng):
    for _ in range(30):
        g = random_graph(rng, rng.randrange(1, 10), 0.5)
        assert cone(g).edge_count() == g.edge_count() + g.n


def test_join_independent_preserves_two_line_ec():
    assert xi_line(join_independent(K33, 2)) == 2


def test_join_independent_shape():
    assert is_isomorphic(join_independent(empty_graph(3), 3), K33)
    with pytest.raises(GraphError):
        join_independent(K33, 1)
    g = join_independent(K33, 3)
    for u in range(6, 9):  # new vertices pairwise non-adjacent
        for v in range(6, 9):
            if u != v:
                assert not g.has_edge(u, v)


def test_join_preserves_two_line_ec():
    assert xi_line(join(K33, K33)) == 2


def test_join_shape(rng):
    assert is_isomorphic(join(empty_graph(2), empty_graph(3)), complete_bipartite(2, 3))
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
    assert is_isomorphic(paley(5), cycle_graph(5))


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
        assert is_isomorphic(g, complement(g))


def test_paley_rows_match_the_definition():
    # every q <= 64 with q = 1 (mod 4) that is a prime power
    for q in (5, 9, 13, 17, 25, 29, 37, 41, 49, 53, 61):
        f = FiniteField(q)
        rows = tuple(sum(1 << v for v in range(q) if v != u and f.is_square(f.sub(u, v))) for u in range(q))
        assert paley(q).adj == rows, q


def test_paley_validation():
    with pytest.raises(GraphError):
        paley(7)  # 7 = 3 (mod 4)
    with pytest.raises(Exception):
        paley(12)  # not a prime power
    with pytest.raises(GraphError):
        paley(81)  # exceeds the 64-vertex cap
