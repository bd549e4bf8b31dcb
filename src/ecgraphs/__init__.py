"""Existential closure of graphs, line graphs and hypergraph line graphs."""

from .canon import (
    automorphism_generators,
    automorphism_orbits,
    canonical_form,
    is_isomorphic,
)
from .constructions import cone, join, join_independent, paley
from .ec import EcVerdict, is_n_ec, is_n_line_ec, line_graph, xi, xi_line
from .fields import FieldError, FiniteField
from .graph6 import Graph6Error, parse_graph6, write_graph6
from .graphs import (
    Graph,
    GraphError,
    cartesian_product,
    complement,
    complete_bipartite,
    complete_graph,
    complete_multipartite,
    contains_induced,
    cycle_graph,
    diameter,
    empty_graph,
    is_connected,
    path_graph,
    standard_family,
)
from .hypergraphs import (
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
from .planarity import is_planar
from .search import (
    SearchConstraints,
    SearchReport,
    enumerate_connected,
    filter_stream,
    run_named_search,
)

__all__ = [
    "EcVerdict",
    "FieldError",
    "FiniteField",
    "Graph",
    "Graph6Error",
    "GraphError",
    "Hypergraph",
    "HypergraphError",
    "SearchConstraints",
    "SearchReport",
    "automorphism_generators",
    "automorphism_orbits",
    "canonical_form",
    "cartesian_product",
    "complement",
    "complete_bipartite",
    "complete_graph",
    "complete_multipartite",
    "cone",
    "contains_induced",
    "cross_join_hypergraphs",
    "crossing_hypergraph",
    "cycle_graph",
    "diameter",
    "empty_graph",
    "enumerate_connected",
    "filter_stream",
    "format_hypergraph",
    "is_connected",
    "is_isomorphic",
    "is_n_ec",
    "is_n_line_ec",
    "is_n_line_ec_hyper",
    "is_planar",
    "join",
    "join_independent",
    "line_graph",
    "line_graph_of_hypergraph",
    "parse_graph6",
    "parse_hypergraph",
    "paley",
    "path_graph",
    "run_named_search",
    "standard_family",
    "star_dual",
    "write_graph6",
    "xi",
    "xi_line",
]

__version__ = "0.1.0"
