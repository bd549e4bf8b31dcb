"""Isomorph-free exhaustive generation and the named classification searches.

Generation is by canonical augmentation: a graph on k+1 vertices is accepted
exactly when its newest vertex lies in the canonical-deletion orbit (the
eligible vertices of the first equitable-refinement cell containing one,
tie-broken by minimum canonical label), and neighbourhoods of a parent are
taken one per automorphism orbit.  Every isomorphism class is therefore
produced exactly once with no global seen-set, and pruning hooks (edge
budgets, final-min-degree lookahead, hereditary chain entries) never lose
survivors because ancestors inherit the pruned bounds.

One tree serves every order: ``_walk`` grows it once from K1 up to the
largest order asked for, counting and filtering each accepted graph of an
order in range and expanding each smaller one, so a named search up to
``max_order`` and a single-order enumeration are the same routine.  Children
take only admissible neighbourhoods (those holding every vertex the
min-degree lookahead forces, with a size inside the degree and edge bounds),
listed directly rather than filtered out of all 2^k vertex subsets.  Nor do
they take one that the acceptance degree test would reject: with d the least
degree of a deletable vertex of the parent, which stays deletable in the
child, a neighbourhood has at most d + 1 members, and at d + 1 it holds every
deletable vertex of degree d (``_neighborhoods`` gives the argument).  The
chain's leading hereditary entries (``planar``, ``two_k2_free``) prune, as
ancestors are induced subgraphs, and a ``planar`` among them brings Euler's
window: a child on k >= 3 vertices has at most 3k - 6 edges.

Acceptance is one rule over one mask of eligible vertices per node, the
deletable ones (removing one keeps the rest connected, when connectivity is
required), computed once per child from the parent's mask.  A deletable
vertex in an earlier refinement cell rejects (cells are ordered by degree
first, so one of smaller degree does, and refinement stops once one is there),
and only a deletable rival in the newest vertex's own cell calls for the
canonical-labelling orbit test, run from the refined cells, unless every
rival is a twin of the newest vertex: then swapping the two is an
automorphism, and every rival shares its orbit.  The child's expansion
reuses its generators, or without a search its cells.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Iterable, Iterator, Sequence

from .canon import canonical_form, canonical_search, coloured_label, orbit_closure, orbit_leaders, refine_partition, vertex_triples
from .ec import is_n_ec, is_n_line_ec
from .graph6 import Graph6Error, numbered_lines, parse_graph6
from .graphs import Graph, bits, has_induced_2k2, is_connected, _reach
from .planarity import is_planar

MAX_SEARCH_ORDER = 12

# named final checks, cheapest first; a graph is rejected by the first that fails
_Chain = list[tuple[str, Callable[[Graph], bool]]]


@dataclass(frozen=True)
class SearchConstraints:
    """Structural bounds plus a cheapest-first chain of named final filters."""

    max_edges: int | None = None
    final_min_degree: int | None = None
    require_connected: bool = True
    predicates: tuple[str, ...] = ()


@dataclass
class SearchReport:
    name: str
    max_order: int
    generated: int
    per_filter_rejected: dict[str, int]
    survivors: list[str]
    wall_ms: float
    errors: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "max_order": self.max_order,
            "counts": {
                "generated": self.generated,
                "per_filter_rejected": dict(self.per_filter_rejected),
            },
            "survivors": list(self.survivors),
            "wall_ms": round(self.wall_ms, 3),
        }
        if self.errors:
            out["errors"] = self.errors
        return out


# ---------------------------------------------------------------------------
# named final filters


def _pred_two_line_ec(g: Graph) -> bool:
    """``is_n_line_ec(g, 2).holds`` on a graph with at least two edges.

    A graph with an induced 2K2 (so with two edges) is refused without the
    split search.  Let e = ab and f = cd be disjoint edges with no edge
    between them.  The split A = {e, f}, B = {} needs an edge that meets
    both e and f, and such an edge would join {a, b} to {c, d}.  Only the
    verdict is read here, so it does not matter that this split need not be
    the first failing one."""
    return not has_induced_2k2(g.adj) and g.edge_count() >= 2 and is_n_line_ec(g, 2).holds


def _pred_two_ec(g: Graph) -> bool:
    """``is_n_ec(g, 2).holds``, refusing first a graph with a vertex degree
    outside 4..n-5.  Every open neighbourhood of a 2-e.c. graph has at least
    4 vertices (see ``NAMED_SEARCHES``), and the complement of a 2-e.c. graph
    is 2-e.c. (swap the sets to join and to avoid), so every vertex also has
    at least 4 non-neighbours.  Only the verdict is read here, so it does not
    matter which pair fails first."""
    degrees = g.degrees()
    return g.n >= 2 and 4 <= min(degrees) and max(degrees) <= g.n - 5 and is_n_ec(g, 2).holds


# the named final filters; ``edge_count=M`` is parsed apart
PREDICATES: dict[str, Callable[[Graph], bool]] = {
    "planar": is_planar,
    "two_k2_free": lambda g: not has_induced_2k2(g.adj),
    "two_line_ec": _pred_two_line_ec,
    "two_ec": _pred_two_ec,
    "connected": is_connected,
}
HEREDITARY = frozenset({"planar", "two_k2_free"})  # a graph failing one has no induced supergraph passing it


def predicate_functions(names: Sequence[str]) -> _Chain:
    out: _Chain = []
    for name in names:
        if name.startswith("edge_count=") and (m := name[len("edge_count="):]).isascii() and m.isdigit():
            out.append((name, lambda g, m=int(m): g.edge_count() == m))
        elif name in PREDICATES:
            out.append((name, PREDICATES[name]))
        else:
            raise ValueError(f"unknown predicate {name!r}")
    return out


def _structural_checks(cons: SearchConstraints) -> _Chain:
    """Chain entries for the bounds that generation enforces by construction,
    for graphs that arrive from outside the search."""
    out: _Chain = []
    if cons.require_connected:
        out.append(("connected", is_connected))
    if cons.max_edges is not None:
        out.append(("max_edges", lambda g: g.edge_count() <= cons.max_edges))
    if cons.final_min_degree:
        out.append(("min_degree", lambda g: min(g.degrees()) >= cons.final_min_degree))
    return out


def _survives(g: Graph, chain: _Chain, rejected: dict[str, int]) -> bool:
    """Run g through the chain; the first failing entry gets a rejection."""
    for name, fn in chain:
        if not fn(g):
            rejected[name] = rejected.get(name, 0) + 1
            return False
    return True


# ---------------------------------------------------------------------------
# canonical augmentation


def _deletable(rows: Sequence[int], connected: bool, known: int) -> int:
    """The deletable vertices of a graph: those whose removal keeps the rest
    connected, or every vertex when connectivity does not matter.  Vertices
    in ``known`` are taken as deletable untested."""
    k = len(rows)
    full = (1 << k) - 1
    deletable = full
    if connected and k > 1:
        for v in bits(full & ~known):
            rest = full & ~(1 << v)
            if _reach(rows, 0 if v else 1, rest) != rest:
                deletable &= ~(1 << v)
    return deletable


def _accepts(rows: list[int], deletable: int) -> tuple[bool, list[tuple[int, ...]] | None, list[int]]:
    """Canonical-deletion test for the newest vertex of a candidate child: it
    must lie in the first refinement cell holding a vertex of ``deletable``
    (the child's deletable vertices, the newest among them) and share an
    orbit with that cell's deletable vertex of least canonical label.
    A rival that is a twin of the newest vertex (their rows agree outside
    the two of them) needs no search: swapping the two fixes every other
    vertex and keeps the graph, so it lies in the newest vertex's orbit;
    when every rival is a twin, so does the least-labelled one.
    Returns the verdict, the automorphism generators if it computed them, and
    the refinement cells, refined to the end if the child is accepted."""
    k = len(rows)
    vn = k - 1
    # cells split in place: once a deletable vertex precedes vn's, vn loses
    cells = refine_partition(k, rows, [(1 << k) - 1], None, (vn, deletable))
    ci = next(i for i, c in enumerate(cells) if c >> vn & 1)
    # refinement orders cells by degree first, so this is also the degree
    # test: a deletable vertex of smaller degree lies in an earlier cell
    if any(c & deletable for c in cells[:ci]):
        return False, None, cells
    rivals = cells[ci] & deletable
    # no rival but vn, or only twins of vn: every rival shares vn's orbit
    if rivals == 1 << vn or all((rows[r] ^ rows[vn]) & ~(1 << r | 1 << vn) == 0 for r in bits(rivals)):
        return True, None, cells
    order, gens = canonical_search(k, rows, cells)
    chosen = next(v for v in order if rivals >> v & 1)
    return orbit_closure(1 << chosen, gens) >> vn & 1 == 1, gens, cells


def _neighborhoods(
    k: int, rows: Sequence[int], forced: int, lo: int, hi: int, gens: list | None = None, forced_at: tuple[int, int] = (0, 0),
    cells: list[int] | None = None,
) -> list[int]:
    """The neighbourhoods a new vertex may take: supersets of ``forced`` with
    ``lo..hi`` members, those with ``forced_at[0]`` members also holding
    every vertex of ``forced_at[1]``, ascending, keeping the least mask of
    each orbit of the automorphism group of ``rows`` (generated by ``gens``,
    or searched for from the refined unit partition ``cells``, when given).

    Orbits are closed over these masks only, which relies on both forced
    sets and the size window being unions of orbits: the walk defines them
    by degree and deletability, and automorphisms keep both and sizes.

    The walk takes ``forced_at`` from the degree test of ``_accepts``.  Let
    d be the least degree of a vertex deletable in the parent.  Such a vertex
    stays deletable in the child unless it is the new vertex's only
    neighbour, since the new vertex hangs on the rest of its neighbourhood
    N.  If |N| >= d + 2, a deletable vertex of degree d has degree at most
    d + 1 < |N| in the child, and if |N| = d + 1, one outside N has degree
    d < |N|; either rejects the child.  So the walk caps ``hi`` at d + 1 and
    forces every deletable vertex of degree d at d + 1 members exactly (not
    at a smaller capped ``hi``, where no vertex rejects by degree).
    """
    size, extra = forced_at
    masks = []
    for s in range(max(lo, forced.bit_count()), min(hi, k) + 1):
        must = forced | extra if s == size else forced
        free = [1 << v for v in range(k) if not must >> v & 1]
        if s >= must.bit_count():
            masks += (must | sum(c) for c in combinations(free, s - must.bit_count()))  # distinct bits: sum is union
    masks.sort()
    if gens is None:
        _, gens = canonical_search(k, rows, cells)  # no generators when refinement is discrete
    if not gens:
        return masks
    return [masks[i] for i in orbit_leaders(masks, gens)]


def _degree_cap(rows: Sequence[int], deletable: int) -> tuple[int, int]:
    """d + 1 for the least degree d of a vertex of ``deletable``, and those of
    degree d: the largest neighbourhood that the degree test of ``_accepts``
    can pass and the vertices it must hold at that size (see
    ``_neighborhoods``)."""
    d = min(rows[v].bit_count() for v in bits(deletable))
    return d + 1, sum(1 << v for v in bits(deletable) if rows[v].bit_count() == d)


def _walk(lo: int, hi: int, cons: SearchConstraints, counters: dict[str, int]) -> Iterator[Graph]:
    """Grow one canonical-augmentation tree from K1: every accepted graph on
    ``lo..hi`` vertices with the final min degree is counted and filtered,
    and every one on fewer than ``hi`` vertices that passes the chain's
    hereditary lead is expanded.  Yields the survivors depth first."""
    if not 1 <= lo <= hi <= MAX_SEARCH_ORDER:
        raise ValueError(f"order must be 1..{MAX_SEARCH_ORDER}, got {hi}")
    # the chain's leading hereditary entries test every node, charging counted ones
    chain = predicate_functions(cons.predicates)
    lead = next((i for i, (name, _) in enumerate(chain) if name not in HEREDITARY), len(chain))
    heredity, chain = chain[:lead], chain[lead:]
    euler = "planar" in cons.predicates[:lead]
    connected = cons.require_connected
    fmd = cons.final_min_degree or 0
    # min degree fmd needs more than fmd vertices (checked on counting) and
    # order * fmd / 2 edges, so the largest feasible order bounds the walk
    if cons.max_edges is not None and hi * fmd > 2 * cons.max_edges:
        hi = 2 * cons.max_edges // fmd if fmd else 0

    def grow(
        rows: list[int], m_now: int, gens: list[tuple[int, ...]] | None, cells: list[int] | None, deletable: int
    ) -> Iterator[Graph]:
        k = len(rows)
        counted = k >= lo and min(row.bit_count() for row in rows) >= fmd
        g = Graph._trusted(k, tuple(rows)) if counted or heredity else None  # grown from K1, so symmetric
        ok = _survives(g, heredity, counters if counted else {})
        if counted:
            counters["generated"] += 1
            if ok and _survives(g, chain, counters):
                yield g
        if k == hi or not ok:
            return
        need = fmd - (hi - k - 1)  # child min-degree lookahead: degrees grow <= 1 per addition
        forced = 0
        if need > 0:
            for v in range(k):
                d = rows[v].bit_count()
                if d + 1 < need:
                    return
                if d < need:
                    forced |= 1 << v
        max_sz = k
        if cons.max_edges is not None:
            # each vertex still needed to reach lo brings at least one edge
            max_sz = min(max_sz, cons.max_edges - m_now - (max(lo - k - 1, 0) if connected else 0))
        if euler and k >= 2:
            max_sz = min(max_sz, 3 * (k + 1) - 6 - m_now)
        top, least = _degree_cap(rows, deletable)
        for nb in _neighborhoods(k, rows, forced, max(need, 1 if connected else 0), min(max_sz, top), gens, (top, least), cells):
            child = [row | (nb >> v & 1) << k for v, row in enumerate(rows)] + [nb]
            # the new vertex is deletable, and so is each parent-deletable one
            # unless it is the new vertex's only neighbour
            known = (deletable & ~nb if nb.bit_count() == 1 else deletable) | 1 << k
            child_deletable = _deletable(child, connected, known)
            accepted, child_gens, child_cells = _accepts(child, child_deletable)
            if accepted:
                yield from grow(child, m_now + nb.bit_count(), child_gens, child_cells, child_deletable)

    if lo <= hi:
        yield from grow([0], 0, None, None, 1)


def new_counters(cons: SearchConstraints) -> dict[str, int]:
    return {"generated": 0} | dict.fromkeys(cons.predicates, 0)


def enumerate_connected(order: int, constraints: SearchConstraints | None = None) -> Iterator[Graph]:
    """Exactly one representative per isomorphism class of (by default
    connected) graphs on ``order`` vertices satisfying the constraints."""
    cons = constraints or SearchConstraints()
    yield from _walk(order, order, cons, new_counters(cons))


# ---------------------------------------------------------------------------
# named searches


# the classification searches by name; each walk covers every order up to its max
NAMED_SEARCHES: dict[str, SearchConstraints] = {
    # planar-led, so the walk caps a graph on k >= 3 vertices at 3k - 6 edges
    "planar_2lec": SearchConstraints(final_min_degree=3, predicates=("planar", "two_line_ec")),
    # a 2-e.c. graph has min degree >= 4: each open neighbourhood induces a
    # graph with no isolated and no universal vertex, impossible on <= 3
    # vertices, so every neighbourhood has at least 4 members
    "min_2ec": SearchConstraints(final_min_degree=4, predicates=("two_ec",)),
    "nine_edge_2lec": SearchConstraints(max_edges=9, final_min_degree=3, predicates=("edge_count=9", "two_line_ec")),
}


def run_named_search(name: str, max_order: int) -> SearchReport:
    """Run one of the classification searches and return its report."""
    norm = name.replace("-", "_")
    if norm not in NAMED_SEARCHES:
        raise ValueError(f"unknown named search {name!r}")
    if not 1 <= max_order <= MAX_SEARCH_ORDER:
        raise ValueError(f"max_order must be 1..{MAX_SEARCH_ORDER}, got {max_order}")
    t0 = time.perf_counter()
    cons = NAMED_SEARCHES[norm]
    counters = new_counters(cons)
    survivors = sorted(canonical_form(g) for g in _walk(1, max_order, cons, counters))
    generated = counters.pop("generated")
    wall_ms = (time.perf_counter() - t0) * 1000.0
    return SearchReport(norm, max_order, generated, counters, survivors, wall_ms)


# ---------------------------------------------------------------------------
# external stream filtering


def filter_stream(
    lines: Iterable[str],
    constraints: SearchConstraints | None = None,
    lenient: bool = False,
) -> SearchReport:
    """Filter externally generated graph6 lines through the constraint chain.

    Input is deduplicated before filtering, but lazily: a line is labelled
    only when its cheap invariant, its sorted ``canon.vertex_triples``,
    matches an earlier line's.  The first graph with an invariant is kept,
    parsed, until a second line shares the invariant; then both are labelled,
    the first at most once, by ``canon.coloured_label`` with their triples as
    vertex colours, and equal labels alone decide duplicates, so a collision
    of invariants (or of their hashes) costs a label, never a count.  Only
    survivors get a ``canonical_form``, for the report.  Memory grows with
    the number of distinct graphs.  Malformed lines raise (with their line
    number) unless ``lenient`` is set, in which case they are recorded in the
    report and processing continues.
    """
    cons = constraints or SearchConstraints()
    chain = _structural_checks(cons) + predicate_functions(cons.predicates)
    t0 = time.perf_counter()
    rejected: dict[str, int] = {}
    errors: list[dict] = []
    labels: set[tuple[int, ...]] = set()
    # invariant hash -> the one unlabelled graph with it, or None once every
    # graph with it has its label in ``labels``
    pending: dict[int, Graph | None] = {}
    survivors: list[str] = []
    generated = 0
    max_seen = 0
    for lineno, text in numbered_lines(lines):
        try:
            if not text:
                raise Graph6Error("blank line", 0)
            g = parse_graph6(text)
        except Graph6Error as exc:
            if not lenient:
                raise ValueError(f"line {lineno}: {exc}") from exc
            errors.append({"line": lineno, "message": str(exc)})
            continue
        generated += 1
        max_seen = max(max_seen, g.n)
        triples = vertex_triples(g)
        key = hash(tuple(sorted(triples)))
        if key not in pending:
            pending[key] = g
        else:
            first = pending[key]
            if first is not None:
                labels.add(coloured_label(first, vertex_triples(first)))
                pending[key] = None
            label = coloured_label(g, triples)
            if label in labels:
                rejected["duplicate"] = rejected.get("duplicate", 0) + 1
                continue
            labels.add(label)
        if _survives(g, chain, rejected):
            survivors.append(canonical_form(g))
    survivors.sort()
    wall_ms = (time.perf_counter() - t0) * 1000.0
    return SearchReport("filter", max_seen, generated, rejected, survivors, wall_ms, errors)
