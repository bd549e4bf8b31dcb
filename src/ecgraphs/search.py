"""Isomorph-free exhaustive generation and the named classification searches.

Generation is by canonical augmentation: a graph on k+1 vertices is accepted
exactly when its newest vertex lies in the canonical-deletion orbit (the
eligible vertices of the first equitable-refinement cell containing one,
tie-broken by minimum canonical label), and neighbourhoods of a parent are
taken one per automorphism orbit.  Every isomorphism class is therefore
produced exactly once with no global seen-set, and pruning hooks (edge
budgets, final-min-degree lookahead, intermediate planarity) never lose
survivors because ancestors inherit the pruned bounds.

One routine, ``_grow``, handles every node: a graph of the target order is
counted and run through the final chain, and a smaller one is expanded.  Its
children take only admissible neighbourhoods (those holding every vertex the
min-degree lookahead forces, with a size inside the degree and edge bounds),
listed directly rather than filtered out of all 2^k vertex subsets.

Acceptance is one rule with one per-vertex eligibility predicate (removing
the vertex keeps the rest connected, when connectivity is required), tested
lazily with early exit: an eligible vertex of smaller degree rejects before
any refinement, an eligible vertex in an earlier cell rejects after it, and
only an eligible rival in the newest vertex's own cell calls for the
canonical-labelling orbit test.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Iterable, Iterator, Sequence

from .canon import canonical_form, canonical_search, orbit_partition, refine_partition
from .ec import is_n_ec, is_n_line_ec
from .graph6 import Graph6Error, parse_graph6
from .graphs import Graph, bits, is_connected, _reach
from .planarity import is_planar, lr_planar_rows

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
    return g.edge_count() >= 2 and is_n_line_ec(g, 2).holds


def _pred_two_ec(g: Graph) -> bool:
    return g.n >= 2 and is_n_ec(g, 2).holds


def predicate_functions(names: Sequence[str]) -> _Chain:
    out: _Chain = []
    for name in names:
        if name.startswith("edge_count="):
            target = int(name.split("=", 1)[1])
            out.append((name, lambda g, m=target: g.edge_count() == m))
        elif name == "planar":
            out.append((name, is_planar))
        elif name == "two_line_ec":
            out.append((name, _pred_two_line_ec))
        elif name == "two_ec":
            out.append((name, _pred_two_ec))
        elif name == "connected":
            out.append((name, is_connected))
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


def _accepts(rows: list[int], connected: bool) -> bool:
    """Canonical-deletion test for the newest vertex of a candidate child: it
    must lie in the first refinement cell holding an eligible vertex and share
    an orbit with that cell's eligible vertex of least canonical label."""
    k = len(rows)
    vn = k - 1
    full = (1 << k) - 1

    def eligible(v: int) -> bool:
        # deletable: the other vertices stay connected when connectivity matters
        if not connected:
            return True
        rest = full & ~(1 << v)
        return _reach(rows, 0 if v else 1, rest) == rest

    # vn itself needs no test: removing it leaves the parent, which is connected.
    # Refinement orders cells by degree first, so an eligible vertex of smaller
    # degree rejects before any refinement.
    dnew = rows[vn].bit_count()
    if any(rows[v].bit_count() < dnew and eligible(v) for v in range(vn)):
        return False
    cells = refine_partition(k, rows, [full])
    ci = next(i for i, c in enumerate(cells) if c >> vn & 1)
    # earlier cells hold degrees <= dnew, and the smaller ones were tested above
    if any(rows[v].bit_count() == dnew and eligible(v) for c in cells[:ci] for v in bits(c)):
        return False
    rivals = [v for v in bits(cells[ci]) if v != vn and eligible(v)]
    if not rivals:
        return True
    perm, gens = canonical_search(k, rows)
    orb = orbit_partition(k, gens)
    chosen = min(rivals + [vn], key=perm.__getitem__)
    return orb[chosen] == orb[vn]


def _neighborhoods(k: int, rows: Sequence[int], forced: int, lo: int, hi: int) -> list[int]:
    """The neighbourhoods a new vertex may take: supersets of ``forced`` with
    ``lo..hi`` members, ascending, keeping the least mask of each orbit of
    the automorphism group of ``rows``.

    Orbits are closed over these masks only, which relies on ``forced`` and
    the size window being unions of orbits: ``forced`` is defined by degree,
    and automorphisms keep degrees and sizes.
    """
    free = [1 << v for v in range(k) if not forced >> v & 1]
    f = forced.bit_count()
    sizes = range(max(lo - f, 0), min(hi - f, len(free)) + 1)
    masks = sorted(forced | sum(c) for s in sizes for c in combinations(free, s))  # distinct bits: sum is union
    _, gens = canonical_search(k, rows)  # no generators when refinement is discrete
    if not gens:
        return masks
    maps = [[1 << g[v] for v in range(k)] for g in gens]
    reps: list[int] = []
    seen: set[int] = set()
    for mask in masks:
        if mask in seen:
            continue
        reps.append(mask)
        seen.add(mask)
        stack = [mask]
        while stack:
            cur = stack.pop()
            for mp in maps:
                img = 0
                mm = cur
                while mm:
                    low = mm & -mm
                    img |= mp[low.bit_length() - 1]
                    mm ^= low
                if img not in seen:
                    seen.add(img)
                    stack.append(img)
    return reps


def _grow(
    rows: list[int], m_now: int, target: int, cons: SearchConstraints, preds: _Chain, counters: dict[str, int]
) -> Iterator[Graph]:
    """Count and filter an accepted graph of ``target`` vertices, or expand
    one of fewer vertices towards ``target``, yielding survivors."""
    k = len(rows)
    if k == target:
        counters["generated"] += 1
        g = Graph(k, tuple(rows))
        if _survives(g, preds, counters):
            yield g
        return
    r = target - k - 1  # vertices still to add after the child
    connected = cons.require_connected
    fmd = cons.final_min_degree or 0

    need = fmd - r  # child min-degree lookahead: degrees grow <= 1 per addition
    forced = 0
    if need > 0:
        for v in range(k):
            d = rows[v].bit_count()
            if d + 1 < need:
                return
            if d < need:
                forced |= 1 << v
    min_sz = max(need, 1 if connected else 0)
    max_sz = k if cons.max_edges is None else min(k, cons.max_edges - m_now - (r if connected else 0))

    # a chain led by planar prunes intermediate graphs: ancestors are induced
    # subgraphs, so a nonplanar one has no planar descendant
    prune = r > 0 and cons.predicates[:1] == ("planar",)
    for nb in _neighborhoods(k, rows, forced, min_sz, max_sz):
        child = list(rows)
        for v in bits(nb):
            child[v] |= 1 << k
        child.append(nb)
        if not _accepts(child, connected):
            continue
        if prune and not lr_planar_rows(k + 1, child):
            continue
        yield from _grow(child, m_now + nb.bit_count(), target, cons, preds, counters)


def _enumerate_order(target: int, cons: SearchConstraints, counters: dict[str, int]) -> Iterator[Graph]:
    if not 1 <= target <= MAX_SEARCH_ORDER:
        raise ValueError(f"order must be 1..{MAX_SEARCH_ORDER}, got {target}")
    preds = predicate_functions(cons.predicates)
    fmd = cons.final_min_degree or 0
    # min degree fmd needs more than fmd vertices and target * fmd / 2 edges
    if fmd >= target or cons.max_edges is not None and target * fmd > 2 * cons.max_edges:
        return
    yield from _grow([0], 0, target, cons, preds, counters)


def new_counters(cons: SearchConstraints) -> dict[str, int]:
    counters = {"generated": 0}
    for name in cons.predicates:
        counters[name] = 0
    return counters


def enumerate_connected(order: int, constraints: SearchConstraints | None = None) -> Iterator[Graph]:
    """Exactly one representative per isomorphism class of (by default
    connected) graphs on ``order`` vertices satisfying the constraints."""
    cons = constraints or SearchConstraints()
    yield from _enumerate_order(order, cons, new_counters(cons))


# ---------------------------------------------------------------------------
# named searches


# the classification searches by name: each maps an order to its constraints
NAMED_SEARCHES: dict[str, Callable[[int], SearchConstraints]] = {
    "planar_2lec": lambda order: SearchConstraints(
        max_edges=3 * order - 6 if order >= 3 else None,
        final_min_degree=3,
        predicates=("planar", "two_line_ec"),
    ),
    # a 2-e.c. graph has min degree >= 4: each open neighbourhood induces a
    # graph with no isolated and no universal vertex, impossible on <= 3
    # vertices, so every neighbourhood has at least 4 members
    "min_2ec": lambda order: SearchConstraints(final_min_degree=4, predicates=("two_ec",)),
    "nine_edge_2lec": lambda order: SearchConstraints(
        max_edges=9,
        final_min_degree=3,
        predicates=("edge_count=9", "two_line_ec"),
    ),
}


def run_named_search(name: str, max_order: int) -> SearchReport:
    """Run one of the classification searches and return its report."""
    norm = name.replace("-", "_")
    if norm not in NAMED_SEARCHES:
        raise ValueError(f"unknown named search {name!r}")
    if not 1 <= max_order <= MAX_SEARCH_ORDER:
        raise ValueError(f"max_order must be 1..{MAX_SEARCH_ORDER}, got {max_order}")
    t0 = time.perf_counter()
    generated = 0
    rejected: dict[str, int] = {}
    survivors: list[str] = []
    for order in range(1, max_order + 1):
        cons = NAMED_SEARCHES[norm](order)
        counters = new_counters(cons)
        survivors.extend(canonical_form(g) for g in _enumerate_order(order, cons, counters))
        generated += counters.pop("generated")
        for key, val in counters.items():
            rejected[key] = rejected.get(key, 0) + val
    survivors.sort()
    wall_ms = (time.perf_counter() - t0) * 1000.0
    return SearchReport(norm, max_order, generated, rejected, survivors, wall_ms)


# ---------------------------------------------------------------------------
# external stream filtering


def filter_stream(
    lines: Iterable[str],
    constraints: SearchConstraints | None = None,
    lenient: bool = False,
) -> SearchReport:
    """Filter externally generated graph6 lines through the constraint chain.

    Input is deduplicated by canonical form before filtering.  Malformed lines
    raise (with their line number) unless ``lenient`` is set, in which case
    they are recorded in the report and processing continues.
    """
    cons = constraints or SearchConstraints()
    chain = _structural_checks(cons) + predicate_functions(cons.predicates)
    t0 = time.perf_counter()
    rejected: dict[str, int] = {}
    errors: list[dict] = []
    seen: set[str] = set()
    survivors: list[str] = []
    generated = 0
    max_seen = 0
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
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
        form = canonical_form(g)
        if form in seen:
            rejected["duplicate"] = rejected.get("duplicate", 0) + 1
            continue
        seen.add(form)
        if _survives(g, chain, rejected):
            survivors.append(form)
    survivors.sort()
    wall_ms = (time.perf_counter() - t0) * 1000.0
    return SearchReport("filter", max_seen, generated, rejected, survivors, wall_ms, errors)
