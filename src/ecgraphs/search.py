"""Isomorph-free exhaustive generation and the named classification searches.

Generation is by canonical augmentation: a graph on k+1 vertices is accepted
exactly when its newest vertex lies in the canonical-deletion orbit (the
eligible vertices of the first equitable-refinement cell containing one,
tie-broken by minimum canonical label), and neighbourhoods of a parent are
taken one per automorphism orbit.  Every isomorphism class is therefore
produced exactly once with no global seen-set, the tree splits into
independent subtrees for parallel runs, and pruning hooks (edge budgets,
final-min-degree lookahead, intermediate planarity) never lose survivors
because ancestors inherit the pruned bounds.

Acceptance is staged so the common case is cheap: a cheaper-degree eligible
vertex rejects immediately, a discrete refinement accepts without search, and
only ties fall through to the full canonical-labelling orbit test.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
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


def _non_cut_mask(rows: Sequence[int], k: int) -> int:
    """Vertices whose removal leaves the rest connected (k-1 >= 1 vertices)."""
    if k == 1:
        return 1
    full = (1 << k) - 1
    out = 0
    for v in range(k):
        allowed = full & ~(1 << v)
        start = 1 if v == 0 else 0
        if _reach(rows, start, allowed) == allowed:
            out |= 1 << v
    return out


def _accepts(rows: list[int], connected: bool) -> bool:
    """Canonical-deletion test for the newest vertex of a candidate child."""
    k = len(rows)
    if k == 1:
        return True
    vn = k - 1
    full = (1 << k) - 1
    dnew = rows[vn].bit_count()

    smaller = 0
    for v in range(vn):
        if rows[v].bit_count() < dnew:
            smaller |= 1 << v
    eligible = full if not connected else -1  # lazy when connectivity matters
    if smaller:
        if eligible < 0:
            eligible = _non_cut_mask(rows, k)
        if smaller & eligible:
            return False

    cells = refine_partition(k, rows, [full])
    ci = next(i for i, c in enumerate(cells) if c >> vn & 1)
    before = 0
    for c in cells[:ci]:
        before |= c
    before &= ~smaller
    if before:
        if eligible < 0:
            eligible = _non_cut_mask(rows, k)
        if before & eligible:
            return False
    if eligible < 0:
        if cells[ci] == 1 << vn:
            return True
        eligible = _non_cut_mask(rows, k)
    cstar = cells[ci] & eligible
    if cstar == 1 << vn:
        return True

    perm, gens, _ = canonical_search(k, rows)
    orb = orbit_partition(k, gens)
    chosen = min(bits(cstar), key=lambda v: perm[v])
    return orb[chosen] == orb[vn]


def _neighborhood_orbit_reps(k: int, rows: Sequence[int]) -> set[int] | None:
    """One representative neighbourhood per automorphism orbit, or None when
    the group is trivial and every subset is its own representative."""
    _, gens, _ = canonical_search(k, rows)  # no generators when refinement is discrete
    if not gens:
        return None
    maps = [[1 << g[v] for v in range(k)] for g in gens]
    reps: set[int] = set()
    seen = bytearray(1 << k)
    for mask in range(1 << k):
        if seen[mask]:
            continue
        reps.add(mask)
        seen[mask] = 1
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
                if not seen[img]:
                    seen[img] = 1
                    stack.append(img)
    return reps


def _grow(
    rows: list[int],
    m_now: int,
    target: int,
    cons: SearchConstraints,
    preds: _Chain,
    counters: dict[str, int],
    frontier_at: int | None = None,
) -> Iterator[Graph | tuple[tuple[int, ...], int]]:
    """Expand an accepted graph towards ``target`` vertices, yielding survivors.

    With ``frontier_at`` set, accepted graphs of that order are yielded as raw
    ``(rows, edge_count)`` work units instead of being expanded (parallel mode).
    """
    k = len(rows)
    child_order = k + 1
    r = target - child_order
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
    max_sz = k
    if cons.max_edges is not None:
        budget = cons.max_edges - m_now - (r if connected else 0)
        if budget < min_sz:
            return
        max_sz = min(max_sz, budget)

    reps = _neighborhood_orbit_reps(k, rows)
    final = child_order == target
    for nb in range(1 << k):
        if nb & forced != forced:
            continue
        sz = nb.bit_count()
        if sz < min_sz or sz > max_sz:
            continue
        if reps is not None and nb not in reps:
            continue
        child = list(rows)
        child.append(nb)
        mm = nb
        while mm:
            low = mm & -mm
            child[low.bit_length() - 1] |= 1 << k
            mm ^= low
        if final and fmd and any(row.bit_count() < fmd for row in child):
            continue
        if not _accepts(child, connected):
            continue
        if final:
            counters["generated"] += 1
            g = Graph(child_order, tuple(child))
            if _survives(g, preds, counters):
                yield g
        else:
            # a chain led by planar prunes: ancestors are induced subgraphs,
            # so a nonplanar one has no planar descendant
            if cons.predicates[:1] == ("planar",) and not lr_planar_rows(child_order, child):
                continue
            if frontier_at is not None and child_order == frontier_at:
                yield tuple(child), m_now + sz
            else:
                yield from _grow(child, m_now + sz, target, cons, preds, counters, frontier_at)


def _enumerate_order(
    target: int,
    cons: SearchConstraints,
    counters: dict[str, int],
    frontier_at: int | None = None,
) -> Iterator[Graph | tuple[tuple[int, ...], int]]:
    if not 1 <= target <= MAX_SEARCH_ORDER:
        raise ValueError(f"order must be 1..{MAX_SEARCH_ORDER}, got {target}")
    preds = predicate_functions(cons.predicates)
    fmd = cons.final_min_degree or 0
    # min degree fmd forces target * fmd / 2 edges, so nothing fits a smaller budget
    if cons.max_edges is not None and target * fmd > 2 * cons.max_edges:
        return
    if target > 1:
        yield from _grow([0], 0, target, cons, preds, counters, frontier_at)
    elif fmd <= 0:
        counters["generated"] += 1
        g = Graph(1, (0,))
        if _survives(g, preds, counters):
            yield g


def new_counters(cons: SearchConstraints) -> dict[str, int]:
    counters = {"generated": 0}
    for name in cons.predicates:
        counters[name] = 0
    return counters


def enumerate_connected(order: int, constraints: SearchConstraints | None = None) -> Iterator[Graph]:
    """Exactly one representative per isomorphism class of (by default
    connected) graphs on ``order`` vertices satisfying the constraints."""
    cons = constraints or SearchConstraints()
    yield from _enumerate_order(order, cons, new_counters(cons))  # type: ignore[misc]


# ---------------------------------------------------------------------------
# named searches


_NAMED = {"planar_2lec", "min_2ec", "nine_edge_2lec"}


def _constraints_for(name: str, order: int) -> SearchConstraints:
    if name == "planar_2lec":
        max_edges = 3 * order - 6 if order >= 3 else None
        return SearchConstraints(
            max_edges=max_edges,
            final_min_degree=3,
            predicates=("planar", "two_line_ec"),
        )
    if name == "min_2ec":
        # a 2-e.c. graph has min degree >= 4: each open neighbourhood induces a
        # graph with no isolated and no universal vertex, impossible on <= 3
        # vertices, so every neighbourhood has at least 4 members
        return SearchConstraints(final_min_degree=4, predicates=("two_ec",))
    if name == "nine_edge_2lec":
        return SearchConstraints(
            max_edges=9,
            final_min_degree=3,
            predicates=("edge_count=9", "two_line_ec"),
        )
    raise ValueError(f"unknown named search {name!r}")


def _expand_unit(args: tuple) -> tuple[dict[str, int], list[str]]:
    rows, m_now, target, cons = args
    counters = new_counters(cons)
    preds = predicate_functions(cons.predicates)
    survivors = [canonical_form(g) for g in _grow(list(rows), m_now, target, cons, preds, counters)]
    return counters, survivors


def _search_one_order(target: int, cons: SearchConstraints, workers: int) -> tuple[dict[str, int], list[str]]:
    """Counters and canonical survivors of one order.  With several workers
    and a deep enough target, the tree is cut at a fixed frontier and the
    subtrees below it become work units for a process pool."""
    counters = new_counters(cons)
    frontier_at = None
    if workers > 1 and target > 6:
        frontier_at = 6 if target <= 9 else 7
    survivors: list[str] = []
    jobs = []
    for item in _enumerate_order(target, cons, counters, frontier_at):
        if isinstance(item, Graph):
            survivors.append(canonical_form(item))
        else:
            jobs.append((*item, target, cons))
    if jobs:
        # a fork pool starts every worker at once, so never ask for more
        # workers than there are units or cores
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs), os.cpu_count() or 1)) as pool:
            for unit_counters, unit_survivors in pool.map(_expand_unit, jobs):
                for key, val in unit_counters.items():
                    counters[key] += val
                survivors.extend(unit_survivors)
    return counters, survivors


def run_named_search(name: str, max_order: int, workers: int = 1) -> SearchReport:
    """Run one of the classification searches and return its report."""
    norm = name.replace("-", "_")
    if norm not in _NAMED:
        raise ValueError(f"unknown named search {name!r}")
    if not 1 <= max_order <= MAX_SEARCH_ORDER:
        raise ValueError(f"max_order must be 1..{MAX_SEARCH_ORDER}, got {max_order}")
    t0 = time.perf_counter()
    generated = 0
    rejected: dict[str, int] = {}
    survivors: list[str] = []
    for order in range(1, max_order + 1):
        counters, found = _search_one_order(order, _constraints_for(norm, order), workers)
        generated += counters.pop("generated")
        for key, val in counters.items():
            rejected[key] = rejected.get(key, 0) + val
        survivors.extend(found)
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
