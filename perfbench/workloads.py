"""The three benchmark workloads: seeded inputs, timed passes and pinned outputs.

A workload is a fixed list of operations split into two stages.  One pass runs
every operation once; each operation calls the program through its module
attribute (so the traced run's wrappers see the call) and returns a plain
summary that is compared with the expected value after the timing stops.

Sizes: ``bench`` is what a timed run measures, scaled so one pass takes about
1-3 s on a 2-core machine and a 30 s run holds about ten passes or more;
``tiny`` is the smoke check's size.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Any, Callable

import pace
import streamgen

PINS = json.loads((Path(__file__).parent / "pins.json").read_text())
PALEY_ORDERS = (5, 9, 13, 17, 25, 29, 37, 41, 49, 53, 61)


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    expected: Any


@dataclass
class Workload:
    name: str
    stages: list[tuple[str, list[Op]]]
    items_per_pass: int
    aliases: dict[str, str]  # job-specific metric name -> the generic metric it is
    info: dict = field(default_factory=dict)


@dataclass
class PassResult:
    stage_s: list[float]  # raw time per stage
    scaled_s: list[float]  # time per stage scaled to the probe's nominal speed
    attempted: int
    failed: int
    errors: list[str]


def run_pass(wl: Workload, clock, probe=None) -> PassResult:
    """Run every operation once; time only the program calls.

    With a ``pace.Probe``, the machine speed is probed before the first
    operation and after each one, and each operation's time is also scaled by
    the speed measured on both sides of it.
    """
    stage_s: list[float] = []
    scaled_s: list[float] = []
    attempted = failed = 0
    errors: list[str] = []
    prev = probe() if probe else None
    for _, ops in wl.stages:
        spent = scaled = 0.0
        for op in ops:
            attempted += 1
            t0 = clock()
            try:
                got, raised = op.call(), None
            except Exception as exc:  # a raising operation is a counted failure
                got, raised = None, exc
            dt = clock() - t0
            spent += dt
            if probe:
                nxt = probe(dt)
                scaled += dt * pace.speed(prev, nxt)
                prev = nxt
            if raised is not None:
                failed += 1
                errors.append(f"{op.label}: raised {raised!r}")
            elif got != op.expected:
                failed += 1
                errors.append(f"{op.label}: got {got!r}, expected {op.expected!r}")
        stage_s.append(spent)
        scaled_s.append(scaled)
    return PassResult(stage_s, scaled_s, attempted, failed, errors)


# ---------------------------------------------------------------------------
# search9


def _search_summary(report) -> dict:
    return {
        "generated": report.generated,
        "rejected": dict(report.per_filter_rejected),
        "survivors": list(report.survivors),
    }


def search9(seed: int, size: str, outdir: Path) -> Workload:
    """The three named searches.  The seed changes nothing: the searches take
    no input, so every seed runs the same job."""
    from ecgraphs import search

    order = {"tiny": 6, "bench": 8}[size]

    def op(name: str) -> Op:
        return Op(
            f"{name}@{order}",
            lambda: _search_summary(search.run_named_search(name, order)),
            PINS["search"][f"{name}@{order}"],
        )

    names = ("planar_2lec", "min_2ec", "nine_edge_2lec")
    return Workload(
        "search9",
        [("planar", [op("planar_2lec")]), ("no_planar", [op("min_2ec"), op("nine_edge_2lec")])],
        sum(PINS["search"][f"{n}@{order}"]["generated"] for n in names),
        {"planar_2lec_s": "stage1_s", "min_2ec_s": "stage2_s", "graphs_per_s": "items_per_s"},
        {"max_order": order},
    )


# ---------------------------------------------------------------------------
# constructions


def _first_failure(adjacency: list[int], level: int) -> tuple | None:
    """Definitional closure search in the program's certificate order."""
    count = len(adjacency)
    full = (1 << count) - 1
    for subset in combinations(range(count), level):
        rest = full
        for s in subset:
            rest &= ~(1 << s)
        for a in range(1 << level):
            w = rest
            for t, s in enumerate(subset):
                w &= adjacency[s] if a >> t & 1 else ~adjacency[s]
            if not w:
                return subset, a
    return None


def _sample_hypergraph(rng: random.Random, k: int) -> tuple[int, list[int], dict]:
    """A random k-uniform hypergraph and its expected level-(k+1) verdict.

    No k-uniform hypergraph is (k+1)-line e.c., so the check fails and the
    certificate is the first failing split found by the definitional search.
    """
    n = 3 * k + 1
    m = rng.randint(2 * k + 4, 3 * k + 6)
    masks = set()
    while len(masks) < m:
        masks.add(sum(1 << v for v in rng.sample(range(n), k)))
    edges = sorted(masks)
    adjacency = [sum(1 << j for j, f in enumerate(edges) if j != i and e & f) for i, e in enumerate(edges)]
    items = [[v for v in range(n) if e >> v & 1] for e in edges]
    level = k + 1
    failure = _first_failure(adjacency, level)
    if failure is None:
        verdict = {"level": level, "holds": True, "certificate": None}
    else:
        subset, a = failure
        verdict = {
            "level": level,
            "holds": False,
            "certificate": {
                "A": [items[s] for t, s in enumerate(subset) if a >> t & 1],
                "B": [items[s] for t, s in enumerate(subset) if not a >> t & 1],
            },
        }
    return n, edges, verdict


def _relabelled(rng: random.Random, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.permuted(perm)


def constructions(seed: int, size: str, outdir: Path) -> Workload:
    """Closure decisions on constructed graphs and hypergraphs (check stage)
    and canonical-form identities on symmetric families (iso stage)."""
    from ecgraphs import canon, constructions as cons, ec, graphs, hypergraphs

    rng = random.Random(seed)
    crossing = {
        "tiny": [(5, 5, 3), (6, 6, 3), (5, 5, 4), (6, 6, 4)],
        "bench": [(7, 7, 3), (8, 8, 3), (9, 9, 3), (5, 5, 4), (6, 6, 4), (7, 7, 4)],
    }[size]
    samples = {"tiny": 3, "bench": 9}[size]
    qs = PALEY_ORDERS[:4] if size == "tiny" else PALEY_ORDERS
    line_n = {"tiny": (3, 4), "bench": (3, 4, 5)}[size]
    relabel = {
        "tiny": [("K8", graphs.complete_graph, (8,)), ("K4,4", graphs.complete_bipartite, (4, 4)),
                 ("E8", graphs.empty_graph, (8,)), ("Paley13", cons.paley, (13,)), ("C16", graphs.cycle_graph, (16,))],
        "bench": [("K12", graphs.complete_graph, (12,)), ("K8,8", graphs.complete_bipartite, (8, 8)),
                  ("E12", graphs.empty_graph, (12,)), ("Paley49", cons.paley, (49,)),
                  ("Paley61", cons.paley, (61,)), ("C64", graphs.cycle_graph, (64,))],
    }[size]
    k33 = graphs.complete_bipartite(3, 3)
    xi_line_inputs = {
        "cone(K3,3)": lambda: cons.cone(k33),
        "join_independent(K3,3,2)": lambda: cons.join_independent(k33, 2),
        "join(C5,C5)": lambda: cons.join(graphs.cycle_graph(5), graphs.cycle_graph(5)),
        "multipartite(3,3,3)": lambda: graphs.complete_multipartite([3, 3, 3]),
        "multipartite(2,2,2,2)": lambda: graphs.complete_multipartite([2, 2, 2, 2]),
    }

    check: list[Op] = []
    for x, y, k in crossing:
        check.append(Op(
            f"crossing({x},{y},{k}) level 2",
            lambda x=x, y=y, k=k: hypergraphs.is_n_line_ec_hyper(hypergraphs.crossing_hypergraph(x, y, k), 2).to_json(),
            PINS["crossing"][f"{x},{y},{k}"],
        ))
    for i in range(samples):
        k = 2 + i % 3
        n, edges, verdict = _sample_hypergraph(rng, k)
        h = hypergraphs.Hypergraph(n, tuple(edges))
        check.append(Op(
            f"sample {i} ({k}-uniform, {len(edges)} edges) level {k + 1}",
            lambda h=h, k=k: hypergraphs.is_n_line_ec_hyper(h, k + 1).to_json(),
            verdict,
        ))
    for q in qs:
        check.append(Op(f"xi(paley({q}))", lambda q=q: ec.xi(cons.paley(q)), PINS["paley_xi"][str(q)]))
    for label, make in xi_line_inputs.items():
        check.append(Op(f"xi_line({label})", lambda make=make: ec.xi_line(make()), PINS["xi_line"][label]))

    iso: list[Op] = []
    for n in line_n:
        iso.append(Op(
            f"L(K{n},{n}) = K{n} x K{n}",
            lambda n=n: canon.canonical_form(ec.line_graph(graphs.complete_bipartite(n, n))[0])
            == canon.canonical_form(graphs.cartesian_product(graphs.complete_graph(n), graphs.complete_graph(n))),
            True,
        ))
    for label, make, args in relabel:
        g = make(*args)
        h = _relabelled(rng, g)
        iso.append(Op(
            f"relabelled {label}",
            lambda g=g, h=h: canon.canonical_form(h) == canon.canonical_form(g),
            True,
        ))
    return Workload(
        "constructions",
        [("check", check), ("iso", iso)],
        len(check) + len(iso),
        {"check_s": "stage1_s", "iso_s": "stage2_s", "decisions_per_s": "items_per_s"},
        {"crossing": [list(c) for c in crossing], "samples": samples, "paley_orders": list(qs),
         "line_graph_n": list(line_n), "relabelled": [label for label, _, _ in relabel]},
    )


# ---------------------------------------------------------------------------
# filter-stream


def _filter_summary(argv: list[str]) -> dict:
    from ecgraphs import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    report = json.loads(buf.getvalue()) if rc == 0 else {}
    return {
        "rc": rc,
        "generated": report.get("counts", {}).get("generated"),
        "rejected": report.get("counts", {}).get("per_filter_rejected"),
        "survivors": report.get("survivors"),
    }


def filter_stream(seed: int, size: str, outdir: Path) -> Workload:
    """``ecgraphs filter`` in-process over a seeded graph6 file: the README's
    planar route, then the same stream without the planarity predicate."""
    counts = {"tiny": (120, 30, 35), "bench": (900, 200, 250)}[size]
    stream = streamgen.make_stream(seed, *counts)
    path = outdir / f"stream-{size}-{seed}.g6"
    path.write_text("\n".join(stream["lines"]) + "\n", encoding="ascii")
    lines = len(stream["lines"])

    def op(route: str, predicates: list[str]) -> Op:
        argv = ["filter", "--min-degree", "3"]
        for p in predicates:
            argv += ["--predicate", p]
        exp = stream["expected"][route]
        return Op(
            f"filter {route}",
            lambda: _filter_summary(argv + [str(path)]),
            {"rc": 0, "generated": exp["generated"], "rejected": exp["per_filter_rejected"],
             "survivors": PINS["catalog_forms"]},
        )

    return Workload(
        "filter-stream",
        [("planar", [op("planar", ["planar", "two_line_ec"])]), ("no_planar", [op("no_planar", ["two_line_ec"])])],
        2 * lines,
        {"lines_per_s": "items_per_s", "planar_route_s": "stage1_s", "no_planar_route_s": "stage2_s"},
        {"stream": path.name, "composition": stream["composition"]},
    )


WORKLOADS = {"search9": search9, "constructions": constructions, "filter-stream": filter_stream}
