"""Command-line front end.

Exit codes: 0 on success, 1 when a ``check`` verdict is false, 2 on usage or
input errors.  Graphs travel as graph6 (one per line), hypergraphs in the
"n m" + edge-lines text format, reports as JSON (or plain survivor lines with
--format lines).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from typing import Sequence

from .canon import canonical_form
from .constructions import cone, join, join_independent, paley
from .ec import is_n_ec, is_n_line_ec, line_graph, xi, xi_line
from .graph6 import Graph6Error, numbered_lines, parse_graph6, write_graph6
from .graphs import Graph, complete_multipartite, standard_family
from .hypergraphs import (
    Hypergraph,
    cross_join_hypergraphs,
    crossing_hypergraph,
    format_hypergraph,
    is_n_line_ec_hyper,
    parse_hypergraph,
    star_dual,
)
from .planarity import is_planar
from .search import NAMED_SEARCHES, PREDICATES, SearchConstraints, enumerate_connected, filter_stream, run_named_search


def _open_text(path: str):
    """A path or stdin, decoded byte for byte (latin-1) and split at "\\n" only:
    both routes give the same lines, and the parsers name a bad byte by value."""
    if path == "-":
        if hasattr(sys.stdin, "reconfigure"):
            sys.stdin.reconfigure(encoding="latin-1", newline="\n")
        return contextlib.nullcontext(sys.stdin)
    try:
        return open(path, "r", encoding="latin-1", newline="\n")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def _read_graphs(path: str, count: int) -> list[Graph]:
    """The first ``count`` graph6 lines, blank lines skipped; reading stops there."""
    graphs = []
    with _open_text(path) as fh:
        for lineno, line in numbered_lines(fh):
            if not line:
                continue
            try:
                graphs.append(parse_graph6(line))
            except Graph6Error as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
            if len(graphs) == count:
                return graphs
    raise ValueError(f"expected {count} graph6 line(s), found {len(graphs)}")


def _read_graph(path: str) -> Graph:
    return _read_graphs(path, 1)[0]


def _read_hypergraph(path: str) -> Hypergraph:
    with _open_text(path) as fh:
        return parse_hypergraph(fh.read())  # the "n m" header counts every edge line


def _emit(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True))


def _constraints_from_args(args: argparse.Namespace) -> SearchConstraints:
    return SearchConstraints(
        max_edges=args.max_edges,
        final_min_degree=args.min_degree,
        require_connected=not args.allow_disconnected,
        predicates=tuple(args.predicate or ()),
    )


def _non_negative(text: str) -> int:
    """argparse type for a bound that cannot be negative."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_constraint_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--max-edges", type=_non_negative, default=None)
    sub.add_argument("--min-degree", type=_non_negative, default=None, dest="min_degree")
    sub.add_argument("--allow-disconnected", action="store_true")
    sub.add_argument(
        "--predicate",
        action="append",
        metavar="NAME",
        help=f"final filter, cheapest first: {', '.join(PREDICATES)}, edge_count=M",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process and shared, so no caller may
    change it; each leaf subcommand names its handler as ``run``, which
    returns the exit code (None for 0).  Handlers look up the program's
    functions when they run, so a caller that swaps a module attribute (a
    tracer, a test) sees its own function called.  No argument has a
    mutable default (``--predicate`` appends to a fresh list on each
    parse), so parses share nothing."""
    parser = argparse.ArgumentParser(prog="ecgraphs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide the closure property at a level")
    p.add_argument("--mode", choices=("vertex", "line", "hyper"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("input", nargs="?", default="-")
    p.set_defaults(run=_cmd_check)

    p = sub.add_parser("xi", help="largest holding closure level")
    p.add_argument("input", nargs="?", default="-")
    p.set_defaults(run=lambda a: _emit({"value": xi(_read_graph(a.input))}))
    p = sub.add_parser("line-xi", help="largest holding line (edge) closure level")
    p.add_argument("input", nargs="?", default="-")
    p.set_defaults(run=lambda a: _emit({"value": xi_line(_read_graph(a.input))}))

    p = sub.add_parser("linegraph", help="emit the line graph as graph6")
    p.add_argument("input", nargs="?", default="-")
    p.set_defaults(run=lambda a: print(write_graph6(line_graph(_read_graph(a.input))[0])))

    p = sub.add_parser("construct", help="closure-preserving constructions")
    csub = p.add_subparsers(dest="construction", required=True)
    c = csub.add_parser("cone")
    c.add_argument("input", nargs="?", default="-")
    c.set_defaults(run=lambda a: print(write_graph6(cone(_read_graph(a.input)))))
    c = csub.add_parser("join")
    c.add_argument("input", nargs="?", default="-", help="file with two graph6 lines")
    c.set_defaults(run=lambda a: print(write_graph6(join(*_read_graphs(a.input, 2)))))
    c = csub.add_parser("join-indep")
    c.add_argument("--s", type=int, required=True)
    c.add_argument("input", nargs="?", default="-")
    c.set_defaults(run=lambda a: print(write_graph6(join_independent(_read_graph(a.input), a.s))))
    c = csub.add_parser("multipartite")
    c.add_argument("parts", type=int, nargs="+")
    c.set_defaults(run=lambda a: print(write_graph6(complete_multipartite(a.parts))))
    c = csub.add_parser("family")
    c.add_argument("name")
    c.add_argument("params", type=int, nargs="*")
    c.set_defaults(run=lambda a: print(write_graph6(standard_family(a.name, a.params))))

    p = sub.add_parser("paley", help="Paley graph on GF(q)")
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(run=lambda a: print(write_graph6(paley(a.q))))

    p = sub.add_parser("hyper", help="hypergraph constructions and checks")
    hsub = p.add_subparsers(dest="hyper_command", required=True)
    h = hsub.add_parser("crossing")
    h.add_argument("--x", type=int, required=True)
    h.add_argument("--y", type=int, required=True)
    h.add_argument("--k", type=int, required=True)
    h.set_defaults(run=lambda a: print(format_hypergraph(crossing_hypergraph(a.x, a.y, a.k)), end=""))
    h = hsub.add_parser("star-dual")
    h.add_argument("input", nargs="?", default="-", help="graph6 input")
    h.set_defaults(run=lambda a: print(format_hypergraph(star_dual(_read_graph(a.input))), end=""))
    h = hsub.add_parser("cross-join")
    h.add_argument("--k", type=int, required=True)
    h.add_argument("first")
    h.add_argument("second")
    h.set_defaults(run=lambda a: print(format_hypergraph(
        cross_join_hypergraphs(_read_hypergraph(a.first), _read_hypergraph(a.second), a.k)), end=""))
    h = hsub.add_parser("check")
    h.set_defaults(run=_cmd_check, mode="hyper")  # the same handler as check --mode hyper
    h.add_argument("--n", type=int, required=True)
    h.add_argument("input", nargs="?", default="-")

    p = sub.add_parser("planar", help="planarity decision")
    p.add_argument("input", nargs="?", default="-")
    p.set_defaults(run=lambda a: _emit({"planar": is_planar(_read_graph(a.input))}))

    p = sub.add_parser("enumerate", help="isomorph-free exhaustive generation")
    p.add_argument("--order", type=int, required=True)
    _add_constraint_flags(p)
    p.set_defaults(run=_cmd_enumerate)

    p = sub.add_parser("search", help="named classification searches")
    p.add_argument("--name", required=True, choices=[n.replace("_", "-") for n in NAMED_SEARCHES])
    p.add_argument("--max-order", type=int, required=True)
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="does nothing; kept so old scripts run (every search runs in one process)",
    )
    p.add_argument("--format", choices=("json", "lines"), default="json")
    p.set_defaults(run=lambda a: _report_out(run_named_search(a.name, a.max_order), a.format))

    p = sub.add_parser("filter", help="filter a graph6 stream through constraints")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--lenient", action="store_true")
    p.add_argument("--format", choices=("json", "lines"), default="json")
    _add_constraint_flags(p)
    p.set_defaults(run=_cmd_filter)

    return parser


def _cmd_check(args: argparse.Namespace) -> int:
    if args.mode == "hyper":
        h = _read_hypergraph(args.input)
        verdict = is_n_line_ec_hyper(h, args.n)
    else:
        g = _read_graph(args.input)
        verdict = is_n_ec(g, args.n) if args.mode == "vertex" else is_n_line_ec(g, args.n)
    _emit(verdict.to_json())
    return 0 if verdict.holds else 1


def _cmd_enumerate(args: argparse.Namespace) -> None:
    for g in enumerate_connected(args.order, _constraints_from_args(args)):
        print(canonical_form(g))


def _cmd_filter(args: argparse.Namespace) -> None:
    cons = _constraints_from_args(args)
    with _open_text(args.input) as fh:
        report = filter_stream(fh, cons, lenient=args.lenient)  # one line at a time
    _report_out(report, args.format)


def _report_out(report, fmt: str) -> None:
    """The report as JSON, or its survivors one per line with each lenient
    error record written to stderr as a warning."""
    if fmt == "json":
        _emit(report.to_json())
        return
    for line in report.survivors:
        print(line)
    for err in report.errors:
        print(f"ecgraphs: warning: line {err['line']}: {err['message']}", file=sys.stderr)


def run(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.run(args) or 0


def main(argv: Sequence[str] | None = None) -> int:
    try:
        return run(argv)
    except ValueError as exc:  # every usage or input error
        print(f"ecgraphs: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
