"""Command-line front end.

Exit codes: 0 on success, 1 when a ``check`` verdict is false, 2 on usage or
input errors.  Graphs travel as graph6 (one per line), hypergraphs in the
"n m" + edge-lines text format, reports as JSON (or plain survivor lines with
--format lines).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import Sequence

from .canon import canonical_form
from .constructions import cone, join, join_independent, paley
from .ec import is_n_ec, is_n_line_ec, line_graph, xi, xi_line
from .graph6 import parse_graph6, write_graph6
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
from .search import SearchConstraints, enumerate_connected, filter_stream, run_named_search


class CliError(Exception):
    """Input or usage problem; maps to exit status 2."""


def _open_text(path: str):
    if path == "-":
        return contextlib.nullcontext(sys.stdin)
    try:
        return open(path, "r", encoding="ascii")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _read_text(path: str) -> str:
    with _open_text(path) as fh:
        return fh.read()


def _read_graphs(path: str, count: int) -> list[Graph]:
    lines = [ln.strip() for ln in _read_text(path).splitlines() if ln.strip()]
    if len(lines) < count:
        raise CliError(f"expected {count} graph6 line(s), found {len(lines)}")
    try:
        return [parse_graph6(ln) for ln in lines[:count]]
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _read_graph(path: str) -> Graph:
    return _read_graphs(path, 1)[0]


def _read_hypergraph(path: str) -> Hypergraph:
    try:
        return parse_hypergraph(_read_text(path))
    except ValueError as exc:
        raise CliError(str(exc)) from exc


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
        help="final filter, cheapest first: planar, two_line_ec, two_ec, connected, edge_count=M",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ecgraphs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide the closure property at a level")
    p.add_argument("--mode", choices=("vertex", "line", "hyper"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("input", nargs="?", default="-")

    for name in ("xi", "line-xi"):
        p = sub.add_parser(name, help="largest holding closure level")
        p.add_argument("input", nargs="?", default="-")

    p = sub.add_parser("linegraph", help="emit the line graph as graph6")
    p.add_argument("input", nargs="?", default="-")

    p = sub.add_parser("construct", help="closure-preserving constructions")
    csub = p.add_subparsers(dest="construction", required=True)
    c = csub.add_parser("cone")
    c.add_argument("input", nargs="?", default="-")
    c = csub.add_parser("join")
    c.add_argument("input", nargs="?", default="-", help="file with two graph6 lines")
    c = csub.add_parser("join-indep")
    c.add_argument("--s", type=int, required=True)
    c.add_argument("input", nargs="?", default="-")
    c = csub.add_parser("multipartite")
    c.add_argument("parts", type=int, nargs="+")
    c = csub.add_parser("family")
    c.add_argument("name")
    c.add_argument("params", type=int, nargs="*")

    p = sub.add_parser("paley", help="Paley graph on GF(q)")
    p.add_argument("--q", type=int, required=True)

    p = sub.add_parser("hyper", help="hypergraph constructions and checks")
    hsub = p.add_subparsers(dest="hyper_command", required=True)
    h = hsub.add_parser("crossing")
    h.add_argument("--x", type=int, required=True)
    h.add_argument("--y", type=int, required=True)
    h.add_argument("--k", type=int, required=True)
    h = hsub.add_parser("star-dual")
    h.add_argument("input", nargs="?", default="-", help="graph6 input")
    h = hsub.add_parser("cross-join")
    h.add_argument("--k", type=int, required=True)
    h.add_argument("first")
    h.add_argument("second")
    h = hsub.add_parser("check")
    h.add_argument("--n", type=int, required=True)
    h.add_argument("input", nargs="?", default="-")

    p = sub.add_parser("planar", help="planarity decision")
    p.add_argument("input", nargs="?", default="-")

    p = sub.add_parser("enumerate", help="isomorph-free exhaustive generation")
    p.add_argument("--order", type=int, required=True)
    _add_constraint_flags(p)

    p = sub.add_parser("search", help="named classification searches")
    p.add_argument(
        "--name",
        required=True,
        choices=("planar-2lec", "min-2ec", "nine-edge-2lec"),
    )
    p.add_argument("--max-order", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--format", choices=("json", "lines"), default="json")

    p = sub.add_parser("filter", help="filter a graph6 stream through constraints")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--lenient", action="store_true")
    p.add_argument("--format", choices=("json", "lines"), default="json")
    _add_constraint_flags(p)

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


def _cmd_construct(args: argparse.Namespace) -> int:
    if args.construction == "cone":
        out = cone(_read_graph(args.input))
    elif args.construction == "join":
        g1, g2 = _read_graphs(args.input, 2)
        out = join(g1, g2)
    elif args.construction == "join-indep":
        out = join_independent(_read_graph(args.input), args.s)
    elif args.construction == "multipartite":
        out = complete_multipartite(args.parts)
    else:
        out = standard_family(args.name, args.params)
    print(write_graph6(out))
    return 0


def _cmd_hyper(args: argparse.Namespace) -> int:
    if args.hyper_command == "crossing":
        print(format_hypergraph(crossing_hypergraph(args.x, args.y, args.k)), end="")
    elif args.hyper_command == "star-dual":
        print(format_hypergraph(star_dual(_read_graph(args.input))), end="")
    elif args.hyper_command == "cross-join":
        h1 = _read_hypergraph(args.first)
        h2 = _read_hypergraph(args.second)
        print(format_hypergraph(cross_join_hypergraphs(h1, h2, args.k)), end="")
    else:
        h = _read_hypergraph(args.input)
        verdict = is_n_line_ec_hyper(h, args.n)
        _emit(verdict.to_json())
        return 0 if verdict.holds else 1
    return 0


def _report_out(report, fmt: str) -> None:
    if fmt == "json":
        _emit(report.to_json())
    else:
        for line in report.survivors:
            print(line)


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cmd = args.command

    if cmd == "check":
        return _cmd_check(args)
    if cmd == "xi":
        _emit({"value": xi(_read_graph(args.input))})
        return 0
    if cmd == "line-xi":
        _emit({"value": xi_line(_read_graph(args.input))})
        return 0
    if cmd == "linegraph":
        lg, _ = line_graph(_read_graph(args.input))
        print(write_graph6(lg))
        return 0
    if cmd == "construct":
        return _cmd_construct(args)
    if cmd == "paley":
        print(write_graph6(paley(args.q)))
        return 0
    if cmd == "hyper":
        return _cmd_hyper(args)
    if cmd == "planar":
        _emit({"planar": is_planar(_read_graph(args.input))})
        return 0
    if cmd == "enumerate":
        cons = _constraints_from_args(args)
        for g in enumerate_connected(args.order, cons):
            print(canonical_form(g))
        return 0
    if cmd == "search":
        report = run_named_search(args.name, args.max_order, workers=args.workers)
        _report_out(report, args.format)
        return 0
    if cmd == "filter":
        cons = _constraints_from_args(args)
        with _open_text(args.input) as fh:
            # one line at a time, split exactly as str.splitlines splits
            lines = (piece for raw in fh for piece in raw.splitlines())
            report = filter_stream(lines, cons, lenient=args.lenient)
        _report_out(report, args.format)
        return 0
    raise CliError(f"unknown command {cmd!r}")  # unreachable


def main(argv: Sequence[str] | None = None) -> int:
    try:
        return run(argv)
    except (CliError, ValueError) as exc:
        print(f"ecgraphs: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
