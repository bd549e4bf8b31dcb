import argparse
import io
import json
import tracemalloc

import pytest

from ecgraphs.canon import canonical_form
from ecgraphs.cli import build_parser, main
from ecgraphs.constructions import paley
from ecgraphs.graph6 import parse_graph6, write_graph6
from ecgraphs.graphs import (
    Graph,
    cartesian_product,
    complete_bipartite,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    path_graph,
)
from ecgraphs.hypergraphs import crossing_hypergraph, format_hypergraph
from ecgraphs.search import PREDICATES

from conftest import PLANAR_TWO_LINE_EC

K33_LINE = write_graph6(complete_bipartite(3, 3))


@pytest.fixture
def k33_file(tmp_path):
    path = tmp_path / "k33.g6"
    path.write_text(K33_LINE + "\n")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_line_two_holds(capsys, k33_file):
    code, out, _ = run_cli(capsys, "check", "--mode", "line", "--n", "2", k33_file)
    assert code == 0
    assert json.loads(out) == {"level": 2, "holds": True, "certificate": None}


def test_check_line_three_fails_with_exit_one(capsys, k33_file):
    code, out, _ = run_cli(capsys, "check", "--mode", "line", "--n", "3", k33_file)
    assert code == 1
    payload = json.loads(out)
    assert payload["holds"] is False and payload["certificate"] is not None


def test_check_vertex_mode(capsys, tmp_path):
    rook = cartesian_product(complete_graph(3), complete_graph(3))
    path = tmp_path / "rook.g6"
    path.write_text(write_graph6(rook) + "\n")
    code, out, _ = run_cli(capsys, "check", "--mode", "vertex", "--n", "2", str(path))
    assert code == 0 and json.loads(out)["holds"] is True


def test_check_hyper_mode(capsys, tmp_path):
    h = crossing_hypergraph(3, 3, 2)
    path = tmp_path / "h.txt"
    path.write_text(format_hypergraph(h))
    code, out, _ = run_cli(capsys, "check", "--mode", "hyper", "--n", "2", str(path))
    assert code == 0 and json.loads(out)["holds"] is True


def test_xi_and_line_xi(capsys, k33_file):
    code, out, _ = run_cli(capsys, "xi", k33_file)
    assert code == 0 and json.loads(out) == {"value": 1}
    code, out, _ = run_cli(capsys, "line-xi", k33_file)
    assert code == 0 and json.loads(out) == {"value": 2}


def test_linegraph(capsys, k33_file):
    code, out, _ = run_cli(capsys, "linegraph", k33_file)
    rook = cartesian_product(complete_graph(3), complete_graph(3))
    assert code == 0
    assert canonical_form(parse_graph6(out.strip())) == canonical_form(rook)


def test_construct_cone(capsys, k33_file):
    code, out, _ = run_cli(capsys, "construct", "cone", k33_file)
    g = parse_graph6(out.strip())
    assert code == 0 and g.n == 7 and g.edge_count() == 9 + 6


def test_construct_join(capsys, tmp_path):
    path = tmp_path / "two.g6"
    path.write_text(K33_LINE + "\n" + K33_LINE + "\n")
    code, out, _ = run_cli(capsys, "construct", "join", str(path))
    g = parse_graph6(out.strip())
    assert code == 0 and g.n == 12 and g.edge_count() == 9 + 9 + 36


def test_construct_join_indep(capsys, k33_file):
    code, out, _ = run_cli(capsys, "construct", "join-indep", "--s", "2", k33_file)
    g = parse_graph6(out.strip())
    assert code == 0 and g.n == 8 and g.edge_count() == 9 + 12


def test_construct_multipartite(capsys):
    code, out, _ = run_cli(capsys, "construct", "multipartite", "3", "3", "3")
    g = parse_graph6(out.strip())
    assert code == 0
    assert canonical_form(g) == canonical_form(complete_multipartite([3, 3, 3]))


def test_construct_family(capsys):
    code, out, _ = run_cli(capsys, "construct", "family", "cycle", "5")
    assert code == 0
    assert canonical_form(parse_graph6(out.strip())) == canonical_form(cycle_graph(5))


def test_paley(capsys):
    code, out, _ = run_cli(capsys, "paley", "--q", "9")
    assert code == 0
    assert canonical_form(parse_graph6(out.strip())) == canonical_form(paley(9))


# ``ecgraphs paley --q 49`` as the per-edge construction wrote it
PALEY_49_LINE = (
    r"p~~~}F`[XrbnB~`~skIf`iMLS[xS\{gN|JB~eSkIXRocybbcibfqDPvkhO^xdJB~eR"
    r"IUDKeS{HKfS[[eQiM^HcIbnXKhO^xcqd`~shcqd`Shcqf`iCq\PpihKdS[xVHcIbnd"
    r"KeSgN|IXKhW^}EdKeSkN@QeRI]DpSHcybbMIhKdS[wwjcqDPv`xRHdIB~`hRHdJB~"
)


def test_paley_49_line_is_pinned(capsys):
    code, out, _ = run_cli(capsys, "paley", "--q", "49")
    assert code == 0 and out == PALEY_49_LINE + "\n"


def test_paley_bad_q_exits_two(capsys):
    code, _, err = run_cli(capsys, "paley", "--q", "7")
    assert code == 2 and "error" in err


def test_paley_q_not_a_prime_power_exits_two(capsys):
    code, out, err = run_cli(capsys, "paley", "--q", "12")
    assert code == 2 and out == "" and "12 is not a prime power" in err


def test_hyper_crossing_and_star_dual(capsys, tmp_path, k33_file):
    code, out, _ = run_cli(capsys, "hyper", "crossing", "--x", "3", "--y", "3", "--k", "2")
    assert code == 0 and out.splitlines()[0] == "6 9"
    code, out, _ = run_cli(capsys, "hyper", "star-dual", k33_file)
    assert code == 0 and out.splitlines()[0] == "9 6"  # 9 edges, 6 stars


def test_hyper_cross_join(capsys, tmp_path):
    h = crossing_hypergraph(3, 3, 2)
    p1 = tmp_path / "h1.txt"
    p2 = tmp_path / "h2.txt"
    p1.write_text(format_hypergraph(h))
    p2.write_text(format_hypergraph(h))
    code, out, _ = run_cli(capsys, "hyper", "cross-join", "--k", "2", str(p1), str(p2))
    assert code == 0 and out.splitlines()[0].startswith("12 ")


def test_hyper_check_exit_codes(capsys, tmp_path):
    h = crossing_hypergraph(2, 2, 2)  # below the 2k-1 bound: not 2-line e.c.
    path = tmp_path / "h.txt"
    path.write_text(format_hypergraph(h))
    code, out, _ = run_cli(capsys, "hyper", "check", "--n", "2", str(path))
    assert code == 1 and json.loads(out)["holds"] is False


def _leaves(parser, path=()):
    """(command path, parser) for every subcommand that takes no subcommand."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, child in action.choices.items():
            yield from _leaves(child, path + (name,))


def test_every_leaf_subcommand_names_its_handler(capsys, tmp_path):
    leaves = dict(_leaves(build_parser()))
    assert len(leaves) == 18 and ("hyper", "check") in leaves
    for command, leaf in leaves.items():
        assert callable(leaf.get_default("run")), command
    # hyper check and check --mode hyper share one handler
    for x, expected in ((3, 0), (2, 1)):
        path = tmp_path / f"h{x}.txt"
        path.write_text(format_hypergraph(crossing_hypergraph(x, x, 2)))
        hyper = run_cli(capsys, "hyper", "check", "--n", "2", str(path))
        assert hyper[0] == expected
        assert run_cli(capsys, "check", "--mode", "hyper", "--n", "2", str(path)) == hyper


def test_planar(capsys, tmp_path):
    path = tmp_path / "k5.g6"
    path.write_text(write_graph6(complete_graph(5)) + "\n")
    code, out, _ = run_cli(capsys, "planar", str(path))
    assert code == 0 and json.loads(out) == {"planar": False}


def test_enumerate(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--order", "4", "--allow-disconnected")
    lines = out.strip().splitlines()
    assert code == 0 and len(lines) == 11
    assert len(set(lines)) == 11


def test_search_json(capsys):
    code, out, _ = run_cli(capsys, "search", "--name", "nine-edge-2lec", "--max-order", "9")
    assert code == 0
    payload = json.loads(out)
    assert payload["name"] == "nine_edge_2lec"
    assert payload["survivors"] == [canonical_form(complete_bipartite(3, 3))]
    assert "wall_ms" in payload and "counts" in payload


def test_search_lines_format(capsys):
    code, out, _ = run_cli(capsys, "search", "--name", "nine-edge-2lec", "--max-order", "6", "--format", "lines")
    assert code == 0
    assert out.strip() == canonical_form(complete_bipartite(3, 3))


def test_search_workers_is_a_no_op(capsys):
    # old scripts that pass --workers get the same report; only wall_ms differs
    payloads = []
    for extra in ((), ("--workers", "8")):
        code, out, _ = run_cli(capsys, "search", "--name", "planar-2lec", "--max-order", "7", *extra)
        assert code == 0
        payload = json.loads(out)
        del payload["wall_ms"]
        payloads.append(payload)
    assert payloads[0] == payloads[1]
    assert payloads[0]["survivors"] == sorted(canonical_form(g) for g in PLANAR_TWO_LINE_EC.values())
    with pytest.raises(SystemExit):
        main(["search", "--help"])
    assert "does nothing" in capsys.readouterr().out


def test_predicate_help_lists_the_predicate_table(capsys):
    # --predicate's help is built from search.PREDICATES, and every name in
    # the table is one --predicate accepts
    with pytest.raises(SystemExit):
        main(["filter", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    listed = help_text.split("cheapest first: ")[1].split(", edge_count=M")[0]
    assert listed.split(", ") == list(PREDICATES)
    for name in PREDICATES:
        assert run_cli(capsys, "enumerate", "--order", "4", "--predicate", name)[0] == 0, name
    assert run_cli(capsys, "enumerate", "--order", "4", "--predicate", "no_such_name")[0] == 2


def test_xi_and_line_xi_help_differ(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    lines = capsys.readouterr().out.splitlines()
    helps = [" ".join(line.split()[1:]) for line in lines if line.split()[:1] in (["xi"], ["line-xi"])]
    assert len(helps) == 2 and helps[0] != helps[1], helps


def test_filter(capsys, tmp_path):
    stream = tmp_path / "in.g6"
    stream.write_text("\n".join([K33_LINE, write_graph6(complete_graph(5))]) + "\n")
    code, out, _ = run_cli(
        capsys, "filter", str(stream), "--predicate", "planar", "--predicate", "two_line_ec"
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["counts"]["per_filter_rejected"]["planar"] == 2  # K33 and K5
    assert payload["survivors"] == []


def test_filter_two_k2_free(capsys, tmp_path):
    # 2K2, P5 and C6 hold an induced 2K2; P4, C5, K3,3 and K5 do not
    stream = tmp_path / "in.g6"
    graphs = [Graph.from_edges(4, [(0, 1), (2, 3)]), path_graph(5), cycle_graph(6),
              path_graph(4), cycle_graph(5), complete_bipartite(3, 3), complete_graph(5)]
    stream.write_text("".join(write_graph6(g) + "\n" for g in graphs))
    code, out, _ = run_cli(capsys, "filter", "--allow-disconnected", "--predicate", "two_k2_free", str(stream))
    payload = json.loads(out)
    assert code == 0 and payload["counts"]["per_filter_rejected"] == {"two_k2_free": 3}
    assert payload["survivors"] == sorted(canonical_form(g) for g in graphs[3:])


def test_consecutive_calls_share_no_arguments(capsys, tmp_path):
    # the parser is built once per process: each call's --predicate list is its own
    stream = tmp_path / "in.g6"
    stream.write_text("\n".join([K33_LINE, write_graph6(complete_graph(5)), write_graph6(cycle_graph(6))]) + "\n")
    reports = [
        json.loads(run_cli(capsys, "filter", *argv, str(stream))[1])["counts"]["per_filter_rejected"]
        for argv in (["--predicate", "planar"], ["--predicate", "two_line_ec"], [], ["--predicate", "planar"])
    ]
    assert reports == [{"planar": 2}, {"two_line_ec": 2}, {}, {"planar": 2}]
    assert build_parser() is build_parser()


def test_filter_streams_its_input(capsys, tmp_path):
    # peak memory must not grow with the number of input lines
    peaks = []
    for copies in (2_000, 20_000):
        stream = tmp_path / f"copies{copies}.g6"
        stream.write_text("@\n" * copies)
        tracemalloc.start()
        try:
            code, out, _ = run_cli(capsys, "filter", str(stream))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0 and json.loads(out)["counts"]["generated"] == copies
    assert peaks[1] - peaks[0] < 200_000, peaks


@pytest.mark.parametrize("command", [["xi"], ["construct", "join"]])
def test_single_graph_commands_stream_their_input(capsys, tmp_path, command):
    # a command that needs one or two graphs reads only those lines
    peaks = []
    for copies in (2_000, 20_000):
        stream = tmp_path / f"copies{copies}.g6"
        stream.write_text((K33_LINE + "\n") * copies)
        tracemalloc.start()
        try:
            code, _, _ = run_cli(capsys, *command, str(stream))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0
    assert peaks[1] - peaks[0] < 200_000, peaks


def test_graph_input_errors_name_the_line(capsys, tmp_path):
    # the same wording as filter's, whichever line holds the fault
    path = tmp_path / "in.g6"
    path.write_text(K33_LINE + "\nA\x0c_\n")
    code, out, err = run_cli(capsys, "construct", "join", str(path))
    assert code == 2 and out == "" and "line 2: byte 12 outside the printable range" in err
    path.write_text("A_\x0cBw\n")
    code, out, err = run_cli(capsys, "xi", str(path))
    assert code == 2 and out == "" and "line 1: byte 12 outside the printable range" in err
    assert run_cli(capsys, "filter", str(path)) == (code, out, err)
    path.write_text(K33_LINE + "\n%%\n\xa0\n")  # faults only after the line xi reads
    assert run_cli(capsys, "xi", str(path))[0] == 0


def test_lines_end_at_newline_only_on_both_routes(capsys, monkeypatch, tmp_path):
    # a lone carriage return does not end a line, through a path or stdin
    data = b"Bw\rBw\n"
    path = tmp_path / "in.g6"
    path.write_bytes(data)
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    for source in (str(path), "-"):
        code, out, _ = run_cli(capsys, "filter", "--lenient", source)
        assert code == 0 and json.loads(out)["errors"] == [
            {"line": 1, "message": "byte 13 outside the printable range 63..126 (byte offset 2)"}
        ]


def test_filter_lenient(capsys, tmp_path):
    stream = tmp_path / "in.g6"
    stream.write_text("C~\n\x01junk\n")
    code, out, _ = run_cli(capsys, "filter", str(stream), "--lenient")
    payload = json.loads(out)
    assert code == 0 and payload["errors"][0]["line"] == 2


def test_filter_lenient_lines_warns_on_stderr(capsys, tmp_path):
    # with no report printed, each error record goes to stderr as a warning
    stream = tmp_path / "in.g6"
    stream.write_bytes(b"C~\n\x01junk\nBw\n")
    code, out, err = run_cli(capsys, "filter", "--lenient", "--format", "lines", str(stream))
    assert code == 0 and out.split() == ["Bw", "C~"]
    assert err == "ecgraphs: warning: line 2: byte 1 outside the printable range 63..126 (byte offset 0)\n"


def test_filter_strict_malformed_exits_two(capsys, tmp_path):
    stream = tmp_path / "in.g6"
    stream.write_text("C~\n\x01junk\n")
    code, _, err = run_cli(capsys, "filter", str(stream))
    assert code == 2 and "line 2" in err


# a two-byte UTF-8 sequence, a byte that latin-1 reads as a line break
# (NEL), one it reads as trailing whitespace (NBSP), and 0xFF
NON_ASCII_STREAM = b"C~\n\xc3\xa9\nBw\nB\x85w\nBw\xa0\n\xff\n"


@pytest.fixture(params=["path", "stdin"])
def non_ascii_input(request, monkeypatch, tmp_path) -> str:
    """The same bytes through a path or through stdin (a byte stream that
    decodes as UTF-8 with escapes, as an interpreter's stdin does)."""
    if request.param == "path":
        path = tmp_path / "in.g6"
        path.write_bytes(NON_ASCII_STREAM)
        return str(path)
    stdin = io.TextIOWrapper(io.BytesIO(NON_ASCII_STREAM), encoding="utf-8", errors="surrogateescape")
    monkeypatch.setattr("sys.stdin", stdin)
    return "-"


def test_filter_reads_non_ascii_bytes_one_by_one(capsys, non_ascii_input):
    # each byte is its own character on both routes, and only newlines end a
    # line: 0xC3 0xA9 is two bytes, not one e-acute, and 0xFF is 255
    code, out, _ = run_cli(capsys, "filter", "--lenient", non_ascii_input)
    payload = json.loads(out)
    assert code == 0 and payload["counts"]["generated"] == 2
    message = "byte {} outside the printable range 63..126 (byte offset {})"
    assert payload["errors"] == [
        {"line": 2, "message": message.format(195, 0)},
        {"line": 4, "message": message.format(133, 1)},
        {"line": 5, "message": message.format(160, 2)},
        {"line": 6, "message": message.format(255, 0)},
    ]


def test_filter_strict_names_the_line_and_byte(capsys, non_ascii_input):
    code, out, err = run_cli(capsys, "filter", non_ascii_input)
    assert code == 2 and out == ""
    assert "line 2: byte 195 outside the printable range" in err


def test_graph_input_refuses_non_ascii_bytes(capsys, monkeypatch, tmp_path):
    data = K33_LINE.encode() + b"\xa0\n"
    path = tmp_path / "k33.g6"
    path.write_bytes(data)
    code, out, err = run_cli(capsys, "xi", str(path))
    assert code == 2 and out == "" and "line 1: byte 160 outside the printable range" in err
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape"))
    assert run_cli(capsys, "xi", "-") == (code, out, err)


def test_construct_refusals_exit_two(capsys, k33_file):
    # join needs two graph6 lines; --max-edges must be an integer
    code, _, err = run_cli(capsys, "construct", "join", k33_file)
    assert code == 2 and "expected 2 graph6 line(s), found 1" in err
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--order", "3", "--max-edges", "x"])
    assert exc.value.code == 2
    assert "invalid int value: 'x'" in capsys.readouterr().err


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["check", "--mode", "line"])  # missing --n
    assert exc.value.code == 2


def test_negative_bounds_exit_two(capsys, k33_file):
    for argv in (
        ["enumerate", "--order", "1", "--max-edges", "-1"],
        ["enumerate", "--order", "3", "--min-degree", "-2"],
        ["filter", "--max-edges=-1", k33_file],
        ["filter", "--min-degree", "-1", k33_file],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "must be >= 0" in captured.err
    code, out, _ = run_cli(capsys, "enumerate", "--order", "1", "--max-edges", "0")
    assert code == 0 and out == "@\n"


def test_hyper_bad_inputs_exit_two(capsys, monkeypatch, tmp_path):
    def refuse(*args):
        raise AssertionError("enumerated subsets")

    monkeypatch.setattr("ecgraphs.hypergraphs.combinations", refuse)
    code, out, err = run_cli(capsys, "hyper", "crossing", "--x", "32", "--y", "32", "--k", "5")
    assert code == 2 and out == "" and "7624512" in err  # C(64, 5)
    path = tmp_path / "repeat.txt"
    path.write_text("3 2\n0 0 1\n1 2\n")
    code, out, err = run_cli(capsys, "hyper", "check", "--n", "1", str(path))
    assert code == 2 and out == "" and "repeated" in err


def test_missing_file_exits_two(capsys):
    code, _, err = run_cli(capsys, "xi", "/nonexistent/path.g6")
    assert code == 2 and "cannot read" in err


def test_bad_graph6_input_exits_two(capsys, tmp_path):
    path = tmp_path / "bad.g6"
    path.write_text("\x01\x02\n")
    code, _, err = run_cli(capsys, "xi", str(path))
    assert code == 2


def test_reads_split_only_physical_lines(capsys, tmp_path):
    # a form feed ends no line: the graph6 line is refused whole, as filter
    # refuses it, and not read as K2 ("A_") with the rest dropped
    path = tmp_path / "ff.g6"
    path.write_bytes(b"A_\x0cBw\n")
    for command in ("xi", "filter"):
        code, out, err = run_cli(capsys, command, str(path))
        assert code == 2 and out == "" and "byte 12 outside the printable range" in err
    path.write_bytes(K33_LINE.encode() + b"\r\n")
    code, out, _ = run_cli(capsys, "xi", str(path))
    assert code == 0 and json.loads(out) == {"value": 1}
    # inside a hypergraph edge line it separates vertices, like a space
    path = tmp_path / "ff.txt"
    path.write_bytes(b"3 1\r\n0 1\x0c2\n")
    for argv in (("hyper", "check"), ("check", "--mode", "hyper")):
        code, out, _ = run_cli(capsys, *argv, "--n", "1", str(path))
        assert code == 1 and json.loads(out)["certificate"] == {"A": [], "B": [[0, 1, 2]]}


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(K33_LINE + "\n"))
    code, out, _ = run_cli(capsys, "line-xi", "-")
    assert code == 0 and json.loads(out) == {"value": 2}


def test_enumerate_with_predicates(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--order", "6", "--predicate", "edge_count=9", "--predicate", "two_line_ec"
    )
    assert code == 0
    assert out.strip() == canonical_form(complete_bipartite(3, 3))


def test_edge_count_predicate_takes_ascii_digits_only(capsys):
    for bad in ("edge_count=1_0", "edge_count=+10", "edge_count=\u0661\u0660", "edge_count=x", "edge_count=-3"):
        code, out, err = run_cli(capsys, "enumerate", "--order", "5", "--predicate", bad)
        assert code == 2 and out == "", bad
        assert err == f"ecgraphs: error: unknown predicate {bad!r}\n", bad
    code, out, _ = run_cli(capsys, "enumerate", "--order", "5", "--predicate", "edge_count=10")
    assert code == 0 and out.strip() == canonical_form(complete_graph(5))


def test_line_level_on_an_edgeless_input_says_it_has_no_edges(capsys, tmp_path):
    graph = tmp_path / "e2.g6"
    graph.write_text("A?\n")
    hyper = tmp_path / "h.txt"
    hyper.write_text("3 0\n")
    for argv, what in ((("check", "--mode", "line", graph), "graph"),
                       (("check", "--mode", "hyper", hyper), "hypergraph"),
                       (("hyper", "check", hyper), "hypergraph")):
        for n in ("1", "2"):
            code, out, err = run_cli(capsys, *argv[:-1], "--n", n, str(argv[-1]))
            assert code == 2 and out == "", argv
            assert err == f"ecgraphs: error: this {what} has no edges, so no line level applies\n", argv
