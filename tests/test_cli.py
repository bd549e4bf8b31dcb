import json
import tracemalloc

import pytest

from ecgraphs.canon import canonical_form
from ecgraphs.cli import main
from ecgraphs.constructions import paley
from ecgraphs.graph6 import parse_graph6, write_graph6
from ecgraphs.graphs import (
    cartesian_product,
    complete_bipartite,
    complete_graph,
    complete_multipartite,
    cycle_graph,
)
from ecgraphs.hypergraphs import crossing_hypergraph, format_hypergraph

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


def test_paley_bad_q_exits_two(capsys):
    code, _, err = run_cli(capsys, "paley", "--q", "7")
    assert code == 2 and "error" in err


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


def test_filter_lenient(capsys, tmp_path):
    stream = tmp_path / "in.g6"
    stream.write_text("C~\n\x01junk\n")
    code, out, _ = run_cli(capsys, "filter", str(stream), "--lenient")
    payload = json.loads(out)
    assert code == 0 and payload["errors"][0]["line"] == 2


def test_filter_strict_malformed_exits_two(capsys, tmp_path):
    stream = tmp_path / "in.g6"
    stream.write_text("C~\n\x01junk\n")
    code, _, err = run_cli(capsys, "filter", str(stream))
    assert code == 2 and "line 2" in err


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


def test_missing_file_exits_two(capsys):
    code, _, err = run_cli(capsys, "xi", "/nonexistent/path.g6")
    assert code == 2 and "cannot read" in err


def test_bad_graph6_input_exits_two(capsys, tmp_path):
    path = tmp_path / "bad.g6"
    path.write_text("\x01\x02\n")
    code, _, err = run_cli(capsys, "xi", str(path))
    assert code == 2


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(K33_LINE + "\n"))
    code, out, _ = run_cli(capsys, "line-xi", "-")
    assert code == 0 and json.loads(out) == {"value": 2}


def test_enumerate_with_predicates(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--order", "6", "--predicate", "edge_count=9", "--predicate", "two_line_ec"
    )
    assert code == 0
    assert out.strip() == canonical_form(complete_bipartite(3, 3))
