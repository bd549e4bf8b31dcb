import pytest

from ecgraphs.graph6 import Graph6Error, encode_graph6, parse_graph6, write_graph6
from ecgraphs.graphs import Graph, complete_graph, empty_graph

from conftest import all_labeled_graphs, random_graph


def test_k1_roundtrip():
    assert write_graph6(empty_graph(1)) == "@"
    g = parse_graph6("@")
    assert g.n == 1 and g.edge_count() == 0


def test_k2_example():
    # '_' is 95 -> 95-63 = 32 = 100000b: only the (0,1) bit set
    assert parse_graph6("A_").adj == complete_graph(2).adj
    assert write_graph6(complete_graph(2)) == "A_"


def test_k4_example():
    # 'C' = 67 -> n=4; '~' = 126 -> 63 = six ones
    g = parse_graph6("C~")
    assert g.n == 4 and g.edge_count() == 6


def test_column_major_bit_order():
    # bits run (0,1),(0,2),(1,2),(0,3),(1,3),(2,3); MSB first within a byte
    assert parse_graph6("C_").edges() == [(0, 1)]
    assert parse_graph6("C@").edges() == [(2, 3)]


def test_header_tolerated_never_emitted():
    g = parse_graph6(">>graph6<<C~")
    assert g.edge_count() == 6
    assert not write_graph6(g).startswith(">>")


def test_roundtrip_random(rng):
    for _ in range(1000):
        n = rng.randrange(1, 13)
        g = random_graph(rng, n, rng.choice([0.15, 0.4, 0.6, 0.9]))
        assert parse_graph6(write_graph6(g)).adj == g.adj


def test_padding_bits_are_ignored(rng):
    # the last body byte is padded to 6 bits; set padding bits change no row
    for n in range(2, 65):
        pad = -(n * (n - 1) // 2) % 6
        if not pad:
            continue
        g = random_graph(rng, n, rng.choice([0.1, 0.5, 0.9]))
        text = write_graph6(g)
        for fill in (1, (1 << pad) - 1):
            assert parse_graph6(text[:-1] + chr(ord(text[-1]) | fill)).adj == g.adj, (n, fill)


def test_roundtrip_exhaustive_small():
    for n in range(1, 7):
        for g in all_labeled_graphs(n):
            assert parse_graph6(write_graph6(g)).adj == g.adj


def test_long_size_form():
    for n in (63, 64):
        g = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
        text = write_graph6(g)
        assert text.startswith("~")
        back = parse_graph6(text)
        assert back.n == n and back.adj == g.adj


def _bitwise_graph6(n: int, adj) -> str:
    """Reference encoder: one body bit per pair in column-major order, six to
    a byte, high bit first, the last byte padded with zeros."""
    head = chr(63 + n) if n <= 62 else chr(126) + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
    body = [adj[i] >> j & 1 for j in range(1, n) for i in range(j)]
    body += [0] * (-len(body) % 6)
    return head + "".join(chr(63 + int("".join(map(str, body[t : t + 6])), 2)) for t in range(0, len(body), 6))


def test_encoder_matches_the_bitwise_reference(rng):
    # seeded random graphs of three densities for every n = 1..64 (the long
    # size form at 63 and 64), and K_n and E_n for each n
    for n in range(1, 65):
        graphs = [random_graph(rng, n, p) for p in (0.1, 0.5, 0.9)] + [complete_graph(n), empty_graph(n)]
        for g in graphs:
            text = encode_graph6(g.n, g.adj)
            assert text == _bitwise_graph6(g.n, g.adj), (n, g.adj)
            assert write_graph6(g) == text and parse_graph6(text) == g


def test_malformed_length_reports_offset():
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("C~~")  # one byte too many for n=4
    assert exc.value.offset == 2


def test_nonprintable_byte_reports_offset():
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("C\x07")
    assert exc.value.offset == 1


def test_vertex_limit_enforced():
    too_big = chr(126) + chr(63) + chr(63 + 1) + chr(63 + 1)  # n = 65
    with pytest.raises(Graph6Error):
        parse_graph6(too_big)
    with pytest.raises(Graph6Error):
        parse_graph6("?")  # n = 0 unsupported by the Graph type
    with pytest.raises(Graph6Error):
        parse_graph6("")


def test_long_size_field_refusals():
    with pytest.raises(Graph6Error, match="truncated long size field"):
        parse_graph6("~??")
    with pytest.raises(Graph6Error, match="beyond 18 bits") as exc:
        parse_graph6("~~??????")
    assert exc.value.offset == 1


def test_decoded_rows_equal_the_validated_graph(rng):
    # parse_graph6 builds its Graph without the constructor's re-check, so the
    # decoder itself must set both bits of every pair and nothing at or above n
    for n in range(1, 65):
        pad = -(n * (n - 1) // 2) % 6
        graphs = [random_graph(rng, n, p) for p in (0.1, 0.5, 0.9)] + [complete_graph(n)]
        for g in graphs:
            text = write_graph6(g)
            if n >= 63:
                assert text.startswith("~")
            texts = [text] + ([text[:-1] + chr(ord(text[-1]) | (1 << pad) - 1)] if pad else [])
            for t in texts:
                back = parse_graph6(t)
                assert back == Graph(back.n, back.adj) == Graph(g.n, g.adj), (n, t)


@pytest.mark.parametrize("text, message, offset", [
    ("", "empty graph6 string", 0),
    (">>graph6<<", "empty graph6 string", 10),
    ("C\x07", "byte 7 outside the printable range 63..126", 1),
    ("C\x7f", "byte 127 outside the printable range 63..126", 1),
    ("A_ _", "byte 32 outside the printable range 63..126", 2),
    ("~??", "truncated long size field", 3),
    ("~~??????", "graph6 sizes beyond 18 bits are not supported", 1),
    (">>graph6<<~~??????", "graph6 sizes beyond 18 bits are not supported", 11),
    ("?", "graphs need at least one vertex", 0),
    ("~?AA", "130 vertices exceeds the 64-vertex limit", 0),
    ("C", "expected 1 data bytes for n=4, got 0", 1),
    ("C~~", "expected 1 data bytes for n=4, got 2", 2),
    (">>graph6<<C~~", "expected 1 data bytes for n=4, got 2", 12),
    ("D~~~", "expected 2 data bytes for n=5, got 3", 3),
])
def test_malformed_lines_keep_their_message_and_offset(text, message, offset):
    with pytest.raises(Graph6Error) as exc:
        parse_graph6(text)
    assert str(exc.value) == f"{message} (byte offset {offset})"
    assert exc.value.offset == offset
