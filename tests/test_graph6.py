import random

import pytest

from specls.graph import build_graph, complete_graph, empty_graph, slot_ends
from specls.graph6 import Graph6Error, emit_graph6, parse_graph6


def random_graph(rng, n, p=0.5):
    return build_graph(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    )


def test_known_encodings():
    # K4 header 'F'? no: n=4 -> chr(67)='C', bits 111111 -> 63+63=126='~'
    assert emit_graph6(complete_graph(4)) == "C~"
    assert emit_graph6(empty_graph(1)) == "@"
    assert emit_graph6(empty_graph(5)) == "D??"  # 'D' + 10 zero bits in 2 chars


def test_round_trip_random():
    rng = random.Random(9)
    for _ in range(300):
        g = random_graph(rng, rng.randrange(0, 20))
        s = emit_graph6(g)
        h = parse_graph6(s)
        assert h == g
        assert emit_graph6(h) == s


def test_round_trip_long_header():
    rng = random.Random(10)
    g = random_graph(rng, 70, 0.1)
    s = emit_graph6(g)
    assert s.startswith("~")
    assert parse_graph6(s) == g


def test_parse_rejects_bad_bytes():
    with pytest.raises(Graph6Error) as ei:
        parse_graph6("C~!")
    assert ei.value.offset == 2
    with pytest.raises(Graph6Error) as ei:
        parse_graph6("C0~")  # '0' is below the graph6 byte range
    assert ei.value.offset == 1


def test_parse_rejects_bad_length():
    with pytest.raises(Graph6Error):
        parse_graph6("C~~")  # one char too many for n=4
    with pytest.raises(Graph6Error):
        parse_graph6("C")  # missing body


def test_parse_rejects_set_padding():
    # n=3 needs 3 bits; set a padding bit below them
    bad = chr(3 + 63) + chr(63 + 0b000001)
    with pytest.raises(Graph6Error) as ei:
        parse_graph6(bad)
    assert "padding" in str(ei.value)


def test_parse_strips_newline():
    assert parse_graph6("C~\n") == complete_graph(4)


def test_empty_input():
    with pytest.raises(Graph6Error):
        parse_graph6("")


def test_short_string_style():
    g = parse_graph6("D?{")
    assert g.n == 5
    assert emit_graph6(g) == "D?{"


def _body_bits(text, n):
    """The body of a graph6 string as bits, most significant first per byte."""
    body = text[1:] if n <= 62 else text[4:]
    return [(ord(c) - 63) >> s & 1 for c in body for s in range(5, -1, -1)]


@pytest.mark.parametrize("n", [2, 3, 7, 62, 63, 70])
def test_body_bit_s_is_slot_s(n):
    # the graph with one edge, on slot s, sets body bit s and no other
    i, j = slot_ends(n)
    assert list(zip(i.tolist(), j.tolist())) == [(a, b) for b in range(n) for a in range(b)]
    for s in sorted({0, min(1, len(i) - 1), len(i) // 2, len(i) - 1}):
        body = _body_bits(emit_graph6(build_graph(n, [(int(i[s]), int(j[s]))])), n)
        assert len(body) == 6 * -(-len(i) // 6)
        assert [k for k, b in enumerate(body) if b] == [s]


def test_padding_and_length_offsets():
    # n = 3: 3 bits and 3 padding bits in body byte 1
    for low in range(1, 8):
        with pytest.raises(Graph6Error, match="padding") as ei:
            parse_graph6("B" + chr(63 + low))
        assert ei.value.offset == 1
    # n = 70 (long header, 4 bytes): 2415 bits in 403 bytes, 3 padding bits
    g = build_graph(70, [(0, 69)])
    s = emit_graph6(g)
    assert len(s) == 4 + 403
    with pytest.raises(Graph6Error, match="padding") as ei:
        parse_graph6(s[:-1] + chr(63 + ((ord(s[-1]) - 63) | 1)))
    assert ei.value.offset == 406
    for text, offset in [("C~~", 2), ("C", 1), (s + "?", 407), (s[:-2], 405), (s[:4], 4)]:
        with pytest.raises(Graph6Error, match="body has") as ei:
            parse_graph6(text)
        assert ei.value.offset == offset


@pytest.mark.parametrize("text, offset", [
    ("B\x80", 1),           # would read as the edgeless 3-vertex graph if replaced by '?'
    ("é", 0),
    ("C~中", 2),
    ("~??\U0001F600", 3),
    ("Cÿ!", 1),        # the first offending character wins
    ("C!ÿ", 1),
    ("B\x80\n", 1),
])
def test_parse_rejects_non_ascii(text, offset):
    with pytest.raises(Graph6Error, match="outside graph6 range 63..126") as ei:
        parse_graph6(text)
    assert ei.value.offset == offset
