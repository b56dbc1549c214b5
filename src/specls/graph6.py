"""graph6 serialization (the nauty interchange format).

Bit-exact per the de facto standard: the size header N(n), then the upper
adjacency triangle in column-major order packed into big-endian 6-bit
groups, each offset by 63. Long-form headers cover 63 <= n <= 258047;
this module caps n at MAX_VERTICES.

That triangle order is the edge-slot order of `graph`, so the body is the
graph's `slot_bits` vector regrouped six bits to a byte, and parsing
regroups the bytes back into bits for `from_slot_bits`, which validates
the graph like every other constructor.
"""

from __future__ import annotations

import numpy as np

from .graph import MAX_VERTICES, Graph, from_slot_bits, slot_bits

_SHIFTS = np.arange(5, -1, -1, dtype=np.uint8)  # a byte's 6 bits, most significant first


class Graph6Error(ValueError):
    """Malformed graph6 input; `offset` is the failing byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def emit_graph6(g: Graph) -> str:
    return emit_graph6_rows(g.n, slot_bits(g)[None])[0]


def emit_graph6_rows(n: int, bits: np.ndarray) -> list[str]:
    """The graph6 strings of the n-vertex graphs whose slot vectors are the
    rows of the 0/1 array `bits`, in one numpy step."""
    if n <= 62:
        head = [n + 63]
    else:
        head = [126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    padded = np.pad(bits, ((0, 0), (0, -bits.shape[1] % 6)))
    body = padded.reshape(len(bits), padded.shape[1] // 6, 6) @ (1 << _SHIFTS) + 63
    codes = np.hstack([np.tile(head, (len(bits), 1)), body]).astype(np.uint8)
    return [s.decode("ascii") for s in codes.view(f"S{codes.shape[1]}").ravel()]


def parse_graph6(text: str) -> Graph:
    data = text.strip("\n\r")
    points = np.frombuffer(data.encode("utf-32-le"), "<u4")  # one per character
    outside = (points < 63) | (points > 126)
    if outside.any():
        off = int(outside.argmax())
        c = int(points[off])
        what = f"byte {c}" if c < 128 else f"non-ASCII character {chr(c)!r}"
        raise Graph6Error(f"{what} outside graph6 range 63..126", off)
    raw = data.encode("ascii")
    codes = np.frombuffer(raw, np.uint8)
    if not raw:
        raise Graph6Error("empty input", 0)
    if raw[0] == 126:
        if len(raw) >= 2 and raw[1] == 126:
            raise Graph6Error("extended >18-bit size header unsupported", 1)
        if len(raw) < 4:
            raise Graph6Error("truncated long-form size header", len(raw))
        n = ((raw[1] - 63) << 12) | ((raw[2] - 63) << 6) | (raw[3] - 63)
        body_off = 4
    else:
        n = raw[0] - 63
        body_off = 1
    if n > MAX_VERTICES:
        raise Graph6Error(f"vertex count {n} exceeds cap {MAX_VERTICES}", 0)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    body = codes[body_off:] - 63
    if len(body) != need:
        raise Graph6Error(
            f"body has {len(body)} chars, expected {need} for n={n}",
            body_off + min(len(body), need),
        )
    bits = (body[:, None] >> _SHIFTS & 1).ravel()
    if bits[nbits:].any():  # only the last byte holds padding
        raise Graph6Error("padding bits must be zero", body_off + need - 1)
    return from_slot_bits(n, bits[:nbits])
