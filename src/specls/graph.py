"""Immutable simple graphs over vertex labels 0..n-1 with bit-row adjacency.

Each adjacency row is a Python int used as a bit vector (bit j of row i is
set iff {i,j} is an edge), so neighborhood intersections, degree counts and
set operations are single popcount/AND operations on machine words.
The validating constructors `build_graph`, `from_rows` and `from_slot_bits`
end in `from_matrix`: numpy checks a 0/1 matrix for symmetry and a zero
diagonal and packs its rows into the ints.

This module also owns the order of the C(n,2) edge slots: slot
s = j(j-1)/2 + i joins i < j, so the slots run through the upper adjacency
triangle column by column. That is the bit order of a graph6 body and of
every edge-set mask in `search`; `slot_index`, `slot_pair`, `slot_ends`,
`_slot_mask`, `slot_bits` and `from_slot_bits` are the only code that
derives it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import chain, repeat
from math import isqrt
from typing import Iterable, Iterator, Optional

import numpy as np

MAX_VERTICES = 4096

# A vertex set is a plain int bitmask (bit v set iff vertex v is in the set).
VertexMask = int


def bits(mask: VertexMask) -> Iterator[int]:
    """Yield the set bit positions of a mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph; construct via build_graph() from
    an edge list, from_matrix() from a 0/1 adjacency matrix or from_rows()
    from bit rows, each of which validates its input."""

    n: int
    rows: tuple[int, ...]
    m: int

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def degrees(self) -> list[int]:
        return [r.bit_count() for r in self.rows]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Lazily yield every edge (u, v), u < v, in lexicographic order;
        each row's bits are found in numpy, one row at a time."""
        width = (self.n + 7) // 8
        for u, row in enumerate(self.rows):
            high = row >> (u + 1)
            if high:
                row_bits = np.unpackbits(
                    np.frombuffer(high.to_bytes(width, "little"), np.uint8), bitorder="little"
                )
                yield from zip(repeat(u), (np.flatnonzero(row_bits) + (u + 1)).tolist())

    def full_mask(self) -> VertexMask:
        return (1 << self.n) - 1

    def __repr__(self) -> str:  # keep reprs short; rows can be huge ints
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class PartitionWitness:
    """A bipartition (S, T) of the vertex set with its edge statistics."""

    S: VertexMask
    T: VertexMask
    eS: int
    eT: int
    eST: int


def _check_n(n: int) -> None:
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside 0..{MAX_VERTICES}")


def _unpack(n: int, rows: Iterable[int]) -> np.ndarray:
    """The n x n uint8 adjacency matrix of bit rows below 2^n."""
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(r.to_bytes(width, "little") for r in rows), np.uint8)
    return np.unpackbits(packed.reshape(n, width), axis=1, count=n, bitorder="little")


def from_matrix(A: np.ndarray) -> Graph:
    """Build a Graph from a square 0/1 adjacency matrix, validating that it
    is symmetric with a zero diagonal; rows are packed to bits in numpy."""
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"adjacency matrix of shape {A.shape} is not square")
    n = A.shape[0]
    _check_n(n)
    B = A.astype(np.uint8, copy=False)
    if B.max(initial=0) > 1 or (B is not A and (B != A).any()):
        i, j = np.argwhere((A != 0) & (A != 1))[0]
        raise ValueError(f"entry ({i},{j}) is not 0 or 1")
    if B.trace():
        raise ValueError(f"self-loop at vertex {np.flatnonzero(np.diagonal(B))[0]}")
    asym = B != B.T
    if asym.any():
        i, j = np.argwhere(asym)[0]  # the first pair has i < j
        raise ValueError(f"asymmetric pair ({i},{j})")
    packed = np.packbits(B, axis=1, bitorder="little")
    width = packed.shape[1]
    buf = packed.tobytes()
    rows = tuple(int.from_bytes(buf[i * width:(i + 1) * width], "little") for i in range(n))
    return Graph(n, rows, int(np.count_nonzero(B)) // 2)


def from_rows(n: int, rows: Iterable[int]) -> Graph:
    """Build a Graph from raw adjacency rows, validating all invariants."""
    _check_n(n)
    tup = tuple(rows)
    if len(tup) != n:
        raise ValueError("row count does not match n")
    for i, r in enumerate(tup):
        high = r >> n
        if high:
            j = n + (high & -high).bit_length() - 1
            raise ValueError(f"edge ({i},{j}) has endpoint outside 0..{n - 1}")
    return from_matrix(_unpack(n, tup))


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph from an edge list; duplicates collapse, loops reject.

    The edges are read as one flat run of endpoints, taken two at a time,
    so an odd total raises but items longer than pairs are not detected.
    Endpoints must be integers (`operator.index`); a float or a string
    raises TypeError rather than being truncated or parsed.
    """
    _check_n(n)
    try:
        ends = np.fromiter(map(operator.index, chain.from_iterable(edges)), np.int64)
    except OverflowError as exc:
        raise ValueError(f"edge endpoint outside 0..{n - 1}") from exc
    if len(ends) % 2:
        raise ValueError("edge list holds an endpoint without a partner")
    outside = ends.view(np.uint64) >= n  # a negative endpoint wraps to >= 2^63
    if outside.any():
        k = int(outside.argmax()) // 2
        raise ValueError(f"edge ({ends[2 * k]},{ends[2 * k + 1]}) has endpoint outside 0..{n - 1}")
    u, v = ends[0::2], ends[1::2]
    A = np.zeros((n, n), np.uint8)  # a loop lands on the diagonal, which from_matrix rejects
    A[u, v] = 1
    A[v, u] = 1
    return from_matrix(A)


def adjacency_matrix(g: Graph, dtype=np.float64) -> np.ndarray:
    """Dense adjacency matrix (float64 unless asked), unpacked from the bit
    rows at once."""
    return _unpack(g.n, g.rows).astype(dtype, copy=False)


def _slot_mask(n: int) -> np.ndarray:
    """n x n boolean mask of the entries (j, i), i < j, whose row-major
    order is the slot order. Built per call: a cache would pin O(n^2)
    bytes (16 MB at n = 4096)."""
    return np.tri(n, n, -1, dtype=bool)


def slot_index(i, j):
    """The slot j(j-1)/2 + i of the pair i < j; ints or int64 arrays."""
    return j * (j - 1) // 2 + i


def slot_pair(s: int) -> tuple[int, int]:
    """The ends (i, j), i < j, of slot s, the inverse of `slot_index`:
    j is the largest with j(j-1)/2 <= s."""
    j = (1 + isqrt(8 * s + 1)) // 2
    return s - j * (j - 1) // 2, j


def slot_ends(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint arrays (i, j), int64, of the C(n,2) edge slots in order:
    slot s = j(j-1)/2 + i joins i < j."""
    j = np.repeat(np.arange(n), np.arange(n))  # column j holds j slots
    return np.arange(len(j)) - slot_index(0, j), j


def slot_bits(g: Graph) -> np.ndarray:
    """The 0/1 uint8 vector of g's edge slots, in slot order."""
    return adjacency_matrix(g, np.uint8)[_slot_mask(g.n)]


def from_slot_bits(n: int, bits: np.ndarray) -> Graph:
    """Build the n-vertex Graph whose slot vector is `bits`, validated by
    `from_matrix` (every entry must be 0 or 1)."""
    _check_n(n)
    bits = np.asarray(bits)
    ns = n * (n - 1) // 2
    if bits.shape != (ns,):
        raise ValueError(f"slot vector of shape {bits.shape} for n={n}, expected {ns} bits")
    A = np.zeros((n, n), bits.dtype)
    A[_slot_mask(n)] = bits
    return from_matrix(A + A.T)


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << i) for i in range(n)), n * (n - 1) // 2)


def empty_graph(n: int) -> Graph:
    return Graph(n, (0,) * n, 0)


def _compact(g: Graph, keep: list[int]) -> Graph:
    """Induced subgraph on `keep`, relabeled 0..len(keep)-1 in order."""
    pos = {v: i for i, v in enumerate(keep)}
    rows = []
    for v in keep:
        r = 0
        for w in bits(g.rows[v]):
            if w in pos:
                r |= 1 << pos[w]
        rows.append(r)
    m = sum(r.bit_count() for r in rows) // 2
    return Graph(len(keep), tuple(rows), m)


def induced(g: Graph, S: VertexMask) -> Graph:
    if S & ~g.full_mask():
        raise ValueError("vertex set has bits outside 0..n-1")
    return _compact(g, list(bits(S)))


def complement(g: Graph) -> Graph:
    full = g.full_mask()
    rows = tuple((full ^ r) & ~(1 << i) for i, r in enumerate(g.rows))
    return Graph(g.n, rows, g.n * (g.n - 1) // 2 - g.m)


def add_edge(g: Graph, u: int, v: int) -> Graph:
    if u == v or not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError(f"bad edge ({u},{v})")
    if g.has_edge(u, v):
        return g
    rows = list(g.rows)
    rows[u] |= 1 << v
    rows[v] |= 1 << u
    return Graph(g.n, tuple(rows), g.m + 1)


def remove_edge(g: Graph, u: int, v: int) -> Graph:
    if not g.has_edge(u, v):
        return g
    rows = list(g.rows)
    rows[u] &= ~(1 << v)
    rows[v] &= ~(1 << u)
    return Graph(g.n, tuple(rows), g.m - 1)


def toggle_edge(g: Graph, u: int, v: int) -> Graph:
    return remove_edge(g, u, v) if g.has_edge(u, v) else add_edge(g, u, v)


def components(g: Graph) -> list[VertexMask]:
    """Connected components as vertex masks, ordered by lowest vertex."""
    out = []
    seen = 0
    full = g.full_mask()
    while seen != full:
        start = (~seen & full) & -(~seen & full)
        comp = start
        frontier = start
        while frontier:
            nxt = 0
            for v in bits(frontier):
                nxt |= g.rows[v]
            frontier = nxt & ~comp
            comp |= frontier
        out.append(comp)
        seen |= comp
    return out


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    return len(components(g)) == 1


def cut_stats(g: Graph, S: VertexMask) -> tuple[int, int, int]:
    """(eS, eT, eST) for the bipartition (S, V \\ S), by masked popcounts."""
    T = g.full_mask() & ~S
    eS = sum((g.rows[v] & S).bit_count() for v in bits(S)) // 2
    eT = sum((g.rows[v] & T).bit_count() for v in bits(T)) // 2
    return eS, eT, g.m - eS - eT


def partition_witness(g: Graph, S: VertexMask) -> PartitionWitness:
    if S & ~g.full_mask():
        raise ValueError("vertex set has bits outside 0..n-1")
    eS, eT, eST = cut_stats(g, S)
    return PartitionWitness(S, g.full_mask() & ~S, eS, eT, eST)


def is_bipartite(g: Graph) -> Optional[PartitionWitness]:
    """BFS 2-coloring; returns the witness split or None on an odd cycle."""
    color = [-1] * g.n
    S = 0
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        S |= 1 << start
        queue = [start]
        while queue:
            v = queue.pop()
            for w in bits(g.rows[v]):
                if color[w] == -1:
                    color[w] = color[v] ^ 1
                    if color[w] == 0:
                        S |= 1 << w
                    queue.append(w)
                elif color[w] == color[v]:
                    return None
    return partition_witness(g, S)


def is_complete_bipartite(g: Graph) -> bool:
    """Connected and complete bipartite: K_{a,b} with a, b >= 0, n >= 1.

    For n >= 2 this holds exactly when the rows take two values r and
    r ^ full with r != 0: a loop-free vertex lies outside its own row, so
    the vertices with row r are the set r ^ full and those with row
    r ^ full are r, and both sets are non-empty. O(n) row comparisons,
    no search.
    """
    if g.n <= 1:
        return g.n == 1
    r = g.rows[0]
    return r != 0 and set(g.rows) == {r, g.full_mask() ^ r}
