"""Immutable simple graphs over vertex labels 0..n-1 with bit-row adjacency.

Each adjacency row is a Python int used as a bit vector (bit j of row i is
set iff {i,j} is an edge), so neighborhood intersections, degree counts and
set operations are single popcount/AND operations on machine words.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

MAX_VERTICES = 4096

# A vertex set is a plain int bitmask (bit v set iff vertex v is in the set).
VertexMask = int


def mask_of(vertices: Iterable[int]) -> VertexMask:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: VertexMask) -> Iterator[int]:
    """Yield the set bit positions of a mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph; construct via build_graph()."""

    n: int
    rows: tuple[int, ...]
    m: int

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def neighbors(self, v: int) -> VertexMask:
        return self.rows[v]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def degrees(self) -> list[int]:
        return [r.bit_count() for r in self.rows]

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            high = self.rows[u] >> (u + 1)
            for off in bits(high):
                yield (u, u + 1 + off)

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


def _check_rows(n: int, rows: tuple[int, ...]) -> int:
    """Validate symmetry/loop-freeness and return the edge count."""
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside 0..{MAX_VERTICES}")
    if len(rows) != n:
        raise ValueError("row count does not match n")
    full = (1 << n) - 1
    total = 0
    for i, r in enumerate(rows):
        if r & ~full:
            raise ValueError(f"row {i} has bits >= n set")
        if r >> i & 1:
            raise ValueError(f"self-loop at vertex {i}")
        total += r.bit_count()
    if total % 2:
        raise ValueError("adjacency is not symmetric")
    for i, r in enumerate(rows):
        for j in bits(r >> (i + 1)):
            if not rows[i + 1 + j] >> i & 1:
                raise ValueError(f"asymmetric pair ({i},{i + 1 + j})")
    return total // 2


def from_rows(n: int, rows: Iterable[int]) -> Graph:
    """Build a Graph from raw adjacency rows, validating all invariants."""
    tup = tuple(rows)
    m = _check_rows(n, tup)
    return Graph(n, tup, m)


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph from an edge list; duplicates collapse, loops reject."""
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside 0..{MAX_VERTICES}")
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop ({u},{v}) rejected")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) has endpoint outside 0..{n - 1}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    m = sum(r.bit_count() for r in rows) // 2
    return Graph(n, tuple(rows), m)


def adjacency_matrix(g: Graph) -> np.ndarray:
    """Dense float64 adjacency matrix, unpacked from the bit rows at once."""
    width = (g.n + 7) // 8
    packed = np.frombuffer(b"".join(r.to_bytes(width, "little") for r in g.rows), np.uint8)
    return np.unpackbits(
        packed.reshape(g.n, width), axis=1, count=g.n, bitorder="little"
    ).astype(np.float64)


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


def delete_vertex(g: Graph, v: int) -> Graph:
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    return _compact(g, [u for u in range(g.n) if u != v])


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
    """Connected and complete bipartite: K_{a,b} with a, b >= 0, n >= 1."""
    if g.n == 0:
        return False
    w = is_bipartite(g)
    if w is None:
        return False
    return g.m == w.S.bit_count() * w.T.bit_count() and len(components(g)) == 1
