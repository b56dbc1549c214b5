"""Exact triangle statistics: counts, covers, and distance to bipartiteness.

Triangle counting uses the orientation convention that charges each
triangle a<b<c to its edge {a,b}, counting the common neighbors above b;
no division, no double counting. The covering number tau3 is solved
exactly by branch and bound on the triangle hypergraph, and the distance
to bipartiteness (edges minus max cut) by Gray-code enumeration of all
bipartitions up to the configured exact limit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .graph import Graph, PartitionWitness, VertexMask, bits, cut_stats, partition_witness

TRIANGLE_BUDGET = 10**7
EXACT_CUT_LIMIT = 30


def triangle_count(g: Graph) -> int:
    total = 0
    rows = g.rows
    for u in range(g.n):
        ru = rows[u]
        for off in bits(ru >> (u + 1)):
            v = u + 1 + off
            above_v = rows[v] >> (v + 1) << (v + 1)
            total += (ru & above_v).bit_count()
    return total


def triangle_list(g: Graph, budget: int = TRIANGLE_BUDGET) -> list[tuple[int, int, int]]:
    """All triangles as sorted vertex triples; errors past the budget."""
    out = []
    rows = g.rows
    for u in range(g.n):
        ru = rows[u]
        for off_v in bits(ru >> (u + 1)):
            v = u + 1 + off_v
            common = ru & rows[v]
            for off_w in bits(common >> (v + 1)):
                out.append((u, v, v + 1 + off_w))
                if len(out) > budget:
                    raise ValueError(f"triangle list exceeds budget {budget}")
    return out


def triangles_per_edge(g: Graph) -> dict[tuple[int, int], int]:
    """Map edge (u<v) -> number of triangles containing it."""
    out = {}
    for u, v in g.edges():
        out[(u, v)] = (g.rows[u] & g.rows[v]).bit_count()
    return out


@dataclass
class TriangleStats:
    t: int
    per_edge: Optional[dict[tuple[int, int], int]] = None
    tau3: Optional[int] = None
    cover_witness: Optional[VertexMask] = None


def triangle_stats(g: Graph, per_edge: bool = False, with_tau3: bool = False) -> TriangleStats:
    stats = TriangleStats(t=triangle_count(g))
    if per_edge:
        stats.per_edge = triangles_per_edge(g)
    if with_tau3:
        stats.tau3, stats.cover_witness = tau3(g)
    return stats


def _greedy_disjoint(tris: list[VertexMask]) -> int:
    """Size of a greedily grown set of pairwise disjoint vertex sets, smallest
    first; each set needs its own cover vertex, so a lower bound on the cover."""
    used = 0
    count = 0
    for t in sorted(tris, key=int.bit_count):
        if not t & used:
            used |= t
            count += 1
    return count


def tau3(g: Graph, budget: int = TRIANGLE_BUDGET) -> tuple[int, VertexMask]:
    """Exact minimum vertex set meeting every triangle, with one witness.

    Branch and bound on the uncovered triangles, each cut down to the
    vertices still allowed in the cover. Branch on a smallest one: its i-th
    vertex joins the cover and the vertices before it are barred from it, so
    no cover is reached twice. Prune with the greedy disjoint lower bound.
    """
    tris = [(1 << a) | (1 << b) | (1 << c) for a, b, c in triangle_list(g, budget)]
    if not tris:
        return 0, 0
    best_size = g.n + 1
    best_cover = 0

    def rec(tris: list[VertexMask], cover: VertexMask, size: int) -> None:
        nonlocal best_size, best_cover
        if not tris:
            best_size = size
            best_cover = cover
            return
        if size + _greedy_disjoint(tris) >= best_size:
            return
        barred = 0
        for v in bits(min(tris, key=int.bit_count)):
            bit = 1 << v
            rest = [t & ~barred for t in tris if not t & bit]
            if all(rest):  # an emptied triangle can no longer be covered
                rec(rest, cover | bit, size + 1)
            barred |= bit

    rec(tris, 0, 0)
    return best_size, best_cover


def degree_square_sum(g: Graph) -> int:
    return sum(d * d for d in g.degrees())


def partition_stats(g: Graph, S: VertexMask) -> PartitionWitness:
    return partition_witness(g, S)


@dataclass(frozen=True)
class BipartiteDistance:
    epsilon: int
    witness: PartitionWitness
    exact: bool  # False: local-search result, an upper bound on epsilon only


def max_cut_exact(g: Graph) -> tuple[int, VertexMask]:
    """Maximum cut by Gray-code sweep over the 2^(n-1) bipartitions.

    Vertex n-1 stays on the T side; each step flips the single vertex
    indexed by the trailing-zero count, updating the cut incrementally.
    """
    n = g.n
    if n <= 1:
        return 0, 0
    rows = g.rows
    degs = g.degrees()
    S = 0
    cut = 0
    best = 0
    best_mask = 0
    for i in range(1, 1 << (n - 1)):
        v = (i & -i).bit_length() - 1
        bit = 1 << v
        same = (rows[v] & S).bit_count()
        if S & bit:
            cut += 2 * same - degs[v]  # v leaves S
        else:
            cut += degs[v] - 2 * same  # v joins S
        S ^= bit
        if cut > best:
            best = cut
            best_mask = S
    return best, best_mask


def _local_search_cut(g: Graph, seeds: int = 8, rng_seed: int = 0) -> tuple[int, VertexMask]:
    """Multi-seed single-flip hill climbing; returns a cut lower bound."""
    n = g.n
    rng = random.Random(rng_seed)
    best, best_mask = -1, 0
    for trial in range(seeds):
        S = 0 if trial == 0 else rng.getrandbits(n) & ((1 << n) - 1)
        if trial == 1:
            S = sum(1 << v for v in range(0, n, 2))
        _, _, cut = cut_stats(g, S)
        improved = True
        while improved:
            improved = False
            for v in range(n):
                bit = 1 << v
                same_side = S if S & bit else (g.full_mask() & ~S)
                same = (g.rows[v] & same_side).bit_count()
                cross = g.degree(v) - same
                if same > cross:
                    S ^= bit
                    cut += same - cross
                    improved = True
        if cut > best:
            best, best_mask = cut, S
    return best, best_mask


def bipartite_distance(g: Graph, exact_limit: int = EXACT_CUT_LIMIT) -> BipartiteDistance:
    """Minimum number of edge deletions leaving a bipartite graph,
    i.e. m - maxcut; exact for n <= exact_limit, else a certified upper
    bound from local search (flagged)."""
    if g.n <= exact_limit:
        cut, mask = max_cut_exact(g)
        exact = True
    else:
        cut, mask = _local_search_cut(g)
        exact = False
    w = partition_witness(g, mask)
    return BipartiteDistance(g.m - cut, w, exact)
