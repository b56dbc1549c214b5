"""Exact triangle statistics: counts, covers, and distance to bipartiteness.

Triangle counting has two exact routes. The bit-row count charges each
triangle a<b<c to its edge {a,b}, counting the common neighbors above b
(no division, no double counting); it costs about one microsecond per
edge. The dense count is 6t = sum((B @ B) * B) over the 0/1 adjacency
matrix B, in float32 matmuls of TRIANGLE_BLOCK rows at a time; it costs
about 1.6e-11 s per n^3 on a 2-core Xeon. `triangle_count` takes the
dense route when n >= DENSE_TRIANGLE_N and m >= n^3 / 2^16, and bit rows
otherwise (small graphs, where numpy's per-call cost dominates, and
sparse ones). The dense count is exact: the entries of B @ B that count
(those off the diagonal) are integers <= n - 2 < 2^24, as is every
partial sum behind them, so float32 holds them in any summation order
and under any BLAS thread count; each block is summed in float64, and
the total 6t <= n^3 <= 2^36 < 2^53 (n <= MAX_VERTICES = 4096). A float32
matrix is read in place, and every block product goes into one buffer:
the caller's `triangle_workspace(n)` when it counts many graphs of one
order (the random probe), so that repeated counts allocate nothing, or
else one made per call.

The covering number tau3 is solved exactly by branch and bound on the
triangle hypergraph. The distance to bipartiteness is edges minus max
cut. `bipartite_distance` picks the cut from n alone: up to
EXACT_CUT_LIMIT vertices the exact max cut, where every bipartition is
evaluated as a sum of two half-cuts and a cross term, in numpy blocks of
one matmul each, and beyond it a local-search cut flagged not exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graph import (
    Graph,
    PartitionWitness,
    VertexMask,
    adjacency_matrix,
    bits,
    cut_stats,
    partition_witness,
)

TRIANGLE_BUDGET = 10**7
DENSE_TRIANGLE_N = 32
# Rows of B per dense block: at n = 4096 a block product is 8 MB next to the
# 64 MB float32 matrix, never a second or third n x n array.
TRIANGLE_BLOCK = 512
EXACT_CUT_LIMIT = 30
# Entries of the max-cut table per matmul (one high subset when 2^k is larger);
# larger blocks raise peak memory and gain little.
CUT_BLOCK = 1 << 12


def triangle_workspace(n: int) -> np.ndarray:
    """A reusable float32 buffer for the block products of
    `dense_triangle_count` on n-vertex graphs."""
    return np.empty((min(n, TRIANGLE_BLOCK), n), np.float32)


def dense_triangle_count(A: np.ndarray, walks: Optional[np.ndarray] = None) -> int:
    """Exact triangle count of a 0/1 adjacency matrix, by float32 matmuls in
    row blocks (see the module docstring for why float32 is exact). `walks`
    is a `triangle_workspace(n)` to write the block products into; its
    contents are overwritten."""
    B = A.astype(np.float32, copy=False)
    if walks is None:
        walks = triangle_workspace(len(B))
    total = 0
    for lo in range(0, len(B), TRIANGLE_BLOCK):
        block = B[lo:lo + TRIANGLE_BLOCK]
        w = np.matmul(block, B, out=walks[:len(block)])
        w *= block
        total += int(w.sum(dtype=np.float64))
    return total // 6


def triangle_count(g: Graph) -> int:
    if g.n >= DENSE_TRIANGLE_N and g.m << 16 >= g.n ** 3:
        return dense_triangle_count(adjacency_matrix(g, np.float32))
    return _triangle_count_bit_rows(g)


def _triangle_count_bit_rows(g: Graph) -> int:
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


def degree_triangle_floor(d: np.ndarray) -> int:
    """ceil((sum(d^2) - n*m) / 3), a lower bound on the triangle count of
    the graph with int64 degree vector d. The ends of an edge uv have at
    least d_u + d_v - n common neighbours, and summing over the edges
    counts each triangle three times and each d_u^2 once."""
    n, m = len(d), int(d.sum()) // 2
    return -((n * m - int(d @ d)) // 3)


@dataclass(frozen=True)
class BipartiteDistance:
    epsilon: int
    witness: PartitionWitness
    exact: bool  # False: local-search result, an upper bound on epsilon only


def _subsets(masks: np.ndarray, k: int) -> np.ndarray:
    """Subsets of k vertices as 0/1 rows; row i holds the bits of masks[i]."""
    return (masks[:, None] >> np.arange(k) & 1).astype(np.float64)


def _gray_rank(masks: np.ndarray, width: int) -> np.ndarray:
    """Inverse Gray code S ^ (S >> 1) ^ (S >> 2) ^ ... of width-bit masks:
    the step at which a Gray-code sweep over the masks reaches each one."""
    ranks = masks.copy()
    shift = 1
    while shift < width:
        ranks ^= ranks >> shift
        shift <<= 1
    return ranks


def max_cut_exact(g: Graph) -> tuple[int, VertexMask]:
    """Maximum cut over the 2^(n-1) bipartitions, vertex n-1 on the T side.

    Among the maximisers the side S with the smallest inverse-Gray rank
    S ^ (S >> 1) ^ (S >> 2) ^ ... is returned, the first one that a
    Gray-code sweep from S = 0 meets, so the empty graph gives (0, 0).

    The f = n-1 free vertices split into a low half L (the first
    k = ceil(f/2)) and a high half H. With d the degrees in g,
    cut(S) = sum_{i in S} d_i - 2e(S), so for S = S_L | S_H

        cut(S) = a[S_L] + b[S_H] - 2 x_L^T A_LH x_H,

    where a and b are the cuts of each half alone. The table over all 2^k
    low subsets and a block of high subsets is one matmul plus two
    broadcast adds. Every entry and every partial sum is an integer of
    magnitude at most 2n^2 < 2^53, so the float64 sums are exact in any
    order and under any BLAS thread count. The high subsets run in
    Gray-code order, so every rank in a block is below every rank in the
    blocks after it: a later block wins only with a strictly larger cut.
    Refuses n > EXACT_CUT_LIMIT.
    """
    n = g.n
    if n > EXACT_CUT_LIMIT:
        raise ValueError(f"exact max cut needs n <= {EXACT_CUT_LIMIT}, got n = {n}")
    if n <= 1:
        return 0, 0
    f = n - 1
    k = (f + 1) // 2
    A = adjacency_matrix(g)
    d = A.sum(axis=1)
    gray = np.arange(1 << (f - k))
    gray ^= gray >> 1
    low, high = _subsets(np.arange(1 << k), k), _subsets(gray, f - k)
    a = low @ d[:k] - ((low @ A[:k, :k]) * low).sum(axis=1)
    b = high @ d[k:f] - ((high @ A[k:f, k:f]) * high).sum(axis=1)
    cross = -2.0 * (low @ A[:k, k:f])
    cols = max(1, CUT_BLOCK >> k)
    best, best_mask = -1.0, 0
    for start in range(0, len(b), cols):
        table = cross @ high[start:start + cols].T
        table += a[:, None]
        table += b[start:start + cols]
        top = table.max()
        if top <= best:
            continue
        rows, col = np.nonzero(table == top)
        masks = rows | gray[start + col] << k
        best, best_mask = top, masks[_gray_rank(masks, f).argmin()]
    return int(best), int(best_mask)


def _local_search_cut(g: Graph) -> tuple[int, VertexMask]:
    """Single-flip hill climbing from 8 seeded starts; returns a cut lower bound."""
    n = g.n
    rng = random.Random(0)
    best, best_mask = -1, 0
    for trial in range(8):
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


def bipartite_distance(g: Graph) -> BipartiteDistance:
    """Minimum number of edge deletions leaving a bipartite graph, m - max cut.

    The one choice of cut, made from n alone: the exact max cut for
    n <= EXACT_CUT_LIMIT, else the local-search cut, flagged not exact (its
    epsilon is then an upper bound only)."""
    exact = g.n <= EXACT_CUT_LIMIT
    cut, mask = (max_cut_exact if exact else _local_search_cut)(g)
    return BipartiteDistance(g.m - cut, partition_witness(g, mask), exact)
