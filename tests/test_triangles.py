import itertools
import random

import numpy as np
import pytest

from specls.families import t_n2q, turan, y_n2q
from specls.graph import (
    MAX_VERTICES,
    adjacency_matrix,
    build_graph,
    complete_graph,
    cut_stats,
    empty_graph,
    mask_of,
    partition_witness,
    remove_edge,
)
from specls.triangles import (
    DENSE_TRIANGLE_N,
    EXACT_CUT_LIMIT,
    _triangle_count_bit_rows,
    bipartite_distance,
    degree_square_sum,
    dense_triangle_count,
    max_cut_exact,
    tau3,
    triangle_count,
    triangle_list,
    triangle_workspace,
)


def random_graph(rng, n, p=0.5):
    return build_graph(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    )


def naive_triangles(g):
    return sum(
        1
        for a, b, c in itertools.combinations(range(g.n), 3)
        if g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
    )


def test_triangle_count_known():
    assert triangle_count(complete_graph(4)) == 4
    assert triangle_count(t_n2q(10, 3).graph) == 15
    from specls.families import kab_plus

    assert triangle_count(kab_plus(6, 4).graph) == 4


def test_triangle_count_vs_naive_bulk():
    # the spec-level property: agreement with the cubic loop on >= 10^4 graphs
    rng = random.Random(21)
    for _ in range(10_000):
        g = random_graph(rng, rng.randrange(0, 11), rng.choice([0.2, 0.5, 0.8]))
        assert triangle_count(g) == naive_triangles(g)


def test_dense_and_bit_row_counts_agree_around_the_cut_off():
    rng = random.Random(22)
    for n in range(DENSE_TRIANGLE_N - 8, DENSE_TRIANGLE_N + 9):
        for p in (0.0, 0.02, 0.3, 0.7, 1.0):
            g = random_graph(rng, n, p)
            bit_rows = _triangle_count_bit_rows(g)
            assert dense_triangle_count(adjacency_matrix(g)) == bit_rows, (n, p)
            assert dense_triangle_count(adjacency_matrix(g, np.uint8)) == bit_rows, (n, p)
            assert triangle_count(g) == bit_rows, (n, p)
    for n in (100, 513, 700):  # one, two and more row blocks
        g = random_graph(rng, n, 0.4)
        assert triangle_count(g) == dense_triangle_count(adjacency_matrix(g)) == _triangle_count_bit_rows(g)


def test_dense_count_reuses_one_workspace_per_order():
    # one workspace serves a sequence of graphs of one order, dense and
    # sparse, in float32 and float64; n = 600 has one full row block and one
    # short one, and a block product left over never leaks into the next count
    rng = random.Random(23)
    for n in (40, 300, 600):
        walks = triangle_workspace(n)
        for p in (0.9, 0.05, 0.5, 0.0, 1.0):
            g = random_graph(rng, n, p)
            expected = _triangle_count_bit_rows(g)
            for dtype in (np.float32, np.float64):
                A = adjacency_matrix(g, dtype)
                assert dense_triangle_count(A, walks) == dense_triangle_count(A) == expected, (n, p)


@pytest.mark.parametrize("n, q", [(1200, 1), (1200, 2), (2700, 1), (2700, 3), (MAX_VERTICES, 3)])
def test_dense_count_matches_the_family_formulas_at_theorem_sizes(n, q):
    builders = (t_n2q,) if n == MAX_VERTICES else (t_n2q, y_n2q)
    for builder in builders:
        c = builder(n, q)
        assert c.graph.m << 16 >= n**3  # the dense route
        assert triangle_count(c.graph) == c.predicted.t_expected == q * (n // 2)


def test_triangle_list_and_per_edge():
    g = complete_graph(4)
    tris = triangle_list(g)
    assert len(tris) == 4
    assert all(a < b < c for a, b, c in tris)
    per = {(u, v): (g.rows[u] & g.rows[v]).bit_count() for u, v in g.edges()}
    assert all(v == 2 for v in per.values()) and len(per) == 6
    # consistency: each triangle counted once per edge
    assert triangle_count(g) == 4 and tau3(g)[0] == 2
    assert sum(per.values()) == 3 * len(tris)


def test_triangle_budget():
    with pytest.raises(ValueError):
        triangle_list(complete_graph(30), budget=100)


def test_tau3_known():
    assert tau3(turan(8, 2).graph) == (0, 0)
    bowtie = build_graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    assert tau3(bowtie) == (1, 1 << 2)
    k4 = complete_graph(4)
    size, cover = tau3(k4)
    assert size == 2 and cover.bit_count() == 2
    # star construction: one cover vertex; matching construction: q vertices
    assert tau3(t_n2q(14, 5).graph)[0] == 1
    assert tau3(y_n2q(14, 3).graph)[0] == 3


def test_tau3_vs_bruteforce():
    rng = random.Random(22)
    for _ in range(300):
        g = random_graph(rng, rng.randrange(1, 9))
        tris = triangle_list(g)
        best = None
        for k in range(g.n + 1):
            for sub in itertools.combinations(range(g.n), k):
                s = mask_of(sub)
                if all((1 << a | 1 << b | 1 << c) & s for a, b, c in tris):
                    best = k
                    break
            if best is not None:
                break
        size, cover = tau3(g)
        assert size == best
        assert all((1 << a | 1 << b | 1 << c) & cover for a, b, c in tris)


def _tau3_reference(g):
    """The earlier branch and bound: branch on the three vertices of the first
    uncovered triangle, prune with a greedy disjoint-triangle packing."""
    tris = [(1 << a) | (1 << b) | (1 << c) for a, b, c in triangle_list(g)]
    best = g.n + 1 if tris else 0

    def packing(covered):
        used = count = 0
        for t in tris:
            if not t & (covered | used):
                used |= t
                count += 1
        return count

    def rec(covered, size):
        nonlocal best
        if size + packing(covered) >= best:
            return
        t = next((t for t in tris if not t & covered), 0)
        if not t:
            best = size
            return
        for v in range(g.n):
            if t >> v & 1:
                rec(covered | 1 << v, size + 1)

    if tris:
        rec(0, 0)
    return best


def test_tau3_matches_reference_branch_and_bound():
    rng = random.Random(25)
    for n in range(9, 15):
        for p in (0.3, 0.5, 0.7):
            g = random_graph(rng, n, p)
            size, cover = tau3(g)
            assert size == _tau3_reference(g)
            assert cover.bit_count() == size
            assert all((1 << a | 1 << b | 1 << c) & cover for a, b, c in triangle_list(g))


def test_tau3_cover_minimality_and_validity():
    rng = random.Random(23)
    for _ in range(100):
        g = random_graph(rng, rng.randrange(1, 9), 0.6)
        size, cover = tau3(g)
        assert cover.bit_count() == size
        assert (size == 0) == (triangle_count(g) == 0)


def _max_cut_sweep_reference(g):
    """The earlier pure-Python sweep: a Gray-code walk over the 2^(n-1)
    bipartitions with vertex n-1 on the T side, flipping one vertex per step
    and keeping the first bipartition that reaches the maximum."""
    n = g.n
    if n <= 1:
        return 0, 0
    rows = g.rows
    degs = g.degrees()
    S = cut = best = best_mask = 0
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


def test_max_cut_matches_sweep_reference():
    # odd and even n - 1, blocks of several high-half subsets (n <= 22) and
    # of one (n = 24); ties must resolve to the sweep's first maximiser
    rng = random.Random(29)
    for n in [*range(10, 23), 24]:
        for p in ((0.3, 0.5, 0.7) if n < 24 else (0.5,)):
            g = random_graph(rng, n, p)
            assert max_cut_exact(g) == _max_cut_sweep_reference(g), (n, p)
    for g in (empty_graph(12), complete_graph(11), turan(13, 2).graph, t_n2q(14, 3).graph):
        assert max_cut_exact(g) == _max_cut_sweep_reference(g)


def test_max_cut_exact_refuses_above_the_limit():
    with pytest.raises(ValueError, match=f"exact max cut needs n <= {EXACT_CUT_LIMIT}"):
        max_cut_exact(empty_graph(EXACT_CUT_LIMIT + 1))


def test_maxcut_vs_bruteforce():
    rng = random.Random(24)
    for _ in range(200):
        g = random_graph(rng, rng.randrange(1, 10))
        best = max(cut_stats(g, S)[2] for S in range(1 << g.n))
        cut, mask = max_cut_exact(g)
        assert cut == best
        assert cut_stats(g, mask)[2] == cut
        assert (cut, mask) == _max_cut_sweep_reference(g)


def test_bipartite_distance_known():
    c5 = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    d = bipartite_distance(c5)
    assert d.epsilon == 1 and d.exact
    assert d.witness.eS + d.witness.eT == 1
    assert bipartite_distance(turan(7, 2).graph).epsilon == 0
    assert bipartite_distance(complete_graph(4)).epsilon == 2
    assert bipartite_distance(complete_graph(5)).epsilon == 4
    assert bipartite_distance(empty_graph(0)).epsilon == 0


def test_bipartite_distance_iff_bipartite():
    from specls.graph import is_bipartite

    rng = random.Random(25)
    for _ in range(200):
        g = random_graph(rng, rng.randrange(1, 10))
        assert (bipartite_distance(g).epsilon == 0) == (is_bipartite(g) is not None)


def test_epsilon_monotone_under_deletion():
    rng = random.Random(26)
    for _ in range(100):
        g = random_graph(rng, rng.randrange(2, 10), 0.6)
        if g.m == 0:
            continue
        u, v = next(iter(g.edges()))
        e1 = bipartite_distance(g).epsilon
        e2 = bipartite_distance(remove_edge(g, u, v)).epsilon
        assert e2 >= e1 - 1


def test_heuristic_mode_flags_upper_bound():
    g = turan(40, 2).graph
    d = bipartite_distance(g, exact_limit=30)
    assert not d.exact
    assert d.epsilon >= 0  # upper bound only; for this graph it is exact anyway
    assert d.epsilon == 0


def test_degree_square_sum():
    assert degree_square_sum(complete_graph(4)) == 36
    star5 = build_graph(6, [(0, i) for i in range(1, 6)])
    assert degree_square_sum(star5) == 30 == star5.m**2 + star5.m
    assert degree_square_sum(empty_graph(4)) == 0


def test_degree_square_bound_holds_everywhere():
    rng = random.Random(27)
    for _ in range(2000):
        g = random_graph(rng, rng.randrange(0, 9))
        assert degree_square_sum(g) <= g.m * g.m + g.m


def test_partition_stats_examples():
    t8 = turan(8, 2).graph
    w = partition_witness(t8, mask_of(range(4)))
    assert (w.eS, w.eT, w.eST) == (0, 0, 16)
    y = y_n2q(8, 2).graph
    w = partition_witness(y, mask_of(range(4)))
    assert (w.eS, w.eT, w.eST) == (2, 0, 16)
    k4 = complete_graph(4)
    w = partition_witness(k4, mask_of([0, 1]))
    assert (w.eS, w.eT, w.eST) == (1, 1, 4)


def test_cover_from_intra_edges_bounds_tau3():
    # every triangle crosses an intra-part edge of any bipartition, so one
    # endpoint per intra edge is a cover: tau3 <= e(S) + e(T)
    rng = random.Random(28)
    for _ in range(200):
        g = random_graph(rng, rng.randrange(1, 9))
        S = rng.getrandbits(g.n)
        eS, eT, _ = cut_stats(g, S)
        cover = 0
        for u, v in g.edges():
            same = (S >> u & 1) == (S >> v & 1)
            if same and not ((1 << u) | (1 << v)) & cover:
                cover |= 1 << u
        size, _ = tau3(g)
        assert size <= eS + eT
        for a, b, c in triangle_list(g):
            tri = (1 << a) | (1 << b) | (1 << c)
            sides = [(S >> x & 1) for x in (a, b, c)]
            assert len(set(sides)) < 3  # pigeonhole: some intra-part edge
