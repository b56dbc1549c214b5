"""Property tests of the certified lambda decisions, of the Gray-code cut
sweep, of the T_{n,2,q} recognizer and of the random probe's two triangle
identities against exact or exhaustive oracles on small graphs."""

from fractions import Fraction
from math import ceil, floor

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specls.families import embed_into_turan2, small_path, t_n2q, turan, y_n2q
from specls.graph import add_edge, adjacency_matrix, build_graph, complete_graph, cut_stats
from specls.graph import remove_edge
from specls.morphism import ISO_LIMIT, are_isomorphic
from specls.roots import lambda_interval_exact
from specls.search import _move_edge
from specls.spectral import (
    Ordering,
    _lambda_sq_rungs,
    certify_lambda_ge_frac,
    certify_lambda_ge_sqrt,
    certify_lambda_le_frac,
    certify_lambda_le_sqrt,
    compare_lambda,
    degree_rung,
)
from specls.theorems import check_tri_effi, is_t_n2q
from specls.triangles import degree_triangle_floor, dense_triangle_count, max_cut_exact
from specls.triangles import triangle_count


@st.composite
def random_graphs(draw, max_n):
    n = draw(st.integers(1, max_n))
    slots = [(i, j) for j in range(n) for i in range(j)]
    mask = draw(st.integers(0, (1 << len(slots)) - 1))
    return build_graph(n, [e for s, e in enumerate(slots) if mask >> s & 1])


@st.composite
def exact_cases(draw, max_n):
    """(G, lambda(G)^2) for graphs whose lambda the exact side channels
    decide: K_{a,b} (lambda^2 = ab), cliques and cycles (lambda = d)."""
    kind = draw(st.sampled_from(["kab", "clique", "cycle"]))
    if kind == "kab":
        a = draw(st.integers(1, max_n - 1))
        b = draw(st.integers(1, max_n - a))
        return build_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)]), a * b
    if kind == "clique":
        n = draw(st.integers(1, max_n))
        return complete_graph(n), (n - 1) ** 2
    n = draw(st.integers(3, max_n))
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)]), 4


def graphs(max_n):
    return st.one_of(random_graphs(max_n), exact_cases(max_n).map(lambda case: case[0]))


def _relabel(g, perm):
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


@settings(max_examples=80, deadline=None)
@given(g=graphs(10), h=graphs(10), perm_seed=st.randoms(use_true_random=False))
def test_lambda_decisions_never_contradict_the_exact_oracle(g, h, perm_seed):
    lo, hi = lambda_interval_exact(g)  # lo <= lambda(G) <= hi, width <= 1e-12
    eps = Fraction(1, 10**6)
    for c in {lo, hi, (lo + hi) / 2, lo - eps, hi + eps, Fraction(floor(lo)), Fraction(ceil(hi))}:
        ge = certify_lambda_ge_frac(g, c)
        assert ge is not True or hi >= c, c
        assert ge is not False or lo < c, c
        le = certify_lambda_le_frac(g, c)
        assert le is not True or lo <= c, c
        assert le is not False or hi > c, c
    for k in {lo * lo, hi * hi, Fraction(floor(lo * lo)), Fraction(ceil(hi * hi)), Fraction(g.m)}:
        ge = certify_lambda_ge_sqrt(g, k)
        assert ge is not True or hi * hi >= k, k
        assert ge is not False or lo * lo < k, k
        le = certify_lambda_le_sqrt(g, k)
        assert le is not True or lo * lo <= k, k
        assert le is not False or hi * hi > k, k
    hlo, hhi = lambda_interval_exact(h)
    order = compare_lambda(g, h)
    assert order is not Ordering.LESS or lo < hhi
    assert order is not Ordering.GREATER or hi > hlo
    # a relabelled copy has the same lambda exactly: never ordered
    perm = list(range(g.n))
    perm_seed.shuffle(perm)
    assert compare_lambda(g, _relabel(g, perm)) in (Ordering.TIE, Ordering.INDETERMINATE)


@settings(max_examples=40, deadline=None)
@given(case=exact_cases(10), other=exact_cases(10))
def test_exact_channels_decide_the_equality_cases(case, other):
    g, lam_sq = case
    assert certify_lambda_ge_sqrt(g, Fraction(lam_sq)) is True
    assert certify_lambda_le_sqrt(g, Fraction(lam_sq)) is True
    h, lam_sq_h = other
    expected = {-1: Ordering.LESS, 0: Ordering.TIE, 1: Ordering.GREATER}
    assert compare_lambda(g, h) is expected[(lam_sq > lam_sq_h) - (lam_sq < lam_sq_h)]


@st.composite
def unions_with_isolated(draw):
    """Up to two disjoint graphs on at most 6 vertices each, plus isolated
    vertices, at most 12 vertices in all."""
    parts = draw(st.lists(graphs(6), min_size=1, max_size=2))
    edges, n = [], 0
    for p in parts:
        edges += [(u + n, v + n) for u, v in p.edges()]
        n += p.n
    return build_graph(n + draw(st.integers(0, 12 - n)), edges)


@settings(max_examples=120, deadline=None)
@given(g=unions_with_isolated())
def test_free_rung_lies_between_the_mean_degree_and_the_exact_lambda(g):
    # the free rung is a proved lower bound on lambda^2 (Hofmeister), never
    # weaker than (2m/n)^2, on both kinds of subject
    hi_sq = lambda_interval_exact(g)[1] ** 2
    mean_sq = Fraction(2 * g.m, g.n) ** 2
    for subject in (g, adjacency_matrix(g)):
        low, _ = next(_lambda_sq_rungs(subject, [1e-9]))
        assert mean_sq <= low <= hi_sq
    assert mean_sq <= degree_rung(np.array(g.degrees(), np.int64))[0] <= hi_sq


PRISM = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])
K33 = build_graph(6, [(i, j) for i in range(3) for j in range(3, 6)])


@settings(max_examples=200, deadline=None)
@given(g=random_graphs(9), k=st.integers(0, 5))
@example(g=PRISM, k=0)  # 3-regular with enough edges, but no cut of n^2/4
@example(g=K33, k=0)
def test_cut_sweep_and_tri_effi_clause_ii_match_brute_force(g, k):
    n = g.n
    cuts = [cut_stats(g, S)[2] for S in range(1 << n)]
    # the witness is the first bipartition in reflected Gray-code order
    # i ^ (i >> 1) that reaches the maximum
    gray = [i ^ (i >> 1) for i in range(1 << (n - 1))]
    cut, mask = max_cut_exact(g)
    assert cut == max(cuts)
    assert mask == next(S for S in gray if cuts[S] == cut)

    # TRI_EFFI clause (ii): some bipartition with |n/2 - |S|| <= 3 sqrt(k)
    # carries at least n^2/4 - 9k edges
    need = Fraction(n * n, 4) - 9 * k

    def sizes_ok(S):
        d = Fraction(n, 2) - min(S.bit_count(), n - S.bit_count())
        return d * d <= 9 * k

    cii = any(c >= need and sizes_ok(S) for S, c in enumerate(cuts))
    assert cii == (cut >= need)  # the reduction check_tri_effi relies on
    v = check_tri_effi(g, k)
    ci = v.margins["edge_margin"] >= 0
    ciii = v.margins["min_degree_margin"] >= 0 and v.margins["max_degree_margin"] >= 0
    assert v.conclusion_met == (ci and cii and ciii)
    assert v.margins["cross_margin"] == cut - need
    assert v.witness == ({"partition_S": mask} if cii else None)


@st.composite
def near_t_n2q(draw):
    """(G, q): a relabelled T_{n,2,q}, Y_{n,2,q}, T_{n,2} plus a q-edge star
    in the smaller part or plus a q-edge path, optionally with one edge
    toggled, for n <= ISO_LIMIT and 1 <= q < ceil(n/2)."""
    n = draw(st.integers(3, ISO_LIMIT))
    a = (n + 1) // 2
    q = draw(st.integers(1, a - 1))
    builders = [lambda: t_n2q(n, q).graph, lambda: embed_into_turan2(n, small_path(q)).graph]
    if 2 * q <= a:
        builders.append(lambda: y_n2q(n, q).graph)
    if q + 1 <= n // 2:  # the star on the first vertices of the smaller part
        builders.append(lambda: build_graph(
            n, list(turan(n, 2).graph.edges()) + [(a, a + k) for k in range(1, q + 1)]))
    edges = set(draw(st.sampled_from(builders))().edges())
    if draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        edges ^= {(min(i, j), max(i, j))}
    perm = draw(st.permutations(range(n)))
    return build_graph(n, [(perm[u], perm[v]) for u, v in edges]), q


@settings(max_examples=300, deadline=None)
@given(case=near_t_n2q())
def test_t_n2q_recognizer_matches_exact_isomorphism(case):
    g, q = case
    assert is_t_n2q(g, q) == are_isomorphic(g, t_n2q(g.n, q).graph)


@settings(max_examples=300, deadline=None)
@given(g=random_graphs(14))
@example(g=complete_graph(9))  # every codegree is d_u + d_v - n: tight
@example(g=K33)
def test_degree_floor_bounds_the_triangle_count(g):
    # 3t >= sum(d^2) - n*m, and the floor is that bound rounded up
    degs = g.degrees()
    excess = sum(d * d for d in degs) - g.n * g.m
    floor = degree_triangle_floor(np.array(degs, np.int64))
    assert 3 * floor >= excess > 3 * floor - 3
    assert floor <= triangle_count(g)
    if g.m == g.n * (g.n - 1) // 2:
        assert floor == triangle_count(g)


@st.composite
def edge_moves(draw, max_n):
    """(G, ab, cd): G is Y_{n,2,q} or a random graph with an edge ab, and cd
    is ab or a non-edge of G."""
    if draw(st.booleans()):
        n = draw(st.integers(4, max_n))
        g = y_n2q(n, draw(st.integers(1, (n + 1) // 4))).graph
    else:
        g = draw(random_graphs(max_n).filter(lambda g: g.m > 0))
    ab = draw(st.sampled_from(sorted(g.edges())))
    non_edges = [(i, j) for j in range(g.n) for i in range(j) if not g.has_edge(i, j)]
    if not non_edges or draw(st.booleans()):
        return g, ab, ab
    return g, ab, draw(st.sampled_from(non_edges))


@settings(max_examples=300, deadline=None)
@given(case=edge_moves(14))
def test_moving_an_edge_counts_triangles_by_two_codegrees(case):
    # t(G - ab + cd) = t(G) - codeg_G(a, b) + codeg_{G - ab}(c, d), and A
    # holds G - ab + cd afterwards
    g, ab, cd = case
    A = adjacency_matrix(g, np.float32)
    t = _move_edge(A, triangle_count(g), ab, cd)
    moved = add_edge(remove_edge(g, *ab), *cd)
    assert (A == adjacency_matrix(moved, np.float32)).all()
    assert t == triangle_count(moved) == dense_triangle_count(A)
