"""Property tests of the certified lambda decisions and of the Gray-code cut
sweep against exact or exhaustive oracles on small graphs."""

from fractions import Fraction
from math import ceil, floor

from hypothesis import example, given, settings
from hypothesis import strategies as st

from specls.graph import build_graph, complete_graph, cut_stats
from specls.roots import lambda_interval_exact
from specls.spectral import (
    Ordering,
    certify_lambda_ge_frac,
    certify_lambda_ge_sqrt,
    certify_lambda_le_frac,
    certify_lambda_le_sqrt,
    compare_lambda,
)
from specls.theorems import check_tri_effi
from specls.triangles import max_cut_exact


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


PRISM = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])
K33 = build_graph(6, [(i, j) for i in range(3) for j in range(3, 6)])


@settings(max_examples=200, deadline=None)
@given(g=random_graphs(9), k=st.integers(0, 5))
@example(g=PRISM, k=0)  # 3-regular with enough edges, but no cut of n^2/4
@example(g=K33, k=0)
def test_cut_sweep_and_tri_effi_clause_ii_match_brute_force(g, k):
    n = g.n
    cuts = [cut_stats(g, S)[2] for S in range(1 << n)]
    # the sweep visits the reflected Gray code i ^ (i >> 1); the witness is
    # the first bipartition in that order that reaches the maximum
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
