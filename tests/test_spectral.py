import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from specls.families import kab_plus, t_n2q, turan, y_n2q
from specls.graph import add_edge, bits, build_graph, complete_graph, components, empty_graph
from specls.graph import adjacency_matrix
from specls.roots import lambda_interval_exact
from specls.spectral import (
    Ordering,
    _lambda_sq_rungs,
    certified,
    certify_lambda_ge_frac,
    certify_lambda_ge_sqrt,
    certify_lambda_le_frac,
    certify_lambda_le_sqrt,
    compare_lambda,
    exact_lambda_sq,
    perron_enclosure,
    rayleigh_lower_bound,
)
from specls.theorems import rotation_increases_lambda


def random_graph(rng, n, p=0.5):
    return build_graph(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    )


def test_k22_and_turan_values():
    c = perron_enclosure(turan(4, 2).graph, 1e-9)
    assert c.lambda_lo <= 2.0 <= c.lambda_hi and c.width <= 1e-9
    # K_{3,4}: sqrt(12)
    c = perron_enclosure(turan(7, 2).graph, 1e-9)
    assert c.lambda_lo <= math.sqrt(12) <= c.lambda_hi


def test_perron_normalization_and_residual():
    g = y_n2q(12, 2).graph
    c = perron_enclosure(g, 1e-10)
    assert max(c.perron) == 1.0
    assert min(c.perron) >= 0.0
    assert c.residual < 1e-7
    assert c.converged


def test_empty_and_errors():
    c = perron_enclosure(empty_graph(3), 1e-9)
    assert c.lambda_lo == c.lambda_hi == 0.0
    with pytest.raises(ValueError):
        perron_enclosure(empty_graph(0), 1e-9)
    with pytest.raises(ValueError):
        perron_enclosure(complete_graph(3), -1.0)


def test_disconnected_max_over_components():
    # K3 + K5: lambda = 4 from the K5 side
    edges = [(0, 1), (0, 2), (1, 2)]
    edges += [(i, j) for i in range(3, 8) for j in range(i + 1, 8)]
    g = build_graph(8, edges)
    c = perron_enclosure(g, 1e-9)
    assert c.lambda_lo <= 4.0 <= c.lambda_hi and c.width <= 1e-9
    # vector supported on the K5 component
    assert all(c.perron[v] == 0.0 for v in range(3))
    assert all(c.perron[v] > 0.0 for v in range(3, 8))


def test_soundness_against_exact_oracle():
    rng = random.Random(13)
    for _ in range(150):
        g = random_graph(rng, rng.randrange(1, 9))
        c = perron_enclosure(g, 1e-10)
        lo, hi = lambda_interval_exact(g)
        # the two independently-computed enclosures must intersect
        assert Fraction(c.lambda_lo) <= hi and lo <= Fraction(c.lambda_hi)


def test_soundness_on_constructions():
    for g in [
        turan(11, 2).graph,
        t_n2q(11, 3).graph,
        y_n2q(12, 3).graph,
        kab_plus(6, 4).graph,
    ]:
        c = perron_enclosure(g, 1e-10)
        if g.n <= 12:
            lo, hi = lambda_interval_exact(g)
            assert Fraction(c.lambda_lo) <= hi and lo <= Fraction(c.lambda_hi)


def _plain_python_cw(g, tol, max_iter=200_000):
    """The CW loop in plain Python floats, as the engine ran it for small
    components before it moved to numpy: (lo, hi, converged, iterations)
    of a connected graph."""
    n, eps = g.n, sys.float_info.epsilon
    nbrs = [list(bits(r)) for r in g.rows]
    x = [1.0] * n
    lo_best, hi_best, shift, snapshot = 0.0, float(n), 1.0, float("inf")
    it = 0
    while it < max_iter:
        it += 1
        y = [sum(x[j] for j in nbrs[i]) + shift * x[i] for i in range(n)]
        lo_t = min(y[i] / x[i] for i in range(n))
        hi_t = max(y[i] / x[i] for i in range(n))
        slack = 8.0 * n * eps * hi_t
        lo_best = max(lo_best, lo_t - shift - slack)
        hi_best = min(hi_best, hi_t - shift + slack)
        mx = max(y)
        x = [yi / mx for yi in y]
        width = hi_best - lo_best
        if width <= tol:
            return lo_best, hi_best, True, it
        if it % 32 == 0:
            if width >= 0.999 * snapshot:
                break
            snapshot = width
        if it % 12 == 0 and lo_best > 1.0:
            shift = float(round(lo_best))
    return lo_best, hi_best, False, it


def test_numpy_cw_matches_the_plain_python_loop():
    # numpy sums in another order, so the bounds may move by a few ulps;
    # the iteration count and the convergence flag must not
    rng = random.Random(16)
    checked = 0
    while checked < 40:
        g = random_graph(rng, rng.randrange(2, 30), rng.choice((0.2, 0.5, 0.8)))
        if len(components(g)) != 1:
            continue
        for tol in (1e-9, 1e-11):
            c = perron_enclosure(g, tol)
            lo, hi, converged, iterations = _plain_python_cw(g, tol)
            assert (c.converged, c.iterations) == (converged, iterations)
            assert abs(c.lambda_lo - lo) <= 64 * sys.float_info.epsilon * hi
            assert abs(c.lambda_hi - hi) <= 64 * sys.float_info.epsilon * hi
        checked += 1


def _plain_python_residual(g, x):
    ax = [sum(x[w] for w in bits(g.rows[v])) for v in range(g.n)]
    xx = sum(v * v for v in x)
    if xx == 0:
        return 0.0
    rho = sum(a * v for a, v in zip(ax, x)) / xx
    return max(abs(a - rho * v) for a, v in zip(ax, x))


def test_residual_matches_the_plain_python_sums_exactly():
    # every sum runs left to right in both, so the residual is bit-identical
    rng = random.Random(17)
    graphs = [random_graph(rng, rng.randrange(1, 60), rng.choice((0.1, 0.5, 0.9)))
              for _ in range(60)]
    graphs += [build_graph(5, [(0, 1), (2, 3), (3, 4)])]  # disconnected
    graphs += [f(300, q).graph for f in (y_n2q, t_n2q) for q in (1, 2)]
    for g in graphs:
        c = perron_enclosure(g, 1e-9)
        assert c.residual == _plain_python_residual(g, list(c.perron))


def test_certified_reads_an_ordering():
    for expected in (Ordering.GREATER, Ordering.LESS):
        assert certified(expected, expected) is True
        assert certified(Ordering.LESS if expected is Ordering.GREATER else Ordering.GREATER,
                         expected) is False
        assert certified(Ordering.TIE, expected) is None
        assert certified(Ordering.INDETERMINATE, expected) is None


def test_collatz_wielandt_sandwich():
    # lo <= Rayleigh quotient of the returned vector <= hi
    rng = random.Random(14)
    for _ in range(50):
        g = random_graph(rng, rng.randrange(2, 10))
        c = perron_enclosure(g, 1e-9)
        x = c.perron
        num = sum(
            x[u] * x[v] for u in range(g.n) for v in range(g.n) if g.has_edge(u, v)
        )
        den = sum(v * v for v in x)
        if den and c.converged:
            rho = num / den
            assert c.lambda_lo - 1e-9 <= rho <= c.lambda_hi + 1e-9


def test_monotone_under_edge_addition():
    rng = random.Random(15)
    for _ in range(40):
        n = rng.randrange(3, 10)
        g = random_graph(rng, n, 0.4)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if not g.has_edge(i, j)]
        if not pairs:
            continue
        u, v = rng.choice(pairs)
        g2 = add_edge(g, u, v)
        c1 = perron_enclosure(g, 1e-9)
        c2 = perron_enclosure(g2, 1e-9)
        assert c2.lambda_hi >= c1.lambda_lo - 1e-9


def test_compare_identical_is_tie():
    assert compare_lambda(turan(4, 2).graph, turan(4, 2).graph) is Ordering.TIE


def test_compare_known_orderings():
    # matching embedding below star embedding
    assert compare_lambda(y_n2q(20, 3).graph, t_n2q(20, 3).graph) is Ordering.LESS
    # K+_{6,4} above the balanced complete bipartite graph on 10 vertices
    assert compare_lambda(kab_plus(6, 4).graph, turan(10, 2).graph) is Ordering.GREATER
    # two copies of the same eigenvalue via different graphs: 2K2 vs C4? no:
    # C4 has lambda 2 and K_{1,4} has lambda 2: certified tie via exact routes
    c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    star4 = build_graph(5, [(0, i) for i in range(1, 5)])
    assert compare_lambda(c4, star4) is Ordering.TIE


def test_compare_seed_invariance():
    g, h = y_n2q(14, 2).graph, t_n2q(14, 2).graph
    assert compare_lambda(g, h) is Ordering.LESS
    assert perron_enclosure(g, 1e-9).lambda_hi < perron_enclosure(h, 1e-9).lambda_lo


def test_rayleigh_lower_bound():
    assert rayleigh_lower_bound(complete_graph(4)) == 3
    c5 = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert rayleigh_lower_bound(c5) == 2
    g = y_n2q(10, 2).graph
    assert rayleigh_lower_bound(g) == Fraction(2 * (25 + 2), 10)


def test_exact_lambda_routes():
    assert exact_lambda_sq(complete_graph(5)) == 16
    assert exact_lambda_sq(turan(9, 3).graph) == 36  # lambda = 2n/3 for 3|n
    assert exact_lambda_sq(t_n2q(10, 1).graph) is None
    assert exact_lambda_sq(turan(7, 2).graph) == 12
    assert exact_lambda_sq(complete_graph(4)) == 9  # 3-regular
    assert exact_lambda_sq(empty_graph(3)) == 0
    assert exact_lambda_sq(empty_graph(0)) is None


def test_certified_comparisons():
    t82 = turan(8, 2).graph
    assert certify_lambda_ge_sqrt(t82, 16) is True  # lambda = 4 exactly
    assert certify_lambda_ge_sqrt(t82, 17) is False
    assert certify_lambda_le_sqrt(t82, 16) is True
    k4 = complete_graph(4)
    assert certify_lambda_ge_frac(k4, Fraction(3)) is True
    assert certify_lambda_le_frac(k4, Fraction(3)) is True
    assert certify_lambda_ge_frac(k4, Fraction(31, 10)) is False
    # odd-order Turan graph: lambda = sqrt(20), irrational
    t92 = turan(9, 2).graph
    assert certify_lambda_ge_sqrt(t92, 20) is True
    assert certify_lambda_le_sqrt(t92, 20) is True
    assert certify_lambda_ge_sqrt(t92, 21) is False


def test_matching_lambda_upper_bound_sweep():
    # the unproven remark lambda(Y_{n,2,q}) < n/2 + 2q/n + 8q/n^2, checked
    # numerically on a grid and never assumed anywhere in certification
    for n in range(10, 61, 10):
        for q in range(1, 4):
            if 2 * q > (n + 1) // 2:
                continue
            g = y_n2q(n, q).graph
            c = perron_enclosure(g, 1e-9)
            bound = n / 2 + 2 * q / n + 8 * q / (n * n)
            assert c.lambda_hi < bound


def test_rotation_path_to_star():
    p4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    v = rotation_increases_lambda(p4, 1, 2, 1 << 3)
    assert v.hypothesis_met is True and v.conclusion_met is True


def test_rotation_empty_is_degenerate():
    c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    v = rotation_increases_lambda(c4, 0, 1, 0)
    assert v.hypothesis_met is False
    assert v.witness and v.witness.get("degenerate")


def test_rotation_matching_to_path():
    # move one matching edge endpoint onto the other edge's endpoint
    g = y_n2q(10, 2).graph  # matching edges (0,1), (2,3) in the 5-side
    v = rotation_increases_lambda(g, 1, 3, 1 << 2)
    assert v.conclusion_met is True


def test_rotation_preconditions():
    p4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(ValueError):
        rotation_increases_lambda(p4, 1, 1, 0)
    with pytest.raises(ValueError):
        rotation_increases_lambda(p4, 0, 2, 1 << 0)  # 0 not in N(2)\N(0)


def test_rotation_disconnected():
    g = build_graph(5, [(0, 1), (2, 3), (3, 4)])
    v = rotation_increases_lambda(g, 3, 2, 0)
    assert v.hypothesis_met is False
    assert "disconnected" in (v.indeterminate_reason or "")


def test_free_rung_is_exact_for_every_0_1_dtype():
    # K_420: sum(d^2) = 420 * 419^2 = 73 735 620 > 2^24, which a float32 dot
    # product rounds to 73 735 616; every dtype's free rung must start at the
    # exact lambda^2 = 419^2 that the Graph path reads
    g = complete_graph(420)
    exact = next(_lambda_sq_rungs(g, [1e-9]))
    assert exact == (419**2, 419**2)
    for dtype in (np.float32, np.uint8, np.float64):
        assert next(_lambda_sq_rungs(adjacency_matrix(g, dtype), [1e-9])) == (419**2, math.inf)
