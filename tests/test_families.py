import math
import random

import pytest

from specls.families import (
    balogh_clemen_g1,
    balogh_clemen_g2,
    book_join,
    build_from_spec,
    embed_into_turan2,
    kab_plus,
    l_nsalpha,
    small_clique,
    small_complete_bipartite,
    small_cycle,
    small_matching,
    small_path,
    small_star,
    t_n2q,
    turan,
    y_n2q,
)
from specls.graph import build_graph
from specls.graph6 import emit_graph6
from specls.spectral import compare_lambda, perron_enclosure, Ordering
from specls.triangles import tau3, triangle_count


def measured_match(c):
    return c.graph.m == c.predicted.m_expected and triangle_count(c.graph) == c.predicted.t_expected


def test_turan_known():
    c = turan(7, 2)
    assert c.graph.m == 12 and measured_match(c)
    c = turan(9, 3)
    assert c.predicted.t_expected == 27 and measured_match(c)
    assert turan(4, 4).graph == __import__("specls.graph", fromlist=["complete_graph"]).complete_graph(4)
    assert turan(3, 7).graph.m == 3  # r > n degenerates to the complete graph
    with pytest.raises(ValueError):
        turan(5, 0)


def test_turan_sweep():
    for n in range(1, 30):
        for r in range(1, 8):
            assert measured_match(turan(n, r)), (n, r)


def test_t_y_sweep():
    for n in range(4, 40):
        for q in range(0, (n + 1) // 2):
            if q + 1 <= (n + 1) // 2:
                assert measured_match(t_n2q(n, q)), ("T", n, q)
            if 2 * q <= (n + 1) // 2:
                assert measured_match(y_n2q(n, q)), ("Y", n, q)


def test_t_y_errors():
    with pytest.raises(ValueError):
        t_n2q(7, 4)  # star needs 5 vertices, part has 4
    with pytest.raises(ValueError):
        y_n2q(10, 3)  # matching needs 6 vertices, part has 5


def test_q1_coincidence():
    assert t_n2q(6, 1).graph == y_n2q(6, 1).graph
    assert t_n2q(11, 1).graph == y_n2q(11, 1).graph


def test_kab_plus():
    c = kab_plus(6, 4)
    assert measured_match(c) and c.predicted.t_expected == 4
    assert triangle_count(kab_plus(2, 1).graph) == 1  # the triangle
    with pytest.raises(ValueError):
        kab_plus(1, 5)


def test_embed_coincides_with_star_builder():
    for n, q in [(10, 3), (13, 4)]:
        a = embed_into_turan2(n, small_star(q)).graph
        b = t_n2q(n, q).graph
        assert a == b


def test_embed_matching_coincides():
    assert embed_into_turan2(12, small_matching(3)).graph == y_n2q(12, 3).graph


def test_embed_predictions():
    for h in [small_cycle(4), small_clique(3), small_path(4), small_complete_bipartite(2, 3)]:
        for n in (12, 15):
            c = embed_into_turan2(n, h)
            assert measured_match(c), (h, n)
    with pytest.raises(ValueError):
        embed_into_turan2(7, small_matching(3))  # 6 vertices > part of 4


def test_balogh_clemen_formulas():
    c = balogh_clemen_g2(20, 3, 2, 0)
    assert c.predicted.t_expected == 29 and measured_match(c)
    c = balogh_clemen_g1(20, 3, 2, 0)
    assert c.predicted.t_expected == 28 and measured_match(c)
    # alpha = 0: no deletions
    c = balogh_clemen_g2(20, 3, 2, 1)  # alpha = 3-2-1 = 0
    assert measured_match(c)
    assert c.graph.m == 20 * 20 // 4 + 2


def test_balogh_clemen_sweep():
    for n in (20, 21, 50):
        for s in range(2, 6):
            for t in range(1, s):
                for a in (0, 1, 2):
                    alpha = s - t - a * a - (a if n % 2 else 0)
                    for builder, cap in ((balogh_clemen_g1, s - 1), (balogh_clemen_g2, s)):
                        if alpha < 0 or alpha > cap:
                            with pytest.raises(ValueError):
                                builder(n, s, t, a)
                        else:
                            assert measured_match(builder(n, s, t, a)), (n, s, t, a)


def test_balogh_clemen_tau3():
    c = balogh_clemen_g2(30, 2, 1, 0)
    assert tau3(c.graph)[0] == 2
    c = balogh_clemen_g1(30, 3, 2, 0)
    assert tau3(c.graph)[0] == 3


def test_l_nsalpha():
    c = l_nsalpha(12, 2, 0.0)
    assert c.graph == turan(12, 3).graph
    assert measured_match(c)
    for n, s, alpha in [(12, 2, 0.2), (20, 3, 0.1), (30, 2, 0.4), (17, 2, 0.15)]:
        c = l_nsalpha(n, s, alpha)
        assert measured_match(c), (n, s, alpha)
        assert c.graph.n == n
    with pytest.raises(ValueError):
        l_nsalpha(12, 2, 0.5)  # alpha >= 1/s
    with pytest.raises(ValueError):
        l_nsalpha(12, 1, 0.1)
    # boundary: last part empties once alpha is close to 1/s
    with pytest.raises(ValueError):
        l_nsalpha(12, 2, 0.49999)


def test_book_join():
    assert book_join(0).graph.m == 1
    c = book_join(3)
    assert c.predicted.m_expected == 7 and c.predicted.t_expected == 3
    assert measured_match(c)
    # closed-form spectral radius (1 + sqrt(4m-3))/2
    for k in (1, 2, 3, 5, 8):
        c = book_join(k)
        cert = perron_enclosure(c.graph, 1e-10)
        m = c.graph.m
        lam = (1 + math.sqrt(4 * m - 3)) / 2
        assert cert.lambda_lo - 1e-9 <= lam <= cert.lambda_hi + 1e-9
    with pytest.raises(ValueError):
        book_join(-1)


def test_matching_vs_star_ordering():
    assert compare_lambda(y_n2q(20, 3).graph, t_n2q(20, 3).graph) is Ordering.LESS


def test_spec_strings_round_trip():
    for spec in [
        "Turan:n=9,r=3",
        "T:n=10,q=2",
        "Y:n=10,q=2",
        "Kab+:a=6,b=4",
        "G1:n=20,s=3,t=2,a=0",
        "G2:n=20,s=3,t=2,a=0",
        "Book:k=3",
    ]:
        c = build_from_spec(spec)
        assert c.spec == spec
        assert measured_match(c)
    c = build_from_spec("L:n=12,s=2,alpha=0.25")
    assert measured_match(c)
    with pytest.raises(ValueError):
        build_from_spec("Zoo:n=3")
    with pytest.raises(ValueError):
        build_from_spec("Y:n=ten,q=1")


def test_lambda_poly_attachment():
    assert y_n2q(10, 1).predicted.lambda_poly.tag == "Y_even"
    assert y_n2q(11, 1).predicted.lambda_poly.tag == "Y_odd"
    assert t_n2q(11, 4).predicted.lambda_poly.tag == "T_star4"
    assert t_n2q(12, 4).predicted.lambda_poly is None
    assert y_n2q(12, 2).predicted.lambda_poly is None


def test_perturbed_turan_below_matching_construction():
    # adding q-1 arbitrary intra-part edges to the balanced bipartite graph
    # stays strictly below the q-matching construction in spectral radius;
    # the (300, q=1) and (1200, q=2) points sit in the stated n >= 300q^2
    # range, the smaller ones probe beyond it
    rng = random.Random(31)
    for q, n in [(2, 40), (2, 60), (1, 300), (2, 1200)]:
        y = y_n2q(n, q).graph
        for _ in range(5):
            base = turan(n, 2)
            g = base.graph
            a = (n + 1) // 2
            added = 0
            from specls.graph import add_edge

            while added < q - 1:
                u, v = rng.randrange(a), rng.randrange(a)
                if u != v and not g.has_edge(u, v):
                    g = add_edge(g, u, v)
                    added += 1
            assert triangle_count(g) < q * (n // 2)
            assert compare_lambda(g, y) is Ordering.LESS


# -- the matrix builders against the edge-list builds they replace -----------


def _cross(sizes):
    """Edges between distinct parts of contiguous parts with these sizes."""
    starts = [sum(sizes[:i]) for i in range(len(sizes))]
    return [
        (u, v)
        for i, (si, ai) in enumerate(zip(starts, sizes))
        for sj, aj in zip(starts[i + 1:], sizes[i + 1:])
        for u in range(si, si + ai)
        for v in range(sj, sj + aj)
    ]


def _turan_edges(n, r):
    k = min(r, n) if n else r
    return _cross([(n + k - 1 - i) // k for i in range(k)])


def _t_edges(n, q):
    return _cross([(n + 1) // 2, n // 2]) + [(0, i) for i in range(1, q + 1)]


def _y_edges(n, q):
    return _cross([(n + 1) // 2, n // 2]) + [(2 * i, 2 * i + 1) for i in range(q)]


def _kab_plus_edges(a, b):
    return _cross([a, b]) + [(0, 1)]


def _embed_edges(n, h):
    return _cross([(n + 1) // 2, n // 2]) + list(h.edges())


def _bc_edges(n, s, t, a, hub_edge):
    size_a = (n + 1) // 2 + a
    alpha = s - t - a * a - (a if n % 2 else 0)
    u1 = size_a
    xs = list(range(0, 2 * (s - 1 if hub_edge else s), 2))
    edges = _cross([size_a, n - size_a]) + [(x, x + 1) for x in xs]
    if hub_edge:
        edges.append((u1, u1 + 1))
    removed = {(x, u1) for x in xs[:alpha]}
    return [e for e in edges if e not in removed]


def _l_edges(n, s, alpha):
    ideal = [n * (1 + alpha) / (s + 1)] * s + [n * (1 - s * alpha) / (s + 1)]
    sizes = [math.floor(x) for x in ideal]
    order = sorted(range(s + 1), key=lambda i: (-(ideal[i] - sizes[i]), i))
    for i in range(n - sum(sizes)):
        sizes[order[i % (s + 1)]] += 1
    return _cross(sizes)


_ODD_AND_EVEN_N = (9, 10, 21, 24, 301)


def _reference_cases():
    for n in _ODD_AND_EVEN_N + (0, 1, 2):
        for r in (1, 2, 3, 5):
            yield f"turan({n},{r})", turan(n, r), n, _turan_edges(n, r)
    for n in _ODD_AND_EVEN_N:
        for q in (0, 1, 2, 4):
            yield f"t_n2q({n},{q})", t_n2q(n, q), n, _t_edges(n, q)
            if 2 * q <= (n + 1) // 2:
                yield f"y_n2q({n},{q})", y_n2q(n, q), n, _y_edges(n, q)
        for name, h in (("star", small_star(3)), ("clique", small_clique(4)),
                        ("kab", small_complete_bipartite(2, 2)), ("cycle", small_cycle(4))):
            yield f"embed({n},{name})", embed_into_turan2(n, h), n, _embed_edges(n, h)
    for a, b in ((2, 1), (2, 5), (4, 4), (5, 6)):
        yield f"kab_plus({a},{b})", kab_plus(a, b), a + b, _kab_plus_edges(a, b)
    for n in (20, 21, 40, 41):
        for s, t, a in ((3, 1, 0), (4, 2, 1), (5, 1, 1), (4, 1, 0)):
            yield (f"g1({n},{s},{t},{a})", balogh_clemen_g1(n, s, t, a), n,
                   _bc_edges(n, s, t, a, True))
            yield (f"g2({n},{s},{t},{a})", balogh_clemen_g2(n, s, t, a), n,
                   _bc_edges(n, s, t, a, False))
    for n in (12, 13, 30, 31):
        for s, alpha in ((2, 0.0), (2, 0.3), (3, 0.1), (4, 0.1)):
            yield f"l({n},{s},{alpha})", l_nsalpha(n, s, alpha), n, _l_edges(n, s, alpha)


def test_matrix_builders_match_the_edge_list_builds():
    names = set()
    for name, c, n, edges in _reference_cases():
        assert emit_graph6(c.graph) == emit_graph6(build_graph(n, edges)), name
        names.add(name.partition("(")[0])
    assert names == {"turan", "t_n2q", "y_n2q", "embed", "kab_plus", "g1", "g2", "l"}
