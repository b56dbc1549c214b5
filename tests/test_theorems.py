import dataclasses
import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from specls import theorems
from specls.families import (
    balogh_clemen_g2,
    book_join,
    embed_into_turan2,
    kab_plus,
    small_clique,
    small_complete_bipartite,
    small_cycle,
    small_star,
    t_n2q,
    turan,
    y_n2q,
)
from specls.graph import add_edge, build_graph, complete_graph, empty_graph
from specls.roots import lambda_interval_exact
from specls.search import edge_slots
from specls.spectral import Ordering
from specls.theorems import (
    bn_relation_exact,
    check_bn,
    check_deg_sq,
    check_embed_order,
    check_er_rad,
    check_far_supersat,
    check_ls,
    check_mantel,
    check_moon_moser,
    check_nikiforov_m,
    check_ning_zhai,
    check_nosal_nz,
    check_spec_bc,
    check_spec_ls_t,
    check_spec_ls_y,
    check_structural_lemmas,
    check_tri_effi,
    check_wilf,
    check_x_mass,
    has_clique,
    is_complete_bipartite,
    is_t_n2q,
    is_turan2,
    verify_by_id,
)
from specls.triangles import triangle_count


def random_graph(rng, n, p=0.5):
    return build_graph(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    )


def relabelled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_structure_predicates():
    assert is_complete_bipartite(turan(7, 2).graph)
    assert is_turan2(turan(7, 2).graph)
    assert not is_turan2(turan(9, 2).graph) or True  # T_{9,2} = K_{5,4} balanced
    assert is_turan2(turan(9, 2).graph)
    assert is_complete_bipartite(build_graph(3, [(0, 2), (1, 2)]))
    assert not is_complete_bipartite(build_graph(4, [(0, 1), (2, 3)]))
    assert not is_complete_bipartite(complete_graph(3))


def test_has_clique():
    assert has_clique(complete_graph(5), 5)
    assert not has_clique(complete_graph(5), 6)
    assert not has_clique(turan(9, 3).graph, 4)
    assert has_clique(turan(9, 3).graph, 3)


def test_mantel_and_ls():
    v = check_mantel(t_n2q(8, 1).graph)
    assert v.hypothesis_met and v.conclusion_met
    v = check_mantel(turan(8, 2).graph)
    assert v.hypothesis_met is False
    v = check_ls(t_n2q(10, 3).graph, 3)
    assert v.hypothesis_met and v.conclusion_met and v.margins["t_margin"] == 0
    # hypothesis requires q < n/2: the sharpness construction fails the gate
    v = check_ls(complete_graph(6), 3)
    assert v.hypothesis_met is False
    assert v.conclusion_met is not None  # conclusion still computed


def test_er_rad_equality_characterization():
    # the extremal graph is recognized exactly, relabelled and at every n
    for n in (8, 9, 12, 13, 31, 301):
        v = check_er_rad(relabelled(t_n2q(n, 1).graph, n))
        assert v.hypothesis_met and v.conclusion_met
        assert v.witness == {"equality_case": True, "matches_extremal": True,
                             "method": "structural"}
    # equality graph must be the unique one: a different margin-0 graph?
    # Add the extra edge in the smaller part instead (odd n): fewer triangles
    g = turan(9, 2).graph
    g = add_edge(g, 5, 6)  # smaller side has floor(9/2)=4 vertices: 5..8
    v = check_er_rad(g)
    assert v.hypothesis_met is True
    assert triangle_count(g) == 5 and v.conclusion_met  # 5 >= 4 strict


def test_is_t_n2q_small_cases():
    # every relabelling of T_{n,2,q} is recognized, and only with its own q
    for n in range(3, 13):
        for q in range(1, (n + 1) // 2):
            g = relabelled(t_n2q(n, q).graph, 100 * n + q)
            assert is_t_n2q(g, q), (n, q)
            assert not is_t_n2q(g, q + 1) and not is_t_n2q(g, q - 1)
    assert not is_t_n2q(y_n2q(10, 2).graph, 2)  # same n, m and t as T_{10,2,2}
    # the star in the smaller part is another graph when n is odd
    star_in_smaller = [(5, 6), (5, 7)]  # T_{9,2} has parts 0..4 and 5..8
    assert not is_t_n2q(build_graph(9, list(turan(9, 2).graph.edges()) + star_in_smaller), 2)
    assert not is_t_n2q(turan(8, 2).graph, 1) and not is_t_n2q(complete_graph(5), 1)


def test_is_t_n2q_at_scale():
    assert is_t_n2q(relabelled(t_n2q(301, 1).graph, 1), 1)
    assert is_t_n2q(relabelled(t_n2q(1200, 2).graph, 2), 2)
    assert not is_t_n2q(relabelled(y_n2q(1200, 2).graph, 3), 2)


def test_ning_zhai_branches():
    v = check_ning_zhai(turan(8, 2).graph)
    assert v.hypothesis_met and v.conclusion_met and v.witness["turan_exception"]
    v = check_ning_zhai(kab_plus(6, 4).graph)
    assert v.hypothesis_met and v.conclusion_met and v.margins["t_margin"] == 0
    v = check_ning_zhai(empty_graph(6))
    assert v.hypothesis_met is False


def test_spec_ls_small_n_gate():
    v = check_spec_ls_y(t_n2q(10, 1).graph, 1)
    assert v.hypothesis_met is False  # n < 300q^2
    assert v.conclusion_met is True


def test_spec_ls_equality_at_scale():
    n, q = 300, 1
    tc = t_n2q(n, q)
    v = check_spec_ls_t(tc.graph, q)
    assert v.hypothesis_met is True
    assert v.conclusion_met is True and v.margins["t_margin"] == 0
    assert v.witness.get("equality_case") and v.witness.get("matches_extremal")
    assert v.witness["method"] == "structural"
    v = check_spec_ls_t(t_n2q(301, q).graph, q)
    assert v.witness == {"lambda_route": "identical graph", "equality_case": True,
                         "matches_extremal": True, "method": "structural"}
    v = check_spec_ls_y(y_n2q(n, q).graph, q)
    assert v.hypothesis_met is True and v.conclusion_met is True


def test_spec_ls_t_dominates_y():
    # lambda >= lambda(T) certified implies lambda >= lambda(Y)
    n, q = 300, 1
    g = t_n2q(n, q).graph
    vy = check_spec_ls_y(g, q)
    assert vy.hypothesis_met is True


def test_spec_bc():
    c = balogh_clemen_g2(452, 2, 1, 0)
    v = check_spec_bc(c.graph, 2)
    assert v.hypothesis_met is True and v.conclusion_met is True
    v = check_spec_bc(turan(452, 2).graph, 2)
    assert v.hypothesis_met is False  # bipartite: tau3 = 0


def test_spec_bc_skips_tau3_when_lambda_is_below():
    # G(120, 1/2) has lambda below n/2, so the hypothesis fails before the
    # exponential tau3 search, which ran for more than 20 s on this graph
    g = build_graph(120, random.Random(1).sample(edge_slots(120), 3570))
    start = time.perf_counter()
    v = check_spec_bc(g, 1)
    assert time.perf_counter() - start < 1.0
    assert v.hypothesis_met is False and v.conclusion_met is True
    assert v.witness is None and "tau3_margin" not in v.margins


def test_bn_inequality_and_equality():
    v = check_bn(turan(7, 2).graph)
    assert v.conclusion_met and v.witness["equality_case"] and v.witness["complete_bipartite"]
    for g, gap in ((complete_graph(4), 1), (complete_graph(20), 57),
                   (small_cycle(20), Fraction(32, 3))):
        v = check_bn(g)
        assert v.conclusion_met is True and v.witness is None
        lo, hi = v.margins["gap"]  # floats, for display
        assert lo == pytest.approx(gap) and hi == pytest.approx(gap)
    v = check_bn(empty_graph(5))
    assert v.conclusion_met
    assert bn_relation_exact(complete_graph(4)) == 1
    assert bn_relation_exact(turan(8, 2).graph) == 0
    assert bn_relation_exact(build_graph(2, [(0, 1)])) == 0  # K2 = K_{1,1}


def test_bn_exhaustive_tiny():
    # every graph on <= 5 vertices satisfies the bound; equality only on
    # complete bipartite graphs (no isolated vertices)
    for n in range(1, 6):
        for edges in itertools.chain.from_iterable(
            itertools.combinations([(i, j) for i in range(n) for j in range(i + 1, n)], k)
            for k in range(n * (n - 1) // 2 + 1)
        ):
            g = build_graph(n, edges)
            if 0 in g.degrees():
                continue
            sign = bn_relation_exact(g)
            assert sign >= 0
            assert (sign == 0) == is_complete_bipartite(g)


@pytest.mark.parametrize("g", [
    small_complete_bipartite(10, 10), small_complete_bipartite(9, 12),
    turan(30, 2).graph, turan(301, 2).graph,
], ids=["K10,10", "K9,12", "T30,2", "T301,2"])
def test_bn_equality_class_is_decided_on_the_exact_rung(g):
    # lambda^2 = ab exactly, so t = 0 = lambda(lambda^2 - m)/3 is proved
    v = check_bn(g)
    assert v.conclusion_met is True
    assert v.witness == {"equality_case": True, "complete_bipartite": True,
                         "method": "exact lambda^2"}
    assert v.margins["gap"] == (0.0, 0.0)


def test_bn_matches_the_exact_oracle_on_random_graphs():
    rng = random.Random(8)
    for n in range(2, 13):
        for p in (0.2, 0.5, 0.8):
            for _ in range(4):
                g = random_graph(rng, n, p)
                sign = bn_relation_exact(g)
                v = check_bn(g)
                assert v.conclusion_met is (sign >= 0)
                assert (v.witness is not None) == (sign == 0)


@pytest.mark.parametrize("m, t, iv, expected", [
    (12, 0, (Fraction(10), Fraction(12)), True),  # lambda^2 <= m: bound <= 0
    (12, 0, (Fraction(10), Fraction(13)), None),
    (12, 0, (Fraction(10), math.inf), None),
    (12, 0, (Fraction(13), Fraction(14)), False),
    (12, 0, (Fraction(13), math.inf), False),
    (6, 4, (Fraction(9), Fraction(9)), True),  # K_4: 9 * 3^2 = 81 <= 144
    (6, 4, (Fraction(9), Fraction(10)), None),  # 10 * 4^2 = 160 > 144
    (6, 4, (Fraction(10), Fraction(11)), False),
    (1, 2, (Fraction(4), Fraction(4)), True),  # 4 * 3^2 = 36 = 9t^2: equality holds
    (1, 2, (Fraction(4), Fraction(5)), None),  # s = 4 would meet the bound exactly
])
def test_bn_interval_test(m, t, iv, expected):
    assert theorems._bn_holds(m, t, iv) is expected


def test_moon_moser():
    v = check_moon_moser(complete_graph(4))
    assert v.conclusion_met and v.margins["t_margin"] == 0
    rng = random.Random(51)
    for _ in range(200):
        g = random_graph(rng, rng.randrange(1, 9))
        assert check_moon_moser(g).conclusion_met


def test_far_supersat():
    c5 = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    v = check_far_supersat(c5)
    assert v.conclusion_met and v.margins["epsilon"] == 1
    v = check_far_supersat(complete_graph(5))
    assert v.conclusion_met and v.margins["epsilon"] == 4
    assert v.margins["t_margin"] == 10 - Fraction(155, 24)
    rng = random.Random(52)
    for _ in range(100):
        g = random_graph(rng, rng.randrange(1, 9))
        assert check_far_supersat(g).conclusion_met
    # n = 40: the local-search cut is a bipartition with no intra edge
    v = check_far_supersat(turan(40, 2).graph)
    assert (v.hypothesis_met, v.conclusion_met, v.margins["epsilon"]) == (True, True, 0)


def _gnp(n, p):
    slots = edge_slots(n)
    return build_graph(n, random.Random(1).sample(slots, round(p * len(slots))))


_ABOVE_EXACT_CUT = {
    "turan_40": lambda: turan(40, 2).graph,
    "Y_300_1": lambda: y_n2q(300, 1).graph,
    "T_300_1": lambda: t_n2q(300, 1).graph,
    "T_300_2": lambda: t_n2q(300, 2).graph,
    "Y_1200_2": lambda: y_n2q(1200, 2).graph,
    "T_1200_2": lambda: t_n2q(1200, 2).graph,
    "G_300_0.5": lambda: _gnp(300, 0.5),
    "G_100_0.6": lambda: _gnp(100, 0.6),
}


@pytest.mark.parametrize("name", _ABOVE_EXACT_CUT)
def test_found_cut_decides_far_and_tri_effi(name):
    g = _ABOVE_EXACT_CUT[name]()
    for check in (check_far_supersat, lambda g: check_tri_effi(g, 1)):
        start = time.perf_counter()
        v = check(g)
        assert time.perf_counter() - start < 1.0, v.theorem_id
        assert v.conclusion_met is not None, v


def test_tri_effi_leaves_clause_ii_open_when_the_found_cut_falls_short():
    # K_{20,20} less 12 cross edges {i, 20+i}, plus a 6-edge matching in each
    # part: the found cut is 388, short of n^2/4 - 9k = 391
    edges = [(i, 20 + j) for i in range(20) for j in range(20) if not i == j < 12]
    edges += [(p + i, p + i + 1) for p in (0, 20) for i in range(0, 12, 2)]
    g = build_graph(40, edges)
    v = check_tri_effi(g, 1)
    assert g.m == 400 and v.margins["cross_margin"] == 388 - 391
    assert v.conclusion_met is None
    assert v.indeterminate_reason == "exact max cut unavailable for clause (ii)"


@pytest.mark.parametrize("exact,want", [(False, None), (True, False)])
@pytest.mark.parametrize("theorem_id,raise_by", [("FAR_BIP_SUPERSAT", 1), ("TRI_EFFI", 10)])
def test_a_failing_cut_refutes_only_when_exact(monkeypatch, theorem_id, raise_by, exact, want):
    # on T_{40,2}, epsilon 1 puts FAR's bound above t = 0, and epsilon 10
    # leaves TRI_EFFI a cut of 390 < 391
    found = theorems.bipartite_distance
    monkeypatch.setattr(theorems, "bipartite_distance", lambda g: dataclasses.replace(
        found(g), epsilon=found(g).epsilon + raise_by, exact=exact))
    v, = verify_by_id(theorem_id, turan(40, 2).graph, {})
    assert v.hypothesis_met is True and v.conclusion_met is want


def test_tri_effi():
    v = check_tri_effi(turan(10, 2).graph, 0)
    assert v.hypothesis_met and v.conclusion_met
    v = check_tri_effi(y_n2q(20, 2).graph, 2)
    assert v.hypothesis_met and v.conclusion_met
    v = check_tri_effi(build_graph(4, [(0, 1)]), 1)
    assert v.hypothesis_met is False  # lambda = 1 < n/2 = 2


def test_wilf_nikiforov():
    # T_{n,2} = K_{a,b} and the star K_{1,5} meet Nikiforov's bound
    # lambda^2 <= 2m(1 - 1/r) with equality at r = 2
    star5 = build_graph(6, [(0, i) for i in range(1, 6)])
    for g, r in [(turan(n, r).graph, r) for n, r in [(9, 3), (8, 2), (12, 4), (7, 2), (9, 2)]] + [
        (star5, 2)
    ]:
        vw = check_wilf(g, r)
        assert vw.hypothesis_met is True and vw.conclusion_met is True
        vn = check_nikiforov_m(g, r)
        assert vn.hypothesis_met is True and vn.conclusion_met is True, vn
    v = check_wilf(complete_graph(6), 5)
    assert v.hypothesis_met is False  # K6 contains K6
    v = check_wilf(complete_graph(7), 6)
    assert v.hypothesis_met is None  # clique budget r+1 > 6
    with pytest.raises(ValueError):
        check_wilf(complete_graph(3), 0)


def test_nosal_nz():
    c5 = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    v = check_nosal_nz(c5)
    # lambda = 2 < sqrt(5): hypothesis certified false
    assert v.hypothesis_met is False
    v = check_nosal_nz(book_join(3).graph)
    assert v.hypothesis_met is True and v.conclusion_met is True
    v = check_nosal_nz(turan(8, 2).graph)
    assert v.hypothesis_met is True  # lambda = sqrt(m) exactly
    assert v.conclusion_met is True  # complete bipartite exception


def test_deg_sq():
    v = check_deg_sq(build_graph(5, [(0, i) for i in range(1, 5)]))
    assert v.conclusion_met and v.witness["shape"] == "star_plus_isolated"
    v = check_deg_sq(complete_graph(3))
    assert v.witness["shape"] == "triangle_plus_isolated"
    v = check_deg_sq(complete_graph(4))
    assert v.conclusion_met and v.witness is None


def test_embed_order_q4():
    v = check_embed_order(30, 4)
    assert v.conclusion_met is True
    assert v.witness["chain"] == ["star", "complete_bipartite", "path", "matching"]
    skipped = dict(v.witness["skipped"])
    assert "cycle" in skipped  # C4 collapses into the complete bipartite entry


@pytest.mark.parametrize("orders", [
    (Ordering.LESS, Ordering.TIE, Ordering.GREATER),
    (Ordering.TIE, Ordering.LESS, Ordering.GREATER),
])
def test_embed_order_violation_is_not_hidden_by_a_refusal(monkeypatch, orders):
    # a certified violation decides the chain wherever it sits
    answers = iter(orders)
    monkeypatch.setattr(theorems, "compare_lambda", lambda g, h: next(answers))
    v = check_embed_order(30, 4)
    assert v.conclusion_met is False and v.indeterminate_reason is None


def test_embed_order_q3_documents_the_violation():
    # the star/clique pair genuinely reverses at q=3; the checker must
    # certify the violation rather than report a tie
    n, q = 30, 3
    v = check_embed_order(n, q)
    assert v.conclusion_met is False
    assert v.margins["star>clique"] == "less"
    assert v.margins["clique>path"] == "greater"
    assert v.margins["path>matching"] == "greater"
    # exact proof, independent of the CW enclosures: the charpoly/Sturm
    # intervals are disjoint with the triangle above the star
    clique = embed_into_turan2(n, small_clique(3)).graph
    star = embed_into_turan2(n, small_star(q)).graph
    clo, _ = lambda_interval_exact(clique)
    _, shi = lambda_interval_exact(star)
    assert shi < clo
    # T + K_3 has one triangle over the budget q*floor(n/2), so it lies
    # outside the class where the star is the proved maximiser
    assert triangle_count(clique) == q * (n // 2) + 1 == 46
    assert triangle_count(star) == q * (n // 2) == 45


def test_x_mass():
    v = check_x_mass(t_n2q(40, 3).graph)
    assert v.hypothesis_met is True and v.conclusion_met is True
    v = check_x_mass(t_n2q(41, 3).graph)
    assert v.hypothesis_met is False  # odd order
    v = check_x_mass(y_n2q(40, 2).graph)
    assert v.hypothesis_met is False  # matching, not a star


def test_structural_lemmas_gate_vacuity():
    # the matching construction itself sits exactly on the triangle-count
    # boundary, so the standing hypothesis fails (documents the
    # proof-by-contradiction structure)
    g = y_n2q(1200, 2).graph
    verdicts = check_structural_lemmas(g, 2)
    by_id = {v.theorem_id: v for v in verdicts}
    assert by_id["PART_INTRA_LE_Q"].hypothesis_met is False
    assert by_id["PART_BALANCED"].hypothesis_met is False


def test_structural_gate_fails_below_300q2_whatever_lambda_gives():
    # a relabelled Y has lambda(Y) exactly, which the ladder cannot order;
    # the size gate alone decides the eight gated hypotheses
    g = relabelled(y_n2q(40, 1).graph, 5)
    gated = [v for v in check_structural_lemmas(g, 1) if v.theorem_id != "X_MASS"]
    assert len(gated) == 8
    assert all(v.hypothesis_met is False for v in gated)
    # and no isomorphism test stands in for the refused comparison
    y = y_n2q(10, 1)
    h = relabelled(y.graph, 3)
    assert h.rows != y.graph.rows
    ok, how, order = theorems._hyp_lambda_ge_construction(h, y)
    assert ok is None and how == f"comparison returned {order.value}"


def test_structural_lemmas_perturbed_turan(monkeypatch):
    # T + (q-1) intra edges: the lambda gate fails (the perturbation stays
    # below the matching construction), and the edge-deficit lemma's
    # conclusion lambda < lambda(Y) is certified
    n, q = 1200, 2
    g = add_edge(turan(n, 2).graph, 0, 1)
    calls = []
    compare = theorems.compare_lambda
    monkeypatch.setattr(theorems, "compare_lambda", lambda *a: calls.append(a) or compare(*a))
    verdicts = check_structural_lemmas(g, q)
    assert len(calls) == 1  # LAMBDA_BELOW_Y reads the gate's comparison
    by_id = {v.theorem_id: v for v in verdicts}
    assert by_id["PART_INTRA_LE_Q"].hypothesis_met is False
    v47 = by_id["LAMBDA_BELOW_Y"]
    assert v47.hypothesis_met is False and v47.conclusion_met is True


def test_structural_lemmas_enclose_the_graph_once(monkeypatch):
    # PERRON_ENTRY_FLOOR and X_MASS read one enclosure at tol 1e-11
    g = add_edge(turan(40, 2).graph, 0, 1)
    tols = []
    enclose = theorems.perron_enclosure
    monkeypatch.setattr(theorems, "perron_enclosure", lambda g, tol: tols.append(tol) or enclose(g, tol))
    by_id = {v.theorem_id: v for v in check_structural_lemmas(g, 1)}
    assert tols == [1e-11]
    assert by_id["X_MASS"].hypothesis_met is True
    assert by_id["PERRON_ENTRY_FLOOR"].margins["slack"] > 0


# (theorem id, params, the direct call they must reach); the documented
# defaults are q = 1, s = 1, r = 2 and k = 1
_DISPATCH = [
    ("MANTEL", {}, check_mantel),
    ("ER_RAD", {}, check_er_rad),
    ("LS", {}, lambda g: check_ls(g, 1)),
    ("LS", {"q": 2}, lambda g: check_ls(g, 2)),
    ("NING_ZHAI", {}, check_ning_zhai),
    ("SPEC_LS_Y", {}, lambda g: check_spec_ls_y(g, 1)),
    ("SPEC_LS_Y", {"q": 2}, lambda g: check_spec_ls_y(g, 2)),
    ("SPEC_LS_T", {}, lambda g: check_spec_ls_t(g, 1)),
    ("SPEC_LS_T", {"q": 2}, lambda g: check_spec_ls_t(g, 2)),
    ("SPEC_BC", {}, lambda g: check_spec_bc(g, 1)),
    ("SPEC_BC", {"s": 2}, lambda g: check_spec_bc(g, 2)),
    ("BN_INEQ", {}, check_bn),
    ("MOON_MOSER", {}, check_moon_moser),
    ("FAR_BIP_SUPERSAT", {}, check_far_supersat),
    ("TRI_EFFI", {}, lambda g: check_tri_effi(g, 1)),
    ("TRI_EFFI", {"k": 2}, lambda g: check_tri_effi(g, 2)),
    ("WILF", {}, lambda g: check_wilf(g, 2)),
    ("WILF", {"r": 3}, lambda g: check_wilf(g, 3)),
    ("NIKIFOROV_M", {}, lambda g: check_nikiforov_m(g, 2)),
    ("NIKIFOROV_M", {"r": 3}, lambda g: check_nikiforov_m(g, 3)),
    ("NOSAL_NZ", {}, check_nosal_nz),
    ("DEG_SQ", {}, check_deg_sq),
    ("X_MASS", {}, check_x_mass),
    ("STRUCTURAL", {}, lambda g: check_structural_lemmas(g, 1)),
    ("STRUCTURAL", {"q": 2}, lambda g: check_structural_lemmas(g, 2)),
    ("EMBED_ORDER", {}, None),
    ("ROTATION", {}, None),
    ("NOPE", {}, None),
]


@pytest.mark.parametrize("tid,params,direct", _DISPATCH,
                         ids=[f"{t}-{'-'.join(p) or 'defaults'}" for t, p, _ in _DISPATCH])
def test_verify_by_id_dispatch(tid, params, direct):
    # every graph-level id reads its parameters or the documented defaults;
    # a non-default value must reach the verifier and change its verdict
    g = t_n2q(10, 2).graph
    if direct is None:
        with pytest.raises(ValueError, match="no graph-level verifier"):
            verify_by_id(tid, g, params)
        return
    want = direct(g)
    want = [v.to_jsonable() for v in (want if isinstance(want, list) else [want])]
    got = [v.to_jsonable() for v in verify_by_id(tid, g, params)]
    assert got == want
    if params:
        assert got != [v.to_jsonable() for v in verify_by_id(tid, g, {})]


def test_verify_by_id_rejects_a_parameter_no_verifier_takes():
    # a misspelt or retired name raises instead of silently falling back to
    # a default; every verifier's name is accepted by every id, as the CLI
    # passes q, s, r and k to each
    g = t_n2q(10, 2).graph
    for params in ({"exact_limit": 4, "typo_q": 9}, {"exact_limit": 4}, {"q": 1, "Q": 2}):
        with pytest.raises(ValueError, match="no verifier takes"):
            verify_by_id("FAR_BIP_SUPERSAT", g, params)
    cli_params = {"q": 2, "s": 1, "r": 2, "k": 1}
    for tid, (_, defaults) in theorems._VERIFIERS.items():
        own = {name: cli_params[name] for name in defaults}
        assert [v.to_jsonable() for v in verify_by_id(tid, g, cli_params)] == [
            v.to_jsonable() for v in verify_by_id(tid, g, own)]


def test_no_counterexamples_on_extremal_constructions():
    # no verifier may flag the library's own extremal constructions
    graphs = [
        t_n2q(20, 3).graph,
        y_n2q(20, 2).graph,
        kab_plus(6, 4).graph,
        turan(12, 2).graph,
        book_join(4).graph,
        balogh_clemen_g2(24, 3, 2, 0).graph,
    ]
    for g in graphs:
        for tid in ("MANTEL", "ER_RAD", "LS", "NING_ZHAI", "BN_INEQ",
                    "MOON_MOSER", "FAR_BIP_SUPERSAT", "DEG_SQ", "NOSAL_NZ"):
            for v in verify_by_id(tid, g, {"q": 2}):
                assert not v.is_counterexample, (tid, v)


def test_tie_comparison_yields_indeterminate():
    # a relabeled copy of the matching construction has exactly equal
    # spectral radius; the comparison refuses to certify and the verdict
    # must come back Indeterminate, never a certified boolean
    n, q = 300, 1
    y = y_n2q(n, q).graph
    perm = list(range(n))
    perm[0], perm[n - 1] = perm[n - 1], perm[0]
    g = build_graph(n, [(perm[u], perm[v]) for u, v in y.edges()])
    v = check_spec_ls_y(g, q)
    assert v.hypothesis_met is None
    assert v.is_indeterminate and not v.is_counterexample
