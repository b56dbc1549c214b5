import itertools
import random
from fractions import Fraction

import pytest

from specls.families import (
    balogh_clemen_g2,
    book_join,
    embed_into_turan2,
    kab_plus,
    small_clique,
    small_star,
    t_n2q,
    turan,
    y_n2q,
)
from specls.graph import add_edge, build_graph, complete_graph, empty_graph
from specls.roots import lambda_interval_exact
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
    is_turan2,
    verify_by_id,
)
from specls.triangles import triangle_count


def random_graph(rng, n, p=0.5):
    return build_graph(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    )


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
    for n in (8, 9, 12):
        v = check_er_rad(t_n2q(n, 1).graph)
        assert v.hypothesis_met and v.conclusion_met
        assert v.witness["matches_extremal"]
    # equality graph must be the unique one: a different margin-0 graph?
    # Add the extra edge in the smaller part instead (odd n): fewer triangles
    g = turan(9, 2).graph
    g = add_edge(g, 5, 6)  # smaller side has floor(9/2)=4 vertices: 5..8
    v = check_er_rad(g)
    assert v.hypothesis_met is True
    assert triangle_count(g) == 5 and v.conclusion_met  # 5 >= 4 strict


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


def test_bn_inequality_and_equality():
    v = check_bn(turan(7, 2).graph)
    assert v.conclusion_met and v.witness["equality_case"] and v.witness["complete_bipartite"]
    v = check_bn(complete_graph(4))
    assert v.conclusion_met and v.witness is None
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
    v = check_far_supersat(turan(40, 2).graph, exact_limit=20)
    assert v.hypothesis_met is None  # epsilon only heuristic at this size


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


def test_structural_lemmas_perturbed_turan():
    # T + (q-1) intra edges: the lambda gate fails (the perturbation stays
    # below the matching construction), and the edge-deficit lemma's
    # conclusion lambda < lambda(Y) is certified
    n, q = 1200, 2
    g = add_edge(turan(n, 2).graph, 0, 1)
    verdicts = check_structural_lemmas(g, q)
    by_id = {v.theorem_id: v for v in verdicts}
    assert by_id["PART_INTRA_LE_Q"].hypothesis_met is False
    v47 = by_id["LAMBDA_BELOW_Y"]
    assert v47.hypothesis_met is False and v47.conclusion_met is True


def test_verify_by_id_dispatch():
    g = t_n2q(10, 2).graph
    assert verify_by_id("LS", g, {"q": 2})[0].theorem_id == "LS"
    assert verify_by_id("BN_INEQ", g, {})[0].theorem_id == "BN_INEQ"
    assert len(verify_by_id("STRUCTURAL", g, {"q": 2})) >= 8
    with pytest.raises(ValueError):
        verify_by_id("NOPE", g, {})


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
