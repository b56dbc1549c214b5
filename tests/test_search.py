import json
from fractions import Fraction
from math import comb

import pytest

from specls.graph6 import parse_graph6
from specls.search import (
    SearchJob,
    _dense_dfs,
    dense_enumeration_size,
    enumerate_dense,
    floyd_sample,
    graph_from_complement,
    ratio_scan,
    run_exhaustive,
    run_local_search,
    run_random,
)
from specls.graph import is_complete_bipartite
from specls.triangles import triangle_count


def test_enumerate_counts_tiny():
    assert enumerate_dense(4, 5) == [1, 6]
    counts = enumerate_dense(5, 7)
    assert counts == [comb(10, f) for f in range(4)]
    assert sum(counts) == dense_enumeration_size(5, 7) == 176
    assert enumerate_dense(4, 7) == []


def test_enumerate_ceiling():
    with pytest.raises(ValueError):
        enumerate_dense(8, 17, ceiling=1000)


@pytest.mark.parametrize("n, qmax", [(5, 1), (6, 2), (6, 3)])
def test_dense_dfs_matches_brute_force(n, qmax):
    # every complement F with |F| <= kmax, rebuilt and counted from scratch
    ns = n * (n - 1) // 2
    min_edges = n * n // 4 + 1
    kmax = ns - min_edges
    counts = [0] * (kmax + 1)
    bad = []
    best = None
    for mask in range(1 << ns):
        f = mask.bit_count()
        if f > kmax:
            continue
        comp = tuple(s for s in range(ns) if mask >> s & 1)
        t = triangle_count(graph_from_complement(n, comp))
        margin = t - min(ns - f - n * n // 4, qmax) * (n // 2)
        counts[f] += 1
        if margin < 0:
            bad.append(comp)
        best = (margin, comp) if best is None else min(best, (margin, comp))
    got_counts, got_bad, got_best = _dense_dfs(n, min_edges, qmax, 1, 10**6)
    assert got_counts == counts
    assert sorted(got_bad) == sorted(bad)
    assert got_best == best
    # q = 3 at n = 6 is outside the theorem's q < n/2: the bound fails there
    assert bool(bad) == (qmax >= n / 2)


def test_ls_exhaustive_counts_and_determinism():
    job = SearchJob("LS", "exhaustive", {"n": [4, 5, 6], "q": [1, 2]})
    rep = run_exhaustive(job, workers=1)
    assert not rep.counterexamples
    for n_key, d in rep.detail["per_n"].items():
        n = int(n_key)
        for f, c in enumerate(d["counts"]):
            assert c == comb(n * (n - 1) // 2, f)
    outs = [run_exhaustive(job, workers=w).to_json() for w in (1, 2, 4, 8)]
    assert len(set(outs)) == 1


def test_bn_exhaustive_small():
    job = SearchJob("BN", "exhaustive", {"n": [4, 5]})
    rep = run_exhaustive(job, workers=2)
    assert not rep.counterexamples
    eq = rep.detail["equality_set"]
    assert all(e["complete_bipartite"] for e in eq)
    per_n = {}
    for e in eq:
        per_n[e["n"]] = per_n.get(e["n"], 0) + 1
        assert is_complete_bipartite(parse_graph6(e["graph6"]))
    # labeled complete bipartite graphs without isolated vertices: (2^n-2)/2
    assert per_n == {4: 7, 5: 15}


def test_book_exhaustive_small():
    job = SearchJob("BOOK", "exhaustive", {"n": [3, 4, 5]})
    rep = run_exhaustive(job, workers=1)
    assert not rep.counterexamples
    assert rep.detail["equality_set"]
    assert all(e["core_is_book"] for e in rep.detail["equality_set"])


def test_nosal_exhaustive_small():
    job = SearchJob("NOSAL", "exhaustive", {"n": [4, 5, 6]})
    rep = run_exhaustive(job, workers=1)
    assert not rep.counterexamples


def test_counterexamples_reverify_from_graph6():
    # the harness embeds graph6 witnesses; anything it reports must rebuild
    # bit-exactly (exercised via the extremal tracker witness)
    job = SearchJob("LS", "exhaustive", {"n": [6], "q": [1, 2]})
    rep = run_exhaustive(job, workers=1)
    g6 = rep.extremal_tracker["graph6"]
    g = parse_graph6(g6)
    assert g.n == 6
    assert rep.extremal_tracker["min_margin"] >= 0


def test_floyd_sample_uniform_shape():
    import random

    rng = random.Random(3)
    for _ in range(100):
        s = floyd_sample(rng, 30, 7)
        assert len(s) == len(set(s)) == 7
        assert all(0 <= x < 30 for x in s)


def test_run_random_probe_and_replay():
    job = SearchJob(
        "SPEC_LS_Y", "random",
        {"n": [30], "q": [1], "samples": [150], "perturbations": [80]}, seed=7,
    )
    rep = run_random(job)
    assert rep.graphs_examined == 230
    assert not rep.counterexamples
    tr = rep.extremal_tracker
    if tr["hypothesis_true"]:
        assert tr["min_triangles_given_hypothesis"] >= tr["required"]
    rep2 = run_random(SearchJob(
        "SPEC_LS_Y", "random",
        {"n": [30], "q": [1], "samples": [150], "perturbations": [80]}, seed=7,
    ))
    assert rep.to_json() == rep2.to_json()
    rep3 = run_random(SearchJob(
        "SPEC_LS_Y", "random",
        {"n": [30], "q": [1], "samples": [150], "perturbations": [80]}, seed=8,
    ))
    assert rep.to_json() != rep3.to_json()


@pytest.mark.parametrize("gamma", ["1/2", "64/65", "1"])
def test_run_local_search_rejects_gamma_out_of_range(gamma):
    job = SearchJob("MIN_T", "local", {"n": [10], "gamma": [gamma]})
    with pytest.raises(ValueError, match=r"\(1/2, 63/64\]"):
        run_local_search(job)


def test_run_local_search_feasible_record():
    job = SearchJob(
        "MIN_T", "local", {"n": [18], "gamma": ["2/3"], "restarts": [2]},
        budget=120, seed=5,
    )
    rep = run_local_search(job)
    tr = rep.extremal_tracker
    assert tr["t_best"] >= 0
    g = parse_graph6(tr["graph6"])
    from specls.spectral import perron_enclosure

    cert = perron_enclosure(g, 1e-9)
    assert Fraction(cert.lambda_lo) >= Fraction(2, 3) * 18 or tr["t_best"] == triangle_count(g)
    # T_{18,3} is feasible at gamma = 2/3, so the family curve is non-empty
    assert rep.detail["family_curve"]


def test_ratio_scan_turan3():
    rep = ratio_scan(["Turan:r=3"], [30, 60, 90])
    for row in rep.ratio_curve:
        assert row["C_exact"] == Fraction(2, 9)
        assert abs(row["C_mid"] - 2 / 9) < 1e-12


def test_ratio_scan_skips_bipartite():
    rep = ratio_scan(["Turan:r=2"], [20])
    assert rep.ratio_curve[0]["skipped"] == "lambda - n/2 not certified positive"


def test_ratio_scan_t_n21():
    rep = ratio_scan(["T:q=1"], [100])
    row = rep.ratio_curve[0]
    assert row["C_lo"] <= row["C_mid"] <= row["C_hi"]
    assert abs(row["C_mid"] - 0.25) < 0.05


def test_job_round_trip():
    job = SearchJob("LS", "exhaustive", {"n": [5], "q": [1]}, budget=3, seed=9)
    j2 = SearchJob.from_jsonable(json.loads(json.dumps(job.to_jsonable())))
    assert j2 == job


def test_unknown_targets():
    with pytest.raises(ValueError):
        run_exhaustive(SearchJob("XX", "exhaustive", {"n": [4]}))
    with pytest.raises(ValueError):
        run_random(SearchJob("XX", "random", {"n": [4]}))
    with pytest.raises(ValueError):
        run_local_search(SearchJob("XX", "local", {"n": [4]}))
