import argparse
import json
import os
import random

import pytest

from specls.cli import build_parser, main
from specls.graph6 import emit_graph6
from specls.families import t_n2q
from specls.reporting import ReportDocument, verdicts_to_csv
from specls.theorems import check_ls


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_construct(capsys):
    code, out, _ = run(capsys, "construct", "Y:n=10,q=2", "--json")
    assert code == 0
    doc = json.loads(out)
    item = doc["items"][0]
    assert item["m"] == 27 and item["t"] == 10 and item["predictions_match"]


def test_construct_bad_spec(capsys):
    code, _, err = run(capsys, "construct", "Y:n=10,q=99")
    assert code == 2 and "error" in err


def test_spectral(capsys):
    code, out, _ = run(capsys, "spectral", "--spec", "Turan:n=7,r=2")
    assert code == 0
    row = json.loads(out.splitlines()[0])
    assert row["lambda_lo"] <= 12 ** 0.5 <= row["lambda_hi"]
    assert set(row) >= {"lambda_lo", "lambda_hi", "residual", "converged"}


def test_count(capsys):
    code, out, _ = run(capsys, "count", "--spec", "Kab+:a=6,b=4", "--tau3", "--epsilon")
    assert code == 0
    row = json.loads(out.splitlines()[0])
    assert row["t"] == 4 and row["tau3"] == 1 and row["epsilon"] == 1


def test_count_epsilon_is_exact_at_24_vertices(capsys):
    from test_triangles import _max_cut_sweep_reference, random_graph

    g = random_graph(random.Random(30), 24)
    code, out, _ = run(capsys, "count", "--g6", emit_graph6(g), "--epsilon")
    assert code == 0
    row = json.loads(out.splitlines()[0])
    assert row["epsilon_exact"] is True
    assert row["epsilon"] == g.m - _max_cut_sweep_reference(g)[0]


@pytest.mark.parametrize("argv", [
    ["count", "--spec", "Turan:n=40,r=2", "--epsilon"],
    ["verify", "FAR_BIP_SUPERSAT", "--spec", "Turan:n=40,r=2"],
    ["verify", "TRI_EFFI", "--spec", "Turan:n=40,r=2"],
    ["verify", "STRUCTURAL", "--spec", "Turan:n=40,r=2"],
])
def test_exact_limit_above_the_exact_cut_limit_is_a_usage_error(capsys, argv):
    # the max cut is chosen from n alone, so no subcommand takes the flag
    code, out, err = run(capsys, *argv, "--exact-limit", "40")
    assert code == 2 and not out
    assert "unrecognized arguments: --exact-limit" in err


@pytest.mark.parametrize("argv", [
    ["enumerate", "--n", "-2", "--min-edges", "0"],
    ["enumerate", "--n", "-1", "--min-edges", "0"],
    ["verify", "BOOK", "--exhaustive", "--n", "-1"],
    ["verify", "BN", "--exhaustive", "--n", "-3"],
])
def test_a_negative_n_is_a_usage_error(capsys, argv):
    # exit 2 with n named, not a report and exit 1, the counterexample code
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out and f"error: n={argv[argv.index('--n') + 1]}: " in err


def test_verify_ok_and_csv(capsys):
    code, out, _ = run(capsys, "verify", "LS", "--spec", "T:n=10,q=3", "--q", "3", "--csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("theorem_id,n,params,hypothesis,conclusion")
    assert lines[1].startswith("LS,10,")


def test_verify_indeterminate_exit(capsys):
    # K_7 detection is past the exact clique limit, so WILF refuses
    code, out, _ = run(capsys, "verify", "WILF", "--spec", "Turan:n=12,r=3", "--r", "6")
    assert code == 3


def test_verify_tri_effi_decides_above_the_exact_cut_limit(capsys):
    # n = 40: the local-search cut of 400 reaches n^2/4 - 9k = 391
    code, out, _ = run(capsys, "verify", "TRI_EFFI", "--spec", "Turan:n=40,r=2", "--json")
    verdict = json.loads(out)["items"][0]
    assert verdict["conclusion_met"] is True and verdict["margins"]["cross_margin"] == "9/1"
    assert code == 0


def test_verify_exhaustive(capsys):
    code, out, _ = run(capsys, "verify", "LS", "--n", "5", "--exhaustive", "--json")
    assert code == 0
    doc = json.loads(out)
    rep = doc["items"][0]
    assert rep["graphs_examined"] > 0 and not rep["counterexamples"]


@pytest.mark.parametrize("target", ["BN", "BOOK", "NOSAL"])
def test_verify_exhaustive_runs_the_full_scan_of_its_target(capsys, target):
    code, out, _ = run(capsys, "verify", target, "--exhaustive", "--n", "5", "--json")
    assert code == 0
    verified = json.loads(out)["items"]
    code, out, _ = run(capsys, "search", "--target", target, "--mode", "exhaustive",
                       "--n", "5", "--json")
    assert code == 0
    assert verified == json.loads(out)["items"]
    assert verified[0]["job"]["target"] == target


@pytest.mark.parametrize("error", [RuntimeError, ArithmeticError])
def test_an_internal_fault_is_exit_4_not_a_counterexample(capsys, monkeypatch, error):
    from specls import search

    def broken(n, target):
        raise error("n=5: the orbit weights add up to 1014, not 2^C(n,2)")

    monkeypatch.setattr(search, "_orbit_scan", broken)
    code, out, err = run(capsys, "verify", "BOOK", "--exhaustive", "--n", "5")
    assert code == 4 and not out
    assert err.startswith("Traceback") and "in broken" in err
    assert err.endswith(
        f"internal error: {error.__name__}: n=5: the orbit weights add up to 1014, not 2^C(n,2)\n")


def test_verify_bad_file(capsys, tmp_path):
    p = tmp_path / "bad.g6"
    p.write_text("thisisnotgraph6!!!\n")
    code, _, err = run(capsys, "verify", "BN_INEQ", "--input", str(p))
    assert code == 2


def test_verify_graph6_input(capsys, tmp_path):
    p = tmp_path / "g.g6"
    p.write_text(emit_graph6(t_n2q(10, 3).graph) + "\n")
    code, out, _ = run(capsys, "verify", "LS", "--input", str(p), "--q", "3", "--json")
    assert code == 0


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "5", "--min-edges", "7")
    assert code == 0
    row = json.loads(out.splitlines()[0])
    assert row["visited"] == row["closed_form"] == 176


def test_enumerate_workers_give_identical_bytes(capsys):
    outs = [run(capsys, "enumerate", "--n", "6", "--min-edges", "10", "--workers", w)
            for w in ("1", "2")]
    assert outs[0] == outs[1]
    assert json.loads(outs[0][1])["visited"] == 1 + 15 + 105 + 455 + 1365 + 3003


def test_search_local_gamma_out_of_range_is_a_usage_error(capsys):
    code, _, err = run(capsys, "search", "--target", "MIN_T", "--mode", "local",
                       "--n", "10", "--gamma", "0.5")
    assert code == 2 and "gamma must lie in (1/2, 63/64]" in err


def test_search_random(capsys):
    code, out, _ = run(
        capsys, "search", "--target", "SPEC_LS_Y", "--mode", "random",
        "--n", "20", "--q", "1", "--samples", "30", "--perturbations", "10",
        "--seed", "3", "--json",
    )
    assert code in (0, 3)
    doc = json.loads(out)
    assert doc["items"][0]["graphs_examined"] == 40


def test_search_job_file(capsys, tmp_path):
    p = tmp_path / "job.json"
    p.write_text(json.dumps({
        "target": "BN", "mode": "exhaustive", "grid": {"n": [4]},
    }))
    code, out, _ = run(capsys, "search", "--job", str(p), "--json")
    assert code == 0


@pytest.mark.parametrize("field, value", [
    ("target", 5), ("mode", ["exhaustive"]), ("grid", {"n": 5}), ("grid", [5]),
    ("budget", "10"), ("seed", 1.5), ("ceiling", "x"),
    ("grid", {"n": ["5"]}), ("grid", {"n": []}), ("grid", {"n": [5], "gamma": [[1]]}),
    ("grid", {"n": [True]}),
])
def test_search_job_file_with_a_malformed_field_is_a_usage_error(capsys, tmp_path, field, value):
    # exit 2, not a traceback and exit 1, which reads as a counterexample
    job = {"target": "BOOK", "mode": "exhaustive", "grid": {"n": [5]}, field: value}
    p = tmp_path / "job.json"
    p.write_text(json.dumps(job))
    code, out, err = run(capsys, "search", "--job", str(p), "--json")
    assert code == 2 and out == "" and err.startswith("error: job ") and repr(field) in err


@pytest.mark.parametrize("grid, key", [
    ({"n": [12, 40], "q": [1, 2], "samples": [5, 50]}, "n"),
    ({"n": [12], "samples": [-3], "perturbations": [-2]}, "samples"),
])
def test_search_job_file_that_a_random_run_would_drop_is_a_usage_error(
        capsys, tmp_path, grid, key):
    # a second grid value or a negative count exits 2, not 0 after running
    # part of the job, or nothing
    p = tmp_path / "job.json"
    p.write_text(json.dumps({"target": "SPEC_LS_Y", "mode": "random", "grid": grid}))
    code, out, err = run(capsys, "search", "--job", str(p), "--json")
    assert code == 2 and out == "" and repr(key) in err


def test_search_job_file_that_repeats_an_exhaustive_n_is_a_usage_error(capsys, tmp_path):
    # exit 2, not a report that examines and lists every graph at n = 5 twice
    p = tmp_path / "job.json"
    p.write_text(json.dumps({"target": "BOOK", "mode": "exhaustive", "grid": {"n": [5, 5]}}))
    code, out, err = run(capsys, "search", "--job", str(p), "--json")
    assert code == 2 and out == "" and "error: n=5: the n grid [5, 5] lists it twice" in err


def test_search_job_file_that_is_not_an_object_is_a_usage_error(capsys, tmp_path):
    p = tmp_path / "job.json"
    p.write_text("[1, 2]")
    code, _, err = run(capsys, "search", "--job", str(p))
    assert code == 2 and "JSON object" in err


@pytest.mark.parametrize("flags", [[], ["--seed", "7"]])
def test_search_job_file_seed_is_the_provenance_seed(capsys, tmp_path, flags):
    p = tmp_path / "job.json"
    p.write_text(json.dumps({
        "target": "SPEC_LS_Y", "mode": "random", "grid": {"n": [10], "samples": [2]},
        "seed": 5,
    }))
    _, out, _ = run(capsys, "search", "--job", str(p), *flags, "--json")
    prov = json.loads(out)["provenance"]
    assert prov["job"]["seed"] == prov["seed"] == 5


def test_ratio_scan_cli(capsys):
    code, out, _ = run(capsys, "ratio-scan", "--families", "Turan:r=3",
                       "--n-grid", "30:60:30", "--json")
    assert code == 0
    doc = json.loads(out)
    curve = doc["items"][0]["ratio_curve"]
    assert len(curve) == 2 and all(r["C_exact"] == "2/9" for r in curve)


def test_family_root(capsys):
    code, out, _ = run(capsys, "family-root", "Y_even", "--n", "6")
    assert code == 0
    row = json.loads(out.splitlines()[0])
    assert abs(row["lo"] - 3.392344345629) < 1e-6


def test_usage_errors(capsys):
    assert main(["nope"]) == 2
    assert main([]) == 2
    assert main(["verify"]) == 2
    code, _, err = run(capsys, "verify", "LS", "--exhaustive")  # missing --n
    assert code == 2


@pytest.mark.parametrize("q", ["0", "-3"])
def test_ls_exhaustive_with_q_below_1_is_a_usage_error(capsys, q):
    code, out, err = run(capsys, "search", "--target", "LS", "--mode", "exhaustive",
                         "--n", "6", "--q", q)
    assert code == 2 and not out and f"error: q={q}: the LS check needs q >= 1" in err


def test_ls_exhaustive_without_a_small_q_is_a_usage_error(capsys):
    code, _, err = run(capsys, "verify", "LS", "--n", "2", "--exhaustive")
    assert code == 2 and "error: n=2: the q grid [1] has no q < n/2" in err
    code, _, err = run(capsys, "search", "--target", "LS", "--mode", "exhaustive",
                       "--n", "6", "--q", "3")
    assert code == 2 and "error: n=6: the q grid [3] has no q < n/2" in err


def test_workers_env_default(capsys, monkeypatch):
    monkeypatch.setenv("SPECLS_WORKERS", "2")
    code, out, _ = run(capsys, "verify", "LS", "--n", "4", "--exhaustive", "--json")
    assert code == 0


def test_bad_workers_env_is_a_usage_error_only_where_workers_is_read(capsys, monkeypatch):
    monkeypatch.setenv("SPECLS_WORKERS", "abc")
    code, out, _ = run(capsys, "family-root", "Y_even", "--n", "6")
    assert code == 0 and out
    for argv in (["enumerate", "--n", "4", "--min-edges", "5"],
                 ["verify", "LS", "--n", "4", "--exhaustive"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out and "invalid int value: 'abc'" in err
    code, out, _ = run(capsys, "enumerate", "--n", "4", "--min-edges", "5", "--workers", "2")
    assert code == 0 and out
    monkeypatch.setenv("SPECLS_WORKERS", "2")
    assert build_parser().parse_args(["enumerate", "--n", "4", "--min-edges", "5"]).workers == 2


SHARED_FLAGS = {"--tol", "--tol-floor", "--seed", "--workers", "--csv", "--json"}
FLAGS_READ = {
    "construct": {"--json"},
    "spectral": {"--tol", "--json"},
    "count": {"--json"},
    "verify": {"--workers", "--csv", "--json"},
    "enumerate": {"--workers", "--json"},
    "search": {"--seed", "--workers", "--json"},
    "ratio-scan": {"--tol-floor", "--json"},
    "family-root": {"--tol", "--json"},
}


def test_each_subcommand_takes_only_the_shared_flags_it_reads():
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    assert set(subparsers) == set(FLAGS_READ)
    options = {name: {o for a in p._actions for o in a.option_strings}
               for name, p in subparsers.items()}
    assert {name: opts & SHARED_FLAGS for name, opts in options.items()} == FLAGS_READ
    assert sum(map(len, FLAGS_READ.values())) == 16
    assert "--s" not in options["search"]


def test_an_unread_flag_is_a_usage_error(capsys):
    code, _, err = run(capsys, "verify", "LS", "--spec", "T:n=10,q=3", "--seed", "3")
    assert code == 2 and "unrecognized arguments: --seed 3" in err
    code, _, _ = run(capsys, "verify", "LS", "--spec", "T:n=10,q=3", "--tol-floor", "1e-6")
    assert code == 2


def test_provenance_records_only_the_flags_the_command_has(capsys):
    _, out, _ = run(capsys, "ratio-scan", "--families", "Turan:r=3", "--n-grid", "30:30:1",
                    "--json")
    assert json.loads(out)["provenance"] == {"tol_floor": 1e-12}
    _, out, _ = run(capsys, "construct", "Y:n=10,q=2", "--json")
    assert json.loads(out)["provenance"] == {}


def test_report_document_round_trip():
    doc = ReportDocument(command=["verify", "LS"])
    doc.add("verdict", {"x": 1})
    doc.provenance = {"seed": 0}
    text = doc.to_json()
    d = json.loads(text)
    doc2 = ReportDocument(d["command"], d["items"], d["provenance"], d["tool_version"])
    assert doc2.to_json() == text


def test_csv_schema_golden():
    v = check_ls(t_n2q(10, 3).graph, 3)
    csv_text = verdicts_to_csv([v])
    assert csv_text.splitlines()[0] == (
        "theorem_id,n,params,hypothesis,conclusion,margin_lo,margin_hi,witness_ref"
    )
    assert csv_text.splitlines()[1] == 'LS,10,"{""m"":28,""q"":3}",true,true,0,0,'


def test_certificate_json_schema_golden(capsys):
    code, out, _ = run(capsys, "spectral", "--spec", "Turan:n=4,r=2", "--json")
    doc = json.loads(out)
    cert = doc["items"][0]
    assert sorted(cert) == ["converged", "graph", "kind", "lambda_hi", "lambda_lo", "residual"]


def test_verify_embed_order_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "EMBED_ORDER", "--n", "30", "--q", "4")
    assert code == 0
    # the q=3 chain is certified violated: machine-checkable exit 1
    code, out, _ = run(capsys, "verify", "EMBED_ORDER", "--n", "30", "--q", "3")
    assert code == 1


def test_verify_bn_alias(capsys):
    code, _, _ = run(capsys, "verify", "BN", "--g6", "C~")
    assert code == 0


def test_count_edges_input(capsys):
    code, out, _ = run(capsys, "count", "--edges", "0-1,1-2,0-2", "--n", "3")
    assert code == 0
    assert json.loads(out.splitlines()[0])["t"] == 1


def test_golden_verdict_schema(tmp_path):
    from pathlib import Path

    from specls.reporting import canonical_json
    from specls.families import t_n2q, turan
    from specls.spectral import perron_enclosure

    golden = Path(__file__).parent / "golden"
    v = check_ls(t_n2q(10, 3).graph, 3)
    assert canonical_json(v.to_jsonable()) + "\n" == (golden / "verdict_ls.json").read_text()
    c = perron_enclosure(turan(4, 2).graph, 1e-9)
    assert canonical_json(c.to_jsonable()) + "\n" == (
        golden / "certificate_k22.json"
    ).read_text()


@pytest.mark.parametrize("target, examined", [("BOOK", 0), ("NOSAL", 1), ("BN", 0)])
def test_full_scan_at_n_0_counts_the_empty_graph_as_at_n_1(capsys, target, examined):
    reports = []
    for n in ("0", "1"):
        code, out, err = run(capsys, "search", "--target", target, "--mode", "exhaustive", "--n", n)
        assert code == 0 and not err
        reports.append(json.loads(out))
    assert [r["graphs_examined"] for r in reports] == [examined, examined]
    assert all(not r["counterexamples"] and r["detail"]["equality_set"] == [] for r in reports)


def test_full_scan_ceiling(tmp_path):
    from specls.search import SearchJob, run_exhaustive

    job = SearchJob("BN", "exhaustive", {"n": [8]}, ceiling=10**6)
    with pytest.raises(ValueError):
        run_exhaustive(job)
