"""Tests of the benchmark harness itself: python -m pytest perfbench -q"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import specls.search  # noqa: E402
import specls.spectral  # noqa: E402
import specls.theorems  # noqa: E402
from perfbench import run, spans  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_benchmark_json_matches_the_harness():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup == {"name": "setup_s", "unit": "s", "better": "lower",
                     "bound": max(m["bound"] for m in SPEC["end_to_end"])}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_smoke_run(workload):
    result, lines = run.measure(workload, seed=7, seconds=0, trace=False, spec=SPEC, tiny=True)
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values()), result["metrics"]


def test_traced_tiny_run_reports_every_layer_metric():
    result, lines = run.measure("certify", seed=7, seconds=0, trace=True, spec=SPEC, tiny=True)
    assert result["correct"], lines
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["spectral.perron_enclosure.calls"]["value"] > 0
    assert metrics["verdicts.refused"]["value"] > 0
    assert spans.installed_wrappers() == []


def test_self_times_account_for_the_traced_wall_time():
    requests = WORKLOADS["audit"].build(3, True)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = run.Pass(requests, tracer)
    finally:
        tracer.uninstall()
    self_total = sum(spans.self_times(tracer.spans))
    remainder = traced.raw_wall - spans.root_time(tracer.spans)
    assert self_total + remainder == pytest.approx(traced.raw_wall, abs=1e-9)
    assert 0 <= remainder < 0.1 * traced.raw_wall
    # every request is one top-level span, named after its entry point
    assert sum(s[3] is None for s in tracer.spans) == len(requests)


def test_wrappers_cover_every_binding_and_are_removed():
    original = specls.spectral.perron_enclosure
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert specls.search.perron_enclosure is not original
        assert specls.theorems.perron_enclosure is specls.spectral.perron_enclosure
        with pytest.raises(RuntimeError):
            spans.assert_untraced()
        with pytest.raises(RuntimeError):  # no untraced timing under wrappers
            run.measure("audit", seed=1, seconds=0, trace=False, spec=SPEC, tiny=True)
    finally:
        tracer.uninstall()
    assert specls.search.perron_enclosure is original
    assert specls.theorems.perron_enclosure is original
    spans.assert_untraced()


def test_self_time_subtracts_children():
    spans_ = [["a", 0.0, 10.0, None, "r"], ["b", 1.0, 4.0, 0, "r"], ["c", 2.0, 3.0, 1, "r"]]
    assert spans.self_times(spans_) == [7.0, 2.0, 1.0]
    assert spans.nested_count(spans_, "c", "a") == 1
    assert spans.nested_count(spans_, "a", "c") == 0


def test_tail_quantile_keeps_ten_samples_beyond():
    assert run.tail_quantile(2) == 1.0
    q = run.tail_quantile(45)
    xs = list(range(45))
    assert sum(x > run.percentile(xs, q) for x in xs) == 10


def test_same_seed_same_inputs():
    for name, workload in WORKLOADS.items():
        a = [r.key for r in workload.build(11, True)]
        assert a == [r.key for r in workload.build(11, True)], name


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "probe", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
