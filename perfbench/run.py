"""specls benchmark: one workload, timed end to end, or traced per layer.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout; specls is imported from its `src/`.
With `--trace 0` the workload's request list is run in whole passes, in a
closed loop with one client, for as many passes as fit in `--seconds` (at
least two), and every end-to-end metric of BENCHMARK.json is reported.
With `--trace 1` one untraced and one traced pass are run and every
per-layer metric is reported.  Every answer goes through the workload's
correctness gate, and every pass must give the first pass's canonical
bytes.  The last line of stdout is the JSON result; the exit code is 1
when a gate or that determinism check fails.

Times are reported in calibrated seconds.  The speed of a shared machine
drifts by tens of percent over seconds, so a fixed pure-Python kernel is
timed before the first request of a pass, after every request that ends
0.1 s or more after the previous kernel run, and at the end.  Each stretch
of requests is scaled by CAL_REF_S / (mean kernel time at its two ends): a
calibrated second is a second on a machine that runs the kernel in
CAL_REF_S.  Raw times are printed beside them.  A workload whose work runs
in worker processes (scan) reports raw seconds, and span self times in
traced runs are raw seconds.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3
MIN_PASSES = 2
TAIL_BEYOND = 10  # the tail percentile keeps this many samples above it
DEV_SEED = 1
HELD_OUT_SEED = 20261017
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CAL_REF_S = 0.010  # kernel time that defines a calibrated second
CAL_EVERY_S = 0.1  # request time between two kernel runs


def _kernel() -> int:
    """Fixed pure-Python integer work: the yardstick of machine speed."""
    s, x = 0, 12345
    for _ in range(50_000):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        s += (x >> 7).bit_count()
    return s


def calibrate() -> float:
    t0 = perf_counter()
    _kernel()
    return perf_counter() - t0


def timed(fn):
    """(fn(), calibrated seconds it took)."""
    before = calibrate()
    t0 = perf_counter()
    out = fn()
    raw = perf_counter() - t0
    return out, raw * CAL_REF_S / (0.5 * (before + calibrate()))


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> None:
    """Cap BLAS threads at nproc; must run before numpy is imported."""
    for var in _BLAS_VARS:
        try:
            wanted = int(os.environ.get(var, nproc()))
        except ValueError:
            wanted = nproc()
        os.environ[var] = str(max(1, min(wanted, nproc())))


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int) -> dict:
    import numpy

    caches = _cache_sizes()
    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in _BLAS_VARS},
        "seed": seed,
        "dev_seed": DEV_SEED,
        "held_out_seed": HELD_OUT_SEED,
    }


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile, 0 <= q <= 1."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_quantile(pass_len: int) -> float:
    """Highest quantile with TAIL_BEYOND samples above it in one pass; the
    maximum when a pass is too short to have one.  Fixed by the request
    list, so it does not move when the program gets faster."""
    if pass_len <= TAIL_BEYOND:
        return 1.0
    return max(0.5, (pass_len - 1 - TAIL_BEYOND) / (pass_len - 1))


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


class Pass:
    """Results of running a request list once, in order.

    `latencies` and `wall` are calibrated seconds (raw when `calibrated` is
    false); `raw_wall` excludes the kernel runs, so it is the time the
    requests and the loop took."""

    def __init__(self, requests, tracer=None, calibrated: bool = True) -> None:
        self.results = {}
        self.latencies = []
        self.wall = self.raw_wall = 0.0
        self.kernel_times = [calibrate()] if calibrated else []
        pending = []  # raw latencies since the last kernel run
        stretch_start = perf_counter()
        for i, req in enumerate(requests):
            if tracer is not None:
                tracer.request = f"{i}:{req.kind}"
            t0 = perf_counter()
            try:
                result = req.call()
            except Exception as exc:  # a failed operation, reported by the gate
                result = exc
            pending.append(perf_counter() - t0)
            self.results[req.key] = result
            stretch = perf_counter() - stretch_start
            if stretch >= CAL_EVERY_S or i == len(requests) - 1:
                scale = 1.0
                if calibrated:
                    self.kernel_times.append(calibrate())
                    scale = CAL_REF_S / (0.5 * (self.kernel_times[-2] + self.kernel_times[-1]))
                self.latencies.extend(x * scale for x in pending)
                self.wall += stretch * scale
                self.raw_wall += stretch
                pending = []
                stretch_start = perf_counter()
        if tracer is not None:
            tracer.request = None

    def canon(self, req) -> str:
        result = self.results[req.key]
        return repr(result) if isinstance(result, Exception) else req.canon(result)


def _layer_metrics(names, tracer, traced: Pass, untraced: Pass, outcome) -> dict:
    from perfbench import spans

    table = spans.layer_table(tracer.spans)
    pass_ids = {s[4] for s in tracer.spans if s[4] not in (None, "setup")}
    values = {
        "spectral.compare_lambda.enclosures_per_decision": (
            spans.nested_count(tracer.spans, "spectral.perron_enclosure", "spectral.compare_lambda")
            / max(1, table.get("spectral.compare_lambda", {}).get("calls", 0))),
        "verdicts.refused": outcome.refusals,
        "verdicts.refusal_rate": outcome.refusals / max(1, outcome.decisions),
        "bench.traced_wall_s": traced.wall,
        "bench.untraced_wall_s": untraced.wall,
        "bench.trace_overhead_s": traced.wall - untraced.wall,
        "bench.trace_remainder_s": traced.raw_wall - spans.root_time(tracer.spans, pass_ids),
    }
    out = {}
    for name in names:
        if name in values:
            out[name] = values[name]
            continue
        layer, _, kind = name.rpartition(".")
        if kind in ("calls", "self_s"):
            out[name] = table.get(layer, {}).get(kind, 0)
        elif name in spans.COUNTERS:
            out[name] = tracer.counters.get(name, 0)
        else:
            raise KeyError(f"no rule computes per-layer metric {name!r}")
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool, spec: dict,
            tiny: bool = False, import_s: float = 0.0, out_dir: Path | None = None):
    """Run one workload; returns (result dict, human-readable lines)."""
    from perfbench import spans
    from perfbench.workloads import WORKLOADS, evaluate

    wl = WORKLOADS[workload]
    lines = []
    if not trace:
        setups = []
        for _ in range(SETUP_REPS):
            requests, setup_s = timed(lambda: wl.build(seed, tiny))
            setups.append(setup_s)
        spans.assert_untraced()
        start = perf_counter()
        passes = []
        # whole passes only: at least MIN_PASSES, then another one while it
        # should end within `seconds`
        while len(passes) < MIN_PASSES or (
                (perf_counter() - start) * (len(passes) + 1) / len(passes) <= seconds):
            passes.append(Pass(requests, calibrated=wl.calibrated))
    else:
        requests = wl.build(seed, tiny)
        spans.assert_untraced()
        untraced = Pass(requests, calibrated=wl.calibrated)
        tracer = spans.Tracer()
        tracer.install()
        try:
            tracer.request = "setup"
            traced = Pass(wl.build(seed, tiny), tracer, calibrated=wl.calibrated)
        finally:
            tracer.uninstall()
        spans.assert_untraced()
        passes = [untraced, traced]
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            tracer.write_jsonl(out_dir / f"spans-{workload}-{seed}.jsonl")

    outcomes = [evaluate(requests, p.results) for p in passes]
    decisions = sum(o.decisions for o in outcomes)
    refusal_rate = sum(o.refusals for o in outcomes) / max(1, decisions)
    # same-seed determinism: every pass gives the first pass's bytes
    mismatched = sorted({req.kind for p in passes[1:] for req in requests
                         if p.canon(req) != passes[0].canon(req)})
    errors = [e for o in outcomes for e in o.errors]
    errors += [f"{kind}: same-seed bytes differ" for kind in mismatched]
    failed = sum(o.failed for o in outcomes) + len(mismatched)
    attempted = len(requests) * len(passes)

    if not trace:
        walls = [p.wall for p in passes]
        latencies = [x for p in passes for x in p.latencies]
        tail_q = tail_quantile(len(requests))
        values = {
            "setup_s": import_s + statistics.median(setups),
            "wall_s": statistics.median(walls),
            "items_per_s": sum(o.items for o in outcomes) / sum(walls),
            "request_p50_ms": 1000.0 * statistics.median(latencies),
            "request_tail_ms": 1000.0 * percentile(latencies, tail_q),
            "certified_rate": 1.0 - refusal_rate,
            "peak_rss_mb": peak_rss_mb(),
        }
        metric_specs = spec["end_to_end"]
        kernel = [k for p in passes for k in p.kernel_times] or [float("nan")]
        lines.append(f"passes={len(passes)} requests/pass={len(requests)} "
                     f"latency samples={len(latencies)} tail=p{100 * tail_q:.1f} "
                     f"refusal_rate={refusal_rate:.4f}")
        lines.append(f"raw wall_s={statistics.median(p.raw_wall for p in passes):.4f} "
                     f"kernel median={statistics.median(kernel):.4f} s "
                     f"min={min(kernel):.4f} max={max(kernel):.4f} (CAL_REF_S={CAL_REF_S})")
    else:
        metric_specs = spec["per_layer"]
        values = _layer_metrics([m["name"] for m in metric_specs], tracer, traced, untraced,
                                outcomes[-1])
        lines.append(f"trace overhead {traced.wall - untraced.wall:+.3f} s on "
                     f"{untraced.wall:.3f} s; {len(tracer.spans)} spans; self times leave "
                     f"{values.get('bench.trace_remainder_s', 0.0):.6f} s unaccounted")
    metrics = {}
    for m in metric_specs:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        lines.append(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    lines.extend(f"FAILED {e}" for e in errors)
    result = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEV_SEED)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "specls" / "__init__.py").is_file():
        print(f"specls sources not found under {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    cap_blas_threads()
    sys.path[:0] = [str(src), str(ROOT)]

    def import_specls():
        import specls.search  # noqa: F401  (timed: import is part of set-up)

    _, import_s = timed(import_specls)
    import specls
    if Path(specls.__file__).resolve().parent != src / "specls":
        print(f"imported specls from {specls.__file__}, not from {src}", file=sys.stderr)
        return 2

    result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace), spec,
                            import_s=import_s, out_dir=ROOT / "perfbench" / "out")
    for child in multiprocessing.active_children():
        child.join()
    print(json.dumps({"environment": environment(args.seed), "workload": args.workload}))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
