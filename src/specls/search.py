"""Exhaustive small-n verification and randomized search against the
theorems and conjectures.

One sharded complement DFS (`_dense_dfs` over `_ls_shard`) serves both the
LS exhaustive check and the `enumerate` count: graphs with at least
min_edges edges correspond to subsets of the edge-slot lattice of bounded
size, walked in colex order in 32 shards (the patterns of the first five
slots) with incremental maintenance of the complement statistics (edge
count f, cherries, triangles), so each visited graph costs a handful of
integer operations:

    t(G) = C(n,3) - f*(n-2) + cherries(F) - t(F)   for G = K_n - F.

Full 2^C(n,2) scans (needed by the inequality and conjecture targets) run
as fixed-size numpy chunks with batched eigensolves; anything within a
float band of a bound is re-decided exactly by `roots.sign_at_lambda`
(integer characteristic polynomial and Sturm chains), so reported
counterexamples and equality sets are certified, not floating-point
guesses. Chunk boundaries and shard counts are constants, so reports are
byte-identical for any worker count.
"""

from __future__ import annotations

import functools
import json
import multiprocessing
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Callable, Optional

import numpy as np

from .families import build_from_spec, book_join, l_nsalpha, y_n2q
from .graph import Graph, adjacency_matrix, build_graph, complete_graph, induced, mask_of
from .graph import is_complete_bipartite, remove_edge, toggle_edge
from .graph6 import emit_graph6
from .morphism import are_isomorphic
from .roots import FamilyPolynomial, family_lambda, sign_at_lambda
from .spectral import Ordering, _decide, certify_lambda_ge_frac, exact_lambda, perron_enclosure
from .theorems import bn_relation_exact, verify_by_id
from .triangles import triangle_count
from .verdicts import jsonable_value

SHARDS = 32
_SCAN_CHUNK_BITS = 15
_FLOAT_BAND = 1e-6
DEFAULT_CEILING = 200_000_000

EXHAUSTIVE_TARGETS = ("LS", "BN", "BOOK", "NOSAL")


@dataclass
class SearchJob:
    target: str
    mode: str  # exhaustive | random | local | ratio
    grid: dict = field(default_factory=dict)
    budget: int = 0
    seed: int = 0
    ceiling: int = DEFAULT_CEILING

    def to_jsonable(self) -> dict:
        return {
            "target": self.target,
            "mode": self.mode,
            "grid": {k: list(v) for k, v in sorted(self.grid.items())},
            "budget": self.budget,
            "seed": self.seed,
            "ceiling": self.ceiling,
        }

    @staticmethod
    def from_jsonable(d: dict) -> "SearchJob":
        return SearchJob(
            d["target"], d["mode"], d.get("grid", {}), d.get("budget", 0),
            d.get("seed", 0), d.get("ceiling", DEFAULT_CEILING),
        )


@dataclass
class SearchReport:
    job: SearchJob
    graphs_examined: int = 0
    counterexamples: list = field(default_factory=list)
    ties: int = 0
    extremal_tracker: dict = field(default_factory=dict)
    ratio_curve: list = field(default_factory=list)
    detail: dict = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        return {
            "job": self.job.to_jsonable(),
            "graphs_examined": self.graphs_examined,
            "counterexamples": self.counterexamples,
            "ties": self.ties,
            "extremal_tracker": jsonable_value(self.extremal_tracker),
            "ratio_curve": jsonable_value(self.ratio_curve),
            "detail": jsonable_value(self.detail),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Edge-slot lattice helpers (colex order).
# ---------------------------------------------------------------------------


def edge_slots(n: int) -> list[tuple[int, int]]:
    return [(i, j) for j in range(n) for i in range(j)]


def graph_slots(g: Graph) -> np.ndarray:
    """The edges of g as sorted slot indices in the order of `edge_slots`."""
    jv, iu = np.tril_indices(g.n, -1)
    return np.flatnonzero(adjacency_matrix(g)[iu, jv])


def graph_from_complement(n: int, comp_slots: tuple[int, ...]) -> Graph:
    slots = edge_slots(n)
    g = complete_graph(n)
    rows = list(g.rows)
    for s in comp_slots:
        u, v = slots[s]
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
    m = sum(r.bit_count() for r in rows) // 2
    return Graph(n, tuple(rows), m)


def dense_enumeration_size(n: int, min_edges: int) -> int:
    slots = n * (n - 1) // 2
    kmax = slots - min_edges
    if kmax < 0:
        return 0
    return sum(comb(slots, k) for k in range(kmax + 1))


# ---------------------------------------------------------------------------
# The dense DFS over complement patterns: LS exhaustive runs and enumerate.
# ---------------------------------------------------------------------------

_SHARD_PREFIX_BITS = 5  # shard by membership pattern of the first 5 slots


def _ls_shard(args: tuple) -> tuple:
    """One complement-pattern shard of the dense triangle-count check."""
    n, kmax, qmax, pattern = args
    slots = edge_slots(n)
    ns = len(slots)
    prefix = min(_SHARD_PREFIX_BITS, ns)
    su = [e[0] for e in slots]
    sv = [e[1] for e in slots]
    c3 = comb(n, 3)
    nm2 = n - 2
    half = n // 2
    floor_q = n * n // 4
    req = [0] * (kmax + 1)
    for f in range(kmax + 1):
        excess = (ns - f) - floor_q
        req[f] = min(excess, qmax) * half
    rows = [0] * n
    deg = [0] * n
    base: list[int] = []
    f0 = ch0 = tf0 = 0
    for s in range(prefix):
        if pattern >> s & 1:
            u, v = su[s], sv[s]
            tf0 += (rows[u] & rows[v]).bit_count()
            ch0 += deg[u] + deg[v]
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            deg[u] += 1
            deg[v] += 1
            base.append(s)
            f0 += 1
    counts = [0] * (kmax + 1)
    bad: list[tuple[int, ...]] = []
    best = (1 << 60, ())
    if f0 > kmax:
        return counts, bad, best
    stack = list(base)

    def rec(start: int, f: int, ch: int, tf: int) -> None:
        nonlocal best
        counts[f] += 1
        t = c3 - f * nm2 + ch - tf
        margin = t - req[f]
        if margin < 0:
            bad.append(tuple(stack))
        if margin < best[0]:
            best = (margin, tuple(stack))
        if f == kmax:
            return
        for s in range(start, ns):
            u, v = su[s], sv[s]
            common = (rows[u] & rows[v]).bit_count()
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            du, dv = deg[u], deg[v]
            deg[u] = du + 1
            deg[v] = dv + 1
            stack.append(s)
            rec(s + 1, f + 1, ch + du + dv, tf + common)
            stack.pop()
            rows[u] &= ~(1 << v)
            rows[v] &= ~(1 << u)
            deg[u] = du
            deg[v] = dv

    rec(prefix, f0, ch0, tf0)
    return counts, bad, best


def _pool_map(fn: Callable, items: list, workers: int) -> list:
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(workers) as pool:
        return pool.map(fn, items)


def _dense_dfs(n: int, min_edges: int, qmax: int, workers: int, ceiling: int) -> tuple:
    """`_ls_shard` over every prefix pattern of the graphs with >= min_edges
    edges, merged: visits per complement size f, the complements below the
    LS bound for q <= qmax, and the least (margin, complement)."""
    est = dense_enumeration_size(n, min_edges)
    if est > ceiling:
        raise ValueError(f"n={n}: enumeration would visit {est} graphs > ceiling {ceiling}")
    ns = n * (n - 1) // 2
    kmax = ns - min_edges
    if kmax < 0:
        return [], [], None
    prefix = min(_SHARD_PREFIX_BITS, ns)
    shards = [(n, kmax, qmax, p) for p in range(1 << prefix)]
    counts = [0] * (kmax + 1)
    bad: list[tuple[int, ...]] = []
    best = (1 << 60, ())
    for cnts, b, bst in _pool_map(_ls_shard, shards, workers):
        for i, c in enumerate(cnts):
            counts[i] += c
        bad.extend(b)
        best = min(best, bst)
    return counts, bad, best


def enumerate_dense(
    n: int, min_edges: int, ceiling: int = DEFAULT_CEILING, workers: int = 1
) -> list[int]:
    """Visit every labeled n-vertex graph with >= min_edges edges once;
    return the number visited per complement size f = C(n,2) - m."""
    # qmax = 0 makes every required count <= 0, so no complement is collected
    return _dense_dfs(n, min_edges, 0, workers, ceiling)[0]


def _run_ls_exhaustive(job: SearchJob, workers: int) -> SearchReport:
    report = SearchReport(job)
    q_values = sorted(job.grid.get("q", [1]))
    per_n = {}
    for n in sorted(job.grid.get("n", [])):
        below = [q for q in q_values if q <= (n + 1) // 2 - 1]
        if not below:
            raise ValueError(f"n={n}: the q grid {q_values} has no q < n/2")
        qmax = max(below)
        counts, bad, best = _dense_dfs(n, n * n // 4 + min(q_values), qmax, workers, job.ceiling)
        if not counts:
            per_n[n] = {"counts": [], "visited": 0}
            continue
        for comp in sorted(bad):
            g = graph_from_complement(n, comp)
            verdict = verify_by_id("LS", g, {"q": min(g.m - n * n // 4, qmax)})[0]
            report.counterexamples.append(
                {"graph6": emit_graph6(g), "verdict": verdict.to_jsonable()}
            )
        report.graphs_examined += sum(counts)
        per_n[n] = {
            "counts": counts,
            "visited": sum(counts),
            "min_margin": best[0],
            "min_margin_graph6": emit_graph6(graph_from_complement(n, best[1])),
        }
    report.counterexamples.sort(key=lambda c: c["graph6"])
    report.detail["per_n"] = per_n
    margins = [
        (v["min_margin"], v["min_margin_graph6"])
        for v in per_n.values()
        if v.get("min_margin") is not None
    ]
    if margins:
        worst = min(margins)
        report.extremal_tracker = {"min_margin": worst[0], "graph6": worst[1]}
    return report


# ---------------------------------------------------------------------------
# Full 2^C(n,2) scans with exact confirmation of boundary cases.
# ---------------------------------------------------------------------------


def _scan_chunk_stats(n: int, base: int, count: int):
    """Vectorized (m, t, lambda, min_degree) for masks base..base+count-1."""
    slots = edge_slots(n)
    ns = len(slots)
    I = np.fromiter((e[0] for e in slots), dtype=np.int64, count=ns)
    J = np.fromiter((e[1] for e in slots), dtype=np.int64, count=ns)
    masks = np.arange(base, base + count, dtype=np.int64)
    bitcols = (masks[:, None] >> np.arange(ns, dtype=np.int64)[None, :]) & 1
    bits = bitcols.astype(np.float64)
    B = masks.shape[0]
    A = np.zeros((B, n, n))
    A[:, I, J] = bits
    A[:, J, I] = bits
    m = bitcols.sum(1)
    deg = A.sum(2)
    mindeg = deg.min(1).astype(np.int64) if n else np.zeros(B, dtype=np.int64)
    t = np.einsum("bij,bjk,bki->b", A, A, A) / 6.0
    lam = np.linalg.eigvalsh(A)[:, -1]
    return masks, m, np.rint(t).astype(np.int64), lam, mindeg


def _graph_from_mask(n: int, mask: int) -> Graph:
    slots = edge_slots(n)
    return build_graph(n, [slots[s] for s in range(len(slots)) if mask >> s & 1])


def _full_scan_shard(args: tuple) -> dict:
    n, chunk_lo, chunk_hi, target = args
    chunk = 1 << _SCAN_CHUNK_BITS
    total = 1 << (n * (n - 1) // 2)
    examined = 0
    suspects: list[int] = []
    equalities: list[int] = []
    best = None  # (margin, mask)
    for cbase in range(chunk_lo, chunk_hi):
        base = cbase * chunk
        if base >= total:
            break
        count = min(chunk, total - base)
        masks, m, t, lam, mindeg = _scan_chunk_stats(n, base, count)
        if target == "BN":
            keep = mindeg > 0
            examined += int(keep.sum())
            rhs = lam * (lam * lam - m) / 3.0
            margin = t - rhs
            flag = keep & (margin <= _FLOAT_BAND)
            suspects.extend(int(x) for x in masks[flag])
            ok = keep & ~flag
            if ok.any():
                i = int(np.argmin(np.where(ok, margin, np.inf)))
                cand = (float(margin[i]), int(masks[i]))
                best = cand if best is None else min(best, cand)
        elif target == "BOOK":
            keep = m >= 1
            examined += int(keep.sum())
            hyp_gap = lam * lam - lam - (m - 1)
            cex = keep & (hyp_gap >= -_FLOAT_BAND) & (2 * t < m - 1)
            suspects.extend(int(x) for x in masks[cex])
            eq = keep & (np.abs(hyp_gap) <= _FLOAT_BAND) & (2 * t == m - 1)
            equalities.extend(int(x) for x in masks[eq])
        elif target == "NOSAL":
            keep = t == 0
            examined += int(keep.sum())
            flag = keep & (lam * lam >= m - _FLOAT_BAND) & (m > 0)
            suspects.extend(int(x) for x in masks[flag])
        else:
            raise ValueError(f"unknown scan target {target!r}")
    return {
        "examined": examined,
        "suspects": suspects,
        "equalities": equalities,
        "best": best,
    }


def _run_full_scan(job: SearchJob, workers: int) -> SearchReport:
    report = SearchReport(job)
    target = job.target
    eq_all: list[dict] = []
    best = None
    for n in sorted(job.grid.get("n", [])):
        ns = n * (n - 1) // 2
        total_masks = 1 << ns
        if total_masks > job.ceiling:
            raise ValueError(
                f"n={n}: full scan would visit {total_masks} graphs > ceiling {job.ceiling}"
            )
        chunk = 1 << _SCAN_CHUNK_BITS
        nchunks = (total_masks + chunk - 1) // chunk
        bounds = [(i * nchunks) // SHARDS for i in range(SHARDS + 1)]
        shard_args = [
            (n, bounds[i], bounds[i + 1], target)
            for i in range(SHARDS)
            if bounds[i] < bounds[i + 1]
        ]
        results = _pool_map(_full_scan_shard, shard_args, workers)
        suspects = sorted(set(x for r in results for x in r["suspects"]))
        equalities = sorted(set(x for r in results for x in r["equalities"]))
        report.graphs_examined += sum(r["examined"] for r in results)
        for r in results:
            if r["best"] is not None:
                cand = (r["best"][0], n, r["best"][1])
                best = cand if best is None else min(best, cand)
        if target == "BN":
            for mask in suspects:
                g = _graph_from_mask(n, mask)
                sign = bn_relation_exact(g)
                if sign < 0:
                    v = verify_by_id("BN_INEQ", g, {})[0]
                    report.counterexamples.append(
                        {"graph6": emit_graph6(g), "verdict": v.to_jsonable()}
                    )
                elif sign == 0:
                    eq_all.append(
                        {"n": n, "graph6": emit_graph6(g),
                         "complete_bipartite": is_complete_bipartite(g)}
                    )
        elif target == "BOOK":
            # lambda >= (1 + sqrt(4m - 3))/2  <=>  lambda^2 - lambda - (m - 1) >= 0
            for mask in suspects:
                g = _graph_from_mask(n, mask)
                if sign_at_lambda(g, [-(g.m - 1), -1, 1]) >= 0:
                    t = triangle_count(g)
                    report.counterexamples.append(
                        {"graph6": emit_graph6(g),
                         "verdict": {"m": g.m, "t": t,
                                     "claim": "lambda >= (1+sqrt(4m-3))/2 certified exactly",
                                     "needed_t": f"{g.m - 1}/2"}}
                    )
            for mask in equalities:
                g = _graph_from_mask(n, mask)
                if sign_at_lambda(g, [-(g.m - 1), -1, 1]) == 0:
                    core_vs = [v for v in range(g.n) if g.degree(v) > 0]
                    core = induced(g, mask_of(core_vs)) if core_vs else g
                    k = (g.m - 1) // 2
                    is_book = are_isomorphic(core, book_join(k).graph)
                    eq_all.append(
                        {"n": n, "graph6": emit_graph6(g), "m": g.m,
                         "core_is_book": is_book}
                    )
        elif target == "NOSAL":
            for mask in suspects:
                g = _graph_from_mask(n, mask)
                if sign_at_lambda(g, [-g.m, 0, 1]) > 0:
                    v = verify_by_id("NOSAL_NZ", g, {})[0]
                    report.counterexamples.append(
                        {"graph6": emit_graph6(g), "verdict": v.to_jsonable(),
                         "note": "triangle-free graph with lambda > sqrt(m)"}
                    )
    report.counterexamples.sort(key=lambda c: c["graph6"])
    eq_all.sort(key=lambda e: (e["n"], e["graph6"]))
    report.detail["equality_set"] = eq_all
    if best is not None:
        report.extremal_tracker = {
            "min_strict_margin": best[0],
            "graph6": emit_graph6(_graph_from_mask(best[1], best[2])),
        }
    return report


def run_exhaustive(job: SearchJob, workers: int = 1) -> SearchReport:
    if job.target == "LS":
        return _run_ls_exhaustive(job, workers)
    if job.target in ("BN", "BOOK", "NOSAL"):
        return _run_full_scan(job, workers)
    raise ValueError(f"no exhaustive runner for target {job.target!r}")


# ---------------------------------------------------------------------------
# Randomized probes: uniform G(n, m) plus structured perturbations.
# ---------------------------------------------------------------------------


def floyd_sample(rng: random.Random, universe: int, k: int) -> np.ndarray:
    """Uniform k-subset of range(universe) as a sorted int64 array.

    One `rng.getrandbits(64 * universe)` call gives every element an
    independent 64-bit key, and the subset is the k smallest keys. The keys
    are exchangeable, so when they are distinct their ranking is a uniform
    permutation and the k smallest form exactly a uniform k-subset, fixed by
    the draw alone rather than by numpy's selection algorithm. A tie has
    probability below C(universe, 2) / 2^64 (about 5.5e-11 at universe =
    44 850, the slot count at n = 300). Python's `getrandbits` stream, unlike
    `numpy.random`, does not change between numpy versions. The name is kept
    from the Floyd (1987) loop this replaces.
    """
    keys = np.frombuffer(
        rng.getrandbits(64 * universe).to_bytes(8 * universe, "little"), dtype="<u8"
    )
    if k == 0:
        return np.empty(0, dtype=np.int64)
    return np.sort(np.argpartition(keys, k - 1)[:k])


def _triangles_dense(A: np.ndarray) -> int:
    # float32 is exact here: every entry of B @ B is an integer <= n - 2 < 2^24,
    # and the float64 total 6t <= n^3 stays below 2^53
    B = A.astype(np.float32)
    return int(((B @ B) * B).sum(dtype=np.float64)) // 6


@functools.lru_cache(maxsize=8)
def _y_reference(n: int, q: int) -> tuple[np.ndarray, frozenset, Fraction, Fraction]:
    """Y_{n,2,q} for the random probe, built once per (n, q): its edges as a
    read-only sorted slot array and as a set, and a certified bracket of its
    lambda^2 (the exact family polynomial at q = 1, CW otherwise)."""
    yc = y_n2q(n, q)
    if q == 1:
        tag = "Y_even" if n % 2 == 0 else "Y_odd"
        y_lo, y_hi = family_lambda(FamilyPolynomial(tag, n), Fraction(1, 10**14))
    else:
        ycert = perron_enclosure(yc.graph, 1e-10)
        y_lo, y_hi = Fraction(ycert.lambda_lo), Fraction(ycert.lambda_hi)
    y_slots = graph_slots(yc.graph)
    y_slots.flags.writeable = False
    return y_slots, frozenset(y_slots.tolist()), y_lo * y_lo, y_hi * y_hi


def run_random(job: SearchJob) -> SearchReport:
    """Probe the matching-embedding spectral threshold on random graphs.

    Samples uniform G(n, m) at m = floor(n^2/4)+q plus edge-swap
    perturbations of the matching construction; every sample with certified
    lambda >= lambda(Y_{n,2,q}) must have at least q*floor(n/2) triangles.
    Samples are arrays of slot indices in the order of `edge_slots(n)`.
    """
    if job.target != "SPEC_LS_Y":
        raise ValueError(f"no random runner for target {job.target!r}")
    report = SearchReport(job)
    rng = random.Random(job.seed)
    n = job.grid["n"][0]
    q = job.grid.get("q", [1])[0]
    n_uniform = job.grid.get("samples", [job.budget or 1000])[0]
    n_perturb = job.grid.get("perturbations", [0])[0]
    m = n * n // 4 + q
    bound = q * (n // 2)
    y_slots, y_set, y_lo2, y_hi2 = _y_reference(n, q)
    jv, iu = np.tril_indices(n, -1)  # slot s joins iu[s] < jv[s], as in edge_slots(n)
    ns = len(iu)

    def above_y(iv) -> Optional[bool]:  # is lambda(G) > lambda(Y)?
        return True if iv[0] > y_hi2 else False if iv[1] < y_lo2 else None

    hyp_true = 0
    min_t = None
    examined = 0

    def eval_sample(idx: np.ndarray) -> None:
        nonlocal hyp_true, min_t, examined
        examined += 1
        A = np.zeros((n, n))
        A[iu[idx], jv[idx]] = 1.0
        A[jv[idx], iu[idx]] = 1.0
        decided = _decide(above_y, A)
        if isinstance(decided, Ordering):
            report.ties += 1
            return
        if not decided:
            return
        hyp_true += 1
        t = _triangles_dense(A)
        min_t = t if min_t is None else min(min_t, t)
        if t < bound:
            g = build_graph(n, zip(iu[idx].tolist(), jv[idx].tolist()))
            v = verify_by_id("SPEC_LS_Y", g, {"q": q})[0]
            report.counterexamples.append(
                {"graph6": emit_graph6(g), "verdict": v.to_jsonable()}
            )

    for _ in range(n_uniform):
        eval_sample(floyd_sample(rng, ns, m))
    for _ in range(n_perturb):
        drop = rng.randrange(len(y_slots))
        dropped = int(y_slots[drop])
        while True:  # any slot outside Y minus the dropped one, which may come back
            cand = rng.randrange(ns)
            if cand not in y_set or cand == dropped:
                break
        eval_sample(np.append(np.delete(y_slots, drop), cand))
    report.graphs_examined = examined
    report.counterexamples.sort(key=lambda c: c["graph6"])
    report.extremal_tracker = {
        "hypothesis_true": hyp_true,
        "min_triangles_given_hypothesis": min_t,
        "required": bound,
    }
    return report


# ---------------------------------------------------------------------------
# Local search: minimize triangles subject to a certified lambda floor.
# ---------------------------------------------------------------------------


def run_local_search(job: SearchJob) -> SearchReport:
    """Hill-climb t(G) downward over single edge toggles while keeping the
    certified lower bound lambda_lo >= gamma*n, with sideways moves and
    multi-restart; compares against the rounded complete-multipartite
    family over an alpha grid."""
    if job.target != "MIN_T":
        raise ValueError(f"no local-search runner for target {job.target!r}")
    report = SearchReport(job)
    rng = random.Random(job.seed)
    n = job.grid["n"][0]
    gamma = Fraction(job.grid["gamma"][0])
    s = next((s for s in range(2, 64) if Fraction(s - 1, s) < gamma <= Fraction(s, s + 1)), None)
    if s is None:
        raise ValueError(f"gamma must lie in (1/2, 63/64], got {gamma}")
    steps = job.budget or 200
    restarts = job.grid.get("restarts", [3])[0]
    plateau_budget = job.grid.get("plateau", [30])[0]
    target_lam = gamma * n

    def feasible(g: Graph) -> bool:
        return certify_lambda_ge_frac(g, target_lam, 1e-9) is True

    alpha_grid = [i / (100 * s) for i in range(0, 100)]
    family_best = None
    family_curve = []
    for alpha in alpha_grid:
        try:
            c = l_nsalpha(n, s, alpha)
        except ValueError:
            continue
        if not feasible(c.graph):
            continue
        t = triangle_count(c.graph)
        family_curve.append({"alpha": alpha, "t": t})
        if family_best is None or t < family_best[0]:
            family_best = (t, c.spec, c.graph)
    best_overall = None
    examined = 0
    for restart in range(restarts):
        if family_best is not None and restart == 0:
            g = family_best[2]
        else:
            g = complete_graph(n)
            for _ in range(rng.randrange(n)):
                u = rng.randrange(n)
                v = rng.randrange(n)
                if u != v:
                    g = remove_edge(g, u, v)
            if not feasible(g):
                g = complete_graph(n)
        t_cur = triangle_count(g)
        plateau = 0
        for _ in range(steps):
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u == v:
                continue
            g2 = toggle_edge(g, u, v)
            examined += 1
            t2 = triangle_count(g2)
            if t2 > t_cur or not feasible(g2):
                continue
            if t2 == t_cur:
                plateau += 1
                if plateau > plateau_budget:
                    continue
            else:
                plateau = 0
            g, t_cur = g2, t2
        if best_overall is None or t_cur < best_overall[0]:
            best_overall = (t_cur, g)
    report.graphs_examined = examined
    if best_overall is not None:
        t_best, g = best_overall
        cert = perron_enclosure(g, 1e-9)
        mid = (cert.lambda_lo + cert.lambda_hi) / 2
        denom = n * n * (mid - n / 2)
        report.extremal_tracker = {
            "t_best": t_best,
            "graph6": emit_graph6(g),
            "lambda": (cert.lambda_lo, cert.lambda_hi),
            "c_ratio": t_best / denom if denom > 0 else None,
            "family_best_t": family_best[0] if family_best else None,
            "family_best_spec": family_best[1] if family_best else None,
            "gap_vs_family": (t_best - family_best[0]) if family_best else None,
        }
    report.detail["family_curve"] = family_curve
    return report


# ---------------------------------------------------------------------------
# Triangle-per-spectral-excess ratio curves.
# ---------------------------------------------------------------------------


def ratio_scan(families: list[str], n_grid: list[int], tol: float = 1e-12) -> SearchReport:
    """C(G) = t / (n^2 (lambda - n/2)) over construction families.

    Families are spec strings with the vertex count left out, e.g.
    "Turan:r=3" or "T:q=1"; n is taken from the grid. Points where
    lambda - n/2 cannot be certified positive are flagged unusable.
    """
    job = SearchJob(target="RATIO", mode="ratio", grid={"n": list(n_grid)})
    report = SearchReport(job)
    rows = []
    for fam in families:
        head, _, rest = fam.partition(":")
        for n in n_grid:
            spec = f"{head}:n={n}" + ("," + rest if rest else "")
            try:
                c = build_from_spec(spec)
            except ValueError as exc:
                rows.append({"family": fam, "n": n, "skipped": str(exc)})
                continue
            g = c.graph
            t = triangle_count(g)
            e = exact_lambda(g)
            if e is not None:
                lam_lo = lam_hi = e
            elif c.predicted.lambda_poly is not None:
                lam_lo, lam_hi = family_lambda(
                    c.predicted.lambda_poly, Fraction(1, 10**13)
                )
            else:
                # a run toward tol passes width 1e-9 on its way, so one run
                # serves both; the point is kept at width max(tol, 1e-9)
                cert = perron_enclosure(g, tol)
                if cert.width > max(tol, 1e-9):
                    rows.append({"family": fam, "n": n, "skipped": "unconverged"})
                    continue
                lam_lo, lam_hi = Fraction(cert.lambda_lo), Fraction(cert.lambda_hi)
            half = Fraction(n, 2)
            if lam_lo <= half:
                rows.append(
                    {"family": fam, "n": n, "skipped": "lambda - n/2 not certified positive"}
                )
                continue
            c_hi = Fraction(t) / (n * n * (lam_lo - half))
            c_lo = Fraction(t) / (n * n * (lam_hi - half))
            row = {
                "family": fam,
                "n": n,
                "t": t,
                "C_lo": float(c_lo),
                "C_hi": float(c_hi),
                "C_mid": (float(c_lo) + float(c_hi)) / 2,
            }
            if e is not None:
                row["C_exact"] = Fraction(t) / (n * n * (e - half))
            rows.append(row)
    report.ratio_curve = rows
    report.graphs_examined = sum(1 for r in rows if "skipped" not in r)
    return report
