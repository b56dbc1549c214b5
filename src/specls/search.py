"""Exhaustive small-n verification and randomized search against the
theorems and conjectures.

Every graph here is a subset of the C(n,2) edge slots, in the order of the
codec in `graph` (`slot_ends`, `slot_bits`, `from_slot_bits`), which is
also the graph6 body order. One sharded complement walk (`_dense_dfs` over `_ls_shard`) serves both the
LS exhaustive check and the `enumerate` count: graphs with at least
min_edges edges correspond to subsets F of the edge-slot lattice of bounded
size, walked in colex order in 32 shards (the patterns of the first five
slots). Each shard expands its lattice one complement size at a time as
numpy arrays, in bounded chunks, maintaining the complement statistics
(edge count f, cherries, triangles) incrementally, so each visited graph
costs a few array operations:

    t(G) = C(n,3) - f*(n-2) + cherries(F) - t(F)   for G = K_n - F.

Full 2^C(n,2) scans (needed by the inequality and conjecture targets) run
as fixed-size numpy chunks. Edge and triangle counts come exactly from bit
operations on the masks; BOOK and NOSAL eigensolve only the masks that a
Collatz-Wielandt bound cannot rule out, BN every mask. Anything within a
float band of a bound is re-decided exactly by `roots.signs_at_lambda`:
its own integer characteristic polynomial (one batched Faddeev-LeVerrier
run per n) and a Sturm sign, searched once per distinct characteristic
polynomial, so reported counterexamples and equality sets are certified,
not floating-point guesses. Chunk boundaries and shard counts are
constants, so reports are byte-identical for any worker count.
"""

from __future__ import annotations

import functools
import json
import multiprocessing
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb, isqrt
from typing import Callable, Optional

import numpy as np

from .families import build_from_spec, l_nsalpha, y_n2q
from .graph import Graph, complete_graph, from_matrix, from_slot_bits, is_complete_bipartite
from .graph import remove_edge, slot_bits, slot_ends, toggle_edge
from .graph6 import emit_graph6
from .roots import family_lambda, signs_at_lambda
from .spectral import Ordering, _decide, certify_lambda_ge_frac, exact_lambda_sq, perron_enclosure
from .theorems import bn_relation_poly, verify_by_id
from .triangles import dense_triangle_count, triangle_count, triangle_workspace
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
# Edge-slot lattice helpers (colex order); the slot order is `graph.slot_ends`.
# ---------------------------------------------------------------------------


def edge_slots(n: int) -> list[tuple[int, int]]:
    """The (i, j) pair of each edge slot, in slot order."""
    return list(zip(*(e.tolist() for e in slot_ends(n))))


def graph_slots(g: Graph) -> np.ndarray:
    """The edges of g as sorted slot indices."""
    return np.flatnonzero(slot_bits(g))


def graph_from_complement(n: int, comp_slots: tuple[int, ...]) -> Graph:
    """K_n less the edges in the slots `comp_slots`."""
    bits = np.ones(n * (n - 1) // 2, np.uint8)
    bits[np.array(comp_slots, dtype=np.int64)] = 0
    return from_slot_bits(n, bits)


def dense_enumeration_size(n: int, min_edges: int) -> int:
    slots = n * (n - 1) // 2
    kmax = slots - min_edges
    if kmax < 0:
        return 0
    return sum(comb(slots, k) for k in range(kmax + 1))


# ---------------------------------------------------------------------------
# The dense complement walk: LS exhaustive runs and enumerate.
# ---------------------------------------------------------------------------

_SHARD_PREFIX_BITS = 5  # shard by membership pattern of the first 5 slots
_WALK_CHUNK = 1 << 13  # children materialised per step of the complement walk
_ROW_BITS = 63  # vertex bits per int64 word of a neighbourhood row

# set bits of each byte and of each 16-bit value, 256 hi + lo having those of
# hi plus those of lo (numpy's bitwise_count needs numpy >= 2.0)
_POP8 = np.array([bin(x).count("1") for x in range(256)], dtype=np.int64)
_POP16 = np.add.outer(_POP8, _POP8).ravel()


def _popcount(x: np.ndarray, bits: int = 63) -> np.ndarray:
    """Set bits of each entry of a non-negative int64 array below 2**bits."""
    total = _POP16[x & 0xFFFF]
    for shift in range(16, bits, 16):
        total = total + _POP16[(x >> shift) & 0xFFFF]
    return total


class _Frontier:
    """Complements of one size f, as rows in lexicographic order of their
    slot tuples. A row's children add one slot >= start, so a row that is
    itself a child added slot start - 1 to row up_idx of the frontier `up`;
    the top row is the shard's prefix pattern `base`. d = cherries(F) -
    t(F); deg (B, n) holds F's degrees and rows (B, n * words) its
    neighbourhood bit rows, vertex w being bit w % _ROW_BITS of word
    w // _ROW_BITS of the vertex's `words` columns."""

    def __init__(self, f: int, start: np.ndarray, d: np.ndarray, deg: np.ndarray,
                 rows: np.ndarray, up: Optional["_Frontier"] = None,
                 up_idx: Optional[np.ndarray] = None, base: tuple = ()):
        self.f, self.start, self.d, self.deg, self.rows = f, start, d, deg, rows
        self.up, self.up_idx, self.base = up, up_idx, base

    def __getitem__(self, sl: slice) -> "_Frontier":
        return _Frontier(self.f, self.start[sl], self.d[sl], self.deg[sl], self.rows[sl],
                         self.up, None if self.up_idx is None else self.up_idx[sl], self.base)

    def slots(self, i: int) -> tuple[int, ...]:
        tail = []
        fr = self
        while fr.up is not None:
            tail.append(int(fr.start[i]) - 1)
            i, fr = int(fr.up_idx[i]), fr.up
        return fr.base + tuple(reversed(tail))


def _ls_shard(args: tuple) -> tuple:
    """One complement-pattern shard of the dense triangle-count check.

    The colex complement lattice under the shard's prefix pattern is walked
    one size f at a time, in chunks of at most _WALK_CHUNK children: a child
    that adds slot s = (u, v) to F has cherries + d_u + d_v and t(F) +
    |N_F(u) & N_F(v)|. Each chunk is in lexicographic order of its slot
    tuples, so its first least margin is its lexicographically smallest
    one, and `best` compares those candidates as tuples. Complements of the
    largest size kmax get margins only."""
    n, kmax, qmax, pattern = args
    su, sv = slot_ends(n)
    ns = len(su)
    prefix = min(_SHARD_PREFIX_BITS, ns)
    words = max(1, -(-n // _ROW_BITS))
    word_of = np.arange(words)
    # a complement of size f has margin const[f] + d:
    # t(G) = C(n,3) - f(n-2) + cherries(F) - t(F), less the LS requirement
    floor_q = n * n // 4
    const = [comb(n, 3) - f * (n - 2) - min(ns - f - floor_q, qmax) * (n // 2)
             for f in range(kmax + 1)]
    counts = [0] * (kmax + 1)
    bad: list[tuple[int, ...]] = []
    best = (1 << 60, ())
    base = tuple(s for s in range(prefix) if pattern >> s & 1)
    f0 = len(base)
    if f0 > kmax:
        return counts, bad, best

    def add_slots(deg: np.ndarray, rows: np.ndarray, u: np.ndarray, v: np.ndarray) -> None:
        # add edge (u[i], v[i]) to row i of deg and rows, in place; both are
        # fresh C-contiguous arrays, so ravel() gives views
        at = np.arange(len(u)) * n
        deg.ravel()[at + u] += 1
        deg.ravel()[at + v] += 1
        rows.ravel()[(at + u) * words + v // _ROW_BITS] |= np.left_shift(1, v % _ROW_BITS)
        rows.ravel()[(at + v) * words + u // _ROW_BITS] |= np.left_shift(1, u % _ROW_BITS)

    def pair_gain(fr: _Frontier, pidx: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        # d_u + d_v - |N_F(u) & N_F(v)| for each child (row pidx[i], slot (u[i], v[i]))
        at = pidx * n
        deg, rows = fr.deg.ravel(), fr.rows.ravel()
        ru = np.take(rows, (at + u)[:, None] * words + word_of)
        rv = np.take(rows, (at + v)[:, None] * words + word_of)
        common = _popcount(ru & rv, min(n, _ROW_BITS)).sum(1)
        return np.take(deg, at + u) + np.take(deg, at + v) - common

    def visit(f: int, margin: np.ndarray, fr: _Frontier, pidx: np.ndarray,
              s: np.ndarray) -> None:
        # the complements fr.slots(pidx[i]) + (s[i],), of size f, in lex order
        nonlocal best
        counts[f] += len(margin)
        for i in np.flatnonzero(margin < 0).tolist():
            bad.append(fr.slots(int(pidx[i])) + (int(s[i]),))
        i = int(np.argmin(margin))
        if margin[i] <= best[0]:
            best = min(best, (int(margin[i]), fr.slots(int(pidx[i])) + (int(s[i]),)))

    def expand(fr: _Frontier) -> None:
        nchild = ns - fr.start
        cum = np.cumsum(nchild)
        lo = 0
        while lo < len(cum):
            done = int(cum[lo - 1]) if lo else 0
            hi = max(lo + 1, int(np.searchsorted(cum, done + _WALK_CHUNK, side="right")))
            piece, cnt = fr[lo:hi], nchild[lo:hi]
            total = int(cum[hi - 1]) - done
            lo = hi
            if total == 0:
                continue
            pidx = np.repeat(np.arange(len(cnt)), cnt)
            s = np.take(piece.start, pidx) + np.arange(total) - np.repeat(np.cumsum(cnt) - cnt, cnt)
            u, v = np.take(su, s), np.take(sv, s)
            d = np.take(piece.d, pidx) + pair_gain(piece, pidx, u, v)
            f = fr.f + 1
            visit(f, const[f] + d, piece, pidx, s)
            if f < kmax:
                deg = np.take(piece.deg, pidx, axis=0)
                rows = np.take(piece.rows, pidx, axis=0)
                add_slots(deg, rows, u, v)
                expand(_Frontier(f, s + 1, d, deg, rows, piece, pidx))

    top = _Frontier(f0, np.array([prefix]), np.zeros(1, dtype=np.int64),
                    np.zeros((1, n), dtype=np.int32), np.zeros((1, n * words), dtype=np.int64),
                    base=base)
    for s in base:
        # the prefix edges, one at a time, by the same update as the walk
        u, v, at = su[s : s + 1], sv[s : s + 1], np.zeros(1, dtype=np.int64)
        top.d += pair_gain(top, at, u, v)
        add_slots(top.deg, top.rows, u, v)
    counts[f0] = 1
    margin0 = const[f0] + int(top.d[0])
    if margin0 < 0:
        bad.append(base)
    best = (margin0, base)
    if f0 < kmax:
        expand(top)
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
    return counts, sorted(bad), best


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
        for comp in bad:
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


_CW_STEPS = 2  # (A + I) power steps before the Collatz-Wielandt prefilter


def _scan_chunk_stats(n: int, masks: np.ndarray):
    """Exact edge counts, triangle counts and degrees (m, t, deg) of the
    graphs whose edge sets are these slot masks, by bit operations."""
    i, j = slot_ends(n)
    ns = len(i)
    bit = np.zeros((n, n), dtype=np.int64)  # the mask bit of each matrix entry
    bit[i, j] = bit[j, i] = np.left_shift(1, np.arange(ns))
    m = _popcount(masks, ns)
    deg = np.zeros((len(masks), n), dtype=np.int64)
    for v, star in enumerate(bit.sum(1)):
        deg[:, v] = _popcount(masks & star, ns)
    t = np.zeros(len(masks), dtype=np.int64)
    for a, b, c in combinations(range(n), 3):
        tri = bit[a, b] | bit[a, c] | bit[b, c]
        t += (masks & tri) == tri
    return m, t, deg


def _adjacency_batch(n: int, masks: np.ndarray) -> np.ndarray:
    """Float adjacency matrices of the graphs with these slot masks."""
    i, j = slot_ends(n)
    ns = len(i)
    entry = np.full((n, n), ns)  # the slot of each matrix entry; ns is a zero column
    entry[i, j] = entry[j, i] = np.arange(ns)
    shifts = np.append(np.arange(ns), 62)  # masks stay below 2^62
    bits = ((masks[:, None] >> shifts) & 1).astype(np.float64)
    # a gather, not a matmul: BLAS would add its buffers to each worker's memory
    return np.take(bits, entry, axis=1)


def _cw_upper(A: np.ndarray, deg: np.ndarray) -> np.ndarray:
    """Collatz-Wielandt bounds u = max_i (Ax)_i / x_i >= lambda, one per
    matrix, at the positive vector x = (A + I)^_CW_STEPS (deg + 1)."""
    x = deg + 1.0
    for _ in range(_CW_STEPS):
        x = np.einsum("bij,bj->bi", A, x) + x
    return (np.einsum("bij,bj->bi", A, x) / x).max(1)


def _graph_from_mask(n: int, mask: int) -> Graph:
    """The graph whose edge set is this slot mask (bit s for slot s)."""
    return from_slot_bits(n, np.right_shift(mask, np.arange(n * (n - 1) // 2)) & 1)


def _full_scan_shard(args: tuple) -> dict:
    n, chunk_lo, chunk_hi, target = args
    if target not in ("BN", "BOOK", "NOSAL"):
        raise ValueError(f"unknown scan target {target!r}")
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
        masks = np.arange(base, base + count, dtype=np.int64)
        m, t, deg = _scan_chunk_stats(n, masks)
        if target == "BN":
            # min_strict_margin reads lambda of every graph
            keep = deg.min(1) > 0 if n else np.zeros(count, dtype=bool)
            examined += int(keep.sum())
            lam = np.linalg.eigvalsh(_adjacency_batch(n, masks))[:, -1]
            rhs = lam * (lam * lam - m) / 3.0
            margin = t - rhs
            flag = keep & (margin <= _FLOAT_BAND)
            suspects.extend(int(x) for x in masks[flag])
            ok = keep & ~flag
            if ok.any():
                i = int(np.argmin(np.where(ok, margin, np.inf)))
                cand = (float(margin[i]), int(masks[i]))
                best = cand if best is None else min(best, cand)
            continue
        # BOOK and NOSAL flag a graph only when its float gap lies within
        # _FLOAT_BAND of the bound, after exact tests on m and t. A mask whose
        # Collatz-Wielandt bound u >= lambda puts the gap below -1/2 is dropped
        # before the eigensolve: BOOK's gap lambda^2 - lambda - (m - 1)
        # increases for lambda >= 1, which holds once m >= 1, and NOSAL's
        # lambda^2 - m for lambda >= 0, so the true gap is below -1/2 as well.
        # eigvalsh is accurate to about 1e-13 at these sizes, so it could not
        # have read such a gap inside the band, and the rounding in u is far
        # below the margin of 1/2. The suspect and equality sets are those an
        # eigensolve of every mask gives.
        if target == "BOOK":
            keep = m >= 1
            live = np.flatnonzero(keep & (2 * t <= m - 1))
        else:
            keep = t == 0
            live = np.flatnonzero(keep & (m > 0))
        examined += int(keep.sum())
        A = _adjacency_batch(n, masks[live])
        u = _cw_upper(A, deg[live])
        near = u * u - u >= m[live] - 1.5 if target == "BOOK" else u * u >= m[live] - 0.5
        live, A = live[near], A[near]
        lam = np.linalg.eigvalsh(A)[:, -1]
        ml, tl = m[live], t[live]
        if target == "BOOK":
            hyp_gap = lam * lam - lam - (ml - 1)
            cex = (hyp_gap >= -_FLOAT_BAND) & (2 * tl < ml - 1)
            suspects.extend(int(x) for x in masks[live[cex]])
            eq = (np.abs(hyp_gap) <= _FLOAT_BAND) & (2 * tl == ml - 1)
            equalities.extend(int(x) for x in masks[live[eq]])
        else:
            suspects.extend(int(x) for x in masks[live[lam * lam >= ml - _FLOAT_BAND]])
    return {
        "examined": examined,
        "suspects": suspects,
        "equalities": equalities,
        "best": best,
    }


def core_is_book(g: Graph) -> bool:
    """Is G, less its isolated vertices, the book `book_join(k)`? With C the
    non-isolated vertices: exactly when m = 2k + 1, |C| = k + 2 and two hubs
    v have N(v) + v = C, for then the two hubs carry all m edges."""
    core = [v for v in range(g.n) if g.rows[v]]
    k = (g.m - 1) // 2
    if g.m != 2 * k + 1 or len(core) != k + 2:
        return False
    c = sum(1 << v for v in core)
    return sum(g.rows[v] | 1 << v == c for v in core) >= 2


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
        # every flagged graph is re-decided exactly, in one batched call per n
        flagged = [_graph_from_mask(n, mask) for mask in suspects + equalities]
        if target == "BN":
            signs = signs_at_lambda(flagged, [bn_relation_poly(g) for g in flagged])
            for g, s in zip(flagged, signs):
                if s > 0:  # t < lambda(lambda^2 - m)/3
                    v = verify_by_id("BN_INEQ", g, {})[0]
                    report.counterexamples.append(
                        {"graph6": emit_graph6(g), "verdict": v.to_jsonable()}
                    )
                elif s == 0:
                    eq_all.append(
                        {"n": n, "graph6": emit_graph6(g),
                         "complete_bipartite": is_complete_bipartite(g)}
                    )
        elif target == "BOOK":
            # lambda >= (1 + sqrt(4m - 3))/2  <=>  lambda^2 - lambda - (m - 1) >= 0
            signs = signs_at_lambda(flagged, [[-(g.m - 1), -1, 1] for g in flagged])
            cut = len(suspects)
            for g, s in zip(flagged[:cut], signs[:cut]):
                if s >= 0:
                    t = triangle_count(g)
                    report.counterexamples.append(
                        {"graph6": emit_graph6(g),
                         "verdict": {"m": g.m, "t": t,
                                     "claim": "lambda >= (1+sqrt(4m-3))/2 certified exactly",
                                     "needed_t": f"{g.m - 1}/2"}}
                    )
            for g, s in zip(flagged[cut:], signs[cut:]):
                if s == 0:
                    eq_all.append(
                        {"n": n, "graph6": emit_graph6(g), "m": g.m,
                         "core_is_book": core_is_book(g)}
                    )
        elif target == "NOSAL":
            signs = signs_at_lambda(flagged, [[-g.m, 0, 1] for g in flagged])
            for g, s in zip(flagged, signs):
                if s > 0:
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

    One `rng.getrandbits(universe)` call tosses a fair coin for every
    element, which chooses some c of them. If c != k, Floyd's loop (Bentley &
    Floyd, "A sample of brilliance", CACM 1987) picks |c - k| positions of the
    pool, the chosen elements if c > k and the unchosen ones if c < k, with
    `rng.randrange`, and those elements flip. Given c, the coin set is a
    uniform c-subset, and the fix-up picks positions in the pool without
    looking at which elements are in it, so the law of the result does not
    change under any permutation of range(universe); a law on k-subsets with
    that property is uniform. It is exact: no ties, no rejection. Python's
    random stream, unlike `numpy.random`, does not change between numpy
    versions.
    """
    if not 0 <= k <= universe:
        raise ValueError(f"k = {k} outside 0..{universe}")
    coins = rng.getrandbits(universe).to_bytes((universe + 7) // 8, "little")
    mask = np.unpackbits(
        np.frombuffer(coins, np.uint8), count=universe, bitorder="little"
    ).view(bool)
    c = int(np.count_nonzero(mask))
    if c != k:
        pool = np.flatnonzero(mask if c > k else ~mask)
        picked: set[int] = set()
        for j in range(len(pool) - abs(c - k), len(pool)):
            t = rng.randrange(j + 1)
            picked.add(j if t in picked else t)
        mask[pool[list(picked)]] = c < k
    return np.flatnonzero(mask)


@functools.lru_cache(maxsize=8)
def _y_reference(n: int, q: int) -> tuple[np.ndarray, Fraction, Fraction]:
    """Y_{n,2,q} for the random probe, built once per (n, q): its edges as a
    read-only sorted slot array, and a certified bracket of its lambda^2
    (the exact family polynomial that `y_n2q` records at q = 1, CW
    otherwise)."""
    yc = y_n2q(n, q)
    if yc.predicted.lambda_poly is not None:
        y_lo, y_hi = family_lambda(yc.predicted.lambda_poly, Fraction(1, 10**14))
    else:
        ycert = perron_enclosure(yc.graph, 1e-10)
        y_lo, y_hi = Fraction(ycert.lambda_lo), Fraction(ycert.lambda_hi)
    y_slots = graph_slots(yc.graph)
    y_slots.flags.writeable = False
    return y_slots, y_lo * y_lo, y_hi * y_hi


@functools.lru_cache(maxsize=2)
def _flat_slots(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The flat (row-major) entries i*n + j and j*n + i of each edge slot
    {i, j} of an n x n matrix, read-only int64, in slot order."""
    iu, jv = slot_ends(n)
    upper, lower = iu * n + jv, jv * n + iu
    upper.flags.writeable = lower.flags.writeable = False
    return upper, lower


def run_random(job: SearchJob) -> SearchReport:
    """Probe the matching-embedding spectral threshold on random graphs.

    Samples uniform G(n, m) at m = floor(n^2/4)+q plus edge-swap
    perturbations of the matching construction; every sample with certified
    lambda >= lambda(Y_{n,2,q}) must have at least q*floor(n/2) triangles.
    Samples are subsets of the edge slots (`graph.slot_ends` order). Every
    sample is written into one float32 adjacency matrix that the job reuses,
    as is the triangle count's workspace, so a sample allocates no n x n
    array unless its lambda needs the CW rungs.
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
    y_slots, y_lo2, y_hi2 = _y_reference(n, q)
    upper, lower = _flat_slots(n)
    ns = len(upper)
    A = np.zeros((n, n), np.float32)
    flat = A.reshape(-1)  # a view: writes go to A
    walks = triangle_workspace(n)
    pos = np.empty(m, np.int64)

    def above_y(iv) -> Optional[bool]:  # is lambda(G) > lambda(Y)?
        return True if iv[0] > y_hi2 else False if iv[1] < y_lo2 else None

    def put(slots, value: float) -> None:
        for half in (upper, lower):
            flat[half[slots]] = value

    hyp_true = 0
    min_t = None
    examined = 0

    def eval_sample() -> None:  # the sample is the graph that A holds
        nonlocal hyp_true, min_t, examined
        examined += 1
        decided = _decide(above_y, A)
        if isinstance(decided, Ordering):
            report.ties += 1
            return
        if not decided:
            return
        hyp_true += 1
        t = dense_triangle_count(A, walks)
        min_t = t if min_t is None else min(min_t, t)
        if t < bound:
            g = from_matrix(A)
            v = verify_by_id("SPEC_LS_Y", g, {"q": q})[0]
            report.counterexamples.append(
                {"graph6": emit_graph6(g), "verdict": v.to_jsonable()}
            )

    for _ in range(n_uniform):
        idx = floyd_sample(rng, ns, m)
        for half in (upper, lower):
            flat[np.take(half, idx, out=pos)] = 1.0
        eval_sample()
        A.fill(0.0)
    put(y_slots, 1.0)  # A holds Y from here on, between perturbations
    for _ in range(n_perturb):
        dropped = int(y_slots[rng.randrange(len(y_slots))])
        while True:  # any slot outside Y minus the dropped one, which may come back
            cand = rng.randrange(ns)
            if flat[upper[cand]] == 0.0 or cand == dropped:
                break
        put(dropped, 0.0)
        put(cand, 1.0)
        eval_sample()
        put(cand, 0.0)
        put(dropped, 1.0)
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
            sq = exact_lambda_sq(g)  # an integer when known; lambda is exact when it is a square
            root = isqrt(int(sq or 0))
            e = Fraction(root) if sq is not None and root * root == sq else None
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
