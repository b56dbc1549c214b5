"""Exhaustive small-n verification and randomized search against the
theorems and conjectures.

Every graph here is a subset of the C(n,2) edge slots, in the order of the
codec in `graph` (`slot_ends`, `slot_bits`, `from_slot_bits`), which is
also the graph6 body order. One sharded complement walk (`_dense_dfs`
over `_ls_shard`) serves both the LS exhaustive check and the `enumerate`
count: graphs with at least min_edges edges correspond to subsets F of the
edge-slot lattice of bounded size. F splits as F' + star(N), F' on the
slots of K_{n-1} and N the complement neighbourhood of vertex n-1, and the
margin is a graph invariant, so only the F' are walked, in colex order in
32 shards (the patterns of the first five slots), each with the stars
{0..k-1}; the other neighbourhoods are relabellings of these. Each shard
expands its lattice one size at a time as numpy arrays, in bounded chunks,
maintaining the statistics of F' (edge count f, cherries, triangles)
incrementally, so each walked F' and each star on it costs a few array
operations:

    t(G) = C(n,3) - f*(n-2) + cherries(F) - t(F)   for G = K_n - F.

Full 2^C(n,2) scans (needed by the inequality and conjecture targets)
evaluate one mask per orbit of the relabellings of 0..n-2 (`_orbit_scan`):
the blocks whose last vertex is joined to {0..k-1}, and in each the least
graph of every orbit of the relabellings that fix {0..k-1}, labelled by
min-propagation over adjacent transpositions (`_block_labels`). These are
the rooted graphs, 5,096 at n = 7, read as one numpy batch per block.
Each target is one row of `_SCAN_TARGETS`: an exact hypothesis on the edge
and triangle counts and degrees, which bit operations on the masks give,
and a claim stated once on the sign of an integer polynomial at lambda,
convex on lambda >= 0, that holds where the sign is -1. A mask is flagged
unless that polynomial is negative at both ends of a Collatz-Wielandt
bracket l <= lambda <= u, exact integer fractions read off the mask bits,
which proves every other mask's claim with no eigenvalue. One batched
`roots.signs_at_lambda` call (a Faddeev-LeVerrier run per n and a Sturm
sign per distinct characteristic polynomial) decides the flagged
representatives, so reported counterexamples and equality sets are
certified, not floating-point guesses. Only the violated and tight ones
are expanded, to their orbits and then to every relabelled block. Full
scans run in the calling process; only the LS walk and `enumerate` spread
their shards over worker processes, and shard and chunk boundaries depend
on n alone, so reports are byte-identical for any worker count.
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
from .graph6 import emit_graph6, emit_graph6_rows
from .roots import family_lambda, signs_at_lambda
from .spectral import Ordering, _decide, certify_lambda_ge_frac, degree_rung, exact_lambda_sq
from .spectral import perron_enclosure
from .theorems import verify_by_id
from .triangles import degree_triangle_floor, dense_triangle_count, triangle_count
from .triangles import triangle_workspace
from .verdicts import jsonable_value

_NEAR_BEST = 1e-9  # far above the spread of eigvalsh over isomorphic copies
DEFAULT_CEILING = 200_000_000

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
        """The job of a JSON job file; a field of the wrong type raises ValueError."""
        if not isinstance(d, dict):
            raise ValueError(f"a job is a JSON object, not {type(d).__name__}")
        job = SearchJob(d.get("target"), d.get("mode"), d.get("grid", {}), d.get("budget", 0),
                        d.get("seed", 0), d.get("ceiling", DEFAULT_CEILING))
        kinds = dict(target=str, mode=str, grid=dict, budget=int, seed=int, ceiling=int)
        for name, kind in kinds.items():
            value = getattr(job, name)
            if not isinstance(value, kind) or isinstance(value, bool):
                raise ValueError(f"job field {name!r} must be a {kind.__name__}, not {value!r}")
        for key, values in job.grid.items():
            kinds = (str, int) if key == "gamma" else (int,)  # gamma is read as a Fraction
            if not isinstance(values, list) or not values or any(
                    isinstance(v, bool) or not isinstance(v, kinds) for v in values):
                raise ValueError(f"job field 'grid' must map {key!r} to a non-empty list of "
                                 f"{' or '.join(k.__name__ for k in kinds)}, not {values!r}")
        return job


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
    """Complements F' of one size f, as rows in lexicographic order of their
    slot tuples. A row's children add one slot >= start, so a row that is
    itself a child added slot start - 1 to row up_idx of the frontier `up`;
    the top row is the shard's prefix pattern `base`. d = cherries(F') -
    t(F'). deg (B, r) holds F''s degrees, lo (B, r) the number of its edges
    (u, v), u < v, at each lower end u, and rows (B, r * words) its
    neighbourhood bit rows, vertex w being bit w % _ROW_BITS of word
    w // _ROW_BITS of the vertex's `words` columns. A frontier of the
    largest size is never expanded and has no deg, lo or rows."""

    def __init__(self, f: int, start: np.ndarray, d: np.ndarray, deg: Optional[np.ndarray],
                 lo: Optional[np.ndarray], rows: Optional[np.ndarray],
                 up: Optional["_Frontier"] = None, up_idx: Optional[np.ndarray] = None,
                 base: tuple = ()):
        self.f, self.start, self.d, self.deg, self.lo, self.rows = f, start, d, deg, lo, rows
        self.up, self.up_idx, self.base = up, up_idx, base

    def __getitem__(self, sl: slice) -> "_Frontier":
        return _Frontier(self.f, self.start[sl], self.d[sl], self.deg[sl], self.lo[sl],
                         self.rows[sl], self.up,
                         None if self.up_idx is None else self.up_idx[sl], self.base)

    def slot_rows(self, idx: np.ndarray) -> np.ndarray:
        """The sorted F' slots of rows idx, as a (len(idx), f) int64 array."""
        cols = []
        fr = self
        while fr.up is not None:
            cols.append(np.take(fr.start, idx) - 1)
            idx, fr = np.take(fr.up_idx, idx), fr.up
        cols += [np.full(len(idx), s, dtype=np.int64) for s in reversed(fr.base)]
        return np.array(cols[::-1], dtype=np.int64).reshape(self.f, len(idx)).T


def _star_margins(fr: _Frontier, star: np.ndarray) -> np.ndarray:
    """The margins of the representatives F' + star({0..k-1}) of fr's nodes,
    one row per node and one column per k = 0..len(star) - 1: star[k] +
    d(F') + S_k - E_k, where star[k] = const[f + k] + C(k, 2) and S_k - E_k
    is the prefix sum of lo below k (see `_ls_shard`)."""
    margin = fr.d[:, None] + star
    if len(star) > 1:
        margin[:, 1:] += np.cumsum(fr.lo[:, : len(star) - 1], axis=1)
    return margin


def _ls_shard(args: tuple) -> tuple:
    """One prefix-pattern shard of the dense triangle-count check, evaluated
    on one representative per orbit of the last vertex's complement
    neighbourhood.

    A complement F is F' + star(N): F' uses the first C(n-1, 2) slots, the
    K_{n-1} lattice, and N = N_F(n-1), since the last n - 1 slots are the
    pairs (i, n-1). The colex lattice of F' under the shard's prefix
    pattern is walked one size f at a time, in chunks of at most
    _WALK_CHUNK children: a child that adds slot s = (u, v) to F' has
    cherries + d_u + d_v and t(F') + |N_F'(u) & N_F'(v)|. Each node F'
    gives the representatives F' + star({0..k-1}), k <= min(n - 1, kmax -
    f), with margin

        const[f + k] + d(F') + S_k + C(k, 2) - E_k,

    where S_k is the sum of deg_F'(i) over i < k and E_k the number of F'
    edges inside {0..k-1}: the star adds deg_F'(i) cherries at each i < k
    and C(k, 2) at n - 1, and closes a triangle on each F' edge inside
    {0..k-1}. S_k - E_k counts the F' edges whose lower end is below k,
    the prefix sums of `lo`.

    Returns the labelled complements per size, each representative counting
    C(n-1, k) times; the negative representatives, as (F' slot rows, k)
    groups; and the shard's least margin, with the least image
    (`_least_star_image`) of some of the representatives at it (or None)
    and the groups of the others, at most _WALK_CHUNK rows. With qmax None
    only the counts are taken."""
    n, kmax, qmax, pattern = args
    r = max(n - 1, 0)
    su, sv = slot_ends(r)
    nl = len(su)
    prefix = min(_SHARD_PREFIX_BITS, nl)
    words = max(1, -(-r // _ROW_BITS))
    word_of = np.arange(words)
    # the stars {0..k-1} of a node of size f, with their C(r, k) images each
    stars = [range(min(r, kmax - f) + 1) for f in range(kmax + 1)]
    weight = [[comb(r, k) for k in ks] for ks in stars]
    if qmax is not None:
        # a complement of size f has margin const[f] + d:
        # t(G) = C(n,3) - f(n-2) + cherries(F) - t(F), less the LS requirement
        ns, floor_q = n * (n - 1) // 2, n * n // 4
        const = [comb(n, 3) - f * (n - 2) - min(ns - f - floor_q, qmax) * (n // 2)
                 for f in range(kmax + 1)]
        # the part of a representative's margin that depends on f and k alone
        star = [np.array([const[f + k] + comb(k, 2) for k in ks]) for f, ks in enumerate(stars)]
    counts = [0] * (kmax + 1)
    bad: list[tuple[np.ndarray, int]] = []
    # the least margin, the least image of the representatives at it taken
    # so far, and those not yet taken, as (F' slot rows, k) groups, with
    # their row count: they are taken once they exceed _WALK_CHUNK rows
    least: list = [1 << 60, None, [], 0]
    base = tuple(s for s in range(prefix) if pattern >> s & 1)
    f0 = len(base)
    if f0 > kmax:
        return counts, bad, (least[0], None, [])

    def add_slots(fr: _Frontier, u: np.ndarray, v: np.ndarray) -> None:
        # add edge (u[i], v[i]) to row i of fr, in place; deg, lo and rows
        # are fresh C-contiguous arrays, so ravel() gives views
        at = np.arange(len(u)) * r
        fr.deg.ravel()[at + u] += 1
        fr.deg.ravel()[at + v] += 1
        fr.lo.ravel()[at + u] += 1
        fr.rows.ravel()[(at + u) * words + v // _ROW_BITS] |= np.left_shift(1, v % _ROW_BITS)
        fr.rows.ravel()[(at + v) * words + u // _ROW_BITS] |= np.left_shift(1, u % _ROW_BITS)

    def pair_gain(fr: _Frontier, pidx: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        # d_u + d_v - |N_F'(u) & N_F'(v)| for each child (row pidx[i], slot (u[i], v[i]))
        at = pidx * r
        deg, rows = fr.deg.ravel(), fr.rows.ravel()
        ru = np.take(rows, (at + u)[:, None] * words + word_of)
        rv = np.take(rows, (at + v)[:, None] * words + word_of)
        common = _popcount(ru & rv, min(r, _ROW_BITS)).sum(1)
        return np.take(deg, at + u) + np.take(deg, at + v) - common

    def by_star(fr: _Frontier, hit: np.ndarray, least_only: bool = False) -> list:
        # the (F' slot rows, k) groups of the representatives where hit is
        # set; with least_only, of the k = 0 ones only the first, whose image
        # is the least: k = 0 relabels nothing, and fr's rows are in
        # lexicographic order
        groups = []
        for k in np.flatnonzero(hit.any(axis=0)).tolist():
            pick = np.flatnonzero(hit[:, k])
            groups.append((fr.slot_rows(pick[:1] if least_only and k == 0 else pick), k))
        return groups

    def visit(fr: _Frontier) -> None:
        for k, w in enumerate(weight[fr.f]):
            counts[fr.f + k] += w * len(fr.d)
        if qmax is None:
            return
        margin = _star_margins(fr, star[fr.f])
        bad.extend(by_star(fr, margin < 0))
        low = int(margin.min())
        if low < least[0]:
            least[:] = [low, None, [], 0]
        if low == least[0]:
            ties = by_star(fr, margin == low, least_only=True)
            least[2] += ties
            least[3] += sum(len(F) for F, k in ties)
            if least[3] > _WALK_CHUNK:
                least[1:] = [_least_star_image(n, least[2], least[1]), [], 0]

    def expand(fr: _Frontier) -> None:
        nchild = nl - fr.start
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
            if f == kmax:
                visit(_Frontier(f, s + 1, d, None, None, None, piece, pidx))
                continue
            child = _Frontier(f, s + 1, d, *(np.take(a, pidx, axis=0)
                                             for a in (piece.deg, piece.lo, piece.rows)),
                              piece, pidx)
            add_slots(child, u, v)
            visit(child)
            expand(child)

    top = _Frontier(f0, np.array([prefix]), np.zeros(1, dtype=np.int64),
                    np.zeros((1, r), dtype=np.int32), np.zeros((1, r), dtype=np.int32),
                    np.zeros((1, r * words), dtype=np.int64), base=base)
    for s in base:
        # the prefix edges, one at a time, by the same update as the walk
        u, v = su[s : s + 1], sv[s : s + 1]
        top.d += pair_gain(top, np.zeros(1, dtype=np.int64), u, v)
        add_slots(top, u, v)
    visit(top)
    if f0 < kmax:
        expand(top)
    return counts, bad, tuple(least[:3])


def _relabellings(r: int, k: int):
    """The relabellings sigma_N of vertices 0..r-1, one per k-set N in
    lexicographic order: sigma_N takes 0..k-1 onto N and k..r-1 onto the
    rest, both in order. Yields N and the slot map `to` of K_r: sigma_N
    moves the edge {i, j} in slot s to {sigma(i), sigma(j)}, in slot to[s]."""
    i, j = slot_ends(r)
    for N in combinations(range(r), k):
        sigma = np.array(N + tuple(v for v in range(r) if v not in N), dtype=np.int64)
        a, b = sigma[i], sigma[j]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        yield N, hi * (hi - 1) // 2 + lo


def _star_images(n: int, F: np.ndarray, k: int):
    """The images of the representative complements F' + star({0..k-1}), F'
    the rows of the slot array F, under the relabellings of vertices 0..n-2:
    one per k-set N (`_relabellings`), yields star(N) and the rows
    sigma_N(F'), sorted. star(N) is the slots C(n-1, 2) + i of the pairs
    (i, n-1), i in N, which follow every slot of F', so an image's sorted
    slot tuple is its row followed by star(N)."""
    r = max(n - 1, 0)
    nl = r * (r - 1) // 2
    for N, to in _relabellings(r, k):
        yield tuple(nl + v for v in N), np.sort(to[F], axis=1)


def _least_star_image(n: int, groups: list, least: Optional[tuple] = None) -> Optional[tuple]:
    """The least of `least` and the sorted slot tuples of the images of the
    representatives F' + star({0..k-1}), F' the rows of F, over the (F, k)
    in groups (`_star_images`), found without listing the images: one
    lexicographic sort per size, k and relabelling."""
    by_size: dict[tuple[int, int], list] = {}
    for F, k in groups:
        by_size.setdefault((F.shape[1], k), []).append(F)
    for (f, k), Fs in by_size.items():
        for tail, rows in _star_images(n, np.concatenate(Fs), k):
            row = rows[np.lexsort(rows.T[::-1])[0]] if rows.shape[1] else rows[0]
            image = tuple(row.tolist()) + tail
            if least is None or image < least:
                least = image
    return least


def _pool_map(fn: Callable, items: list, workers: int) -> list:
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(min(workers, len(items))) as pool:
        return pool.map(fn, items)


def _dense_dfs(n: int, min_edges: int, qmax: Optional[int], workers: int,
               ceiling: int) -> tuple:
    """`_ls_shard` over every prefix pattern of the graphs with >= min_edges
    edges, merged: the complements per size f, those below the LS bound for
    q <= qmax, and the least (margin, complement). A representative (F', k)
    stands for its C(n-1, k) images (`_star_images`), all of size |F'| + k
    and of its margin, one per k-set N = N_F(n-1), so the labelled
    complements are counted, listed and compared as a walk of every one
    would. With qmax None only the counts are taken."""
    if n < 0:
        raise ValueError(f"n={n}: a graph has n >= 0 vertices")
    est = dense_enumeration_size(n, min_edges)
    if est > ceiling:
        raise ValueError(f"n={n}: enumeration would visit {est} graphs > ceiling {ceiling}")
    ns = n * (n - 1) // 2
    kmax = ns - min_edges
    if kmax < 0:
        return [], [], None
    r = max(n - 1, 0)
    prefix = min(_SHARD_PREFIX_BITS, r * (r - 1) // 2)
    shards = [(n, kmax, qmax, p) for p in range(1 << prefix)]
    counts = [0] * (kmax + 1)
    bad: list[tuple[int, ...]] = []
    least, images, ties = 1 << 60, [], []
    for c, groups, (low, image, reps) in _pool_map(_ls_shard, shards, workers):
        counts = [a + b for a, b in zip(counts, c)]
        for F, k in groups:
            for tail, rows in _star_images(n, F, k):
                bad.extend(tuple(row) + tail for row in rows.tolist())
        if low < least:
            least, images, ties = low, [], []
        if low == least:
            images += [] if image is None else [image]
            ties += reps
    if not (images or ties):
        return counts, sorted(bad), None
    return counts, sorted(bad), (least, _least_star_image(n, ties, min(images, default=None)))


def enumerate_dense(
    n: int, min_edges: int, ceiling: int = DEFAULT_CEILING, workers: int = 1
) -> list[int]:
    """Count the labeled n-vertex graphs with >= min_edges edges per
    complement size f = C(n,2) - m, from one walked representative per
    orbit of the last vertex's complement neighbourhood (`_dense_dfs`)."""
    return _dense_dfs(n, min_edges, None, workers, ceiling)[0]


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


_CW_STEPS = 4  # (A + I) power steps before the Collatz-Wielandt bracket
_CW_MAX_N = 9  # the largest n whose bracket and signs are proved to fit in int64


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
    """0/1 uint8 adjacency matrices of the graphs with these slot masks."""
    i, j = slot_ends(n)
    ns = len(i)
    entry = np.full((n, n), ns)  # the slot of each matrix entry; ns is a zero column
    entry[i, j] = entry[j, i] = np.arange(ns)
    shifts = np.append(np.arange(ns), 62)  # masks stay below 2^62
    bits = ((masks[:, None] >> shifts) & 1).astype(np.uint8)
    # a gather, not a matmul: BLAS would add its buffers to the scan's memory
    return np.take(bits, entry, axis=1)


def _cw_bracket(n: int, masks: np.ndarray, deg: np.ndarray) -> tuple:
    """Collatz-Wielandt bounds l = min_i (Ax)_i / x_i <= lambda <= u =
    max_i (Ax)_i / x_i of these masks' graphs, at the positive vector x =
    (A + I)^_CW_STEPS (deg + 1), as int64 fractions (p, q), q > 0; 0/1 with
    no vertex. Isomorphic copies permute the pairs ((Ax)_i, x_i), so l and
    u are orbit invariants. x and Ax are formed in int32 from the mask
    bits, one slot's bit vector at a time. deg + 1 <= n and each step
    multiplies by at most n, so q <= x <= n^5 < 2^16 and p <= Ax < n^6 <
    2^20 for n <= _CW_MAX_N: the cross products that pick the ends stay
    below 2^36."""
    if n > _CW_MAX_N:
        raise ValueError(f"n={n}: the integer bracket is proved exact only for n <= {_CW_MAX_N}")
    ends = edge_slots(n)
    bits = ((masks >> np.arange(len(ends))[:, None]) & 1).astype(np.int32)  # row s: slot s

    def times_a(x: np.ndarray) -> np.ndarray:  # row v of x holds vertex v of every mask
        y = np.zeros_like(x)
        for bit, (i, j) in zip(bits, ends):
            y[i] += bit * x[j]
            y[j] += bit * x[i]
        return y

    x = deg.T.astype(np.int32) + 1
    for _ in range(_CW_STEPS):
        x = times_a(x) + x
    (lp, lq) = (up, uq) = np.zeros(len(masks), np.int64), np.ones(len(masks), np.int64)
    for v, (p, q) in enumerate(zip(times_a(x).astype(np.int64), x.astype(np.int64))):
        below, above = (p * lq < lp * q) | (v == 0), p * uq > up * q  # vertex 0 starts l
        lp, lq = np.where(below, p, lp), np.where(below, q, lq)
        up, uq = np.where(above, p, up), np.where(above, q, uq)
    return (lp, lq), (up, uq)


def _scaled_poly(coeffs: list, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """q^d poly(p/q) = sum_k c_k p^k q^(d-k), of poly's sign at p/q, for
    poly = sum_k c_k x^k of degree d. At a bracket end, the rows of
    `_SCAN_TARGETS` keep every term and partial sum below 2^60 + 2^58 +
    2^56 < 2^63 (BN's p^3, m p q^2 and 3t q^3, m < 2^6, 3t < 2^8)."""
    d = len(coeffs) - 1
    return sum(c * p**k * q ** (d - k) for k, c in enumerate(coeffs))


def _graph_from_mask(n: int, mask: int) -> Graph:
    """The graph whose edge set is this slot mask (bit s for slot s)."""
    return from_slot_bits(n, np.right_shift(mask, np.arange(n * (n - 1) // 2)) & 1)


def _graph6_of_masks(n: int, masks: list[int]) -> list[str]:
    """`emit_graph6` of the graphs with these slot masks, in one numpy step."""
    bits = np.array(masks, dtype=np.int64)[:, None] >> np.arange(n * (n - 1) // 2) & 1
    return emit_graph6_rows(n, bits)


@dataclass(frozen=True)
class _ScanTarget:
    """One full-scan target, its claim stated once as `violated(s, m, t)` and
    `tight(s, m, t)`, s (an int) the sign of the integer polynomial `poly(m,
    t)` at lambda and m, t ints or arrays: the exact stage reads them on the
    true sign, the kernel on the signs s >= 0 (`_evaluate`), so the claim
    must hold at s = -1 and poly be convex on lambda >= 0. `hypothesis(m,
    t, deg)` is exact; `counterexample` and `equality` map (g, m, t) to
    report fields besides the graph6. `equality` must be an isomorphism
    invariant: it runs once per flagged representative, `counterexample`
    once per image. A row's float `margin(lam, m, t)`, a positive multiple
    of -poly, is tracked at eigvalsh's lambda over the unflagged masks."""

    hypothesis: Callable
    violated: Callable
    tight: Callable
    poly: Callable
    counterexample: Callable
    equality: Optional[Callable]
    margin: Optional[Callable] = None


_SCAN_TARGETS = {
    # t >= lambda(lambda^2 - m)/3 without isolated vertices; m > 0 keeps out n = 0, as n = 1
    "BN": _ScanTarget(
        hypothesis=lambda m, t, deg: (m > 0) & deg.all(1),
        violated=lambda s, m, t: s > 0,
        tight=lambda s, m, t: s == 0,
        poly=lambda m, t: [-3 * t, -m, 0, 1],
        counterexample=lambda g, m, t: {"verdict": verify_by_id("BN_INEQ", g, {})[0].to_jsonable()},
        equality=lambda g, m, t: {"complete_bipartite": is_complete_bipartite(g)},
        margin=lambda lam, m, t: t - lam * (lam * lam - m) / 3.0,
    ),
    # lambda^2 - lambda >= m - 1, i.e. lambda >= (1 + sqrt(4m - 3))/2, forces 2t >= m - 1
    "BOOK": _ScanTarget(
        hypothesis=lambda m, t, deg: m >= 1,
        violated=lambda s, m, t: s >= 0 and 2 * t < m - 1,
        tight=lambda s, m, t: s == 0 and 2 * t == m - 1,
        poly=lambda m, t: [-(m - 1), -1, 1],
        counterexample=lambda g, m, t: {"verdict": {
            "m": m, "t": t, "claim": "lambda >= (1+sqrt(4m-3))/2 certified exactly",
            "needed_t": f"{m - 1}/2"}},
        equality=lambda g, m, t: {"m": m, "core_is_book": core_is_book(g)},
    ),
    # lambda <= sqrt(m) on triangle-free graphs
    "NOSAL": _ScanTarget(
        hypothesis=lambda m, t, deg: t == 0,
        violated=lambda s, m, t: s > 0 and m > 0,
        tight=lambda s, m, t: False,
        poly=lambda m, t: [-m, 0, 1],
        counterexample=lambda g, m, t: {
            "verdict": verify_by_id("NOSAL_NZ", g, {})[0].to_jsonable(),
            "note": "triangle-free graph with lambda > sqrt(m)"},
        equality=None,
    ),
}

EXHAUSTIVE_TARGETS = ("LS", *_SCAN_TARGETS)


def _evaluate(n: int, target: str, masks: np.ndarray, weight: np.ndarray | int = 1) -> dict:
    """One scan target's kernel on these masks: the weight of those that
    meet its hypothesis (`examined`), the `flagged` (mask, m, t), and a
    margin row's unflagged (margin, mask) near the least (`near`).

    A mask that meets the hypothesis and may break the claim at a sign s >=
    0 is flagged unless poly < 0 at both ends of its bracket l <= lambda <=
    u (`_cw_bracket`), exact integer signs (`_scaled_poly`). poly is convex
    on lambda >= 0, so then poly(lambda) < 0 and the claim holds.

    A concave margin is at least min(margin(l), margin(u)) there. eigvalsh
    runs on the mask with the least such bound, whose margin is at or above
    the least one, and then on the masks whose bound reaches that plus
    _NEAR_BEST; floats stray far less."""
    row = _SCAN_TARGETS[target]
    m, t, deg = _scan_chunk_stats(n, masks)
    keep = row.hypothesis(m, t, deg)
    breaks = [row.violated(s, m, t) | row.tight(s, m, t) for s in (0, 1)]
    live = np.flatnonzero(keep & (breaks[0] | breaks[1]))
    masks, m, t = masks[live], m[live], t[live]
    lo, hi = _cw_bracket(n, masks, deg[live])
    poly = row.poly(m, t)
    flag = (_scaled_poly(poly, *lo) >= 0) | (_scaled_poly(poly, *hi) >= 0)
    out = {"examined": int(np.sum(keep * weight)),
           "flagged": list(zip(*(a[flag].tolist() for a in (masks, m, t)))), "near": []}
    if row.margin is not None and not flag.all():
        ok, m, t = masks[~flag], m[~flag], t[~flag]
        low = np.minimum(*(row.margin(p[~flag] / q[~flag], m, t) for p, q in (lo, hi)))

        def margins(idx: np.ndarray) -> np.ndarray:  # at eigvalsh's lambda
            lam = np.linalg.eigvalsh(_adjacency_batch(n, ok[idx]).astype(np.float64))[:, -1]
            return row.margin(lam, m[idx], t[idx])

        reads = np.flatnonzero(low <= margins(np.argmin(low, keepdims=True))[0] + _NEAR_BEST)
        margin = margins(reads)
        close = margin <= margin.min() + _NEAR_BEST
        out["near"] = list(zip(margin[close].tolist(), ok[reads[close]].tolist()))
    return out


def _transposed(x: np.ndarray, r: int, i: int) -> np.ndarray:
    """The graphs on vertices 0..r-1 with these slot masks, vertices i and
    i + 1 swapped, in place, by two delta swaps: the slots of {j, i} and
    {j, i + 1} lie i apart for j < i, those of {i, j} and {i + 1, j} one
    apart for j > i + 1, and {i, i + 1} stays."""
    for shift, ends in ((i, [(j, i) for j in range(i)]),
                        (1, [(i, j) for j in range(i + 2, r)])):
        sel = sum(1 << b * (b - 1) // 2 + a for a, b in ends)
        if sel:
            swap = x >> shift
            swap ^= x
            swap &= sel
            x ^= swap
            swap <<= shift
            x ^= swap
    return x


def _block_labels(r: int, k: int) -> np.ndarray:
    """The least member of each low graph's orbit, over all 2^C(r, 2) graphs
    on vertices 0..r-1 (`lab[low]`), under the relabellings that fix N_k =
    {0..k-1} setwise, S_k x S_{r-k}. These are generated by the adjacent
    transpositions (i, i + 1), i != k - 1, each an involution.

    Every label starts as the graph itself and only ever takes the value of
    another label of its orbit: the least of its own and its image's under
    each generator in turn, then lab[lab] (pointer jumping). So lab[x] <= x
    and lab[x] stays in x's orbit. A round that lowers no label is a
    fixpoint: lab is equal at x and at every generator image of x, so it is
    constant on the orbit, which generator images connect; the orbit
    minimum mu has lab[mu] <= mu in the orbit, so lab[mu] = mu, and that
    constant is mu. The labels and one generator image are held, in int32
    below 2^31 graphs."""
    size = 1 << r * (r - 1) // 2
    dtype = np.int32 if size <= 1 << 31 else np.int64
    lab = np.arange(size, dtype=dtype)
    lowered = True
    while lowered:
        lowered = False
        for i in range(r - 1):
            if i != k - 1:
                image = np.take(lab, _transposed(np.arange(size, dtype=dtype), r, i))
                lowered |= bool((image < lab).any())
                np.minimum(lab, image, out=lab)
        image = np.take(lab, lab)
        lowered |= bool((image < lab).any())
        lab = image
    return lab


def _orbit_images(n: int, reps: list[tuple]) -> list[tuple]:
    """Every image of these representatives (mask, *invariants) under the
    relabellings of vertices 0..n-2, with the invariants. A mask low | N_k
    << C(n-1, 2) with N_k = {0..k-1} has the C(n-1, k) images sigma_N(low)
    | N << C(n-1, 2), one per k-set N (`_relabellings`)."""
    r = max(n - 1, 0)
    nl = r * (r - 1) // 2
    out: list[tuple] = []
    for k in range(r + 1):
        block = [rep for rep in reps if rep[0] >> nl == (1 << k) - 1]
        if not block:
            continue
        rows = (np.array([rep[0] for rep in block], dtype=np.int64)[:, None] >> np.arange(nl)) & 1
        for N, to in _relabellings(r, k):
            images = ((rows << to).sum(1) | sum(1 << v for v in N) << nl).tolist()
            out.extend((x, *rep[1:]) for x, rep in zip(images, block))
    return out


def _orbit_scan(n: int, target: str) -> tuple:
    """The scan of all 2^C(n,2) masks of n vertices, evaluated on one mask
    per orbit of the relabellings of vertices 0..n-2, one `_evaluate` call
    per block.

    A mask is low | N << C(n-1, 2): low is a graph on vertices 0..n-2 and N
    the neighbourhood of vertex n-1, since the slots from C(n-1, 2) on are
    the pairs (i, n-1). A relabelling of 0..n-2 that takes N onto N' maps
    the block of masks with neighbourhood N one to one onto the block with
    N' and keeps m, t, the degrees and lambda. So only the n blocks N_k =
    {0..k-1} are read. The relabellings that fix N_k map block k onto
    itself, and they too keep m, t, the degrees and lambda, so within it
    only the low graphs equal to their label are read: `_block_labels`
    labels each one by its orbit's least member, so there is one per orbit.
    A representative's examined count is taken once per orbit member and
    per k-set, its orbit's size times C(n-1, k) times. Blocks 0 and n-1
    share one labelling: their stabilisers, S_{n-1}, are generated by every
    (i, i + 1) of 0..n-2.

    Returns the examined count, the sorted flagged representatives (mask,
    m, t, orbit), the orbit being the masks of its block that it stands
    for, whose images `_orbit_images` gives, and for a row that tracks it
    the least (margin, mask) over the unflagged masks, or None.

    Flags are orbit invariants, as the brackets are (`_cw_bracket`).
    Margins are read at eigvalsh's lambda, which differs between isomorphic
    copies in the last bits, so every representative within _NEAR_BEST of
    the least margin has all its orbit's images evaluated again: the least
    unflagged mask of the labelled scan has a margin within the spread (far
    below _NEAR_BEST) of its representative's, so its orbit is among them,
    and the least (margin, mask) of the images is the one the labelled scan
    of every mask would choose. Orbit weights that do not add up to
    2^C(n,2), every labelled mask once, raise RuntimeError."""
    r = max(n - 1, 0)
    whole = _block_labels(r, 0)
    examined = weights = 0
    flagged: list[tuple] = []
    near: list[tuple] = []
    for k in range(r + 1):
        lab = whole if k in (0, r) else _block_labels(r, k)
        high = ((1 << k) - 1) << r * (r - 1) // 2
        low = np.flatnonzero(lab == np.arange(len(lab), dtype=lab.dtype))
        weight = np.bincount(lab)[low] * comb(r, k)
        weights += int(weight.sum())
        res = _evaluate(n, target, low | high, weight)

        def orbit(rep: int) -> tuple:  # the sorted masks of rep's orbit in block k
            return tuple((np.flatnonzero(lab == rep ^ high) | high).tolist())

        examined += res["examined"]
        flagged += [(*f, orbit(f[0])) for f in res["flagged"]]
        near += [(*f, orbit(f[1])) for f in res["near"]]
    if weights != 1 << n * (n - 1) // 2:
        raise RuntimeError(f"n={n}: the orbit weights add up to {weights}, not 2^C(n,2)")
    best = None
    if near:
        cut = min(near)[0] + _NEAR_BEST
        images = _orbit_images(n, [(x,) for margin, _, orbit in near if margin <= cut
                                   for x in orbit])
        best = min(_evaluate(n, target, np.array(images, dtype=np.int64)[:, 0])["near"])
    return examined, sorted(flagged), best


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


def _run_full_scan(job: SearchJob) -> SearchReport:
    report = SearchReport(job)
    row = _SCAN_TARGETS[job.target]
    reps, bests = [], []
    for n in sorted(job.grid.get("n", [])):
        if not 0 <= n <= _CW_MAX_N:
            raise ValueError(f"n={n}: a full scan needs 0 <= n <= {_CW_MAX_N}")
        total_masks = 1 << n * (n - 1) // 2  # the ceiling counts labelled graphs
        if total_masks > job.ceiling:
            raise ValueError(
                f"n={n}: full scan would visit {total_masks} graphs > ceiling {job.ceiling}"
            )
        examined, n_reps, n_best = _orbit_scan(n, job.target)
        report.graphs_examined += examined
        if n_best is not None:
            bests.append((n_best[0], n, n_best[1]))
        reps += [(n, _graph_from_mask(n, mask), m, t, orbit) for mask, m, t, orbit in n_reps]
    # one batched exact decision per flagged representative holds for its images
    signs = signs_at_lambda([g for _, g, *_ in reps], [row.poly(m, t) for _, _, m, t, _ in reps])
    hit: dict[int, list] = {}
    for (n, g, m, t, orbit), s in zip(reps, signs):
        bad, tight = row.violated(s, m, t), row.tight(s, m, t)
        if bad or tight:
            eq = row.equality(g, m, t) if tight else None
            hit.setdefault(n, []).extend((mask, m, t, bad, eq) for mask in orbit)
    equalities = report.detail["equality_set"] = []
    for n, block in hit.items():
        images = _orbit_images(n, block)
        for g6, (mask, m, t, bad, eq) in zip(_graph6_of_masks(n, [x[0] for x in images]), images):
            if bad:  # a verdict per image: its float margins are the image's own
                counterexample = row.counterexample(_graph_from_mask(n, mask), m, t)
                report.counterexamples.append({"graph6": g6, **counterexample})
            if eq is not None:
                equalities.append({"n": n, "graph6": g6, **eq})
    report.counterexamples.sort(key=lambda c: c["graph6"])
    equalities.sort(key=lambda e: (e["n"], e["graph6"]))
    if bests:
        margin, n, mask = min(bests)
        report.extremal_tracker = {
            "min_strict_margin": margin, "graph6": emit_graph6(_graph_from_mask(n, mask))}
    return report


def run_exhaustive(job: SearchJob, workers: int = 1) -> SearchReport:
    """The exhaustive check of job's target; only the LS walk reads workers."""
    if job.target in _SCAN_TARGETS:
        return _run_full_scan(job)
    if job.target != "LS":
        raise ValueError(f"no exhaustive runner for target {job.target!r}")
    return _run_ls_exhaustive(job, workers)


# ---------------------------------------------------------------------------
# Randomized probes: uniform G(n, m) plus structured perturbations.
# ---------------------------------------------------------------------------


def floyd_sample(rng: random.Random, universe: int, k: int) -> np.ndarray:
    """Uniform k-subset of range(universe) as a bool mask of shape
    (universe,) with exactly k entries True.

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
    return mask


@functools.lru_cache(maxsize=8)
def _y_reference(n: int, q: int) -> tuple[np.ndarray, int, Fraction, Fraction]:
    """Y_{n,2,q} for the random probe, built once per (n, q): its edges as a
    read-only sorted slot array, its triangle count, and a certified
    bracket of its lambda^2 (the exact family polynomial that `y_n2q`
    records at q = 1, CW otherwise)."""
    yc = y_n2q(n, q)
    if yc.predicted.lambda_poly is not None:
        y_lo, y_hi = family_lambda(yc.predicted.lambda_poly, Fraction(1, 10**14))
    else:
        ycert = perron_enclosure(yc.graph, 1e-10)
        y_lo, y_hi = Fraction(ycert.lambda_lo), Fraction(ycert.lambda_hi)
    y_slots = graph_slots(yc.graph)
    y_slots.flags.writeable = False
    return y_slots, triangle_count(yc.graph), y_lo * y_lo, y_hi * y_hi


@functools.lru_cache(maxsize=8)
def _y_mask(n: int, q: int) -> np.ndarray:
    """The edges of Y_{n,2,q} as a read-only bool mask over the edge slots,
    the form in which `run_random` writes a sample into its matrix."""
    mask = np.zeros(n * (n - 1) // 2, bool)
    mask[_y_reference(n, q)[0]] = True
    mask.flags.writeable = False
    return mask


@functools.lru_cache(maxsize=2)
def _flat_slots(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The flat (row-major) entries i*n + j and j*n + i of each edge slot
    {i, j} of an n x n matrix, read-only int64, in slot order. An upper
    entry e also gives the slot's ends: (i, j) = divmod(e, n)."""
    iu, jv = slot_ends(n)
    upper, lower = iu * n + jv, jv * n + iu
    upper.flags.writeable = lower.flags.writeable = False
    return upper, lower


@functools.lru_cache(maxsize=2)
def _lower_triangle(n: int) -> np.ndarray:
    """The read-only bool n x n mask of the strict lower triangle. Its True
    entries, in row-major order, are the edge slots in slot order."""
    tril = np.tri(n, k=-1, dtype=bool)
    tril.flags.writeable = False
    return tril


def _move_edge(A: np.ndarray, t: int, ab: tuple[int, int], cd: tuple[int, int]) -> int:
    """Move the edge ab of the graph that the float32 matrix A holds to cd,
    a non-edge or ab itself, in place, and return the triangle count after
    the move from the count t before it:

        t(G - ab + cd) = t(G) - codeg_G(a, b) + codeg_{G - ab}(c, d),

    since the triangles through an edge are the common neighbours of its
    ends. Each codegree is one row dot product, exact in float32 below 2^24."""
    (a, b), (c, d) = ab, cd
    t -= int(A[a] @ A[b])
    A[a, b] = A[b, a] = 0.0
    A[c, d] = A[d, c] = 1.0
    return t + int(A[c] @ A[d])


def _grid_point(job: SearchJob) -> dict:
    """The grid of a runner that examines one point of it, as key -> value.
    A key with more or fewer than one value raises ValueError, so no value
    of the job is dropped without a word."""
    for key, values in job.grid.items():
        if len(values) != 1:
            raise ValueError(f"a {job.mode} job takes one value of {key!r}, not {values!r}")
    return {key: values[0] for key, values in job.grid.items()}


def run_random(job: SearchJob) -> SearchReport:
    """Probe the matching-embedding spectral threshold on random graphs.

    Samples uniform G(n, m) at m = floor(n^2/4)+q plus edge-swap
    perturbations of the matching construction; every sample with certified
    lambda >= lambda(Y_{n,2,q}) must have at least q*floor(n/2) triangles.
    Samples are subsets of the edge slots (`graph.slot_ends` order). A
    uniform sample stays the slot mask that `floyd_sample` draws: one
    boolean store puts it in the strict lower triangle of a bool buffer L,
    whose row and column sums are its degrees. It is settled on its degrees
    alone when it can be: Hofmeister's free rung (`degree_rung`) decides
    the hypothesis, and `degree_triangle_floor` bounds its triangles. One
    float32 adjacency matrix A, which the job reuses as it does the
    triangle count's workspace, is built from L (its union with its
    transpose overwrites every entry of A) only when a CW rung or a
    triangle count reads the sample. Y is written the same way, and each
    perturbation swaps one edge of Y in A and swaps it back, so A is never
    cleared, and a sample allocates no n x n array unless its lambda needs
    the CW rungs.

    Triangles are proved where they can be and counted only where a proof
    falls short; the report is the one that counting every
    hypothesis-true sample gives.

    - A hypothesis-true uniform sample has at least
      ceil((sum(d^2) - n*m)/3) triangles. It is counted at once when that
      floor is below q*floor(n/2), since it could be a counterexample. A
      floor at or above the running minimum of the counts cannot lower
      `min_triangles_given_hypothesis`, and the sample is done. Otherwise
      the sample is counted at once when no perturbation follows, and
      deferred, as its index and floor, when one does.
    - A perturbation Y - ab + cd is counted from t(Y), which `_y_reference`
      keeps, by the codegree identity of `_move_edge`.
    - After the perturbations, if some deferred floor is below the running
      minimum, the rng state taken before the first uniform draw is
      restored and the uniform samples are drawn again, in order, up to the
      last such sample; each one whose floor is still below the running
      minimum is counted. A sample with fewer triangles than the minimum
      has a floor below it too, so the minimum that results is exact. The
      job holds one rng state and one int per deferred sample, never a
      state or a slot array per sample.

    Every grid key takes one value, and samples and perturbations are
    counts; anything else raises ValueError.
    """
    if job.target != "SPEC_LS_Y":
        raise ValueError(f"no random runner for target {job.target!r}")
    report = SearchReport(job)
    rng = random.Random(job.seed)
    grid = _grid_point(job)
    n, q = grid["n"], grid.get("q", 1)
    n_uniform = grid.get("samples", job.budget or 1000)
    n_perturb = grid.get("perturbations", 0)
    for key, value in (("samples", n_uniform), ("perturbations", n_perturb)):
        if value < 0:
            raise ValueError(f"a random job takes a count >= 0 of {key!r}, not {value}")
    m = n * n // 4 + q
    bound = q * (n // 2)
    y_slots, y_t, y_lo2, y_hi2 = _y_reference(n, q)
    upper, lower = _flat_slots(n)
    tril = _lower_triangle(n)
    ns = len(upper)
    A = np.zeros((n, n), np.float32)
    flat = A.reshape(-1)  # a view: writes go to A
    L, B = np.zeros((n, n), bool), np.empty((n, n), bool)  # L is False on and above the diagonal
    Lu = L.view(np.uint8)
    walks = triangle_workspace(n)
    built = False  # does A hold the sample that L holds?

    def above_y(iv) -> Optional[bool]:  # is lambda(G) > lambda(Y)?
        return True if iv[0] > y_hi2 else False if iv[1] < y_lo2 else None

    def put(slots, value: float) -> None:
        for half in (upper, lower):
            flat[half[slots]] = value

    def put_mask(mask: np.ndarray) -> None:  # L holds the sample from here on; A not yet
        nonlocal built
        L[tril] = mask
        built = False

    def build() -> None:  # A holds the sample that L holds
        nonlocal built
        if not built:
            np.logical_or(L, L.T, out=B)
            np.copyto(A, B)
            built = True

    def degrees() -> np.ndarray:  # of the sample in L; exact in int16, as n <= 4096 < 2^15
        return (Lu.sum(axis=0, dtype=np.int16) + Lu.sum(axis=1, dtype=np.int16)).astype(np.int64)

    hyp_true = 0
    min_t = None
    examined = 0

    def hypothesis(d: Optional[np.ndarray] = None) -> bool:
        """Is the sample hypothesis-true? d: the degrees of the uniform
        sample that L holds; None: the perturbation that A holds."""
        nonlocal hyp_true, examined
        examined += 1
        decided = None if d is None else above_y(degree_rung(d))
        if decided is None:
            build()
            decided = _decide(above_y, A)
        if isinstance(decided, Ordering):
            report.ties += 1
            return False
        if decided:
            hyp_true += 1
        return decided

    def lowers_min(floor: int) -> bool:
        return min_t is None or floor < min_t

    def count() -> int:  # the triangles of the uniform sample that L holds
        build()
        return dense_triangle_count(A, walks)

    def record(t: int) -> None:  # the hypothesis-true sample that A holds has t triangles
        nonlocal min_t
        min_t = t if min_t is None else min(min_t, t)
        if t < bound:
            g = from_matrix(A)
            v = verify_by_id("SPEC_LS_Y", g, {"q": q})[0]
            report.counterexamples.append(
                {"graph6": emit_graph6(g), "verdict": v.to_jsonable()}
            )

    start = rng.getstate()
    deferred: dict[int, int] = {}  # uniform sample index -> its triangle floor
    for i in range(n_uniform):
        put_mask(floyd_sample(rng, ns, m))
        d = degrees()
        if hypothesis(d):
            floor = degree_triangle_floor(d)
            if floor < bound or (lowers_min(floor) and not n_perturb):
                record(count())
            elif lowers_min(floor):
                deferred[i] = floor
    put_mask(_y_mask(n, q))
    build()  # A holds Y from here on, between perturbations
    for _ in range(n_perturb):
        dropped = int(y_slots[rng.randrange(len(y_slots))])
        while True:  # any slot outside Y minus the dropped one, which may come back
            cand = rng.randrange(ns)
            if flat[upper[cand]] == 0.0 or cand == dropped:
                break
        t = _move_edge(A, y_t, divmod(int(upper[dropped]), n), divmod(int(upper[cand]), n))
        if hypothesis():
            record(t)
        put(cand, 0.0)
        put(dropped, 1.0)
    last = max((i for i, floor in deferred.items() if lowers_min(floor)), default=-1)
    if last >= 0:  # replay the uniform draws
        rng.setstate(start)
        for i in range(last + 1):
            mask = floyd_sample(rng, ns, m)
            if i in deferred and lowers_min(deferred[i]):
                put_mask(mask)
                record(count())
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
    grid = _grid_point(job)
    n = grid["n"]
    gamma = Fraction(grid["gamma"])
    s = next((s for s in range(2, 64) if Fraction(s - 1, s) < gamma <= Fraction(s, s + 1)), None)
    if s is None:
        raise ValueError(f"gamma must lie in (1/2, 63/64], got {gamma}")
    steps = job.budget or 200
    restarts = grid.get("restarts", 3)
    plateau_budget = grid.get("plateau", 30)
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
