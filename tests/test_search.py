import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations
from math import comb
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specls import roots, search, spectral, theorems
from specls.families import book_join, build_from_spec, y_n2q
from specls.graph6 import emit_graph6, parse_graph6
from specls.morphism import are_isomorphic
from specls.search import (
    SearchJob,
    _dense_dfs,
    _graph_from_mask,
    core_is_book,
    dense_enumeration_size,
    edge_slots,
    enumerate_dense,
    floyd_sample,
    graph_from_complement,
    ratio_scan,
    run_exhaustive,
    run_local_search,
    run_random,
)
from specls.graph import add_edge, adjacency_matrix, build_graph, complete_graph, empty_graph
from specls.graph import from_matrix
from specls.graph import remove_edge
from specls.graph import is_complete_bipartite, slot_bits, slot_ends
from specls.triangles import _triangle_count_bit_rows, dense_triangle_count, triangle_count


def test_enumerate_counts_tiny():
    assert enumerate_dense(4, 5) == [1, 6]
    counts = enumerate_dense(5, 7)
    assert counts == [comb(10, f) for f in range(4)]
    assert sum(counts) == dense_enumeration_size(5, 7) == 176
    assert enumerate_dense(4, 7) == []


def test_enumerate_dense_counts_every_labelled_complement():
    # the counts that a walk of every labelled complement gives, from n = 0
    # (one empty graph, no last vertex) to 6, and min_edges past both ends
    for n in range(7):
        ns = n * (n - 1) // 2
        for e in range(-2, ns + 2):
            assert enumerate_dense(n, e) == [comb(ns, f) for f in range(ns - e + 1)], (n, e)


def test_ls_walk_at_n_8_evaluates_one_representative_per_star_orbit(monkeypatch):
    # the nodes F' of the K_7 lattice with |F'| <= 9, each with the stars
    # {0..k-1}, k <= min(7, 9 - |F'|), in place of 11,698,223 complements
    evaluated = []
    kernel = search._star_margins

    def spy(fr, star):
        evaluated.append(kernel(fr, star).size)
        return kernel(fr, star)

    monkeypatch.setattr(search, "_star_margins", spy)
    rep = run_exhaustive(SearchJob("LS", "exhaustive", {"n": [8], "q": [3]}), workers=1)
    assert sum(evaluated) == 1_415_627
    assert rep.graphs_examined == dense_enumeration_size(8, 19) == 11_698_223


def test_every_star_representative_has_the_margin_of_its_complement(monkeypatch):
    # each representative F' + star({0..k-1}) of every F' on K_5, rebuilt
    # and counted from scratch; with kmax = 15 the stars reach k = 5, and
    # they close triangles on the F' edges inside {0..k-1}
    n, qmax = 6, 2
    ns, nl = 15, 10
    seen = []
    kernel = search._star_margins

    def spy(fr, star):
        margin = kernel(fr, star)
        slots = fr.slot_rows(np.arange(len(margin))).tolist()
        for i, row in enumerate(margin.tolist()):
            for k, got in enumerate(row):
                comp = tuple(slots[i]) + tuple(range(nl, nl + k))
                t = triangle_count(graph_from_complement(n, comp))
                seen.append((got, t - min(ns - len(comp) - n * n // 4, qmax) * (n // 2)))
        return margin

    monkeypatch.setattr(search, "_star_margins", spy)
    _dense_dfs(n, 0, qmax, 1, 10**6)
    assert len(seen) == (1 << nl) * n  # 2^10 nodes, each with k = 0..5
    assert all(got == want for got, want in seen)


def test_walk_pool_starts_at_most_one_process_per_shard(monkeypatch):
    # n = 6 has 32 shards: 64 workers start 32 processes, and 2 start 2.
    # The fake context records the process count and maps in this process.
    started = []

    class Pool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(it) for it in items]

    monkeypatch.setattr(search.multiprocessing, "get_context",
                        lambda method: SimpleNamespace(Pool=Pool))
    expected = enumerate_dense(6, 0, workers=1)
    assert started == []
    assert enumerate_dense(6, 0, workers=64) == enumerate_dense(6, 0, workers=2) == expected
    assert started == [32, 2]


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


@pytest.mark.parametrize(
    "n, kmax, qmax", [(6, 5, 3), (7, 5, 2), (7, 5, 6), (12, 3, 3), (20, 2, 1)]
)
def test_complement_walk_matches_combinations(n, kmax, qmax):
    # the complements of each size as itertools.combinations, which lists
    # them in lexicographic order; n = 12 has 66 slots, n = 20 has 190
    ns = n * (n - 1) // 2
    counts, bad, margins = [], [], {}
    for f in range(kmax + 1):
        counts.append(0)
        for comp in combinations(range(ns), f):
            counts[f] += 1
            t = triangle_count(graph_from_complement(n, comp))
            margins[comp] = t - min(ns - f - n * n // 4, qmax) * (n // 2)
            if margins[comp] < 0:
                bad.append(comp)
    best = min((margin, comp) for comp, margin in margins.items())
    got = _dense_dfs(n, ns - kmax, qmax, 2, 10**6)
    assert got == (counts, sorted(bad), best)
    assert type(got[2][0]) is int and all(type(s) is int for s in got[2][1])
    if qmax == 6:  # the least margin is reached more than once
        assert sum(margin == best[0] for margin in margins.values()) > 1
    if qmax == 3 and n == 6:  # q >= n/2 lies outside the theorem
        assert bad


def test_complement_walk_across_row_words(monkeypatch):
    # 2 vertex bits per word splits n = 7 rows over 4 words, the layout
    # that n >= 64 takes at 63 bits per word
    expected = _dense_dfs(7, 14, 6, 1, 10**6)
    monkeypatch.setattr(search, "_ROW_BITS", 2)
    assert _dense_dfs(7, 14, 6, 1, 10**6) == expected


def test_least_margin_ties_are_taken_in_bounded_memory():
    # with 3 complement edges at n = 20 the least margin is that of the
    # 581,400 3-matchings, whose least image is kept, not every one listed
    tracemalloc.start()
    try:
        counts, bad, best = _dense_dfs(20, 187, 9, 1, 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == [comb(190, f) for f in range(4)]
    assert bad == []
    assert best == (comb(20, 3) - 3 * 18 - 9 * 10, (0, 5, 14))
    assert peak < 20_000_000, peak


def test_least_margin_ties_taken_in_small_batches(monkeypatch):
    # the tied representatives are taken at every visit (0) or every 16
    # rows, many times per shard; at n = 2 the least is the empty complement
    cases = [(2, 0, 0), (5, 5, 1), (7, 14, 6)]
    expected = [_dense_dfs(n, e, q, 1, 10**6) for n, e, q in cases]
    assert expected[0] == ([1, 1], [], (0, ()))
    for chunk in (0, 16):
        monkeypatch.setattr(search, "_WALK_CHUNK", chunk)
        assert [_dense_dfs(n, e, q, 1, 10**6) for n, e, q in cases] == expected


def test_enumerate_dense_beyond_one_word_of_slots():
    assert enumerate_dense(12, 64) == [comb(66, f) for f in range(3)]


def test_popcount_table():
    rng = random.Random(9)
    values = [rng.getrandbits(63) for _ in range(2000)] + [0, 1, 2**63 - 1, 0xFFFF, 1 << 16]
    got = search._popcount(np.array(values, dtype=np.int64))
    assert got.tolist() == [v.bit_count() for v in values]
    small = [v & 0xFFFFF for v in values]
    got = search._popcount(np.array(small, dtype=np.int64), 20)
    assert got.tolist() == [v.bit_count() for v in small]


def _unpruned_scan(n: int, target: str, band: float = 1e-6) -> tuple[list, tuple]:
    """The BOOK/NOSAL/BN float tests with an eigensolve of every mask, at
    this float band: the flagged (mask, m, t), and BN's least (margin,
    mask) of the unflagged masks without isolated vertices."""
    slots = edge_slots(n)
    masks = np.arange(1 << len(slots))
    A = np.zeros((len(masks), n, n))
    for s, (i, j) in enumerate(slots):
        A[:, i, j] = A[:, j, i] = masks >> s & 1
    m = A.sum((1, 2)) / 2
    t = np.rint(np.einsum("bij,bjk,bki->b", A, A, A) / 6)
    lam = np.linalg.eigvalsh(A)[:, -1]
    least = None
    if target == "BOOK":
        gap = lam * lam - lam - (m - 1)
        suspects = (m >= 1) & (gap >= -band) & (2 * t < m - 1)
        flagged = suspects | (m >= 1) & (np.abs(gap) <= band) & (2 * t == m - 1)
    elif target == "NOSAL":
        flagged = (t == 0) & (lam * lam >= m - band) & (m > 0)
    else:
        keep = (A.sum(1) > 0).all(1) & (m > 0)
        margin = t - lam * (lam * lam - m) / 3
        flagged = keep & (margin <= band)
        ok = keep & ~flagged
        least = min(zip(margin[ok].tolist(), masks[ok].tolist()), default=None)
    return list(zip(*(a[flagged].astype(int).tolist() for a in (masks, m, t)))), least


def _scan_all_chunks(n: int, target: str) -> dict:
    return search._evaluate(n, target, np.arange(1 << n * (n - 1) // 2, dtype=np.int64))


def _shift_by_one(monkeypatch, target: str) -> None:
    """Make the BOOK or NOSAL row's polynomial its own less 1, so that it
    flags where the gap at a bracket end is at least -1, as a float band of
    1 did: BOOK x^2 - x - (m - 2), NOSAL x^2 - (m - 1)."""
    shifted = {"BOOK": lambda m, t: [-(m - 2), -1, 1], "NOSAL": lambda m, t: [-(m - 1), 0, 1]}
    row = dataclasses.replace(search._SCAN_TARGETS[target], poly=shifted[target])
    monkeypatch.setitem(search._SCAN_TARGETS, target, row)


@pytest.mark.parametrize("target", ["BOOK", "NOSAL", "BN"])
@pytest.mark.parametrize("n", range(1, 7))
def test_cw_prefilter_keeps_every_flagged_mask(monkeypatch, n, target):
    # every row flags from its CW bracket alone, and flags what an
    # eigensolve of every mask flags; BN's least unflagged margin is read
    # off eigvalsh on a few of them
    got = _scan_all_chunks(n, target)
    flagged, least = _unpruned_scan(n, target)
    assert got["flagged"] == flagged
    assert min(got["near"], default=None) == least
    assert bool(flagged) == (n >= 2)  # K_2 is tight for each target
    assert (least is None) == (target != "BN" or n < 3)
    if target != "BN":
        # the row shifted by 1 flags what an eigensolve flags at band 1
        _shift_by_one(monkeypatch, target)
        wide = set(_unpruned_scan(n, target, band=1.0)[0])
        assert wide <= set(_scan_all_chunks(n, target)["flagged"])


@pytest.mark.parametrize("k", range(1, 6))
def test_cw_prefilter_never_drops_a_book(k):
    # B_k = K_2 joined to k independent vertices: 2t = m - 1 and
    # lambda^2 - lambda = m - 1 exactly, so every placement is an equality;
    # each is read among the masks of its aligned range of 2^10
    chunk_bits = 10
    rng = random.Random(k)
    for n in range(k + 2, 8):
        index = {e: s for s, e in enumerate(edge_slots(n))}
        for _ in range(3):
            a, b, *pages = rng.sample(range(n), k + 2)
            edges = [(a, b)] + [(a, p) for p in pages] + [(b, p) for p in pages]
            mask = sum(1 << index[min(e), max(e)] for e in edges)
            chunk = mask >> chunk_bits << chunk_bits
            size = min(1 << chunk_bits, (1 << len(index)) - chunk)
            got = search._evaluate(n, "BOOK", np.arange(chunk, chunk + size, dtype=np.int64))
            assert (mask, 2 * k + 1, k) in got["flagged"]


def test_cw_flagged_rows_hold_below_zero_and_gain_with_lambda():
    # `_evaluate` flags a mask unless poly < 0 at both ends of its CW
    # bracket, which proves the claim when it holds at s = -1 and poly is
    # convex on lambda >= 0; checked in integers on every m, t that n <= 9
    # vertices have, convexity as coefficients of poly'' that are >= 0
    m, t = (a.ravel() for a in np.meshgrid(np.arange(comb(9, 2) + 1), np.arange(comb(9, 3) + 1)))
    assert set(search._SCAN_TARGETS) == {"BN", "BOOK", "NOSAL"}
    for name, row in search._SCAN_TARGETS.items():
        assert not np.any(row.violated(-1, m, t) | row.tight(-1, m, t)), name
        assert all(np.all(k * (k - 1) * c >= 0) for k, c in enumerate(row.poly(m, t))), name
    # BN's margin, a positive multiple of -poly, is concave
    lam = np.linspace(0.0, 9.0, 901)[:, None]
    assert (np.diff(search._SCAN_TARGETS["BN"].margin(lam, m, t), 2, axis=0) <= 1e-9).all()


def _einsum_cw_vectors(A: np.ndarray, deg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ax and x = (A + I)^_CW_STEPS (deg + 1) as einsums over a uint8
    adjacency batch, in int64: the reference for `search._cw_bracket`."""
    A, x = A.astype(np.int64), deg + 1
    for _ in range(search._CW_STEPS):
        x = np.einsum("bij,bj->bi", A, x) + x
    return np.einsum("bij,bj->bi", A, x), x


def _mask_samples(n: int, rng: random.Random, count: int) -> np.ndarray:
    """Every slot mask of n vertices up to 2^10 masks, else `count` random ones."""
    ns = n * (n - 1) // 2
    if ns <= 10:
        return np.arange(1 << ns, dtype=np.int64)
    return np.array([rng.getrandbits(ns) for _ in range(count)], dtype=np.int64)


@pytest.mark.parametrize("n", range(1, 12))
def test_cw_bound_from_the_mask_bits_equals_the_einsum(n):
    # the bracket's ends are int64 fractions p/q, the least and the largest
    # of the einsum's (Ax)_i / x_i, compared exactly; above n = 9 it refuses
    masks = _mask_samples(n, random.Random(n), 20_000)
    deg = search._scan_chunk_stats(n, masks)[2]
    if n > search._CW_MAX_N:
        with pytest.raises(ValueError, match=rf"n={n}: the integer bracket"):
            search._cw_bracket(n, masks, deg)
        return
    y, x = _einsum_cw_vectors(search._adjacency_batch(n, masks), deg)
    assert (x <= n**5).all() and (y < n**6).all()
    (lp, lq), (up, uq) = search._cw_bracket(n, masks, deg)
    for p, q in ((lp, lq), (up, uq)):
        assert p.dtype == q.dtype == np.int64 and (q > 0).all()
        assert ((p[:, None] * x == y * q[:, None]).any(1)).all()  # p/q is one of the ratios
    assert (y * lq[:, None] >= lp[:, None] * x).all()
    assert (y * uq[:, None] <= up[:, None] * x).all()


def test_scaled_poly_is_exact_over_the_bracket_range():
    # q^d poly(p/q) in int64 equals Python's integers for every row's
    # polynomial, at the largest p < 2^20, q < 2^16, m and t of n = 9
    rng = random.Random(9)
    p = np.array([2**20 - 1, 2**20 - 1, 1, 0] + [rng.randrange(2**20) for _ in range(500)])
    q = np.array([2**16 - 1, 1, 2**16 - 1, 1] + [rng.randrange(1, 2**16) for _ in range(500)])
    m = np.array([36, 0, 36, 0] + [rng.randrange(37) for _ in range(500)])
    t = np.array([84, 0, 84, 0] + [rng.randrange(85) for _ in range(500)])
    for name, row in search._SCAN_TARGETS.items():
        got = search._scaled_poly(row.poly(m, t), p, q).tolist()
        want = [sum(int(c) * int(a)**k * int(b)**(len(cs) - 1 - k) for k, c in enumerate(cs))
                for a, b, cs in zip(p, q, (row.poly(int(x), int(y)) for x, y in zip(m, t)))]
        assert got == want, name


@pytest.mark.parametrize("target", ["BN", "BOOK", "NOSAL"])
def test_every_mask_that_may_break_its_claim_is_flagged(target):
    # the exact sign at lambda of every mask at n <= 5: each one that meets
    # the hypothesis, whose claim some sign s >= 0 would break or meet, and
    # whose own sign is >= 0 is flagged, so an unflagged one has sign -1
    row = search._SCAN_TARGETS[target]
    for n in range(6):
        masks = np.arange(1 << n * (n - 1) // 2, dtype=np.int64)
        m, t, deg = (a.tolist() for a in search._scan_chunk_stats(n, masks))
        graphs = [_graph_from_mask(n, x) for x in masks.tolist()]
        signs = roots.signs_at_lambda(graphs, [row.poly(a, b) for a, b in zip(m, t)])
        hypothesis = row.hypothesis(*(np.array(a) for a in (m, t, deg))).tolist()
        breaks = [any(row.violated(r, a, b) or row.tight(r, a, b) for r in (0, 1))
                  for a, b in zip(m, t)]
        must = {x for x, s, h, b in zip(masks.tolist(), signs, hypothesis, breaks)
                if h and b and s >= 0}
        flagged = {f[0] for f in _scan_all_chunks(n, target)["flagged"]}
        assert must <= flagged, n
        assert bool(must) == (n >= 2)  # K_2 is tight for each target


@pytest.mark.parametrize("n", range(12))
def test_graph6_of_masks_equals_emit_graph6(n):
    masks = _mask_samples(n, random.Random(100 + n), 500).tolist()
    got = search._graph6_of_masks(n, masks)
    assert got == [emit_graph6(_graph_from_mask(n, mask)) for mask in masks]
    assert search._graph6_of_masks(n, []) == []
    assert [parse_graph6(s) for s in got] == [_graph_from_mask(n, mask) for mask in masks]


def _labelled_scan(n: int, target: str) -> tuple:
    """The scan kernel over every labelled mask, in chunks of 2^15: the
    examined count, the flagged (mask, m, t), and BN's least (margin, mask),
    the first least margin of each chunk compared as tuples."""
    total, chunk = 1 << n * (n - 1) // 2, 1 << 15
    parts = [search._evaluate(n, target, np.arange(base, min(base + chunk, total), dtype=np.int64))
             for base in range(0, total, chunk)]
    near = [c for p in parts for c in p["near"]]
    return (sum(p["examined"] for p in parts),
            sorted(x for p in parts for x in p["flagged"]),
            min(near, default=None))


@pytest.mark.parametrize(
    "n, target",
    [(n, t) for t in ("BOOK", "NOSAL", "BN") for n in range(7)]
    + [(7, "BOOK"), (7, "NOSAL")],
)
def test_orbit_scan_equals_the_labelled_scan(n, target):
    # each flagged representative is the least mask of its orbit in its
    # block; the orbit, then `_orbit_images`, give every labelled image
    expected = _labelled_scan(n, target)
    examined, reps, best = search._orbit_scan(n, target)
    assert all(mask == orbit[0] == min(orbit) for mask, m, t, orbit in reps)
    images = search._orbit_images(n, [(x, m, t) for mask, m, t, orbit in reps for x in orbit])
    assert (examined, sorted(images), best) == expected
    if n >= 4:  # the compared sets are not empty
        assert expected[1] or expected[2]


def test_orbit_images_relabel_the_low_graph_onto_each_neighbourhood():
    # the path 0-1, 1-2 (slots 0 and 2 of 4 vertices) with vertex 4 joined
    # to {0, 1}: sigma = (1, 3, 0, 2) for N = {1, 3} takes it to 1-3, 3-0
    n = 5
    index = {e: s for s, e in enumerate(edge_slots(n))}
    rep = sum(1 << index[e] for e in [(0, 1), (1, 2), (0, 4), (1, 4)])
    images = [x for x, in search._orbit_images(n, [(rep,)])]
    assert len(images) == comb(4, 2) == len(set(images))
    image = sum(1 << index[e] for e in [(1, 3), (0, 3), (1, 4), (3, 4)])
    assert image in images
    g = _graph_from_mask(n, rep)
    assert all(are_isomorphic(g, _graph_from_mask(n, x)) for x in images)
    assert sorted(x >> 6 for x in images) == sorted(
        sum(1 << v for v in N) for N in combinations(range(4), 2))


def _block_representatives(n: int) -> list:
    """The least low graphs of block k, per k = 0..n-1, as `_block_labels` gives them."""
    r = max(n - 1, 0)
    labels = [search._block_labels(r, k) for k in range(r + 1)]
    return [np.flatnonzero(lab == np.arange(len(lab))) for lab in labels]


@pytest.mark.parametrize("n", range(1, 8))
def test_block_representatives_are_the_rooted_graphs(n):
    # a block k graph up to the relabellings fixing {0..k-1} is a graph on
    # n vertices rooted at n - 1 up to isomorphism: OEIS A000666
    count = sum(len(reps) for reps in _block_representatives(n))
    assert count == [1, 2, 6, 20, 90, 544, 5096][n - 1]


@pytest.mark.parametrize("n", range(1, 8))
def test_block_orbits_cover_every_labelled_graph_once(n):
    # each representative's orbit under every relabelling that fixes
    # {0..k-1}, listed test-side: it is the least member, and the orbits
    # times their C(n-1, k) neighbourhoods add up to every labelled graph
    r = max(n - 1, 0)
    i, j = slot_ends(r)
    total = 0
    for k, reps in enumerate(_block_representatives(n)):
        sigma = np.array([a + b for a in permutations(range(k))
                          for b in permutations(range(k, r))], dtype=np.int64)
        # the slot of {sigma(i), sigma(j)} for each relabelling sigma and slot {i, j}
        lo, hi = np.minimum(sigma[:, i], sigma[:, j]), np.maximum(sigma[:, i], sigma[:, j])
        to = hi * (hi - 1) // 2 + lo
        bits = reps[:, None] >> np.arange(len(i)) & 1
        images = (bits[:, None, :] << to[None]).sum(2)
        assert (images.min(1) == reps).all()
        total += comb(r, k) * sum(len(set(row)) for row in images.tolist())
    assert total == 2 ** comb(n, 2)


def test_book_scan_at_n_7_evaluates_one_block_per_neighbourhood_size(monkeypatch):
    # one mask per orbit of each block's stabiliser: the rooted graphs on 7
    # vertices (OEIS A000666), not the 7 * 2^15 masks of the blocks
    evaluated = []
    kernel = search._evaluate

    def spy(n, target, masks, weight=1):
        evaluated.append(len(masks))
        return kernel(n, target, masks, weight)

    monkeypatch.setattr(search, "_evaluate", spy)
    rep = run_exhaustive(SearchJob("BOOK", "exhaustive", {"n": [7]}), workers=1)
    assert sum(evaluated) == 5096 < 7 * 2**15
    assert len(evaluated) == 7 and rep.graphs_examined == 2**21 - 1


def test_full_scans_decide_each_flagged_orbit_once(monkeypatch):
    # the exact stage reads one graph per flagged representative, and the
    # kernel flags every row from the CW bracket with no adjacency matrix;
    # BN eigensolves only 16 rows of least-margin candidates and, in 211, the
    # images of the 4 near ones, where it eigensolved 4,430 representatives
    # and 210 images
    batches, built, rows = [], [], []
    signs, from_mask = search.signs_at_lambda, search._graph_from_mask
    adjacency = search._adjacency_batch
    monkeypatch.setattr(search, "signs_at_lambda",
                        lambda graphs, qs: batches.append(len(graphs)) or signs(graphs, qs))
    monkeypatch.setattr(search, "_graph_from_mask",
                        lambda n, mask: built.append(mask) or from_mask(n, mask))
    monkeypatch.setattr(search, "_adjacency_batch",
                        lambda n, masks: rows.append(len(masks)) or adjacency(n, masks))
    rep = run_exhaustive(SearchJob("BOOK", "exhaustive", {"n": [7]}), workers=1)
    assert (batches, len(built), sum(rows)) == ([15], 15, 0)
    assert len(rep.detail["equality_set"]) == 602
    batches.clear()
    rows.clear()
    run_exhaustive(SearchJob("NOSAL", "exhaustive", {"n": [7]}), workers=1)
    assert (batches, sum(rows)) == ([30], 0)
    batches.clear()
    rep = run_exhaustive(SearchJob("BN", "exhaustive", {"n": [7]}), workers=1)
    assert (batches, sum(rows)) == ([6], 227)
    assert len(rep.detail["equality_set"]) == 63


@pytest.mark.parametrize("target", ["BN", "BOOK"])
def test_equality_fields_hold_on_each_image(target):
    # a representative's equality fields are carried to its images, so they
    # must be those of each image's own graph
    row = search._SCAN_TARGETS[target]
    rep = run_exhaustive(SearchJob(target, "exhaustive", {"n": list(range(7))}), workers=1)
    assert len(rep.detail["equality_set"]) > 50
    for entry in rep.detail["equality_set"]:
        g = parse_graph6(entry["graph6"])
        fields = {k: v for k, v in entry.items() if k not in ("n", "graph6")}
        assert g.n == entry["n"] and fields == row.equality(g, g.m, triangle_count(g))


@pytest.mark.parametrize("target", ["BOOK", "NOSAL", "BN"])
def test_full_scans_start_no_process(monkeypatch, target):
    # a full scan runs in the calling process whatever the worker count, so
    # its bytes at 4 workers are those at 1
    def no_pool(method):
        raise AssertionError(f"a full scan asked for a {method!r} context")

    monkeypatch.setattr(search.multiprocessing, "get_context", no_pool)
    jobs = [SearchJob(target, "exhaustive", {"n": list(range(7))})]
    if target == "BOOK":
        jobs.append(SearchJob(target, "exhaustive", {"n": [7]}))
    for job in jobs:
        assert run_exhaustive(job, workers=4).to_json() == run_exhaustive(job, workers=1).to_json()


def test_blocks_0_and_n_minus_1_share_one_labelling(monkeypatch):
    # both stabilisers are S_r, generated by every (i, i + 1) of 0..r-1, so
    # a scan labels max(n - 1, 1) blocks, not n
    for r in range(7):
        assert np.array_equal(search._block_labels(r, 0), search._block_labels(r, r))
    calls = []
    labels = search._block_labels
    monkeypatch.setattr(search, "_block_labels", lambda r, k: calls.append(k) or labels(r, k))
    for n in range(8):
        calls.clear()
        run_exhaustive(SearchJob("BOOK", "exhaustive", {"n": [n]}))
        assert len(calls) == max(n - 1, 1), n


def test_orbit_scan_checks_that_the_orbit_weights_cover_every_mask(monkeypatch):
    # a label that is not itself a label drops its graph's weight: here the
    # complete graph on 0..3 is labelled by the graph one below it, which
    # in block 0 is not the least of its orbit
    labels = search._block_labels

    def corrupt(r, k):
        lab = labels(r, k).copy()
        lab[-1] = len(lab) - 2
        return lab

    monkeypatch.setattr(search, "_block_labels", corrupt)
    with pytest.raises(RuntimeError, match=r"n=5: the orbit weights add up to \d+, not 2\^C"):
        run_exhaustive(SearchJob("BOOK", "exhaustive", {"n": [5]}))


@pytest.mark.parametrize("n", [-1, 10])
def test_full_scan_refuses_n_outside_the_proved_range(n):
    # before any labelling: at n = 10 one block would hold 2^36 labels
    job = SearchJob("BN", "exhaustive", {"n": [n]}, ceiling=1 << 62)
    with pytest.raises(ValueError, match=rf"n={n}: a full scan needs 0 <= n <= 9"):
        run_exhaustive(job)


@pytest.mark.parametrize("n", [-1, -2])
def test_complement_walk_refuses_a_negative_n(n):
    with pytest.raises(ValueError, match=rf"n={n}: a graph has n >= 0 vertices"):
        enumerate_dense(n, 0)


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


def test_scan_report_bytes_golden():
    # SHA-256 of the report bytes of the benchmark's scan jobs as a recursive
    # complement DFS and an eigensolve of every BOOK mask gave them, and of
    # NOSAL and BN scans as a one-graph-at-a-time exact re-decision gave them
    golden = json.loads((Path(__file__).parent / "golden" / "scan_digests.json").read_text())
    jobs = {
        "LS n=8 q=[3]": SearchJob("LS", "exhaustive", {"n": [8], "q": [3]}),
        "BOOK n=7": SearchJob("BOOK", "exhaustive", {"n": [7]}),
        "NOSAL n=6": SearchJob("NOSAL", "exhaustive", {"n": [6]}),
        "BN n=6": SearchJob("BN", "exhaustive", {"n": [6]}),
    }
    for name, job in jobs.items():
        digest = hashlib.sha256(run_exhaustive(job, workers=2).to_json().encode()).hexdigest()
        assert digest == golden[name], name


@pytest.mark.parametrize("sign", [-1, 0, 1])
def test_forced_sign_scan_reports_match_golden_digests(monkeypatch, sign):
    # every claim holds at n <= 7, so no true sign reaches the counterexample
    # entries: one forced sign for every flagged graph reaches each entry.
    # BOOK flags no graph with 2t < m - 1 at n <= 7, so its counterexample
    # entries are reached only through the row whose polynomial is BOOK's
    # less 1, as a float band of 1 reached them, which flags 470 such
    # labelled masks at n = 5.
    golden = json.loads((Path(__file__).parent / "golden" / "scan_digests.json").read_text())
    monkeypatch.setattr(search, "signs_at_lambda", lambda graphs, qs: [sign] * len(graphs))

    def digest(target: str) -> str:
        rep = run_exhaustive(SearchJob(target, "exhaustive", {"n": [5]}), workers=1)
        return hashlib.sha256(rep.to_json().encode()).hexdigest()

    for target in ("BN", "BOOK", "NOSAL"):
        assert digest(target) == golden[f"{target} n=5 sign={sign:+d}"], target
    _shift_by_one(monkeypatch, "BOOK")
    assert digest("BOOK") == golden[f"BOOK n=5 band=1 sign={sign:+d}"]


def test_a_scan_target_is_one_table_row(monkeypatch):
    # two false claims against the exact sign on every labelled graph:
    # lambda^2 <= m, which K_3 breaks (lambda = 2, m = 3), and lambda > 2,
    # whose polynomial 2 - lambda is positive at 0, so that the upper end
    # alone does not prove it: K_{1,4} has lambda = 2 and the bracket
    # [728/365, 365/182], whose lower end flags it
    def row(poly):
        return search._ScanTarget(
            hypothesis=lambda m, t, deg: m >= 0,
            violated=lambda s, m, t: s > 0,
            tight=lambda s, m, t: s == 0,
            poly=poly,
            counterexample=lambda g, m, t: {"m": m, "t": t},
            equality=lambda g, m, t: {},
        )

    star = emit_graph6(build_graph(5, [(0, v) for v in range(1, 5)]))
    for name, poly in (("SQ", lambda m, t: [-m, 0, 1]), ("TWO", lambda m, t: [2, -1])):
        monkeypatch.setitem(search._SCAN_TARGETS, name, row(poly))
        for n in range(1, 6):
            graphs = [_graph_from_mask(n, mask) for mask in range(1 << n * (n - 1) // 2)]
            signs = roots.signs_at_lambda(graphs, [poly(g.m, 0) for g in graphs])
            bad = sorted((emit_graph6(g), g.m, triangle_count(g))
                         for g, s in zip(graphs, signs) if s > 0)
            tight = sorted(emit_graph6(g) for g, s in zip(graphs, signs) if s == 0)
            rep = run_exhaustive(SearchJob(name, "exhaustive", {"n": [n]}), workers=1)
            assert [(c["graph6"], c["m"], c["t"]) for c in rep.counterexamples] == bad
            assert [e["graph6"] for e in rep.detail["equality_set"]] == tight
            assert bool(bad) == (n >= 3 or name == "TWO")
            assert bool(tight) == (n >= 3 or name == "SQ")
        assert star in tight


def test_full_scans_count_no_triangles_of_flagged_graphs(monkeypatch):
    # each flagged mask carries the kernel's exact (m, t) to the exact stage
    calls = []
    for module in (search, theorems):
        count = module.triangle_count
        monkeypatch.setattr(module, "triangle_count",
                            lambda g, count=count: calls.append(g) or count(g))
    for target, n in (("BOOK", 7), ("BN", 6)):
        rep = run_exhaustive(SearchJob(target, "exhaustive", {"n": [n]}), workers=1)
        assert rep.detail["equality_set"]
    assert calls == []


def test_full_scan_runs_one_sturm_search_per_distinct_charpoly(monkeypatch):
    batches, searches = [], []
    charpoly_exact, sign_at_largest_root = roots.charpoly_exact, roots.sign_at_largest_root

    def recording_charpoly(a):
        batches.append(charpoly_exact(a))
        return batches[-1]

    def counting_sign(p, q, lo, hi):
        searches.append((tuple(p), tuple(q)))
        return sign_at_largest_root(p, q, lo, hi)

    monkeypatch.setattr(roots, "charpoly_exact", recording_charpoly)
    monkeypatch.setattr(roots, "sign_at_largest_root", counting_sign)
    job = SearchJob("BOOK", "exhaustive", {"n": [6]})
    first = run_exhaustive(job, workers=1).to_json()
    # one batch holds every flagged graph's own charpoly; BOOK's q is
    # x^2 - x - (m - 1), and m is read off the charpoly, so the distinct
    # (charpoly, q) keys are the distinct charpolys
    assert len(batches) == 1
    distinct = {tuple(p) for p in batches[0]}
    assert len(batches[0]) > len(distinct) > 1
    assert len(searches) == len(set(searches)) == len(distinct)
    assert {p for p, _ in searches} == {tuple(map(Fraction, p)) for p in distinct}
    # no cache outlives the call: a second scan proves every sign again
    assert run_exhaustive(job, workers=1).to_json() == first
    assert len(batches) == 2 and searches[len(distinct):] == searches[:len(distinct)]


@pytest.mark.parametrize("n, q", [(2, [1]), (6, [3]), (7, [4, 5])])
def test_ls_exhaustive_needs_a_q_below_half_n(n, q):
    job = SearchJob("LS", "exhaustive", {"n": [n], "q": q})
    with pytest.raises(ValueError, match=rf"n={n}: the q grid \[.*\] has no q < n/2"):
        run_exhaustive(job)


@pytest.mark.parametrize("q", [[0], [-3], [0, 2]])
def test_ls_exhaustive_needs_q_at_least_1(q):
    # the LS bound needs q >= 1: q = 0 walked every graph with m >= n^2/4
    # against a requirement of no triangles, and q < 0 against a negative one
    job = SearchJob("LS", "exhaustive", {"n": [6], "q": q})
    with pytest.raises(ValueError, match=rf"q={min(q)}: the LS check needs q >= 1"):
        run_exhaustive(job)


@pytest.mark.parametrize("target", search.EXHAUSTIVE_TARGETS)
def test_exhaustive_grid_that_repeats_an_n_is_refused(target):
    # a repeated n was examined and counted twice, with one per_n entry
    job = SearchJob(target, "exhaustive", {"n": [5, 4, 5], "q": [1]})
    with pytest.raises(ValueError, match=r"n=5: the n grid \[5, 4, 5\] lists it twice"):
        run_exhaustive(job)


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


def _core_is_book_reference(g):
    """Isomorphism of G less its isolated vertices with book_join((m - 1)/2)."""
    core = [v for v in range(g.n) if g.degree(v)]
    h = build_graph(len(core), [(core.index(u), core.index(v)) for u, v in g.edges()])
    return g.m % 2 == 1 and are_isomorphic(h, book_join((g.m - 1) // 2).graph)


def test_core_is_book_matches_isomorphism():
    graphs = [_graph_from_mask(n, mask) for n in range(1, 6) for mask in range(1 << n * (n - 1) // 2)]
    rng = random.Random(12)
    for _ in range(3000):
        n = rng.choice((6, 7))
        graphs.append(_graph_from_mask(n, rng.getrandbits(n * (n - 1) // 2)))
    for k in range(6):  # relabelled books planted among isolated vertices
        for n in range(k + 2, 9):
            perm = rng.sample(range(n), n)
            book = build_graph(n, [(perm[u], perm[v]) for u, v in book_join(k).graph.edges()])
            graphs.append(book)
            if k >= 1:  # hub perm[0] loses page perm[2]; m stays odd when
                moved = remove_edge(book, perm[0], perm[2])
                if k >= 2:  # ... two pages are joined
                    graphs.append(add_edge(moved, perm[2], perm[3]))
                if n > k + 2:  # ... or the hub gains an isolated vertex
                    graphs.append(add_edge(moved, perm[0], perm[n - 1]))
    odd = [g for g in graphs if g.m % 2]
    assert sum(map(core_is_book, odd)) > 60
    assert [core_is_book(g) for g in odd] == [_core_is_book_reference(g) for g in odd]
    assert not any(core_is_book(g) for g in graphs if g.m % 2 == 0)


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
        assert s.dtype == bool and s.shape == (30,)
        assert int(np.count_nonzero(s)) == 7


def test_floyd_sample_edge_cases():
    rng = random.Random(1)
    empty = floyd_sample(rng, 10, 0)
    assert empty.dtype == bool and empty.shape == (10,) and not empty.any()
    full = floyd_sample(rng, 10, 10)
    assert full.dtype == bool and full.shape == (10,) and full.all()
    assert floyd_sample(rng, 1, 1).tolist() == [True]
    assert floyd_sample(rng, 0, 0).shape == (0,)


def test_floyd_sample_is_a_bool_mask_with_k_true():
    rng = random.Random(2)
    for universe, k in [(30, 7), (45, 26), (1000, 999), (44_850, 22_501)]:
        s = floyd_sample(rng, universe, k)
        assert s.dtype == bool and s.shape == (universe,)
        assert int(np.count_nonzero(s)) == k


def test_floyd_sample_rejects_k_outside_the_universe():
    for k in (-1, 11):
        with pytest.raises(ValueError, match=r"outside 0\.\.10"):
            floyd_sample(random.Random(1), 10, k)


def _coin_floyd_reference(rng, universe, k):
    """The sampler in plain Python: a coin per element, then Floyd's loop
    flips |c - k| positions of the chosen (c > k) or unchosen (c < k) pool."""
    coins = rng.getrandbits(universe)
    chosen = {i for i in range(universe) if coins >> i & 1}
    c = len(chosen)
    pool = sorted(chosen) if c > k else [i for i in range(universe) if i not in chosen]
    picked = set()
    for j in range(len(pool) - abs(c - k), len(pool)):
        t = rng.randrange(j + 1)
        picked.add(j if t in picked else t)
    return sorted(chosen ^ {pool[p] for p in picked})


@pytest.mark.parametrize("universe, k", [(30, 7), (30, 0), (1, 1), (0, 0), (30, 25)])
def test_floyd_sample_makes_one_draw(universe, k):
    # one getrandbits(universe) call for the coins, then exactly the
    # randrange calls of Floyd's loop over the pool
    rng = random.Random(5)
    twin = random.Random()
    twin.setstate(rng.getstate())
    floyd_sample(rng, universe, k)
    c = twin.getrandbits(universe).bit_count()
    pool = c if c > k else universe - c
    for j in range(pool - abs(c - k), pool):
        twin.randrange(j + 1)
    assert rng.getstate() == twin.getstate()


def test_floyd_sample_is_uniform():
    # Each case draws a k-subset of range(universe) 40 000 times; a chi-square
    # statistic over the C(universe, k) subsets must stay below the 0.999
    # quantile for C(universe, k) - 1 degrees of freedom. (7, 2) and (8, 1)
    # mostly shrink the coin set by large fix-ups, (7, 6) grows it.
    rng = random.Random(11)
    draws = 40_000
    for universe, k, bound in [(6, 3, 43.82), (7, 2, 45.31), (7, 6, 22.46), (8, 1, 24.32)]:
        counts = dict.fromkeys(combinations(range(universe), k), 0)
        for _ in range(draws):
            counts[tuple(np.flatnonzero(floyd_sample(rng, universe, k)).tolist())] += 1
        assert len(counts) == comb(universe, k) and min(counts.values()) > 0
        expected = draws / len(counts)
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < bound, (universe, k, chi2)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32), universe=st.integers(0, 300), data=st.data())
def test_floyd_sample_takes_the_k_smallest_keys(seed, universe, data):
    # the same subset, from the same stream, as the plain-Python coin + Floyd
    # reference; both leave the generator in the same state
    k = data.draw(st.integers(0, universe))
    rng, twin = random.Random(seed), random.Random(seed)
    s = floyd_sample(rng, universe, k)
    assert s.dtype == bool and s.shape == (universe,)
    assert np.flatnonzero(s).tolist() == _coin_floyd_reference(twin, universe, k)
    assert rng.getstate() == twin.getstate()


def test_tril_indices_follow_the_edge_slots():
    for n in range(13):
        jv, iu = np.tril_indices(n, -1)
        assert list(zip(iu.tolist(), jv.tolist())) == edge_slots(n)


@pytest.mark.parametrize("n", [10, 11, 300])
@pytest.mark.parametrize("q", [1, 2])
def test_graph_slots_of_y(n, q):
    # the probe's reference holds Y's edges as a bool slot mask and as the
    # sorted slots of that mask
    g = y_n2q(n, q).graph
    expected = [s for s, (u, v) in enumerate(edge_slots(n)) if g.has_edge(u, v)]
    y_mask, y_slots = search._y_reference(n, q)[:2]
    assert y_mask.dtype == bool and y_mask.shape == (n * (n - 1) // 2,)
    assert np.flatnonzero(y_mask).tolist() == y_slots.tolist() == expected
    assert len(expected) == g.m


def test_run_random_leaves_numpy_random_unimported():
    # the probe draws from Python's random stream only (numpy.random would
    # add several MB of resident memory to every probe process)
    code = (
        "import sys\n"
        "from specls.search import SearchJob, run_random\n"
        "run_random(SearchJob('SPEC_LS_Y', 'random', {'n': [12], 'q': [1], 'samples': [5],"
        " 'perturbations': [3]}, seed=2))\n"
        "print('numpy.random' in sys.modules)\n"
    )
    src = str(Path(search.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"


def test_perturbations_swap_at_most_one_edge_of_y(monkeypatch):
    n, q = 10, 1
    y = adjacency_matrix(y_n2q(n, q).graph)
    seen = []

    def spy(test, A, **kw):
        seen.append(A.copy())
        return real(test, A, **kw)

    real = search._decide
    monkeypatch.setattr(search, "_decide", spy)
    job = SearchJob("SPEC_LS_Y", "random",
                    {"n": [n], "q": [q], "samples": [0], "perturbations": [200]}, seed=4)
    assert run_random(job).graphs_examined == 200
    assert len(seen) == 200
    iu, jv = np.triu_indices(n, 1)
    moved = []
    for A in seen:
        assert (A == A.T).all() and set(np.unique(A).tolist()) <= {0.0, 1.0}
        assert not A.diagonal().any()
        assert int(A[iu, jv].sum()) == n * n // 4 + q
        moved.append(int((A != y)[iu, jv].sum()))
    assert set(moved) == {0, 2}  # the dropped slot may be drawn back


def test_counterexample_graph_is_the_sample(monkeypatch):
    # count 0 triangles in every hypothesis-true sample, so each is reported
    # and its graph6 must encode exactly the matrix that was decided
    n = 10
    counted = []

    def no_triangles(A, *args, **kwargs):
        counted.append(A.copy())
        return 0

    monkeypatch.setattr(search, "dense_triangle_count", no_triangles)
    job = SearchJob("SPEC_LS_Y", "random",
                    {"n": [n], "q": [1], "samples": [20], "perturbations": [5]}, seed=3)
    rep = run_random(job)
    assert counted and len(rep.counterexamples) == len(counted)
    expected = sorted(
        emit_graph6(build_graph(n, np.argwhere(np.triu(A)).tolist())) for A in counted
    )
    assert [c["graph6"] for c in rep.counterexamples] == expected


def test_triangles_dense_is_exact():
    rng = random.Random(9)
    graphs = [empty_graph(0), empty_graph(7), complete_graph(300), complete_graph(327)]
    for _ in range(40):
        n = rng.randrange(1, 41)
        slots = edge_slots(n)
        graphs.append(build_graph(n, rng.sample(slots, rng.randrange(len(slots) + 1))))
    for g in graphs:
        assert dense_triangle_count(adjacency_matrix(g)) == _triangle_count_bit_rows(g), g.n
    # K_300: 6t = 26 730 600 > 2^24. K_327: 6t = 34 645 650 > 2^25 is no float32
    # number, and a float32 sum of the products rounds it to 6t - 2
    assert dense_triangle_count(adjacency_matrix(complete_graph(300))) == comb(300, 3)
    assert dense_triangle_count(adjacency_matrix(complete_graph(327))) == comb(327, 3)


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


def test_y_reference_is_built_once_per_n_q_and_read_only(monkeypatch):
    search._y_reference.cache_clear()
    built = []
    real = search.y_n2q
    monkeypatch.setattr(search, "y_n2q", lambda n, q: built.append((n, q)) or real(n, q))
    job = SearchJob("SPEC_LS_Y", "random",
                    {"n": [20], "q": [2], "samples": [3], "perturbations": [2]}, seed=1)
    assert run_random(job).to_json() == run_random(job).to_json()
    assert built == [(20, 2)]
    y_mask, y_slots, y_t, _, _ = search._y_reference(20, 2)
    assert y_mask.tolist() == slot_bits(real(20, 2).graph).astype(bool).tolist()
    assert y_slots.tolist() == np.flatnonzero(y_mask).tolist()
    assert y_t == triangle_count(real(20, 2).graph) == 2 * 10
    with pytest.raises(ValueError):
        y_slots[0] = 0
    with pytest.raises(ValueError):
        y_mask[0] = False
    search._y_reference.cache_clear()


def test_y_reference_pins_little_memory():
    # the cache keeps up to eight references; at n = 1200 one holds the
    # 360 001 slots of Y (2.9 MB), its slot mask (0.7 MB) and its bracket,
    # and no per-slot set
    search._y_reference.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        search._y_reference(1200, 1)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        search._y_reference.cache_clear()
    assert held < 5_000_000, held


def _probe_job(spec: str) -> SearchJob:
    n, q, samples, perturbations, seed = map(int, spec.split(","))
    return SearchJob("SPEC_LS_Y", "random", {"n": [n], "q": [q], "samples": [samples],
                                            "perturbations": [perturbations]}, seed=seed)


def test_probe_reports_match_golden_digests():
    # sha256 of run_random(job).to_json() for jobs "n,q,samples,perturbations,seed":
    # 12,1,... reaches the CW rungs and ties, 60,2,... has a CW bracket of Y
    golden = json.loads((Path(__file__).parent / "golden" / "probe_digests.json").read_text())
    assert len(golden) == 3
    for spec, digest in golden.items():
        job = _probe_job(spec)
        assert hashlib.sha256(run_random(job).to_json().encode()).hexdigest() == digest, spec


def _counting_reference(job: SearchJob) -> search.SearchReport:
    """The probe's report when every hypothesis-true sample is counted by a
    fresh `dense_triangle_count`: the draws of `run_random`, in its order,
    with each perturbation of Y built from a set of slots."""
    n, q = job.grid["n"][0], job.grid["q"][0]
    m, bound = n * n // 4 + q, q * (n // 2)
    rng = random.Random(job.seed)
    _, y_slots, _, lo2, hi2 = search._y_reference(n, q)
    ends = edge_slots(n)
    samples = [np.flatnonzero(floyd_sample(rng, len(ends), m)).tolist()
               for _ in range(job.grid["samples"][0])]
    y = set(y_slots.tolist())
    for _ in range(job.grid["perturbations"][0]):
        dropped = int(y_slots[rng.randrange(len(y_slots))])
        while True:
            cand = rng.randrange(len(ends))
            if cand not in y or cand == dropped:
                break
        samples.append(sorted(y - {dropped} | {cand}))
    report, counts = search.SearchReport(job), []
    for slots in samples:
        A = np.zeros((n, n), np.float32)
        for s in slots:
            i, j = ends[s]
            A[i, j] = A[j, i] = 1.0
        decided = spectral._decide(
            lambda iv: True if iv[0] > hi2 else False if iv[1] < lo2 else None, A)
        if isinstance(decided, spectral.Ordering):
            report.ties += 1
        elif decided:
            counts.append(dense_triangle_count(A))
            if counts[-1] < bound:
                g = from_matrix(A)
                v = search.verify_by_id("SPEC_LS_Y", g, {"q": q})[0]
                report.counterexamples.append({"graph6": emit_graph6(g),
                                               "verdict": v.to_jsonable()})
    report.graphs_examined = len(samples)
    report.counterexamples.sort(key=lambda c: c["graph6"])
    report.extremal_tracker = {"hypothesis_true": len(counts),
                               "min_triangles_given_hypothesis": min(counts, default=None),
                               "required": bound}
    return report


@pytest.mark.parametrize("spec", ["300,1,10,1,1", "300,2,30,30,5", "12,1,50,50,3",
                                  "60,2,50,50,1", "40,3,300,0,2", "30,1,150,80,7"])
def test_run_random_matches_the_counting_reference(spec):
    # the degree floor, the codegree identity and the replay leave the report
    # of counting every hypothesis-true sample: uniform samples deferred and
    # never counted (n = 300), counted at once (q = 3, no perturbations), ties
    job = _probe_job(spec)
    assert run_random(job).to_json() == _counting_reference(job).to_json()


def test_replay_counts_the_uniform_samples_when_no_perturbation_is_hypothesis_true(
        monkeypatch):
    # every uniform sample is settled on its degrees and never reaches
    # _decide; the one perturbation is decided False, so the minimum comes
    # from the uniform samples, counted after the perturbation by drawing
    # them again
    decided, counted_at = [], []
    real_decide, real_count = search._decide, search.dense_triangle_count

    def spy_decide(test, A, **kw):
        decided.append(real_decide(test, A, **kw))
        return decided[-1]

    def spy_count(A, *args):
        counted_at.append(len(decided))
        return real_count(A, *args)

    monkeypatch.setattr(search, "_decide", spy_decide)
    monkeypatch.setattr(search, "dense_triangle_count", spy_count)
    job = _probe_job("12,1,30,1,2")
    rep = run_random(job)
    assert decided == [False] and rep.extremal_tracker["hypothesis_true"] == 30
    assert counted_at and set(counted_at) == {1}  # every count comes in the replay
    assert rep.extremal_tracker["min_triangles_given_hypothesis"] is not None
    monkeypatch.undo()
    assert rep.to_json() == _counting_reference(job).to_json()


def _fresh_matrix(n: int, mask: np.ndarray) -> np.ndarray:
    A, ends = np.zeros((n, n), np.float32), edge_slots(n)
    for slot in np.flatnonzero(mask).tolist():
        i, j = ends[slot]
        A[i, j] = A[j, i] = 1.0
    return A


def test_no_edge_survives_from_an_earlier_sample(monkeypatch):
    # A uniform sample is built into A only when a CW rung or a count reads
    # it, and A is never cleared: each matrix that reaches _decide or
    # dense_triangle_count is a fresh build of its own draw, a sample that
    # the free rung decides never reaches _decide, and the perturbation is Y
    # with at most one edge swapped, not Y on top of the last uniform sample.
    # This job has uniform samples on the CW rungs, counts at once (each
    # right after a CW rung) and counts in the replay
    job = _probe_job("8,2,30,1,3")
    n, q, n_uniform = 8, 2, 30
    m = n * n // 4 + q
    draws, decided, counted = [], [], []
    real_sample, real_decide = search.floyd_sample, search._decide
    real_count = search.dense_triangle_count

    def spy_sample(*args):
        draws.append(real_sample(*args))
        return draws[-1]

    def spy_decide(test, A, **kw):  # the index of the last draw
        decided.append((len(draws) - 1, A.copy()))
        return real_decide(test, A, **kw)

    def spy_count(A, *args):  # the draw's index and whether it is replayed
        counted.append(((len(draws) - 1) % n_uniform, len(draws) > n_uniform, A.copy()))
        return real_count(A, *args)

    monkeypatch.setattr(search, "floyd_sample", spy_sample)
    monkeypatch.setattr(search, "_decide", spy_decide)
    monkeypatch.setattr(search, "dense_triangle_count", spy_count)
    run_random(job)
    twin = random.Random(job.seed)
    fresh = [_fresh_matrix(n, floyd_sample(twin, n * (n - 1) // 2, m)) for _ in range(n_uniform)]
    y_hi2 = search._y_reference(n, q)[4]
    free = [Fraction(int(d @ d), n) > y_hi2
            for d in (A.sum(axis=1).astype(np.int64) for A in fresh)]
    *uniform, (_, perturbed) = decided
    assert [i for i, _ in uniform] == [i for i in range(n_uniform) if not free[i]]
    assert uniform and {replayed for _, replayed, _ in counted} == {False, True}
    for i, A in uniform + [(i, A) for i, _, A in counted]:
        assert A.dtype == np.float32 and np.array_equal(A, fresh[i]), i
    y = adjacency_matrix(y_n2q(n, q).graph)
    iu, jv = np.triu_indices(n, 1)
    assert int((perturbed != y)[iu, jv].sum()) in (0, 2)


def test_probe_job_at_n_300_counts_no_triangles(monkeypatch):
    # every uniform sample is settled on its degrees: the free rung decides
    # it, and its degree floor (here at least 6 435) is above both
    # q*floor(n/2) = 150 and the perturbation's count, so nothing is
    # replayed. No uniform sample is built into the float32 matrix or
    # reaches _decide: only Y's write and the one perturbation touch it
    search._y_reference(300, 1)
    calls, decided, builds = [], [], []
    real_decide, real_copyto = search._decide, np.copyto

    def spy_decide(test, A, **kw):
        decided.append(A.copy())
        return real_decide(test, A, **kw)

    def spy_copyto(dst, src, *args, **kw):  # the build of the float32 matrix
        builds.append(np.array(src, copy=True))
        return real_copyto(dst, src, *args, **kw)

    monkeypatch.setattr(search, "dense_triangle_count", lambda *a: calls.append(a) or 0)
    monkeypatch.setattr(search, "_decide", spy_decide)
    monkeypatch.setattr(search.np, "copyto", spy_copyto)
    rep = run_random(_probe_job("300,1,10,1,1"))
    monkeypatch.undo()
    assert calls == [] and rep.extremal_tracker["hypothesis_true"] == 11
    y = adjacency_matrix(y_n2q(300, 1).graph)
    assert len(builds) == 1 and np.array_equal(builds[0], y)
    iu, jv = np.triu_indices(300, 1)
    assert len(decided) == 1 and int((decided[0] != y)[iu, jv].sum()) in (0, 2)


def test_probe_job_without_perturbations_builds_only_what_it_counts(monkeypatch):
    # Y is written into the float32 matrix only for a job with
    # perturbations, so here each build is the one before a triangle count
    search._y_reference(300, 1)
    counts, builds = [], []
    real_count, real_copyto = search.dense_triangle_count, np.copyto

    def spy_count(A, *args):
        counts.append(1)
        return real_count(A, *args)

    def spy_copyto(dst, src, *args, **kw):  # the build of the float32 matrix
        builds.append(1)
        return real_copyto(dst, src, *args, **kw)

    monkeypatch.setattr(search, "dense_triangle_count", spy_count)
    monkeypatch.setattr(search.np, "copyto", spy_copyto)
    run_random(_probe_job("300,1,10,0,1"))
    monkeypatch.undo()
    assert counts and len(builds) == len(counts)


def test_probe_job_holds_no_slot_tables_after_it_ends():
    # with Y's reference warm, a job keeps only the cached 4 MB lower
    # triangle at n = 2000: no per-slot offset tables (two int64 arrays of
    # 16 MB) and no second copy of Y's slot mask
    search._y_reference(2000, 1)
    search._lower_triangle.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run_random(_probe_job("2000,1,1,1,1"))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        search._y_reference.cache_clear()
    assert held < 8_000_000, held


def test_probe_job_holds_no_state_or_slots_per_sample():
    # 2000 deferred samples: one int each, never a Python rng state (about
    # 24 KB) or a slot array (401 int64) per sample
    job = _probe_job("40,1,2000,2,5")
    search._y_reference(40, 1)
    tracemalloc.start()
    try:
        rep = run_random(job)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.extremal_tracker["hypothesis_true"] > 1900
    assert peak < 1_000_000, peak


def test_probe_samples_reach_the_cw_rungs_through_one_float64_copy(monkeypatch):
    # each sample is decided on the job's float32 matrix; the CW rungs get a
    # float64 copy, and give the same rungs as the Graph and float64 paths
    samples, cw_inputs = [], []
    real_decide, real_cw = search._decide, spectral._cw_rungs

    def spy_decide(test, A, **kw):
        samples.append(A.copy())
        return real_decide(test, A, **kw)

    def spy_cw(A, tols):
        cw_inputs.append(A.dtype)
        return real_cw(A, tols)

    monkeypatch.setattr(search, "_decide", spy_decide)
    monkeypatch.setattr(spectral, "_cw_rungs", spy_cw)
    job = SearchJob("SPEC_LS_Y", "random",
                    {"n": [12], "q": [1], "samples": [50], "perturbations": [50]}, seed=3)
    rep = run_random(job)
    assert rep.ties == 2
    assert cw_inputs == [np.float64] * 4
    assert {A.dtype for A in samples} == {np.dtype(np.float32)}
    monkeypatch.setattr(spectral, "_cw_rungs", real_cw)
    tols = spectral._tols_down_to(1e-12)
    for A in samples:
        rungs = list(spectral._lambda_sq_rungs(A, tols))
        assert rungs == list(spectral._lambda_sq_rungs(A.astype(np.float64), tols))
        g = from_matrix(A)
        if spectral.exact_lambda_sq(g) is None:
            assert rungs == list(spectral._lambda_sq_rungs(g, tols))


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


def test_ratio_scan_encloses_each_point_once(monkeypatch):
    # the rule ratio_scan kept before one run served both widths: enclose at
    # tol, retry at 1e-9 when unconverged, keep the point if either converged
    tol = 1e-12
    families, n_grid = ["T:q=2", "Y:q=2", "Turan:r=3"], [31, 100, 301]
    reference = {}
    for fam in families:
        head, _, rest = fam.partition(":")
        for n in n_grid:
            g = build_from_spec(f"{head}:n={n},{rest}").graph
            cert = search.perron_enclosure(g, tol)
            if not cert.converged:
                cert = search.perron_enclosure(g, 1e-9)
            reference[fam, n] = cert if cert.converged else None
    calls = []
    real = search.perron_enclosure
    monkeypatch.setattr(search, "perron_enclosure", lambda g, t: calls.append(t) or real(g, t))
    rows = ratio_scan(families, n_grid, tol).ratio_curve
    assert calls == [tol] * len(reference)
    assert {(r["family"], r["n"]) for r in rows if "skipped" not in r} == {
        k for k, c in reference.items() if c is not None}
    for r in rows:
        cert = reference[r["family"], r["n"]]
        if cert is None:
            continue
        half = Fraction(r["n"], 2)
        scale = r["t"] / Fraction(r["n"] * r["n"])
        assert float(scale / (Fraction(cert.lambda_hi) - half)) <= r["C_lo"]
        assert r["C_hi"] <= float(scale / (Fraction(cert.lambda_lo) - half))


@pytest.mark.parametrize("runner, target, mode, grid, key", [
    (run_random, "SPEC_LS_Y", "random", {"n": [12, 40], "q": [1, 2], "samples": [5, 50]}, "n"),
    (run_random, "SPEC_LS_Y", "random", {"n": [12], "samples": [5], "perturbations": [1, 3]},
     "perturbations"),
    (run_random, "SPEC_LS_Y", "random", {"n": [12], "samples": [-3], "perturbations": [-2]},
     "samples"),
    (run_random, "SPEC_LS_Y", "random", {"n": [12], "samples": [3], "perturbations": [-2]},
     "perturbations"),
    (run_local_search, "MIN_T", "local", {"n": [10], "gamma": ["2/3", "3/4"]}, "gamma"),
    (run_local_search, "MIN_T", "local", {"n": [10], "gamma": ["2/3"], "restarts": [1, 2]},
     "restarts"),
])
def test_one_point_runners_refuse_a_grid_value_they_would_drop(runner, target, mode, grid, key):
    # the probe and the local search examine one point of the grid; a second
    # value of a key, or a negative count, is refused rather than dropped
    with pytest.raises(ValueError, match=repr(key)):
        runner(SearchJob(target, mode, grid))


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
