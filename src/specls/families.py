"""Deterministic builders for the named extremal graph families.

Every builder returns the graph together with closed-form predicted
statistics so callers can cross-check measured edge and triangle counts
against the formulas. Layout conventions are canonical: the larger part of
a bipartite Turan graph occupies the lowest vertex labels, and embedded
subgraphs sit on the lowest-indexed vertices of their part, so graph6
output is reproducible byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graph import Graph, adjacency_matrix, build_graph, from_matrix
from .roots import FamilyPolynomial
from .triangles import triangle_count


@dataclass(frozen=True)
class PredictedStats:
    m_expected: int
    t_expected: int
    lambda_poly: Optional[FamilyPolynomial] = None


@dataclass(frozen=True)
class Construction:
    graph: Graph
    predicted: PredictedStats
    spec: str  # canonical parameter string, e.g. "Y:n=10,q=2"


def _multipartite(sizes: list[int]) -> np.ndarray:
    """uint8 adjacency of the complete multipartite graph whose parts have
    these sizes and contiguous labels, in order."""
    part = np.repeat(np.arange(len(sizes)), sizes)
    return np.not_equal.outer(part, part).view(np.uint8)


def _set_edges(A: np.ndarray, us, vs, value: int = 1) -> None:
    """Set the symmetric entries (u, v) and (v, u) of A for u, v zipped."""
    A[us, vs] = value
    A[vs, us] = value


def _multipartite_stats(sizes: list[int]) -> tuple[int, int]:
    """Edges and triangles of the complete multipartite graph."""
    e2 = sum(a * b for i, a in enumerate(sizes) for b in sizes[i + 1 :])
    e3 = 0
    for i in range(len(sizes)):
        for j in range(i + 1, len(sizes)):
            for k in range(j + 1, len(sizes)):
                e3 += sizes[i] * sizes[j] * sizes[k]
    return e2, e3


def turan(n: int, r: int) -> Construction:
    """Complete r-partite graph with part sizes as equal as possible, larger
    parts first."""
    if r < 1:
        raise ValueError("need r >= 1")
    k = min(r, n) if n else r
    sizes = [(n + k - 1 - i) // k for i in range(k)]
    g = from_matrix(_multipartite(sizes))
    return Construction(g, PredictedStats(*_multipartite_stats(sizes)), f"Turan:n={n},r={r}")


def _turan2(n: int) -> tuple[np.ndarray, int]:
    """Adjacency of T_{n,2}; the larger part is vertices 0..ceil(n/2)-1."""
    a = (n + 1) // 2
    return _multipartite([a, n - a]), a


def t_n2q(n: int, q: int) -> Construction:
    """T_{n,2} with a q-edge star on the lowest labels of the larger part."""
    A, a = _turan2(n)
    if q < 0 or q + 1 > a:
        raise ValueError(f"star with {q} edges does not fit in part of size {a}")
    _set_edges(A, 0, np.arange(1, q + 1))
    g = from_matrix(A)
    poly = FamilyPolynomial("T_star4", n) if q == 4 and n >= 9 and n % 2 else None
    if q == 1:
        poly = FamilyPolynomial("Y_even" if n % 2 == 0 else "Y_odd", n)
    return Construction(
        g,
        PredictedStats(n * n // 4 + q, q * (n // 2), poly),
        f"T:n={n},q={q}",
    )


def y_n2q(n: int, q: int) -> Construction:
    """T_{n,2} with q disjoint edges on the lowest labels of the larger part."""
    A, a = _turan2(n)
    if q < 0 or 2 * q > a:
        raise ValueError(f"{q}-edge matching does not fit in part of size {a}")
    _set_edges(A, np.arange(0, 2 * q, 2), np.arange(1, 2 * q, 2))
    g = from_matrix(A)
    poly = None
    if q == 1:
        poly = FamilyPolynomial("Y_even" if n % 2 == 0 else "Y_odd", n)
    return Construction(
        g,
        PredictedStats(n * n // 4 + q, q * (n // 2), poly),
        f"Y:n={n},q={q}",
    )


def kab_plus(a: int, b: int) -> Construction:
    """K_{a,b} plus one edge inside the a-side; has exactly b triangles."""
    if a < 2:
        raise ValueError("need a >= 2 to host the extra edge")
    A = _multipartite([a, b])
    _set_edges(A, 0, 1)
    g = from_matrix(A)
    return Construction(g, PredictedStats(a * b + 1, b), f"Kab+:a={a},b={b}")


def embed_into_turan2(n: int, h: Graph) -> Construction:
    """T_{n,2} with H's edges copied onto the first |V(H)| vertices of the
    larger part."""
    A, a = _turan2(n)
    if h.n > a:
        raise ValueError(f"embedded graph on {h.n} vertices exceeds part size {a}")
    A[:h.n, :h.n] = adjacency_matrix(h, np.uint8)
    g = from_matrix(A)
    return Construction(
        g,
        PredictedStats(n * n // 4 + h.m, h.m * (n - a) + triangle_count(h)),
        f"Embed:n={n},side=L,mH={h.m},nH={h.n}",
    )


def _bc_parts(n: int, s: int, t: int, a: int) -> tuple[int, int, int]:
    if not 0 < t < s:
        raise ValueError("need 0 < t < s")
    if a < 0:
        raise ValueError("need a >= 0")
    alpha = s - t - a * a - (a if n % 2 else 0)
    if alpha < 0:
        raise ValueError(f"alpha = {alpha} < 0: size correction a={a} too large")
    size_a = (n + 1) // 2 + a
    size_b = n // 2 - a
    if size_b < 1:
        raise ValueError("small part is empty")
    return size_a, size_b, alpha


def balogh_clemen_g1(n: int, s: int, t: int, a: int) -> Construction:
    """Near-bipartite graph with one edge in the small part, s-1 disjoint
    edges in the big part, and alpha cross deletions at the small-part hub."""
    size_a, size_b, alpha = _bc_parts(n, s, t, a)
    if 2 * (s - 1) > size_a:
        raise ValueError(f"2(s-1)={2 * (s - 1)} picked vertices exceed |A|={size_a}")
    if size_b < 2:
        raise ValueError("small part must hold two vertices")
    if alpha > s - 1:
        raise ValueError(f"alpha={alpha} deletions but only {s - 1} matched x-vertices")
    # parts are A = 0..size_a-1, B = size_a..n-1 (A may exceed ceil(n/2))
    A = _multipartite([size_a, size_b])
    u1 = size_a
    _set_edges(A, u1, u1 + 1)
    xs = np.arange(0, 2 * (s - 1), 2)
    _set_edges(A, xs, xs + 1)
    _set_edges(A, xs[:alpha], u1, 0)
    g = from_matrix(A)
    return Construction(
        g,
        PredictedStats(n * n // 4 + t, (s - 1) * size_b + size_a - 2 * alpha),
        f"G1:n={n},s={s},t={t},a={a}",
    )


def balogh_clemen_g2(n: int, s: int, t: int, a: int) -> Construction:
    """Near-bipartite graph with s disjoint edges in the big part and alpha
    cross deletions at one small-part vertex."""
    size_a, size_b, alpha = _bc_parts(n, s, t, a)
    if 2 * s > size_a:
        raise ValueError(f"2s={2 * s} picked vertices exceed |A|={size_a}")
    if alpha > s:
        raise ValueError(f"alpha={alpha} deletions but only {s} matched x-vertices")
    A = _multipartite([size_a, size_b])
    xs = np.arange(0, 2 * s, 2)
    _set_edges(A, xs, xs + 1)
    _set_edges(A, xs[:alpha], size_a, 0)
    g = from_matrix(A)
    return Construction(
        g,
        PredictedStats(n * n // 4 + t, s * size_b - alpha),
        f"G2:n={n},s={s},t={t},a={a}",
    )


def l_nsalpha(n: int, s: int, alpha: float) -> Construction:
    """Complete (s+1)-partite graph with s parts of ideal size
    n(1+alpha)/(s+1) and one of size n(1-s*alpha)/(s+1).

    Real sizes are floored, then leftover vertices go one at a time to the
    parts with the largest fractional remainder (ties to the lower index).
    """
    if s < 2:
        raise ValueError("need s >= 2")
    if not 0 <= alpha < 1 / s:
        raise ValueError("need 0 <= alpha < 1/s")
    ideal = [n * (1 + alpha) / (s + 1)] * s + [n * (1 - s * alpha) / (s + 1)]
    sizes = [math.floor(x) for x in ideal]
    rem = n - sum(sizes)
    order = sorted(range(s + 1), key=lambda i: (-(ideal[i] - sizes[i]), i))
    for i in range(rem):
        sizes[order[i % (s + 1)]] += 1
    if any(sz <= 0 for sz in sizes):
        raise ValueError(f"part sizes {sizes} infeasible (one part empties)")
    g = from_matrix(_multipartite(sizes))
    return Construction(g, PredictedStats(*_multipartite_stats(sizes)), f"L:n={n},s={s},alpha={alpha!r}")


def book_join(k: int) -> Construction:
    """Two adjacent hubs joined to k independent page vertices."""
    if k < 0:
        raise ValueError("need k >= 0")
    n = k + 2
    edges = [(0, 1)]
    edges.extend((h, v) for h in (0, 1) for v in range(2, n))
    g = build_graph(n, edges)
    return Construction(g, PredictedStats(2 * k + 1, k), f"Book:k={k}")


# -- small embeddable graphs for the embedding-order experiments ------------


def small_star(q: int) -> Graph:
    return build_graph(q + 1, [(0, i) for i in range(1, q + 1)])


def small_clique(c: int) -> Graph:
    return build_graph(c, [(i, j) for i in range(c) for j in range(i + 1, c)])


def small_complete_bipartite(a: int, b: int) -> Graph:
    return build_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def small_cycle(q: int) -> Graph:
    if q < 3:
        raise ValueError("cycle needs >= 3 edges")
    return build_graph(q, [(i, (i + 1) % q) for i in range(q)])


def small_path(q: int) -> Graph:
    return build_graph(q + 1, [(i, i + 1) for i in range(q)])


def small_matching(q: int) -> Graph:
    return build_graph(2 * q, [(2 * i, 2 * i + 1) for i in range(q)])


def build_from_spec(spec: str) -> Construction:
    """Parse a canonical construction string like "Y:n=10,q=2"."""
    try:
        head, _, rest = spec.partition(":")
        kv = {}
        if rest:
            for item in rest.split(","):
                key, _, val = item.partition("=")
                kv[key] = float(val) if key == "alpha" else int(val)
    except Exception as exc:
        raise ValueError(f"malformed construction spec {spec!r}") from exc
    builders = {
        "Turan": lambda: turan(kv["n"], kv["r"]),
        "T": lambda: t_n2q(kv["n"], kv["q"]),
        "Y": lambda: y_n2q(kv["n"], kv["q"]),
        "Kab+": lambda: kab_plus(kv["a"], kv["b"]),
        "G1": lambda: balogh_clemen_g1(kv["n"], kv["s"], kv["t"], kv["a"]),
        "G2": lambda: balogh_clemen_g2(kv["n"], kv["s"], kv["t"], kv["a"]),
        "L": lambda: l_nsalpha(kv["n"], kv["s"], kv["alpha"]),
        "Book": lambda: book_join(kv["k"]),
    }
    if head not in builders:
        raise ValueError(f"unknown construction family {head!r}")
    return builders[head]()
