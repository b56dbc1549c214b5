"""Graph isomorphism for small graphs plus invariant fingerprints.

Equality characterizations in the verifier suite only ever compare small,
highly structured graphs, so a color-refinement partition followed by a
backtracking mapping search is plenty. Past ISO_LIMIT vertices callers
fall back to the invariant fingerprint and must carry a fingerprint-only
caveat: matching fingerprints do not certify isomorphism.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, adjacency_matrix, bits
from .roots import charpoly_exact
from .triangles import triangle_list

ISO_LIMIT = 12
_EXACT_CHARPOLY_LIMIT = 16


def refine_colors(g: Graph) -> list[int]:
    """Stable vertex coloring under neighbor-color multiset refinement."""
    colors = [0] * g.n
    while True:
        sig = [
            (colors[v], tuple(sorted(colors[w] for w in bits(g.rows[v]))))
            for v in range(g.n)
        ]
        palette = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [palette[s] for s in sig]
        if new == colors:
            return colors
        colors = new


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Exact isomorphism test (intended for n <= ISO_LIMIT)."""
    if g.n != h.n or g.m != h.m:
        return False
    if sorted(g.degrees()) != sorted(h.degrees()):
        return False
    cg, ch = refine_colors(g), refine_colors(h)
    if sorted(cg) != sorted(ch):
        return False
    n = g.n
    order = sorted(range(n), key=lambda v: (cg.count(cg[v]), cg[v], v))
    mapping = [-1] * n
    used = 0

    def backtrack(i: int) -> bool:
        nonlocal used
        if i == n:
            return True
        v = order[i]
        for w in range(n):
            if used >> w & 1 or ch[w] != cg[v]:
                continue
            ok = True
            for j in range(i):
                u = order[j]
                if bool(g.rows[v] >> u & 1) != bool(h.rows[w] >> mapping[u] & 1):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used |= 1 << w
                if backtrack(i + 1):
                    return True
                used &= ~(1 << w)
                mapping[v] = -1
        return False

    return backtrack(0)


def fingerprint(g: Graph) -> tuple:
    """Invariant fingerprint: degree sequence, triangles per vertex, and the
    exact characteristic polynomial (small n) or the rounded spectrum.

    Equal fingerprints are necessary, not sufficient, for isomorphism.
    """
    tri_per_vertex = [0] * g.n
    for triangle in triangle_list(g):
        for v in triangle:
            tri_per_vertex[v] += 1
    if g.n <= _EXACT_CHARPOLY_LIMIT:
        spectral: tuple = ("charpoly", tuple(charpoly_exact(g)))
    else:
        eig = np.linalg.eigvalsh(adjacency_matrix(g))
        spectral = ("spectrum6", tuple(round(float(x), 6) for x in eig))
    return (
        g.n,
        g.m,
        tuple(sorted(g.degrees())),
        tuple(sorted(tri_per_vertex)),
        spectral,
    )


def same_graph(g: Graph, h: Graph) -> tuple[bool, str]:
    """(verdict, method): exact isomorphism when small enough, else a
    fingerprint comparison tagged 'fingerprint-only'."""
    if g.n <= ISO_LIMIT and h.n <= ISO_LIMIT:
        return are_isomorphic(g, h), "isomorphism"
    return fingerprint(g) == fingerprint(h), "fingerprint-only"
