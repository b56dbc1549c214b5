"""Exact graph isomorphism for small graphs.

A color-refinement partition followed by a backtracking mapping search;
the search is exponential in the worst case, so callers use it only up to
ISO_LIMIT vertices. The equality cases of the extremal theorems are
recognized structurally at every n (`theorems.is_t_n2q`).
"""

from __future__ import annotations

from .graph import Graph, bits

ISO_LIMIT = 12


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
