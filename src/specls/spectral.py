"""Certified spectral-radius enclosures and rigorous lambda comparisons.

The enclosure engine runs power iteration with the +I shift (so bipartite
components converge) from the all-ones vector and reads off two-sided
Collatz-Wielandt bounds each step: for any positive x and the nonnegative
symmetric matrix M = A + I,

    min_v (Mx)_v / x_v  <=  lambda(A) + 1  <=  max_v (Mx)_v / x_v.

Directed rounding is unavailable here, so each bound is widened outward by
an n*ulp-scale slack (recorded on the certificate) before use; the running
enclosure is the intersection of all widened bounds seen. The iteration
runs in numpy on a dense matrix unpacked once from the bit rows, one
connected component at a time.

Every certified decision about lambda (`compare_lambda`, the
`certify_lambda_*` thresholds, and the probes in `search`) goes through one
ladder, `_decide`: it tests enclosures of lambda^2 that only get tighter.
The first rung is free: the exact value for regular (d^2) and complete
bipartite (ab) graphs, whose equality cases no floating interval can
resolve, and otherwise [(2m/n)^2, inf). Then the CW iteration is tightened
through the tolerances of `_tols_down_to(tol_floor)`, each rung resuming
where the last one stopped. An unconverged rung ends the ladder as
Indeterminate; running out of rungs ends it as Tie.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

from .graph import Graph, adjacency_matrix, bits, components, is_complete_bipartite
from .verdicts import TheoremVerdict

_EPS = sys.float_info.epsilon
_MAX_ITER = 200_000


class Ordering(enum.Enum):
    LESS = "less"
    GREATER = "greater"
    TIE = "tie"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class SpectralCertificate:
    lambda_lo: float
    lambda_hi: float
    perron: tuple[float, ...]
    residual: float
    converged: bool
    iterations: int
    tol: float
    slack: float

    @property
    def width(self) -> float:
        return self.lambda_hi - self.lambda_lo

    def to_jsonable(self) -> dict:
        return {
            "lambda_lo": self.lambda_lo,
            "lambda_hi": self.lambda_hi,
            "residual": self.residual,
            "converged": self.converged,
        }


def rayleigh_lower_bound(g: Graph) -> Fraction:
    """2m/n, exactly; a certified lower bound on the spectral radius."""
    if g.n < 1:
        raise ValueError("needs at least one vertex")
    return Fraction(2 * g.m, g.n)


def _iterate_component(
    A: np.ndarray, tols: Sequence[float], start: Optional[Sequence[float]] = None
) -> Iterator[tuple[float, float, np.ndarray, bool, int, float]]:
    """CW enclosure of lambda for one connected component with dense
    adjacency matrix A, tightened through the decreasing tolerances `tols`.

    Yields (lo, hi, vector, converged, iterations, slack) once per
    tolerance, the vector scaled to max entry 1. Each tolerance resumes the
    iteration where the previous one stopped, which is exactly the run a
    fresh start at that tolerance would make; nothing follows an
    unconverged yield.
    """
    k = A.shape[0]
    if k == 1:
        yield from repeat((0.0, 0.0, np.ones(1), True, 0, 0.0), len(tols))
        return
    x = np.ones(k) if start is None else np.array(start, dtype=np.float64)
    if x.min() <= 0:
        raise ValueError("start vector must be positive")
    x = x / x.max()
    lo_best, hi_best = 0.0, float(k)
    slack_used = 0.0
    it = 0
    shift = 1.0
    snapshot = math.inf
    for tol in tols:
        converged = False
        while True:
            if it:  # close the last step; a tighter tolerance resumes here
                width = hi_best - lo_best
                if width <= tol:
                    converged = True
                    break
                if it >= _MAX_ITER:
                    break
                if it % 32 == 0:
                    # stalled at the rounding-slack floor (or hopelessly slow):
                    # give up instead of burning the whole budget
                    if width >= 0.999 * snapshot:
                        break
                    snapshot = width
                if it % 12 == 0 and lo_best > 1.0:
                    # re-center the spectrum: near-bipartite graphs have an
                    # eigenvalue close to -lambda, and the shift A + lambda*I
                    # suppresses it
                    shift = float(round(lo_best))
            it += 1
            y = A @ x + shift * x
            ratios = y / x
            lo_t = float(ratios.min())
            hi_t = float(ratios.max())
            slack = 8.0 * k * _EPS * hi_t
            slack_used = max(slack_used, slack)
            lo_best = max(lo_best, lo_t - shift - slack)
            hi_best = min(hi_best, hi_t - shift + slack)
            mx = float(y.max())
            if mx <= 0.0 or not np.isfinite(mx):
                break
            x = y / mx
        yield lo_best, hi_best, x, converged, it, slack_used
        if not converged:
            return


def _blocks(A: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(vertices, adjacency block) of each connected component of the graph
    with dense adjacency matrix A, ordered by lowest vertex."""
    n = A.shape[0]
    left = np.ones(n, dtype=bool)
    out = []
    while left.any():
        comp = np.zeros(n, dtype=bool)
        comp[left.argmax()] = True
        frontier = comp
        while frontier.any():
            frontier = (frontier @ A > 0) & ~comp
            comp |= frontier
        left &= ~comp
        verts = np.flatnonzero(comp)
        out.append((verts, A if len(verts) == n else A[np.ix_(verts, verts)]))
    return out


def perron_enclosure(
    g: Graph,
    tol: float = 1e-9,
    start: Optional[Sequence[float]] = None,
) -> SpectralCertificate:
    """Certified two-sided enclosure of lambda(G) plus an approximate
    Perron vector scaled to max entry 1 (supported on an extremal
    component when G is disconnected)."""
    if g.n == 0:
        raise ValueError("spectral radius undefined on zero vertices")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if g.m == 0:
        perron = (1.0,) * g.n
        return SpectralCertificate(0.0, 0.0, perron, 0.0, True, 0, tol, 0.0)
    results = []
    for verts, block in _blocks(adjacency_matrix(g)):
        sub_start = None if start is None else [start[v] for v in verts]
        results.append((verts, next(_iterate_component(block, (tol,), sub_start))))
    lo = max(r[1][0] for r in results)
    hi = max(r[1][1] for r in results)
    verts, (_, _, vec, _, _, _) = max(results, key=lambda r: r[1][1])
    iterations = sum(r[1][4] for r in results)
    slack = max(r[1][5] for r in results)
    full = [0.0] * g.n
    vec = vec.tolist()
    vmax = max(vec)
    for v, xv in zip(verts.tolist(), vec):
        full[v] = xv / vmax
    converged = all(r[1][3] for r in results) and (hi - lo) <= tol
    residual = _residual(g, full)
    return SpectralCertificate(
        lo, hi, tuple(full), residual, converged, iterations, tol, slack
    )


def _residual(g: Graph, x: list[float]) -> float:
    ax = [sum(x[w] for w in bits(g.rows[v])) for v in range(g.n)]
    xx = sum(v * v for v in x)
    if xx == 0:
        return 0.0
    rho = sum(a * v for a, v in zip(ax, x)) / xx
    return max(abs(a - rho * v) for a, v in zip(ax, x))


# ---------------------------------------------------------------------------
# Exact side channels (resolve equality cases no float interval can).
# ---------------------------------------------------------------------------


def exact_lambda(g: Graph) -> Optional[Fraction]:
    """Exact spectral radius when available: d for d-regular graphs."""
    if g.n == 0:
        return None
    degs = g.degrees()
    if min(degs) == max(degs):
        return Fraction(degs[0])
    return None


def exact_lambda_sq(g: Graph) -> Optional[Fraction]:
    """Exact value of lambda^2 when available: a*b for K_{a,b} (plus the
    m=0 case); complete bipartite graphs have lambda = sqrt(m)."""
    if g.n == 0:
        return None
    if g.m == 0 or is_complete_bipartite(g):
        return Fraction(g.m)
    return None


def sqrt_interval(s: Fraction, tol: Fraction) -> tuple[Fraction, Fraction]:
    """Exact rational enclosure of sqrt(s) of width <= tol, s >= 0."""
    if s < 0:
        raise ValueError("needs s >= 0")
    if s == 0:
        return Fraction(0), Fraction(0)
    p, q = s.numerator, s.denominator
    shift = 0
    denom = q
    while Fraction(1, denom) > tol:
        shift += 2
        denom = q << (shift // 2)
    r = math.isqrt(p * q << shift)
    lo = Fraction(r, denom)
    hi = Fraction(r + 1, denom)
    return lo, hi


# ---------------------------------------------------------------------------
# The decision ladder.
# ---------------------------------------------------------------------------

_TIGHTEN_TOLS = (1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12)

# A lambda^2 enclosure (lo, hi); hi may be math.inf.
Interval = tuple[Fraction, Union[Fraction, float]]


def _tols_down_to(tol_floor: float) -> list[float]:
    tols = [t for t in _TIGHTEN_TOLS if t >= tol_floor]
    if not tols or tols[-1] > tol_floor:
        tols.append(tol_floor)
    return tols


def _lambda_sq_rungs(
    subject: Union[Graph, np.ndarray], tols: Sequence[float]
) -> Iterator[Optional[Interval]]:
    """Certified enclosures of lambda^2 for a graph, or for the dense
    adjacency matrix of one: the free rung, then one rung per tolerance.
    None marks an unconverged rung; nothing follows it."""
    if isinstance(subject, Graph):
        e = exact_lambda(subject)
        exact = e * e if e is not None else exact_lambda_sq(subject)
        if exact is not None:
            yield from repeat((exact, exact), len(tols) + 1)
            return
        low = rayleigh_lower_bound(subject)
        subject = adjacency_matrix(subject)
    else:
        low = Fraction(int(subject.sum()), subject.shape[0])  # 2m/n
    yield low * low, math.inf
    iterations = [_iterate_component(block, tols) for _, block in _blocks(subject)]
    for tol in tols:
        rungs = [next(it) for it in iterations]
        lo, hi = max(r[0] for r in rungs), max(r[1] for r in rungs)
        if not all(r[3] for r in rungs) or hi - lo > tol:
            yield None
            return
        yield Fraction(lo) ** 2, Fraction(hi) ** 2


def _decide(
    test: Callable[..., Optional[object]],
    *subjects: Union[Graph, np.ndarray],
    tol_floor: float = 1e-12,
):
    """The one "tighten until decided" routine.

    Calls test(*enclosures) with one lambda^2 enclosure per subject (a
    Graph, or a dense adjacency matrix), rung by rung, and returns the
    first answer that is not None. Returns Ordering.INDETERMINATE when a
    rung does not converge and Ordering.TIE when the rungs run out.
    """
    if tol_floor <= 0:
        raise ValueError("tol_floor must be positive")
    tols = _tols_down_to(tol_floor)
    for rung in zip(*(_lambda_sq_rungs(s, tols) for s in subjects)):
        if None in rung:
            return Ordering.INDETERMINATE
        answer = test(*rung)
        if answer is not None:
            return answer
    return Ordering.TIE


def _order(ig: Interval, ih: Interval) -> Optional[Ordering]:
    if ig[1] < ih[0]:
        return Ordering.LESS
    if ig[0] > ih[1]:
        return Ordering.GREATER
    return None


def _at_least(k: Fraction) -> Callable[[Interval], Optional[bool]]:
    """Test of lambda^2 >= k."""
    return lambda iv: True if iv[0] >= k else False if iv[1] < k else None


def _at_most(k: Fraction) -> Callable[[Interval], Optional[bool]]:
    """Test of lambda^2 <= k."""
    return lambda iv: True if iv[1] <= k else False if iv[0] > k else None


def _as_bool(answer) -> Optional[bool]:
    return answer if isinstance(answer, bool) else None


def compare_lambda(g: Graph, h: Graph, tol_floor: float = 1e-12) -> Ordering:
    """Certified ordering of lambda(G) vs lambda(H).

    Tie refuses to certify and never claims equality: exact values that
    agree (regular / complete bipartite graphs) compare as Tie, and so do
    enclosures that still overlap at tol_floor. Indeterminate means an
    enclosure stopped converging before tol_floor.
    """
    if g.n == h.n and g.rows == h.rows:
        return Ordering.TIE
    return _decide(_order, g, h, tol_floor=tol_floor)


def certify_lambda_ge_frac(g: Graph, c: Fraction, tol_floor: float = 1e-12) -> Optional[bool]:
    """True: lambda >= c certified. False: lambda < c certified. None: undecided."""
    return True if c <= 0 else _as_bool(_decide(_at_least(c * c), g, tol_floor=tol_floor))


def certify_lambda_le_frac(g: Graph, c: Fraction, tol_floor: float = 1e-12) -> Optional[bool]:
    return False if c < 0 else _as_bool(_decide(_at_most(c * c), g, tol_floor=tol_floor))


def certify_lambda_ge_sqrt(g: Graph, k: Fraction, tol_floor: float = 1e-12) -> Optional[bool]:
    """Certified comparison of lambda(G) against sqrt(k) for rational k >= 0."""
    return _as_bool(_decide(_at_least(k), g, tol_floor=tol_floor))


def certify_lambda_le_sqrt(g: Graph, k: Fraction, tol_floor: float = 1e-12) -> Optional[bool]:
    return _as_bool(_decide(_at_most(k), g, tol_floor=tol_floor))


# ---------------------------------------------------------------------------
# Neighborhood rotation (the strict lambda-increasing edge move).
# ---------------------------------------------------------------------------


def rotation_increases_lambda(g: Graph, u: int, v: int, W: int) -> TheoremVerdict:
    """Rotate the edges {v,w} for w in W onto u and certify the strict
    lambda increase, provided the Perron weights satisfy x_u >= x_v."""
    if not (0 <= u < g.n and 0 <= v < g.n) or u == v:
        raise ValueError("u, v must be distinct vertices")
    allowed = g.rows[v] & ~g.rows[u] & ~(1 << u) & ~(1 << v)
    if W & ~allowed:
        raise ValueError("W must lie in N(v) \\ N(u), excluding u and v")
    params = {"u": u, "v": v, "W": W}
    if len(components(g)) != 1:
        return TheoremVerdict(
            "ROTATION", False, None, {}, None, "graph is disconnected", params
        )
    if W == 0:
        return TheoremVerdict(
            "ROTATION",
            False,
            False,
            {"note": "empty rotation leaves the graph unchanged"},
            {"degenerate": True},
            None,
            params,
        )
    cert = perron_enclosure(g, 1e-10)
    margin = cert.perron[u] - cert.perron[v]
    slack = 4.0 * cert.residual + cert.width
    hyp = bool(margin >= -slack)
    rows = list(g.rows)
    for w in bits(W):
        rows[v] &= ~(1 << w)
        rows[w] &= ~(1 << v)
        rows[u] |= 1 << w
        rows[w] |= 1 << u
    g2 = Graph(g.n, tuple(rows), g.m)
    order = compare_lambda(g2, g)
    concl: Optional[bool]
    if order is Ordering.GREATER:
        concl = True
    elif order is Ordering.LESS:
        concl = False
    else:
        concl = None
    return TheoremVerdict(
        "ROTATION",
        hyp,
        concl,
        {"perron_margin": margin, "perron_slack": slack},
        None,
        None if concl is not None else f"comparison returned {order.value}",
        params,
    )
