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
connected component at a time; `_cw_rungs` aggregates the components
(largest bounds, total iterations, the Perron vector of the top component)
for both `perron_enclosure` and the ladder below.

Every certified decision about lambda (`compare_lambda`, the
`certify_lambda_*` thresholds, the cubic triangle bound of
`theorems.check_bn`, and the probes in `search`) goes through one ladder,
`_decide`: it tests enclosures of lambda^2 that only get tighter.
The first rung is free: `exact_lambda_sq`, the exact value for regular
(d^2, 0 with no edges) and complete bipartite (ab) graphs, whose equality
cases no floating interval can resolve, and otherwise Hofmeister's
[sum(d^2)/n, inf).
Then the CW iteration is tightened through the tolerances of
`_tols_down_to(tol_floor)`, each rung resuming where the last one stopped.
An unconverged rung ends the ladder as Indeterminate; running out of rungs
ends it as Tie.
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

from .graph import Graph, adjacency_matrix, is_complete_bipartite

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
    A: np.ndarray, tols: Sequence[float]
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
    x = np.ones(k)
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


def _cw_rungs(
    A: np.ndarray, tols: Sequence[float]
) -> Iterator[tuple[float, float, bool, int, float, np.ndarray]]:
    """The CW enclosure of lambda for the graph with dense adjacency matrix
    A, its components tightened together through the tolerances `tols`.

    Yields (lo, hi, converged, iterations, slack, x) once per tolerance:
    the largest lo and hi over the components, whether every component
    converged and hi - lo <= tol, the total iterations, the largest slack,
    and the Perron vector estimate of the component with the largest hi
    (the first on ties), max entry 1, zero elsewhere. Nothing follows an
    unconverged yield.
    """
    blocks = _blocks(A)
    runs = [_iterate_component(block, tols) for _, block in blocks]
    for tol in tols:
        rungs = [next(run) for run in runs]
        his = [r[1] for r in rungs]
        top = his.index(max(his))
        lo, hi = max(r[0] for r in rungs), his[top]
        x = np.zeros(A.shape[0])
        x[blocks[top][0]] = rungs[top][2]
        converged = all(r[3] for r in rungs) and hi - lo <= tol
        yield lo, hi, converged, sum(r[4] for r in rungs), max(r[5] for r in rungs), x
        if not converged:
            return


def perron_enclosure(g: Graph, tol: float = 1e-9) -> SpectralCertificate:
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
    A = adjacency_matrix(g)
    lo, hi, converged, iterations, slack, x = next(_cw_rungs(A, (tol,)))
    return SpectralCertificate(
        lo, hi, tuple(x.tolist()), _residual(A, x), converged, iterations, tol, slack
    )


def _residual(A: np.ndarray, x: np.ndarray) -> float:
    # every sum runs left to right (accumulate, not BLAS), so the residual
    # is the same on every machine; a row's zero terms add exactly
    acc = np.add.accumulate
    ax = np.array([acc(row * x)[-1] for row in A])
    xx = acc(x * x)[-1]
    if xx == 0:
        return 0.0
    rho = acc(ax * x)[-1] / xx
    return float(np.abs(ax - rho * x).max())


# ---------------------------------------------------------------------------
# The exact rung (resolves equality cases no float interval can).
# ---------------------------------------------------------------------------


def exact_lambda_sq(g: Graph) -> Optional[Fraction]:
    """Exact lambda^2 where a closed form gives it: d^2 for d-regular
    graphs (0 with no edges) and ab = m for K_{a,b}; None otherwise and on
    zero vertices."""
    if g.n == 0:
        return None
    degs = g.degrees()
    if min(degs) == max(degs):
        return Fraction(degs[0] ** 2)
    if is_complete_bipartite(g):
        return Fraction(g.m)
    return None


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
    None marks an unconverged rung; nothing follows it.

    Unless `exact_lambda_sq` applies, the free rung is Hofmeister's bound
    lambda^2 >= sum(d^2)/n (the Rayleigh quotient of A^2 at the all-ones
    vector), never weaker than (2m/n)^2 by Cauchy-Schwarz. The matrix may
    have any 0/1 dtype: each degree is an integer at most n < 2^24, exact
    even in float32, and `d @ d` runs in int64, so it is exact however
    large sum(d^2) grows. The CW rungs run on a float64 copy, made only
    when they are reached."""
    if isinstance(subject, Graph):
        exact = exact_lambda_sq(subject)
        if exact is not None:
            yield from repeat((exact, exact), len(tols) + 1)
            return
        if subject.n < 1:
            raise ValueError("needs at least one vertex")
        subject = adjacency_matrix(subject)
    d = subject.sum(axis=1).astype(np.int64)
    yield Fraction(int(d @ d), len(d)), math.inf
    for lo, hi, converged, *_ in _cw_rungs(subject.astype(np.float64, copy=False), tols):
        yield (Fraction(lo) ** 2, Fraction(hi) ** 2) if converged else None


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


def certified(order: Ordering, expected: Ordering) -> Optional[bool]:
    """Whether a certified ordering is `expected`; None when the comparison
    refused (Tie or Indeterminate)."""
    return None if order in (Ordering.TIE, Ordering.INDETERMINATE) else order is expected


def compare_lambda(g: Graph, h: Graph) -> Ordering:
    """Certified ordering of lambda(G) vs lambda(H).

    Tie refuses to certify and never claims equality: exact values that
    agree (regular / complete bipartite graphs) compare as Tie, and so do
    enclosures that still overlap at the last rung (1e-12). Indeterminate
    means an enclosure stopped converging before it.
    """
    if g.n == h.n and g.rows == h.rows:
        return Ordering.TIE
    return _decide(_order, g, h)


def certify_lambda_ge_frac(g: Graph, c: Fraction, tol_floor: float = 1e-12) -> Optional[bool]:
    """True: lambda >= c certified. False: lambda < c certified. None: undecided."""
    return True if c <= 0 else _as_bool(_decide(_at_least(c * c), g, tol_floor=tol_floor))


def certify_lambda_le_frac(g: Graph, c: Fraction) -> Optional[bool]:
    return False if c < 0 else _as_bool(_decide(_at_most(c * c), g))


def certify_lambda_ge_sqrt(g: Graph, k: Fraction) -> Optional[bool]:
    """Certified comparison of lambda(G) against sqrt(k) for rational k >= 0."""
    return _as_bool(_decide(_at_least(k), g))


def certify_lambda_le_sqrt(g: Graph, k: Fraction) -> Optional[bool]:
    return _as_bool(_decide(_at_most(k), g))
