"""Exact-rational polynomial root isolation and family spectral polynomials.

Polynomials are dense coefficient lists, low degree first, over Fraction.
Two isolation routines are provided: plain sign bisection inside a bracket
known to hold a single simple root (the named family polynomials), and a
Sturm-chain search for the largest real root of an arbitrary polynomial
(used as the independent oracle for spectral enclosures, where repeated
eigenvalues from disconnected graphs defeat naive sign bisection).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graph import Graph, adjacency_matrix

Poly = list[Fraction]


def poly_eval(p: Poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_derivative(p: Poly) -> Poly:
    return [c * i for i, c in enumerate(p)][1:]


def _poly_trim(p: Poly) -> Poly:
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def _poly_rem(a: Poly, b: Poly) -> Poly:
    """Remainder of a / b over the rationals."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and _poly_trim(a):
        da, la = len(a) - 1, a[-1]
        if la == 0:
            a.pop()
            continue
        q = la / lb
        for i in range(db + 1):
            a[da - db + i] -= q * b[i]
        a.pop()
    return _poly_trim(a)


def sturm_chain(p: Poly) -> list[Poly]:
    chain = [_poly_trim(list(p)), _poly_trim(poly_derivative(p))]
    while chain[-1]:
        r = _poly_rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])
    return [c for c in chain if c]


def _sign_variations(chain: list[Poly], x: Fraction) -> int:
    signs = []
    for p in chain:
        v = poly_eval(p, x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(chain: list[Poly], a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots in (a, b]."""
    return _sign_variations(chain, a) - _sign_variations(chain, b)


def _safe_mid(lo: Fraction, hi: Fraction) -> Fraction:
    """Bisection point that cannot be a root of a monic integer polynomial
    (whose rational roots are integers): nudge integer midpoints."""
    mid = (lo + hi) / 2
    if mid.denominator == 1:
        mid += (hi - lo) / 4
        if mid.denominator == 1:  # width was a multiple of 4
            mid += Fraction(1, 8)
    return mid


def largest_root_interval(
    p: Poly, lo: Fraction, hi: Fraction, tol: Fraction
) -> tuple[Fraction, Fraction]:
    """Isolate the largest real root of p in (lo, hi] to width <= tol.

    Requires that p has at least one real root in (lo, hi] and none above
    hi, and that lo/hi are not roots; verified via the Sturm chain, so
    repeated roots are handled. Intended for monic integer polynomials
    (endpoints and midpoints are kept away from integers).
    """
    chain = sturm_chain(p)
    if count_roots(chain, lo, hi) < 1:
        raise ValueError("no root in the given bracket")
    while hi - lo > tol:
        mid = _safe_mid(lo, hi)
        if count_roots(chain, mid, hi) >= 1:
            lo = mid
        else:
            hi = mid
    return lo, hi


def bisect_root(p: Poly, lo: Fraction, hi: Fraction, tol: Fraction) -> tuple[Fraction, Fraction]:
    """Sign bisection for a bracket with p(lo) < 0 < p(hi)."""
    flo, fhi = poly_eval(p, lo), poly_eval(p, hi)
    if flo == 0:
        return lo, lo
    if fhi == 0:
        return hi, hi
    if (flo > 0) == (fhi > 0):
        raise ValueError("no sign change in bracket; wrong family/parity pairing?")
    neg_low = flo < 0
    while hi - lo > tol:
        mid = (lo + hi) / 2
        fm = poly_eval(p, mid)
        if fm == 0:
            return mid, mid
        if (fm < 0) == neg_low:
            lo = mid
        else:
            hi = mid
    return lo, hi


# ---------------------------------------------------------------------------
# Named family polynomials: exact coefficients parameterized by n.
# ---------------------------------------------------------------------------

FAMILY_TAGS = ("Y_even", "Y_odd", "T_star4", "C4_embed")


@dataclass(frozen=True)
class FamilyPolynomial:
    """Characteristic factor whose largest root is the family's lambda."""

    tag: str
    n: int

    def coefficients(self) -> Poly:
        n = Fraction(self.n)
        if self.tag == "Y_even":
            # x^3 - x^2 - (n^2/4) x + n^2/4 - n
            return [n * n / 4 - n, -n * n / 4, Fraction(-1), Fraction(1)]
        if self.tag == "Y_odd":
            # x^3 - x^2 + ((1 - n^2)/4) x + n^2/4 - n + 3/4
            return [
                n * n / 4 - n + Fraction(3, 4),
                (1 - n * n) / 4,
                Fraction(-1),
                Fraction(1),
            ]
        if self.tag == "T_star4":
            # x^4 - (15/4 + n^2/4) x^2 + (4 - 4n) x + (9 - 10n + n^2)
            return [
                Fraction(9) - 10 * n + n * n,
                Fraction(4) - 4 * n,
                -Fraction(15, 4) - n * n / 4,
                Fraction(0),
                Fraction(1),
            ]
        if self.tag == "C4_embed":
            # x^3 - 2 x^2 + (1/4 - n^2/4) x + (7/2 - 4n + n^2/2)
            return [
                Fraction(7, 2) - 4 * n + n * n / 2,
                Fraction(1, 4) - n * n / 4,
                Fraction(-2),
                Fraction(1),
            ]
        raise ValueError(f"unknown family tag {self.tag!r}")

    def validate(self) -> None:
        n = self.n
        if self.tag == "Y_even" and not (n >= 4 and n % 2 == 0):
            raise ValueError("Y_even needs even n >= 4")
        if self.tag == "Y_odd" and not (n >= 3 and n % 2 == 1):
            raise ValueError("Y_odd needs odd n >= 3")
        if self.tag == "T_star4" and not (n >= 9 and n % 2 == 1):
            raise ValueError("T_star4 needs odd n >= 9 (derivation splits by parity)")
        if self.tag == "C4_embed" and not (n >= 7 and n % 2 == 1):
            raise ValueError("C4_embed needs odd n >= 7 (derivation splits by parity)")


def family_lambda(spec: FamilyPolynomial, tol: Fraction | float) -> tuple[Fraction, Fraction]:
    """Largest root of the family polynomial by exact sign bisection on [n/2, n]."""
    spec.validate()
    if tol <= 0:
        raise ValueError("tol must be positive")
    p = spec.coefficients()
    lo, hi = Fraction(spec.n, 2), Fraction(spec.n)
    return bisect_root(p, lo, hi, Fraction(tol))


# ---------------------------------------------------------------------------
# Independent oracle: exact characteristic polynomial + Sturm isolation.
# ---------------------------------------------------------------------------


def charpoly_exact(a: Graph | np.ndarray) -> list[int] | list[list[int]]:
    """Integer characteristic polynomials, low degree first, monic, by the
    Faddeev-LeVerrier recurrence in exact arithmetic.

    `a` is a Graph (its adjacency matrix; returns one coefficient list) or an
    integer array of shape (b, n, n) (returns one list per matrix). The
    recurrence runs on object-dtype arrays, whose entries are Python ints, so
    no entry can overflow whatever the size of the matrix entries.
    """
    if isinstance(a, Graph):
        return charpoly_exact(adjacency_matrix(a).astype(np.int64)[None])[0]
    a = np.asarray(a)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {a.shape}")
    if not (np.issubdtype(a.dtype, np.integer) or a.dtype == object):
        raise TypeError(f"expected integer matrices, got dtype {a.dtype}")
    A = a.astype(object)
    b, n, _ = A.shape
    diag = np.arange(n)
    M = A.copy()
    cs = []  # p(x) = x^n - c1 x^(n-1) - c2 x^(n-2) - ... - cn
    for k in range(1, n + 1):
        tr = M[:, diag, diag].sum(axis=1)
        c = tr // k
        if (c * k != tr).any():
            raise ArithmeticError(f"trace of M_{k} is not divisible by {k}")
        cs.append(c)
        if k == n:
            break
        M[:, diag, diag] -= c[:, None]
        M = A @ M
    return [[-int(cs[n - 1 - i][j]) for i in range(n)] + [1] for j in range(b)]


def _bracket(n: int) -> tuple[Fraction, Fraction]:
    """(lo, hi) with lambda(G) the largest charpoly root in (lo, hi], for a
    graph on n vertices with an edge: lambda >= 1 then, lambda <= n - 1, and
    half-integers are never roots of a monic integer polynomial."""
    return Fraction(1, 2), Fraction(2 * n + 1, 2)


def lambda_interval_exact(g: Graph, tol: Fraction = Fraction(1, 10**12)) -> tuple[Fraction, Fraction]:
    """Certified enclosure of the spectral radius from the exact charpoly."""
    if g.n == 0:
        raise ValueError("spectral radius undefined for the empty vertex set")
    if g.m == 0:
        return Fraction(0), Fraction(0)
    p = [Fraction(c) for c in charpoly_exact(g)]
    return largest_root_interval(p, *_bracket(g.n), tol)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        a, b = b, _poly_rem(a, b)
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def sign_at_largest_root(p: Poly, q: Poly, lo: Fraction, hi: Fraction) -> int:
    """Exact sign of q evaluated at the largest root of p in (lo, hi].

    Requires p to have at least one root in (lo, hi] and none above hi.
    Returns -1, 0, or +1; 0 means the largest root of p is a root of q.
    """
    chain_p = sturm_chain(p)
    if count_roots(chain_p, lo, hi) < 1:
        raise ValueError("no root of p in the bracket")
    # tighten until the bracket holds only the single largest root of p
    while count_roots(chain_p, lo, hi) > 1:
        mid = _safe_mid(lo, hi)
        if count_roots(chain_p, mid, hi) >= 1:
            lo = mid
        else:
            hi = mid
    chain_q = sturm_chain(q)
    while True:
        if count_roots(chain_q, lo, hi) == 0:
            val = poly_eval(q, hi)
            return 0 if val == 0 else (1 if val > 0 else -1)
        g = poly_gcd(p, q)
        if len(g) >= 2 and count_roots(sturm_chain(g), lo, hi) >= 1:
            return 0
        mid = _safe_mid(lo, hi)
        if count_roots(chain_p, mid, hi) >= 1:
            lo = mid
        else:
            hi = mid


def signs_at_lambda(graphs: Sequence[Graph], qs: Sequence[Poly]) -> list[int]:
    """Exact signs (-1, 0 or +1) of q(lambda(G)) for each pair of graphs[i]
    and qs[i], from integer charpolys and Sturm chains; each q may have
    integer or Fraction coefficients.

    The charpolys of the graphs with an edge come from one batched
    `charpoly_exact` call per vertex count, and the Sturm search runs once
    per distinct (charpoly, q): every graph's answer is still proved from its
    own characteristic polynomial. The memo lives for this call only.
    """
    if len(graphs) != len(qs):
        raise ValueError("one polynomial per graph is needed")
    qs = [[Fraction(c) for c in q] for q in qs]
    signs = [0] * len(graphs)
    by_n: dict[int, list[int]] = {}
    for i, g in enumerate(graphs):
        if g.m == 0:  # lambda = 0
            signs[i] = (qs[i][0] > 0) - (qs[i][0] < 0)
        else:
            by_n.setdefault(g.n, []).append(i)
    proved: dict[tuple, int] = {}
    for n, idx in by_n.items():
        stack = np.stack([adjacency_matrix(graphs[i]) for i in idx]).astype(np.int64)
        lo, hi = _bracket(n)
        for i, p in zip(idx, charpoly_exact(stack)):
            key = (tuple(p), tuple(qs[i]))
            if key not in proved:
                proved[key] = sign_at_largest_root([Fraction(c) for c in p], qs[i], lo, hi)
            signs[i] = proved[key]
    return signs


def sign_at_lambda(g: Graph, q: Poly) -> int:
    """Exact sign (-1, 0 or +1) of q(lambda(G)); see `signs_at_lambda`."""
    return signs_at_lambda([g], [q])[0]
