"""Exact-rational polynomial root isolation and family spectral polynomials.

Polynomials are dense coefficient lists, low degree first, of ints or Fractions.
One engine finds every exact root in two steps. `_isolate` takes the
square-free part s = p / gcd(p, p') and runs Sturm bisection on s's chain
until a bracket holds a single distinct root; the chain of a square-free
polynomial counts distinct roots correctly at any endpoint, so repeated
eigenvalues (disconnected graphs) and bisection points that hit a root need
no care. `bisect_root`, plain sign bisection, then refines that root of s.
The named family polynomials have a known single-root bracket and use
`bisect_root` alone.
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


def _poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder of a / b over the rationals (b nonzero)."""
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    db, lead = len(b) - 1, Fraction(b[-1])  # int / int would be a float
    quot = [Fraction(0)] * max(len(a) - db, 0)
    for i in reversed(range(len(quot))):
        c = quot[i] = a[i + db] / lead
        for j in range(db + 1):
            a[i + j] -= c * b[j]
    return _poly_trim(quot), _poly_trim(a[:db])


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor ([] when both are zero)."""
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    return [c / Fraction(a[-1]) for c in a]


def _square_free(p: Poly) -> Poly:
    """p / gcd(p, p'): the same distinct roots, each simple (p nonzero)."""
    return _poly_divmod(p, poly_gcd(p, poly_derivative(p)))[0]


def sturm_chain(p: Poly) -> list[Poly]:
    chain = [_poly_trim(list(p)), _poly_trim(poly_derivative(p))]
    while chain[-1]:
        r = _poly_divmod(chain[-2], chain[-1])[1]
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
    """Number of distinct real roots in (a, b]; exact at any a < b, roots
    included, when the chain is that of a square-free polynomial."""
    return _sign_variations(chain, a) - _sign_variations(chain, b)


def _isolate(p: Poly, lo: Fraction, hi: Fraction) -> tuple[Poly, Fraction, Fraction]:
    """The square-free part s of p and a bracket (lo, hi] around the largest
    root of p in (lo, hi] that holds no other root of s and has s(lo) != 0,
    by Sturm bisection on s's chain; each step evaluates the chain once."""
    lo, hi = Fraction(lo), Fraction(hi)
    s = _square_free(p)
    chain = sturm_chain(s)
    vlo, vhi = _sign_variations(chain, lo), _sign_variations(chain, hi)
    if vlo - vhi < 1:
        raise ValueError("no root in the given bracket")
    while vlo - vhi > 1 or poly_eval(s, lo) == 0:
        mid = (lo + hi) / 2
        vmid = _sign_variations(chain, mid)
        if vmid > vhi:
            lo, vlo = mid, vmid
        else:
            hi, vhi = mid, vmid
    return s, lo, hi


def bisect_root(p: Poly, lo: Fraction, hi: Fraction, tol: Fraction) -> tuple[Fraction, Fraction]:
    """Sign bisection of a bracket [lo, hi] where p changes sign once, to
    width <= tol; [r, r] when an end or a bisection point is the root r."""
    lo, hi = Fraction(lo), Fraction(hi)
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


def largest_root_interval(
    p: Poly, lo: Fraction, hi: Fraction, tol: Fraction
) -> tuple[Fraction, Fraction]:
    """Isolate the largest real root of p in (lo, hi] to width <= tol.

    Requires that p has at least one real root in (lo, hi] and none above
    hi; roots of any multiplicity are allowed, also at lo and hi. Returns
    [r, r] when a bisection point hits the root r exactly.
    """
    return bisect_root(*_isolate(p, lo, hi), tol)


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
    graph on n vertices with an edge: 1 <= lambda <= n - 1 then."""
    return Fraction(1, 2), Fraction(2 * n + 1, 2)


def lambda_interval_exact(g: Graph, tol: Fraction = Fraction(1, 10**12)) -> tuple[Fraction, Fraction]:
    """Certified enclosure of the spectral radius from the exact charpoly."""
    if g.n == 0:
        raise ValueError("spectral radius undefined for the empty vertex set")
    if g.m == 0:
        return Fraction(0), Fraction(0)
    p = [Fraction(c) for c in charpoly_exact(g)]
    return largest_root_interval(p, *_bracket(g.n), tol)


def sign_at_largest_root(p: Poly, q: Poly, lo: Fraction, hi: Fraction) -> int:
    """Exact sign of q evaluated at the largest root of p in (lo, hi].

    Requires p to have at least one root in (lo, hi] and none above hi.
    Returns -1, 0, or +1; 0 means the largest root of p is a root of q.
    """
    s, lo, hi = _isolate(p, lo, hi)
    # roots of gcd(s, q) are simple roots of s, and (lo, hi] holds only one
    g = poly_gcd(s, q)
    if len(g) >= 2 and count_roots(sturm_chain(g), lo, hi):
        return 0
    chain_q = sturm_chain(_square_free(q))
    while count_roots(chain_q, lo, hi):  # halve until q keeps one sign on (lo, hi]
        lo, hi = bisect_root(s, lo, hi, (hi - lo) / 2)
    val = poly_eval(q, hi)
    return (val > 0) - (val < 0)


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
