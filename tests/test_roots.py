import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specls.graph import adjacency_matrix, build_graph
from specls.roots import (
    FamilyPolynomial,
    charpoly_exact,
    count_roots,
    family_lambda,
    lambda_interval_exact,
    largest_root_interval,
    poly_eval,
    poly_gcd,
    sign_at_lambda,
    sign_at_largest_root,
    signs_at_lambda,
    sturm_chain,
)
from specls.roots import _bracket

TOL = Fraction(1, 10**12)


def random_graph(rng, n, p=0.5):
    return build_graph(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    )


def test_family_poly_known_values():
    # even-order matching polynomial at n=6: x^3 - x^2 - 9x + 3
    p = FamilyPolynomial("Y_even", 6).coefficients()
    assert p == [Fraction(3), Fraction(-9), Fraction(-1), Fraction(1)]
    # odd order n=7: x^3 - x^2 - 12x + 6
    p = FamilyPolynomial("Y_odd", 7).coefficients()
    assert p == [Fraction(6), Fraction(-12), Fraction(-1), Fraction(1)]


def test_family_lambda_matches_eigensolver():
    for tag, n, build in [
        ("Y_even", 6, None),
        ("Y_odd", 7, None),
        ("Y_even", 20, None),
        ("T_star4", 9, None),
        ("T_star4", 13, None),
        ("C4_embed", 11, None),
        ("C4_embed", 15, None),
    ]:
        lo, hi = family_lambda(FamilyPolynomial(tag, n), TOL)
        from specls.families import embed_into_turan2, small_cycle, t_n2q, y_n2q

        if tag in ("Y_even", "Y_odd"):
            g = y_n2q(n, 1).graph
        elif tag == "T_star4":
            g = t_n2q(n, 4).graph
        else:
            g = embed_into_turan2(n, small_cycle(4)).graph
        A = np.zeros((n, n))
        for u, v in g.edges():
            A[u, v] = A[v, u] = 1
        lam = np.linalg.eigvalsh(A)[-1]
        assert float(lo) - 1e-9 <= lam <= float(hi) + 1e-9


def test_family_lambda_validity():
    with pytest.raises(ValueError):
        family_lambda(FamilyPolynomial("Y_even", 7), TOL)
    with pytest.raises(ValueError):
        family_lambda(FamilyPolynomial("T_star4", 7), TOL)
    with pytest.raises(ValueError):
        family_lambda(FamilyPolynomial("T_star4", 12), TOL)
    with pytest.raises(ValueError):
        family_lambda(FamilyPolynomial("C4_embed", 10), TOL)
    with pytest.raises(ValueError):
        family_lambda(FamilyPolynomial("nope", 8), TOL)
    with pytest.raises(ValueError):
        family_lambda(FamilyPolynomial("Y_even", 8), Fraction(0))


def test_charpoly_small_cases():
    k2 = build_graph(2, [(0, 1)])
    assert charpoly_exact(k2) == [-1, 0, 1]
    k3 = build_graph(3, [(0, 1), (0, 2), (1, 2)])
    assert charpoly_exact(k3) == [-2, -3, 0, 1]  # (x-2)(x+1)^2


def test_charpoly_matches_numpy():
    rng = random.Random(5)
    for _ in range(40):
        g = random_graph(rng, rng.randrange(1, 9))
        coeffs = charpoly_exact(g)
        A = np.zeros((g.n, g.n))
        for u, v in g.edges():
            A[u, v] = A[v, u] = 1
        eig = np.linalg.eigvalsh(A)
        for lam in eig:
            val = sum(c * lam**i for i, c in enumerate(coeffs))
            assert abs(val) < 1e-6 * max(1.0, abs(lam)) ** g.n


def _leverrier_reference(A: list[list[int]]) -> list[int]:
    """The pure-Python Leverrier-Faddeev loop over nested lists."""
    n = len(A)
    M = [row[:] for row in A]
    cs = []
    for k in range(1, n + 1):
        c = sum(M[i][i] for i in range(n))
        assert c % k == 0
        c //= k
        cs.append(c)
        if k == n:
            break
        for i in range(n):
            M[i][i] -= c
        M = [[sum(A[i][t] * M[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
    return [-cs[n - 1 - i] for i in range(n)] + [1]


@st.composite
def _symmetric_matrices(draw, min_n: int, max_n: int, max_entry: int):
    n = draw(st.integers(min_n, max_n))
    entries = st.integers(0, max_entry)
    A = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            A[i][j] = A[j][i] = draw(entries)
    return A


@settings(max_examples=60, deadline=None)
@given(st.lists(_symmetric_matrices(0, 14, 1), min_size=1, max_size=4))
def test_charpoly_of_graphs_matches_reference(mats):
    for A in mats:
        n = len(A)
        g = build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if A[i][j]])
        want = _leverrier_reference([[int(i != j and A[i][j]) for j in range(n)] for i in range(n)])
        assert charpoly_exact(g) == want
    # one batch of same-size graphs gives the same lists as one call each
    A, n = mats[0], len(mats[0])
    adj = [[int(i != j and A[i][j]) for j in range(n)] for i in range(n)]
    stack = np.array([adj] * 3, dtype=np.int64).reshape(3, n, n)
    assert charpoly_exact(stack) == [_leverrier_reference(adj)] * 3


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10).flatmap(
    lambda n: st.lists(_symmetric_matrices(n, n, 50), min_size=1, max_size=5)))
def test_charpoly_of_integer_matrices_matches_reference(mats):
    n = len(mats[0])
    assert charpoly_exact(np.array(mats, dtype=np.int64).reshape(len(mats), n, n)) == [
        _leverrier_reference(A) for A in mats]


def test_charpoly_small_and_edgeless():
    for n in range(4):
        assert charpoly_exact(build_graph(n, [])) == [0] * n + [1]
    assert charpoly_exact(np.zeros((0, 3, 3), dtype=np.int64)) == []
    # entries beyond int64: the recurrence runs on Python ints
    big = np.array([[[2**40, 1], [1, 2**40]]], dtype=object)
    assert charpoly_exact(big) == [[2**80 - 1, -(2**41), 1]]
    with pytest.raises(TypeError):
        charpoly_exact(np.eye(3)[None])
    with pytest.raises(ValueError):
        charpoly_exact(np.eye(3, dtype=np.int64))


def test_signs_at_lambda_matches_one_graph_at_a_time():
    rng = random.Random(11)
    graphs, qs = [], []
    for _ in range(30):
        n = rng.randrange(1, 8)
        g = random_graph(rng, n, rng.choice((0.0, 0.3, 0.6)))
        for q in ([-g.m, 0, 1], [-(g.m - 1), -1, 1], [Fraction(-3, 2), 1]):
            graphs.append(g)
            qs.append(q)
        # a relabelled copy repeats the charpoly with new rows
        perm = list(range(n))
        rng.shuffle(perm)
        h = build_graph(n, [(perm[u], perm[v]) for u, v in g.edges()])
        graphs.append(h)
        qs.append([-g.m, 0, 1])
    graphs.append(build_graph(5, []))
    qs.append([0, 1])
    assert any(g.m == 0 for g in graphs) and len({g.n for g in graphs}) > 3
    assert signs_at_lambda(graphs, qs) == [sign_at_lambda(g, q) for g, q in zip(graphs, qs)]
    assert signs_at_lambda([], []) == []
    with pytest.raises(ValueError):
        signs_at_lambda(graphs, qs[:-1])


def test_lambda_interval_exact_contains_eigenvalue():
    rng = random.Random(6)
    for _ in range(40):
        g = random_graph(rng, rng.randrange(1, 9))
        lo, hi = lambda_interval_exact(g)
        A = np.zeros((g.n, g.n))
        for u, v in g.edges():
            A[u, v] = A[v, u] = 1
        lam = float(np.linalg.eigvalsh(A)[-1]) if g.n else 0.0
        assert float(lo) - 1e-9 <= lam <= float(hi) + 1e-9
        assert hi - lo <= Fraction(1, 10**12)


def _poly(*roots):
    """Monic polynomial with the given roots, as Fractions."""
    p = [Fraction(1)]
    for r in roots:
        p = [a - Fraction(r) * b for a, b in zip([Fraction(0)] + p, p + [Fraction(0)])]
    return p


def test_largest_root_with_repeated_roots():
    # two disjoint triangles: lambda = 2 is a double root of the charpoly
    g = build_graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    lo, hi = lambda_interval_exact(g)
    assert lo <= 2 <= hi
    tol = Fraction(1, 10**9)
    # the lower end is a double root, the upper end the largest one
    assert largest_root_interval(_poly(1, 1, 3, 3), Fraction(1), Fraction(3), tol) == (3, 3)
    lo, hi = largest_root_interval(_poly(1, 1, 3, 3, 5, 5), Fraction(1), Fraction(6), tol)
    assert lo <= 5 <= hi and hi - lo <= tol
    # an irrational double root: (x^2 - 2)^2 (x - 1)
    p = [Fraction(c) for c in (-4, 4, 4, -4, -1, 1)]
    lo, hi = largest_root_interval(p, Fraction(1), Fraction(2), tol)
    assert lo * lo <= 2 <= hi * hi and hi - lo <= tol
    with pytest.raises(ValueError):  # the only roots are at or below lo
        largest_root_interval(_poly(1, 1, 3), Fraction(3), Fraction(4), tol)
    # a bisection point (2) is a root below the largest: (x - 1)(x - 2)(x - 3) on (0, 4]
    assert largest_root_interval(_poly(1, 2, 3), Fraction(0), Fraction(4), tol) == (3, 3)
    # ... and a double root: (x - 2)^2 (x - 3), where p's own chain never isolates
    assert largest_root_interval(_poly(2, 2, 3), Fraction(0), Fraction(4), tol) == (3, 3)


def test_sturm_counts():
    # (x-1)(x-2)(x-3)
    p = [Fraction(-6), Fraction(11), Fraction(-6), Fraction(1)]
    chain = sturm_chain(p)
    assert count_roots(chain, Fraction(0), Fraction(4)) == 3
    assert count_roots(chain, Fraction(3, 2), Fraction(5, 2)) == 1
    lo, hi = largest_root_interval(p, Fraction(1, 2), Fraction(9, 2), Fraction(1, 10**9))
    assert lo <= 3 <= hi


def test_int_coefficients_and_ends_give_the_exact_fraction_results():
    # int / int would be a float; each routine reads ints as Fractions
    def exact(x):
        if isinstance(x, (list, tuple)):
            return all(exact(y) for y in x)
        return isinstance(x, (int, Fraction))

    cubic = [-6, 11, -6, 1]  # (x-1)(x-2)(x-3)
    as_fractions = [Fraction(c) for c in cubic]
    got = poly_gcd([-1, 0, 1], [-1, 1])
    assert got == [-1, 1] and exact(got)
    chain = sturm_chain(cubic)
    assert chain == sturm_chain(as_fractions) and exact(chain)
    assert chain[2] == [Fraction(-4, 3), Fraction(2, 3)]
    assert count_roots(chain, 0, 4) == 3 and count_roots(chain, 2, 4) == 1
    got = largest_root_interval([-2, 0, 1], 0, 2, Fraction(1, 100))
    assert got == (Fraction(181, 128), Fraction(91, 64)) and exact(got)
    assert got == largest_root_interval([Fraction(-2), 0, 1], Fraction(0), Fraction(2),
                                        Fraction(1, 100))
    assert [sign_at_largest_root(cubic, [-r, 1], 0, 4) for r in (2, 3, 4)] == [1, 0, -1]


def test_sign_at_largest_root():
    k3 = build_graph(3, [(0, 1), (0, 2), (1, 2)])
    p = [Fraction(c) for c in charpoly_exact(k3)]  # largest root 2
    q = [Fraction(-2), Fraction(0), Fraction(1)]  # x^2 - 2 > 0 at 2
    assert sign_at_largest_root(p, q, Fraction(1, 2), Fraction(7, 2)) == 1
    q = [Fraction(-4), Fraction(0), Fraction(1)]  # x^2 - 4 == 0 at 2
    assert sign_at_largest_root(p, q, Fraction(1, 2), Fraction(7, 2)) == 0
    q = [Fraction(-5), Fraction(0), Fraction(1)]  # x^2 - 5 < 0 at 2
    assert sign_at_largest_root(p, q, Fraction(1, 2), Fraction(7, 2)) == -1
    half, lo, hi = Fraction(1, 2), Fraction(2), Fraction(4)
    # lambda = 2 is a multiple root of p and a root of q
    assert sign_at_largest_root(_poly(2, 2, -1), _poly(2, 5), half, hi) == 0
    two_k3 = build_graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    assert [sign_at_lambda(two_k3, q) for q in ([-2, 1], [-4, 0, 1], [-3, 1])] == [0, 0, -1]
    # q is not square-free, and its double root 3 is the first bisection point
    ten = [Fraction(-10), Fraction(0), Fraction(1)]  # lambda = sqrt(10) = 3.162...
    assert sign_at_largest_root(ten, _poly(3, 3, 4), lo, hi) == -1
    assert sign_at_largest_root(ten, _poly(3, 3, 3), lo, hi) == 1
    assert sign_at_largest_root(_poly(3, -1, -1, -1), _poly(3, 3, 5), lo, hi) == 0
    # a root of q within 1e-9 of lambda = sqrt(2) = 1.41421356237...
    for p in ([Fraction(-2), Fraction(0), Fraction(1)], [Fraction(c) for c in (4, 0, -4, 0, 1)]):
        assert sign_at_largest_root(p, [Fraction(-1414213562, 10**9), Fraction(1)], half, hi) == 1
        assert sign_at_largest_root(p, [Fraction(-1414213563, 10**9), Fraction(1)], half, hi) == -1
    # the first bisection point of (0, 4] is a root of p below lambda = 3
    p, zero, four = _poly(1, 2, 3), Fraction(0), Fraction(4)
    assert [sign_at_largest_root(p, _poly(r), zero, four) for r in (2, 3, Fraction(7, 2))] == [1, 0, -1]
    assert sign_at_largest_root(p, [Fraction(0)], zero, four) == 0
    assert sign_at_largest_root(p, [Fraction(-7)], zero, four) == -1


def test_sign_at_lambda():
    k3 = build_graph(3, [(0, 1), (0, 2), (1, 2)])  # lambda = 2
    assert sign_at_lambda(k3, [-2, 0, 1]) == 1
    assert sign_at_lambda(k3, [-4, 0, 1]) == 0
    assert sign_at_lambda(k3, [Fraction(-5), Fraction(0), Fraction(1)]) == -1
    empty = build_graph(4, [])  # lambda = 0
    assert [sign_at_lambda(empty, q) for q in ([-1, 1], [0, 1], [1, 1])] == [-1, 0, 1]
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randrange(2, 8)
        g = build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5])
        lo, hi = lambda_interval_exact(g)
        for k in (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)):
            s = sign_at_lambda(g, [-k, 1])  # sign of lambda - k
            if lo > k:
                assert s == 1
            elif hi < k:
                assert s == -1


def test_poly_eval():
    p = [Fraction(1), Fraction(2), Fraction(3)]  # 3x^2 + 2x + 1
    assert poly_eval(p, Fraction(2)) == 17


def _safe_mid(lo: Fraction, hi: Fraction) -> Fraction:
    mid = (lo + hi) / 2
    if mid.denominator == 1:
        mid += (hi - lo) / 4
        if mid.denominator == 1:
            mid += Fraction(1, 8)
    return mid


def _sturm_bisection_reference(p, lo, hi, tol):
    """The earlier engine: Sturm bisection on p's own chain all the way down
    to tol, with midpoints kept off the integers (the only rational roots of
    a monic integer polynomial)."""
    chain = sturm_chain(p)
    assert count_roots(chain, lo, hi) >= 1
    while hi - lo > tol:
        mid = _safe_mid(lo, hi)
        if count_roots(chain, mid, hi) >= 1:
            lo = mid
        else:
            hi = mid
    return lo, hi


@settings(max_examples=25, deadline=None)
@given(_symmetric_matrices(1, 12, 1), st.sampled_from([Fraction(1, 10**12), Fraction(1, 10**4)]))
def test_largest_root_interval_matches_sturm_bisection(A, tol):
    n = len(A)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if A[i][j]]
    double = edges + [(u + n, v + n) for u, v in edges]  # lambda becomes a repeated root
    for g in (build_graph(n, edges), build_graph(2 * n, double)):
        if g.m == 0:
            continue
        p = [Fraction(c) for c in charpoly_exact(g)]
        lo, hi = largest_root_interval(p, *_bracket(g.n), tol)
        rlo, rhi = _sturm_bisection_reference(p, *_bracket(g.n), tol)
        lam = float(np.linalg.eigvalsh(adjacency_matrix(g).astype(float))[-1])
        assert max(lo, rlo) <= min(hi, rhi)
        assert float(lo) - 1e-9 <= lam <= float(hi) + 1e-9
        assert 0 <= hi - lo <= tol
