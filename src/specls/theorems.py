"""One verifier per theorem/lemma: hypothesis + conclusion on a concrete graph.

Every verifier returns a TheoremVerdict built by `_verdict`, the one place
that decides whether a verdict shows its reason: exactly when the hypothesis
or the conclusion is undecided (None). Combinatorial quantities (edge and
triangle counts, degrees) enter margins as exact integers or rationals.
Every relation involving lambda is decided on the one ladder of
`spectral._decide` (directly, or through `compare_lambda` and the
`certify_lambda_*` thresholds): exact lambda^2 for regular and complete
bipartite graphs, which settles their equality cases, then certified
enclosures of tightening width. Where the ladder ties, only the exact
characteristic-polynomial oracle may still decide, for small graphs; no
isomorphism test or float tolerance stands in for a proof. The Perron-vector
lemmas (X_MASS and the structural audit) read one enclosure's vector. A
verifier never claims a counterexample unless the hypothesis is certified
true and the conclusion certified false.

FAR_BIP_SUPERSAT, TRI_EFFI and the structural audit read the cut of
`triangles.bipartite_distance` by one rule, `_on_cut`: each claim is that
some bipartition satisfies it, so the cut's partition proves it by
satisfying it, and refutes it by failing only when the cut is exact.

WILF and NIKIFOROV_M share one clique-threshold body. The structural audit
lists its eight gated lemmas as rows (id, conclusion, margins) and builds
them all by one expression under the standing gate. `verify_by_id` looks a
theorem id up in `_VERIFIERS`, which maps it to its verifier and that
verifier's parameter names with their defaults.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Callable, Optional

from .families import (
    Construction,
    embed_into_turan2,
    small_clique,
    small_complete_bipartite,
    small_cycle,
    small_matching,
    small_path,
    small_star,
    t_n2q,
    y_n2q,
)
from .graph import Graph, bits, components, cut_stats, induced, is_complete_bipartite, is_connected
from .morphism import are_isomorphic
from .roots import sign_at_lambda
from .spectral import (
    Interval,
    Ordering,
    SpectralCertificate,
    _decide,
    certified,
    certify_lambda_ge_frac,
    certify_lambda_ge_sqrt,
    certify_lambda_le_frac,
    certify_lambda_le_sqrt,
    compare_lambda,
    perron_enclosure,
)
from .triangles import BipartiteDistance, bipartite_distance, degree_square_sum, tau3
from .triangles import triangle_count
from .verdicts import TheoremVerdict


def _floor_q(n: int) -> int:
    return n * n // 4


def _verdict(
    theorem_id: str,
    hyp: Optional[bool],
    concl: Optional[bool],
    margins: dict[str, Any],
    witness: Optional[dict[str, Any]],
    params: dict[str, Any],
    why: Optional[str] = None,
) -> TheoremVerdict:
    """A verdict that gives the reason `why` exactly when its hypothesis or
    its conclusion is undecided (None); a refusal has both undecided."""
    reason = why if hyp is None or concl is None else None
    return TheoremVerdict(theorem_id, hyp, concl, margins, witness, reason, params)


def _on_cut(dist: BipartiteDistance, satisfied: bool) -> Optional[bool]:
    """A claim that some bipartition satisfies, tested on the cut of `dist`:
    proved when that partition satisfies it, refuted when it fails on the
    exact max cut, and open when it fails on a local-search cut."""
    return True if satisfied else False if dist.exact else None


def is_turan2(g: Graph) -> bool:
    # in K_{a,b} the row of vertex 0 is the whole other part
    return is_complete_bipartite(g) and abs(g.n - 2 * g.rows[0].bit_count()) <= 1


CLIQUE_EXACT_LIMIT = 6


def has_clique(g: Graph, k: int) -> bool:
    """Exact K_k detection via ascending branch enumeration."""
    if k <= 0:
        return True
    if k == 1:
        return g.n >= 1
    rows = g.rows

    def rec(cand: int, need: int) -> bool:
        if need == 0:
            return True
        while cand:
            if cand.bit_count() < need:
                return False
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            if rec(cand & rows[v], need - 1):
                return True
        return False

    return rec(g.full_mask(), k)


# ---------------------------------------------------------------------------
# Edge-count supersaturation checks.
# ---------------------------------------------------------------------------


def check_mantel(g: Graph) -> TheoremVerdict:
    t = triangle_count(g)
    excess = g.m - _floor_q(g.n)
    return _verdict("MANTEL", excess > 0, t >= 1, {"edge_excess": excess, "t": t}, None,
                    {"n": g.n, "m": g.m})


def check_er_rad(g: Graph) -> TheoremVerdict:
    n = g.n
    t = triangle_count(g)
    bound = n // 2
    hyp = g.m >= _floor_q(n) + 1
    witness = _equality_witness(g, 1) if hyp and t == bound else None
    return _verdict("ER_RAD", hyp, t >= bound,
                    {"t_margin": t - bound, "edge_excess": g.m - _floor_q(n)}, witness,
                    {"n": n, "m": g.m})


def check_ls(g: Graph, q: int) -> TheoremVerdict:
    n = g.n
    t = triangle_count(g)
    hyp = 1 <= q and 2 * q < n and g.m >= _floor_q(n) + q
    bound = q * (n // 2)
    return _verdict("LS", hyp, t >= bound,
                    {"t_margin": t - bound, "edge_excess": g.m - _floor_q(n)}, None,
                    {"n": n, "q": q, "m": g.m})


# ---------------------------------------------------------------------------
# Spectral-condition counting checks.
# ---------------------------------------------------------------------------


def check_ning_zhai(g: Graph) -> TheoremVerdict:
    n = g.n
    t = triangle_count(g)
    hyp = certify_lambda_ge_sqrt(g, _floor_q(n))
    bound = n // 2 - 1
    exception = is_turan2(g)
    return _verdict("NING_ZHAI", hyp, t >= bound or exception, {"t_margin": t - bound},
                    {"turan_exception": exception} if exception else None, {"n": n, "m": g.m},
                    why="lambda comparison with the bipartite Turan value undecided")


def _hyp_lambda_ge_construction(g: Graph, ref: Construction) -> tuple[Optional[bool], str, Ordering]:
    """Certified lambda(G) >= lambda(ref), with graph equality short-cut, and
    the ordering read (Tie for the identical graph, as `compare_lambda` gives)."""
    h = ref.graph
    if g.n == h.n and g.rows == h.rows:
        return True, "identical graph", Ordering.TIE
    order = compare_lambda(g, h)
    ok = certified(order, Ordering.GREATER)
    how = "certified" if ok is not None else "comparison returned"
    return ok, f"{how} {order.value}", order


def _check_spec_ls(
    theorem_id: str, g: Graph, q: int, reference: Callable[[int, int], Construction], unique: bool
) -> TheoremVerdict:
    """lambda(G) >= lambda(reference) forces t(G) >= q*floor(n/2) for n >= 300q^2;
    a unique extremal reference also gets the equality case checked."""
    n = g.n
    t = triangle_count(g)
    bound = q * (n // 2)
    margins, params = {"t_margin": t - bound}, {"n": n, "q": q}
    if q < 1 or n < 300 * q * q:
        return _verdict(theorem_id, False, t >= bound, margins, None, params)
    lam_ok, how, _ = _hyp_lambda_ge_construction(g, reference(n, q))
    witness = {"lambda_route": how}
    if unique and lam_ok and t == bound:
        witness.update(_equality_witness(g, q))
    return _verdict(theorem_id, lam_ok, t >= bound, margins, witness, params, why=how)


def check_spec_ls_y(g: Graph, q: int) -> TheoremVerdict:
    return _check_spec_ls("SPEC_LS_Y", g, q, y_n2q, False)


def check_spec_ls_t(g: Graph, q: int) -> TheoremVerdict:
    return _check_spec_ls("SPEC_LS_T", g, q, t_n2q, True)


def check_spec_bc(g: Graph, s: int) -> TheoremVerdict:
    n = g.n
    t = triangle_count(g)
    params = {"n": n, "s": s}
    bound = Fraction(s * n, 2) - 5 * s * s
    concl = Fraction(t) >= bound
    margins = {"t_margin": Fraction(t) - bound}
    lam_ok = n >= 113 * s * s and certify_lambda_ge_sqrt(g, _floor_q(n))
    # n < 113 s^2, or lambda undecided or certified below: no exponential tau3 search
    if not lam_ok:
        return _verdict("SPEC_BC", lam_ok, concl, margins, None, params,
                        why="lambda comparison undecided")
    try:
        tau, cover = tau3(g)
    except ValueError as exc:
        return _verdict("SPEC_BC", None, concl, margins, None, params, why=str(exc))
    margins["tau3_margin"] = tau - s
    return _verdict("SPEC_BC", tau >= s, concl, margins, {"tau3": tau, "cover": cover}, params)


# ---------------------------------------------------------------------------
# The cubic spectral triangle bound and its relatives.
# ---------------------------------------------------------------------------

_BN_EXACT_LIMIT = 16


def bn_relation_poly(g: Graph) -> list[int]:
    """q(x) = x^3 - m x - 3t, with q(lambda) < 0 <=> t > lambda(lambda^2 - m)/3."""
    return [-3 * triangle_count(g), -g.m, 0, 1]


def bn_relation_exact(g: Graph) -> int:
    """Exact sign of t - lambda(lambda^2 - m)/3: +1 strict, 0 equality,
    -1 violation. Uses the integer charpoly, so only sensible for small n."""
    return -sign_at_lambda(g, bn_relation_poly(g))


def _bn_holds(m: int, t: int, iv: Interval) -> Optional[bool]:
    """Test of t >= lambda(lambda^2 - m)/3 on an enclosure iv of s = lambda^2.

    sqrt(s)(s - m)/3 is <= 0 for s <= m and increasing for s > m, so the
    bound holds on the whole enclosure when its top does, and fails on the
    whole enclosure when its bottom exceeds m and fails; squared, that is
    s(s - m)^2 against 9t^2, in exact rationals.
    """
    lo, hi = iv
    if hi <= m or hi * (hi - m) ** 2 <= 9 * t * t:
        return True
    if lo > m and lo * (lo - m) ** 2 > 9 * t * t:
        return False
    return None


def check_bn(g: Graph) -> TheoremVerdict:
    n, m = g.n, g.m
    t = triangle_count(g)
    params = {"n": n, "m": m}
    if m == 0:
        return _verdict("BN_INEQ", True, True, {"gap": (0.0, 0.0)},
                        {"equality_case": t == 0, "complete_bipartite": is_complete_bipartite(g)},
                        params)
    tested: list[Interval] = []

    def test(iv: Interval) -> Optional[bool]:
        tested.append(iv)
        return _bn_holds(m, t, iv)

    answer = _decide(test, g)
    lo, hi = tested[-1]
    # for display: lambda(lambda^2 - m) = sqrt(s)(s - m), bracketed by
    # interval multiplication over the last rung tested
    ends = [r * (s - m) / 3 for r in (math.sqrt(lo), math.sqrt(hi)) for s in (lo, hi)]
    margins = {"gap": (t - max(ends), t - min(ends))}
    method = reason = None
    if isinstance(answer, bool):
        concl: Optional[bool] = answer
        if lo == hi and lo >= m and lo * (lo - m) ** 2 == 9 * t * t:
            method = "exact lambda^2"
    elif n <= _BN_EXACT_LIMIT:
        sign = bn_relation_exact(g)
        concl = sign >= 0
        if sign == 0:
            method = "exact charpoly"
    else:
        concl = None
        reason = f"lambda ladder returned {answer.value} and n > {_BN_EXACT_LIMIT}"
    witness = None if method is None else {
        "equality_case": True, "complete_bipartite": is_complete_bipartite(g), "method": method,
    }
    return _verdict("BN_INEQ", True, concl, margins, witness, params, why=reason)


def check_moon_moser(g: Graph) -> TheoremVerdict:
    n, m = g.n, g.m
    t = triangle_count(g)
    if n == 0:
        return _verdict("MOON_MOSER", True, True, {}, None, {"n": 0})
    bound = Fraction(4 * m, 3 * n) * (Fraction(m) - Fraction(n * n, 4))
    return _verdict("MOON_MOSER", True, Fraction(t) >= bound, {"t_margin": Fraction(t) - bound},
                    None, {"n": n, "m": m})


def check_far_supersat(g: Graph) -> TheoremVerdict:
    n, m = g.n, g.m
    t = triangle_count(g)
    dist = bipartite_distance(g)
    eps = dist.epsilon
    # the bound grows with epsilon, the fewest intra edges over all partitions,
    # so a partition whose intra edges meet it proves it
    bound = Fraction(n, 6) * (Fraction(m + eps) - Fraction(n * n, 4))
    return _verdict("FAR_BIP_SUPERSAT", True, _on_cut(dist, Fraction(t) >= bound),
                    {"t_margin": Fraction(t) - bound, "epsilon": eps},
                    {"partition_S": dist.witness.S}, {"n": n, "m": m},
                    why="epsilon only bounded heuristically at this size")


def check_tri_effi(g: Graph, k: int) -> TheoremVerdict:
    n = g.n
    t = triangle_count(g)
    half = Fraction(n, 2)
    # three-valued AND: an undecided lambda test leaves the hypothesis open
    hyp = certify_lambda_ge_frac(g, half) and Fraction(t) <= Fraction(k * n, 2)
    degs = g.degrees() or [0]
    margins: dict = {
        "t_slack": Fraction(k * n, 2) - t,
        # clause (i): enough edges; clause (iii): the degree window
        "edge_margin": Fraction(g.m) - (Fraction(n * n, 4) - 3 * k),
        "min_degree_margin": Fraction(min(degs)) - (half - 12 * k),
        "max_degree_margin": (half + 9 * k) - max(degs),
    }
    # a failed clause (i) or (iii) decides, whatever the cut gives
    clauses_i_iii = min(margins["edge_margin"], margins["min_degree_margin"],
                        margins["max_degree_margin"]) >= 0
    # clause (ii): a partition with |n/2 - |S|| <= 3 sqrt(k) and at least
    # n^2/4 - 9k cross edges. A side of size a carries at most
    # a(n - a) = n^2/4 - (n/2 - a)^2 cross edges, so any partition that
    # reaches n^2/4 - 9k has the required sizes: the clause is max cut >= that.
    need_cross = Fraction(n * n, 4) - 9 * k
    dist = bipartite_distance(g)
    cut = g.m - dist.epsilon
    cii = _on_cut(dist, cut >= need_cross)
    margins["cross_margin"] = cut - need_cross
    return _verdict("TRI_EFFI", hyp, clauses_i_iii and cii, margins,
                    {"partition_S": dist.witness.S} if cii else None, {"n": n, "k": k},
                    why="lambda >= n/2 undecided" if hyp is None
                    else "exact max cut unavailable for clause (ii)")


# ---------------------------------------------------------------------------
# Clique thresholds and the sqrt(m) regime.
# ---------------------------------------------------------------------------


def _check_clique_threshold(
    theorem_id: str, g: Graph, r: int, scale: int,
    certify: Callable[[Graph, Fraction], Optional[bool]], margin_key: str, params: dict,
) -> TheoremVerdict:
    """No K_{r+1} forces certify(G, (1 - 1/r) scale): lambda <= (1 - 1/r) n
    (WILF, scale n) or lambda^2 <= (1 - 1/r) 2m (NIKIFOROV_M, scale 2m)."""
    if r < 1:
        raise ValueError("need r >= 1")
    if r + 1 > CLIQUE_EXACT_LIMIT:
        return _verdict(theorem_id, None, None, {}, None, params,
                        why=f"clique detection exact only up to K_{CLIQUE_EXACT_LIMIT}")
    hyp = not has_clique(g, r + 1)
    bound = Fraction((r - 1) * scale, r)
    return _verdict(theorem_id, hyp, certify(g, bound), {margin_key: bound}, None, params,
                    why="lambda comparison undecided")


def check_wilf(g: Graph, r: int) -> TheoremVerdict:
    return _check_clique_threshold("WILF", g, r, g.n, certify_lambda_le_frac, "bound",
                                   {"n": g.n, "r": r})


def check_nikiforov_m(g: Graph, r: int) -> TheoremVerdict:
    return _check_clique_threshold("NIKIFOROV_M", g, r, 2 * g.m, certify_lambda_le_sqrt,
                                   "bound_sq", {"n": g.n, "r": r, "m": g.m})


def _floor_half_sqrt_minus1(m: int) -> int:
    """floor((sqrt(m)-1)/2) exactly: the largest k with (2k+1)^2 <= m."""
    if m < 1:
        return 0
    return max(0, (math.isqrt(m) - 1) // 2)


def check_nosal_nz(g: Graph) -> TheoremVerdict:
    m = g.m
    t = triangle_count(g)
    hyp = certify_lambda_ge_sqrt(g, m)
    cb = is_complete_bipartite(g)
    bound = _floor_half_sqrt_minus1(m)
    return _verdict("NOSAL_NZ", hyp, t >= bound or cb,
                    {"t_margin": t - bound, "triangle_free": t == 0},
                    {"complete_bipartite_exception": cb} if cb else None, {"n": g.n, "m": m},
                    why="lambda vs sqrt(m) undecided")


def check_deg_sq(g: Graph) -> TheoremVerdict:
    m = g.m
    margin = m * m + m - degree_square_sum(g)
    witness = None
    if margin == 0 and g.n > 0:
        witness = {"equality_case": True, "shape": _deg_sq_equality_shape(g)}
    return _verdict("DEG_SQ", True, margin >= 0, {"margin": margin}, witness, {"n": g.n, "m": m})


def _deg_sq_equality_shape(g: Graph) -> str:
    core = [v for v in range(g.n) if g.degree(v) > 0]
    if not core:
        return "empty"
    h = induced(g, sum(1 << v for v in core))
    degs = sorted(h.degrees())
    if h.m == h.n - 1 and degs[-1] == h.n - 1:
        return "star_plus_isolated"
    if h.n == 3 and h.m == 3:
        return "triangle_plus_isolated"
    return "other"


# ---------------------------------------------------------------------------
# Embedding order of lambda over equal-size embeddings.
# ---------------------------------------------------------------------------


def _embed_candidates(q: int) -> list[tuple[str, Graph]]:
    out = [("star", small_star(q))]
    c = next((c for c in range(2, q + 2) if c * (c - 1) // 2 == q), None)
    if c is not None:
        out.append(("clique", small_clique(c)))
    ab = [(a, q // a) for a in range(2, q + 1) if q % a == 0 and q // a >= a]
    if ab:
        a, b = max(ab, key=lambda p: p[0])
        out.append(("complete_bipartite", small_complete_bipartite(a, b)))
    if q >= 3:
        out.append(("cycle", small_cycle(q)))
    out.append(("path", small_path(q)))
    out.append(("matching", small_matching(q)))
    return out


def check_embed_order(n: int, q: int) -> TheoremVerdict:
    """Certified strict decrease of lambda along the embedding order
    star, clique, complete bipartite, cycle, path, matching (q edges each),
    each embedded in the larger part of T_{n,2}.

    The chain is a claimed order, not a theorem, and each adjacent pair is
    certified on its own. At q=3 the star>clique pair is certified reversed:
    K_3 and K_{1,3} have equal sums of squared degrees, so the second-order
    terms of lambda tie, and the triangle of K_3 decides in its favour. The
    paper's extremal result (T_{n,2,q} is the unique maximiser) covers only
    embeddings that keep t <= q*floor(n/2), i.e. triangle-free H; T + K_3
    has q*floor(n/2) + 1 triangles.

    Entries that do not fit the part are skipped; entries isomorphic to an
    earlier one (clique=cycle at q=3, complete bipartite=cycle at q=4)
    collapse into the earlier position.
    """
    kept: list[tuple[str, Graph]] = []
    skipped = []
    for name, h in _embed_candidates(q):
        if h.m != q:
            raise AssertionError(f"embedding {name} has {h.m} edges, wanted {q}")
        if h.n > (n + 1) // 2:
            skipped.append((name, "does not fit"))
            continue
        if any(are_isomorphic(h, h2) for _, h2 in kept):
            skipped.append((name, "duplicate of an earlier entry"))
            continue
        kept.append((name, h))
    orders = {}
    decided = []
    for (name_a, ha), (name_b, hb) in zip(kept, kept[1:]):
        ga = embed_into_turan2(n, ha).graph
        gb = embed_into_turan2(n, hb).graph
        order = compare_lambda(ga, gb)
        orders[f"{name_a}>{name_b}"] = order.value
        decided.append(certified(order, Ordering.GREATER))
    # a certified violation anywhere decides, whatever refused elsewhere
    ok = False if False in decided else None if None in decided else True
    chain = [name for name, _ in kept]
    return _verdict("EMBED_ORDER", True, ok, orders, {"chain": chain, "skipped": skipped},
                    {"n": n, "q": q, "side": "larger"}, why="a comparison refused to certify")


# ---------------------------------------------------------------------------
# Structural audit of the few-triangles/high-lambda regime.
# ---------------------------------------------------------------------------


def _detect_turan2_star(g: Graph) -> Optional[tuple[int, int, int]]:
    """Recognize T_{n,2} plus one star embedded in a part.

    Returns (S_mask, center, q) where S is the part containing the star.
    Candidate parts come from two routes: the complement of a plain star-part
    vertex's neighborhood (its neighbors are exactly the other part), or,
    when the star fills its part, the complement of a leaf's neighborhood
    with the center added back.
    """
    n = g.n
    q_guess = g.m - _floor_q(n)
    if q_guess < 1 or n < 2:
        return None
    full = g.full_mask()
    degs = g.degrees()
    candidates: list[int] = []
    for u in range(n):
        candidates.append(full & ~g.rows[u])
    cmax = max(range(n), key=lambda v: (degs[v], -v))
    for u in bits(g.rows[cmax]):
        candidates.append((full & ~g.rows[u]) | (1 << cmax))
    seen = set()
    for S in candidates:
        if S in seen or S == 0 or S == full:
            continue
        seen.add(S)
        eS, eT, eST = cut_stats(g, S)
        a, b = S.bit_count(), n - S.bit_count()
        if eT != 0 or eST != a * b or eS != q_guess:
            continue
        star = induced(g, S)
        sd = star.degrees()
        if star.m == q_guess and max(sd) == q_guess:
            members = list(bits(S))
            center = members[sd.index(max(sd))]
            return S, center, q_guess
    return None


def is_t_n2q(g: Graph, q: int) -> bool:
    """Exact recognition of T_{n,2,q} at any n: G is T_{n,2} plus a q-edge
    star in a part of ceil(n/2) vertices."""
    det = _detect_turan2_star(g)
    return det is not None and det[2] == q and det[0].bit_count() == (g.n + 1) // 2


def _equality_witness(g: Graph, q: int) -> dict:
    """Witness of an equality case t = q*floor(n/2): is G the extremal T_{n,2,q}?"""
    return {"equality_case": True, "matches_extremal": is_t_n2q(g, q), "method": "structural"}


def check_x_mass(g: Graph, cert: Optional[SpectralCertificate] = None) -> TheoremVerdict:
    """Perron-mass bracket for the star-free part of T_{n,2} plus a star;
    `cert`, if given, is G's enclosure at tol 1e-11."""
    n = g.n
    det = _detect_turan2_star(g)
    params = {"n": n}
    if det is None or n % 2 != 0:
        return _verdict("X_MASS", False, None, {}, None, params,
                        why="graph is not an even-order bipartite Turan graph plus one star")
    S, center, q = det
    params["q"] = q
    if cert is None:
        cert = perron_enclosure(g, 1e-11)
    y = cert.perron
    y_V = sum(y)
    y_T = sum(y[v] for v in range(n) if not S >> v & 1)
    size_s = S.bit_count()
    lam_lo, lam_hi = cert.lambda_lo, cert.lambda_hi
    if lam_lo <= q:
        return _verdict("X_MASS", None, None, {}, None, params,
                        why="enclosure too wide (lambda <= q)")
    lb = min(
        lam * y_V / (lam + size_s + 2 * q / (lam - q)) for lam in (lam_lo, lam_hi)
    )
    ub = max(lam * y_V / (lam + size_s + 2 * q / lam) for lam in (lam_lo, lam_hi))
    slack = n * (cert.residual + cert.width)
    concl = lb - slack <= y_T <= ub + slack
    return _verdict("X_MASS", True, concl, {"bracket": (lb, ub), "y_T": y_T, "slack": slack},
                    {"star_center": center, "star_part": S}, params)


def _component_star_or_c4(h: Graph, comp: int) -> bool:
    k = comp.bit_count()
    if k == 1:
        return True
    sub = induced(h, comp)
    degs = sorted(sub.degrees())
    if sub.m == k - 1 and degs[-1] == k - 1:
        return True  # star
    return k == 4 and sub.m == 4 and degs == [2, 2, 2, 2]


def check_structural_lemmas(g: Graph, q: int) -> list[TheoremVerdict]:
    """Audit the chain of structural facts used in the few-triangles regime.

    The standing hypothesis gate is: n >= 300q^2, certified
    lambda(G) >= lambda(Y_{n,2,q}), and t(G) < q*floor(n/2). The partition
    (S,T) is the cut of `bipartite_distance`; the partition lemmas are
    existential in the partition and read through `_on_cut`.
    """
    n = g.n
    t = triangle_count(g)
    params = {"n": n, "q": q}
    try:
        lam_ok, lam_how, order = _hyp_lambda_ge_construction(g, y_n2q(n, q))
    except ValueError as exc:
        lam_ok, lam_how, order = False, str(exc), None
    # three-valued AND: a failed size or count gate decides, whatever lambda gives
    gate = n >= 300 * q * q and q >= 1 and t < q * (n // 2) and lam_ok

    dist = bipartite_distance(g)
    w = dist.witness
    a, b = w.S.bit_count(), w.T.bit_count()
    intra = w.eS + w.eT

    degs = g.degrees() or [0]
    min_margin = Fraction(min(degs)) - (Fraction(n, 2) - 4 * q)
    dmax = Fraction(max(degs)) - Fraction(n, 2) - q  # must be <= 2 sqrt(q)
    cert = perron_enclosure(g, 1e-11)
    slack = 4.0 * cert.residual + cert.width
    floor_bound = 1 - 30 * q / n if n else 0.0
    xmin = min(cert.perron) if cert.perron else 0.0
    entry_ok = (True if xmin - slack > floor_bound
                else False if xmin + slack <= floor_bound else None)
    gap: tuple = (None, {}, "needs n > 60q")
    if n > 60 * q:
        lhs = Fraction(2 * _floor_q(n), n)
        rhs = Fraction(120 * q * q, n * (n - 60 * q))
        d = lhs - rhs  # require d <= sqrt(a*b)
        gap = (_on_cut(dist, d <= 0 or d * d <= a * b),
               {"lhs": lhs, "rhs_bound": rhs, "part_product": a * b}, None)
    below = None if order is None else certified(order, Ordering.LESS)
    comps_ok = all(
        comp.bit_count() < 2 or _component_star_or_c4(sub, comp)
        for sub in (induced(g, w.S), induced(g, w.T)) for comp in components(sub)
    )
    # id, hypothesis besides the gate, conclusion, margins, and the reason
    # once the gate is decided (while it is undecided, the gate's stands)
    lemmas = [
        # |part size - n/2| < 3 sqrt(q), checked as (n/2 - a)^2 < 9q, exactly
        ("PART_INTRA_LT_6Q", True, _on_cut(dist,
            intra < 6 * q and Fraction(w.eST) > Fraction(n * n, 4) - 9 * q
            and (Fraction(n, 2) - a) ** 2 < 9 * q
        ), {"intra": intra, "cross": w.eST, "sizes": (a, b)}, None),
        ("PART_INTRA_LE_Q", True, _on_cut(dist, intra <= q), {"intra_margin": q - intra}, None),
        ("MIN_DEGREE_HALF", True, min_margin >= 0 and (dmax <= 0 or dmax * dmax <= 4 * q),
         {"min_degree_margin": min_margin}, None),
        ("PERRON_ENTRY_FLOOR", True, entry_ok,
         {"min_entry": xmin, "bound": floor_bound, "slack": slack},
         "residual slack straddles the bound"),
        ("PART_PRODUCT_GAP", True, *gap),
        ("PART_BALANCED", True, _on_cut(dist, abs(a - b) <= 1), {"imbalance": abs(a - b)}, None),
        # lambda < lambda(Y) under the additional edge-deficit hypothesis
        ("LAMBDA_BELOW_Y", g.m <= _floor_q(n) + q - 1, below,
         {"edge_deficit": _floor_q(n) + q - 1 - g.m},
         lam_how if order is None else f"comparison returned {order.value}"),
        # embedded components are stars or 4-cycles
        ("STAR_OR_C4", w.eST == a * b, comps_ok, {"intra": intra}, None),
    ]
    return [
        _verdict(theorem_id, gate and also, concl, margins, None, params,
                 why=lam_how if gate is None else why)
        for theorem_id, also, concl, margins, why in lemmas
    ] + [check_x_mass(g, cert)]


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
    if not is_connected(g):
        return _verdict("ROTATION", False, None, {}, None, params, why="graph is disconnected")
    if W == 0:
        return _verdict("ROTATION", False, False,
                        {"note": "empty rotation leaves the graph unchanged"},
                        {"degenerate": True}, params)
    cert = perron_enclosure(g, 1e-10)
    margin = cert.perron[u] - cert.perron[v]
    slack = 4.0 * cert.residual + cert.width
    rows = list(g.rows)
    for w in bits(W):
        rows[v] &= ~(1 << w)
        rows[w] &= ~(1 << v)
        rows[u] |= 1 << w
        rows[w] |= 1 << u
    order = compare_lambda(Graph(g.n, tuple(rows), g.m), g)
    return _verdict("ROTATION", bool(margin >= -slack), certified(order, Ordering.GREATER),
                    {"perron_margin": margin, "perron_slack": slack}, None, params,
                    why=f"comparison returned {order.value}")


# ---------------------------------------------------------------------------
# Dispatch for the CLI.
# ---------------------------------------------------------------------------

# theorem id -> (verifier, its parameters after the graph, with their defaults)
_VERIFIERS: dict[str, tuple[Callable[..., Any], dict[str, int]]] = {
    "MANTEL": (check_mantel, {}),
    "ER_RAD": (check_er_rad, {}),
    "LS": (check_ls, {"q": 1}),
    "NING_ZHAI": (check_ning_zhai, {}),
    "SPEC_LS_Y": (check_spec_ls_y, {"q": 1}),
    "SPEC_LS_T": (check_spec_ls_t, {"q": 1}),
    "SPEC_BC": (check_spec_bc, {"s": 1}),
    "BN_INEQ": (check_bn, {}),
    "MOON_MOSER": (check_moon_moser, {}),
    "FAR_BIP_SUPERSAT": (check_far_supersat, {}),
    "TRI_EFFI": (check_tri_effi, {"k": 1}),
    "WILF": (check_wilf, {"r": 2}),
    "NIKIFOROV_M": (check_nikiforov_m, {"r": 2}),
    "NOSAL_NZ": (check_nosal_nz, {}),
    "DEG_SQ": (check_deg_sq, {}),
    "X_MASS": (check_x_mass, {}),
    "STRUCTURAL": (check_structural_lemmas, {"q": 1}),
}


def verify_by_id(theorem_id: str, g: Graph, params: dict) -> list[TheoremVerdict]:
    """Run one graph-level verifier; each of its parameters is read from
    `params`, or else takes the table's default."""
    if theorem_id not in _VERIFIERS:
        raise ValueError(f"no graph-level verifier for theorem id {theorem_id!r}")
    verify, defaults = _VERIFIERS[theorem_id]
    out = verify(g, **{name: params.get(name, default) for name, default in defaults.items()})
    return out if isinstance(out, list) else [out]
