"""One verifier per theorem/lemma: hypothesis + conclusion on a concrete graph.

Every verifier returns a TheoremVerdict. Combinatorial quantities (edge and
triangle counts, degrees) enter margins as exact integers or rationals;
spectral quantities enter as certified outward-rounded intervals, with
equality cases resolved through the exact side channels (regular graphs,
complete bipartite graphs) or, for small graphs, through the exact
characteristic-polynomial oracle. A verifier never claims a counterexample
unless the hypothesis is certified true and the conclusion certified false.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

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
from .graph import Graph, bits, components, cut_stats, induced, is_bipartite, is_complete_bipartite
from .morphism import are_isomorphic, same_graph
from .roots import charpoly_exact, sign_at_largest_root
from .spectral import (
    Ordering,
    certify_lambda_ge_frac,
    certify_lambda_ge_sqrt,
    certify_lambda_le_frac,
    certify_lambda_le_sqrt,
    compare_lambda,
    perron_enclosure,
)
from .triangles import EXACT_CUT_LIMIT, bipartite_distance, max_cut_exact, tau3, triangle_count
from .verdicts import TheoremVerdict


def _floor_q(n: int) -> int:
    return n * n // 4


def is_turan2(g: Graph) -> bool:
    if not is_complete_bipartite(g):
        return False
    w = is_bipartite(g)
    return abs(w.S.bit_count() - w.T.bit_count()) <= 1


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
    hyp = g.m > _floor_q(g.n)
    return TheoremVerdict(
        "MANTEL",
        hyp,
        t >= 1,
        {"edge_excess": g.m - _floor_q(g.n), "t": t},
        None,
        None,
        {"n": g.n, "m": g.m},
    )


def check_er_rad(g: Graph) -> TheoremVerdict:
    n = g.n
    t = triangle_count(g)
    bound = n // 2
    hyp = g.m >= _floor_q(n) + 1
    witness = None
    if hyp and t == bound:
        ref = t_n2q(n, 1).graph
        equal, method = same_graph(g, ref)
        witness = {"equality_case": True, "matches_extremal": equal, "method": method}
    return TheoremVerdict(
        "ER_RAD",
        hyp,
        t >= bound,
        {"t_margin": t - bound, "edge_excess": g.m - _floor_q(n)},
        witness,
        None,
        {"n": n, "m": g.m},
    )


def check_ls(g: Graph, q: int) -> TheoremVerdict:
    n = g.n
    t = triangle_count(g)
    hyp = 1 <= q and 2 * q < n and g.m >= _floor_q(n) + q
    bound = q * (n // 2)
    return TheoremVerdict(
        "LS",
        hyp,
        t >= bound,
        {"t_margin": t - bound, "edge_excess": g.m - _floor_q(n)},
        None,
        None,
        {"n": n, "q": q, "m": g.m},
    )


# ---------------------------------------------------------------------------
# Spectral-condition counting checks.
# ---------------------------------------------------------------------------


def check_ning_zhai(g: Graph) -> TheoremVerdict:
    n = g.n
    t = triangle_count(g)
    hyp = certify_lambda_ge_sqrt(g, _floor_q(n))
    bound = n // 2 - 1
    exception = is_turan2(g)
    concl: Optional[bool] = t >= bound or exception
    reason = None
    if hyp is None:
        reason = "lambda comparison with the bipartite Turan value undecided"
    return TheoremVerdict(
        "NING_ZHAI",
        hyp,
        concl,
        {"t_margin": t - bound},
        {"turan_exception": exception} if exception else None,
        reason,
        {"n": n, "m": g.m},
    )


def _hyp_lambda_ge_construction(g: Graph, ref: Construction) -> tuple[Optional[bool], str]:
    """Certified lambda(G) >= lambda(ref), with graph equality short-cut."""
    h = ref.graph
    if g.n == h.n and g.rows == h.rows:
        return True, "identical graph"
    order = compare_lambda(g, h)
    if order is Ordering.GREATER:
        return True, "certified greater"
    if order is Ordering.LESS:
        return False, "certified less"
    if g.n <= 12 and are_isomorphic(g, h):
        return True, "isomorphic to reference"
    return None, f"comparison returned {order.value}"


def check_spec_ls_y(g: Graph, q: int) -> TheoremVerdict:
    n = g.n
    t = triangle_count(g)
    bound = q * (n // 2)
    params = {"n": n, "q": q}
    if q < 1 or n < 300 * q * q:
        return TheoremVerdict(
            "SPEC_LS_Y", False, t >= bound, {"t_margin": t - bound}, None, None, params
        )
    ref = y_n2q(n, q)
    lam_ok, how = _hyp_lambda_ge_construction(g, ref)
    hyp = lam_ok if lam_ok is not None else None
    return TheoremVerdict(
        "SPEC_LS_Y",
        hyp,
        t >= bound,
        {"t_margin": t - bound},
        {"lambda_route": how},
        None if hyp is not None else how,
        params,
    )


def check_spec_ls_t(g: Graph, q: int) -> TheoremVerdict:
    n = g.n
    t = triangle_count(g)
    bound = q * (n // 2)
    params = {"n": n, "q": q}
    if q < 1 or n < 300 * q * q:
        return TheoremVerdict(
            "SPEC_LS_T", False, t >= bound, {"t_margin": t - bound}, None, None, params
        )
    ref = t_n2q(n, q)
    lam_ok, how = _hyp_lambda_ge_construction(g, ref)
    witness = {"lambda_route": how}
    if lam_ok and t == bound:
        equal, method = same_graph(g, ref.graph)
        witness.update({"equality_case": True, "matches_extremal": equal, "method": method})
    return TheoremVerdict(
        "SPEC_LS_T",
        lam_ok,
        t >= bound,
        {"t_margin": t - bound},
        witness,
        None if lam_ok is not None else how,
        params,
    )


def check_spec_bc(g: Graph, s: int) -> TheoremVerdict:
    n = g.n
    t = triangle_count(g)
    params = {"n": n, "s": s}
    bound = Fraction(s * n, 2) - 5 * s * s
    concl = Fraction(t) >= bound
    margins = {"t_margin": Fraction(t) - bound}
    if n < 113 * s * s:
        return TheoremVerdict("SPEC_BC", False, concl, margins, None, None, params)
    lam_ok = certify_lambda_ge_sqrt(g, _floor_q(n))
    if lam_ok is None:
        return TheoremVerdict(
            "SPEC_BC", None, concl, margins, None, "lambda comparison undecided", params
        )
    try:
        tau, cover = tau3(g)
    except ValueError as exc:
        return TheoremVerdict("SPEC_BC", None, concl, margins, None, str(exc), params)
    margins["tau3_margin"] = tau - s
    hyp = bool(lam_ok) and tau >= s
    return TheoremVerdict(
        "SPEC_BC", hyp, concl, margins, {"tau3": tau, "cover": cover}, None, params
    )


# ---------------------------------------------------------------------------
# The cubic spectral triangle bound and its relatives.
# ---------------------------------------------------------------------------

_BN_EXACT_LIMIT = 16


def bn_relation_exact(g: Graph) -> int:
    """Exact sign of t - lambda(lambda^2 - m)/3: +1 strict, 0 equality,
    -1 violation. Uses the integer charpoly, so only sensible for small n."""
    t = triangle_count(g)
    if g.m == 0:
        return 0 if t == 0 else 1
    p = [Fraction(c) for c in charpoly_exact(g)]
    # sign of q(lambda) with q(x) = x^3 - m x - 3t; q(lambda) < 0 <=> t > rhs
    q = [Fraction(-3 * t), Fraction(-g.m), Fraction(0), Fraction(1)]
    s = sign_at_largest_root(p, q, Fraction(1, 2), Fraction(2 * g.n + 1, 2))
    return -s


def check_bn(g: Graph, tol_eq: float = 1e-9) -> TheoremVerdict:
    n, m = g.n, g.m
    t = triangle_count(g)
    params = {"n": n, "m": m}
    if m == 0:
        return TheoremVerdict(
            "BN_INEQ", True, True, {"gap": (0.0, 0.0)},
            {"equality_case": t == 0, "complete_bipartite": is_complete_bipartite(g)},
            None, params,
        )
    cert = perron_enclosure(g, 1e-11)
    lo, hi = Fraction(cert.lambda_lo), Fraction(cert.lambda_hi)
    lo = max(lo, Fraction(0))

    def rhs(x: Fraction) -> Fraction:
        return x * (x * x - m) / 3

    rhs_hi = max(rhs(lo), rhs(hi))
    rhs_lo = min(rhs(lo), rhs(hi))
    crit_sq = Fraction(m, 3)  # stationary point of x(x^2-m)/3 at sqrt(m/3)
    if lo * lo < crit_sq < hi * hi:
        from .spectral import sqrt_interval

        _, crit_hi = sqrt_interval(crit_sq, Fraction(1, 10**9))
        rhs_lo = min(rhs_lo, -2 * Fraction(m, 9) * crit_hi)
    gap_lo = float(Fraction(t) - rhs_hi)
    gap_hi = float(Fraction(t) - rhs_lo)
    margins = {"gap": (gap_lo, gap_hi)}
    witness: Optional[dict] = None
    if Fraction(t) >= rhs_hi:
        concl: Optional[bool] = True
        if gap_hi - gap_lo < tol_eq and gap_lo <= 0 <= gap_hi:
            witness = {
                "equality_case": True,
                "complete_bipartite": is_complete_bipartite(g),
            }
    elif Fraction(t) < rhs_lo:
        concl = False
    elif n <= _BN_EXACT_LIMIT:
        sign = bn_relation_exact(g)
        concl = sign >= 0
        if sign == 0:
            witness = {
                "equality_case": True,
                "complete_bipartite": is_complete_bipartite(g),
                "method": "exact charpoly",
            }
    else:
        concl = None
    return TheoremVerdict(
        "BN_INEQ",
        True,
        concl,
        margins,
        witness,
        None if concl is not None else "enclosure straddles the bound",
        params,
    )


def check_moon_moser(g: Graph) -> TheoremVerdict:
    n, m = g.n, g.m
    t = triangle_count(g)
    if n == 0:
        return TheoremVerdict("MOON_MOSER", True, True, {}, None, None, {"n": 0})
    bound = Fraction(4 * m, 3 * n) * (Fraction(m) - Fraction(n * n, 4))
    return TheoremVerdict(
        "MOON_MOSER",
        True,
        Fraction(t) >= bound,
        {"t_margin": Fraction(t) - bound},
        None,
        None,
        {"n": n, "m": m},
    )


def check_far_supersat(g: Graph, exact_limit: int = EXACT_CUT_LIMIT) -> TheoremVerdict:
    n, m = g.n, g.m
    t = triangle_count(g)
    params = {"n": n, "m": m}
    dist = bipartite_distance(g, exact_limit)
    if not dist.exact:
        return TheoremVerdict(
            "FAR_BIP_SUPERSAT", None, None, {}, None,
            "epsilon only bounded heuristically at this size", params,
        )
    eps = dist.epsilon
    bound = Fraction(n, 6) * (Fraction(m + eps) - Fraction(n * n, 4))
    return TheoremVerdict(
        "FAR_BIP_SUPERSAT",
        True,
        Fraction(t) >= bound,
        {"t_margin": Fraction(t) - bound, "epsilon": eps},
        {"partition_S": dist.witness.S},
        None,
        params,
    )


def check_tri_effi(g: Graph, k: int, exact_limit: int = EXACT_CUT_LIMIT) -> TheoremVerdict:
    n = g.n
    t = triangle_count(g)
    params = {"n": n, "k": k}
    hyp_lam = certify_lambda_ge_frac(g, Fraction(n, 2))
    hyp_t = Fraction(t) <= Fraction(k * n, 2)
    hyp = None if hyp_lam is None else (hyp_lam and hyp_t)
    margins: dict = {"t_slack": Fraction(k * n, 2) - t}
    # clause (i): enough edges
    ci = Fraction(g.m) >= Fraction(n * n, 4) - 3 * k
    margins["edge_margin"] = Fraction(g.m) - (Fraction(n * n, 4) - 3 * k)
    # clause (ii): a partition with |n/2 - |S|| <= 3 sqrt(k) and at least
    # n^2/4 - 9k cross edges. A side of size a carries at most
    # a(n - a) = n^2/4 - (n/2 - a)^2 cross edges, so any partition that
    # reaches n^2/4 - 9k has the required sizes: the clause is max cut >= that.
    need_cross = Fraction(n * n, 4) - 9 * k
    cii: Optional[bool] = None
    witness_mask = None
    if n <= exact_limit:
        cut, mask = max_cut_exact(g)
        margins["cross_margin"] = cut - need_cross
        cii = cut >= need_cross
        witness_mask = mask if cii else None
    else:
        margins["cross_margin"] = "unknown"
    # clause (iii): degree window
    degs = g.degrees() or [0]
    ciii = Fraction(min(degs)) >= Fraction(n, 2) - 12 * k and Fraction(
        max(degs)
    ) <= Fraction(n, 2) + 9 * k
    margins["min_degree_margin"] = Fraction(min(degs)) - (Fraction(n, 2) - 12 * k)
    margins["max_degree_margin"] = (Fraction(n, 2) + 9 * k) - max(degs)
    if cii is None:
        concl: Optional[bool] = False if not (ci and ciii) else None
        reason = "exact max cut unavailable for clause (ii)" if concl is None else None
    else:
        concl = ci and cii and ciii
        reason = None
    return TheoremVerdict(
        "TRI_EFFI",
        hyp,
        concl,
        margins,
        {"partition_S": witness_mask} if witness_mask is not None else None,
        reason if hyp is not None else "lambda >= n/2 undecided",
        params,
    )


# ---------------------------------------------------------------------------
# Clique thresholds and the sqrt(m) regime.
# ---------------------------------------------------------------------------


def check_wilf(g: Graph, r: int) -> TheoremVerdict:
    n = g.n
    params = {"n": n, "r": r}
    if r < 1:
        raise ValueError("need r >= 1")
    if r + 1 > CLIQUE_EXACT_LIMIT:
        return TheoremVerdict(
            "WILF", None, None, {}, None,
            f"clique detection exact only up to K_{CLIQUE_EXACT_LIMIT}", params,
        )
    hyp = not has_clique(g, r + 1)
    concl = certify_lambda_le_frac(g, Fraction((r - 1) * n, r))
    return TheoremVerdict(
        "WILF",
        hyp,
        concl,
        {"bound": Fraction((r - 1) * n, r)},
        None,
        None if concl is not None else "lambda comparison undecided",
        params,
    )


def check_nikiforov_m(g: Graph, r: int) -> TheoremVerdict:
    params = {"n": g.n, "r": r, "m": g.m}
    if r < 1:
        raise ValueError("need r >= 1")
    if r + 1 > CLIQUE_EXACT_LIMIT:
        return TheoremVerdict(
            "NIKIFOROV_M", None, None, {}, None,
            f"clique detection exact only up to K_{CLIQUE_EXACT_LIMIT}", params,
        )
    hyp = not has_clique(g, r + 1)
    bound = Fraction(2 * g.m * (r - 1), r)
    concl = certify_lambda_le_sqrt(g, bound)
    return TheoremVerdict(
        "NIKIFOROV_M",
        hyp,
        concl,
        {"bound_sq": bound},
        None,
        None if concl is not None else "lambda comparison undecided",
        params,
    )


def _floor_half_sqrt_minus1(m: int) -> int:
    """floor((sqrt(m)-1)/2) exactly: the largest k with (2k+1)^2 <= m."""
    import math

    if m < 1:
        return 0
    return max(0, (math.isqrt(m) - 1) // 2)


def check_nosal_nz(g: Graph) -> TheoremVerdict:
    m = g.m
    t = triangle_count(g)
    params = {"n": g.n, "m": m}
    hyp = certify_lambda_ge_sqrt(g, m)
    cb = is_complete_bipartite(g)
    bound = _floor_half_sqrt_minus1(m)
    concl = t >= bound or cb
    return TheoremVerdict(
        "NOSAL_NZ",
        hyp,
        concl,
        {"t_margin": t - bound, "triangle_free": t == 0},
        {"complete_bipartite_exception": cb} if cb else None,
        None if hyp is not None else "lambda vs sqrt(m) undecided",
        params,
    )


def check_deg_sq(g: Graph) -> TheoremVerdict:
    m = g.m
    s = sum(d * d for d in g.degrees())
    margin = m * m + m - s
    witness = None
    if margin == 0 and g.n > 0:
        witness = {"equality_case": True, "shape": _deg_sq_equality_shape(g)}
    return TheoremVerdict(
        "DEG_SQ", True, margin >= 0, {"margin": margin}, witness, None, {"n": g.n, "m": m}
    )


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


def check_embed_order(n: int, q: int, side: str = "larger") -> TheoremVerdict:
    """Certified strict decrease of lambda along the embedding order
    star, clique, complete bipartite, cycle, path, matching (q edges each).

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
    part = (n + 1) // 2 if side == "larger" else n // 2
    kept: list[tuple[str, Graph]] = []
    skipped = []
    for name, h in _embed_candidates(q):
        if h.m != q:
            raise AssertionError(f"embedding {name} has {h.m} edges, wanted {q}")
        if h.n > part:
            skipped.append((name, "does not fit"))
            continue
        if any(are_isomorphic(h, h2) for _, h2 in kept):
            skipped.append((name, "duplicate of an earlier entry"))
            continue
        kept.append((name, h))
    orders = {}
    ok: Optional[bool] = True
    for (name_a, ha), (name_b, hb) in zip(kept, kept[1:]):
        ga = embed_into_turan2(n, ha, side).graph
        gb = embed_into_turan2(n, hb, side).graph
        order = compare_lambda(ga, gb)
        orders[f"{name_a}>{name_b}"] = order.value
        if order is not Ordering.GREATER:
            ok = None if order in (Ordering.TIE, Ordering.INDETERMINATE) else False
    chain = [name for name, _ in kept]
    return TheoremVerdict(
        "EMBED_ORDER",
        True,
        ok,
        orders,
        {"chain": chain, "skipped": skipped},
        None if ok is not None else "a comparison refused to certify",
        {"n": n, "q": q, "side": side},
    )


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


def check_x_mass(g: Graph) -> TheoremVerdict:
    """Perron-mass bracket for the star-free part of T_{n,2} plus a star."""
    n = g.n
    det = _detect_turan2_star(g)
    params = {"n": n}
    if det is None or n % 2 != 0:
        return TheoremVerdict(
            "X_MASS", False, None, {}, None,
            "graph is not an even-order bipartite Turan graph plus one star", params,
        )
    S, center, q = det
    params["q"] = q
    cert = perron_enclosure(g, 1e-11)
    y = cert.perron
    y_V = sum(y)
    y_T = sum(y[v] for v in range(n) if not S >> v & 1)
    size_s = S.bit_count()
    lam_lo, lam_hi = cert.lambda_lo, cert.lambda_hi
    if lam_lo <= q:
        return TheoremVerdict(
            "X_MASS", None, None, {}, None, "enclosure too wide (lambda <= q)", params
        )
    lb = min(
        lam * y_V / (lam + size_s + 2 * q / (lam - q)) for lam in (lam_lo, lam_hi)
    )
    ub = max(lam * y_V / (lam + size_s + 2 * q / lam) for lam in (lam_lo, lam_hi))
    slack = n * (cert.residual + cert.width)
    concl = lb - slack <= y_T <= ub + slack
    return TheoremVerdict(
        "X_MASS",
        True,
        concl,
        {"bracket": (lb, ub), "y_T": y_T, "slack": slack},
        {"star_center": center, "star_part": S},
        None,
        params,
    )


def _component_star_or_c4(h: Graph, comp: int) -> bool:
    verts = list(bits(comp))
    k = len(verts)
    if k == 1:
        return True
    sub = induced(h, comp)
    degs = sorted(sub.degrees())
    if sub.m == k - 1 and degs[-1] == k - 1:
        return True  # star
    return k == 4 and sub.m == 4 and degs == [2, 2, 2, 2]


def check_structural_lemmas(
    g: Graph, q: int, exact_limit: int = EXACT_CUT_LIMIT
) -> list[TheoremVerdict]:
    """Audit the chain of structural facts used in the few-triangles regime.

    The standing hypothesis gate is: n >= 300q^2, certified
    lambda(G) >= lambda(Y_{n,2,q}), and t(G) < q*floor(n/2). The partition
    (S,T) is the exact max cut when feasible, otherwise the local-search
    cut; the conclusions are existential in the partition, so a satisfying
    partition certifies them, and a non-exact failing one stays open.
    """
    n = g.n
    t = triangle_count(g)
    params = {"n": n, "q": q}
    gate_n = n >= 300 * q * q and q >= 1
    gate_t = t < q * (n // 2)
    try:
        ref = y_n2q(n, q)
        lam_ok, lam_how = _hyp_lambda_ge_construction(g, ref)
    except ValueError as exc:
        ref = None
        lam_ok, lam_how = False, str(exc)
    if lam_ok is None:
        gate: Optional[bool] = None
    else:
        gate = gate_n and gate_t and lam_ok
    gate_reason = None if gate is not None else lam_how

    dist = bipartite_distance(g, exact_limit)
    exact_part = dist.exact
    w = dist.witness
    eS, eT, eST = w.eS, w.eT, w.eST
    a, b = w.S.bit_count(), w.T.bit_count()

    def existential(satisfied: bool) -> Optional[bool]:
        if satisfied:
            return True
        return False if exact_part else None

    out = []
    intra = eS + eT
    out.append(
        TheoremVerdict(
            "PART_INTRA_LT_6Q",
            gate,
            existential(
                intra < 6 * q
                and Fraction(eST) > Fraction(n * n, 4) - 9 * q
                and _size_within(n, a, 9 * q)
            ),
            {"intra": intra, "cross": eST, "sizes": (a, b)},
            None,
            gate_reason,
            params,
        )
    )
    out.append(
        TheoremVerdict(
            "PART_INTRA_LE_Q",
            gate,
            existential(intra <= q),
            {"intra_margin": q - intra},
            None,
            gate_reason,
            params,
        )
    )
    degs = g.degrees() or [0]
    delta_ok = Fraction(min(degs)) >= Fraction(n, 2) - 4 * q
    dmax = Fraction(max(degs)) - Fraction(n, 2) - q  # must be <= 2 sqrt(q)
    delta_ok = delta_ok and (dmax <= 0 or dmax * dmax <= 4 * q)
    out.append(
        TheoremVerdict(
            "MIN_DEGREE_HALF",
            gate,
            bool(delta_ok),
            {"min_degree_margin": Fraction(min(degs)) - (Fraction(n, 2) - 4 * q)},
            None,
            gate_reason,
            params,
        )
    )
    cert = perron_enclosure(g, 1e-10)
    slack = 4.0 * cert.residual + cert.width
    floor_bound = 1 - 30 * q / n if n else 0.0
    xmin = min(cert.perron) if cert.perron else 0.0
    if xmin - slack > floor_bound:
        entry_ok: Optional[bool] = True
    elif xmin + slack <= floor_bound:
        entry_ok = False
    else:
        entry_ok = None
    out.append(
        TheoremVerdict(
            "PERRON_ENTRY_FLOOR",
            gate,
            entry_ok,
            {"min_entry": xmin, "bound": floor_bound, "slack": slack},
            None,
            gate_reason if gate is None else (None if entry_ok is not None else "residual slack straddles the bound"),
            params,
        )
    )
    if n > 60 * q:
        lhs = Fraction(2 * _floor_q(n), n)
        rhs = Fraction(120 * q * q, n * (n - 60 * q))
        d = lhs - rhs  # require d <= sqrt(a*b)
        gap_ok = d <= 0 or d * d <= a * b
        out.append(
            TheoremVerdict(
                "PART_PRODUCT_GAP",
                gate,
                existential(bool(gap_ok)),
                {"lhs": lhs, "rhs_bound": rhs, "part_product": a * b},
                None,
                gate_reason,
                params,
            )
        )
    else:
        out.append(
            TheoremVerdict(
                "PART_PRODUCT_GAP", gate, None, {}, None, "needs n > 60q", params
            )
        )
    out.append(
        TheoremVerdict(
            "PART_BALANCED",
            gate,
            existential(abs(a - b) <= 1),
            {"imbalance": abs(a - b)},
            None,
            gate_reason,
            params,
        )
    )
    # lambda < lambda(Y) under the additional edge-deficit hypothesis
    edge_hyp = g.m <= _floor_q(n) + q - 1
    if ref is None:
        below: Optional[bool] = None
        reason = lam_how
    else:
        order = compare_lambda(g, ref.graph)
        below = (
            True
            if order is Ordering.LESS
            else False
            if order is Ordering.GREATER
            else None
        )
        reason = None if below is not None else f"comparison returned {order.value}"
    hyp47 = None if gate is None else (gate and edge_hyp)
    out.append(
        TheoremVerdict(
            "LAMBDA_BELOW_Y",
            hyp47,
            below,
            {"edge_deficit": _floor_q(n) + q - 1 - g.m},
            None,
            reason if reason else gate_reason,
            params,
        )
    )
    # embedded components are stars or 4-cycles
    shape_hyp = None if gate is None else (gate and eST == a * b)
    comps_ok = True
    for mask in (w.S, w.T):
        sub = induced(g, mask)
        for comp in components(sub):
            if comp.bit_count() >= 2 and not _component_star_or_c4(sub, comp):
                comps_ok = False
    out.append(
        TheoremVerdict(
            "STAR_OR_C4",
            shape_hyp,
            comps_ok,
            {"intra": intra},
            None,
            gate_reason,
            params,
        )
    )
    out.append(check_x_mass(g))
    return out


def _size_within(n: int, a: int, bound_sq_times: int) -> bool:
    """|part size - n/2| < 3 sqrt(q) checked as (n/2 - a)^2 < 9q, exactly."""
    d = Fraction(n, 2) - a
    return d * d < bound_sq_times


# ---------------------------------------------------------------------------
# Dispatch for the CLI.
# ---------------------------------------------------------------------------


def verify_by_id(theorem_id: str, g: Graph, params: dict) -> list[TheoremVerdict]:
    q = params.get("q", 1)
    if theorem_id == "MANTEL":
        return [check_mantel(g)]
    if theorem_id == "ER_RAD":
        return [check_er_rad(g)]
    if theorem_id == "LS":
        return [check_ls(g, q)]
    if theorem_id == "NING_ZHAI":
        return [check_ning_zhai(g)]
    if theorem_id == "SPEC_LS_Y":
        return [check_spec_ls_y(g, q)]
    if theorem_id == "SPEC_LS_T":
        return [check_spec_ls_t(g, q)]
    if theorem_id == "SPEC_BC":
        return [check_spec_bc(g, params.get("s", 1))]
    if theorem_id == "BN_INEQ":
        return [check_bn(g)]
    if theorem_id == "MOON_MOSER":
        return [check_moon_moser(g)]
    if theorem_id == "FAR_BIP_SUPERSAT":
        return [check_far_supersat(g, params.get("exact_limit", EXACT_CUT_LIMIT))]
    if theorem_id == "TRI_EFFI":
        return [check_tri_effi(g, params.get("k", 1))]
    if theorem_id == "WILF":
        return [check_wilf(g, params.get("r", 2))]
    if theorem_id == "NIKIFOROV_M":
        return [check_nikiforov_m(g, params.get("r", 2))]
    if theorem_id == "NOSAL_NZ":
        return [check_nosal_nz(g)]
    if theorem_id == "DEG_SQ":
        return [check_deg_sq(g)]
    if theorem_id == "X_MASS":
        return [check_x_mass(g)]
    if theorem_id == "STRUCTURAL":
        return check_structural_lemmas(g, q)
    raise ValueError(f"no graph-level verifier for theorem id {theorem_id!r}")
