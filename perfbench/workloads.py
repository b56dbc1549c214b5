"""The four benchmark workloads: request lists, correctness gates, verdict bytes.

A workload turns a seed into a fixed list of requests.  A request is one
call into a specls entry point plus a gate that classifies its result:
how many items it handled, how many certified decisions it attempted, how
many of those it refused (Tie, Indeterminate or an unconverged enclosure),
and which answers were wrong.  Gates check semantic invariants, not report
bytes; `canon` gives the bytes the same-seed determinism check compares.

Entry points are looked up as module attributes at call time
(`search.run_random`, not a name bound at import), so the tracer's
wrappers are the functions called in a traced run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Any, Callable

import specls.families as families
import specls.graph as graph
import specls.roots as roots
import specls.search as search
import specls.spectral as spectral
import specls.theorems as theorems
import specls.triangles as triangles
from specls.reporting import canonical_json

SCAN_WORKERS = 2
ENCLOSE_TOL = 1e-9
AUDIT_TOL = 1e-10
ROOT_TOL = Fraction(1, 10**30)


@dataclass
class Outcome:
    items: int
    decisions: int
    refusals: int
    errors: list[str] = field(default_factory=list)
    failed: int = 0  # requests with at least one error


@dataclass
class Request:
    kind: str
    key: tuple
    call: Callable[[], Any]
    # (result, {key: result} for the whole pass) -> Outcome
    check: Callable[[Any, dict], Outcome]
    canon: Callable[[Any], str]


def evaluate(requests: list[Request], results: dict) -> Outcome:
    """Run every request's gate on one pass's results; an exception that a
    call raised is a failed operation."""
    total = Outcome(0, 0, 0)
    for req in requests:
        result = results[req.key]
        if isinstance(result, Exception):
            out = Outcome(0, 1, 0, [f"raised {result!r}"])
        else:
            out = req.check(result, results)
        total.items += out.items
        total.decisions += out.decisions
        total.refusals += out.refusals
        total.errors.extend(f"{req.kind}{list(req.key[1:])}: {e}" for e in out.errors)
        total.failed += bool(out.errors)
    return total


def _report_bytes(report) -> str:
    return report.to_json()


def _verdict_bytes(verdicts) -> str:
    if not isinstance(verdicts, list):
        verdicts = [verdicts]
    return canonical_json([v.to_jsonable() for v in verdicts])


def _relabel(g, rng: random.Random):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return graph.build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


# ---------------------------------------------------------------------------
# probe: closed loop of equal-size run_random jobs (criterion-8 mix).
# ---------------------------------------------------------------------------


def probe(seed: int, tiny: bool = False) -> list[Request]:
    n, q, jobs = (30, 1, 3) if tiny else (300, 1, 45)
    uniform, perturbations = 10, 1
    rng = random.Random(seed)

    def check(report, _ctx) -> Outcome:
        errors = []
        if report.graphs_examined != uniform + perturbations:
            errors.append(f"examined {report.graphs_examined} of {uniform + perturbations}")
        if report.counterexamples:
            errors.append(f"{len(report.counterexamples)} counterexamples")
        min_t = report.extremal_tracker["min_triangles_given_hypothesis"]
        if min_t is not None and min_t < q * (n // 2):
            errors.append(f"min t given hypothesis {min_t} < {q * (n // 2)}")
        return Outcome(report.graphs_examined, report.graphs_examined, report.ties, errors)

    requests = []
    for i in range(jobs):
        job = search.SearchJob(
            "SPEC_LS_Y", "random",
            {"n": [n], "q": [q], "samples": [uniform], "perturbations": [perturbations]},
            seed=rng.getrandbits(62),
        )
        requests.append(Request("run_random", ("job", i),
                                lambda job=job: search.run_random(job), check, _report_bytes))
    return requests


# ---------------------------------------------------------------------------
# scan: exhaustive LS (complement DFS) and BOOK (batched eigensolves).
# ---------------------------------------------------------------------------


def _check_ls(n: int, q: int):
    ns = n * (n - 1) // 2
    kmax = ns - (n * n // 4 + q)
    want = [comb(ns, f) for f in range(kmax + 1)]

    def check(report, _ctx) -> Outcome:
        errors = []
        if report.detail["per_n"][n]["counts"] != want:
            errors.append("per-f counts differ from C(slots, f)")
        if report.counterexamples:
            errors.append(f"{len(report.counterexamples)} LS counterexamples")
        return Outcome(report.graphs_examined, report.graphs_examined, report.ties, errors)

    return check


def _check_book(n: int):
    def check(report, _ctx) -> Outcome:
        errors = []
        if report.graphs_examined != (1 << (n * (n - 1) // 2)) - 1:
            errors.append(f"examined {report.graphs_examined} graphs")
        if report.counterexamples:
            errors.append(f"{len(report.counterexamples)} BOOK counterexamples")
        eq = report.detail["equality_set"]
        if not eq or not all(e["core_is_book"] for e in eq):
            errors.append("equality set is empty or holds a non-book core")
        return Outcome(report.graphs_examined, report.graphs_examined, report.ties, errors)

    return check


def scan(seed: int, tiny: bool = False) -> list[Request]:
    (ls_n, ls_q), book_n = ((6, 2), 5) if tiny else ((8, 3), 7)
    ls = search.SearchJob("LS", "exhaustive", {"n": [ls_n], "q": [ls_q]})
    book = search.SearchJob("BOOK", "exhaustive", {"n": [book_n]})
    requests = [
        Request("LS", ("LS",), lambda: search.run_exhaustive(ls, SCAN_WORKERS),
                _check_ls(ls_n, ls_q), _report_bytes),
        Request("BOOK", ("BOOK",), lambda: search.run_exhaustive(book, SCAN_WORKERS),
                _check_book(book_n), _report_bytes),
    ]
    random.Random(seed).shuffle(requests)
    return requests


# ---------------------------------------------------------------------------
# certify: lambda decisions on the extremal families at n = 300 and 1200.
# ---------------------------------------------------------------------------

# Certified facts the decided orderings are checked against: a q-edge star
# beats a q-edge matching (so lambda(Y_{n,2,q}) < lambda(T_{n,2,q})), and the
# embedding order is strictly decreasing except that the triangle beats the
# 3-edge star (exact arithmetic; see test_embed_order_q3_documents_the_violation).
_EMBED_EXCEPTIONS = {"star>clique": "less"}


def _check_enclose(n: int, roots_cache: dict):
    def check(cert, _ctx) -> Outcome:
        if n not in roots_cache:
            roots_cache[n] = roots.family_lambda(roots.FamilyPolynomial("Y_even", n), ROOT_TOL)
        rlo, rhi = roots_cache[n]
        ok = Fraction(cert.lambda_lo) <= rlo and rhi <= Fraction(cert.lambda_hi)
        errors = [] if ok else [f"enclosure at n={n} misses the exact family root"]
        return Outcome(1, 1, not cert.converged, errors)

    return check


def _check_less(order, _ctx) -> Outcome:
    refused = order.name in ("TIE", "INDETERMINATE")
    errors = [] if refused or order.name == "LESS" else [f"Y vs T decided {order.value}"]
    return Outcome(1, 1, refused, errors)


def _check_embed(verdict, _ctx) -> Outcome:
    errors = [
        f"{pair} decided {value}"
        for pair, value in verdict.margins.items()
        if value in ("greater", "less") and value != _EMBED_EXCEPTIONS.get(pair, "greater")
    ]
    return Outcome(1, 1, verdict.conclusion_met is None, errors)


def _check_own_relabelling(verdict, _ctx) -> Outcome:
    """SPEC_LS_Y/T on a relabelled extremal graph: lambda equals the
    reference's, so the hypothesis may be refused but never certified false,
    and t sits exactly on the bound."""
    errors = []
    if verdict.hypothesis_met is False:
        errors.append("relabelled extremal graph certified below its own lambda")
    if verdict.conclusion_met is not True:
        errors.append("extremal graph fails its own triangle bound")
    return Outcome(1, 1, verdict.hypothesis_met is None, errors)


def certify(seed: int, tiny: bool = False) -> list[Request]:
    rng = random.Random(seed)
    small, large = (30, 300) if tiny else (300, 1200)
    enclose_ns = [small, large] if tiny else [small] * 4 + [large]
    compare_qs = [(small, 2)] if tiny else [(small, q) for q in (2, 3, 4)] * 3 + [(large, 2)]
    embed = [(small, 3)] if tiny else [(small, 2), (small, 3), (small, 4), (large, 2)]
    spec_small = 1 if tiny else 6  # SPEC_LS needs n >= 300 q^2
    roots_cache: dict = {}
    requests = []

    for i, n in enumerate(enclose_ns):
        g = _relabel(families.y_n2q(n, 1).graph, rng)
        requests.append(Request("enclose", ("enclose", i),
                                lambda g=g: spectral.perron_enclosure(g, ENCLOSE_TOL),
                                _check_enclose(n, roots_cache),
                                lambda c: canonical_json(c.to_jsonable())))
    built = {}
    for i, (n, q) in enumerate(compare_qs):
        y = _relabel(families.y_n2q(n, q).graph, rng)
        t = _relabel(families.t_n2q(n, q).graph, rng)
        built[n, q] = y, t
        requests.append(Request("compare", ("compare", i),
                                lambda y=y, t=t: spectral.compare_lambda(y, t),
                                _check_less, lambda o: o.value))
    for i, (n, q) in enumerate(embed):
        requests.append(Request("embed_order", ("embed_order", i),
                                lambda n=n, q=q: theorems.check_embed_order(n, q),
                                _check_embed, _verdict_bytes))
    # SPEC_LS_Y also runs at n=1200 (Indeterminate after ~7 s at baseline);
    # SPEC_LS_T stays at n=300 to keep a pass near 15 s
    spec_cases = {"SPEC_LS_Y": [(300, 1)] * spec_small + ([] if tiny else [(1200, 2)]),
                  "SPEC_LS_T": [(300, 1)] * spec_small}
    for tid, side in (("SPEC_LS_Y", 0), ("SPEC_LS_T", 1)):
        for i, (n, q) in enumerate(spec_cases[tid]):
            if (n, q) in built and n == large:
                g = built[n, q][side]  # reuse the n=1200 relabellings of compare
            else:
                builder = families.y_n2q if side == 0 else families.t_n2q
                g = _relabel(builder(n, q).graph, rng)
            requests.append(Request(tid, (tid, i),
                                    lambda tid=tid, g=g, q=q: theorems.verify_by_id(tid, g, {"q": q}),
                                    lambda vs, ctx: _check_own_relabelling(vs[0], ctx),
                                    _verdict_bytes))
    rng.shuffle(requests)
    return requests


# ---------------------------------------------------------------------------
# audit: theorem verifiers and the exact oracle on small random graphs.
# Besides the verifiers and the exact oracle, each graph gets a CW enclosure
# (checked against the oracle) and a tau3 call (exact triangle cover).
# ---------------------------------------------------------------------------

AUDIT_THEOREMS = (
    "BN_INEQ", "FAR_BIP_SUPERSAT", "TRI_EFFI", "NOSAL_NZ", "WILF",
    "NIKIFOROV_M", "DEG_SQ", "NING_ZHAI", "MOON_MOSER",
)
AUDIT_DENSITIES = (0.3, 0.5, 0.7)


def _check_theorem(verdicts, _ctx) -> Outcome:
    v = verdicts[0]
    errors = [f"{v.theorem_id} counterexample on a proved theorem"] if v.is_counterexample else []
    return Outcome(1, 1, v.is_indeterminate, errors)


def _check_exact(interval, _ctx) -> Outcome:
    lo, hi = interval
    return Outcome(1, 1, 0, [] if lo <= hi else ["empty exact interval"])


def _check_cw(gi: int):
    def check(cert, ctx) -> Outcome:
        elo, ehi = ctx[("exact", gi)]
        lo, hi = Fraction(cert.lambda_lo), Fraction(cert.lambda_hi)
        errors = [] if lo <= ehi and elo <= hi else [
            f"graph {gi}: CW interval misses the charpoly/Sturm interval"]
        return Outcome(1, 1, not cert.converged, errors)

    return check


def _check_tau3(g):
    def check(result, _ctx) -> Outcome:
        size, cover = result
        tris = [(1 << a) | (1 << b) | (1 << c) for a, b, c in triangles.triangle_list(g)]
        packed = used = 0
        for t in tris:  # vertex-disjoint triangles need distinct cover vertices
            if not t & used:
                used |= t
                packed += 1
        errors = []
        if cover.bit_count() != size or any(not t & cover for t in tris):
            errors.append("tau3 witness is not a triangle cover of the stated size")
        if size < packed:
            errors.append(f"tau3 = {size} below a packing of {packed} disjoint triangles")
        return Outcome(1, 1, 0, errors)

    return check


def audit(seed: int, tiny: bool = False) -> list[Request]:
    rng = random.Random(seed)
    shapes = [(n, 0.5) for n in (6, 7)] if tiny else [
        (n, d) for n in range(10, 19) for d in AUDIT_DENSITIES]
    requests = []
    for gi, (n, density) in enumerate(shapes):
        slots = search.edge_slots(n)
        g = graph.build_graph(n, rng.sample(slots, round(density * len(slots))))
        for tid in AUDIT_THEOREMS:
            requests.append(Request(tid, (tid, gi),
                                    lambda tid=tid, g=g: theorems.verify_by_id(tid, g, {}),
                                    _check_theorem, _verdict_bytes))
        requests.append(Request("exact", ("exact", gi),
                                lambda g=g: roots.lambda_interval_exact(g),
                                _check_exact, lambda iv: canonical_json(list(iv))))
        requests.append(Request("tau3", ("tau3", gi), lambda g=g: triangles.tau3(g),
                                _check_tau3(g), canonical_json))
        requests.append(Request("cw", ("cw", gi),
                                lambda g=g: spectral.perron_enclosure(g, AUDIT_TOL),
                                _check_cw(gi), lambda c: canonical_json(c.to_jsonable())))
    rng.shuffle(requests)
    return requests


@dataclass(frozen=True)
class Workload:
    build: Callable[[int, bool], list[Request]]
    # Scan's work runs in forked workers, whose speed the kernel timed in
    # this process does not track: calibrating its times widened the
    # run-to-run spread from about 6% to 25%, so they stay raw seconds.
    calibrated: bool = True


WORKLOADS = {
    "probe": Workload(probe),
    "scan": Workload(scan, calibrated=False),
    "certify": Workload(certify),
    "audit": Workload(audit),
}
