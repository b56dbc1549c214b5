"""Golden sha256 digests of theorem verdict bytes.

Each case is one verifier call on a fixed graph; its digest is taken over
`canonical_json` of the verdict's `to_jsonable()` (a list for STRUCTURAL).
The graphs are the audit workload's seeded shapes (n = 10..18, densities
0.3/0.5/0.7, seed 1) under every graph-level theorem id, plus the extremal
families, the structural audit on both max-cut routes, the embedding order
and the neighborhood rotation. After an intended byte change, rewrite the
file with

    PYTHONPATH=src python tests/test_verdict_digests.py

and record which entries moved.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

from specls import rotation_increases_lambda, theorems
from specls.families import balogh_clemen_g2, t_n2q, turan, y_n2q
from specls.graph import add_edge, build_graph, remove_edge
from specls.reporting import canonical_json
from specls.search import edge_slots
from specls.spectral import Ordering

GOLDEN = Path(__file__).parent / "golden" / "verdict_digests.json"

GRAPH_IDS = (
    "MANTEL", "ER_RAD", "LS", "NING_ZHAI", "SPEC_LS_Y", "SPEC_LS_T", "SPEC_BC",
    "BN_INEQ", "MOON_MOSER", "FAR_BIP_SUPERSAT", "TRI_EFFI", "WILF", "NIKIFOROV_M",
    "NOSAL_NZ", "DEG_SQ", "X_MASS", "STRUCTURAL",
)


def audit_graphs():
    """The audit workload's graphs at seed 1, in its build order."""
    rng = random.Random(1)
    for n in range(10, 19):
        for d in (0.3, 0.5, 0.7):
            slots = edge_slots(n)
            yield f"n={n},d={d}", build_graph(n, rng.sample(slots, round(d * len(slots))))


def relabelled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def structural_with_refused_lambda(g, q):
    """STRUCTURAL with the gate's lambda comparison refusing, so every gated
    verdict carries the gate's reason."""
    real = theorems.compare_lambda
    theorems.compare_lambda = lambda *_: Ordering.INDETERMINATE
    try:
        return theorems.check_structural_lemmas(g, q)
    finally:
        theorems.compare_lambda = real


def cases():
    verify = theorems.verify_by_id
    out = {}
    for name, g in audit_graphs():
        for tid in GRAPH_IDS:
            out[f"audit/{name}/{tid}"] = lambda tid=tid, g=g: verify(tid, g, {})
        for tid in ("WILF", "NIKIFOROV_M"):
            out[f"audit/{name}/{tid}/r=3"] = lambda tid=tid, g=g: verify(tid, g, {"r": 3})
    for fam, build in (("Y", y_n2q), ("T", t_n2q)):
        plain = build(300, 1).graph
        for label, g in (("plain", plain), ("relabelled", relabelled(plain, 7))):
            for tid in ("SPEC_LS_Y", "SPEC_LS_T"):
                out[f"{tid}/{fam}_300_1/{label}"] = lambda tid=tid, g=g: verify(tid, g, {"q": 1})
    small = t_n2q(24, 1).graph
    near_turan = add_edge(turan(40, 2).graph, 0, 1)
    out["STRUCTURAL/T_24_1/exact"] = lambda: verify("STRUCTURAL", small, {"q": 1})
    out["STRUCTURAL/turan_40+edge/local"] = lambda: verify("STRUCTURAL", near_turan, {"q": 1})
    out["STRUCTURAL/turan_300/lambda_refused"] = lambda: structural_with_refused_lambda(
        turan(300, 2).graph, 1)
    k12, k40 = turan(12, 2).graph, turan(40, 2).graph
    out["TRI_EFFI/turan_12"] = lambda: verify("TRI_EFFI", k12, {})
    out["TRI_EFFI/turan_12/k=2"] = lambda: verify("TRI_EFFI", k12, {"k": 2})
    out["TRI_EFFI/turan_40"] = lambda: verify("TRI_EFFI", k40, {})
    out["FAR_BIP_SUPERSAT/turan_40"] = lambda: verify("FAR_BIP_SUPERSAT", k40, {})
    for fam, build in (("Y", y_n2q), ("T", t_n2q)):
        g = build(300, 1).graph
        for tid in ("FAR_BIP_SUPERSAT", "TRI_EFFI"):
            out[f"{tid}/{fam}_300_1"] = lambda tid=tid, g=g: verify(tid, g, {})
    p4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    split = build_graph(5, [(0, 1), (2, 3), (3, 4)])
    for label, g, u, v, W in (("P4/path_to_star", p4, 1, 2, 1 << 3),
                              ("C4/empty", c4, 0, 1, 0),
                              ("Y_10_2/matching_to_path", y_n2q(10, 2).graph, 1, 3, 1 << 2),
                              ("disconnected", split, 3, 2, 0)):
        out[f"ROTATION/{label}"] = lambda g=g, u=u, v=v, W=W: rotation_increases_lambda(g, u, v, W)
    out["X_MASS/T_40_3"] = lambda: verify("X_MASS", t_n2q(40, 3).graph, {})
    bc = balogh_clemen_g2(452, 2, 1, 0).graph
    for s in (1, 2):
        out[f"SPEC_BC/G2_452_2_1_0/s={s}"] = lambda s=s: verify("SPEC_BC", bc, {"s": s})
    out["SPEC_BC/turan_120-edge"] = lambda: verify(
        "SPEC_BC", remove_edge(turan(120, 2).graph, 0, 60), {})
    for tid in ("WILF", "NIKIFOROV_M"):
        out[f"{tid}/r=6/refused"] = lambda tid=tid: verify(tid, turan(12, 3).graph, {"r": 6})
    for q in (2, 3, 4):
        out[f"EMBED_ORDER/300/q={q}"] = lambda q=q: theorems.check_embed_order(300, q)
    return out


def digest(result) -> str:
    doc = [v.to_jsonable() for v in result] if isinstance(result, list) else result.to_jsonable()
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


def compute() -> dict[str, str]:
    return {key: digest(call()) for key, call in cases().items()}


def test_verdict_bytes_match_golden_digests():
    golden = json.loads(GOLDEN.read_text())
    got = compute()
    assert sorted(got) == sorted(golden)
    changed = [key for key in golden if got[key] != golden[key]]
    assert not changed, changed


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {GOLDEN}\n")
