"""Command-line front end.

Exit codes: 0 success, 1 counterexample found (machine-checkable), 2 usage
or input error, 3 results contain Indeterminate verdicts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .families import build_from_spec
from .graph import Graph, build_graph
from .graph6 import Graph6Error, emit_graph6, parse_graph6
from .reporting import ReportDocument, verdicts_to_csv
from .roots import FAMILY_TAGS, FamilyPolynomial, family_lambda
from .search import (
    EXHAUSTIVE_TARGETS,
    SearchJob,
    dense_enumeration_size,
    enumerate_dense,
    ratio_scan,
    run_exhaustive,
    run_local_search,
    run_random,
)
from .spectral import perron_enclosure
from .theorems import check_embed_order, verify_by_id
from .triangles import bipartite_distance, tau3, triangle_count
from .verdicts import TheoremVerdict

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_INDETERMINATE = 3


def _add_flags(p: argparse.ArgumentParser, *flags: str) -> None:
    """--json, plus those of the shared flags that the subcommand reads."""
    shared = {
        "--tol": {"type": float, "default": 1e-9},
        "--tol-floor": {"type": float, "default": 1e-12},
        "--seed": {"type": int, "default": 0},
        "--workers": {"type": int, "default": int(os.environ.get("SPECLS_WORKERS", "1"))},
        "--csv": {"action": "store_true", "help": "emit verdicts as CSV"},
    }
    for flag in flags:
        p.add_argument(flag, **shared[flag])
    p.add_argument("--json", action="store_true", help="emit a JSON report document")


def _load_graphs(args) -> list[tuple[str, Graph]]:
    """Graphs from --g6 / --spec / --edges / --input, as (label, graph)."""
    out = []
    if getattr(args, "g6", None):
        out.append((args.g6, parse_graph6(args.g6)))
    if getattr(args, "spec", None):
        c = build_from_spec(args.spec)
        out.append((args.spec, c.graph))
    if getattr(args, "edges", None):
        if getattr(args, "n", None) is None:
            raise ValueError("--edges needs --n")
        pairs = []
        for item in args.edges.split(","):
            u, _, v = item.partition("-")
            pairs.append((int(u), int(v)))
        out.append((args.edges, build_graph(args.n, pairs)))
    if getattr(args, "input", None):
        with open(args.input) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    out.append((line, parse_graph6(line)))
    if not out:
        raise ValueError("no graph given: use --g6, --spec, --edges, or --input")
    return out


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="specls",
        description="spectral extremal graph workbench: constructions, "
        "certified spectral radii, triangle statistics, theorem verdicts, "
        "exhaustive and randomized counterexample search",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("construct", help="build a named family member")
    p.add_argument("spec", help='construction string, e.g. "Y:n=10,q=2"')
    _add_flags(p)

    p = sub.add_parser("spectral", help="certified spectral radius enclosure")
    p.add_argument("--g6")
    p.add_argument("--spec")
    p.add_argument("--input")
    _add_flags(p, "--tol")

    p = sub.add_parser("count", help="triangle count, tau3, bipartite distance")
    p.add_argument("--g6")
    p.add_argument("--spec")
    p.add_argument("--edges", help='adjacency list "0-1,1-2" (needs --n)')
    p.add_argument("--n", type=int)
    p.add_argument("--input")
    p.add_argument("--tau3", action="store_true")
    p.add_argument("--epsilon", action="store_true")
    _add_flags(p)

    p = sub.add_parser("verify", help="run one theorem verifier")
    p.add_argument("theorem_id")
    p.add_argument("--g6")
    p.add_argument("--spec")
    p.add_argument("--edges", help='adjacency list "0-1,1-2" (needs --n)')
    p.add_argument("--input")
    p.add_argument("--n", type=int)
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--exhaustive", action="store_true",
                   help="exhaustive run over all labeled graphs "
                   f"({'/'.join(EXHAUSTIVE_TARGETS)})")
    _add_flags(p, "--workers", "--csv")

    p = sub.add_parser("enumerate", help="dense labeled enumeration with count check")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--min-edges", type=int, required=True)
    _add_flags(p, "--workers")

    p = sub.add_parser("search", help="run a search job (random/local/exhaustive)")
    p.add_argument("--job", help="JSON job file")
    p.add_argument("--target")
    p.add_argument("--mode", choices=["exhaustive", "random", "local"])
    p.add_argument("--n", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--gamma")
    p.add_argument("--samples", type=int)
    p.add_argument("--perturbations", type=int)
    p.add_argument("--budget", type=int, default=0)
    _add_flags(p, "--seed", "--workers")

    p = sub.add_parser("ratio-scan", help="triangle / spectral-excess ratio curves")
    p.add_argument("--families", required=True,
                   help='comma list of family specs without n, e.g. "Turan:r=3,T:q=1"')
    p.add_argument("--n-grid", required=True, help="start:stop:step (stop inclusive)")
    _add_flags(p, "--tol-floor")

    p = sub.add_parser("family-root", help="exact largest root of a family polynomial")
    p.add_argument("tag", choices=FAMILY_TAGS)
    p.add_argument("--n", type=int, required=True)
    _add_flags(p, "--tol")
    return ap


def _emit(doc: ReportDocument, args, verdicts: list[TheoremVerdict] | None = None) -> None:
    if getattr(args, "csv", False) and verdicts is not None:
        sys.stdout.write(verdicts_to_csv(verdicts))
    elif args.json:
        print(doc.to_json())
    else:
        for item in doc.items:
            print(json.dumps(item, sort_keys=True, default=str))


def _exit_code(verdicts: list[TheoremVerdict]) -> int:
    if any(v.is_counterexample for v in verdicts):
        return EXIT_COUNTEREXAMPLE
    if any(v.is_indeterminate for v in verdicts):
        return EXIT_INDETERMINATE
    return EXIT_OK


def main(argv=None) -> int:
    ap = build_parser()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return _dispatch(args, argv)
    except (Graph6Error, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _dispatch(args, argv: list[str]) -> int:
    doc = ReportDocument(command=argv)
    doc.provenance = {k: getattr(args, k) for k in ("tol", "tol_floor", "seed") if hasattr(args, k)}

    if args.cmd == "construct":
        c = build_from_spec(args.spec)
        t = triangle_count(c.graph)
        ok = c.graph.m == c.predicted.m_expected and t == c.predicted.t_expected
        doc.add(
            "construction",
            {
                "spec": c.spec,
                "graph6": emit_graph6(c.graph),
                "n": c.graph.n,
                "m": c.graph.m,
                "t": t,
                "m_expected": c.predicted.m_expected,
                "t_expected": c.predicted.t_expected,
                "predictions_match": ok,
            },
        )
        _emit(doc, args)
        return EXIT_OK if ok else EXIT_COUNTEREXAMPLE

    if args.cmd == "spectral":
        for label, g in _load_graphs(args):
            cert = perron_enclosure(g, args.tol)
            doc.add("certificate", {"graph": label, **cert.to_jsonable()})
        _emit(doc, args)
        return EXIT_OK

    if args.cmd == "count":
        for label, g in _load_graphs(args):
            row = {"graph": label, "n": g.n, "m": g.m, "t": triangle_count(g)}
            if args.tau3:
                tau, cover = tau3(g)
                row["tau3"] = tau
                row["cover"] = cover
            if args.epsilon:
                d = bipartite_distance(g)
                row["epsilon"] = d.epsilon
                row["epsilon_exact"] = d.exact
            doc.add("count", row)
        _emit(doc, args)
        return EXIT_OK

    if args.cmd == "verify":
        aliases = {"BN": "BN_INEQ", "NOSAL": "NOSAL_NZ", "BOOK_COUNT": "BOOK"}
        args.theorem_id = aliases.get(args.theorem_id, args.theorem_id)
        if args.theorem_id == "EMBED_ORDER":
            if args.n is None:
                raise ValueError("EMBED_ORDER needs --n and --q")
            v = check_embed_order(args.n, args.q)
            doc.add("verdict", v.to_jsonable())
            _emit(doc, args, [v])
            return _exit_code([v])
        if args.exhaustive:
            if args.theorem_id not in EXHAUSTIVE_TARGETS:
                raise ValueError(f"no exhaustive mode for {args.theorem_id}")
            if args.n is None:
                raise ValueError("--n required with --exhaustive")
            grid = {"n": [args.n]}
            if args.theorem_id == "LS":
                grid["q"] = list(range(1, max((args.n + 1) // 2 - 1, 1) + 1))
            job = SearchJob(args.theorem_id, "exhaustive", grid)
            rep = run_exhaustive(job, args.workers)
            doc.provenance["job"] = job.to_jsonable()
            doc.add("search_report", rep.to_jsonable())
            _emit(doc, args)
            if rep.counterexamples:
                return EXIT_COUNTEREXAMPLE
            return EXIT_INDETERMINATE if rep.ties else EXIT_OK
        verdicts: list[TheoremVerdict] = []
        params = {"q": args.q, "s": args.s, "r": args.r, "k": args.k}
        for label, g in _load_graphs(args):
            for v in verify_by_id(args.theorem_id, g, params):
                verdicts.append(v)
                doc.add("verdict", {"graph": label, **v.to_jsonable()})
        _emit(doc, args, verdicts)
        return _exit_code(verdicts)

    if args.cmd == "enumerate":
        visited = sum(enumerate_dense(args.n, args.min_edges, workers=args.workers))
        expected = dense_enumeration_size(args.n, args.min_edges)
        doc.add(
            "enumeration",
            {
                "n": args.n,
                "min_edges": args.min_edges,
                "visited": visited,
                "closed_form": expected,
                "match": visited == expected,
            },
        )
        _emit(doc, args)
        return EXIT_OK if visited == expected else EXIT_COUNTEREXAMPLE

    if args.cmd == "search":
        if args.job:
            with open(args.job) as fh:
                job = SearchJob.from_jsonable(json.load(fh))
        else:
            if not (args.target and args.mode):
                raise ValueError("need --job or both --target and --mode")
            grid: dict = {}
            if args.n is not None:
                grid["n"] = [args.n]
            if args.q is not None:
                grid["q"] = [args.q]
            if args.gamma is not None:
                grid["gamma"] = [args.gamma]
            if args.samples is not None:
                grid["samples"] = [args.samples]
            if args.perturbations is not None:
                grid["perturbations"] = [args.perturbations]
            job = SearchJob(args.target, args.mode, grid, args.budget, args.seed)
        doc.provenance["seed"] = job.seed  # a job file's seed overrides --seed
        if job.mode == "exhaustive":
            rep = run_exhaustive(job, args.workers)
        elif job.mode == "random":
            rep = run_random(job)
        elif job.mode == "local":
            rep = run_local_search(job)
        else:
            raise ValueError(f"unknown mode {job.mode!r}")
        doc.provenance["job"] = job.to_jsonable()
        doc.add("search_report", rep.to_jsonable())
        _emit(doc, args)
        if rep.counterexamples:
            return EXIT_COUNTEREXAMPLE
        return EXIT_INDETERMINATE if rep.ties else EXIT_OK

    if args.cmd == "ratio-scan":
        families = [f.strip() for f in args.families.split(",") if f.strip()]
        start, stop, step = (int(x) for x in args.n_grid.split(":"))
        rep = ratio_scan(families, list(range(start, stop + 1, step)), args.tol_floor)
        doc.add("search_report", rep.to_jsonable())
        _emit(doc, args)
        return EXIT_OK

    if args.cmd == "family-root":
        lo, hi = family_lambda(FamilyPolynomial(args.tag, args.n), Fraction(args.tol))
        doc.add(
            "family_root",
            {"tag": args.tag, "n": args.n, "lo": float(lo), "hi": float(hi),
             "lo_exact": f"{lo.numerator}/{lo.denominator}",
             "hi_exact": f"{hi.numerator}/{hi.denominator}"},
        )
        _emit(doc, args)
        return EXIT_OK

    raise ValueError(f"unknown command {args.cmd!r}")


if __name__ == "__main__":
    sys.exit(main())
