"""Per-layer tracing of specls from outside the library.

`Tracer.install()` replaces selected specls functions by timing wrappers in
every loaded specls module that binds them.  specls modules import each
other's functions by name, so `specls.search.perron_enclosure` and
`specls.theorems.perron_enclosure` are separate bindings and each is
replaced; calls inside a module go through its globals and are caught too.
`uninstall()` puts every original back.

A span is `[name, start, end, parent_index, request_id]`.  Spans are kept in
memory; `write_jsonl` dumps them once the run is over.  A span's self time is
its duration minus the durations of its direct children (calls are nested
and single-threaded, so children never overlap).  Work done in forked
worker processes is invisible here and shows up as self time of the
parent-side caller (`search.run_exhaustive.*`).
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

_MARK = "__perfbench_span__"


def _exhaustive_label(job, *args, **kwargs) -> str:
    return f"search.run_exhaustive.{job.target}"


def _verify_label(theorem_id, *args, **kwargs) -> str:
    return f"theorems.verify_by_id.{theorem_id}"


_FAMILY_BUILDERS = (
    "turan", "t_n2q", "y_n2q", "kab_plus", "embed_into_turan2", "balogh_clemen_g1",
    "balogh_clemen_g2", "l_nsalpha", "book_join", "build_from_spec",
)
_CERTIFY_LAMBDA = (
    "certify_lambda_ge_frac", "certify_lambda_le_frac",
    "certify_lambda_ge_sqrt", "certify_lambda_le_sqrt",
)

# (defining module, function, span name or a function of the call's arguments)
TARGETS = (
    ("specls.spectral", "perron_enclosure", "spectral.perron_enclosure"),
    ("specls.spectral", "compare_lambda", "spectral.compare_lambda"),
    *(("specls.spectral", f, "spectral.certify_lambda") for f in _CERTIFY_LAMBDA),
    ("specls.search", "floyd_sample", "search.floyd_sample"),
    ("specls.search", "run_random", "search.run_random"),
    ("specls.search", "run_exhaustive", _exhaustive_label),
    ("specls.roots", "charpoly_exact", "roots.charpoly_exact"),
    ("specls.roots", "sign_at_largest_root", "roots.sturm"),
    ("specls.roots", "largest_root_interval", "roots.sturm"),
    ("specls.roots", "family_lambda", "roots.family_lambda"),
    ("specls.roots", "lambda_interval_exact", "roots.lambda_interval_exact"),
    ("specls.triangles", "triangle_count", "triangles.triangle_count"),
    ("specls.triangles", "max_cut_exact", "triangles.max_cut_exact"),
    ("specls.triangles", "tau3", "triangles.tau3"),
    ("specls.theorems", "verify_by_id", _verify_label),
    ("specls.theorems", "check_embed_order", "theorems.check_embed_order"),
    ("specls.morphism", "are_isomorphic", "morphism.are_isomorphic"),
    *(("specls.families", f, "families.build") for f in _FAMILY_BUILDERS),
    ("specls.graph", "build_graph", "graph.build_graph"),
    ("specls.graph", "components", "graph.components"),
    ("specls.graph6", "emit_graph6", "graph6.emit_graph6"),
)


COUNTERS = (
    "spectral.perron_enclosure.iterations",
    "spectral.perron_enclosure.unconverged",
    "spectral.compare_lambda.refused",
)


def _count_result(counters: dict, name: str, result) -> None:
    """Counters read off a traced call's return value."""
    if name == "spectral.perron_enclosure":
        counters[f"{name}.iterations"] += result.iterations
        counters[f"{name}.unconverged"] += not result.converged
    elif name == "spectral.compare_lambda":
        counters[f"{name}.refused"] += result.name in ("TIE", "INDETERMINATE")


def _specls_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "specls" or name.startswith("specls."))]


def installed_wrappers() -> list[str]:
    """`module.attribute` of every tracing wrapper still bound in specls."""
    return sorted(
        f"{m.__name__}.{attr}"
        for m in _specls_modules()
        for attr, value in vars(m).items()
        if getattr(value, _MARK, False)
    )


def assert_untraced() -> None:
    """Raise if any tracing wrapper is still installed."""
    left = installed_wrappers()
    if left:
        raise RuntimeError(f"tracing wrappers still installed: {left[:5]}")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.request: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []  # (module, attribute, original)

    def _wrap(self, fn, name):
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            span = [label, 0.0, 0.0, stack[-1] if stack else None, self.request]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            _count_result(counters, label, result)
            return result

        setattr(traced, _MARK, True)
        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = _specls_modules()
        for modname, fname, name in TARGETS:
            original = getattr(sys.modules[modname], fname)
            wrapper = self._wrap(original, name)
            for mod in modules:
                for attr in [a for a, v in vars(mod).items() if v is original]:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")


def self_times(spans: list[list]) -> list[float]:
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    return [(s[2] - s[1]) - child[i] for i, s in enumerate(spans)]


def root_time(spans: list[list], requests: set | None = None) -> float:
    """Summed duration of top-level spans, optionally of some requests only."""
    return sum(s[2] - s[1] for s in spans
               if s[3] is None and (requests is None or s[4] in requests))


def layer_table(spans: list[list]) -> dict[str, dict]:
    """{span name: {"calls", "self_s"}} over all spans."""
    table: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for span, own in zip(spans, self_times(spans)):
        row = table[span[0]]
        row["calls"] += 1
        row["self_s"] += own
    return dict(table)


def nested_count(spans: list[list], child: str, ancestor: str) -> int:
    """Number of `child` spans that run somewhere below an `ancestor` span."""
    count = 0
    for span in spans:
        if span[0] != child:
            continue
        p = span[3]
        while p is not None and spans[p][0] != ancestor:
            p = spans[p][3]
        count += p is not None
    return count
