"""Stable report documents: canonical JSON and CSV verdict tables.

A report's JSON carries every field of the document, and identical inputs
serialize to identical bytes (sorted keys, fixed separators, no
timestamps), which is what the determinism contract of the search harness
rests on.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Any

from .verdicts import TheoremVerdict, jsonable_value

TOOL_VERSION = "0.1.0"


def canonical_json(obj: Any) -> str:
    return json.dumps(jsonable_value(obj), sort_keys=True, separators=(",", ":"))


@dataclass
class ReportDocument:
    command: list[str]
    items: list[dict] = field(default_factory=list)
    provenance: dict = field(default_factory=dict)
    tool_version: str = TOOL_VERSION

    def add(self, kind: str, payload: dict) -> None:
        self.items.append({"kind": kind, **payload})

    def to_jsonable(self) -> dict:
        return {
            "tool_version": self.tool_version,
            "command": list(self.command),
            "items": jsonable_value(self.items),
            "provenance": jsonable_value(self.provenance),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), sort_keys=True, separators=(",", ":"))


_MARGIN_PRIORITY = ("t_margin", "margin", "gap", "intra_margin", "edge_excess",
                    "tau3_margin", "imbalance", "perron_margin")


def _main_margin(v: TheoremVerdict) -> tuple[str, str]:
    for key in _MARGIN_PRIORITY:
        if key in v.margins:
            val = v.margins[key]
            if isinstance(val, tuple) and len(val) == 2:
                return str(jsonable_value(val[0])), str(jsonable_value(val[1]))
            j = jsonable_value(val)
            return str(j), str(j)
    return "", ""


CSV_COLUMNS = [
    "theorem_id", "n", "params", "hypothesis", "conclusion",
    "margin_lo", "margin_hi", "witness_ref",
]


def verdicts_to_csv(verdicts: list[TheoremVerdict]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    for v in verdicts:
        lo, hi = _main_margin(v)
        params = {k: val for k, val in v.params.items() if k != "n"}
        w.writerow(
            [
                v.theorem_id,
                v.params.get("n", ""),
                canonical_json(params),
                _tri_str(v.hypothesis_met),
                _tri_str(v.conclusion_met),
                lo,
                hi,
                canonical_json(v.witness) if v.witness else "",
            ]
        )
    return buf.getvalue()


def _tri_str(x) -> str:
    if x is None:
        return "indeterminate"
    return "true" if x else "false"
