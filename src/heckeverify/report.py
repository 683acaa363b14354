"""Claim records and deterministic report emission.

A claim record is a plain dict with a fixed field set, and `make_record` is
the one place it is built: engines that judge a claim return such records,
sweep units pass them on, and the checking subcommands print them.  The
json-lines format writes one record per line with the fields always in the
same order, so two runs over the same configuration produce byte-identical
output; the text format is a human table grouped by stage.
"""

from __future__ import annotations

import json
from fractions import Fraction


class ReportError(ValueError):
    pass


STATUSES = ("pass", "fail", "informational", "skipped")

FIELD_ORDER = ("claim_id", "stage", "case", "anchor", "statement",
               "expected", "computed", "status", "corrections")


def make_record(stage, case, name, anchor, statement, expected, computed,
                status, corrections=()):
    if status not in STATUSES:
        raise ReportError(f"unknown status {status!r}")
    return {
        "claim_id": f"{case}/{name}", "stage": stage, "case": case,
        "anchor": anchor, "statement": statement,
        "expected": expected, "computed": computed, "status": status,
        "corrections": list(corrections),
    }


def jsonable(x):
    """Strictly deterministic JSON view: tuples become lists, sets are
    sorted, exact rationals become strings; anything else must already be
    JSON-native."""
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, float):
        raise ReportError(f"float {x!r} in a claim record; keep values exact")
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, (set, frozenset)):
        return sorted((jsonable(v) for v in x), key=repr)
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    return str(x)


def ordered(rec) -> dict:
    missing = [f for f in FIELD_ORDER if f not in rec]
    if missing:
        raise ReportError(f"record {rec.get('claim_id')!r} lacks {missing}")
    return {f: jsonable(rec[f]) for f in FIELD_ORDER}


def lint(records):
    """Structural problems that would make a report unusable: duplicated
    claim ids, pass/fail claims with no anchor or a missing side."""
    problems = []
    seen = set()
    for rec in records:
        cid = rec.get("claim_id")
        if cid in seen:
            problems.append(f"duplicate claim_id {cid}")
        seen.add(cid)
        if rec.get("status") in ("pass", "fail"):
            if not rec.get("anchor"):
                problems.append(f"{cid}: pass/fail claim without an anchor")
            if rec.get("expected") is None or rec.get("computed") is None:
                problems.append(f"{cid}: pass/fail claim missing a side")
    return problems


def status_counts(records) -> dict:
    out = {s: 0 for s in STATUSES}
    for rec in records:
        out[rec["status"]] += 1
    return out


def _text_lines(records):
    lines = []
    by_stage: dict = {}
    for rec in records:
        by_stage.setdefault(rec["stage"], []).append(rec)
    for stage, recs in by_stage.items():
        lines.append(f"== {stage} ({len(recs)} claims) ==")
        width = max(len(r["claim_id"]) for r in recs)
        for rec in recs:
            lines.append(f"{rec['claim_id']:<{width}}  "
                         f"[{rec['status']:<13}] {rec['statement']}")
            if rec["status"] == "fail":
                lines.append(f"{'':<{width}}  expected: "
                             f"{json.dumps(jsonable(rec['expected']))}")
                lines.append(f"{'':<{width}}  computed: "
                             f"{json.dumps(jsonable(rec['computed']))}")
            for corr in rec["corrections"]:
                note = corr["note"] if isinstance(corr, dict) else str(corr)
                lines.append(f"{'':<{width}}  note: {note}")
        lines.append("")
    counts = status_counts(records)
    lines.append("  ".join(f"{s}: {counts[s]}" for s in STATUSES))
    return lines


def emit(records, fmt="json") -> bytes:
    """Serialize; json is json-lines with a stable field order.  An empty
    record list yields empty output in both formats."""
    if fmt not in ("json", "text"):
        raise ReportError(f"unknown format {fmt!r}")
    if not records:
        return b""
    if fmt == "json":
        body = "\n".join(
            json.dumps(ordered(rec), separators=(",", ":"), sort_keys=False)
            for rec in records)
        return (body + "\n").encode()
    return ("\n".join(_text_lines(records)) + "\n").encode()
