"""Report shaping and emission.

The JSON output is the machine contract: one object per line, fixed key
order, exact values only.  Determinism is checked by re-emitting the same
records and comparing bytes.
"""

import json
from fractions import Fraction

import pytest

from heckeverify import report


def rec(name="check", case="X1.o3", status="pass", **kw):
    args = dict(stage="teststage", case=case, name=name,
                anchor="table 1", statement="something holds",
                expected=1, computed=1, status=status)
    args.update(kw)
    return report.make_record(**args)


def test_make_record_fields_and_claim_id():
    r = rec()
    assert r["claim_id"] == "X1.o3/check"
    assert set(report.FIELD_ORDER) <= set(r)
    assert r["stage"] == "teststage"
    assert r["corrections"] == []


def test_make_record_rejects_bad_status():
    with pytest.raises(report.ReportError):
        rec(status="maybe")


def test_jsonable_exact_values():
    out = report.jsonable({"a": Fraction(3, 2), "b": (1, 2), 7: {3, 1}})
    assert out == {"a": "3/2", "b": [1, 2], "7": [1, 3]}


def test_jsonable_rejects_floats():
    with pytest.raises(report.ReportError, match="exact"):
        report.jsonable({"x": 0.5})


def test_ordered_requires_every_field():
    r = rec()
    del r["anchor"]
    with pytest.raises(report.ReportError, match="anchor"):
        report.ordered(r)


def test_lint_flags_duplicates_and_missing_anchors():
    dup = [rec(), rec()]
    assert any("duplicate" in p for p in report.lint(dup))
    bare = [rec(name="a", anchor=None)]
    assert any("anchor" in p for p in report.lint(bare))
    onesided = [rec(name="b", computed=None)]
    assert any("missing a side" in p for p in report.lint(onesided))


def test_lint_allows_informational_without_expectation():
    ok = [rec(name="c", status="informational", anchor=None,
              expected=None, computed=3)]
    assert report.lint(ok) == []


def test_emit_json_lines_shape():
    records = [rec(name="a"), rec(name="b", status="fail", computed=2)]
    blob = report.emit(records, "json")
    lines = blob.decode().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert list(first) == list(report.FIELD_ORDER)
    assert blob.endswith(b"\n")
    # compact separators, no spaces after commas
    assert b", " not in lines[0].encode()


def test_emit_deterministic():
    records = [rec(name="a"), rec(name="b")]
    assert report.emit(records, "json") == report.emit(records, "json")
    assert report.emit(records, "text") == report.emit(records, "text")


def test_emit_empty_and_unknown_format():
    assert report.emit([], "json") == b""
    with pytest.raises(report.ReportError):
        report.emit([rec()], "yaml")


def test_text_format_groups_and_counts():
    records = [rec(name="a"), rec(name="b", status="fail", computed=2)]
    text = report.emit(records, "text").decode()
    assert "== teststage (2 claims) ==" in text
    assert "X1.o3/a" in text and "[pass" in text
    assert "pass: 1  fail: 1" in text


def test_text_format_shows_corrections():
    r = rec(corrections=[{"where": "groupings", "recorded": 8,
                          "corrected": 7, "note": "off by one on record"}])
    text = report.emit([r], "text").decode()
    assert "note: off by one on record" in text


def test_status_counts():
    records = [rec(name="a"), rec(name="b"),
               rec(name="c", status="skipped", expected=None, computed=None)]
    assert report.status_counts(records) == {
        "pass": 2, "fail": 0, "informational": 0, "skipped": 1}
