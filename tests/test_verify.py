"""Sweep configuration and orchestration.

Every unit, and every engine that judges a claim, returns records of the
one report shape (`report.make_record`); the `orbits` and `hecke`
subcommands print those same records.  Here we pin the configuration
surface (validation, file loading, selection) and the determinism of
small selected runs, including the worked examples: the E8.o16 selection
yields exactly its five case records, and a prime bound that is too small
turns a case into skipped records rather than failures.  A unit that
raises, or a report that fails its lint, must still leave every record.
The plan-coverage tests at the end run every `*.regular` unit through
`verify_all`, and the slow-marked full run (`pytest -m slow`) runs every
plan entry once and pins the default report's sha256.
"""

import hashlib
import json

import pytest

from heckeverify import hecke, report, verify
from heckeverify.verify import (
    ConfigError, RunConfig, config_from_dict, config_from_file, verify_all,
)


# ---------------------------------------------------------------------------
# configuration


def test_defaults_validate():
    cfg = RunConfig()
    assert cfg.validate() is cfg
    assert cfg.fmt == "json" and cfg.jobs == 1


@pytest.mark.parametrize("bad", [
    {"jobs": 0}, {"prime_bound": -3}, {"ball_radius": True},
    {"fmt": "xml"}, {"dim_cap": "9"},
])
def test_validate_rejects(bad):
    with pytest.raises(ConfigError):
        config_from_dict(bad, RunConfig()).validate()


def test_unknown_keys_are_named():
    with pytest.raises(ConfigError, match="prime_bouund"):
        config_from_dict({"prime_bouund": 50}, RunConfig())


def test_cases_accept_string_or_list():
    assert config_from_dict({"cases": "E8.o16"}, RunConfig()).cases == ("E8.o16",)
    assert config_from_dict({"cases": ["a", "b"]}, RunConfig()).cases == ("a", "b")


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"prime_bound": 500, "fmt": "text"}))
    cfg = config_from_file(str(path), RunConfig())
    assert cfg.prime_bound == 500 and cfg.fmt == "text"
    # untouched keys keep their defaults
    assert cfg.dim_cap == RunConfig().dim_cap


def test_config_file_errors(tmp_path):
    with pytest.raises(ConfigError):
        config_from_file(str(tmp_path / "missing.json"), RunConfig())
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        config_from_file(str(bad), RunConfig())


# ---------------------------------------------------------------------------
# selection and runs


def test_unknown_case_id_is_rejected():
    with pytest.raises(ConfigError, match="G2.o4"):
        verify_all(RunConfig(cases=("G2.o4",)))


def test_selection_is_exact_and_ordered():
    rep = verify_all(RunConfig(cases=("G2.m4", "A2.roots", "partitions.values")))
    stages = [r["stage"] for r in rep.records]
    # dependency order, not selection order
    assert stages == ["rootsystem", "partitions", "torus"]
    assert rep.exit_code == 0


def test_e8_o16_selection_gives_its_five_records():
    rep = verify_all(RunConfig(cases=("E8.o16",)))
    assert len(rep.records) == 5
    assert [r["claim_id"].split("/")[1] for r in rep.records] == \
        ["generators", "q-roots", "decomposition", "orbit-counts", "bound"]
    assert all(r["status"] == "pass" for r in rep.records)
    noted = [c["note"] for r in rep.records for c in r["corrections"]]
    assert any("duplicates" in n for n in noted)


def test_small_prime_bound_skips_instead_of_failing():
    rep = verify_all(RunConfig(cases=("E8.o29",), prime_bound=100))
    assert len(rep.records) == 5
    assert all(r["status"] == "skipped" for r in rep.records)
    assert all("below 100" in r["statement"] for r in rep.records)
    assert rep.exit_code == 0


def test_selected_run_is_deterministic():
    cfg = RunConfig(cases=("A2.roots", "partitions.values"))
    a = verify_all(cfg)
    b = verify_all(cfg)
    assert report.emit(a.records, "json") == report.emit(b.records, "json")


def test_parallel_matches_serial():
    cases = ("A2.roots", "G2.roots", "partitions.values", "G2.m4")
    serial = verify_all(RunConfig(cases=cases))
    forked = verify_all(RunConfig(cases=cases, jobs=2))
    assert report.emit(serial.records, "json") == \
        report.emit(forked.records, "json")


def test_report_counts_and_exit_code():
    rep = verify_all(RunConfig(cases=("A2.roots",)))
    assert rep.counts["pass"] == 1
    assert rep.failures == ()
    assert rep.exit_code == 0


# ---------------------------------------------------------------------------
# failures stay inside their unit


def test_raising_unit_becomes_one_failed_record(monkeypatch):
    def boom():
        raise RuntimeError("boom")

    monkeypatch.setitem(verify.UNITS, "irr-exceptional", boom)
    rep = verify_all(RunConfig(cases=("A2.roots", "A.orders", "irr.exceptional")))
    assert report.lint(rep.records) == []
    by_case = {r["case"]: r for r in rep.records}
    assert set(by_case) == {"A2.roots", "A.orders", "irr.exceptional"}
    assert by_case["A2.roots"]["status"] == "pass"
    assert by_case["A.orders"]["status"] == "pass"
    err = by_case["irr.exceptional"]
    assert err["claim_id"] == "irr.exceptional/error"
    assert err["status"] == "fail"
    assert err["expected"] == "no exception"
    assert err["computed"] == "RuntimeError: boom"
    assert rep.failures == (err,)
    assert rep.exit_code == 1
    assert report.emit(rep.records)


def test_theta_ball_counts_every_failing_pair(monkeypatch):
    monkeypatch.setattr(hecke, "_cleared_theta_product",
                        lambda rs, x, y, zc: None)
    recs = {r["claim_id"]: r for r in verify.UNITS["theta-ball"]("A2", 2)}
    products = recs["A2.ball/theta-products"]
    assert products["status"] == "fail"
    # every ordered pair of the 25-weight ball fails: 25 * 25 products
    assert products["computed"]["failures"] == 625
    assert len(products["computed"]["failing_pairs"]) == 5
    for claim in ("theta-independence", "central-sums"):
        assert recs[f"A2.ball/{claim}"]["computed"] == {"failures": 0}


def test_lint_problem_fails_the_run_but_keeps_every_record(monkeypatch):
    dup = report.make_record("weyl", "A.orders", "valid", "t",
                             "a second claim under the same id", [], [],
                             "pass")
    monkeypatch.setitem(verify.UNITS, "irr-exceptional", lambda: [dup])
    rep = verify_all(RunConfig(cases=("A.orders", "irr.exceptional")))
    assert [r["claim_id"] for r in rep.records] == [
        "A.orders/valid", "A.orders/valid", "report/lint"]
    lint = rep.records[-1]
    assert lint["status"] == "fail"
    assert lint["expected"] == "no problems"
    assert lint["computed"] == ["duplicate claim_id A.orders/valid"]
    assert rep.failures == (lint,)
    assert rep.exit_code == 1
    assert report.emit(rep.records)


# ---------------------------------------------------------------------------
# plan coverage


def test_every_regular_unit_passes():
    cases = tuple(case for _, case, unit, _ in verify._plan(RunConfig())
                  if unit == "regular-count")
    assert len(cases) == len(verify.REGULAR_TYPES) == 10
    rep = verify_all(RunConfig(cases=cases))
    assert [r["case"] for r in rep.records] == list(cases)
    assert all(r["status"] == "pass" for r in rep.records), rep.failures


def test_plan_uses_every_unit_and_unique_case_ids():
    plan = verify._plan(RunConfig())
    assert {unit for _, _, unit, _ in plan} == set(verify.UNITS)
    case_ids = [case for _, case, _, _ in plan]
    assert len(case_ids) == len(set(case_ids))


FULL_REPORT_SHA256 = \
    "2c1fdbd8deb22d7e379b31fd2fa3b9beb428b00333266d24d63b925bc36476f1"


@pytest.mark.slow
def test_full_report_is_pinned():
    rep = verify_all(RunConfig(jobs=2))
    assert len(rep.records) == 382
    assert hashlib.sha256(report.emit(rep.records)).hexdigest() == \
        FULL_REPORT_SHA256
    assert rep.exit_code == 0
