"""Sweep configuration and orchestration.

Here we pin the configuration surface (validation, file loading,
selection) and the determinism of small selected runs, including the
worked examples: the E8.o16 selection yields exactly its five case
records, and a prime bound that is too small turns a case into skipped
records rather than failures.  Full-sweep content is covered unit by
unit: the plan-coverage tests at the end of this file run whole groups of
plan units (every `*.regular` unit) through `verify_all`, and a unit that
raises must still leave the rest of the report.
"""

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
    recs = {r["claim_id"]: r for r in verify.unit_theta_ball("A2", 2)}
    products = recs["A2.ball/theta-products"]
    assert products["status"] == "fail"
    # every ordered pair of the 25-weight ball fails: 25 * 25 products
    assert products["computed"] == {"failures": 625}
    assert len(hecke.verify_bernstein("A2")[0]["detail"]["failing_pairs"]) == 5
    for claim in ("theta-independence", "central-sums"):
        assert recs[f"A2.ball/{claim}"]["computed"] == {"failures": 0}


# ---------------------------------------------------------------------------
# plan coverage


def test_every_regular_unit_passes():
    cases = tuple(case for _, case, unit, _ in verify._plan(RunConfig())
                  if unit == "regular-count")
    assert len(cases) == len(verify.REGULAR_TYPES) == 10
    rep = verify_all(RunConfig(cases=cases))
    assert [r["case"] for r in rep.records] == list(cases)
    assert all(r["status"] == "pass" for r in rep.records), rep.failures
