"""Sweep configuration and orchestration.

Every unit, and every engine that judges a claim, returns records of the
one report shape (`report.make_record`); the `orbits` and `hecke`
subcommands print those same records.  Here we pin the configuration
surface (validation, selection) and the determinism of
small selected runs, including the worked examples: the E8.o16 selection
yields exactly its five case records, and a prime bound that is too small
turns a case into skipped records rather than failures.  A unit that
raises, or a report that fails its lint, must still leave every record.
The plan-coverage tests at the end run every `*.regular` unit through
`verify_all`, and the slow-marked full run (`pytest -m slow`) runs every
plan entry, serially and with two jobs, and pins the default report's
sha256 both ways.
"""

import dataclasses
import functools
import hashlib
import json

import pytest

from heckeverify import cases, hecke, nilorbits, report, verify
from heckeverify.rootsystem import RootSystem, structure_constants
from heckeverify.verify import ConfigError, RunConfig, verify_all


# ---------------------------------------------------------------------------
# configuration


def test_defaults_validate():
    cfg = RunConfig()
    assert cfg.validate() is cfg
    assert cfg.jobs == 1


@pytest.mark.parametrize("bad", [
    {"jobs": 0}, {"state_budget": "9"},
    {"cases": ["A2.roots"]}, {"jobs": True},
])
def test_validate_rejects(bad):
    with pytest.raises(ConfigError):
        RunConfig(**bad).validate()


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


@pytest.fixture
def prime_limit_100(monkeypatch):
    """The sweep's admissible primes searched below 100, not 2000."""
    monkeypatch.setattr(verify, "admissible_primes", functools.partial(
        nilorbits.admissible_primes, limit=100))


def test_small_prime_bound_skips_instead_of_failing(prime_limit_100):
    rep = verify_all(RunConfig(cases=("E8.o29",)))
    assert len(rep.records) == 5
    assert all(r["status"] == "skipped" for r in rep.records)
    assert all("below 100" in r["statement"] for r in rep.records)
    assert rep.exit_code == 0


def test_small_prime_bound_skips_a_regular_count(prime_limit_100):
    # E8.regular needs p = 1 mod 31; the smallest such prime is 311
    rep = verify_all(RunConfig(cases=("E8.regular",)))
    assert len(rep.records) == 1
    rec = rep.records[0]
    assert rec["status"] == "skipped" and rec["case"] == "E8.regular"
    assert "below 100" in rec["statement"]
    assert rep.exit_code == 0


def test_selected_run_is_deterministic():
    cfg = RunConfig(cases=("A2.roots", "partitions.values"))
    a = verify_all(cfg)
    b = verify_all(cfg)
    assert report.emit(a.records, "json") == report.emit(b.records, "json")


def test_parallel_matches_serial():
    # the orbit, class and ball units build their tables in the workers
    cases = ("A2.roots", "G2.roots", "partitions.values", "G2.m4",
             "E6.o7", "D4.o5", "B3.classes", "A2.ball")
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


@pytest.mark.parametrize("entry", [
    ("hecke", "E6.ddprime", "spanning-sums", ("E6",)),
    ("hecke", "A3.ball", "theta-ball", ("A3",)),
])
def test_engine_rank_cap_is_a_refusal(entry):
    case = entry[1]
    records = verify._run_entry(entry)
    assert [(r["claim_id"], r["status"]) for r in records] == \
        [(f"{case}/refused", "skipped")]
    assert "cap" in records[0]["statement"]


def test_wrong_omega_count_is_a_failure_not_a_refusal(monkeypatch):
    # one more than the center order: the length-zero count contradicts it
    real = RootSystem.center_order
    monkeypatch.setattr(RootSystem, "center_order",
                        lambda self: real(self) + 1)
    hecke.omega_group.cache_clear()
    records = verify._run_entry(("hecke", "omega", "omega-sizes", ()))
    hecke.omega_group.cache_clear()
    assert [(r["claim_id"], r["status"]) for r in records] == \
        [("omega/error", "fail")]
    assert records[0]["computed"].startswith(
        "AssertionError: found 2 length-zero elements in A1, expected 3")


def test_missing_type_a_rotation_is_a_failure_not_a_refusal(monkeypatch):
    real = hecke.omega_group
    monkeypatch.setattr(hecke, "omega_group", lambda rstype: tuple(
        om for om in real(rstype) if om.is_identity()))
    records = verify._run_entry(("hecke", "words", "translation-words", ()))
    assert [(r["claim_id"], r["status"]) for r in records] == \
        [("words/error", "fail")]
    assert records[0]["computed"] == \
        "AssertionError: no one-step diagram rotation in A1"


def test_theta_ball_counts_every_failing_pair(monkeypatch):
    monkeypatch.setattr(hecke, "_cleared_theta_product",
                        lambda rs, x, y, zc: None)
    recs = {r["claim_id"]: r for r in verify.UNITS["theta-ball"]("A2")}
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


def test_decomposition_mismatch_is_one_failed_record(monkeypatch):
    real = cases.case_table

    def moved_label(rstype, order):
        table = real(rstype, order)
        if table is None or table.case_id != "E6.o7":
            return table
        # move one root from the first recorded module to the second
        (m1, first), (m2, second) = list(table.modules.items())[:2]
        modules = dict(table.modules, **{m1: first[1:],
                                         m2: second + first[:1]})
        return dataclasses.replace(table, modules=modules)

    monkeypatch.setattr(cases, "case_table", moved_label)
    rep = verify_all(RunConfig(cases=("E6.o7",)))
    assert [r["claim_id"] for r in rep.records] == ["E6.o7/decomposition"]
    rec = rep.records[0]
    assert rec["status"] == "fail"
    assert "component mismatch for E6.o7" in rec["statement"]
    assert rec["expected"] != rec["computed"]
    assert sum(rec["expected"]) == sum(rec["computed"])
    assert rep.exit_code == 1


# ---------------------------------------------------------------------------
# plan coverage


def test_every_regular_unit_passes():
    cases = tuple(case for _, case, unit, _ in verify._plan(RunConfig())
                  if unit == "regular-count")
    assert len(cases) == len(verify.REGULAR_TYPES) == 10
    rep = verify_all(RunConfig(cases=cases))
    assert [r["case"] for r in rep.records] == list(cases)
    assert all(r["status"] == "pass" for r in rep.records), rep.failures


def test_order_tables_build_no_root_system(monkeypatch):
    # valid_orders reads only the degrees, which a parsed type carries
    def refuse(*args):
        raise AssertionError("a root system was built")

    monkeypatch.setattr(verify, "build", refuse)
    for unit in (verify.unit_valid_orders_type_a,
                 verify.unit_valid_orders_type_d):
        assert [r["status"] for r in unit()] == ["pass"]


def test_regular_count_builds_no_structure_constants():
    # every *.regular eigenspace has no generator, so no table is read
    before = structure_constants.cache_info()
    records = verify.unit_regular_count("E6", 300000)
    after = structure_constants.cache_info()
    assert [r["status"] for r in records] == ["pass"]
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_jobs_start_at_most_one_worker_per_unit(monkeypatch):
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(verify, "ProcessPoolExecutor", SerialPool)
    rep = verify_all(RunConfig(cases=("A2.roots", "G2.roots"), jobs=64))
    assert started == [2]
    assert [r["status"] for r in rep.records] == ["pass", "pass"]


@pytest.fixture
def spy_pool(monkeypatch):
    """A pool that runs each task in this process and keeps what it was
    handed: the worker counts asked for, and the tasks."""

    class SpyPool:
        started, tasks = [], []

        def __init__(self, max_workers):
            self.started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            items = list(items)
            self.tasks.extend(items)
            return map(fn, items)

    monkeypatch.setattr(verify, "ProcessPoolExecutor", SpyPool)
    return SpyPool


def test_jobs_hand_out_one_bundle_per_prefix(spy_pool):
    cases = ("partitions.values", "G2.classes", "A2.classes", "A.orders",
             "G2.poincare", "G2.roots", "A2.roots")
    rep = verify_all(RunConfig(cases=cases, jobs=2))
    # each prefix's units in plan order, the bundles by their last unit
    assert [[case for _, case, _, _ in task] for task in spy_pool.tasks] == [
        ["A.orders"], ["A2.roots", "A2.classes"],
        ["G2.roots", "G2.poincare", "G2.classes"], ["partitions.values"]]
    assert spy_pool.started == [2]
    assert [r["case"] for r in rep.records] == [
        "A2.roots", "G2.roots", "G2.poincare", "A.orders", "A2.classes",
        "G2.classes", "partitions.values"]


def test_bundles_cover_the_plan_by_prefix_and_last_unit():
    plan = verify._plan(RunConfig())
    bundles = verify._bundles(plan)
    assert sorted(k for ks in bundles for k in ks) == list(range(len(plan)))
    prefixes = [[plan[k][1].split(".", 1)[0] for k in ks] for ks in bundles]
    assert all(set(p) == {p[0]} for p in prefixes)
    assert len({p[0] for p in prefixes}) == len(bundles)
    assert all(ks == sorted(ks) for ks in bundles)
    lasts = [ks[-1] for ks in bundles]
    assert lasts == sorted(lasts)


def test_jobs_with_one_bundle_start_no_pool(spy_pool):
    rep = verify_all(RunConfig(cases=("G2.roots", "G2.classes"), jobs=2))
    assert spy_pool.started == [] and spy_pool.tasks == []
    assert [r["status"] for r in rep.records] == ["pass", "pass"]


def test_bundled_jobs_match_serial_across_stages():
    # the G2 bundle spans every stage but partitions and nilorbits
    cases = ("G2.roots", "G2.poincare", "G2.classes", "G2.m4",
             "G2.characters", "G2.ddprime", "A.orders", "partitions.values",
             "E6.o7")
    serial = verify_all(RunConfig(cases=cases))
    forked = verify_all(RunConfig(cases=cases, jobs=2))
    assert report.emit(serial.records, "json") == \
        report.emit(forked.records, "json")


def test_raising_unit_inside_a_bundle_fails_alone(spy_pool, monkeypatch):
    def boom(name):
        raise RuntimeError("boom")

    monkeypatch.setitem(verify.UNITS, "poincare-histogram", boom)
    cases = ("G2.roots", "G2.poincare", "G2.classes", "A.orders")
    rep = verify_all(RunConfig(cases=cases, jobs=2))
    assert len(spy_pool.tasks) == 2
    assert [(r["case"], r["status"]) for r in rep.records] == [
        ("G2.roots", "pass"), ("G2.poincare", "fail"), ("A.orders", "pass"),
        ("G2.classes", "pass")]
    assert rep.failures[0]["computed"] == "RuntimeError: boom"
    assert report.lint(rep.records) == []


def test_planning_builds_no_root_system(monkeypatch):
    built = []
    real = verify.build
    monkeypatch.setattr(verify, "build", lambda t: built.append(t) or real(t))
    assert verify._plan(RunConfig())
    assert built == []


def test_plan_uses_every_unit_and_unique_case_ids():
    plan = verify._plan(RunConfig())
    assert {unit for _, _, unit, _ in plan} == set(verify.UNITS)
    case_ids = [case for _, case, _, _ in plan]
    assert len(case_ids) == len(set(case_ids))


FULL_REPORT_SHA256 = \
    "2c1fdbd8deb22d7e379b31fd2fa3b9beb428b00333266d24d63b925bc36476f1"


# --jobs 2 first, so that its workers inherit only what this process has
# cached so far (planning builds the root systems it reads) and build every
# other table themselves; the serial run after it builds them here
@pytest.mark.slow
@pytest.mark.parametrize("jobs", [2, 1])
def test_full_report_is_pinned(jobs):
    rep = verify_all(RunConfig(jobs=jobs))
    assert len(rep.records) == 382
    assert hashlib.sha256(report.emit(rep.records)).hexdigest() == \
        FULL_REPORT_SHA256
    assert rep.exit_code == 0
