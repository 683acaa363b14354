"""Command line surface.

Each subcommand is driven through main() with captured stdout, checking
the documented exit codes: 0 all pass, 1 any failed claim, 2 bad
configuration or a library refusal.
"""

import dataclasses
import json

import pytest

from heckeverify import cases, cli, hecke, report
from heckeverify.rootsystem import build, parse_type
from heckeverify.verify import RunConfig, VerificationReport


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv)
    return rc, json.loads(out), err


# ---------------------------------------------------------------------------


def test_roots_text(capsys):
    rc, out, _ = run(capsys, "roots", "G2")
    lines = out.splitlines()
    assert rc == 0
    assert len(lines) == 6 + 2
    assert lines[-2] == "highest: 3 2"
    assert lines[-1] == "degrees: 2 6"


def test_roots_json(capsys):
    rc, data, _ = run_json(capsys, "roots", "B3", "--format", "json")
    assert rc == 0
    assert len(data["positive_roots"]) == 9
    assert data["degrees"] == [2, 4, 6]
    assert data["center_order"] == 2


def test_roots_bad_type(capsys):
    rc, _, err = run(capsys, "roots", "H3")
    assert rc == 2
    assert "hecke-verify:" in err


def test_weyl_default_includes_everything(capsys):
    rc, data, _ = run_json(capsys, "weyl", "G2")
    assert rc == 0
    assert data["order"] == 12
    assert data["poincare"][0] == 1 and len(data["poincare"]) == 7
    assert data["valid_orders"] == [4, 5]
    assert data["irr_count"] == 6


def test_weyl_single_flag_limits_output(capsys):
    rc, data, _ = run_json(capsys, "weyl", "E7", "--orders")
    assert rc == 0
    assert data["valid_orders"] == [11, 13, 15, 16, 17]
    assert "poincare" not in data and "irr_count" not in data


def test_partitions_requires_a_request(capsys):
    rc, _, err = run(capsys, "partitions")
    assert rc == 2 and "nothing to do" in err


def test_partitions_values_and_check(capsys):
    rc, data, _ = run_json(capsys, "partitions", "--p", "9",
                           "--typeD", "6", "--check", "30")
    assert rc == 0
    assert data["p"]["value"] == 30
    assert data["typeD"] == {"n": 6, "count": 37, "bound": 48}
    assert all(r["holds"] for r in data["inequalities"])


def test_torus_exponent_classes(capsys):
    rc, data, _ = run_json(capsys, "torus", "G2", "--order", "4",
                           "--point", "mixed", "--show-centralizer")
    assert rc == 0
    assert sorted(data["roots_by_exponent"]) == ["0", "1", "2", "3"]
    assert data["roots_by_exponent"]["0"] == [[-1, -1], [1, 1]]
    assert "A1" in data["centralizer_signature"]


def test_torus_mixed_rejects_simply_laced(capsys):
    rc, _, err = run(capsys, "torus", "A2", "--order", "3", "--point", "mixed")
    assert rc == 2 and "one root length" in err


def test_orbits_detailed_case(capsys):
    rc, data, _ = run_json(capsys, "orbits", "E6", "--order", "7")
    assert rc == 0
    assert [r["status"] for r in data] == ["pass"] * 5
    bound = data[-1]
    assert bound["expected"] == 36 and bound["computed"] == 36


def test_orbits_refusals_keep_their_wording(capsys):
    rc, _, err = run(capsys, "orbits", "A3", "--order", "3")
    assert rc == 2 and "Poincare sum of A3 vanishes" in err
    rc, _, err = run(capsys, "orbits", "E6", "--order", "1")
    assert rc == 2 and "order 1 makes the (q-1) factor vanish" in err
    rc, _, err = run(capsys, "orbits", "E6", "--order", "13")
    assert rc == 2 and "not a valid order for E6" in err


def test_orbits_joint_counts_recorded_group(capsys):
    rc, data, _ = run_json(capsys, "orbits", "E8", "--order", "16",
                           "--joint", "1,3")
    assert rc == 0
    assert data["modules"] == ["M1", "M3"]
    assert set(data["counts"].values()) == {7}
    assert data["stable"] is True


def test_orbits_refuses_primes_that_are_not_one_mod_the_order(capsys):
    rc, out, err = run(capsys, "orbits", "E6", "--order", "7",
                       "--primes", "29,11")
    assert rc == 2 and out == ""
    assert "11 is not an admissible prime for order 7" in err
    rc, _, err = run(capsys, "orbits", "E6", "--order", "7",
                     "--primes", "29,57")     # 57 = 3 * 19 is 1 mod 7
    assert rc == 2 and "57 is not an admissible prime" in err


def test_orbits_joint_needs_two_admissible_primes(capsys):
    rc, _, err = run(capsys, "orbits", "E6", "--order", "7",
                     "--joint", "1", "--primes", "29")
    assert rc == 2 and "at least two distinct primes" in err
    rc, _, err = run(capsys, "orbits", "E6", "--order", "7",
                     "--joint", "1", "--primes", "5,29")
    assert rc == 2 and "5 is not an admissible prime for order 7" in err
    rc, data, _ = run_json(capsys, "orbits", "E6", "--order", "7",
                           "--joint", "1", "--primes", "29,43")
    assert rc == 0 and list(data["counts"]) == ["29", "43"]


def test_orbits_joint_refuses_an_invalid_order(capsys):
    rc, out, err = run(capsys, "orbits", "E6", "--order", "13",
                       "--joint", "1")
    assert rc == 2 and out == ""
    assert "order 13 is not a valid order for E6" in err


def test_orbits_joint_bad_index(capsys):
    rc, _, err = run(capsys, "orbits", "E6", "--order", "7",
                     "--joint", "1,9")
    assert rc == 2 and "M9" in err


def test_orbits_joint_names_plain_table_components(capsys):
    rc, data, _ = run_json(capsys, "orbits", "E6", "--order", "10",
                           "--joint", "1,3")
    assert rc == 0
    assert data["modules"] == ["C1", "C3"]
    assert set(data["counts"].values()) == {4}
    rc, _, err = run(capsys, "orbits", "E6", "--order", "10",
                     "--joint", "1,99")
    assert rc == 2 and "out of range" in err and "6 submodules" in err


def test_orbits_joint_table_mismatch_exits_one(capsys, monkeypatch):
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
    rc, out, err = run(capsys, "orbits", "E6", "--order", "7", "--joint", "1")
    assert rc == 1 and out == ""
    assert "component mismatch for E6.o7" in err


def test_orbits_rejects_repeated_or_empty_picks(capsys):
    rc, out, err = run(capsys, "orbits", "E6", "--order", "7",
                       "--joint", "1,1")
    assert rc == 2 and out == "" and "M1 names a module twice" in err
    rc, out, err = run(capsys, "orbits", "E6", "--order", "7", "--joint", "")
    assert rc == 2 and out == "" and "empty grouping" in err
    rc, out, err = run(capsys, "orbits", "E6", "--order", "7", "--primes", "")
    assert rc == 2 and out == "" and "at least two distinct primes" in err


@pytest.mark.parametrize("flag,name,value", [
    ("--state-budget", "state_budget", "-5")])
@pytest.mark.parametrize("joint", [(), ("--joint", "1")])
def test_orbits_cap_and_budget_must_be_positive(capsys, flag, name, value,
                                                joint):
    rc, out, err = run(capsys, "orbits", "E6", "--order", "7", flag, value,
                       *joint)
    assert rc == 2 and out == ""
    assert f"{name} must be a positive integer, got {value}" in err


@pytest.mark.parametrize("argv", [
    ("verify", "--dim-cap", "12"),
    ("orbits", "E6", "--order", "7", "--cap", "12")])
def test_dimension_cap_flags_are_gone(capsys, argv):
    # the state budget alone sizes an orbit count
    with pytest.raises(SystemExit) as exit_:
        cli.main(list(argv))
    assert exit_.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_hecke_words(capsys):
    rc, data, _ = run_json(capsys, "hecke", "--type", "G2", "--check", "words")
    assert rc == 0
    assert [r["claim_id"] for r in data] == [
        "words/g2-x1", "words/g2-x2", "words/g2-lattice",
        "words/g2-commuting-wall"]
    assert all(r["status"] == "pass" for r in data)


def test_hecke_words_unknown_type(capsys):
    rc, _, err = run(capsys, "hecke", "--type", "D4", "--check", "words")
    assert rc == 2 and "no recorded words" in err


def test_hecke_theta_and_center_split_the_ball_records(capsys):
    rc, data, _ = run_json(capsys, "hecke", "--type", "A2", "--check", "theta",
                           "--radius", "1")
    assert rc == 0
    assert [r["claim_id"] for r in data] == [
        "A2.ball/theta-products", "A2.ball/theta-independence"]
    rc, data, _ = run_json(capsys, "hecke", "--type", "A2", "--check", "center",
                           "--radius", "1")
    assert rc == 0
    assert [r["claim_id"] for r in data] == ["A2.ball/central-sums"]


def test_hecke_ddprime(capsys):
    rc, data, _ = run_json(capsys, "hecke", "--type", "B2", "--check", "ddprime")
    assert rc == 0
    assert data[0]["status"] == "pass"
    # the same record as the sweep's B2.ddprime unit, product check included
    assert data[0]["claim_id"] == "B2.ddprime/eigen"
    assert data[0]["computed"]["product_zero"] is True


def test_hecke_ddprime_over_the_cap_is_a_refusal(capsys):
    # nothing is computed over the cap, so no claim can have failed
    rc, out, err = run(capsys, "hecke", "--type", "E6", "--check", "ddprime")
    assert rc == 2 and out == ""
    assert "DD_RANK_CAP" in err


def test_hecke_ddprime_relation_failure_is_a_failed_record(capsys, monkeypatch):
    rs = build(parse_type("A1"))
    monkeypatch.setattr(hecke, "hecke_mul",
                        lambda a, b: hecke.HeckeElement(rs))
    rc, data, _ = run_json(capsys, "hecke", "--type", "A1", "--check", "ddprime")
    assert rc == 1
    assert [r["status"] for r in data] == ["fail"]
    assert "eigen-relation" in data[0]["statement"]


def test_hecke_rank_cap(capsys):
    rc, _, err = run(capsys, "hecke", "--type", "A3", "--check", "theta")
    assert rc == 2 and "rank" in err


@pytest.mark.parametrize("radius", ["0", "-1"])
def test_hecke_ball_radius_must_be_positive(capsys, radius):
    rc, out, err = run(capsys, "hecke", "--type", "A2", "--check", "theta",
                       "--radius", radius)
    assert rc == 2 and "radius" in err
    assert out == ""


# ---------------------------------------------------------------------------
# verify


def test_verify_selected_case_text(capsys):
    rc, out, _ = run(capsys, "verify", "--case", "A2.roots",
                     "--format", "text")
    assert rc == 0
    assert "A2.roots/data" in out
    assert "pass: 1  fail: 0" in out


def test_verify_refuses_an_unknown_format(capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main(["verify", "--case", "A2.roots", "--format", "xml"])
    assert exit_.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_verify_selected_case_json_lines(capsys):
    rc, out, _ = run(capsys, "verify", "--case", "A2.roots",
                     "--case", "partitions.values")
    assert rc == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert [r["claim_id"] for r in recs] == [
        "A2.roots/data", "partitions.values/tables"]
    assert all(list(r) == list(report.FIELD_ORDER) for r in recs)


def test_verify_unknown_case(capsys):
    rc, _, err = run(capsys, "verify", "--case", "Z9.o1")
    assert rc == 2 and "Z9.o1" in err


@pytest.mark.parametrize("flag", ["--config f.json", "--prime-bound 100",
                                  "--enum-budget 5", "--ball-radius 1"])
def test_removed_verify_flags_exit_2(capsys, flag):
    # the Weyl budget, prime bound and ball radius are engine constants and
    # there is no configuration file
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--case", "A2.roots", *flag.split()])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_bad_flag_value(capsys):
    rc, _, err = run(capsys, "verify", "--jobs", "0")
    assert rc == 2 and "jobs" in err


def test_verify_exit_one_on_failure(capsys, monkeypatch):
    bad = report.make_record(
        stage="weyl", case="X", name="broken", anchor="t", statement="s",
        expected=1, computed=2, status="fail")
    fake = VerificationReport(config=RunConfig(), records=(bad,))
    monkeypatch.setattr(cli, "verify_all", lambda cfg: fake)
    rc, out, _ = run(capsys, "verify")
    assert rc == 1
    assert json.loads(out.splitlines()[0])["status"] == "fail"
