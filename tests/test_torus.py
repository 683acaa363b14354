"""Torus points, exponent classes, centralizer signatures, conjugacy.

The standard point sends every simple root to q, so exponents of positive
roots are their heights; that gives cheap independent oracles for most of
these tests.
"""

import json
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

from heckeverify.rootsystem import parse_type, build
from heckeverify.weyl import WeylBudgetError, valid_orders
from heckeverify.torus import (
    INFINITE, TorusError, TorusPoint, standard_point, mixed_point,
    center_representatives, central_twist, roots_with_exponent,
    centralizer_roots, centralizer_signature, conjugate_in_G,
    verify_mixed_nonconjugacy, count_one_dim_characters,
)


def rs_of(name):
    return build(parse_type(name))


# ---------------------------------------------------------------------------
# evaluation


def test_standard_exponents_are_heights():
    for name in ["A3", "B3", "F4", "E6"]:
        rs = rs_of(name)
        s = standard_point(rs, 1000)  # large modulus: no wraparound
        for r in rs.positive_roots:
            assert s.eval_exponent(r) == rs.height(r)


def test_e8_highest_root_mod_11():
    rs = rs_of("E8")
    s = standard_point(rs, 11)
    assert rs.height(rs.highest_root) == 29
    assert s.eval_exponent(rs.highest_root) == 7


def test_b2_wraparound():
    rs = rs_of("B2")
    s = standard_point(rs, 3)
    assert s.eval_exponent((1, 2)) == 0


def test_exponents_negate():
    rs = rs_of("C3")
    s = standard_point(rs, 5)
    for r in rs.positive_roots:
        neg = tuple(-c for c in r)
        assert (s.eval_exponent(r) + s.eval_exponent(neg)) % 5 == 0


def test_eval_additive_on_root_sums():
    rs = rs_of("F4")
    s = standard_point(rs, 7)
    for a in rs.positive_roots:
        for b in rs.positive_roots:
            tot = tuple(x + y for x, y in zip(a, b))
            if rs.is_root(tot):
                assert (s.eval_exponent(a) + s.eval_exponent(b)) % 7 == \
                    s.eval_exponent(tot)


def test_custom_assignment():
    rs = rs_of("G2")
    s = standard_point(rs, 4, assignment=[1, -1])
    assert s.eval_exponent((1, 0)) == 1
    assert s.eval_exponent((0, 1)) == 3  # -1 mod 4
    assert s.eval_exponent((1, 1)) == 0


def test_order_validation():
    rs = rs_of("A2")
    with pytest.raises(TorusError):
        standard_point(rs, 0)
    with pytest.raises(TorusError):
        standard_point(rs, Fraction(3, 2))
    with pytest.raises(TorusError, match="None for the infinite order"):
        standard_point(rs, float("inf"))
    with pytest.raises(TorusError):
        standard_point(rs, 5, assignment=[1])


# ---------------------------------------------------------------------------
# exponent classes


def test_regular_beyond_max_exponent():
    for name in ["A4", "B4", "D5", "F4"]:
        rs = rs_of(name)
        s = standard_point(rs, rs.max_exponent() + 1)
        assert roots_with_exponent(rs, s, 0) == []
        assert not centralizer_roots(rs, s)
        # at modulus exactly max_exponent+1 the lowest root wraps to
        # exponent 1, so the clean statement needs one more
        s2 = standard_point(rs, rs.max_exponent() + 2)
        assert set(roots_with_exponent(rs, s2, 1)) == set(rs.simples)
        lowest = tuple(-c for c in rs.highest_root)
        assert set(roots_with_exponent(rs, s, 1)) == set(rs.simples) | {lowest}


def _exponent_oracle(rs, s):
    """For each k, roots_with_exponent(rs, s, k) from the coweights
    themselves, in Fractions: <root, v> = sum_i root_i sum_j C_ij v_j."""
    def pairings(vec):
        simple = [sum(Fraction(rs.cartan[i][j]) * vec[j]
                      for j in range(rs.rank)) for i in range(rs.rank)]
        return [sum(c * x for c, x in zip(root, simple))
                for root in rs.all_roots]

    vals = pairings(s.vq)
    powers = ([t % 1 == 0 for t in pairings(s.tor)] if s.order is None
              else [True] * len(vals))

    def matching(k):
        k = Fraction(k)
        return [root for root, val, ok in zip(rs.all_roots, vals, powers)
                if ok and (val == k if s.order is None
                           else (val - k) % s.order == 0)]
    return matching


def _oracle_points(rs):
    yield standard_point(rs, INFINITE)
    # a torsion part that is not central: some roots take no power of q
    yield TorusPoint.make(rs, INFINITE, standard_point(rs, INFINITE).vq,
                          [Fraction(1, 2)] + [0] * (rs.rank - 1))
    yield standard_point(rs, INFINITE, [Fraction(1, 2)] * rs.rank)
    for z in center_representatives(rs)[1:]:
        yield central_twist(standard_point(rs, INFINITE), z)
    for m in (2, 3, 5, 7, 13, rs.max_exponent() + 1):
        yield standard_point(rs, m)
        yield standard_point(rs, m, [Fraction(1, 2)] + [1] * (rs.rank - 1))
        for z in center_representatives(rs)[1:]:
            yield central_twist(standard_point(rs, m), z)
    if len({rs.length_class(a) for a in rs.simples}) == 2:
        yield mixed_point(rs, 7)
        yield mixed_point(rs, INFINITE)


@pytest.mark.parametrize("name", ["E7", "D9", "B5", "F4", "G2"])
def test_roots_with_exponent_match_a_fraction_oracle(name):
    rs = rs_of(name)
    hits = 0
    for s in _oracle_points(rs):
        oracle = _exponent_oracle(rs, s)
        for k in (0, 1, -1, 2, Fraction(1, 2)):
            got = roots_with_exponent(rs, s, k)
            assert got == oracle(k), (s, k)
            hits += len(got)
    assert hits


def test_roots_with_exponent_past_int64_inputs():
    # numerators and moduli of 2^70 leave int64: decided in Python ints
    rs, big = rs_of("B5"), 2 ** 70
    points = [standard_point(rs, INFINITE, [big, -big, 1, 0, big + 1]),
              TorusPoint.make(rs, INFINITE, [big] * 5,
                              [Fraction(1, big)] + [0] * 4),
              standard_point(rs, 7, [Fraction(1, big + 1)] * 5)]
    hits = 0
    for s in points:
        oracle = _exponent_oracle(rs, s)
        for k in (0, 1, -1, big, 2 * big + 1, Fraction(1, big + 1)):
            got = roots_with_exponent(rs, s, k)
            assert got == oracle(k), (s, k)
            hits += len(got)
    assert hits


def test_exponent_classes_partition_all_roots():
    rs = rs_of("B3")
    s = standard_point(rs, 5)
    seen = []
    for k in range(5):
        seen.extend(roots_with_exponent(rs, s, k))
    assert sorted(seen) == sorted(rs.all_roots)


def test_classes_negate():
    rs = rs_of("E6")
    s = standard_point(rs, 7)
    plus = roots_with_exponent(rs, s, 2)
    minus = roots_with_exponent(rs, s, -2)
    assert sorted(tuple(-c for c in r) for r in plus) == sorted(minus)


def test_e6_order7_class_sizes():
    # centralizer is three pairs; the q-eigenspace has dimension 11
    rs = rs_of("E6")
    s = standard_point(rs, 7)
    assert len(roots_with_exponent(rs, s, 0)) == 6
    assert len(roots_with_exponent(rs, s, 1)) == 11


def test_infinite_order_standard():
    rs = rs_of("B4")
    s = standard_point(rs, INFINITE)
    assert roots_with_exponent(rs, s, 0) == []
    for r in rs.positive_roots:
        assert s.eval_exponent(r) == rs.height(r)


# ---------------------------------------------------------------------------
# centralizer signatures


def test_f4_order11_centralizer_is_highest_root_pair():
    rs = rs_of("F4")
    t = standard_point(rs, 11)
    got = centralizer_roots(rs, t)
    theta = rs.highest_root
    assert sorted(got) == sorted([theta, tuple(-c for c in theta)])
    sig = centralizer_signature(rs, t)
    assert sig.components == (("A", 1, 2, 2, 0),)


def test_f4_order5_centralizer_a2_plus_a1():
    # four positive roots of height 5 or 10: they form A2 + A1
    rs = rs_of("F4")
    t = standard_point(rs, 5)
    pos = [r for r in centralizer_roots(rs, t) if all(c >= 0 for c in r)]
    assert set(pos) == {(1, 2, 2, 0), (0, 1, 2, 2), (1, 3, 4, 2), (1, 1, 2, 1)}
    sig = centralizer_signature(rs, t)
    assert sig.components == (("A", 1, 2, 0, 2), ("A", 2, 6, 6, 0))


def test_g2_signatures():
    rs = rs_of("G2")
    t = standard_point(rs, 4)
    s = mixed_point(rs, 4)
    assert centralizer_roots(rs, t) == [(3, 1), (-3, -1)]
    assert sorted(centralizer_roots(rs, s)) == [(-1, -1), (1, 1)]
    assert centralizer_signature(rs, t).components == (("A", 1, 2, 2, 0),)
    assert centralizer_signature(rs, s).components == (("A", 1, 2, 0, 2),)


def test_signature_classifies_bigger_subsystems():
    # at m = height(theta) the centralizer contains +-theta and more
    rs = rs_of("B4")
    t = standard_point(rs, 3)
    sig = centralizer_signature(rs, t)
    assert sig.components  # nonempty
    total = sum(c[2] for c in sig.components)
    assert total == len(centralizer_roots(rs, t))


def test_mixed_point_requires_two_lengths():
    with pytest.raises(TorusError):
        mixed_point(rs_of("A3"), 5)
    with pytest.raises(TorusError):
        mixed_point(rs_of("E6"), 7)


# ---------------------------------------------------------------------------
# center and twists


def test_center_sizes():
    for name, want in [("A3", 4), ("B4", 2), ("C5", 2), ("D4", 4),
                       ("D5", 4), ("E6", 3), ("E7", 2), ("E8", 1),
                       ("F4", 1), ("G2", 1)]:
        assert len(center_representatives(rs_of(name))) == want, name


def test_central_twist_fixes_root_exponents():
    rs = rs_of("C4")
    s = standard_point(rs, 5)
    for z in center_representatives(rs):
        tw = central_twist(s, z)
        for r in rs.all_roots:
            assert tw.eval_exponent(r) == s.eval_exponent(r)


def test_central_twist_changes_the_point():
    rs = rs_of("B3")
    s = standard_point(rs, 7)
    z = center_representatives(rs)[1]
    assert central_twist(s, z).key() != s.key()


# ---------------------------------------------------------------------------
# conjugacy


def test_conjugate_reflexive():
    rs = rs_of("B2")
    s = standard_point(rs, 3)
    assert conjugate_in_G(rs, s, s)


def test_conjugate_to_reflection_image():
    rs = rs_of("B2")
    s = standard_point(rs, 3)
    w_image = s.reflect(0).reflect(1).reflect(0)
    assert conjugate_in_G(rs, s, w_image)


def test_cn_central_twist_not_conjugate():
    for name, m in [("C3", 5), ("C4", 5), ("C4", 7), ("C5", 7)]:
        rs = rs_of(name)
        s = standard_point(rs, m)
        z = center_representatives(rs)[1]
        assert not conjugate_in_G(rs, s, central_twist(s, z)), (name, m)


def test_conjugacy_invariant_under_simultaneous_reflection():
    rs = rs_of("B3")
    s = standard_point(rs, 5)
    t = mixed_point(rs, 5)
    for pair in [(s, t), (s, central_twist(s, center_representatives(rs)[1]))]:
        base = conjugate_in_G(rs, *pair)
        moved = conjugate_in_G(rs, pair[0].reflect(2).reflect(0),
                               pair[1].reflect(2).reflect(0))
        assert base == moved


def test_conjugacy_mixed_orders_rejected():
    rs = rs_of("B2")
    with pytest.raises(TorusError):
        conjugate_in_G(rs, standard_point(rs, 3), standard_point(rs, 5))


def test_conjugacy_budget_refusal():
    rs = rs_of("E8")
    s = standard_point(rs, 11)
    with pytest.raises(WeylBudgetError, match="696729600"):
        conjugate_in_G(rs, s, s.reflect(0))
    rs8 = rs_of("B8")
    with pytest.raises(WeylBudgetError, match="10321920"):
        conjugate_in_G(rs8, standard_point(rs8, 9), mixed_point(rs8, 9))


def bfs_orbit(rs, point):
    """Keys of the Weyl orbit of a point by plain breadth-first search
    over simple reflections: the generic-q path the orbit engine replaced,
    run at every order."""
    seen = {point.key()}
    frontier = [point]
    while frontier:
        nxt = []
        for p in frontier:
            for i in range(rs.rank):
                r = p.reflect(i)
                if r.key() not in seen:
                    seen.add(r.key())
                    nxt.append(r)
        frontier = nxt
    return frozenset(seen)


@pytest.mark.parametrize("name", ["B2", "B3", "C3", "G2"])
def test_orbit_engine_matches_reflection_bfs(name):
    rs = rs_of(name)
    for m in sorted(valid_orders(rs)) + [INFINITE]:
        points = [central_twist(base, z)
                  for base in (standard_point(rs, m), mixed_point(rs, m))
                  for z in center_representatives(rs)]
        points += [pt.reflect(0).reflect(rs.rank - 1) for pt in points]
        orbits = [bfs_orbit(rs, pt) for pt in points]
        for a, orbit in zip(points, orbits):
            for b in points:
                assert conjugate_in_G(rs, a, b) == (b.key() in orbit), (name, m)
        # the character count's points are the first 2|Z|, before the images
        want = len(set(orbits[:len(points) // 2]))
        assert count_one_dim_characters(rs.rstype, m) == want, (name, m)


def test_character_count_refuses_over_budget():
    # every order but q = 1 needs the whole group, here of order 10321920,
    # over weyl.ENUM_BUDGET; q = 1 counts the center without enumerating
    with pytest.raises(WeylBudgetError, match="10321920"):
        count_one_dim_characters(parse_type("B8"), 9)
    assert count_one_dim_characters(parse_type("B8"), 1) == 2


def test_infinite_order_conjugacy():
    rs = rs_of("B2")
    s = standard_point(rs, INFINITE)
    image = s.reflect(0).reflect(1)
    assert conjugate_in_G(rs, s, image)
    assert not conjugate_in_G(rs, s, mixed_point(rs, INFINITE))


# ---------------------------------------------------------------------------
# the two verification entry points


@pytest.mark.parametrize("name", ["B2", "B3", "B4", "B5", "B6",
                                  "C3", "C4", "C5", "C6", "F4", "G2"])
def test_mixed_nonconjugacy_all_valid_orders(name):
    rst = parse_type(name)
    for m in sorted(valid_orders(build(rst))) + [INFINITE]:
        rec = verify_mixed_nonconjugacy(rst, m)
        assert rec["status"] == "pass", rec
        assert rec["computed"]["non_conjugate"] is True


def test_mixed_nonconjugacy_orbit_fallback_cases():
    # equal signatures at these orders: the orbit criterion must decide
    for name, m in [("C4", 5), ("C5", 7), ("C6", 7), ("C6", 9)]:
        rec = verify_mixed_nonconjugacy(parse_type(name), m)
        assert rec["status"] == "pass"
        assert rec["computed"]["criterion"] == "orbit", rec
        rs = rs_of(name)
        assert centralizer_signature(rs, standard_point(rs, m)) == \
            centralizer_signature(rs, mixed_point(rs, m))


def test_mixed_nonconjugacy_signature_cases():
    for name, m in [("B3", 5), ("F4", 5), ("F4", 11), ("G2", 4), ("G2", 5)]:
        rec = verify_mixed_nonconjugacy(parse_type(name), m)
        assert rec["status"] == "pass"
        assert rec["computed"]["criterion"] == "signature", rec


def test_mixed_nonconjugacy_invalid_order_skipped():
    rec = verify_mixed_nonconjugacy(parse_type("B3"), 4)
    assert rec["status"] == "skipped"


def test_character_count_goldens():
    assert count_one_dim_characters(parse_type("B3"), 7) == 4
    assert len(center_representatives(rs_of("B3"))) == 2
    assert count_one_dim_characters(parse_type("G2"), 7) == 2
    assert count_one_dim_characters(parse_type("G2"), 4) == 2


@pytest.mark.parametrize("name", ["B2", "B3", "B4", "B5", "B6",
                                  "C3", "C4", "C5", "C6", "F4", "G2"])
def test_character_count_is_twice_center(name):
    rst = parse_type(name)
    rs = build(rst)
    for m in sorted(valid_orders(rs)):
        count = count_one_dim_characters(rst, m)
        assert count == 2 * len(center_representatives(rs)), (name, m)


def test_character_count_q_one_model():
    for name in ["A3", "B4", "C5", "D5", "E6", "F4", "G2"]:
        rs = rs_of(name)
        assert count_one_dim_characters(parse_type(name), 1) == rs.center_order()


def test_character_count_refused_at_vanishing_order():
    with pytest.raises(TorusError, match="vanishes at order 4"):
        count_one_dim_characters(parse_type("B3"), 4)  # 4 divides degree 4


def test_character_count_simply_laced_rejected():
    with pytest.raises(TorusError):
        count_one_dim_characters(parse_type("A3"), 5)


# ---------------------------------------------------------------------------
# golden centralizer signatures

def _torus_units():
    """(case, type, order) of every torus unit of the default plan."""
    from heckeverify.verify import RunConfig, _plan
    return [(case, *args) for stage, case, _, args in _plan(RunConfig())
            if stage == "torus"]


def _signatures(name, m):
    rs = rs_of(name)
    return {point: centralizer_signature(rs, make(rs, m)).describe()
            for point, make in (("standard", standard_point),
                                ("mixed", mixed_point))}


@lru_cache(maxsize=None)
def _golden_signatures():
    # written by `python tests/test_torus.py` before the signature read
    # root ids
    return json.loads(
        Path(__file__).with_name("centralizer_signatures.json").read_text())


def test_every_torus_unit_has_a_golden_signature():
    assert sorted(_golden_signatures()) == \
        sorted(c for c, _, _ in _torus_units())


@pytest.mark.parametrize("case,name,m", _torus_units())
def test_centralizer_signatures_match_their_goldens(case, name, m):
    assert _signatures(name, m) == _golden_signatures()[case]


if __name__ == "__main__":
    json.dump({case: _signatures(name, m) for case, name, m in _torus_units()},
              sys.stdout, indent=1, sort_keys=True)
    print()
