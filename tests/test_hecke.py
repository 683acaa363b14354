"""Extended affine Weyl group and Hecke arithmetic.

Independent oracles used here: the closed form l(t_x) = sum over positive
roots of |<x, a^>| for the length of a translation, the group-algebra
product at q = 1, and brute-force length additivity over the whole finite
group for the dominance criterion.  Everything else is pinned to small
hand-checkable values.
"""

import random

import pytest

from heckeverify.rootsystem import parse_type, build
from heckeverify.weyl import WeylElement, enumerate_group
from heckeverify.hecke import (
    HeckeError, Laurent, L_ONE, L_Q, L_QINV, L_QM1,
    ExtAffine, ext_identity, ext_translation, length, is_dominant,
    highest_short_root, affine_generators, omega_group, tau_rotation,
    HeckeElement, hecke_mul, basis_inverse, theta, weyl_orbit, central_sum,
    build_D_Dprime, braid_classes, one_dim_character,
    verify_translation_words, verify_bernstein,
    PRODUCT_RANK_CAP, DD_RANK_CAP,
)


def rs_of(name):
    return build(parse_type(name))


# ---------------------------------------------------------------------------
# scalars


def test_laurent_arithmetic():
    q = Laurent({2: 1})
    assert q * q == Laurent({4: 1})
    assert q + q == Laurent({2: 2})
    assert q - q == Laurent()
    assert not (q - q)
    assert (-q) + q == Laurent()
    assert q.shift(-2) == L_ONE
    assert L_QM1.at_q1() == 0
    assert Laurent({3: 2}).at_q1() == 2


def test_q_power_accepts_halves():
    assert Laurent.q_power(1) == L_Q
    assert Laurent.q_power(-1) == L_QINV
    from fractions import Fraction
    assert Laurent.q_power(Fraction(1, 2)) == Laurent({1: 1})
    with pytest.raises(HeckeError, match="half-integer"):
        Laurent.q_power(Fraction(1, 3))


# ---------------------------------------------------------------------------
# the extended group


def test_translation_additivity():
    rs = rs_of("B2")
    a = ext_translation(rs, (2, -1))
    b = ext_translation(rs, (-3, 4))
    assert a * b == ext_translation(rs, (-1, 3))
    assert b * a == a * b
    assert (a * a.inverse()).is_identity()


def test_group_law_associative_random():
    rng = random.Random(11)
    for name in ("A2", "B2", "G2"):
        rs = rs_of(name)
        gens = affine_generators(rs.rstype)
        pool = [ext_identity(rs)]
        for _ in range(12):
            e = ext_identity(rs)
            for _ in range(rng.randrange(1, 6)):
                e = e * gens[rng.randrange(len(gens))]
            pool.append(e)
        for _ in range(60):
            a, b, c = (rng.choice(pool) for _ in range(3))
            assert (a * b) * c == a * (b * c)


def test_inverse_round_trip():
    rs = rs_of("G2")
    gens = affine_generators(rs.rstype)
    e = gens[0] * gens[1] * gens[2] * gens[1]
    assert (e * e.inverse()).is_identity()
    assert (e.inverse() * e).is_identity()
    assert e.inverse().inverse() == e


def test_conjugating_translation_moves_the_weight():
    # w t_x w^{-1} = t_{w(x)}
    rs = rs_of("B2")
    for w in enumerate_group(rs):
        e = ExtAffine(w, (0, 0))
        t = ext_translation(rs, (1, -2))
        conj = e * t * e.inverse()
        assert conj.w.is_identity()
        assert conj.x == tuple(int(a) for a in w.apply_weight((1, -2)))


# ---------------------------------------------------------------------------
# length


def translation_length_oracle(rs, x):
    return sum(abs(rs.coroot_pairing(x, a)) for a in rs.positive_roots)


def test_length_of_identity_and_generators():
    for name in ("A1", "A2", "B2", "G2", "A3"):
        rs = rs_of(name)
        assert length(ext_identity(rs)) == 0
        for g in affine_generators(rs.rstype):
            assert length(g) == 1


def test_length_matches_finite_length():
    rs = rs_of("B3")
    zero = (0,) * rs.rank
    for w in enumerate_group(rs):
        assert length(ExtAffine(w, zero)) == w.length()


def test_translation_length_closed_form():
    for name in ("A2", "B2", "G2", "A3", "C3"):
        rs = rs_of(name)
        for x in [(1,) + (0,) * (rs.rank - 1), (0,) * (rs.rank - 1) + (2,),
                  (1,) * rs.rank, (-1, 2) + (0,) * (rs.rank - 2)]:
            assert length(ext_translation(rs, x)) == \
                translation_length_oracle(rs, x)


def test_type_a_fundamental_translation_lengths():
    # l(x_i) = i(n+1-i)
    for n in range(1, 7):
        rs = rs_of(f"A{n}")
        for i in range(1, n + 1):
            x = tuple(int(j == i - 1) for j in range(n))
            assert length(ext_translation(rs, x)) == i * (n + 1 - i)


def test_dominance_is_length_additivity():
    for name in ("A2", "B2"):
        rs = rs_of(name)
        for x in [(1, 0), (0, 2), (1, 1), (0, 0), (-1, 0), (1, -1), (-2, 3)]:
            t = ext_translation(rs, x)
            lt = length(t)
            additive = all(
                length(ExtAffine(w, (0, 0)) * t) == w.length() + lt
                for w in enumerate_group(rs))
            assert additive == is_dominant(rs, x)


# ---------------------------------------------------------------------------
# affine generators, length-zero subgroup


def test_highest_short_root_values():
    assert highest_short_root(rs_of("A2")) == (1, 1)
    assert highest_short_root(rs_of("B2")) == (1, 1)
    assert highest_short_root(rs_of("B3")) == (1, 1, 1)
    assert highest_short_root(rs_of("C3")) == (1, 2, 1)
    assert highest_short_root(rs_of("G2")) == (2, 1)
    assert highest_short_root(rs_of("F4")) == (1, 2, 3, 2)
    # simply laced: coincides with the highest root
    assert highest_short_root(rs_of("D4")) == rs_of("D4").highest_root


def test_affine_generator_is_an_involution():
    for name in ("A2", "B2", "G2", "F4"):
        rs = rs_of(name)
        r0 = affine_generators(rs.rstype)[0]
        assert (r0 * r0).is_identity()
        assert not r0.is_identity()


def test_omega_sizes_match_the_cartan_determinant():
    sizes = {"A1": 2, "A2": 3, "A3": 4, "B2": 2, "B3": 2, "C3": 2,
             "D4": 4, "G2": 1, "F4": 1}
    for name, want in sizes.items():
        om = omega_group(parse_type(name))
        assert len(om) == want
        assert all(length(e) == 0 for e in om)


def test_omega_is_closed_under_product():
    om = set(omega_group(parse_type("A3")))
    for a in om:
        assert a.inverse() in om
        for b in om:
            assert a * b in om


def test_tau_rotation():
    for n in (1, 2, 3):
        rstype = parse_type(f"A{n}")
        rs = rs_of(f"A{n}")
        tau = tau_rotation(rstype)
        gens = affine_generators(rstype)
        inv = tau.inverse()
        for i in range(n + 1):
            assert tau * gens[(i + 1) % (n + 1)] * inv == gens[i]
        e = ext_identity(rs)
        for _ in range(n + 1):
            e = e * tau
        assert e.is_identity()


def test_no_rotation_without_a_center():
    with pytest.raises(HeckeError, match="rotation"):
        tau_rotation(parse_type("G2"))


# ---------------------------------------------------------------------------
# products


def test_quadratic_relation_every_generator():
    for name in ("A2", "B2", "G2"):
        rs = rs_of(name)
        one = HeckeElement.unit(rs)
        for g in affine_generators(rs.rstype):
            t = HeckeElement.basis(rs, g)
            assert hecke_mul(t, t) == t.scale(L_QM1) + one.scale(L_Q)


def test_length_additive_products_concatenate():
    rs = rs_of("B2")
    gens = affine_generators(rs.rstype)
    for word in [(1, 2), (2, 1), (0, 1), (1, 2, 1), (0, 1, 2, 1)]:
        e = ext_identity(rs)
        h = HeckeElement.unit(rs)
        ok = True
        for j in word:
            nxt = e * gens[j]
            ok = ok and length(nxt) == length(e) + 1
            e = nxt
            h = hecke_mul(h, HeckeElement.basis(rs, gens[j]))
        assert ok, f"{word} is not reduced"
        assert h == HeckeElement.basis(rs, e)


def test_basis_inverse_both_sides():
    rs = rs_of("G2")
    gens = affine_generators(rs.rstype)
    one = HeckeElement.unit(rs)
    samples = [gens[0], gens[1], gens[2],
               gens[1] * gens[2], gens[0] * gens[1] * gens[2],
               ext_translation(rs, (1, 0)), ext_translation(rs, (1, 1))]
    for e in samples:
        t = HeckeElement.basis(rs, e)
        inv = basis_inverse(rs, e)
        assert hecke_mul(t, inv) == one
        assert hecke_mul(inv, t) == one


def test_omega_basis_elements_multiply_like_the_group():
    rs = rs_of("A2")
    for a in omega_group(rs.rstype):
        for b in omega_group(rs.rstype):
            got = hecke_mul(HeckeElement.basis(rs, a),
                            HeckeElement.basis(rs, b))
            assert got == HeckeElement.basis(rs, a * b)


def random_element(rs, gens, rng):
    terms = {}
    for _ in range(rng.randrange(1, 4)):
        e = ext_identity(rs)
        for _ in range(rng.randrange(0, 5)):
            e = e * gens[rng.randrange(len(gens))]
        c = Laurent({rng.randrange(-2, 3): rng.randrange(-3, 4)})
        if not c:
            c = L_ONE
        got = terms.get(e)
        terms[e] = c if got is None else got + c
    return HeckeElement(rs, terms)


def test_product_associative_random():
    rng = random.Random(29)
    for name in ("A2", "B2", "G2"):
        rs = rs_of(name)
        gens = affine_generators(rs.rstype)
        for _ in range(100):
            a, b, c = (random_element(rs, gens, rng) for _ in range(3))
            assert hecke_mul(hecke_mul(a, b), c) == hecke_mul(a, hecke_mul(b, c))


def group_algebra_mul(a: dict, b: dict) -> dict:
    out = {}
    for e, m in a.items():
        for f, k in b.items():
            g = e * f
            out[g] = out.get(g, 0) + m * k
    return {e: k for e, k in out.items() if k}


def test_specialization_at_q1_is_the_group_algebra():
    rng = random.Random(43)
    for name in ("A2", "B2"):
        rs = rs_of(name)
        gens = affine_generators(rs.rstype)
        for _ in range(40):
            a = random_element(rs, gens, rng)
            b = random_element(rs, gens, rng)
            assert hecke_mul(a, b).at_q1() == \
                group_algebra_mul(a.at_q1(), b.at_q1())


def test_term_budget_refusal():
    rs = rs_of("A2")
    d, _ = build_D_Dprime(rs)
    with pytest.raises(HeckeError, match="3-term budget"):
        hecke_mul(d, d, term_budget=3)


def test_factors_must_share_the_root_system():
    a = HeckeElement.unit(rs_of("A2"))
    b = HeckeElement.unit(rs_of("B2"))
    with pytest.raises(HeckeError, match="different root systems"):
        hecke_mul(a, b)


# ---------------------------------------------------------------------------
# Bernstein elements


def test_theta_unit_and_dominant_normalization():
    for name in ("A2", "B2", "G2"):
        rs = rs_of(name)
        assert theta(rs, (0,) * rs.rank) == HeckeElement.unit(rs)
        for x in [(1, 0), (0, 1), (2, 1)]:
            t = ext_translation(rs, x)
            want = HeckeElement.basis(rs, t, Laurent({-length(t): 1}))
            assert theta(rs, x) == want


def test_theta_inverse_pairs():
    for name in ("A2", "B2"):
        rs = rs_of(name)
        one = HeckeElement.unit(rs)
        for x in [(1, 0), (0, 1), (1, -1), (2, -1)]:
            neg = tuple(-a for a in x)
            assert hecke_mul(theta(rs, x), theta(rs, neg)) == one


def test_theta_simple_root_formula():
    # a1 = 2w1 - w2 in type A2, so theta_{a1} = q^{-1} T_{x1}^2 T_{x2}^{-1}
    rs = rs_of("A2")
    assert tuple(rs.cartan[0]) == (2, -1)
    t1 = HeckeElement.basis(rs, ext_translation(rs, (1, 0)))
    got = hecke_mul(hecke_mul(t1, t1),
                    basis_inverse(rs, ext_translation(rs, (0, 1))))
    assert theta(rs, (2, -1)) == got.scale(L_QINV)


def test_theta_rank_cap():
    with pytest.raises(HeckeError, match=f"rank-{PRODUCT_RANK_CAP}"):
        theta(rs_of("A3"), (0, 0, 0))
    with pytest.raises(HeckeError, match=f"rank-{PRODUCT_RANK_CAP}"):
        verify_bernstein("A3")


def test_weyl_orbit_sizes():
    rs = rs_of("B2")
    assert len(weyl_orbit(rs, (1, 0))) == 4
    assert len(weyl_orbit(rs, (0, 1))) == 4
    assert len(weyl_orbit(rs, (1, 1))) == 8
    assert weyl_orbit(rs, (0, 0)) == [(0, 0)]


def test_central_sum_requires_dominant():
    with pytest.raises(HeckeError, match="not dominant"):
        central_sum(rs_of("A2"), (-1, 0))


def test_central_sum_commutes_in_a2():
    rs = rs_of("A2")
    s = central_sum(rs, (1, 0))
    for g in affine_generators(rs.rstype):
        t = HeckeElement.basis(rs, g)
        assert hecke_mul(t, s) == hecke_mul(s, t)


# ---------------------------------------------------------------------------
# spanning sums


def test_spanning_sums_build_and_annihilate():
    for name in ("A1", "A2", "B2", "G2", "A3", "B3"):
        rs = rs_of(name)
        d, dp = build_D_Dprime(rs)       # raises if an eigen-relation fails
        assert len(d) == rs.weyl_order()
        assert len(dp) == rs.weyl_order()
        assert all(k == 1 for k in d.at_q1().values())
    for name in ("A1", "A2"):
        rs = rs_of(name)
        d, dp = build_D_Dprime(rs)
        assert hecke_mul(d, dp).is_zero()
        assert hecke_mul(dp, d).is_zero()


def test_spanning_sum_rank_cap():
    with pytest.raises(HeckeError, match=f"rank-{DD_RANK_CAP}"):
        build_D_Dprime(rs_of("B4"))


# ---------------------------------------------------------------------------
# one-dimensional characters


def test_braid_classes():
    assert braid_classes(parse_type("A1")) == [(0,), (1,)]
    assert braid_classes(parse_type("A2")) == [(0, 1, 2)]
    assert braid_classes(parse_type("A3")) == [(0, 1, 2, 3)]
    assert braid_classes(parse_type("B2")) == [(0,), (1,), (2,)]
    assert braid_classes(parse_type("B3")) == [(0,), (1, 2), (3,)]
    assert braid_classes(parse_type("B4")) == [(0,), (1, 2, 3), (4,)]
    assert braid_classes(parse_type("F4")) == [(0, 3, 4), (1, 2)]
    assert braid_classes(parse_type("G2")) == [(0, 1), (2,)]


def test_type_a_characters_are_constant():
    for n in (1, 2, 3, 4):
        all_q = one_dim_character(f"A{n}", {i: "q" for i in range(n + 1)})
        assert all_q == {i: L_Q for i in range(1, n + 1)}
        all_m = one_dim_character(f"A{n}", {i: "-1" for i in range(n + 1)})
        assert all_m == {i: L_QINV for i in range(1, n + 1)}


def test_f4_mixed_character():
    got = one_dim_character(
        "F4", {0: "-1", 1: "q", 2: "q", 3: "-1", 4: "-1"})
    assert got == {1: L_Q, 2: L_Q, 3: L_QINV, 4: L_QINV}


def test_g2_mixed_character():
    got = one_dim_character("G2", {0: "q", 1: "q", 2: "-1"})
    assert got == {1: L_Q, 2: L_QINV}


def test_b_type_mixed_character():
    for n in (2, 3, 4):
        assign = {0: "-1", n: "-1"}
        assign.update({i: "q" for i in range(1, n)})
        got = one_dim_character(f"B{n}", assign)
        want = {i: L_Q for i in range(1, n)}
        want[n] = L_QINV
        assert got == want


def test_character_rejects_braid_inconsistency():
    with pytest.raises(HeckeError, match="braid-linked"):
        one_dim_character("A2", {0: "q", 1: "q", 2: "-1"})


def test_character_rejects_bad_input():
    with pytest.raises(HeckeError, match="cover generator indices"):
        one_dim_character("A2", {0: "q", 1: "q"})
    with pytest.raises(HeckeError, match="must be 'q' or '-1'"):
        one_dim_character("A2", {0: "2", 1: "2", 2: "2"})


# ---------------------------------------------------------------------------
# recorded words and the rank-2 ball


def test_translation_words_all_pass():
    records = verify_translation_words()
    assert len(records) == 15
    assert all(r["status"] == "pass" for r in records)
    names = {r["claim_id"] for r in records}
    assert "words/a4-x2" in names
    assert "words/f4-x4" in names
    assert "words/g2-x1" in names
    assert "words/g2-lattice" in names
    assert "words/g2-commuting-wall" in names


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_bernstein_ball(name):
    records = verify_bernstein(name)
    assert len(records) == 3
    assert [r["claim_id"] for r in records] == [
        f"{name}.ball/theta-products", f"{name}.ball/theta-independence",
        f"{name}.ball/central-sums"]
    for r in records:
        assert r["status"] == "pass", r
        assert r["computed"] == {"failures": 0}
