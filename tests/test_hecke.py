"""Extended affine Weyl group and Hecke arithmetic.

Independent oracles used here: the closed form l(t_x) = sum over positive
roots of |<x, a^>| for the length of a translation, the group-algebra
product at q = 1, and brute-force length additivity over the whole finite
group for the dominance criterion.  Everything else is pinned to small
hand-checkable values.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter

import pytest

from heckeverify import hecke
from heckeverify.rootsystem import parse_type, build
from heckeverify.verify import RunConfig, verify_all
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


@pytest.fixture
def fresh_tables(monkeypatch):
    """An empty registry of interned tables.  Cached Hecke elements and
    inverses carry their table, so the caches are cleared on set-up and
    again on teardown: nothing built over the temporary tables outlives
    them."""
    caches = (hecke._theta, hecke._theta_translated, hecke._basis_inverse,
              omega_group)
    for cached in caches:
        cached.cache_clear()
    monkeypatch.setattr(hecke, "_INTERNED", {})
    yield
    for cached in caches:
        cached.cache_clear()


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
    """sum over positive roots a of |<x, a^vee>|, with x in fundamental-weight
    coordinates and a^vee from coroot_coords (not the cached coroot table)."""
    return sum(abs(sum(p * c for p, c in zip(x, rs.coroot_coords(a))))
               for a in rs.positive_roots)


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


def test_omega_group_interns_no_candidate(fresh_tables):
    d4 = parse_type("D4")
    table = hecke._interned(d4)
    finite_ids = len(table.perms)
    assert len(omega_group(d4)) == 4
    assert [table.elem(k) for k in range(len(table.codes))] == [
        ext_identity(build(d4))]
    assert len(table.perms) == finite_ids


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
# table fills by descent tests

DESCENT_TYPES = ["A1", "A2", "B2", "G2", "B3", "C3", "F4", "B6"]


def random_ext(rs, rng):
    word = [rng.randrange(rs.rank) for _ in range(rng.randrange(16))]
    return ExtAffine(WeylElement.from_word(rs, word),
                     tuple(rng.randrange(-3, 4) for _ in range(rs.rank)))


@pytest.mark.parametrize("name", DESCENT_TYPES)
def test_descent_test_and_neighbours_match_the_group_law(name):
    rng = random.Random(2422)
    rs = rs_of(name)
    g = hecke._interned(rs.rstype)
    gens = affine_generators(rs.rstype)
    for _ in range(40):
        e = random_ext(rs, rng)
        le = hecke._length(e)
        k = g.id(e)
        for i, r in enumerate(gens):
            for left in (False, True):
                prod = r * e if left else e * r
                lp = hecke._length(prod)
                assert abs(lp - le) == 1
                assert g.descends(e.w.perm, e.x, i, left) == (
                    lp < le), (e, i, left)
                s = g.step(k, i, left)
                assert g.elem(s >> 1) == prod
                assert g.lengths[s >> 1] == lp
                assert s & 1 == (lp > le)


def test_stored_lengths_after_units_equal_the_root_sum(fresh_tables):
    cfg = RunConfig(cases=("hecke.characters", "A2.ball"))
    assert all(r["status"] == "pass" for r in verify_all(cfg).records)
    assert sum(len(g.codes) for g in hecke._INTERNED.values()) > 1000
    for g in hecke._INTERNED.values():
        for k, got in enumerate(g.lengths):
            e = g.elem(k)
            assert got == hecke._length(e), e


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "B3", "F4"])
def test_factor_is_a_reduced_word_after_a_length_zero_part(name):
    rng = random.Random(1106)
    rs = rs_of(name)
    gens = affine_generators(rs.rstype)
    for _ in range(25):
        e = random_ext(rs, rng)
        om, word = hecke._factor(e)
        assert length(om) == 0
        assert len(word) == length(e)
        got = om
        for j in word:
            got = got * gens[j]
        assert got == e


# reduced words of t_{alpha_i}, i = 1..n, computed before table fills took
# their lengths from the descent test; the length-zero part is the identity
GOLDEN_WORDS = {
    "B6": ("2345601234564534231201", "3456101234564534231012",
           "4562101234564534210123", "5632101234564532101234",
           "6432101234564321012345", "543210123456"),
    "F4": ("2342304231234123042321", "3412304231234123042312",
           "4231230432304123", "3231230432312304"),
    "G2": ("201201", "1201212012"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_WORDS))
def test_simple_root_translation_words_are_golden(name):
    rs = rs_of(name)
    for i, want in enumerate(GOLDEN_WORDS[name]):
        om, word = hecke._factor(ext_translation(rs, rs.cartan[i]))
        assert om.is_identity()
        assert "".join(map(str, word)) == want


def test_factor_walks_only_descents(monkeypatch):
    rs = rs_of("F4")
    g = hecke._Interned(rs.rstype)
    k = g.id(ext_translation(rs, rs.cartan[0]))   # from outside: summed once
    a2 = rs_of("A2")
    h = hecke._Interned(a2.rstype)
    t = h.id(ext_translation(a2, (2, -1)))
    om = h.id(omega_group(a2.rstype)[1])
    inv = h.id(omega_group(a2.rstype)[1].inverse())

    def refused(*args):
        raise AssertionError("a table fill rebuilt an element")

    monkeypatch.setattr(hecke, "_length", refused)
    monkeypatch.setattr(ExtAffine, "__mul__", refused)
    monkeypatch.setattr(WeylElement, "__mul__", refused)
    om_f4, word = g.factor(k)
    assert g.elem(om_f4).is_identity() and len(word) == g.lengths[k] == 22
    # the descent chain and nothing else: the chain ends at the identity,
    # which was interned first
    assert len(g.codes) == 1 + len(word)
    assert all(s == -1 for table in g.steps[True] for s in table)
    filled = [s for table in g.steps[False] for s in table if s >= 0]
    assert len(filled) == len(word)
    assert all(s & 1 == 0 for s in filled)
    # every other fill, on either side, stays off the group law too
    for i in range(rs.rank + 1):
        for left in (False, True):
            s = g.step(k, i, left)
            assert g.lengths[s >> 1] == 22 + (1 if s & 1 else -1)
    # and so do products with a length-zero element
    t_om, om_t = h.times(t, om), h.times(om, t)
    back = h.times(t_om, inv)
    monkeypatch.undo()
    assert h.elem(t_om) == h.elem(t) * h.elem(om)
    assert h.elem(om_t) == h.elem(om) * h.elem(t)
    assert back == t
    assert h.lengths[t_om] == h.lengths[om_t] == h.lengths[t]


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


def sampled_products(names, rounds=12):
    """Products of seeded random elements, taken round-robin over the
    types; each type draws from its own generator, so what it computes
    does not depend on which other types run alongside."""
    rngs = {name: random.Random(name) for name in names}
    out = {name: [] for name in names}
    for _ in range(rounds):
        for name in names:
            rs = rs_of(name)
            gens = affine_generators(rs.rstype)
            a, b = (random_element(rs, gens, rngs[name]) for _ in range(2))
            out[name].append(sorted(
                [[list(e.x), [list(r) for r in e.w.images], sorted(c.c.items())]
                 for e, c in hecke_mul(a, b).terms.items()]))
    return json.loads(json.dumps(out))


def test_products_do_not_leak_between_types_of_equal_rank():
    # A2 and G2 Weyl elements have images of the same shape; interleaved
    # products in this process must match each type computed alone in a
    # fresh one
    here = sampled_products(["A2", "G2"])
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    for name in ("G2", "A2"):
        code = (f"import sys, json; sys.path[:0] = {[tests_dir]!r}; "
                f"import conftest; from test_hecke import sampled_products; "
                f"print(json.dumps(sampled_products([{name!r}])))")
        fresh = subprocess.run([sys.executable, "-c", code], check=True,
                               capture_output=True, text=True)
        assert json.loads(fresh.stdout) == {name: here[name]}


def test_products_stay_on_element_ids(monkeypatch):
    # an ExtAffine is built (elem) or interned (id) only where an element
    # enters or leaves: never inside a product, and never on a warm ball
    rs = rs_of("A2")
    a, b = theta(rs, (1, -1)), theta(rs, (-2, 1))
    verify_bernstein("A2")          # warms every cache the ball reads
    calls = Counter()
    for name in ("elem", "id"):
        real = getattr(hecke._Interned, name)

        def spy(self, arg, _real=real, _name=name):
            calls[_name] += 1
            return _real(self, arg)

        monkeypatch.setattr(hecke._Interned, name, spy)
    assert len(hecke_mul(a, b)) > 1
    assert calls == {}
    assert all(r["status"] == "pass" for r in verify_bernstein("A2"))
    assert calls["elem"] == 0


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


@pytest.mark.parametrize("radius", [0, -1, 1.5, True])
def test_bernstein_ball_needs_a_positive_integer_radius(radius):
    with pytest.raises(HeckeError, match="radius"):
        verify_bernstein("A2", radius)


def test_theta_independence_fails_on_a_wrong_theta(monkeypatch):
    # theta_x compared with its rebuilds: a wrong theta at one
    # probe weight fails both rebuilds of that weight and nothing else
    real = hecke.theta
    wrong = (-1, -1)

    def corrupted(rs, x):
        out = real(rs, x)
        return out + out if tuple(x) == wrong else out

    monkeypatch.setattr(hecke, "theta", corrupted)
    hecke._theta_translated.cache_clear()
    try:
        indep = verify_bernstein("A2")[1]
    finally:
        hecke._theta_translated.cache_clear()
    assert indep["status"] == "fail"
    assert indep["computed"]["failures"] == 2
    assert [list(x) for x, _ in indep["computed"]["failing_pairs"]] == \
        [list(wrong)] * 2


def ball_product_keys(rs, radius):
    """The (x, shift) of theta_x T_{t_shift} behind each ordered pair (x, y)
    the theta-products check compares: shift = y_y + zc - z_y, where zc is
    the coordinatewise max of z_y and z_{x+y}."""
    ball = hecke._ball(rs.rank, radius)
    keys = {}
    for x in ball:
        for y in ball:
            _, zs = hecke._theta_parts(rs, tuple(a + b for a, b in zip(x, y)))
            yy, zy = hecke._theta_parts(rs, y)
            zc = tuple(max(p, q) for p, q in zip(zy, zs))
            keys[x, y] = (x, tuple(a + b - c for a, b, c in zip(yy, zc, zy)))
    return keys


def test_theta_products_judge_every_pair_sharing_a_product(monkeypatch):
    hecke._theta_translated.cache_clear()
    rs = rs_of("A2")
    keys = ball_product_keys(rs, 2)
    assert len(keys) == 625
    # the most shared product: corrupting it must fail every pair behind it
    shared, behind = Counter(keys.values()).most_common(1)[0]
    assert behind > 1
    real = hecke._theta_translated

    def corrupted(rstype, x, shift):
        out = real(rstype, x, shift)
        return out + out if (x, shift) == shared else out

    monkeypatch.setattr(hecke, "_theta_translated", corrupted)
    products = verify_bernstein("A2")[0]
    assert products["status"] == "fail"
    assert products["computed"]["failures"] == behind
    shown = products["computed"]["failing_pairs"]
    assert len(shown) == min(5, behind)
    assert all(keys[tuple(x), tuple(y)] == shared for x, y in shown)


def test_theta_products_fold_each_distinct_product_once(monkeypatch):
    hecke._theta_translated.cache_clear()
    rs = rs_of("A2")
    for x in hecke._ball(rs.rank, 2):
        theta(rs, x)   # theta_x has its own cache; its folds are not counted
    calls = []
    at_claim = {}
    real_mul, real_record = hecke.hecke_mul, hecke.report.make_record

    def spy_mul(*args, **kwargs):
        calls.append(args)
        return real_mul(*args, **kwargs)

    def spy_record(*args, **kwargs):
        at_claim.setdefault(args[2], len(calls))
        return real_record(*args, **kwargs)

    monkeypatch.setattr(hecke, "hecke_mul", spy_mul)
    monkeypatch.setattr(hecke.report, "make_record", spy_record)
    records = verify_bernstein("A2")
    assert all(r["status"] == "pass" for r in records)
    distinct = set(ball_product_keys(rs, 2).values())
    assert len(distinct) == 144
    assert at_claim["theta-products"] == len(distinct)


# sha256 of canonical_dump(name): computed with the engine that interned
# ExtAffine objects, before elements became integer codes (f, x)
GOLDEN_PRODUCTS = {
    "A2": "c2bdd8a1d0721cf3846a87a35fda00658c54884338ff5d2686ed7fdc8d47d637",
    "B2": "0316c545c9e51790cb5c334b9b1980a521f32b67483a9baf111434a4584511bd",
    "G2": "e7f4da709d400e02fc3a3b3bcdb0f10e8661c5bff9141ad75903d0d81ba114b6",
}


def canonical_dump(name, radius=2):
    """Every theta_x on the ball, every distinct theta_x T_{t_u} the
    theta-products check folds, and every T_{t_x}^{-1} for x on the ball,
    as sorted json: terms as (x, simple-root images, coefficients)."""
    rs = rs_of(name)
    ball = hecke._ball(rs.rank, radius)

    def canon(h):
        return sorted([list(e.x), [list(r) for r in e.w.images],
                       sorted(c.c.items())] for e, c in h.terms.items())

    keys = sorted(set(ball_product_keys(rs, radius).values()))
    dump = {
        "theta": [[list(x), canon(theta(rs, x))] for x in ball],
        "translated": [
            [list(x), list(u), canon(hecke._theta_translated(rs.rstype, x, u))]
            for x, u in keys],
        "inverse": [[list(x), canon(basis_inverse(rs, ext_translation(rs, x)))]
                    for x in ball],
    }
    assert len(keys) == 144
    return json.dumps(dump, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("name", sorted(GOLDEN_PRODUCTS))
def test_ball_products_are_golden(name, fresh_tables):
    got = hashlib.sha256(canonical_dump(name).encode()).hexdigest()
    assert got == GOLDEN_PRODUCTS[name]
