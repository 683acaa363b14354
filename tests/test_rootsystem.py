import itertools
import random
from fractions import Fraction

import pytest

from heckeverify.rootsystem import (
    RootSystemError, RootSystemType, StructureConstants, build, components,
    degrees_of, parse_type, structure_constants,
)

ALL_SMALL = ["A1", "A2", "A3", "B2", "B3", "C3", "C4", "D4", "D5", "F4", "G2"]
ALL_TYPES = ALL_SMALL + ["A7", "B6", "D7", "E6", "E7", "E8"]


def test_parse_and_validate():
    assert parse_type("e8") == RootSystemType("E", 8)
    with pytest.raises(RootSystemError):
        parse_type("H3")
    with pytest.raises(RootSystemError):
        RootSystemType("E", 9)
    with pytest.raises(RootSystemError):
        RootSystemType("B", 1)
    with pytest.raises(RootSystemError):
        RootSystemType("C", 2)
    with pytest.raises(RootSystemError):
        RootSystemType("D", 3)


def test_components_isolated_vertices_and_repeated_edges():
    edges = [(4, 1), (1, 4), (1, 4), (2, 2), (5, 1), (4, 5)]
    assert components(6, edges) == [[0], [1, 4, 5], [2], [3]]
    assert components(3, []) == [[0], [1], [2]]
    assert components(0, []) == []


@pytest.mark.parametrize("t", ALL_TYPES)
def test_positive_count_matches_degree_table(t):
    rs = build(parse_type(t))
    assert len(rs.positive_roots) == sum(d - 1 for d in rs.degrees)


@pytest.mark.parametrize("t,theta", [
    ("A2", (1, 1)), ("G2", (3, 2)), ("F4", (2, 3, 4, 2)),
    ("B3", (1, 2, 2)), ("C3", (2, 2, 1)), ("D4", (1, 2, 1, 1)),
    ("E6", (1, 2, 2, 3, 2, 1)), ("E7", (2, 2, 3, 4, 3, 2, 1)),
    ("E8", (2, 3, 4, 6, 5, 4, 3, 2)),
])
def test_highest_root(t, theta):
    rs = build(parse_type(t))
    assert rs.highest_root == theta
    # dominates every positive root coordinatewise
    for r in rs.positive_roots:
        assert all(a <= b for a, b in zip(r, theta))


@pytest.mark.parametrize("t,det", [
    ("A1", 2), ("A2", 3), ("A7", 8), ("B2", 2), ("B6", 2), ("C3", 2),
    ("D4", 4), ("D5", 4), ("D7", 4), ("E6", 3), ("E7", 2), ("E8", 1),
    ("F4", 1), ("G2", 1),
])
def test_center_order(t, det):
    assert build(parse_type(t)).center_order() == det


@pytest.mark.parametrize("t", ALL_TYPES)
def test_roots_closed_under_simple_reflections(t):
    rs = build(parse_type(t))
    for r in rs.all_roots:
        for j in range(rs.rank):
            assert rs.reflect(r, j) in rs.index


@pytest.mark.parametrize("t", ALL_TYPES)
def test_fundamental_weights_dual_to_coroots(t):
    rs = build(parse_type(t))
    for i in range(rs.rank):
        w = rs.fundamental_weights[i]
        for j in range(rs.rank):
            pair = sum(w[k] * rs.cartan[k][j] for k in range(rs.rank))
            assert pair == (1 if i == j else 0)


def test_degrees_tables():
    assert degrees_of(parse_type("F4")) == (2, 6, 8, 12)
    assert degrees_of(parse_type("E6")) == (2, 5, 6, 8, 9, 12)
    assert degrees_of(parse_type("E8")) == (2, 8, 12, 14, 18, 20, 24, 30)
    assert degrees_of(parse_type("B4")) == (2, 4, 6, 8)
    assert degrees_of(parse_type("D6")) == (2, 4, 6, 6, 8, 10)


def test_exponent_conjugate_equals_height_histogram():
    # number of positive roots of height h = #{exponents >= h}
    for t in ALL_TYPES:
        rs = build(parse_type(t))
        hist = rs.height_histogram()
        exps = rs.exponents()
        for h in range(1, max(exps) + 1):
            assert hist.get(h, 0) == sum(1 for m in exps if m >= h), (t, h)


@pytest.mark.parametrize("t,n_short", [
    ("B3", 3), ("C3", 6), ("F4", 12), ("G2", 3), ("A3", 0), ("D4", 0), ("E6", 0),
])
def test_length_classes(t, n_short):
    rs = build(parse_type(t))
    shorts = [r for r in rs.positive_roots if rs.length_class(r) == "short"]
    assert len(shorts) == n_short


def test_epsilon_views():
    b3 = build(parse_type("B3"))
    assert b3.root_to_epsilon((1, 0, 0)) == (1, -1, 0)
    assert b3.root_to_epsilon((0, 0, 1)) == (0, 0, 1)
    assert b3.root_to_epsilon(b3.highest_root) == (1, 1, 0)
    c3 = build(parse_type("C3"))
    assert c3.root_to_epsilon(c3.highest_root) == (2, 0, 0)
    d4 = build(parse_type("D4"))
    assert d4.root_to_epsilon((0, 0, 0, 1)) == (0, 0, 1, 1)
    f4 = build(parse_type("F4"))
    assert f4.root_to_epsilon(f4.highest_root) == (1, 1, 0, 0)
    h = Fraction(1, 2)
    assert f4.root_to_epsilon((1, 1, 2, 1)) == (h, h, -h, h)
    assert f4.epsilon_to_root((1, 0, 0, 0)) == (1, 2, 3, 2)
    with pytest.raises(RootSystemError):
        build(parse_type("E6")).root_to_epsilon((1, 0, 0, 0, 0, 0))
    with pytest.raises(RootSystemError):
        b3.epsilon_to_root((2, 0, 0))
    for t in ("B3", "C4", "D9", "F4"):
        rs = build(parse_type(t))
        for r in rs.all_roots:
            assert rs.epsilon_to_root(rs.root_to_epsilon(r)) == r


@pytest.mark.parametrize("t", ["B4", "C4", "F4", "G2", "E8"])
def test_cached_norms_equal_the_form(t):
    rs = build(parse_type(t))

    def form(v):
        return sum((a * b * rs._bil[i][j] for i, a in enumerate(v)
                    for j, b in enumerate(v)), Fraction(0))

    for r in rs.all_roots:
        n2 = rs.norm2(r)
        assert isinstance(n2, Fraction) and n2 == form(r), r
    # a vector that is not a root is computed, not looked up
    twice = tuple(2 * c for c in rs.highest_root)
    assert not rs.is_root(twice)
    assert rs.norm2(twice) == form(twice) == 4 * rs.norm2(rs.highest_root)


def test_coroot_coords_integral_and_dual():
    for t in ["B3", "C3", "F4", "G2", "E6"]:
        rs = build(parse_type(t))
        for r in rs.all_roots:
            cr = rs.coroot_coords(r)
            # <r, r^vee> = 2
            pair = sum(c * rs.pairing(r, i) for i, c in enumerate(cr))
            assert pair == 2


# --- structure constants ----------------------------------------------------

def _bracketer(rs, sc):
    def brk(x, y):
        ex, hx = x
        ey, hy = y
        out_e, out_h = {}, [0] * rs.rank
        for a, ca in ex.items():
            for b, cb in ey.items():
                s = tuple(p + q for p, q in zip(a, b))
                co = ca * cb
                if all(c == 0 for c in s):
                    for i, c in enumerate(rs.coroot_coords(a)):
                        out_h[i] += co * c
                elif s in rs.index:
                    v = sc.n(a, b) * co
                    if v:
                        out_e[s] = out_e.get(s, 0) + v
        for a, ca in ex.items():
            pair = sum(c * rs.pairing(a, i) for i, c in enumerate(hy))
            if pair:
                out_e[a] = out_e.get(a, 0) - ca * pair
        for b, cb in ey.items():
            pair = sum(c * rs.pairing(b, i) for i, c in enumerate(hx))
            if pair:
                out_e[b] = out_e.get(b, 0) + cb * pair
        return ({k: v for k, v in out_e.items() if v}, tuple(out_h))
    return brk


def _jacobi_zero(rs, brk, a, b, c):
    acc_e, acc_h = {}, [0] * rs.rank
    for (x, y, z) in ((a, b, c), (b, c, a), (c, a, b)):
        e, h = brk(brk(x, y), z)
        for k, v in e.items():
            acc_e[k] = acc_e.get(k, 0) + v
        for i, v in enumerate(h):
            acc_h[i] += v
    return all(v == 0 for v in acc_e.values()) and all(v == 0 for v in acc_h)


def _ev(root, rank):
    return ({root: 1}, (0,) * rank)


@pytest.mark.parametrize("t", ["A2", "B2", "G2", "A3", "C3", "D4"])
@pytest.mark.parametrize("conv", ["extraspecial", "twisted"])
def test_jacobi_exhaustive_small(t, conv):
    rs = build(parse_type(t))
    sc = structure_constants(parse_type(t), conv)
    brk = _bracketer(rs, sc)
    for a, b, c in itertools.product(rs.all_roots, repeat=3):
        assert _jacobi_zero(rs, brk, _ev(a, rs.rank), _ev(b, rs.rank), _ev(c, rs.rank)), (a, b, c)


@pytest.mark.parametrize("t", ["F4", "E6", "E7", "E8"])
def test_jacobi_sampled_large(t):
    rng = random.Random(20260816)
    rs = build(parse_type(t))
    sc = structure_constants(parse_type(t))
    brk = _bracketer(rs, sc)
    roots = rs.all_roots
    for a in rng.sample(roots, 20):
        nbrs = [b for b in roots if tuple(x + y for x, y in zip(a, b)) in rs.index]
        for b in rng.sample(nbrs, min(4, len(nbrs))):
            for c in rng.sample(roots, 6):
                assert _jacobi_zero(rs, brk, _ev(a, rs.rank), _ev(b, rs.rank), _ev(c, rs.rank))


@pytest.mark.parametrize("t", ["A3", "B3", "C3", "F4", "G2", "E6"])
def test_constant_magnitudes_and_antisymmetry(t):
    rs = build(parse_type(t))
    sc = structure_constants(parse_type(t))
    for (a, b), v in sc.table.items():
        assert v == -sc.table[(b, a)]
        assert abs(v) == sc.string_down(a, b) + 1
        na = tuple(-c for c in a)
        nb = tuple(-c for c in b)
        assert sc.table[(na, nb)] == -v


def test_g2_magnitudes():
    sc = structure_constants(parse_type("G2"))
    assert abs(sc.n((1, 0), (1, 1))) == 2     # string alpha2, alpha1+alpha2, ...
    assert abs(sc.n((1, 0), (0, 1))) == 1
    assert abs(sc.n((1, 0), (2, 1))) == 3
    assert sc.n((1, 0), (3, 1)) == 0          # 4a1+a2 is not a root


def test_extraspecial_pairs_positive():
    for t in ["A3", "D4", "F4", "G2", "E6"]:
        rs = build(parse_type(t))
        sc = structure_constants(parse_type(t))
        for gamma in rs.positive_roots:
            if rs.height(gamma) == 1:
                continue
            for s in rs.simples:
                rem = tuple(x - y for x, y in zip(gamma, s))
                if rem in rs.index and sum(rem) > 0:
                    assert sc.n(s, rem) > 0
                    break


@pytest.mark.parametrize("t", ["G2", "F4", "E7"])
def test_both_spellings_give_one_table(t):
    ty = parse_type(t)
    assert structure_constants(ty) is structure_constants(ty, "extraspecial")
    with pytest.raises(RootSystemError):
        structure_constants(ty, "bogus")


def test_extraspecial_table_built_once_per_type(monkeypatch):
    built = []
    init = StructureConstants.__init__

    def spy(self, rs):
        built.append(str(rs.rstype))
        init(self, rs)

    monkeypatch.setattr(StructureConstants, "__init__", spy)
    structure_constants.cache_clear()
    for t in ("G2", "B3", "G2", "B3"):
        ty = parse_type(t)
        structure_constants(ty)
        structure_constants(ty, "extraspecial")
        structure_constants(ty, "twisted")
    assert built == ["G2", "B3"]


def _chi(root):
    return -1 if (root[0] * root[1]) % 2 else 1


@pytest.mark.parametrize("t", ["G2", "B3", "F4"])
def test_twisted_table_rescales_the_extraspecial_one(t):
    rs = build(parse_type(t))
    fresh = StructureConstants(rs).table
    want = {(a, b): v * _chi(a) * _chi(b)
            * _chi(tuple(x + y for x, y in zip(a, b)))
            for (a, b), v in fresh.items()}
    tw = structure_constants(parse_type(t), "twisted")
    assert tw.convention == "twisted" and tw.rs is rs
    assert tw.table == want
    # rescaling leaves the cached extraspecial table as it was
    assert structure_constants(parse_type(t)).table == fresh


def test_simply_laced_constants_are_units():
    for t in ["A3", "D4", "E6"]:
        sc = structure_constants(parse_type(t))
        assert set(abs(v) for v in sc.table.values()) == {1}
