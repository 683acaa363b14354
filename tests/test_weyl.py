"""Weyl group enumeration, Poincare polynomials, character counts.

Cross-checks: the degree-product Poincare polynomial against BFS length
histograms, root-of-unity vanishing three ways (the degree rule
poincare_vanishes implements, long division by the cyclotomic polynomial
here as the oracle, and complex evaluation), and irreducible-character
formulas against vectorized conjugacy-class sweeps.
"""

import cmath
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from heckeverify import weyl
from heckeverify.rootsystem import RootSystemError, parse_type, build
from heckeverify.weyl import (
    WeylBudgetError, WeylElement, enumerate_group, poincare,
    poincare_vanishes, valid_orders, irr_count,
    conjugacy_class_count, conjugation_table,
)
from heckeverify.partitions import p, ordered_pairs, typeD_count
from test_rootsystem import reflect


def rs_of(name):
    return build(parse_type(name))


# every type whose root system the default sweep builds
PLAN_TYPES = [f"A{n}" for n in range(1, 10)] + \
    [f"B{n}" for n in range(2, 9)] + [f"C{n}" for n in range(3, 8)] + \
    [f"D{n}" for n in range(4, 13)] + ["E6", "E7", "E8", "F4", "G2"]


# ---------------------------------------------------------------------------
# enumeration


def test_a2_enumeration():
    g = enumerate_group(rs_of("A2"))
    assert len(g) == 6
    assert sorted(int(l) for l in g.lengths) == [0, 1, 1, 2, 2, 3]


def test_g2_enumeration():
    g = enumerate_group(rs_of("G2"))
    assert len(g) == 12
    assert int(g.lengths.max()) == 6


def test_f4_enumeration():
    g = enumerate_group(rs_of("F4"))
    assert len(g) == 1152
    assert int(g.lengths.max()) == 24


@pytest.mark.parametrize("name", ["A3", "B3", "C4", "D4", "B2"])
def test_enumeration_count_matches_degree_product(name):
    rs = rs_of(name)
    assert len(enumerate_group(rs)) == rs.weyl_order()


def test_budget_refusal_names_the_order():
    with pytest.raises(WeylBudgetError, match="696729600"):
        enumerate_group(rs_of("E8"))
    with pytest.raises(WeylBudgetError, match="10321920"):
        enumerate_group(rs_of("B8"))


def test_elements_carry_correct_lengths():
    for name in ["A3", "B3", "G2", "D4"]:
        g = enumerate_group(rs_of(name))
        rng = random.Random(20260816)
        for i in rng.sample(range(len(g)), min(25, len(g))):
            assert g.element(i).length() == int(g.lengths[i]), (name, i)


def layer_bfs(rs):
    """The breadth-first enumeration the descent tree replaced: left
    multiplication by every simple reflection, each layer deduplicated
    against the rows already met.  Returns {image row: length}."""
    refl = np.array([[rs.index[reflect(rs, a, j)] for a in rs.all_roots]
                     for j in range(rs.rank)], dtype=np.int16)
    length_of = {}
    frontier, length = {tuple(rs.index[a] for a in rs.simples)}, 0
    while frontier:
        length_of.update(dict.fromkeys(frontier, length))
        rows = np.array(sorted(frontier), dtype=np.int16)
        cand = np.concatenate([refl[j][rows] for j in range(rs.rank)])
        frontier = set(map(tuple, cand.tolist())) - length_of.keys()
        length += 1
    return length_of


@pytest.mark.parametrize("name", ["A5", "B4", "C4", "D5", "E6", "F4", "G2"])
def test_descent_tree_matches_layer_bfs(name):
    rs = rs_of(name)
    g = enumerate_group(rs)
    rows = list(map(tuple, g.perms.tolist()))
    length_of = layer_bfs(rs)
    assert len(set(rows)) == len(rows) == rs.weyl_order()    # no duplicates
    assert set(rows) == length_of.keys()
    assert [length_of[r] for r in rows] == g.lengths.tolist()


@pytest.mark.parametrize("name", [
    "A1", "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "B5", "C3", "C4",
    "C5", "D4", "D5", "E6", "F4", "G2"])
def test_enumeration_is_in_descent_tree_order(name):
    # the right and left tables read this order: z = parent[z] s_k with k
    # = descent[z] its least right descent, each length by (k, parent row)
    rs = rs_of(name)
    g = enumerate_group(rs)
    npos = len(rs.positive_roots)
    simples = [WeylElement.simple(rs, j) for j in range(rs.rank)]
    simple_at = [rs.index[a] for a in rs.simples]
    elems = list(g)
    assert g.parent[0] == g.descent[0] == -1 and elems[0].is_identity()
    for z in range(1, len(g)):
        w, k = elems[z], int(g.descent[z])
        assert w == elems[g.parent[z]] * simples[k], (name, z)
        assert [w.perm[a] >= npos for a in simple_at].index(True) == k
    for lo, hi in g.layers():
        key = g.descent[lo:hi].astype(np.int64) * len(g) + g.parent[lo:hi]
        assert (np.diff(key) > 0).all(), (name, lo)


# ---------------------------------------------------------------------------
# Poincare polynomial


def test_poincare_a1():
    assert poincare(rs_of("A1")) == (1, 1)


def test_poincare_b2():
    # (1+q)(1+q+q^2+q^3)
    assert poincare(rs_of("B2")) == (1, 2, 2, 2, 1)


def test_poincare_g2_palindromic():
    pc = poincare(rs_of("G2"))
    assert len(pc) == 7 and sum(pc) == 12
    assert pc == pc[::-1]


@pytest.mark.parametrize("name", [
    "A1", "A2", "A4", "A7", "B2", "B4", "B5", "C3", "D4", "D5", "F4", "G2", "E6",
])
def test_poincare_equals_bfs_histogram(name):
    rs = rs_of(name)
    assert rs.weyl_order() <= 10 ** 5
    hist = enumerate_group(rs).length_histogram()
    pc = poincare(rs)
    assert tuple(hist.get(i, 0) for i in range(len(pc))) == pc


# ---------------------------------------------------------------------------
# vanishing at roots of unity


def test_vanishing_examples():
    assert poincare_vanishes(rs_of("G2"), 4) is False
    assert poincare_vanishes(rs_of("G2"), 5) is False
    for name in ["A1", "B3", "E7", "G2"]:
        assert poincare_vanishes(rs_of(name), 2) is True
    assert poincare_vanishes(rs_of("E7"), 9) is True


def test_vanishing_infinite_order():
    assert poincare_vanishes(rs_of("B2"), None) is False
    # None is the one spelling of the infinite order
    with pytest.raises(ValueError, match="None for the infinite order"):
        poincare_vanishes(rs_of("B2"), float("inf"))
    with pytest.raises(ValueError):
        poincare_vanishes(rs_of("B2"), 1)


# the division oracle: exact long division by the cyclotomic polynomial


def _poly_divmod(num, den):
    """Long division of integer polynomials: (quotient, remainder).  Every
    quotient coefficient must be an integer; the remainder keeps num's
    length, zero above the divisor's degree."""
    num = list(num)
    dd = len(den) - 1
    lead = den[-1]
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        assert c % lead == 0
        q = c // lead
        out[i - dd] = q
        for k, y in enumerate(den):
            num[i - dd + k] -= q * y
    return out, num


def cyclotomic(m):
    """Coefficients of the m-th cyclotomic polynomial, ascending."""
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly, rem = _poly_divmod(poly, cyclotomic(d))
            assert not any(rem), "division was not exact"
    return tuple(poly)


def vanishes_by_division(rs, m):
    """Whether the m-th cyclotomic polynomial divides the Poincare
    polynomial built from the degrees."""
    return not any(_poly_divmod(poincare(rs), cyclotomic(m))[1])


def vanishes_numerically(rs, m):
    """|P_W(zeta)|, relative to P_W(1) = |W|, below 1e-12 at zeta =
    exp(2 pi i / m).  Over the plan's types and m = 2..60 the vanishing
    values stay below 2e-16 and the others above 4e-8."""
    z = cmath.exp(2j * cmath.pi / m)
    pc = poincare(rs)
    return abs(sum(c * z ** k for k, c in enumerate(pc))) < 1e-12 * sum(pc)


@pytest.mark.parametrize("name", PLAN_TYPES)
def test_vanishing_three_ways(name):
    rs = rs_of(name)
    for m in range(2, 61):
        by_deg = poincare_vanishes(rs, m)
        assert by_deg == vanishes_by_division(rs, m), (name, m)
        assert by_deg == vanishes_numerically(rs, m), (name, m)


@pytest.mark.parametrize("name", ["E6", "E7", "E8"])
def test_memoised_vanishing_agrees_with_degrees(name):
    rs = rs_of(name)
    assert poincare(rs) is poincare(rs)
    for m in range(2, 32):
        first = poincare_vanishes(rs, m)
        assert poincare_vanishes(rs, m) is first
        assert first == vanishes_by_division(rs, m), (name, m)


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3"])
def test_vanishing_matches_complex_evaluation(name):
    # numeric sanity for small groups where magnitudes are tame
    rs = rs_of(name)
    pc = poincare(rs)
    for m in range(2, 25):
        z = cmath.exp(2j * cmath.pi / m)
        val = sum(c * z ** k for k, c in enumerate(pc))
        assert (abs(val) < 1e-8) == poincare_vanishes(rs, m), (name, m, val)


def test_cyclotomic_basics():
    assert cyclotomic(1) == (-1, 1)
    assert cyclotomic(2) == (1, 1)
    assert cyclotomic(4) == (1, 0, 1)
    assert cyclotomic(6) == (1, -1, 1)
    # degree is Euler phi
    assert len(cyclotomic(60)) - 1 == 16


# ---------------------------------------------------------------------------
# valid orders


def test_valid_orders_exceptional():
    assert valid_orders(rs_of("E6")) == {7, 10, 11}
    assert valid_orders(rs_of("E7")) == {11, 13, 15, 16, 17}
    assert valid_orders(rs_of("E8")) == {11, 13, 16, 17, 19, 21, 22, 23,
                                         25, 26, 27, 28, 29}
    assert valid_orders(rs_of("F4")) == {5, 7, 9, 10, 11}
    assert valid_orders(rs_of("G2")) == {4, 5}


@pytest.mark.parametrize("n", range(1, 10))
def test_valid_orders_type_a_empty(n):
    assert valid_orders(rs_of(f"A{n}")) == set()


@pytest.mark.parametrize("n", range(4, 13))
def test_valid_orders_type_d_closed_form(n):
    want = {m for m in range(n + 1, 2 * n - 2) if m % 2 == 1}
    assert valid_orders(rs_of(f"D{n}")) == want


@pytest.mark.parametrize("n", range(2, 9))
def test_valid_orders_type_bc(n):
    # every degree is even, so valid orders are the odd m above n
    want = {m for m in range(n + 1, 2 * n) if m % 2 == 1}
    assert valid_orders(rs_of(f"B{n}")) == want
    if n >= 3:
        assert valid_orders(rs_of(f"C{n}")) == want


@pytest.mark.parametrize("name", ["A4", "B5", "C6", "D7", "E6", "E7", "E8",
                                  "F4", "G2"])
def test_valid_orders_read_only_the_degrees(name):
    # a type alone carries its degrees, so no root system need be built
    ty = parse_type(name)
    assert ty.degrees == rs_of(name).degrees
    assert valid_orders(ty) == valid_orders(rs_of(name))


# ---------------------------------------------------------------------------
# irreducible character counts


def test_irr_exceptional_table():
    for name, want in [("E6", 25), ("E7", 60), ("E8", 112),
                       ("F4", 25), ("G2", 6)]:
        assert irr_count(rs_of(name)) == want


def test_irr_formulas():
    assert irr_count(rs_of("B2")) == 5
    for n in range(1, 10):
        assert irr_count(rs_of(f"A{n}")) == p(n + 1)
    for n in range(2, 9):
        assert irr_count(rs_of(f"B{n}")) == ordered_pairs(n)
    for n in range(4, 13):
        assert irr_count(rs_of(f"D{n}")) == typeD_count(n)


@pytest.mark.parametrize("name", [
    "A1", "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "B5",
    "C3", "C4", "C5", "D4", "D5", "D6", "F4", "G2", "E6", "A7", "B6",
])
def test_irr_equals_conjugacy_class_count(name):
    rs = rs_of(name)
    count, sizes = conjugacy_class_count(rs)
    assert count == irr_count(rs), name
    assert sum(sizes) == rs.weyl_order()


def test_a4_class_sizes():
    # the cycle types of S5
    assert conjugacy_class_count(rs_of("A4")) == \
        (7, [1, 10, 15, 20, 20, 24, 30])


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "F4", "G2", "E6"])
def test_root_combination_tables_match_a_loop(name):
    # the reflection table, built up the heights by conjugating with simple
    # reflections, against s_b(r) = r - <r, b^vee> b for every pair of roots
    rs = rs_of(name)
    refl = weyl._reflection_table(rs.rstype)
    for b, beta in enumerate(rs.all_roots):
        cb = rs.coroot_coords(beta)
        for r, a in enumerate(rs.all_roots):
            k = sum(a[i] * c * rs.cartan[i][j]
                    for i in range(rs.rank) for j, c in enumerate(cb))
            want = rs.index[tuple(x - k * y for x, y in zip(a, beta))]
            assert refl[b, r] == want, (name, beta, a)


@pytest.mark.parametrize("name", PLAN_TYPES)
def test_root_codes_look_up_every_root(name):
    rs = rs_of(name)
    assert rs.ids(rs.roots).tolist() == list(range(len(rs.all_roots)))
    assert rs.ids(2 * rs.roots[:1]).tolist() == [-1]


@pytest.mark.parametrize("name,drop", [("G2", -1), ("E6", 3)])
def test_reflection_table_check_names_a_broken_root(monkeypatch, name, drop):
    # a height level left out leaves its rows unset; the involution check
    # names the first root whose row is not a reflection
    t = parse_type(name)
    levels = weyl._height_steps(t)
    broken = levels[drop][0].tolist()
    monkeypatch.setattr(weyl, "_height_steps",
                        lambda t: [lv for k, lv in enumerate(levels)
                                   if k != drop % len(levels)])
    root = rs_of(name).positive_roots[min(broken)]
    with pytest.raises(AssertionError,
                       match=rf"s_{re.escape(str(root))} is not a reflection"):
        weyl._reflection_table.__wrapped__(t)


def test_root_codes_past_int64_are_a_refusal():
    # A63's codes need 2^63: the reflection table is refused, not wrong
    assert rs_of("A62").ids(rs_of("A62").roots[-1:]).tolist() == [3905]
    with pytest.raises(RootSystemError, match="overflow int64"):
        rs_of("A63").ids(rs_of("A63").roots[:1])
    with pytest.raises(RootSystemError, match="overflow int64"):
        weyl._reflection_table(parse_type("A63"))


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "F4", "G2"])
def test_right_multiplication_matches_the_exact_product(name):
    # _right_mul gathers only the columns i with C_ij != 0; every row of the
    # group times every simple reflection, against the permutation product
    rs = rs_of(name)
    g = enumerate_group(rs)
    elems = list(g)
    for j in range(rs.rank):
        s = WeylElement.simple(rs, j)
        got = weyl._right_mul(rs, g.perms, j).tolist()
        want = [[rs.index[r] for r in (w * s).images] for w in elems]
        assert got == want, (name, j)


@pytest.mark.parametrize("name", ["A3", "B3", "G2"])
def test_conjugation_tables_match_exact_conjugation(name):
    rs = rs_of(name)
    g = enumerate_group(rs)
    right = weyl.right_multiplication_table(g)
    row_of = {tuple(row): i for i, row in enumerate(g.perms.tolist())}
    rows = np.arange(len(g))
    for j in range(rs.rank):
        conj = conjugation_table(g, right, j)
        assert np.array_equal(conj[conj], rows)        # an involution
        s = WeylElement.simple(rs, j)
        want = [row_of[tuple(rs.index[r] for r in (s * w * s).images)]
                for w in g]
        assert conj.tolist() == want


@pytest.mark.parametrize("name", ["A3", "B3", "C4", "D4", "E6", "F4", "G2"])
def test_multiplication_tables_match_the_group_law(name):
    # m_ij = 2, 3, 4 and 6 all occur: the descent rule walks each dihedral
    # length; the oracles are _right_mul on image rows and the exact product
    rs = rs_of(name)
    g = enumerate_group(rs)
    right = weyl.right_multiplication_table(g)
    npos = len(rs.positive_roots)
    z = np.arange(1, len(g))
    assert np.array_equal(g.lengths[g.parent[z]], g.lengths[z] - 1)
    for j in range(rs.rank):
        tree = z[g.descent[z] == j]
        assert np.array_equal(g.perms[tree],
                              weyl._right_mul(rs, g.perms[g.parent[tree]], j))
        assert (g.perms[tree, :j] < npos).all()       # the least descent
        assert np.array_equal(g.perms[right[j]], weyl._right_mul(rs, g.perms, j))
        s = WeylElement.simple(rs, j)
        left = conjugation_table(g, right, j)[right[j]]     # s_j x
        assert np.array_equal(g.perms[left], np.array(s.perm)[g.perms])
        rng = random.Random(2422 + j)
        for i in rng.sample(range(len(g)), min(40, len(g))):
            assert g.element(int(left[i])) == s * g.element(i), (name, j, i)


with open(Path(__file__).with_name("class_sizes.json")) as fh:
    CLASS_SIZES = json.load(fh)


@pytest.mark.parametrize("name", sorted(CLASS_SIZES))
def test_class_sizes_are_golden(name):
    # (count, sorted sizes) of every *.classes type in the plan but A9 (the
    # slow report pin covers it), as the row-lookup class count gave them
    count, sizes = CLASS_SIZES[name]
    assert conjugacy_class_count(rs_of(name)) == (count, sizes)


# ---------------------------------------------------------------------------
# exact elements


def _inverse_fractions(mat):
    """Gauss-Jordan inverse of a square matrix of Fractions."""
    n = len(mat)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(mat)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


class CoordElement:
    """The coordinate form WeylElement replaced, kept as the oracle: the
    images of the simple roots as coordinate tuples, composed by linear
    combination and inverted by exact Gauss-Jordan elimination."""

    def __init__(self, rs, images):
        self.rs = rs
        self.images = tuple(tuple(r) for r in images)

    @classmethod
    def simple(cls, rs, j):
        return cls(rs, [reflect(rs, a, j) for a in rs.simples])

    @classmethod
    def from_word(cls, rs, word):
        out = cls(rs, rs.simples)
        for j in word:
            out = out * cls.simple(rs, j)
        return out

    def apply_root(self, coords):
        n = self.rs.rank
        out = [0] * n
        for i, c in enumerate(coords):
            for k in range(n):
                out[k] += c * self.images[i][k]
        return tuple(out)

    def __mul__(self, other):
        return CoordElement(self.rs, [self.apply_root(r) for r in other.images])

    def mul_simple(self, j):
        imgs = list(self.images)
        for i in range(self.rs.rank):
            k = self.rs.cartan[i][j]
            if k:
                imgs[i] = tuple(a - k * b
                                for a, b in zip(imgs[i], self.images[j]))
        return CoordElement(self.rs, imgs)

    def inverse(self):
        n = self.rs.rank
        inv = _inverse_fractions(
            [[Fraction(self.images[j][i]) for j in range(n)] for i in range(n)])
        return CoordElement(self.rs, [[int(inv[i][j]) for i in range(n)]
                                      for j in range(n)])

    def apply_weight(self, x):
        inv = self.inverse().images
        return tuple(sum(a * c for a, c in zip(x, self.rs.coroot_coords(r)))
                     for r in inv)

    def length(self):
        return sum(1 for r in self.rs.positive_roots
                   if any(c < 0 for c in self.apply_root(r)))

    def word(self):
        w, tail = self, []
        while True:
            desc = next((j for j in range(self.rs.rank)
                         if any(c < 0 for c in w.images[j])), None)
            if desc is None:
                return list(reversed(tail))
            tail.append(desc)
            w = w.mul_simple(desc)


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "F4", "G2"])
def test_permutation_elements_match_the_coordinate_oracle(name):
    rs = rs_of(name)
    rng = random.Random(20261018)

    def pair():
        word = [rng.randrange(rs.rank) for _ in range(rng.randrange(16))]
        return WeylElement.from_word(rs, word), CoordElement.from_word(rs, word)

    for _ in range(12):
        (u, cu), (v, cv) = pair(), pair()
        assert u.images == cu.images
        assert WeylElement(rs, cu.images) == u
        assert (u * v).images == (cu * cv).images
        assert (v * u).images == (cv * cu).images
        assert u.inverse().images == cu.inverse().images
        for r in rs.all_roots:
            assert u.apply_root(r) == cu.apply_root(r)
        for _ in range(4):
            x = tuple(rng.randrange(-3, 4) for _ in range(rs.rank))
            assert u.apply_weight(x) == cu.apply_weight(x)
        assert u.length() == cu.length()
        assert u.word() == cu.word()


@pytest.mark.parametrize("name", ["B3", "G2"])
def test_group_rows_are_the_elements_simple_images(name):
    rs = rs_of(name)
    g = enumerate_group(rs)
    for i in range(len(g)):
        assert [rs.index[r] for r in g.element(i).images] == g.perms[i].tolist()


def test_word_roundtrip():
    rng = random.Random(20260816)
    for name in ["A3", "B3", "G2", "F4"]:
        rs = rs_of(name)
        for _ in range(20):
            word = [rng.randrange(rs.rank) for _ in range(rng.randrange(12))]
            w = WeylElement.from_word(rs, word)
            red = w.word()
            assert WeylElement.from_word(rs, red) == w
            assert len(red) == w.length()
            assert len(red) <= len(word)


def test_inverse_and_identity():
    rs = rs_of("B3")
    rng = random.Random(7)
    for _ in range(15):
        word = [rng.randrange(3) for _ in range(9)]
        w = WeylElement.from_word(rs, word)
        assert (w * w.inverse()).is_identity()
        assert (w.inverse() * w).is_identity()
        assert w.order() <= rs.weyl_order()


def test_longest_element_a2():
    rs = rs_of("A2")
    w0 = WeylElement.from_word(rs, [0, 1, 0])
    assert w0.length() == 3
    for r in rs.positive_roots:
        assert all(c <= 0 for c in w0.apply_root(r))


def test_apply_weight_matches_root_action():
    # alpha_i in weight coordinates is row i of the Cartan matrix
    for name in ["A3", "B3", "G2"]:
        rs = rs_of(name)
        rng = random.Random(11)
        for _ in range(10):
            w = WeylElement.from_word(
                rs, [rng.randrange(rs.rank) for _ in range(8)])
            for i in range(rs.rank):
                img = w.apply_root(rs.simples[i])
                via_weight = w.apply_weight(tuple(rs.cartan[i]))
                direct = tuple(
                    sum(img[k] * rs.cartan[k][j] for k in range(rs.rank))
                    for j in range(rs.rank))
                assert via_weight == direct


def test_simple_reflection_order_two():
    rs = rs_of("F4")
    for j in range(4):
        s = WeylElement.simple(rs, j)
        assert s.order() == 2
        assert s.length() == 1


@pytest.mark.parametrize("name", ["A3", "B3", "G2", "D5"])
def test_iteration_fills_the_constructor_permutations(name):
    rs = build(parse_type(name))
    group = enumerate_group(rs)
    roots = rs.all_roots
    built = [WeylElement(rs, [roots[r] for r in row])
             for row in group.perms.tolist()]
    assert [w.perm for w in group] == [w.perm for w in built]
    for i in (0, 1, len(group) // 2, len(group) - 1):
        assert group.element(i).perm == built[i].perm
