import hashlib
import itertools
import math
import random
from fractions import Fraction
from operator import add, sub

import numpy as np
import pytest

from heckeverify import rootsystem
from heckeverify.rootsystem import (
    RootSystemError, RootSystemType, StructureConstants, build,
    _dynkin_data, _positive_decompositions, component_labels, components,
    degrees_of, parse_type, structure_constants,
)

ALL_SMALL = ["A1", "A2", "A3", "B2", "B3", "C3", "C4", "D4", "D5", "F4", "G2"]
ALL_TYPES = ALL_SMALL + ["A7", "B6", "D7", "E6", "E7", "E8"]
PLAN_TYPES = [f"A{n}" for n in range(1, 10)] + \
    [f"B{n}" for n in range(2, 9)] + [f"C{n}" for n in range(3, 8)] + \
    [f"D{n}" for n in range(4, 13)] + ["E6", "E7", "E8", "F4", "G2"]


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


def test_wrong_positive_root_count_is_a_failure_not_a_refusal(monkeypatch):
    # A2 has 3 positive roots; degrees (2, 4) demand 4
    monkeypatch.setattr(rootsystem, "degrees_of", lambda rstype: (2, 4))
    with pytest.raises(AssertionError, match="degree table demands 4"):
        rootsystem.RootSystem(parse_type("A2"))


def test_components_isolated_vertices_and_repeated_edges():
    edges = [(4, 1), (1, 4), (1, 4), (2, 2), (5, 1), (4, 5)]
    assert components(6, edges) == [[0], [1, 4, 5], [2], [3]]
    assert components(3, []) == [[0], [1], [2]]
    assert components(0, []) == []


def union_find_components(n, edges):
    """The hand-written union-find that components() replaced."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in edges:
        parent[find(a)] = find(b)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


@pytest.mark.parametrize("chunk", [3, rootsystem._EDGE_CHUNK])
def test_labeller_matches_union_find_on_random_graphs(monkeypatch, chunk):
    # a small edge chunk makes later chunks hook vertices that an earlier
    # chunk of the same round already hooked
    monkeypatch.setattr(rootsystem, "_EDGE_CHUNK", chunk)
    rng = random.Random(20261018)
    for _ in range(300):
        n = rng.randrange(1, 60)
        edges = [(rng.randrange(n), rng.randrange(n))
                 for _ in range(rng.randrange(2 * n))]
        edges += rng.sample(edges, len(edges) // 3)     # repeated edges
        want = union_find_components(n, edges)
        assert components(n, edges) == want
        label = component_labels(n, [a for a, _ in edges],
                                 [b for _, b in edges])
        assert label.tolist() == [min(next(c for c in want if v in c))
                                  for v in range(n)]


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


SMITH_TYPES = ([f"A{n}" for n in range(1, 10)] + [f"B{n}" for n in range(2, 9)]
               + [f"C{n}" for n in range(3, 9)] + [f"D{n}" for n in range(4, 13)]
               + ["E6", "E7", "E8", "F4", "G2"])


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def det_by_expansion(mat):
    """Leibniz expansion over the first row; exact on integers."""
    if not mat:
        return 1
    return sum((-1) ** j * mat[0][j]
               * det_by_expansion([row[:j] + row[j + 1:] for row in mat[1:]])
               for j in range(len(mat)) if mat[0][j])


def rank_by_fractions(mat):
    rows = [[Fraction(x) for x in row] for row in mat]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


# |P/Q| by family: n+1 for A_n, 4 for D_n, 3 for E6, 2 for B, C and E7,
# 1 for E8, F4 and G2
CENTER_BY_FAMILY = {"A": lambda n: n + 1, "B": lambda n: 2, "C": lambda n: 2,
                    "D": lambda n: 4, "E": lambda n: {6: 3, 7: 2, 8: 1}[n],
                    "F": lambda n: 1, "G": lambda n: 1}


@pytest.mark.parametrize("t", SMITH_TYPES)
def test_smith_of_cartan_gives_the_center_order(t):
    rs = build(parse_type(t))
    unit, unit_inv, diag = rootsystem.smith(rs.cartan)
    want = CENTER_BY_FAMILY[rs.rstype.family](rs.rank)
    assert math.prod(diag) == rs.center_order() == want
    assert len(diag) == rs.rank
    assert matmul(unit, unit_inv) == identity(rs.rank)


def test_smith_on_random_integer_matrices():
    rng = random.Random(20261018)
    nonsingular = 0
    for _ in range(400):
        rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
        mat = [[rng.randint(-4, 4) if rng.random() < 0.7 else 0
                for _ in range(cols)] for _ in range(rows)]
        unit, unit_inv, diag = rootsystem.smith(mat)
        assert matmul(unit, unit_inv) == identity(rows)
        assert len(diag) == rank_by_fractions(mat)
        assert all(d > 0 for d in diag)
        if rows == cols and len(diag) == rows:
            nonsingular += 1
            assert math.prod(diag) == abs(det_by_expansion(mat))
    assert nonsingular > 20


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


@pytest.mark.parametrize("t", [f"B{n}" for n in range(2, 9)]
                         + [f"C{n}" for n in range(3, 9)] + ["F4", "G2"])
def test_length_class_agrees_with_the_norm(t):
    # length_class compares the integer twice_norm2; the oracle is the
    # Fraction norm2 against the longest simple root's
    rs = build(parse_type(t))
    longest = max(rs.norm2(a) for a in rs.simples)
    assert max(map(rs.norm2, rs.all_roots)) == rs.norm2(rs.highest_root)
    for r in rs.all_roots:
        assert rs.length_class(r) == ("long" if rs.norm2(r) == longest
                                      else "short"), (t, r)


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
    for t in ("B3", "C4", "D9", "B8", "C8", "D12", "F4"):
        rs = build(parse_type(t))
        for r in rs.all_roots:
            assert rs.epsilon_to_root(rs.root_to_epsilon(r)) == r


def test_epsilon_to_root_edge_cases():
    with pytest.raises(RootSystemError, match="no epsilon view"):
        build(parse_type("E6")).epsilon_to_root((1, 0, 0, 0, 0, 0, 0, 0))
    f4, b3 = build(parse_type("F4")), build(parse_type("B3"))
    third, h = Fraction(1, 3), Fraction(1, 2)
    # 2/3 has no integer key; the vector is refused as a non-root
    with pytest.raises(RootSystemError, match="not a root"):
        f4.epsilon_to_root((third, 0, 0, 0))
    with pytest.raises(RootSystemError, match="not a root"):
        b3.epsilon_to_root((1, third, 0))
    with pytest.raises(RootSystemError, match="not a root"):
        b3.epsilon_to_root((1, 0))
    assert (b3.epsilon_to_root((1, -1, 0))
            == b3.epsilon_to_root((Fraction(1), Fraction(-1), Fraction(0)))
            == (1, 0, 0))
    assert (f4.epsilon_to_root((1, 0, 0, 0))
            == f4.epsilon_to_root((Fraction(2, 2), 0, 0, 0)) == (1, 2, 3, 2))
    assert f4.epsilon_to_root((h, h, -h, h)) == (1, 1, 2, 1)


@pytest.mark.parametrize("t", ["B4", "C4", "F4", "G2", "E8"])
def test_cached_norms_equal_the_form(t):
    rs = build(parse_type(t))
    # the form from the Dynkin data alone: (alpha_i, alpha_i) is the simple
    # norm, a bond of m lines joins norms a and b = m*a with
    # (alpha_i, alpha_j) = -m*a/2 = -b/2, and unjoined roots are orthogonal
    edges, norms = _dynkin_data(rs.rstype)
    bil = [[Fraction(0)] * rs.rank for _ in range(rs.rank)]
    for i in range(rs.rank):
        bil[i][i] = Fraction(norms[i])
    for i, j in edges:
        bil[i][j] = bil[j][i] = -Fraction(max(norms[i], norms[j]), 2)

    def form(v):
        return sum((a * b * bil[i][j] for i, a in enumerate(v)
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
        for k, r in enumerate(rs.all_roots):
            cr = rs.coroot_coords(r)
            assert rs.coroots[k] == cr
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
        assert abs(v) == sc.string_down(rs.index[a], rs.index[b]) + 1
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


@pytest.mark.parametrize("t", ["G2", "B3", "F4"])
def test_twisted_n_agrees_with_its_table(t):
    rs = build(parse_type(t))
    tw = structure_constants(parse_type(t), "twisted")
    sc = structure_constants(parse_type(t))
    flipped = 0
    for a in rs.all_roots:
        for b in rs.all_roots:
            assert tw.n(a, b) == tw.table.get((a, b), 0), (a, b)
            flipped += tw.n(a, b) != sc.n(a, b)
    assert flipped > 0


# sha256 of repr(sorted(table.items())) for the extraspecial table
GOLDEN_TABLES = {
    "A5": (240, "38f49e084fa2dd92c3f7871da7e82fa15b3444d0dd4246c17964926b3fad5cc2"),
    "B4": (336, "19dec7eec4bb451075237b33b4fec18093cad00639de36d7f3205419cbd36fc5"),
    "C5": (720, "ef986e0ba180a7b0183917d0dbf21c9282e0c377c717123e1a10f0d2cd279fd4"),
    "D4": (192, "944ff8fd3e423ea3ebcda192835173dc8ee5ff90494e898fe2a71b80616c146a"),
    "D9": (4032, "36c5ce5e32459ca5f210f9fbb736abf1cf9ff12a5847a74ec8733994a14736d5"),
    "E6": (1440, "a8b97754d817dc6d127a6a118fc628b2d9a716bcc27b3c235c2f7d4aae8536b8"),
    "E7": (4032, "c6f46114b9b782675830064d85ad77ab164f32f89f863537237c5a7ccf7e1734"),
    "E8": (13440, "705d276686142a75f31fc1937d0e040f2c24889fb58ee607f2040d272b8e7b03"),
    "F4": (816, "ac499f090362cb94920713b65182afcb73e585fbcfadd8cc616130fffd0069a4"),
    "G2": (60, "fed05df94afd7a91f2685c96e1ff2402fb684baa20d48a0d3a7312c43ec01324"),
}


@pytest.mark.parametrize("t", sorted(GOLDEN_TABLES))
def test_tables_match_their_golden_digest(t):
    table = StructureConstants(build(parse_type(t))).table
    digest = hashlib.sha256(repr(sorted(table.items())).encode()).hexdigest()
    assert (len(table), digest) == GOLDEN_TABLES[t]


# sha256 of repr(sorted(pos.items())), the stored positive-pair table, as
# the tuple scan over every lower-height root built it
GOLDEN_POSITIVE_TABLES = {
    "B6": (220, "a4f83337c3289817f6fdd5157ec627e4f777c5105cbad9c2dfb32bf6212de1cc"),
    "C6": (220, "4dff7181e843ea4482ce4e15ae88578551ee7337e842ef4fce773581e9da596d"),
    "D9": (672, "1484154a284fbc01b09c23f6065d158db01bc9c9a69bf18bc1bcdd6c7daa11f6"),
    "D12": (1760, "57f932e8292a2a0b7e221cca7fb77e08b6d15f8aeb00709304f431a9da5a4e79"),
    "E6": (240, "f1bc84ad5a23f3fecde2553f9c02d57ef8cf7bdd99ab080b37992c7e374fe4f7"),
    "E7": (672, "6bf245d5af3a6ba6947e4e4324932d9fef939b8632963d0a927fd1bc21a36a6f"),
    "E8": (2240, "00ec7dcd8de0ede0e31db033f652cead919bd33f7874bb15921b38e58960937b"),
    "F4": (136, "f63102e6c29c704293eb22dced3063af3fcb40d8151a9ff240cfed15ea6ffd59"),
    "G2": (10, "2676b1fa00fc3979251d6c37d11ba2220884d711fc323c465eaf8957f4f680d0"),
}


@pytest.mark.parametrize("t", sorted(GOLDEN_POSITIVE_TABLES))
def test_positive_tables_match_their_golden_digest(t):
    pos = StructureConstants(build(parse_type(t))).pos
    digest = hashlib.sha256(repr(sorted(pos.items())).encode()).hexdigest()
    assert (len(pos), digest) == GOLDEN_POSITIVE_TABLES[t]


# ---------------------------------------------------------------------------
# root ids and the root-sum table


@pytest.mark.parametrize("t", PLAN_TYPES)
def test_ids_and_sums_match_tuple_addition(t):
    # against tuple addition and the index, on every pair of roots
    rs = build(parse_type(t))
    roots = rs.all_roots
    want = [[rs.index.get(tuple(map(add, a, b)), -1) for b in roots]
            for a in roots]
    assert rs.sums.tolist() == want
    assert rs.ids(rs.roots[:, None] + rs.roots[None]).tolist() == want
    assert rs.npos == len(rs.positive_roots)
    assert list(rs.simple_ids) == [rs.index[a] for a in rs.simples]


@pytest.mark.parametrize("t", ["A2", "B3", "G2", "F4", "E8"])
def test_vectors_that_are_not_roots_have_no_id(t):
    rs = build(parse_type(t))
    npos, rank = rs.npos, rs.rank
    assert rs.ids(np.zeros(rank, dtype=np.int64)) == -1
    assert (rs.ids(2 * rs.roots) == -1).all()
    assert (rs.ids(rs.roots + rs.roots[npos - 1]) == -1)[:npos].all()
    # a + a and a + (-a) are never roots
    assert (np.diagonal(rs.sums) == -1).all()
    assert (rs.sums[np.arange(npos), np.arange(npos) + npos] == -1).all()


def test_a_code_hit_is_kept_only_when_the_coordinates_match():
    # in A2, (2, 0) = 2 alpha_1 has the code of alpha_2 (radix 2, 2)
    rs = build(parse_type("A2"))
    a1, a2 = rs.simple_ids
    assert rs.ids([[2, 0], [0, 1]]).tolist() == [-1, a2]
    assert rs.sums[a1, a1] == -1


def _string_down_probe(rs, a, b):
    """Largest k with b - k a a root, by subtracting tuples and looking
    each one up: the probe the walk over the root-sum table replaced."""
    k, probe = 0, b
    while (probe := tuple(map(sub, probe, a))) in rs.index:
        k += 1
    return k


@pytest.mark.parametrize("t", PLAN_TYPES)
def test_string_walk_matches_the_tuple_probe(t):
    rs = build(parse_type(t))
    sc = structure_constants(parse_type(t))
    for i, a in enumerate(rs.positive_roots):
        for j, b in enumerate(rs.positive_roots):
            assert sc.string_down(i, j) == _string_down_probe(rs, a, b), (a, b)


def test_positive_decompositions_are_every_split():
    # against a scan of every pair of positive roots
    for t in ("G2", "B3", "F4", "D5"):
        rs = build(parse_type(t))
        roots = rs.positive_roots
        minus, splits = _positive_decompositions(rs)
        want = {}
        for a, x in enumerate(roots):
            for b, y in enumerate(roots):
                g = rs.index.get(tuple(u + v for u, v in zip(x, y)), -1)
                if g >= 0:
                    want.setdefault(g, []).append((a, b))
                    assert minus[g][a] == b
        assert splits == sorted((g, sorted(p)) for g, p in want.items())
        assert sum(row.count(-1) for row in minus) == \
            len(roots) ** 2 - sum(len(p) for p in want.values())


def test_simply_laced_constants_are_units():
    for t in ["A3", "D4", "E6"]:
        sc = structure_constants(parse_type(t))
        assert set(abs(v) for v in sc.table.values()) == {1}
