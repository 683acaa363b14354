"""The golden case tables carry data as first recorded, with corrections
where the recorded entries are internally inconsistent.  These tests
re-derive every correction from the root system alone, so the tables
cannot drift from what the arithmetic forces."""

import pytest

from heckeverify import cases
from heckeverify import nilorbits as no
from heckeverify.cases import case_table, corrections_for, tabulated_cases, type_d_bound
from heckeverify.rootsystem import build, parse_type, structure_constants
from heckeverify.torus import standard_point


def nil(rstype, order):
    rs = build(parse_type(rstype))
    return rs, no.build_nqs(rs, standard_point(rs, order))


DETAILED = [("E6", 7), ("E7", 11), ("E7", 13), ("E8", 11), ("E8", 13),
            ("E8", 16), ("E8", 17)]


# --- table internal consistency --------------------------------------------


@pytest.mark.parametrize("rstype,order", DETAILED)
def test_recorded_vectors_are_roots(rstype, order):
    rs = build(parse_type(rstype))
    table = case_table(rstype, order)
    for name, vec in table.roots.items():
        assert rs.is_root(vec), name


@pytest.mark.parametrize("rstype,order", DETAILED)
def test_generator_and_q_root_lists_match_computation(rstype, order):
    rs, nm = nil(rstype, order)
    table = case_table(rstype, order)
    pos = frozenset(r for r in nm.unipotent_generators if sum(r) > 0)
    assert table.expected_generators() == pos
    simples = set(rs.simples)
    assert table.expected_q_roots() == frozenset(
        r for r in nm.basis_roots if r not in simples)


@pytest.mark.parametrize("rstype,order", DETAILED)
def test_modules_partition_the_eigenspace(rstype, order):
    rs, nm = nil(rstype, order)
    table = case_table(rstype, order)
    supports = [table.module_support(n) for n in table.modules]
    union = set().union(*supports)
    assert union == set(nm.basis_roots)
    assert sum(len(s) for s in supports) == len(nm.basis_roots)


@pytest.mark.parametrize("rstype,order", DETAILED)
def test_modules_equal_bracket_components(rstype, order):
    rs, nm = nil(rstype, order)
    table = case_table(rstype, order)
    parts = no.decompose(nm)
    assert {frozenset(p.support) for p in parts} == {
        table.module_support(n) for n in table.modules}


def test_case_table_dispatch():
    assert case_table("E8", 16).case_id == "E8.o16"
    assert case_table("D6", 9).case_id == "D6.o9"
    assert case_table("A5", 3) is None
    assert case_table("B4", 5) is None
    assert case_table("E6", 8) is None
    plain = case_table("E6", 10)
    assert plain is not None and not plain.detailed
    assert plain.bound == 64 and plain.bound_kind == "exact"


def test_plain_totals():
    for order in (15, 16, 17):
        tab = case_table("E7", order)
        assert (tab.bound, tab.bound_kind) == (128, "exact")
    for order in (19, 21, 22, 23, 25, 26, 27, 28, 29):
        tab = case_table("E8", order)
        assert (tab.bound, tab.bound_kind) == (144, "at-least")


def test_tabulated_cases_cover_the_analyzed_range():
    ids = {f"{rstype}.o{order}" for rstype, order in tabulated_cases()}
    for rstype, order in DETAILED:
        assert f"{rstype}.o{order}" in ids
    assert "E6.o10" in ids and "E7.o15" in ids and "E8.o29" in ids
    assert "D6.o9" in ids and "D12.o21" in ids
    # D orders are the odd ones in the valid window
    assert "D6.o8" not in ids


def test_signed_label_resolution():
    table = case_table("E6", 7)
    a1 = table.root("a1")
    assert a1 == (1, 0, 0, 0, 0, 0)
    assert table.root("-a1") == tuple(-x for x in a1)
    with pytest.raises(cases.CaseError):
        table.root("nope")


# --- corrections re-derived from the arithmetic -----------------------------


def corr(case, where):
    hits = [c for c in cases.CORRECTIONS if c.case == case and c.where == where]
    assert len(hits) == 1, (case, where)
    return hits[0]


def test_e7_o11_m2_member_was_duplicated():
    # as first recorded, -g4 sat in both M2 and M4 while -g3 sat nowhere
    rs, nm = nil("E7", 11)
    table = case_table("E7", 11)
    entry = corr("E7.o11", "modules.M2")
    recorded = frozenset(table.root(lbl) for lbl in entry.recorded)
    m4 = table.module_support("M4")
    assert table.root("-g4") in m4
    assert table.root("-g4") in recorded
    # the computed component of a2 contains -g3, not -g4
    parts = no.decompose(nm)
    comp_a2 = next(p for p in parts if table.root("a2") in p.support)
    assert table.root("-g3") in comp_a2.support
    assert table.root("-g4") not in comp_a2.support


def test_e8_o11_g7_as_recorded_is_not_a_root():
    rs = build(parse_type("E8"))
    entry = corr("E8.o11", "roots.g7")
    assert not rs.is_root(tuple(entry.recorded))
    assert rs.is_root(tuple(entry.corrected))
    table = case_table("E8", 11)
    b4 = table.root("b4")
    a5 = table.root("a5")
    assert tuple(entry.corrected) == tuple(x - y for x, y in zip(b4, a5))


def test_e8_o11_g13_sits_in_m2():
    rs, nm = nil("E8", 11)
    table = case_table("E8", 11)
    parts = no.decompose(nm)
    comp_a3 = next(p for p in parts if table.root("a3") in p.support)
    assert table.root("g13") in comp_a3.support
    assert sorted(len(p.support) for p in parts) == [2, 9, 12]


def test_e8_o13_s3_as_recorded_is_not_a_root():
    rs = build(parse_type("E8"))
    entry = corr("E8.o13", "roots.s3")
    assert not rs.is_root(tuple(entry.recorded))
    assert rs.is_root(tuple(entry.corrected))
    table = case_table("E8", 13)
    s1, s6 = table.root("s1"), table.root("s6")
    assert tuple(entry.corrected) == tuple(x - y for x, y in zip(s6, s1))
    assert sum(entry.corrected) == 13


def test_e8_o13_t8_belongs_to_m2():
    # recorded module sizes (11, 1, 2, 4) sum to 18 < dim 19: t8 was omitted
    rs, nm = nil("E8", 13)
    table = case_table("E8", 13)
    assert len(nm.basis_roots) == 19
    parts = no.decompose(nm)
    assert sorted(len(p.support) for p in parts) == [1, 2, 4, 12]
    comp_a5 = next(p for p in parts if table.root("a5") in p.support)
    assert table.root("t8") in comp_a5.support
    t8 = table.root("t8")
    a5, s4 = table.root("a5"), table.root("s4")
    assert t8 == tuple(x + y for x, y in zip(a5, s4))


def test_e8_o16_recorded_representative_list_double_counts_one_orbit():
    # the recorded eighth representative differs from the fifth by a single
    # one-parameter element of the recorded generator -x1
    rs, nm = nil("E8", 16)
    table = case_table("E8", 16)
    sc = structure_constants(rs.rstype)
    nm = no.build_nqs(rs, standard_point(rs, 16), sc)
    a3, x1 = table.root("a3"), table.root("x1")
    me2 = table.root("-e2")
    assert me2 == tuple(a - b for a, b in zip(a3, x1))
    n = sc.n(tuple(-x for x in x1), a3)
    assert n != 0 and abs(n) == 1
    # a1 is annihilated, so the move adds exactly the -e2 line
    a1 = table.root("a1")
    assert not rs.is_root(tuple(a - b for a, b in zip(a1, x1)))

    parts = no.decompose(nm)
    comp = {frozenset(p.support): p for p in parts}
    subs = [comp[table.module_support("M1")], comp[table.module_support("M3")]]
    recorded_eight = [(), ("a1",), ("a3",), ("a3", "a8"), ("a1", "a3"),
                      ("a1", "a3", "a8"), ("a1", "-e2"), ("a1", "a3", "-e2")]
    reps8 = [tuple(table.root(lbl) for lbl in rep) for rep in recorded_eight]
    closure = no.orbit_count_ff(nm, subs, 17)
    assert not no.representatives_distinct(closure, reps8)
    kept = table.groupings[0].representatives
    assert len(kept) == 7
    reps7 = [tuple(table.root(lbl) for lbl in rep) for rep in kept]
    assert no.representatives_distinct(closure, reps7)


def test_e8_o16_joint_counts_recomputed():
    entry = corr("E8.o16", "groupings")
    assert "192" in str(entry.recorded) and "147" in str(entry.corrected)
    cb = no.case_bound("E8", 16)
    assert [g.count for g in cb.groups] == [7, 7, 3]
    assert cb.product == 147 == cb.expected
    assert cb.stable


def test_e8_o17_joint_count_recomputed():
    entry = corr("E8.o17", "groupings")
    assert "144" in str(entry.recorded) and "126" in str(entry.corrected)
    cb = no.case_bound("E8", 17)
    assert [g.count for g in cb.groups] == [3, 3, 7, 2]
    assert cb.product == 126 == cb.expected
    assert cb.stable


def test_type_d_recorded_two_dim_pair_sits_inside_a_four_dim_component():
    # D8 order 9: i=1, recorded pair {a_4, -(e_3 + e_5)} lies in the
    # component with j = 2; the actual 2-dim component is {a_6, -(e_1+e_7)}
    rs, nm = nil("D8", 9)
    table = case_table("D8", 9)
    parts = no.decompose(nm)
    n, i = 8, 1
    j = (n - i - 3) // 2
    a4 = rs.simples[(n - i + 1) // 2 - 1]
    bad = cases._eps_sum_root(rs, (n - i - 1) // 2, (n - i + 3) // 2, -1)
    comp_j = next(p for p in parts if rs.simples[j - 1] in p.support)
    assert a4 in comp_j.support and bad in comp_j.support
    good = table.module_support("N1")
    assert good in {frozenset(p.support) for p in parts}
    assert len(good) == 2


@pytest.mark.parametrize("n,order", [(6, 7), (8, 9), (10, 11), (12, 13)])
def test_type_d_tables_match_computation(n, order):
    rs, nm = nil(f"D{n}", order)
    table = case_table(f"D{n}", order)
    parts = no.decompose(nm)
    assert {frozenset(p.support) for p in parts} == {
        table.module_support(name) for name in table.modules}
    i = order - n
    assert table.bound == type_d_bound(n, i)
    pos = frozenset(r for r in nm.unipotent_generators if sum(r) > 0)
    assert table.expected_generators() == pos


def test_corrections_for_dispatch():
    assert any(c.where == "roots.g7" for c in corrections_for("E8.o11"))
    assert corrections_for("E6.o7") == []
    # generic D entry applies when a 4-dim component exists (i <= n-5)
    assert len(corrections_for("D8.o9")) == 1
    assert corrections_for("D6.o9") == []     # i = 3 = n - 3, no 4-dim part
    assert len(corrections_for("D10.o11")) == 1
    assert corrections_for("E8.o16") != []


def test_type_d_bound_formula():
    assert type_d_bound(6, 1) == 2 ** 4 * 3
    assert type_d_bound(6, 3) == 2 ** 6
    assert type_d_bound(10, 1) == 2 ** 4 * 3 ** 3
