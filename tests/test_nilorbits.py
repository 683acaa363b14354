from dataclasses import replace

import numpy as np
import pytest

from heckeverify import nilorbits as no
from heckeverify.cases import case_table, type_d_bound
from heckeverify.nilorbits import (NilOrbitError, admissible_primes, build_nqs,
                                   case_bound, decompose, orbit_count_ff,
                                   representatives_distinct, verify_case)
from heckeverify.rootsystem import build, parse_type, structure_constants
from heckeverify.torus import standard_point
from heckeverify.verify import REFUSALS
from heckeverify.weyl import valid_orders


def nil(rstype, order):
    rs = build(parse_type(rstype))
    return rs, build_nqs(rs, standard_point(rs, order))


# --- eigenspace construction -------------------------------------------------


def test_basis_always_contains_the_simples():
    for rstype, order in [("E6", 7), ("E7", 11), ("B4", 7), ("F4", 7), ("G2", 5)]:
        rs, nm = nil(rstype, order)
        for s in rs.simples:
            assert s in nm.basis_roots


def test_e6_order_7_shape():
    rs, nm = nil("E6", 7)
    assert len(nm.basis_roots) == 11
    assert len(nm.unipotent_generators) == 6
    assert sum(1 for r in nm.unipotent_generators if sum(r) > 0) == 3
    assert len(nm.torus_weights) == 11
    assert nm.torus_weights[nm.basis_roots.index(rs.simples[0])] == tuple(
        rs.cartan[0])


def test_order_one_is_refused():
    rs = build(parse_type("A2"))
    with pytest.raises(NilOrbitError, match="order 1"):
        build_nqs(rs, standard_point(rs, 1))


def test_vanishing_poincare_sum_is_refused():
    rs = build(parse_type("B2"))
    with pytest.raises(NilOrbitError, match="vanishes"):
        build_nqs(rs, standard_point(rs, 4))


def test_infinite_order_gives_simples_and_no_generators():
    rs = build(parse_type("E8"))
    nm = build_nqs(rs, standard_point(rs, None))
    assert set(nm.basis_roots) == set(rs.simples)
    assert nm.unipotent_generators == ()


def test_order_beyond_max_exponent_behaves_like_infinite():
    rs = build(parse_type("E6"))
    nm = build_nqs(rs, standard_point(rs, 13))
    assert set(nm.basis_roots) == set(rs.simples)
    assert nm.unipotent_generators == ()


# --- decomposition -----------------------------------------------------------


def test_decompose_sizes_for_the_tabled_cases():
    want = {("E6", 7): [1, 2, 4, 4], ("E7", 11): [1, 1, 2, 4, 4],
            ("E7", 13): [1, 1, 1, 1, 2, 4], ("E8", 11): [2, 9, 12],
            ("E8", 13): [1, 2, 4, 12], ("E8", 16): [2, 2, 4, 4, 4],
            ("E8", 17): [1, 2, 4, 4, 4]}
    for (rstype, order), sizes in want.items():
        rs, nm = nil(rstype, order)
        parts = decompose(nm)
        assert sorted(p.dim for p in parts) == sizes, (rstype, order)


def test_decompose_is_deterministic_and_ordered():
    rs, nm = nil("E7", 13)
    a = decompose(nm)
    b = decompose(nm)
    assert a == b
    firsts = [p.support[0] for p in a]
    assert firsts == sorted(firsts)
    for p in a:
        assert p.support == tuple(sorted(p.support))


def test_decompose_components_cover_the_basis():
    rs, nm = nil("E8", 13)
    parts = decompose(nm)
    seen = [r for p in parts for r in p.support]
    assert sorted(seen) == sorted(nm.basis_roots)
    assert len(seen) == len(set(seen))


def test_decompose_is_sign_convention_independent():
    rs = build(parse_type("E7"))
    s = standard_point(rs, 11)
    a = decompose(build_nqs(rs, s, structure_constants(rs.rstype, "extraspecial")))
    b = decompose(build_nqs(rs, s, structure_constants(rs.rstype, "twisted")))
    assert a == b


@pytest.mark.parametrize("convention", ["extraspecial", "twisted"])
@pytest.mark.parametrize("rstype,order", [("E6", 7), ("E8", 16)])
def test_bracket_table_is_the_structure_constants(rstype, order, convention):
    rs = build(parse_type(rstype))
    sc = structure_constants(rs.rstype, convention)
    nm = build_nqs(rs, standard_point(rs, order), sc)
    assert len(nm.bracket) == len(nm.unipotent_generators)
    hits = 0
    for gamma, row in zip(nm.unipotent_generators, nm.bracket):
        assert len(row) == nm.dim
        for beta, hit in zip(nm.basis_roots, row):
            summed = tuple(x + y for x, y in zip(beta, gamma))
            if hit is None:
                assert not rs.is_root(summed) and sc.n(gamma, beta) == 0
                continue
            hits += 1
            assert nm.basis_roots[hit[0]] == summed
            assert hit[1] == sc.n(gamma, beta) != 0
    assert hits


def test_decompose_at_infinite_order_gives_singletons():
    rs = build(parse_type("D5"))
    nm = build_nqs(rs, standard_point(rs, None))
    parts = decompose(nm)
    assert [p.dim for p in parts] == [1] * rs.rank


# --- admissible primes -------------------------------------------------------


def test_admissible_primes_smallest_first():
    assert admissible_primes(16) == [17, 97]
    assert admissible_primes(7) == [29, 43]
    assert admissible_primes(7, count=3) == [29, 43, 71]
    assert admissible_primes(11) == [23, 67]
    assert admissible_primes(13) == [53, 79]
    # no prime p = 1 mod 17 exists below 100
    assert admissible_primes(17) == [103, 137]


def test_admissible_primes_refusal_names_the_limit():
    with pytest.raises(NilOrbitError, match="below 50"):
        admissible_primes(23, count=2, limit=50)
    with pytest.raises(NilOrbitError, match="order"):
        admissible_primes(1)


# --- finite-field orbit counts ----------------------------------------------


def test_e6_order_7_per_module_counts():
    rs, nm = nil("E6", 7)
    parts = decompose(nm)
    by_dim = sorted(parts, key=lambda p: p.dim)
    counts = {p: orbit_count_ff(nm, [p], 29).count for p in parts}
    assert sorted(counts.values()) == [2, 2, 3, 3]
    assert counts[by_dim[0]] == 2          # singleton line
    assert counts[by_dim[-1]] == 3         # 4-dim tensor square


def test_counts_are_prime_independent():
    rs, nm = nil("E6", 7)
    parts = decompose(nm)
    for p in parts:
        c = {orbit_count_ff(nm, [p], q).count for q in (29, 43, 71)}
        assert len(c) == 1


def test_counts_are_sign_convention_independent():
    rs, nm = nil("E7", 11)
    parts = decompose(nm)
    s = standard_point(rs, 11)
    extra = build_nqs(rs, s, structure_constants(rs.rstype, "extraspecial"))
    twist = build_nqs(rs, s, structure_constants(rs.rstype, "twisted"))
    for p in parts:
        a = orbit_count_ff(extra, [p], 23)
        b = orbit_count_ff(twist, [p], 23)
        assert a.count == b.count


def test_counts_are_support_order_independent():
    rs, nm = nil("E8", 16)
    parts = decompose(nm)
    pair = [p for p in parts if p.dim in (2, 4)][:2]
    a = orbit_count_ff(nm, pair, 17).count
    b = orbit_count_ff(nm, list(reversed(pair)), 17).count
    assert a == b


def test_no_generator_independent_weights_gives_two_to_the_dim():
    rs, nm = nil("E6", 13)
    parts = decompose(nm)
    oc = orbit_count_ff(nm, parts, 53)
    assert oc.count == 2 ** 6


def test_one_dimensional_module_has_two_orbits():
    rs, nm = nil("E6", 7)
    single = next(p for p in decompose(nm) if p.dim == 1)
    for q in (29, 43):
        assert orbit_count_ff(nm, [single], q).count == 2


def test_joint_count_e8_o16():
    rs, nm = nil("E8", 16)
    table = case_table("E8", 16)
    comp = {frozenset(p.support): p for p in decompose(nm)}
    subs = [comp[table.module_support("M1")], comp[table.module_support("M3")]]
    for q in (17, 97):
        assert orbit_count_ff(nm, subs, q).count == 7


def test_partial_support_is_refused():
    rs, nm = nil("E6", 7)
    big = next(p for p in decompose(nm) if p.dim == 4)
    half = no.Submodule(big.support[:2])
    with pytest.raises(NilOrbitError, match="not closed"):
        orbit_count_ff(nm, [half], 29)


def _no_support_classes(monkeypatch):
    def refuse(*args):
        raise AssertionError("a support class was built")
    monkeypatch.setattr(no, "_SupportClasses", refuse)


def test_dimension_cap_is_refused_with_the_dimension(monkeypatch):
    # 2^23 states at least: refused before any support class is built
    rs, nm = nil("E8", 11)
    parts = decompose(nm)
    _no_support_classes(monkeypatch)
    with pytest.raises(NilOrbitError, match="8388608") as err:
        orbit_count_ff(nm, parts, 23)
    assert "dimension 23" in str(err.value)


def test_closure_is_refused_exactly_over_the_budget(monkeypatch):
    rs, nm = nil("E6", 7)
    for sub in decompose(nm):
        closure = orbit_count_ff(nm, [sub], 29)
        n, d = closure.n_states, closure.d
        with pytest.raises(NilOrbitError, match="over the budget"):
            orbit_count_ff(nm, [sub], 29, state_budget=n - 1)
        assert orbit_count_ff(nm, [sub], 29, state_budget=n).count == \
            closure.count
        with monkeypatch.context() as m:
            _no_support_classes(m)
            with pytest.raises(NilOrbitError, match=f"at least {2 ** d} "):
                orbit_count_ff(nm, [sub], 29, state_budget=2 ** d - 1)


def test_e8_o11_refusal_texts_are_pinned():
    refusals = sorted(g.refusal for g in case_bound("E8", 11).groups
                      if g.refusal is not None)
    assert refusals == [
        "at least 353648 torus-canonical states on dimension 9; over the "
        "budget of 300000",
        "at least 363353 torus-canonical states on dimension 12; over the "
        "budget of 300000"]


def test_state_budget_refusal_names_the_estimate():
    rs, nm = nil("E8", 13)
    big = next(p for p in decompose(nm) if p.dim == 12)
    with pytest.raises(NilOrbitError, match="torus-canonical states"):
        orbit_count_ff(nm, [big], 53)


def test_representatives_distinct_detects_collisions():
    rs, nm = nil("E6", 7)
    parts = decompose(nm)
    single = next(p for p in parts if p.dim == 1)
    line = single.support[0]
    closure = orbit_count_ff(nm, [single], 29)
    assert representatives_distinct(closure, [(), (line,)])
    assert not representatives_distinct(closure, [(line,), (line,)])


# --- orbit closure against a union-find oracle -------------------------------


def union_find_least(n, edges):
    """Plain union-find over the given edges: the least state of each
    state's block."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in edges:
        parent[find(a)] = find(b)
    least = {}
    for i in range(n):
        least.setdefault(find(i), i)
    return [least[find(i)] for i in range(n)]


def move_edges(closure):
    """Every (state, image state) pair of every move, one scalar at a time,
    from the closure's move matrices."""
    p, vecs = closure.p, closure.vectors
    for mats in closure.moves:
        for c in range(1, p):
            img = vecs.copy()
            for k, mat in enumerate(mats, start=1):
                if mat is not None:
                    img += pow(c, k, p) * vecs.dot(mat.T) % p
            dst = closure._canonical_batch(img % p)
            yield from enumerate(dst.tolist())


def closure_of(rstype, order, p, modules):
    """The closure over the named modules of a detailed case table."""
    rs, nm = nil(rstype, order)
    table = case_table(rstype, order)
    comp = {frozenset(sub.support): sub for sub in decompose(nm)}
    return no._Closure(no._Span(
        nm, no._support_roots([comp[table.module_support(name)]
                               for name in modules])), p)


@pytest.mark.parametrize("rstype,order,p,modules,states", [
    ("E6", 7, 29, ("M1",), 43), ("E6", 7, 29, ("M2",), 43),
    ("E6", 7, 29, ("M3",), 4), ("E6", 7, 29, ("M4",), 2),
    ("E8", 16, 17, ("M1", "M3"), 454),
])
def test_closure_labels_match_a_union_find_oracle(rstype, order, p, modules,
                                                  states):
    closure = closure_of(rstype, order, p, modules)
    assert closure.n_states == states
    least = union_find_least(states, move_edges(closure))
    assert closure.run() == len(set(least))
    assert closure.label.tolist() == least
    for bits in range(1 << closure.d):
        subset = [r for i, r in enumerate(closure.roots) if bits >> i & 1]
        vec = np.zeros((1, closure.d), dtype=np.int64)
        vec[0, [closure.roots.index(r) for r in subset]] = 1
        state = int(closure._canonical_batch(vec)[0])
        assert closure.class_of(subset) == least[state]


# --- per-case driver ---------------------------------------------------------


def test_case_bound_e6_o7():
    cb = case_bound("E6", 7)
    assert cb.product == 36 and cb.expected == 36
    assert cb.stable and cb.bound_kind == "product"
    assert sorted(g.count for g in cb.groups) == [2, 2, 3, 3]
    for g in cb.groups:
        assert [p for p, _ in g.counts] == [29, 43]


def test_case_bound_e7():
    assert case_bound("E7", 11).product == 72
    assert case_bound("E7", 13).product == 96


def test_case_bound_plain_totals():
    for rstype, order, total in [("E6", 10, 64), ("E6", 11, 64),
                                 ("E7", 15, 128), ("E7", 16, 128),
                                 ("E7", 17, 128)]:
        cb = case_bound(rstype, order)
        assert cb.product == total and cb.bound_kind == "exact"
        assert all(g.count == 2 for g in cb.groups)


def test_case_bound_type_d_pattern():
    cb = case_bound("D6", 7)          # i=1: one 4-dim module
    assert cb.product == type_d_bound(6, 1) == 48
    assert sorted(g.count for g in cb.groups) == [2, 2, 2, 2, 3]
    cb = case_bound("D6", 9)          # i=3: no 4-dim module
    assert cb.product == type_d_bound(6, 3) == 64
    assert all(g.count == 2 for g in cb.groups)


def test_case_bound_rejects_invalid_orders():
    with pytest.raises(NilOrbitError, match="valid order"):
        case_bound("E6", 13)
    with pytest.raises(NilOrbitError, match="valid order"):
        case_bound("A3", 3)


def test_case_bound_order_refusals_name_their_reason():
    for rstype, order, reason in [
            ("E6", 1, "order 1 makes the (q-1) factor vanish"),
            ("A3", 3, "Poincare sum of A3 vanishes"),
            ("E6", 5, "Poincare sum of E6 vanishes"),
            ("E6", 13, "largest exponent 11"),
            ("E6", 0, "largest exponent 11")]:
        with pytest.raises(NilOrbitError, match="valid order") as err:
            case_bound(rstype, order)
        assert reason in str(err.value)


def test_case_bound_checks_the_order_before_the_primes():
    with pytest.raises(NilOrbitError, match="not a valid order"):
        case_bound("E6", 13, primes=[5])
    with pytest.raises(NilOrbitError, match="5 is not an admissible prime"):
        case_bound("E6", 7, primes=[5, 29])


def test_case_bound_counts_a_given_grouping():
    cb = case_bound("E8", 16, groupings=(("M1", "M3"),))
    (g,) = cb.groups
    assert g.modules == ("M1", "M3") and g.dim == 6
    assert g.counts == ((17, 7), (97, 7)) and g.stable
    # a recorded grouping keeps its expected count and representatives
    assert g.expected == 7 and g.distinct is True
    assert cb.product == 7 and cb.case == "E8.o16"


def test_case_bound_refuses_bad_groupings():
    for groupings, words in [(((),), "empty"),
                             ((("M1", "M1"),), "names a module twice"),
                             ((("M9",),), "M9 out of range")]:
        with pytest.raises(ValueError, match=words):
            case_bound("E6", 7, groupings=groupings)


def test_component_mismatch_is_not_a_refusal():
    assert not issubclass(no.ComponentMismatch, (*REFUSALS, ValueError))


def test_case_bound_e8_with_refused_groups_has_no_product():
    cb = case_bound("E8", 11)
    assert cb.product is None
    refusals = [g for g in cb.groups if g.refusal is not None]
    assert refusals and all("budget" in g.refusal for g in refusals)
    small = next(g for g in cb.groups if g.dim == 2)
    assert small.count == 2


def test_verify_case_is_five_records():
    recs = verify_case("E6", 7)
    assert [r["claim_id"].split("/")[1] for r in recs] == [
        "generators", "q-roots", "decomposition", "orbit-counts", "bound"]
    assert all(r["status"] == "pass" for r in recs)
    assert all(r["case"] == "E6.o7" for r in recs)
    assert all(r["anchor"] for r in recs)
    bound = recs[-1]
    assert bound["expected"] == 36 and bound["computed"] == 36


def test_verify_case_e8_o16_passes_with_corrections_attached():
    recs = verify_case("E8", 16)
    assert [r["status"] for r in recs] == ["pass"] * 5
    counts = next(r for r in recs if r["claim_id"].endswith("orbit-counts"))
    assert counts["corrections"]
    assert "distinct orbits: True" in counts["statement"]
    bound = recs[-1]
    assert bound["expected"] == 147 and bound["computed"] == 147
    assert bound["corrections"]


def test_verify_case_fails_on_colliding_representatives(monkeypatch):
    # the eight representatives as recorded, two of which share an orbit
    table = case_table("E8", 16)
    first = replace(table.groupings[0], representatives=(
        (), ("a1",), ("a3",), ("a3", "a8"), ("a1", "a3"),
        ("a1", "a3", "a8"), ("a1", "-e2"), ("a1", "a3", "-e2")))
    patched = replace(table, groupings=(first,) + table.groupings[1:])
    monkeypatch.setattr(no.cases, "case_table", lambda *args: patched)
    runs = []
    run = no._Closure.run

    def counted_run(self):
        runs.append(self.p)
        return run(self)

    monkeypatch.setattr(no._Closure, "run", counted_run)
    recs = verify_case("E8", 16)
    counts = next(r for r in recs if r["claim_id"].endswith("orbit-counts"))
    assert "8 recorded representatives" in counts["statement"]
    assert "distinct orbits: False" in counts["statement"]
    assert counts["status"] == "fail"
    # three groupings at two primes, each counted by one closure
    assert len(runs) == 6


def test_verify_case_e8_o11_reports_informationally():
    recs = verify_case("E8", 11)
    stats = {r["claim_id"].split("/")[1]: r["status"] for r in recs}
    assert stats["generators"] == "pass"
    assert stats["q-roots"] == "pass"
    assert stats["decomposition"] == "pass"
    assert stats["orbit-counts"] == "informational"
    assert stats["bound"] == "informational"


def test_verify_case_plain_table_skips_the_lists():
    recs = verify_case("E6", 10)
    stats = [r["status"] for r in recs]
    assert stats[:3] == ["skipped"] * 3
    assert stats[4] == "pass"
    assert recs[-1]["expected"] == 64 and recs[-1]["computed"] == 64


def test_verify_case_at_least_claims():
    recs = verify_case("E8", 19)
    bound = recs[-1]
    assert bound["status"] == "pass"
    assert bound["expected"] == 144 and bound["computed"] >= 144


def test_verify_case_type_d_attaches_the_generic_correction():
    recs = verify_case("D8", 9)
    assert [r["status"] for r in recs] == ["pass"] * 5
    decomp = next(r for r in recs if r["claim_id"].endswith("decomposition"))
    assert decomp["corrections"]
    recs = verify_case("D6", 9)
    decomp = next(r for r in recs if r["claim_id"].endswith("decomposition"))
    assert not decomp["corrections"]


def test_type_d_closed_form_across_all_valid_orders():
    for n in range(4, 11):
        rs = build(parse_type(f"D{n}"))
        for m in sorted(valid_orders(rs)):
            if m % 2 == 0:
                continue
            cb = case_bound(f"D{n}", m)
            assert cb.product == type_d_bound(n, m - n), (n, m)
            assert cb.stable
