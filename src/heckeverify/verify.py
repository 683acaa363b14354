"""Plan and run the whole verification sweep.

The run is a flat list of units, each a picklable (unit name, args) pair
tagged with a stage and a case id.  A unit returns finished report records:
it builds them from engine counts, or passes on the records of an engine
that judges the claim itself.  Units run in a fixed order (root data,
finite groups, partitions, torus points, nilpotent orbit cases, Hecke
identities).  With --jobs the plan is cut into bundles, one per case-id
prefix (the part before the first dot: every `B6.*` unit, every
`partitions.*` unit, ...), so that a worker builds a type's tables once;
a bundle is handed to a worker process at the plan position of its last
unit, and records are put back in plan order, so the emitted report is
byte-identical no matter how many workers ran.

A unit failure never aborts the sweep: a refusal, one of the engine error
classes in REFUSALS (a budget, a prime bound, an enumeration size or a rank
cap the engine does not handle), turns into a skipped record carrying the
reason, anything else into a failed record.  The command line treats the
same classes as refusals.  An engine that finds a result contradicting the
theory raises something else, so it fails.  A structural problem in the
assembled report (say a duplicated claim id) adds one failed `report/lint`
record; every record is still returned.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import factorial, gcd, prod

from . import nilorbits, report
from .cases import CaseError, tabulated_cases
from .hecke import (
    EigenRelationError, HeckeError, L_Q, L_QINV, braid_classes,
    build_D_Dprime, ext_translation, hecke_mul, length, omega_group,
    one_dim_character, verify_bernstein, verify_translation_words,
)
from .nilorbits import NilOrbitError, admissible_primes
from .partitions import PartitionError, check_inequalities, p, typeD_bound, typeD_count
from .rootsystem import RootSystemError, build, parse_type, smith
from .torus import (
    TorusError, count_one_dim_characters, standard_point,
    verify_mixed_nonconjugacy,
)
from .weyl import (
    IRR_EXCEPTIONAL, WeylBudgetError, conjugacy_class_count, enumerate_group,
    irr_count, poincare, valid_orders,
)


class ConfigError(ValueError):
    """Bad run configuration; the command line maps this to exit code 2."""


# the engine error classes; each means "input not handled", never "wrong"
REFUSALS = (NilOrbitError, TorusError, WeylBudgetError, PartitionError,
            CaseError, RootSystemError, HeckeError)


def positive_int(name, v):
    """v, refused unless it is a positive integer."""
    if not isinstance(v, int) or isinstance(v, bool) or v < 1:
        raise ConfigError(f"{name} must be a positive integer, got {v!r}")
    return v


@dataclass(frozen=True)
class RunConfig:
    state_budget: int = nilorbits.DEFAULT_STATE_BUDGET
    cases: tuple = ()
    jobs: int = 1

    def validate(self):
        for name in ("state_budget", "jobs"):
            positive_int(name, getattr(self, name))
        if not isinstance(self.cases, tuple) or \
                not all(isinstance(c, str) for c in self.cases):
            raise ConfigError("cases must be a tuple of case-id strings")
        return self


# ---------------------------------------------------------------------------
# recorded constants used as expected values

ROOT_DATA_TYPES = ("A2", "A5", "A9", "B2", "B6", "C3", "C6", "D4", "D7",
                   "E6", "E7", "E8", "F4", "G2")

EXC_ORDERS = {"E6": 51840, "E7": 2903040, "E8": 696729600,
              "F4": 1152, "G2": 12}
EXC_ROOTS = {"E6": 72, "E7": 126, "E8": 240, "F4": 48, "G2": 12}
EXC_CENTER = {"E6": 3, "E7": 2, "E8": 1, "F4": 1, "G2": 1}
EXC_DEGREES = {"E6": (2, 5, 6, 8, 9, 12), "E7": (2, 6, 8, 10, 12, 14, 18),
               "E8": (2, 8, 12, 14, 18, 20, 24, 30), "F4": (2, 6, 8, 12),
               "G2": (2, 6)}

VALID_ORDER_TABLE = {"E6": (7, 10, 11), "E7": (11, 13, 15, 16, 17),
                     "E8": (11, 13, 16, 17, 19, 21, 22, 23, 25, 26, 27, 28, 29)}

CLASS_COUNT_TYPES = tuple(
    [f"A{n}" for n in range(2, 10)] + [f"B{n}" for n in range(2, 8)]
    + [f"C{n}" for n in range(3, 8)] + [f"D{n}" for n in range(4, 8)]
    + ["F4", "G2", "E6"])

P_VALUES = {3: 3, 4: 5, 5: 7, 6: 11}
TYPE_D_COUNTS = dict(zip(range(4, 13),
                         (13, 18, 37, 55, 100, 150, 251, 376, 599)))
TYPE_D_BOUNDS = dict(zip(range(4, 13),
                         (16, 32, 48, 96, 144, 288, 432, 864, 1296)))

MIXED_EXTRA = {"F4": (5, 7, 9, 10, 11), "G2": (4, 5)}
CHARACTER_TYPES = ("B2", "B3", "B4", "B5", "B6", "C3", "C4", "C5", "C6",
                   "F4", "G2")
NON_SIMPLY_LACED_CENTER = {"B": 2, "C": 2, "F": 1, "G": 1}

BALL_TYPES = ("A2", "B2", "G2")

# one representative per family plus every exceptional type
REGULAR_TYPES = ("A2", "A5", "B3", "C4", "D5", "F4", "G2", "E6", "E7", "E8")
SPANNING_TYPES = ("A1", "A2", "B2", "G2", "A3", "B3")
OMEGA_TABLE = {"A1": 2, "A2": 3, "A3": 4, "A4": 5, "B2": 2, "B3": 2,
               "C3": 2, "D4": 4, "F4": 1, "G2": 1}

BRAID_CLASS_TABLE = {
    "A2": ((0, 1, 2),), "B3": ((0,), (1, 2), (3,)),
    "F4": ((0, 3, 4), (1, 2)), "G2": ((0, 1), (2,)),
}


def _expected_root_data(name):
    ty = parse_type(name)
    fam, n = ty.family, ty.rank
    if fam == "A":
        return {"roots": n * (n + 1), "order": factorial(n + 1),
                "center": n + 1, "degrees": list(range(2, n + 2))}
    if fam in ("B", "C"):
        return {"roots": 2 * n * n, "order": (2 ** n) * factorial(n),
                "center": 2, "degrees": list(range(2, 2 * n + 1, 2))}
    if fam == "D":
        return {"roots": 2 * n * (n - 1),
                "order": (2 ** (n - 1)) * factorial(n), "center": 4,
                "degrees": sorted(list(range(2, 2 * n - 1, 2)) + [n])}
    return {"roots": EXC_ROOTS[name], "order": EXC_ORDERS[name],
            "center": EXC_CENTER[name], "degrees": list(EXC_DEGREES[name])}


# ---------------------------------------------------------------------------
# units


def _height_dual(rs):
    """Conjugate partition of the positive-root height histogram."""
    hist = rs.height_histogram()
    top = max(hist.values())
    return sorted(sum(1 for c in hist.values() if c >= k)
                  for k in range(1, top + 1))


def unit_root_data(name):
    rs = build(parse_type(name))
    expected = _expected_root_data(name)
    expected["height_dual"] = sorted(d - 1 for d in expected["degrees"])
    computed = {"roots": len(rs.all_roots), "order": rs.weyl_order(),
                "center": rs.center_order(), "degrees": sorted(rs.degrees),
                "height_dual": _height_dual(rs)}
    if expected["order"] <= 400_000:
        computed["enumerated_order"] = len(enumerate_group(rs))
        expected["enumerated_order"] = expected["order"]
    status = "pass" if expected == computed else "fail"
    return [report.make_record(
        "rootsystem", f"{name}.roots", "data", f"root data table {name}",
        "root count, group order, center order and degrees match the "
        "recorded tables; degrees agree with the height histogram",
        expected, computed, status)]


def unit_poincare_histogram(name):
    rs = build(parse_type(name))
    pc = poincare(rs)
    hist = enumerate_group(rs).length_histogram()
    computed = [hist.get(i, 0) for i in range(max(hist) + 1)]
    status = "pass" if computed == list(pc) else "fail"
    return [report.make_record(
        "weyl", f"{name}.poincare", "histogram",
        f"length generating function {name}",
        "degree-product coefficients equal the enumerated length histogram",
        list(pc), computed, status)]


def unit_valid_orders_exceptional(name):
    rs = build(parse_type(name))
    expected = list(VALID_ORDER_TABLE[name])
    computed = sorted(valid_orders(rs))
    return [report.make_record(
        "weyl", f"{name}.orders", "valid", f"valid order table {name}",
        "orders with nonvanishing length generating function match the "
        "recorded list",
        expected, computed, "pass" if expected == computed else "fail")]


def unit_valid_orders_type_a():
    expected = {f"A{n}": [] for n in range(1, 10)}
    computed = {f"A{n}": sorted(valid_orders(parse_type(f"A{n}")))
                for n in range(1, 10)}
    return [report.make_record(
        "weyl", "A.orders", "valid", "valid order table type A",
        "no valid orders exist in type A through rank 9",
        expected, computed, "pass" if expected == computed else "fail")]


def unit_valid_orders_type_d():
    expected = {f"D{n}": [m for m in range(n + 1, 2 * n - 2) if m % 2]
                for n in range(4, 13)}
    computed = {f"D{n}": sorted(valid_orders(parse_type(f"D{n}")))
                for n in range(4, 13)}
    return [report.make_record(
        "weyl", "D.orders", "valid", "valid order table type D",
        "valid orders are the odd integers strictly between n and 2n-2",
        expected, computed, "pass" if expected == computed else "fail")]


def unit_irr_exceptional():
    computed = {name: irr_count(build(parse_type(name)))
                for name in IRR_EXCEPTIONAL}
    status = "pass" if computed == IRR_EXCEPTIONAL else "fail"
    return [report.make_record(
        "weyl", "irr.exceptional", "counts",
        "character count table exceptional types",
        "irreducible character counts match the recorded values",
        dict(IRR_EXCEPTIONAL), computed, status)]


def unit_class_count(name):
    rs = build(parse_type(name))
    count, sizes = conjugacy_class_count(rs)
    expected = {"classes": irr_count(rs), "elements": rs.weyl_order()}
    computed = {"classes": count, "elements": sum(sizes)}
    return [report.make_record(
        "weyl", f"{name}.classes", "count", f"character count formula {name}",
        "conjugacy class count agrees with the character count formula",
        expected, computed, "pass" if expected == computed else "fail")]


def unit_partition_values():
    expected = {"p": dict(P_VALUES), "typeD_count": dict(TYPE_D_COUNTS),
                "typeD_bound": dict(TYPE_D_BOUNDS)}
    computed = {
        "p": {n: p(n) for n in P_VALUES},
        "typeD_count": {n: typeD_count(n) for n in TYPE_D_COUNTS},
        "typeD_bound": {n: typeD_bound(n) for n in TYPE_D_BOUNDS},
    }
    return [report.make_record(
        "partitions", "partitions.values", "tables", "partition value table",
        "partition counts, type-D character counts and comparison bounds "
        "match the recorded tables",
        expected, computed, "pass" if expected == computed else "fail")]


def unit_partition_inequalities(range_max, tau_max):
    out = []
    for k, res in enumerate(check_inequalities(range_max, tau_max), start=1):
        computed = {"holds": res["holds"],
                    "tightest_margin": res["tightest_margin"],
                    "at_n": res["at_n"]}
        out.append(report.make_record(
            "partitions", "partitions.inequalities", f"ineq-{k}",
            f"inequality table entry {k}", res["name"],
            {"holds": True}, computed,
            "pass" if res["holds"] else "fail"))
    return out


def unit_character_counts(name, m):
    z = NON_SIMPLY_LACED_CENTER[parse_type(name).family]
    c1 = count_one_dim_characters(parse_type(name), 1)
    cm = count_one_dim_characters(parse_type(name), m)
    case, anchor = f"{name}.characters", f"central character table {name}"
    return [
        report.make_record(
            "torus", case, "count-q1", anchor,
            "the group-algebra model has one character class per central "
            "element", z, c1, "pass" if c1 == z else "fail"),
        report.make_record(
            "torus", case, "count-generic", anchor,
            f"at order {m} the standard and mixed families double the "
            f"character class count",
            2 * z, cm, "pass" if cm == 2 * z else "fail"),
    ]


def unit_orbit_case(name, order, state_budget):
    case = f"{name}.o{order}"
    try:
        primes = admissible_primes(order)
    except NilOrbitError as e:
        return [report.make_record(
            "nilorbits", case, nm, f"case table {case}: {label}",
            str(e), None, None, "skipped")
            for nm, label in nilorbits.CASE_RECORDS]
    return nilorbits.verify_case(name, order, primes, state_budget)


def unit_regular_count(name, state_budget):
    """Orbit count at an order past every exponent.

    The eigenspace is the span of the simple root lines and the bracket
    graph has no edges, so the count is governed by the torus alone.  The
    simple roots are independent characters, hence the torus moves any
    vector to any other with the same support and the geometric count is
    2^rank.  Over a finite field each line of weight content c carries
    gcd(c, p-1) scaling classes instead of one, so the rational class
    count is also predicted exactly and cross-checked; type C sees this
    (the long simple root has content 2), every other family does not."""
    rs = build(parse_type(name))
    case = f"{name}.regular"
    m = max(rs.degrees) + 1
    primes = admissible_primes(m)
    nm = nilorbits.build_nqs(rs, standard_point(rs, m))
    parts = nilorbits.decompose(nm)
    weight_of = dict(zip(nm.basis_roots, nm.torus_weights))
    weight_rank = len(smith(nm.torus_weights)[2])
    contents = [gcd(*weight_of[sub.support[0]]) for sub in parts]
    per_module = []
    for sub in parts:
        counts, refusal, _ = nilorbits.counts_by_prime(nm, [sub], primes,
                                                       state_budget)
        if refusal is not None:
            raise NilOrbitError(refusal)
        per_module.append(dict(counts))
    rational = {str(q): prod(c[q] for c in per_module) for q in primes}
    predicted = {str(q): prod(1 + gcd(c, q - 1) for c in contents)
                 for q in primes}
    independent = (weight_rank == rs.rank and len(parts) == rs.rank
                   and all(sub.dim == 1 for sub in parts)
                   and not nm.unipotent_generators)
    expected = {"modules": rs.rank, "module_dims": [1] * rs.rank,
                "weight_rank": rs.rank, "geometric_orbits": 2 ** rs.rank,
                "rational_classes": predicted}
    computed = {"modules": len(parts),
                "module_dims": [sub.dim for sub in parts],
                "weight_rank": weight_rank,
                "geometric_orbits": 2 ** len(parts) if independent else None,
                "rational_classes": rational}
    return [report.make_record(
        "nilorbits", case, "count", f"regular orbit count {name}",
        f"at order {m} the eigenspace is {rs.rank} independent singleton "
        f"lines, one geometric orbit per support; finite-field class "
        f"counts match the content prediction",
        expected, computed,
        "pass" if computed == expected else "fail")]


def _scalar_exponent(val):
    if val == L_Q:
        return 1
    if val == L_QINV:
        return -1
    return repr(val)


def _character_row(name, assignment, rank):
    vals = one_dim_character(name, assignment)
    return [_scalar_exponent(vals[i]) for i in range(1, rank + 1)]


def unit_character_tables():
    out = []
    expected = {f"A{n}": [1] * n for n in range(1, 5)}
    computed = {f"A{n}": _character_row(f"A{n}", {i: "q" for i in range(n + 1)}, n)
                for n in range(1, 5)}
    out.append(report.make_record(
        "hecke", "hecke.characters", "A-all-q", "character table type A",
        "sending every generator to q makes every simple-root scalar q",
        expected, computed, "pass" if expected == computed else "fail"))

    expected = {f"A{n}": [-1] * n for n in range(1, 5)}
    computed = {f"A{n}": _character_row(f"A{n}", {i: "-1" for i in range(n + 1)}, n)
                for n in range(1, 5)}
    out.append(report.make_record(
        "hecke", "hecke.characters", "A-all-minus", "character table type A",
        "sending every generator to -1 makes every simple-root scalar 1/q",
        expected, computed, "pass" if expected == computed else "fail"))

    computed = _character_row(
        "F4", {0: "-1", 1: "q", 2: "q", 3: "-1", 4: "-1"}, 4)
    out.append(report.make_record(
        "hecke", "hecke.characters", "F4-mixed", "character table F4",
        "the mixed character gives scalars q, q, 1/q, 1/q",
        [1, 1, -1, -1], computed,
        "pass" if computed == [1, 1, -1, -1] else "fail"))

    computed = _character_row("G2", {0: "q", 1: "q", 2: "-1"}, 2)
    out.append(report.make_record(
        "hecke", "hecke.characters", "G2-mixed", "character table G2",
        "the mixed character gives scalars q, 1/q",
        [1, -1], computed, "pass" if computed == [1, -1] else "fail"))

    expected = {f"B{n}": [1] * (n - 1) + [-1] for n in range(2, 7)}
    computed = {}
    for n in range(2, 7):
        assignment = {0: "-1", n: "-1"}
        assignment.update({i: "q" for i in range(1, n)})
        computed[f"B{n}"] = _character_row(f"B{n}", assignment, n)
    out.append(report.make_record(
        "hecke", "hecke.characters", "B-mixed", "character table type B",
        "the mixed character gives q on the long simple roots and 1/q on "
        "the short one",
        expected, computed, "pass" if expected == computed else "fail"))

    expected = {k: [list(g) for g in v] for k, v in BRAID_CLASS_TABLE.items()}
    computed = {k: [list(g) for g in braid_classes(parse_type(k))]
                for k in BRAID_CLASS_TABLE}
    out.append(report.make_record(
        "hecke", "hecke.characters", "braid-classes", "braid class table",
        "odd-bond connectivity of the affine diagrams matches the recorded "
        "grouping",
        expected, computed, "pass" if expected == computed else "fail"))
    return out


def unit_spanning_sums(name):
    rs = build(parse_type(name))
    expected = {"terms": rs.weyl_order(), "eigen_relations": "verified"}
    try:
        d, dp = build_D_Dprime(rs)
    except EigenRelationError as e:     # the rank cap is a refusal
        return [report.make_record(
            "hecke", f"{name}.ddprime", "eigen", f"spanning sums {name}",
            str(e), expected, {"eigen_relations": "failed"}, "fail")]
    computed = {"terms": len(d), "eigen_relations": "verified"}
    if rs.rank <= 2:
        expected["product_zero"] = True
        computed["product_zero"] = (hecke_mul(d, dp).is_zero()
                                    and hecke_mul(dp, d).is_zero())
    return [report.make_record(
        "hecke", f"{name}.ddprime", "eigen", f"spanning sums {name}",
        "both spanning sums satisfy their one-sided eigen-relations in the "
        "Laurent ring" + ("; their product vanishes" if rs.rank <= 2 else ""),
        expected, computed, "pass" if expected == computed else "fail")]


def unit_translation_lengths():
    expected = {f"A{n}": [i * (n + 1 - i) for i in range(1, n + 1)]
                for n in range(1, 7)}
    computed = {}
    for n in range(1, 7):
        rs = build(parse_type(f"A{n}"))
        computed[f"A{n}"] = [
            length(ext_translation(rs, tuple(int(j == i - 1)
                                             for j in range(n))))
            for i in range(1, n + 1)]
    return [report.make_record(
        "hecke", "typeA.lengths", "fundamental",
        "fundamental translation lengths type A",
        "the i-th fundamental translation has length i(n+1-i) through rank 6",
        expected, computed, "pass" if expected == computed else "fail")]


def unit_omega_sizes():
    computed = {name: len(omega_group(parse_type(name)))
                for name in OMEGA_TABLE}
    return [report.make_record(
        "hecke", "omega", "sizes", "length-zero subgroup orders",
        "the length-zero subgroup order equals the center order",
        dict(OMEGA_TABLE), computed,
        "pass" if computed == OMEGA_TABLE else "fail")]


UNITS = {
    "root-data": unit_root_data,
    "poincare-histogram": unit_poincare_histogram,
    "valid-orders-exceptional": unit_valid_orders_exceptional,
    "valid-orders-type-a": unit_valid_orders_type_a,
    "valid-orders-type-d": unit_valid_orders_type_d,
    "irr-exceptional": unit_irr_exceptional,
    "class-count": unit_class_count,
    "partition-values": unit_partition_values,
    "partition-inequalities": unit_partition_inequalities,
    # engines that return finished records are looked up by their
    # module-level names at call time, so a wrapper later rebound onto such
    # a name (a tracer's, say) is called; a dict value would keep the
    # original function
    "mixed-nonconjugacy": lambda name, m: [
        verify_mixed_nonconjugacy(parse_type(name), m)],
    "character-counts": unit_character_counts,
    "orbit-case": unit_orbit_case,
    "regular-count": unit_regular_count,
    "translation-words": lambda: verify_translation_words(),
    "theta-ball": lambda name: verify_bernstein(name),
    "character-tables": unit_character_tables,
    "spanning-sums": unit_spanning_sums,
    "translation-lengths": unit_translation_lengths,
    "omega-sizes": unit_omega_sizes,
}


def _plan(config: RunConfig):
    """(stage, case, unit, args) in run order."""
    out = []
    for name in ROOT_DATA_TYPES:
        out.append(("rootsystem", f"{name}.roots", "root-data", (name,)))
    for name in ("A3", "B3", "G2", "F4", "E6"):
        out.append(("weyl", f"{name}.poincare", "poincare-histogram", (name,)))
    for name in ("E6", "E7", "E8"):
        out.append(("weyl", f"{name}.orders", "valid-orders-exceptional",
                    (name,)))
    out.append(("weyl", "A.orders", "valid-orders-type-a", ()))
    out.append(("weyl", "D.orders", "valid-orders-type-d", ()))
    out.append(("weyl", "irr.exceptional", "irr-exceptional", ()))
    for name in CLASS_COUNT_TYPES:
        out.append(("weyl", f"{name}.classes", "class-count", (name,)))
    out.append(("partitions", "partitions.values", "partition-values", ()))
    out.append(("partitions", "partitions.inequalities",
                "partition-inequalities", (500, 60)))
    for n in range(2, 9):
        for m in sorted(m for m in valid_orders(parse_type(f"B{n}")) if m % 2):
            out.append(("torus", f"B{n}.m{m}", "mixed-nonconjugacy",
                        (f"B{n}", m)))
    for name, orders in MIXED_EXTRA.items():
        for m in orders:
            out.append(("torus", f"{name}.m{m}", "mixed-nonconjugacy",
                        (name, m)))
    for name in CHARACTER_TYPES:
        m = min(valid_orders(parse_type(name)))
        out.append(("torus", f"{name}.characters", "character-counts",
                    (name, m)))
    for name, order in tabulated_cases():
        out.append(("nilorbits", f"{name}.o{order}", "orbit-case",
                    (str(name), order, config.state_budget)))
    for name in REGULAR_TYPES:
        out.append(("nilorbits", f"{name}.regular", "regular-count",
                    (name, config.state_budget)))
    out.append(("hecke", "words", "translation-words", ()))
    for name in BALL_TYPES:
        out.append(("hecke", f"{name}.ball", "theta-ball", (name,)))
    out.append(("hecke", "hecke.characters", "character-tables", ()))
    for name in SPANNING_TYPES:
        out.append(("hecke", f"{name}.ddprime", "spanning-sums", (name,)))
    out.append(("hecke", "typeA.lengths", "translation-lengths", ()))
    out.append(("hecke", "omega", "omega-sizes", ()))
    return out


def _run_entry(entry):
    stage, case, unit, args = entry
    try:
        return UNITS[unit](*args)
    except REFUSALS as e:
        return [report.make_record(stage, case, "refused",
                                   f"unit {unit} {case}", str(e),
                                   None, None, "skipped")]
    except Exception as e:  # keep the sweep alive, surface the unit
        # both sides are filled in, so the record passes report.lint
        raised = f"{type(e).__name__}: {e}"
        return [report.make_record(stage, case, "error",
                                   f"unit {unit} {case}", raised,
                                   "no exception", raised, "fail")]


def _run_bundle(entries):
    return [_run_entry(e) for e in entries]


def _bundles(plan):
    """The plan's positions grouped by case-id prefix, each group in plan
    order, the groups ordered by the position of their last unit.  By the
    last unit, the partitions bundle (with the long inequalities unit) goes
    out before every type bundle that reaches the torus, orbit or Hecke
    stages; by the first, it would start after all of them."""
    groups = {}
    for k, (_, case, _, _) in enumerate(plan):
        groups.setdefault(case.split(".", 1)[0], []).append(k)
    return sorted(groups.values(), key=lambda ks: ks[-1])


@dataclass(frozen=True)
class VerificationReport:
    config: RunConfig
    records: tuple

    @property
    def counts(self):
        return report.status_counts(self.records)

    @property
    def failures(self):
        return tuple(r for r in self.records if r["status"] == "fail")

    @property
    def exit_code(self):
        return 1 if self.failures else 0


def verify_all(config: RunConfig = None) -> VerificationReport:
    config = (config or RunConfig()).validate()
    plan = _plan(config)
    if config.cases:
        known = {case for _, case, _, _ in plan}
        missing = sorted(set(config.cases) - known)
        if missing:
            raise ConfigError(f"unknown case ids: {', '.join(missing)}")
        plan = [e for e in plan if e[1] in config.cases]
    bundles = _bundles(plan) if config.jobs > 1 else ()
    if len(bundles) > 1:
        # fork starts every worker at once, so no more than there are bundles
        workers = min(config.jobs, len(bundles))
        chunks = [None] * len(plan)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = pool.map(_run_bundle, [[plan[k] for k in ks]
                                          for ks in bundles])
            for ks, got in zip(bundles, done):
                for k, chunk in zip(ks, got):
                    chunks[k] = chunk
    else:
        chunks = [_run_entry(e) for e in plan]
    records = [rec for chunk in chunks for rec in chunk]
    problems = report.lint(records)
    if problems:
        # a malformed report is a failed run, not a lost one
        records.append(report.make_record(
            "report", "report", "lint", "report structure",
            "claim ids are unique and every pass/fail claim has an anchor "
            "and both sides", "no problems", problems, "fail"))
    return VerificationReport(config, tuple(records))
