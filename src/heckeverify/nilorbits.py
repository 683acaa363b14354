"""The exponent-one eigenspace, its submodule decomposition, and orbit
counting for the centralizer action.

Orbits are counted over small prime fields with p = 1 mod the order, so
that the field contains an element of that multiplicative order.  Every
vector is first canonicalized to a torus-orbit label (support pattern
plus a discrete class computed by integer lattice reduction of the
restricted weight matrix); the unipotent one-parameter moves are then
closed over every field scalar with a union-find.  Counting the same
case over two primes and both sign conventions guards the arithmetic.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, prod

import numpy as np

from . import cases, report
from .rootsystem import (RootSystem, build, components, parse_type,
                         structure_constants, _invert_fraction_matrix)
from .torus import TorusPoint, standard_point, roots_with_exponent
from .weyl import poincare_vanishes, valid_orders


class NilOrbitError(ValueError):
    pass


DEFAULT_DIM_CAP = 12
DEFAULT_STATE_BUDGET = 300_000


@dataclass(frozen=True)
class NilModule:
    rs: RootSystem
    point: TorusPoint
    basis_roots: tuple          # roots with exponent one, deterministic order
    torus_weights: tuple        # pairing vector of each basis root
    unipotent_generators: tuple  # all roots with exponent zero, both signs

    @property
    def dim(self) -> int:
        return len(self.basis_roots)


@dataclass(frozen=True)
class Submodule:
    support: tuple

    @property
    def dim(self) -> int:
        return len(self.support)


@dataclass(frozen=True)
class OrbitCount:
    count: int
    primes_used: tuple = ()
    stable: bool = True


def _refuse_point(rs: RootSystem, s: TorusPoint):
    """Raise where the eigenspace analysis does not apply at this point."""
    m = s.order
    if m == 1:
        raise NilOrbitError(
            f"order 1 makes the (q-1) factor vanish; {rs.rstype} needs a "
            "nontrivial q for the eigenspace analysis")
    if m is not None and poincare_vanishes(rs, m):
        raise NilOrbitError(
            f"the Poincare sum of {rs.rstype} vanishes at a primitive "
            f"order-{m} root of unity; the hypothesis fails")


def build_nqs(rs: RootSystem, s: TorusPoint) -> NilModule:
    """The eigenspace spanned by the root lines of exponent one, together
    with the exponent-zero roots whose one-parameter subgroups act on it."""
    _refuse_point(rs, s)
    basis = tuple(roots_with_exponent(rs, s, 1))
    gens = tuple(roots_with_exponent(rs, s, 0))
    have = set(basis)
    assert not have.intersection(gens)
    for beta in basis:
        for gamma in gens:
            summed = tuple(x + y for x, y in zip(beta, gamma))
            if rs.is_root(summed):
                assert summed in have, "eigenspace not closed under the action"
    weights = tuple(tuple(rs.pairing(b, j) for j in range(rs.rank)) for b in basis)
    return NilModule(rs, s, basis, weights, gens)


def decompose(nm: NilModule, sc=None):
    """Connected components of the bracket graph on the basis lines.

    Edge beta -- beta+gamma whenever gamma is a generator, beta+gamma is a
    basis root, and the structure constant N(gamma, beta) is nonzero.
    Components come out ordered by their lexicographically least root."""
    if sc is None:
        sc = structure_constants(nm.rs.rstype)
    index = {r: i for i, r in enumerate(nm.basis_roots)}
    edges = []
    for beta in nm.basis_roots:
        for gamma in nm.unipotent_generators:
            summed = tuple(x + y for x, y in zip(beta, gamma))
            if not nm.rs.is_root(summed):
                continue
            assert summed in index, "bracket image left the eigenspace"
            if sc.n(gamma, beta) != 0:
                edges.append((index[beta], index[summed]))
    parts = [Submodule(tuple(sorted(nm.basis_roots[i] for i in comp)))
             for comp in components(nm.dim, edges)]
    parts.sort(key=lambda sub: sub.support[0])
    return parts


# ---------------------------------------------------------------------------
# finite-field counting


def _sieve(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit ** 0.5) + 1):
        if flags[i]:
            flags[i * i::i] = bytearray(len(flags[i * i::i]))
    return [i for i in range(limit + 1) if flags[i]]


def admissible_primes(order: int, count: int = 2, limit: int = 2000):
    """The smallest primes p = 1 mod order, so the field of p elements
    contains an element of that multiplicative order."""
    if order is None or order < 2:
        raise NilOrbitError("finite-field counting needs a finite order >= 2")
    found = [p for p in _sieve(limit) if p > 3 and p % order == 1]
    if len(found) < count:
        raise NilOrbitError(
            f"fewer than {count} admissible primes p = 1 mod {order} "
            f"below {limit}")
    return found[:count]


def _primitive_root(p):
    factors = set()
    n = p - 1
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors.add(d)
            n //= d
        d += 1
    if n > 1:
        factors.add(n)
    for g in range(2, p):
        if all(pow(g, (p - 1) // f, p) != 1 for f in factors):
            return g
    raise AssertionError("no primitive root")


def _smith(mat):
    """Diagonalize an integer matrix by row and column operations.
    Returns (U, diag) with U unimodular and U*mat*V = diag(diag)."""
    m = [list(row) for row in mat]
    rows, cols = len(m), len(m[0]) if m else 0
    unit = [[int(i == j) for j in range(rows)] for i in range(rows)]
    t = 0
    while t < rows and t < cols:
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if m[i][j] and (pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            m[t], m[pi] = m[pi], m[t]
            unit[t], unit[pi] = unit[pi], unit[t]
        if pj != t:
            for row in m:
                row[t], row[pj] = row[pj], row[t]
        dirty = False
        for i in range(t + 1, rows):
            if m[i][t]:
                q = m[i][t] // m[t][t]
                m[i] = [a - q * b for a, b in zip(m[i], m[t])]
                unit[i] = [a - q * b for a, b in zip(unit[i], unit[t])]
                if m[i][t]:
                    dirty = True
        for j in range(t + 1, cols):
            if m[t][j]:
                q = m[t][j] // m[t][t]
                for row in m:
                    row[j] -= q * row[t]
                if m[t][j]:
                    dirty = True
        if not dirty:
            t += 1
    diag = []
    for k in range(min(rows, cols)):
        if m[k][k]:
            diag.append(abs(m[k][k]))
        else:
            break
    return unit, diag


def _exact_int_inverse(mat):
    inv = _invert_fraction_matrix(mat)
    out = []
    for row in inv:
        cells = []
        for x in row:
            f = Fraction(x)
            assert f.denominator == 1
            cells.append(int(f))
        out.append(cells)
    return out


class _SupportClasses:
    """Torus-class bookkeeping for one support pattern.  Class labels are
    mixed-radix digits; packed against the strides they give each class a
    dense index within the support."""

    def __init__(self, weight_rows, pm1):
        r = len(weight_rows)
        unit, diag = _smith(weight_rows)
        moduli = []
        for k in range(r):
            if k < len(diag):
                g = gcd(diag[k], pm1)
                moduli.append(g if g else pm1)
            else:
                moduli.append(pm1)
        self.moduli = tuple(moduli)
        self.count = prod(moduli) if moduli else 1
        self.unit = np.array(unit, dtype=np.int64).reshape(r, r)
        self.unit_inv = np.array(_exact_int_inverse(unit), dtype=np.int64).reshape(r, r)
        self.mod_arr = np.array(moduli, dtype=np.int64).reshape(r)
        strides = [0] * r
        acc = 1
        for k in range(r - 1, -1, -1):
            strides[k] = acc
            acc *= moduli[k]
        self.strides = np.array(strides, dtype=np.int64).reshape(r)


class _Closure:
    """Union-find closure of the torus-canonical states under every
    unipotent move u_gamma(c), c over the whole field.

    States are indexed densely: support pattern bitmask, then the
    mixed-radix class label within the pattern.  All image computation and
    canonicalization is vectorized across states and scalars."""

    def __init__(self, nm: NilModule, roots, p, sc, state_budget):
        self.p = p
        self.pm1 = p - 1
        self.roots = tuple(roots)
        d = len(self.roots)
        self.d = d
        rs = nm.rs
        idx = {r: i for i, r in enumerate(self.roots)}
        basis_set = set(nm.basis_roots)

        g = _primitive_root(p)
        self.dlog = np.zeros(p, dtype=np.int64)
        self.pow_g = np.zeros(self.pm1, dtype=np.int64)
        acc = 1
        for k in range(self.pm1):
            self.pow_g[k] = acc
            self.dlog[acc] = k
            acc = acc * g % p

        self.weights = [tuple(rs.pairing(r, j) for j in range(rs.rank))
                        for r in self.roots]

        # polynomial matrices of exp(c ad e_gamma) on the chosen span
        self.moves = []
        for gamma in nm.unipotent_generators:
            mats = [np.zeros((d, d), dtype=np.int64) for _ in range(3)]
            used = False
            for j, beta in enumerate(self.roots):
                coeff = 1
                cur = beta
                for step in range(1, 4):
                    nxt = tuple(x + y for x, y in zip(cur, gamma))
                    if not rs.is_root(nxt):
                        break
                    assert nxt in basis_set, "move image left the eigenspace"
                    if nxt not in idx:
                        raise NilOrbitError(
                            "chosen supports are not closed under the "
                            "centralizer action; take whole components")
                    coeff = coeff * sc.n(gamma, cur)
                    fact = (1, 1, 2, 6)[step]
                    inv_fact = pow(fact, p - 2, p)
                    mats[step - 1][idx[nxt], j] = coeff * inv_fact % p
                    used = True
                    cur = nxt
            if used:
                self.moves.append([m if m.any() else None for m in mats])

        # enumerate every torus-canonical state, densely indexed
        self.support_data = {}
        offsets = np.zeros(1 << d, dtype=np.int64)
        total = 0
        for bits in range(1 << d):
            sel = [i for i in range(d) if bits >> i & 1]
            data = _SupportClasses([self.weights[i] for i in sel], self.pm1)
            self.support_data[bits] = (data, np.array(sel, dtype=np.int64))
            offsets[bits] = total
            total += data.count
            if total > state_budget:
                raise NilOrbitError(
                    f"at least {total} torus-canonical states on dimension "
                    f"{d}; over the budget of {state_budget}")
        self.offsets = offsets
        self.n_states = total

        vectors = np.zeros((total, d), dtype=np.int64)
        for bits in range(1 << d):
            data, sel = self.support_data[bits]
            if not len(sel):
                continue
            labels = np.indices(data.moduli).reshape(len(sel), -1).T
            dl = labels.dot(data.unit_inv.T) % self.pm1
            view = vectors[offsets[bits]:offsets[bits] + data.count]
            view[:, sel] = self.pow_g[dl]
        self.vectors = vectors
        check = self._canonical_batch(vectors)
        assert np.array_equal(check, np.arange(total)), \
            "state enumeration does not round-trip through canonicalization"
        self.parent = list(range(total))

    def _canonical_batch(self, block):
        """Dense state index of each row of a block of vectors."""
        out = np.zeros(len(block), dtype=np.int64)
        weightsbits = (block != 0).astype(np.int64).dot(
            1 << np.arange(self.d, dtype=np.int64))
        for bits in np.unique(weightsbits):
            rows = np.nonzero(weightsbits == bits)[0]
            data, sel = self.support_data[int(bits)]
            if not len(sel):
                out[rows] = self.offsets[int(bits)]
                continue
            dl = self.dlog[block[np.ix_(rows, sel)]]
            lab = dl.dot(data.unit.T) % self.pm1 % data.mod_arr
            out[rows] = self.offsets[int(bits)] + lab.dot(data.strides)
        return out

    def _find(self, i):
        parent = self.parent
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def run(self):
        scalars = np.arange(1, self.p, dtype=np.int64)
        sq = scalars * scalars % self.p
        cube = sq * scalars % self.p
        powers = (scalars, sq, cube)
        n = self.n_states
        chunk = max(1, min(n, 1 << 22 >> max(1, self.pm1 * self.d).bit_length()))
        for mats in self.moves:
            for lo in range(0, n, chunk):
                vecs = self.vectors[lo:lo + chunk]
                block = np.broadcast_to(
                    vecs[:, None, :], (len(vecs), self.pm1, self.d)).copy()
                moved = np.zeros(len(vecs), dtype=bool)
                for mat, power in zip(mats, powers):
                    if mat is None:
                        continue
                    img = vecs.dot(mat.T) % self.p
                    hot = img.any(axis=1)
                    moved |= hot
                    block[hot] += power[None, :, None] * img[hot][:, None, :]
                if not moved.any():
                    continue
                block = block[moved] % self.p
                src = (np.nonzero(moved)[0] + lo).repeat(self.pm1)
                dst = self._canonical_batch(block.reshape(-1, self.d))
                for enc in np.unique(src * n + dst):
                    a, b = divmod(int(enc), n)
                    ra, rb = self._find(a), self._find(b)
                    if ra != rb:
                        self.parent[ra] = rb
        zero = int(self.offsets[0])
        roots_seen = {self._find(i) for i in range(n)}
        assert self._find(zero) == zero and sum(
            1 for i in range(n) if self._find(i) == zero) == 1, \
            "zero vector must be a singleton orbit"
        return len(roots_seen)

    def class_of(self, support_subset):
        """Representative state index of the sum of the given basis lines."""
        vec = np.zeros((1, self.d), dtype=np.int64)
        for r in support_subset:
            vec[0, self.roots.index(r)] = 1
        return self._find(int(self._canonical_batch(vec)[0]))


def _support_roots(supports):
    roots = []
    for sub in supports:
        roots.extend(sub.support if isinstance(sub, Submodule) else sub)
    return tuple(sorted(set(roots)))


def _constants(rstype, convention):
    # the default convention uses the one-argument cache key every other
    # caller uses, so the cache's miss count stays the number of tables built
    if convention == "extraspecial":
        return structure_constants(rstype)
    return structure_constants(rstype, convention)


def _closure_for(nm, supports, p, sc=None, cap=DEFAULT_DIM_CAP,
                 state_budget=DEFAULT_STATE_BUDGET, convention="extraspecial"):
    roots = _support_roots(supports)
    if len(roots) > cap:
        raise NilOrbitError(
            f"joint support has dimension {len(roots)}, over the cap {cap}")
    if sc is None:
        sc = _constants(nm.rs.rstype, convention)
    return _Closure(nm, roots, p, sc, state_budget)


def orbit_count_ff(nm: NilModule, supports, p: int, sc=None,
                   cap=DEFAULT_DIM_CAP, state_budget=DEFAULT_STATE_BUDGET,
                   convention="extraspecial") -> OrbitCount:
    """Exact orbit count of the centralizer action on the joint span of the
    chosen submodules, over the field of p elements."""
    closure = _closure_for(nm, supports, p, sc, cap, state_budget, convention)
    return OrbitCount(closure.run(), (p,), True)


def representatives_distinct(nm, supports, reps, p, **kw) -> bool:
    """Whether the given vectors (each a set of basis roots summed with
    coefficient one) fall into pairwise distinct orbits."""
    closure = _closure_for(nm, supports, p, **kw)
    closure.run()
    classes = [closure.class_of(rep) for rep in reps]
    return len(set(classes)) == len(classes)


# ---------------------------------------------------------------------------
# per-case driver


@dataclass(frozen=True)
class GroupCount:
    modules: tuple          # module names counted jointly
    dim: int
    expected: object        # asserted count or None
    counts: tuple           # (prime, count) pairs actually computed
    stable: bool
    refusal: str = None

    @property
    def count(self):
        return self.counts[0][1] if self.counts else None


@dataclass(frozen=True)
class CaseBound:
    rstype: str
    order: int
    groups: tuple
    product: object         # product of group counts; None if any refusal
    stable: bool
    expected: object        # the recorded bound, if any
    bound_kind: str
    # what the counts ran over: the eigenspace, the case table (None when
    # nothing is on record) and its submodules by name
    module: NilModule = field(repr=False, compare=False)
    table: object = field(repr=False, compare=False)
    components: dict = field(repr=False, compare=False)


def named_components(table, parts):
    """Submodules by name: with detailed lists on record, the table's
    modules matched by support; otherwise C1, C2, ... in decomposition
    order."""
    if table is None or not table.detailed:
        return {f"C{k + 1}": sub for k, sub in enumerate(parts)}
    by_support = {frozenset(sub.support): sub for sub in parts}
    out = {}
    missing = []
    for name in table.modules:
        want = table.module_support(name)
        if want in by_support:
            out[name] = by_support.pop(want)
        else:
            missing.append(name)
    if missing or by_support:
        raise NilOrbitError(
            f"component mismatch for {table.case_id}: unmatched modules "
            f"{missing}, unmatched components {sorted(by_support)}")
    return out


def case_bound(rstype, order, primes=None, cap=DEFAULT_DIM_CAP,
               state_budget=DEFAULT_STATE_BUDGET,
               convention="extraspecial") -> CaseBound:
    """Orbit counts per grouping and their product, checked over at least
    two admissible primes."""
    rs = build(parse_type(str(rstype)))
    if order not in valid_orders(rs):
        raise NilOrbitError(f"order {order} is not a valid order for {rs.rstype}")
    if primes is None:
        primes = admissible_primes(order)
    if len(primes) < 2:
        raise NilOrbitError("stability needs at least two primes")
    sc = _constants(rs.rstype, convention)
    nm = build_nqs(rs, standard_point(rs, order))
    table = cases.case_table(rs.rstype, order)
    named = named_components(table, decompose(nm, sc))

    if table is not None and table.detailed:
        plan = [(g.modules, [named[name] for name in g.modules], g.orbits)
                for g in table.groupings]
    else:
        plan = [((name,), [sub], None) for name, sub in named.items()]

    groups = []
    for names, subs, expected in plan:
        dim = sum(s.dim for s in subs)
        counts = []
        refusal = None
        for p in primes:
            try:
                oc = orbit_count_ff(nm, subs, p, sc=sc, cap=cap,
                                    state_budget=state_budget)
            except NilOrbitError as err:
                refusal = str(err)
                break
            counts.append((p, oc.count))
        stable = len({c for _, c in counts}) <= 1 and refusal is None
        groups.append(GroupCount(tuple(names), dim, expected, tuple(counts),
                                 stable, refusal))

    product = None
    if all(g.refusal is None for g in groups):
        product = prod(g.count for g in groups)
    return CaseBound(
        rstype=str(rs.rstype), order=order, groups=tuple(groups),
        product=product, stable=all(g.stable for g in groups),
        expected=table.bound if table else None,
        bound_kind=table.bound_kind if table else "product",
        module=nm, table=table, components=named)


def _corrections_by_record(case, table):
    """Sort the case's correction entries under the record each one
    annotates, each as a where/recorded/corrected/note dict."""
    out = {"generators": [], "q-roots": [], "decomposition": [],
           "orbit-counts": [], "bound": []}
    for corr in cases.corrections_for(case):
        where = corr.where
        corr = {"where": where, "recorded": corr.recorded,
                "corrected": corr.corrected, "note": corr.note}
        if where.startswith("roots."):
            label = where.split(".", 1)[1]
            gens = table.generators if table is not None else ()
            out["generators" if label in gens else "q-roots"].append(corr)
        elif where.startswith("modules"):
            out["decomposition"].append(corr)
        elif where == "groupings":
            out["orbit-counts"].append(corr)
            out["bound"].append(corr)
        elif where == "representatives":
            out["orbit-counts"].append(corr)
        else:
            out["decomposition"].append(corr)
    return out


def verify_case(rstype, order, primes=None, cap=DEFAULT_DIM_CAP,
                state_budget=DEFAULT_STATE_BUDGET):
    """The five ordered report records for one (type, order) case:
    generator list, exponent-one root list, decomposition, per-group orbit
    counts, final bound.  Documented table corrections ride along in the
    record they annotate."""
    rs = build(parse_type(str(rstype)))
    # an order the eigenspace analysis refuses is named the way build_nqs
    # names it, ahead of case_bound's plain valid-order refusal
    _refuse_point(rs, standard_point(rs, order))
    bound = case_bound(rstype, order, primes=primes, cap=cap,
                       state_budget=state_budget)
    nm, table = bound.module, bound.table
    case = table.case_id if table else f"{rs.rstype}.o{order}"
    notes = _corrections_by_record(case, table)

    def record(name, anchor, statement, expected, computed, status):
        return report.make_record(
            "nilorbits", case, name, f"case table {case}: {anchor}",
            statement, expected, computed, status, notes[name])

    records = []
    detailed = table is not None and table.detailed
    if detailed:
        want = table.expected_generators()
        pos_gens = frozenset(r for r in nm.unipotent_generators if sum(r) > 0)
        records.append(record(
            "generators", "generator roots",
            "positive exponent-zero roots match the recorded generator list",
            sorted(want), sorted(pos_gens),
            "pass" if want == pos_gens else "fail"))
        want = table.expected_q_roots()
        simples = set(rs.simples)
        nonsimple = frozenset(r for r in nm.basis_roots if r not in simples)
        records.append(record(
            "q-roots", "exponent-one roots",
            "non-simple exponent-one roots match the recorded list",
            sorted(want), sorted(nonsimple),
            "pass" if want == nonsimple else "fail"))
        want_supports = {frozenset(table.module_support(n)) for n in table.modules}
        got_supports = {frozenset(s.support) for s in bound.components.values()}
        sizes = sorted(len(s) for s in got_supports)
        records.append(record(
            "decomposition", "submodule supports",
            "bracket-graph components match the recorded submodules",
            sorted(sorted(len(s) for s in want_supports)), sizes,
            "pass" if want_supports == got_supports else "fail"))
    else:
        note = f"no detailed lists on record for {case}"
        for name, anchor in (("generators", "generator roots"),
                             ("q-roots", "exponent-one roots"),
                             ("decomposition", "submodule supports")):
            records.append(record(name, anchor, note, None, None, "skipped"))

    per_group = []
    asserted = True
    ok = True
    for g in bound.groups:
        shown = g.count if g.refusal is None else f"refused: {g.refusal}"
        per_group.append({"modules": g.modules, "dim": g.dim,
                          "expected": g.expected, "computed": shown,
                          "primes": [p for p, _ in g.counts],
                          "stable": g.stable})
        if g.expected is None:
            asserted = False
        elif g.refusal is not None or g.count != g.expected or not g.stable:
            ok = False
    reps_note = None
    if detailed and ok and asserted:
        for grouping in table.groupings:
            if not grouping.representatives:
                continue
            reps = [tuple(table.root(lbl) for lbl in rep)
                    for rep in grouping.representatives]
            subs = [bound.components[name] for name in grouping.modules]
            distinct = all(
                representatives_distinct(nm, subs, reps, p, cap=cap,
                                         state_budget=state_budget)
                for p in (primes or admissible_primes(order)))
            reps_note = (f"{len(reps)} recorded representatives lie in "
                         f"pairwise distinct orbits: {distinct}")
            if not distinct:
                ok = False
    status = ("pass" if ok else "fail") if asserted else "informational"
    statement = "per-group orbit counts match the recorded counts"
    if reps_note:
        statement += f"; {reps_note}"
    records.append(record(
        "orbit-counts", "orbit counts", statement,
        [g.expected for g in bound.groups], per_group, status))

    if bound.expected is None:
        status = "informational"
    elif bound.product is None or not bound.stable:
        status = "fail"
    elif bound.bound_kind == "at-least":
        status = "pass" if bound.product >= bound.expected else "fail"
    else:
        status = "pass" if bound.product == bound.expected else "fail"
    records.append(record(
        "bound", "orbit-count bound",
        {"product": "product of group counts equals the recorded bound",
         "exact": "product of group counts equals the recorded total",
         "at-least": "product of group counts reaches the recorded bound",
         }[bound.bound_kind],
        bound.expected, bound.product, status))
    return records
