"""The exponent-one eigenspace, its submodule decomposition, and orbit
counting for the centralizer action.

build_nqs is the only place a sign convention is chosen (the extraspecial
array unless it is given one): it keeps the bracket action on the
NilModule as two (generator, basis line) arrays, the target line of each
pair and its structure constant, and the decomposition and every closure
read them from there.
Orbits are counted over small prime fields with p = 1 mod the order, so
that the field contains an element of that multiplicative order.  Every
vector is first canonicalized to a torus-orbit label (support pattern
plus a discrete class computed by integer lattice reduction of the
restricted weight matrix); the orbits are then the components of these
states under the unipotent one-parameter moves over every field scalar,
labelled by rootsystem.component_labels.  The state budget is the one size
guard: a d-dimensional span has at least 2^d states, one per support
pattern, so it is refused at once when 2^d is over the budget.  Counting
the same case over two primes guards the arithmetic; the sweep counts
over one sign convention, the cross-check against the twisted table runs
only in the tests.  case_bound drives an orbit case for the sweep
(verify_case) and for `hecke-verify orbits --joint` alike.

Per grouping (_Span, built once and shared by every prime): the chosen
basis lines, each move's integer chain of structure constants, and the
Smith form of each support pattern's weight rows.  Per prime, shared by
every closure in the process (_field_tables): the powers and discrete logs
of a primitive root.  Per closure at one prime (_Closure): the move
matrices mod p, each pattern's class moduli gcd(diag, p - 1), the states
and their labels.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice
from math import gcd, isqrt, prod

import numpy as np

from . import cases, report
from .rootsystem import (RootSystem, build, component_labels, components,
                         parse_type, smith, structure_constants)
from .torus import TorusPoint, _exponent_ids, standard_point
from .weyl import poincare_vanishes, valid_orders


class NilOrbitError(ValueError):
    pass


class ComponentMismatch(Exception):
    """The computed decomposition disagrees with a detailed table's
    modules: a wrong result, not a refusal.  verify_case reports it as a
    failed decomposition claim; expected and computed are the sorted
    support sizes of both sides."""

    def __init__(self, table, parts, missing, extra):
        super().__init__(
            f"component mismatch for {table.case_id}: unmatched modules "
            f"{missing}, unmatched components {extra}")
        self.table = table
        self.expected = sorted(len(table.module_support(n))
                               for n in table.modules)
        self.computed = sorted(len(sub.support) for sub in parts)


DEFAULT_STATE_BUDGET = 300_000


@dataclass(frozen=True)
class NilModule:
    rs: RootSystem
    point: TorusPoint
    basis_roots: tuple          # roots with exponent one, deterministic order
    torus_weights: tuple        # pairing vector of each basis root
    unipotent_generators: tuple  # all roots with exponent zero, both signs
    # targets[g, j]: the place k of gamma_g + beta_j in the basis, -1 when it
    # is not a root; consts[g, j] = N(gamma_g, beta_j), 0 exactly there
    targets: np.ndarray = field(repr=False, compare=False)
    consts: np.ndarray = field(repr=False, compare=False)

    @property
    def dim(self) -> int:
        return len(self.basis_roots)


@dataclass(frozen=True)
class Submodule:
    support: tuple

    @property
    def dim(self) -> int:
        return len(self.support)


def _order_refusal(rs: RootSystem, m):
    """Why the eigenspace analysis does not apply at order m, or None."""
    if m == 1:
        return (f"order 1 makes the (q-1) factor vanish; {rs.rstype} needs "
                "a nontrivial q for the eigenspace analysis")
    if poincare_vanishes(rs, m):
        return (f"the Poincare sum of {rs.rstype} vanishes at a primitive "
                f"order-{m} root of unity; the hypothesis fails")


def build_nqs(rs: RootSystem, s: TorusPoint, sc=None) -> NilModule:
    """The eigenspace spanned by the root lines of exponent one, together
    with the exponent-zero roots whose one-parameter subgroups act on it
    and their bracket action under the structure-constant array sc (the
    extraspecial one by default, read only when there is a generator)."""
    why = _order_refusal(rs, s.order)
    if why:
        raise NilOrbitError(why)
    basis_ids, gen_ids = _exponent_ids(rs, s, 1), _exponent_ids(rs, s, 0)
    where = np.full(len(rs.roots), -1)      # root id -> place in the basis
    where[basis_ids] = np.arange(basis_ids.size)
    assert (where[gen_ids] < 0).all()
    if sc is None and gen_ids.size:
        sc = structure_constants(rs.rstype)
    hits = rs.sums[gen_ids[:, None], basis_ids]
    targets = np.where(hits >= 0, where[hits], -1)
    assert (targets[hits >= 0] >= 0).all(), \
        "eigenspace not closed under the action"
    consts = (sc[gen_ids][:, basis_ids] if gen_ids.size
              else np.zeros(targets.shape, dtype=np.int8))
    basis = tuple(rs.all_roots[i] for i in basis_ids.tolist())
    gens = tuple(rs.all_roots[i] for i in gen_ids.tolist())
    weights = tuple(map(tuple, rs.pairings[basis_ids].tolist()))
    return NilModule(rs, s, basis, weights, gens, targets, consts)


def decompose(nm: NilModule):
    """Connected components of the bracket graph on the basis lines: edge
    beta -- beta+gamma whenever gamma is a generator and N(gamma, beta) is
    nonzero.  Components come out ordered by their least root."""
    g, j = np.nonzero(nm.consts)
    edges = np.column_stack([j, nm.targets[g, j]])
    parts = [Submodule(tuple(sorted(nm.basis_roots[i] for i in comp)))
             for comp in components(nm.dim, edges)]
    parts.sort(key=lambda sub: sub.support[0])
    return parts


# ---------------------------------------------------------------------------
# finite-field counting


def _refuse_order(order):
    if order is None or order < 2:
        raise NilOrbitError("finite-field counting needs a finite order >= 2")


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


def _admissible(p, order):
    """p is a prime > 3 with p = 1 mod order."""
    return p > 3 and p % order == 1 and _is_prime(p)


def admissible_primes(order: int, count: int = 2, limit: int = 2000):
    """The smallest primes p = 1 mod order, so the field of p elements
    contains an element of that multiplicative order."""
    _refuse_order(order)
    found = list(islice((p for p in range(1, limit + 1, order)
                         if _admissible(p, order)), count))
    if len(found) < count:
        raise NilOrbitError(
            f"fewer than {count} admissible primes p = 1 mod {order} "
            f"below {limit}")
    return found


def check_order(rs: RootSystem, order: int):
    """Refuse an order that is not a valid order of the type, naming why."""
    top = rs.max_exponent()
    if order not in valid_orders(rs):
        why = (_order_refusal(rs, order) if order in range(1, top + 1) else
               f"valid orders lie between 2 and the largest exponent {top}")
        raise NilOrbitError(
            f"order {order} is not a valid order for {rs.rstype}: {why}")


def check_primes(order: int, primes):
    """Refuse field sizes that admissible_primes would not pick: each must
    be a prime p > 3 with p = 1 mod order, and a count is called stable
    only across at least two distinct primes; order is a valid order."""
    for p in primes:
        if not _admissible(p, order):
            raise NilOrbitError(
                f"{p} is not an admissible prime for order {order}: "
                f"need a prime p > 3 with p = 1 mod {order}")
    if len(set(primes)) < 2:
        raise NilOrbitError("stability needs at least two distinct primes")


def _primitive_root(p):
    """The least generator of the units mod the prime p."""
    factors = [q for q in range(2, p) if (p - 1) % q == 0 and _is_prime(q)]
    return next(g for g in range(2, p)
                if all(pow(g, (p - 1) // q, p) != 1 for q in factors))


@lru_cache(maxsize=None)
def _field_tables(p):
    """(pow_g, dlog) for the least primitive root g mod the prime p:
    pow_g[k] = g^k for k < p - 1, and dlog[pow_g[k]] = k (dlog[0] = 0).
    Both are read-only, since every closure at p shares them."""
    g = _primitive_root(p)
    pow_g = [1]
    for _ in range(p - 2):
        pow_g.append(pow_g[-1] * g % p)
    pow_g = np.array(pow_g, dtype=np.int64)
    dlog = np.zeros(p, dtype=np.int64)
    dlog[pow_g] = np.arange(p - 1)
    pow_g.flags.writeable = dlog.flags.writeable = False
    return pow_g, dlog


class _SupportClasses:
    """Torus-class bookkeeping for one support pattern, at every prime.
    rootsystem.smith gives a unimodular U with U*W diagonal, W the
    pattern's weight rows, and its inverse: U maps a vector's discrete logs
    to its class label, and U_inv maps a label back to the logs of its
    representative.  At a prime p the label digit k runs mod
    gcd(diag_k, p - 1), a digit past the rank mod p - 1; see moduli."""

    def __init__(self, weight_rows):
        r = len(weight_rows)
        unit, unit_inv, diag = smith(weight_rows)
        self.diag = diag + [0] * (r - len(diag))
        self.unit = np.array(unit, dtype=np.int64).reshape(r, r)
        self.unit_inv = np.array(unit_inv, dtype=np.int64).reshape(r, r)

    def moduli(self, pm1):
        """Mixed-radix moduli of the class labels at p = pm1 + 1: a label
        digit past the rank is free, gcd(0, p-1) classes."""
        return [gcd(d, pm1) for d in self.diag]


class _Span:
    """What every prime's closure on one grouping shares: the chosen basis
    lines, each move's chain of integer coefficients, and the Smith data of
    each support pattern (built on first use, so a closure refused over the
    state budget has built only the patterns it reached).

    Refuses a span that is not closed under the centralizer action, and one
    of dimension d with 2^d over the state budget, before any pattern is
    built: each support pattern holds at least one class."""

    def __init__(self, nm: NilModule, roots,
                 state_budget=DEFAULT_STATE_BUDGET):
        self.roots = tuple(roots)
        self.d = d = len(self.roots)
        if 1 << d > state_budget:
            raise NilOrbitError(
                f"at least {1 << d} torus-canonical states on dimension "
                f"{d}; over the budget of {state_budget}")
        self.state_budget = state_budget
        where = {r: k for k, r in enumerate(nm.basis_roots)}
        chosen = [where[r] for r in self.roots]
        idx = {k: i for i, k in enumerate(chosen)}  # basis index -> position
        # exp(c ad e_gamma) on the span is sum_k c^k chain_k / k!: chain_k
        # carries beta to beta + k gamma with the product of the constants
        # along the chain beta, beta+gamma, ..., gathered through the
        # targets and consts rows of each generator that moves a chosen
        # line.  The chains are int64: the closures scale them by inverse
        # factorials mod p.
        moving = (nm.targets[:, chosen] >= 0).any(axis=1)
        self.chains = []
        for trow, crow in zip(nm.targets[moving].tolist(),
                              nm.consts[moving].tolist()):
            mats = np.zeros((3, d, d), dtype=np.int64)
            for j, cur in enumerate(chosen):
                coeff = 1
                for mat in mats:
                    nxt = trow[cur]
                    if nxt < 0:
                        break
                    if nxt not in idx:
                        raise NilOrbitError(
                            "chosen supports are not closed under the "
                            "centralizer action; take whole components")
                    coeff *= crow[cur]
                    mat[idx[nxt], j] = coeff
                    cur = nxt
            self.chains.append([m if m.any() else None for m in mats])
        self.weights = [nm.torus_weights[k] for k in chosen]
        self._patterns = [None] * (1 << d)

    def pattern(self, bits):
        """(support classes, chosen positions) of the support pattern."""
        got = self._patterns[bits]
        if got is None:
            sel = [i for i in range(self.d) if bits >> i & 1]
            got = self._patterns[bits] = (
                _SupportClasses([self.weights[i] for i in sel]),
                np.array(sel, dtype=np.int64))
        return got


class _Closure:
    """Orbits of the torus-canonical states under every unipotent move
    u_gamma(c), c over the whole field of p elements.

    The span (per grouping) gives the moves' integer chains and each
    pattern's Smith data; per prime the closure takes the move matrices mod
    p, the discrete logs, each pattern's moduli and the states.  States
    are indexed densely: support pattern bitmask, then the mixed-radix class
    label within the pattern.  All image computation and canonicalization
    is vectorized across states and scalars.  Each state's label is the
    least state of its orbit so far; run() sets count."""

    def __init__(self, span: _Span, p):
        self.span = span
        self.roots = span.roots
        self.d = d = span.d
        self.p = p
        self.pm1 = pm1 = p - 1
        self.pow_g, self.dlog = _field_tables(p)

        # the chains over the factorials 1, 2 and 6, mod p
        inv_fact = [pow(f, p - 2, p) for f in (1, 2, 6)]
        self.moves = [[None if m is None else m * f % p
                       for m, f in zip(chain, inv_fact)]
                      for chain in span.chains]

        # enumerate every torus-canonical state, densely indexed; a label
        # digit of modulus 1 is always 0, so canonicalization skips it
        self.support_data = []
        classes = []
        offsets = np.zeros(1 << d, dtype=np.int64)
        total = 0
        for bits in range(1 << d):
            data, sel = span.pattern(bits)
            moduli = data.moduli(pm1)
            classes.append((data, sel, moduli))
            keep = [j for j, m in enumerate(moduli) if m > 1]
            # U's kept rows, transposed, on the pattern's places among all d
            unit_t = np.zeros((d, len(keep)), dtype=np.int64)
            unit_t[sel] = data.unit[keep].T
            self.support_data.append((
                unit_t, np.array([moduli[j] for j in keep], dtype=np.int64),
                np.array([prod(moduli[j + 1:]) for j in keep],
                         dtype=np.int64)))
            offsets[bits] = total
            total += prod(moduli)
            if total > span.state_budget:
                raise NilOrbitError(
                    f"at least {total} torus-canonical states on dimension "
                    f"{d}; over the budget of {span.state_budget}")
        self.offsets = offsets
        self.n_states = total

        vectors = np.zeros((total, d), dtype=np.int64)
        for bits, (data, sel, moduli) in enumerate(classes):
            if not len(sel):
                continue
            labels = np.indices(moduli).reshape(len(sel), -1).T
            dl = labels @ data.unit_inv.T % pm1
            lo = offsets[bits]
            vectors[lo:lo + len(dl), sel] = self.pow_g[dl]
        self.vectors = vectors
        check = self._canonical_batch(vectors)
        assert np.array_equal(check, np.arange(total)), \
            "state enumeration does not round-trip through canonicalization"
        # component_labels' own dtype; the edge lists are built in it
        self.label = np.arange(total, dtype=np.int32)

    def _canonical_batch(self, block):
        """Dense state index of each row of a block of vectors.

        The rows are sorted by support pattern and taken as discrete logs
        in one gather; each pattern's run is then one slice.  A coordinate
        off the support is 0, with discrete log 0, and meets a zero row of
        the pattern's embedded U, so no column is selected."""
        weightsbits = (block != 0) @ (1 << np.arange(self.d, dtype=np.int64))
        order = np.argsort(weightsbits)
        bits = weightsbits[order]
        dl = self.dlog[block[order]]
        index = np.empty(len(block), dtype=np.int64)
        starts = np.flatnonzero(np.diff(bits, prepend=-1)).tolist()
        for lo, hi in zip(starts, starts[1:] + [len(order)]):
            key = int(bits[lo])
            unit_t, mod_arr, strides = self.support_data[key]
            if not len(mod_arr):    # one class on this support
                index[lo:hi] = self.offsets[key]
                continue
            lab = dl[lo:hi] @ unit_t
            lab %= mod_arr     # the moduli divide p-1
            index[lo:hi] = self.offsets[key] + lab @ strides
        out = np.empty_like(index)
        out[order] = index
        return out

    def run(self):
        p, pm1, d = self.p, self.pm1, self.d
        scalars = np.arange(1, p, dtype=np.int64)
        sq = scalars * scalars % p
        powers = (scalars, sq, sq * scalars % p)
        n = self.n_states
        chunk = max(1, min(n, 1 << 22 >> max(1, pm1 * d).bit_length()))
        label = self.label
        for mats in self.moves:
            srcs, dsts = [], []
            for lo in range(0, n, chunk):
                vecs = self.vectors[lo:lo + chunk]
                imgs = [(vecs @ mat.T % p, power)
                        for mat, power in zip(mats, powers) if mat is not None]
                moved = np.zeros(len(vecs), dtype=bool)
                for img, _ in imgs:
                    moved |= img.any(axis=1)
                rows = np.flatnonzero(moved)
                if not len(rows):
                    continue
                # images of the moved rows only, one per scalar
                (img, power), *rest = imgs
                block = power[None, :, None] * img[rows][:, None, :]
                for img, power in rest:
                    block += power[None, :, None] * img[rows][:, None, :]
                block += vecs[rows][:, None, :]
                block %= p
                # edges between the orbits so far; those inside one are dropped
                src = label[rows + lo].repeat(pm1)
                dst = label[self._canonical_batch(block.reshape(-1, d))]
                cross = src != dst
                srcs.append(src[cross])
                dsts.append(dst[cross])
            if srcs:
                label = component_labels(n, np.concatenate(srcs),
                                         np.concatenate(dsts))[label]
        self.label = label
        assert np.count_nonzero(label == label[self.offsets[0]]) == 1, \
            "zero vector must be a singleton orbit"
        self.count = int(np.count_nonzero(label == np.arange(n)))
        return self.count

    def class_of(self, support_subset):
        """Least state of the orbit of the sum of the given basis lines."""
        vec = np.zeros((1, self.d), dtype=np.int64)
        vec[0, [self.roots.index(r) for r in support_subset]] = 1
        return int(self.label[self._canonical_batch(vec)[0]])


def _support_roots(supports):
    return tuple(sorted({r for sub in supports
                         for r in getattr(sub, "support", sub)}))


def orbit_count_ff(nm: NilModule, supports, p: int,
                   state_budget=DEFAULT_STATE_BUDGET, span=None) -> _Closure:
    """Exact orbit count of the centralizer action on the joint span of the
    chosen submodules, over the field of p elements: the closure after its
    run, with the count in .count.  Raises NilOrbitError when the closure
    would hold more states than the state budget; a span of dimension d has
    at least 2^d of them, so a large span is refused before any is built.
    span is the same grouping's prime-independent set-up, as an earlier
    prime's closure holds it (closure.span); without it one is built."""
    roots = _support_roots(supports)
    if span is None:
        span = _Span(nm, roots, state_budget)
    assert span.roots == roots and span.state_budget == state_budget
    closure = _Closure(span, p)
    closure.run()
    return closure


def representatives_distinct(closure: _Closure, reps) -> bool:
    """Whether the given vectors (each a set of basis roots summed with
    coefficient one) fall into pairwise distinct orbits of a closure that
    has run, such as the one orbit_count_ff returns."""
    classes = [closure.class_of(rep) for rep in reps]
    return len(set(classes)) == len(classes)


# ---------------------------------------------------------------------------
# per-case driver


# an orbit case's five records in report order, each with its table anchor
CASE_RECORDS = (("generators", "generator roots"),
                ("q-roots", "exponent-one roots"),
                ("decomposition", "submodule supports"),
                ("orbit-counts", "orbit counts"),
                ("bound", "orbit-count bound"))


@dataclass(frozen=True)
class GroupCount:
    """One grouping's orbit counts.  distinct: its recorded representatives
    lie in pairwise distinct orbits at every prime (None: none recorded)."""
    modules: tuple          # module names counted jointly
    dim: int
    expected: object        # asserted count or None
    counts: tuple           # (prime, count) pairs actually computed
    stable: bool
    refusal: str = None
    distinct: bool = None

    @property
    def count(self):
        return self.counts[0][1] if self.counts else None


@dataclass(frozen=True)
class CaseBound:
    rstype: str
    order: int
    case: str               # the case id, type.o<order>
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
        raise ComponentMismatch(table, parts, missing, sorted(by_support))
    return out


def _checked_groupings(case, named, groupings):
    """The groupings as tuples, all checked before any count runs: each
    names at least one module of the case, and none twice."""
    out = [tuple(names) for names in groupings]
    for names in out:
        if not names:
            raise ValueError("an empty grouping names no module to count")
        if len(set(names)) < len(names):
            raise ValueError(f"grouping {', '.join(names)} names a module twice")
        for name in names:
            if name not in named:
                raise ValueError(
                    f"module {name} out of range: {case} has {len(named)} "
                    f"submodules, {', '.join(named)}")
    return out


def counts_by_prime(nm: NilModule, subs, primes, state_budget, reps=()):
    """One grouping's ((p, orbit count), ...) on one _Span the first prime
    builds, the refusal that stopped the primes (or None), and whether reps
    lie in distinct orbits at every prime counted (None without reps)."""
    counts = []
    distinct = True if reps else None
    span = None
    for p in primes:
        try:
            closure = orbit_count_ff(nm, subs, p, state_budget, span)
        except NilOrbitError as err:
            return tuple(counts), str(err), distinct
        counts.append((p, closure.count))
        distinct = distinct and representatives_distinct(closure, reps)
        span = closure.span
        # the next prime's closure is built only after this one is freed
        del closure
    return tuple(counts), None, distinct


def case_bound(rstype, order, primes=None,
               state_budget=DEFAULT_STATE_BUDGET, groupings=None) -> CaseBound:
    """Orbit counts per grouping and their product, checked over at least
    two admissible primes.  Refusals come in one sequence: the type, the
    order, then the primes (those given, else the two smallest admissible).
    groupings are tuples of module names as named_components gives them;
    by default the table's groupings, or else each component alone.  A
    recorded grouping's representatives are checked on the closure that
    counted it at each prime."""
    rs = build(parse_type(str(rstype)))
    check_order(rs, order)
    if primes is None:
        primes = admissible_primes(order)
    check_primes(order, primes)
    nm = build_nqs(rs, standard_point(rs, order))
    table = cases.case_table(rs.rstype, order)
    named = named_components(table, decompose(nm))
    detailed = table is not None and table.detailed
    recorded = {g.modules: g for g in table.groupings} if detailed else {}
    if groupings is None:
        groupings = list(recorded) if detailed else [(n,) for n in named]
    case = f"{rs.rstype}.o{order}"

    groups = []
    for names in _checked_groupings(case, named, groupings):
        rec = recorded.get(names)
        subs = [named[name] for name in names]
        reps = [tuple(table.root(lbl) for lbl in rep)
                for rep in (rec.representatives or ())] if rec else []
        counts, refusal, distinct = counts_by_prime(nm, subs, primes,
                                                    state_budget, reps)
        stable = len({c for _, c in counts}) <= 1 and refusal is None
        groups.append(GroupCount(names, sum(sub.dim for sub in subs),
                                 rec.orbits if rec else None, counts,
                                 stable, refusal, distinct))

    product = None
    if all(g.refusal is None for g in groups):
        product = prod(g.count for g in groups)
    return CaseBound(
        rstype=str(rs.rstype), order=order, groups=tuple(groups),
        product=product, stable=all(g.stable for g in groups),
        expected=table.bound if table else None,
        bound_kind=table.bound_kind if table else "product",
        module=nm, table=table, components=named, case=case)


def _recorder(case, table):
    """make_record for the case's records: each gets its table anchor and
    the case's correction entries (where/recorded/corrected/note dicts)
    that annotate it."""
    notes = {name: [] for name, _ in CASE_RECORDS}
    for corr in cases.corrections_for(case):
        where = corr.where
        corr = {"where": where, "recorded": corr.recorded,
                "corrected": corr.corrected, "note": corr.note}
        if where.startswith("roots."):
            label = where.split(".", 1)[1]
            gens = table.generators if table is not None else ()
            notes["generators" if label in gens else "q-roots"].append(corr)
        elif where == "groupings":
            notes["orbit-counts"].append(corr)
            notes["bound"].append(corr)
        elif where == "representatives":
            notes["orbit-counts"].append(corr)
        else:   # modules and the rest
            notes["decomposition"].append(corr)
    anchors = dict(CASE_RECORDS)

    def record(name, statement, expected, computed, status):
        return report.make_record(
            "nilorbits", case, name, f"case table {case}: {anchors[name]}",
            statement, expected, computed, status, notes[name])
    return record


def verify_case(rstype, order, primes=None,
                state_budget=DEFAULT_STATE_BUDGET):
    """The five ordered report records for one (type, order) case:
    generator list, exponent-one root list, decomposition, per-group orbit
    counts, final bound.  Documented table corrections ride along in the
    record they annotate.  Components that do not match a detailed table
    give one failed decomposition record instead."""
    try:
        bound = case_bound(rstype, order, primes, state_budget)
    except ComponentMismatch as e:
        # the orbit counts are named by the recorded modules, so nothing
        # past the decomposition can be checked
        record = _recorder(e.table.case_id, e.table)
        return [record("decomposition",
                       f"bracket-graph components match the recorded "
                       f"submodules; {e}", e.expected, e.computed, "fail")]
    case, table, nm = bound.case, bound.table, bound.module
    record = _recorder(case, table)

    records = []
    detailed = table is not None and table.detailed
    if detailed:
        want = table.expected_generators()
        pos_gens = frozenset(r for r in nm.unipotent_generators if sum(r) > 0)
        records.append(record(
            "generators",
            "positive exponent-zero roots match the recorded generator list",
            sorted(want), sorted(pos_gens),
            "pass" if want == pos_gens else "fail"))
        want = table.expected_q_roots()
        simples = set(nm.rs.simples)
        nonsimple = frozenset(r for r in nm.basis_roots if r not in simples)
        records.append(record(
            "q-roots",
            "non-simple exponent-one roots match the recorded list",
            sorted(want), sorted(nonsimple),
            "pass" if want == nonsimple else "fail"))
        # named_components matched each component to its recorded module
        sizes = sorted(sub.dim for sub in bound.components.values())
        records.append(record(
            "decomposition",
            "bracket-graph components match the recorded submodules",
            sizes, sizes, "pass"))
    else:
        note = f"no detailed lists on record for {case}"
        for name, _ in CASE_RECORDS[:3]:
            records.append(record(name, note, None, None, "skipped"))

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
        for grouping, g in zip(table.groupings, bound.groups):
            if g.distinct is None:
                continue
            reps_note = (f"{len(grouping.representatives)} recorded "
                         f"representatives lie in pairwise distinct orbits: "
                         f"{g.distinct}")
            if not g.distinct:
                ok = False
    status = ("pass" if ok else "fail") if asserted else "informational"
    statement = "per-group orbit counts match the recorded counts"
    if reps_note:
        statement += f"; {reps_note}"
    records.append(record(
        "orbit-counts", statement,
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
        "bound",
        {"product": "product of group counts equals the recorded bound",
         "exact": "product of group counts equals the recorded total",
         "at-least": "product of group counts reaches the recorded bound",
         }[bound.bound_kind],
        bound.expected, bound.product, status))
    return records
