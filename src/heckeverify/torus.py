"""Semisimple torus elements as exact exponent functionals.

A torus point is a rational coweight vector v (coordinates over the simple
coroots): a lattice character x evaluates to q^<x,v>.  For q of finite
order m, two coweights give the same point iff they differ by an element
of m times the coroot lattice, so everything reduces mod m coordinatewise.
Central twists (multiplying by an element of the center Z = P^vee/Q^vee)
are a separate torsion component; for finite m the torsion folds into the
q-exponent part exactly, for generic q it is carried along separately.

Conjugacy of semisimple elements in the simply connected group reduces to
the Weyl group orbit on these coweights, which is decided exactly, by
breadth-first search over integer-encoded coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

import numpy as np

from . import report
from .rootsystem import RootSystem, RootSystemType, build, components
from .weyl import DEFAULT_BUDGET, WeylBudgetError, poincare_vanishes, valid_orders

__all__ = [
    "INFINITE", "TorusPoint", "TorusError", "standard_point", "mixed_point",
    "center_representatives", "central_twist", "roots_with_exponent",
    "centralizer_roots", "SubsystemSignature", "centralizer_signature",
    "conjugate_in_G", "verify_mixed_nonconjugacy", "count_one_dim_characters",
]

INFINITE = None


class TorusError(ValueError):
    pass


def _norm_order(m):
    if m is None or m == float("inf"):
        return None
    if not isinstance(m, int) or m < 1:
        raise TorusError(f"order must be a positive integer or infinite, got {m!r}")
    return m


@dataclass(frozen=True)
class TorusPoint:
    """x(s) = q^<x,vq> times a root of unity given by the torsion part."""

    rs: RootSystem
    order: object          # int >= 1 or None for generic q
    vq: tuple              # Fractions, coordinates over simple coroots
    tor: tuple             # Fractions mod 1, same coordinates

    @staticmethod
    def make(rs, order, vq, tor=None):
        m = _norm_order(order)
        vq = tuple(Fraction(c) for c in vq)
        tor = tuple(Fraction(c) for c in (tor or [0] * rs.rank))
        if m is not None:
            # fold the torsion into the exponent part: e^(2 pi i <x,u>) = q^(m<x,u>)
            vq = tuple((a + m * b) % m for a, b in zip(vq, tor))
            tor = (Fraction(0),) * rs.rank
        else:
            tor = tuple(b % 1 for b in tor)
        return TorusPoint(rs, m, vq, tor)

    def pairing_q(self, root) -> Fraction:
        """q-exponent <root, vq>, reduced mod m when the order is finite."""
        val = self._pair(self._simple_q, root)
        return val % self.order if self.order else val

    def _simple_pairings(self, vec):
        """<alpha_i, vec> for each simple root i, as integer numerators
        over one common denominator."""
        # vec is in coroot coordinates: each pairing is a row-of-Cartan dot
        cartan, n = self.rs.cartan, self.rs.rank
        vals = [sum(Fraction(cartan[i][k]) * vec[k] for k in range(n))
                for i in range(n)]
        den = lcm(*(v.denominator for v in vals))
        return tuple(v.numerator * (den // v.denominator) for v in vals), den

    @cached_property
    def _simple_q(self):
        return self._simple_pairings(self.vq)

    @cached_property
    def _simple_tor(self):
        return self._simple_pairings(self.tor)

    @staticmethod
    def _pair(simple, root) -> Fraction:
        # <root, vec> is linear in the root: the simple-root pairings
        # weighted by the root's coordinates
        nums, den = simple
        return Fraction(sum(c * x for c, x in zip(root, nums)), den)

    def pairing_torsion(self, root) -> Fraction:
        return self._pair(self._simple_tor, root) % 1

    def eval_exponent(self, root):
        """The exponent k with root(s) = q^k; defined when the torsion part
        of the value is trivial (always, at finite order)."""
        if self.order is None and self.pairing_torsion(root) != 0:
            raise TorusError("value is not a power of q at this root")
        return self.pairing_q(root)

    def is_power_of_q(self, root) -> bool:
        return self.order is not None or self.pairing_torsion(root) == 0

    def reflect(self, i: int) -> "TorusPoint":
        """Apply the simple reflection s_i (coweight action)."""
        vq = list(self.vq)
        tor = list(self.tor)
        vq[i] -= self._pair(self._simple_q, self.rs.simples[i])
        tor[i] -= self._pair(self._simple_tor, self.rs.simples[i])
        return TorusPoint.make(self.rs, self.order, vq, tor)

    def key(self):
        return (self.vq, self.tor)


def _solve_exponents(rs: RootSystem, wanted):
    """Coweight v with <alpha_i, v> = wanted[i] for every simple root."""
    n = rs.rank
    # v_k given by C^{-1} applied to the wanted column
    inv = rs.fundamental_weights
    return tuple(sum(inv[k][j] * Fraction(wanted[j]) for j in range(n))
                 for k in range(n))


def standard_point(rs: RootSystem, order, assignment=None) -> TorusPoint:
    """The point with alpha(s) = q^(assignment) on the simple roots
    (default: every simple root goes to q itself)."""
    wanted = [1] * rs.rank if assignment is None else list(assignment)
    if len(wanted) != rs.rank:
        raise TorusError("need one exponent per simple root")
    return TorusPoint.make(rs, order, _solve_exponents(rs, wanted))


def mixed_point(rs: RootSystem, order) -> TorusPoint:
    """Short simple roots to q, long simple roots to q^{-1}."""
    classes = [rs.length_class(a) for a in rs.simples]
    if len(set(classes)) == 1:
        raise TorusError(f"{rs.rstype} has only one root length; no mixed point")
    wanted = [1 if c == "short" else -1 for c in classes]
    return TorusPoint.make(rs, order, _solve_exponents(rs, wanted))


def center_representatives(rs: RootSystem):
    """Coset representatives of the center P^vee/Q^vee, as torsion coweights
    (coordinates mod 1).  The identity comes first."""
    inv = rs.fundamental_weights     # the inverse Cartan matrix
    gens = [tuple(inv[k][j] % 1 for k in range(rs.rank)) for j in range(rs.rank)]
    zero = (Fraction(0),) * rs.rank
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for u in frontier:
            for g in gens:
                w = tuple((a + b) % 1 for a, b in zip(u, g))
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    out = sorted(seen)
    assert len(out) == rs.center_order()
    return out


def central_twist(point: TorusPoint, z) -> TorusPoint:
    """Multiply the point by the central element with torsion coweight z."""
    tor = tuple(a + b for a, b in zip(point.tor, z))
    return TorusPoint.make(point.rs, point.order, point.vq, tor)


# ---------------------------------------------------------------------------
# exponent classes and centralizer subsystems


def roots_with_exponent(rs: RootSystem, s: TorusPoint, k):
    """All roots alpha with alpha(s) = q^k, in the deterministic order of
    rs.all_roots.  At generic q, roots whose value is not a power of q
    never match."""
    if s.order is not None:
        k = Fraction(k) % s.order
    out = []
    for root in rs.all_roots:
        if not s.is_power_of_q(root):
            continue
        if s.pairing_q(root) == k:
            out.append(root)
    return out


def centralizer_roots(rs: RootSystem, s: TorusPoint):
    """Roots alpha with alpha(s) = 1; checked to be a closed subsystem."""
    roots = roots_with_exponent(rs, s, 0)
    have = set(roots)
    for a in roots:
        for b in roots:
            summed = tuple(x + y for x, y in zip(a, b))
            if rs.is_root(summed):
                assert summed in have, "centralizer set not closed"
    return roots


@dataclass(frozen=True)
class SubsystemSignature:
    """Isomorphism data of a closed subsystem: one entry per irreducible
    component, (family, rank, root count, ambient-long count, ambient-short
    count), sorted."""

    components: tuple

    def describe(self) -> str:
        if not self.components:
            return "empty (torus only)"
        return " + ".join(
            f"{fam}{rk}[{cnt} roots, {nl} long/{ns} short]"
            for fam, rk, cnt, nl, ns in self.components)

    def __bool__(self):
        return bool(self.components)


def _component_family(rank, count, norms):
    """Classify one irreducible component from its rank, root count, and
    the multiset of squared lengths (ambient normalization)."""
    ratio = max(norms) / min(norms)
    if ratio == 1:
        if count == rank * (rank + 1):
            return ("A", rank)
        if count == 2 * rank * (rank - 1):
            return ("D", rank)
        exceptional = {(6, 72): ("E", 6), (7, 126): ("E", 7), (8, 240): ("E", 8)}
        return exceptional[(rank, count)]
    nlong = sum(1 for x in norms if x == max(norms))
    nshort = len(norms) - nlong
    if ratio == 2:
        if (rank, count) == (4, 48):
            return ("F", 4)
        if rank == 2:
            return ("B", 2)
        if nlong == 2 * rank:
            return ("C", rank)
        assert nshort == 2 * rank, (rank, count, nlong, nshort)
        return ("B", rank)
    assert ratio == 3 and (rank, count) == (2, 12)
    return ("G", 2)


def centralizer_signature(rs: RootSystem, s: TorusPoint) -> SubsystemSignature:
    roots = centralizer_roots(rs, s)
    if not roots:
        return SubsystemSignature(())
    # components of the non-orthogonality graph are the irreducible pieces
    corow = {r: rs.coroot_coords(r) for r in roots}

    def linked(a, b):
        # <a, b^vee> != 0 iff (a,b) != 0
        return sum(ca * sum(rs.cartan[k][l] * corow[b][l]
                            for l in range(rs.rank))
                   for k, ca in enumerate(a) if ca) != 0

    edges = [(i, j) for i in range(len(roots))
             for j in range(i + 1, len(roots)) if linked(roots[i], roots[j])]
    maxnorm = max(rs.norm2(r) for r in rs.all_roots)
    comps = []
    for group in components(len(roots), edges):
        members = [roots[i] for i in group]
        pos = [r for r in members if any(c > 0 for c in r) and all(c >= 0 for c in r)]
        pos_set = set(pos)
        simples = []
        for a in pos:
            decomposable = any(
                tuple(x - y for x, y in zip(a, b)) in pos_set
                for b in pos_set if b != a)
            if not decomposable:
                simples.append(a)
        rank = len(simples)
        norms = [rs.norm2(r) for r in members]
        fam, rk = _component_family(rank, len(members), norms)
        nl = sum(1 for x in norms if x == maxnorm)
        ns = len(norms) - nl
        comps.append((fam, rk, len(members), nl, ns))
    return SubsystemSignature(tuple(sorted(comps)))


# ---------------------------------------------------------------------------
# conjugacy by Weyl orbit


def _int_encoding(rs: RootSystem, points):
    """Common denominator integer encoding for finite-order points."""
    m = points[0].order
    d = lcm(*[c.denominator for p in points for c in p.vq], 1)
    M = m * d
    coords = np.array([[int(c * d) % M for c in p.vq] for p in points],
                      dtype=np.int64)
    return coords, d, M


def _orbit_keys(rs: RootSystem, point: TorusPoint, others, budget):
    """BFS the Weyl orbit of a finite-order point; returns which of the
    other points were hit."""
    pts = [point] + list(others)
    coords, d, M = _int_encoding(rs, pts)
    n = rs.rank
    pows = np.array([M ** i for i in range(n)], dtype=np.int64)
    assert M ** n < 2 ** 62
    cartan = np.array(rs.cartan, dtype=np.int64)

    def keys_of(arr):
        return (arr * pows).sum(axis=1)

    targets = keys_of(coords[1:])
    frontier = coords[:1]
    visited = keys_of(frontier)
    total = 1
    while frontier.shape[0]:
        cands = []
        for i in range(n):
            h = frontier @ cartan[i]
            nxt = frontier.copy()
            nxt[:, i] = (nxt[:, i] - h) % M
            cands.append(nxt)
        cand = np.concatenate(cands)
        kk = keys_of(cand)
        uniq, first = np.unique(kk, return_index=True)
        pos = np.searchsorted(visited, uniq)
        pos[pos == visited.size] = 0
        mask = visited[pos] != uniq
        new_keys = uniq[mask]
        if not new_keys.size:
            break
        total += new_keys.size
        if total > budget:
            raise WeylBudgetError(
                f"orbit of torus point in {rs.rstype} exceeded budget {budget}")
        frontier = cand[first][mask]
        visited = np.union1d(visited, new_keys)
    hit = np.isin(targets, visited)
    return [bool(h) for h in hit]


def conjugate_in_G(rs: RootSystem, s: TorusPoint, t: TorusPoint,
                   budget: int = DEFAULT_BUDGET) -> bool:
    """Whether s and t are conjugate in the simply connected group: true iff
    some Weyl element maps one coweight to the other (mod m Q^vee)."""
    if s.order != t.order:
        raise TorusError("points must share the same order of q")
    if s.key() == t.key():
        return True
    if rs.weyl_order() > budget:
        raise WeylBudgetError(
            f"Weyl group of {rs.rstype} has order {rs.weyl_order()}, "
            f"over the budget of {budget}; cannot decide conjugacy by orbit")
    if s.order is not None:
        return _orbit_keys(rs, s, [t], budget)[0]
    # generic q: plain BFS over exact coordinate pairs
    start = s.key()
    goal = t.key()
    seen = {start}
    frontier = [s]
    while frontier:
        nxt = []
        for p in frontier:
            for i in range(rs.rank):
                r = p.reflect(i)
                k = r.key()
                if k == goal:
                    return True
                if k not in seen:
                    seen.add(k)
                    nxt.append(r)
        if len(seen) > budget:
            raise WeylBudgetError("orbit exceeded budget")
        frontier = nxt
    return False


# ---------------------------------------------------------------------------
# the verification entry points


def verify_mixed_nonconjugacy(rstype: RootSystemType, m,
                              budget: int = DEFAULT_BUDGET) -> dict:
    """Check that the mixed point (short to q, long to 1/q) is not conjugate
    to the standard point, by centralizer signature when that already
    separates them, else by exact orbit search.  Returns the
    `<type>.m<order>/nonconjugacy` record; an order outside the valid set
    or an orbit search over budget gives a skipped record naming why."""
    rs = build(rstype)
    m = _norm_order(m)
    order = "inf" if m is None else m

    def record(status, statement, non_conjugate=None, criterion=None):
        computed = {"non_conjugate": non_conjugate}
        if criterion is not None:
            computed["criterion"] = criterion
            statement += f" (separated by {criterion})"
        return report.make_record(
            "torus", f"{rstype}.m{order}", "nonconjugacy",
            f"mixed-point table {rstype} o{order}", statement,
            {"non_conjugate": True}, computed, status)

    if m is not None and m not in valid_orders(rs):
        return record("skipped",
                      f"order {m} not in the valid-order set of {rstype}")
    separated = "mixed and standard points lie in distinct rational classes"
    t = standard_point(rs, m)
    s = mixed_point(rs, m)
    if centralizer_signature(rs, s) != centralizer_signature(rs, t):
        return record("pass", separated, True, "signature")
    try:
        conj = conjugate_in_G(rs, s, t, budget)
    except WeylBudgetError as e:
        return record("skipped", str(e))
    if conj:
        return record("fail", "not separated", False, "orbit")
    return record("pass", separated, True, "orbit")


def count_one_dim_characters(rstype: RootSystemType, m,
                             budget: int = DEFAULT_BUDGET) -> int:
    """Count pairwise non-conjugate points among the center translates of
    the standard and mixed points.  For the q=1 model (m=1) the count is
    the center order itself: one character per central element."""
    rs = build(rstype)
    m = _norm_order(m)
    z_reps = center_representatives(rs)
    if m == 1:
        return len(z_reps)
    if m is not None and poincare_vanishes(rs, m):
        raise TorusError(f"Poincare polynomial vanishes at order {m}")
    classes = [rs.length_class(a) for a in rs.simples]
    if len(set(classes)) == 1:
        raise TorusError(f"{rstype} is simply laced; the doubling claim "
                         "needs two root lengths")
    points = []
    for z in z_reps:
        points.append(central_twist(standard_point(rs, m), z))
    for z in z_reps:
        points.append(central_twist(mixed_point(rs, m), z))
    # group the points into conjugacy classes
    reps = []
    assignment = [None] * len(points)
    for i, pt in enumerate(points):
        if assignment[i] is not None:
            continue
        assignment[i] = len(reps)
        others = [(j, points[j]) for j in range(i + 1, len(points))
                  if assignment[j] is None]
        if others and pt.order is not None:
            hits = _orbit_keys(rs, pt, [p for _, p in others], budget)
            for (j, _), h in zip(others, hits):
                if h:
                    assignment[j] = len(reps)
        else:
            for j, other in others:
                if conjugate_in_G(rs, pt, other, budget):
                    assignment[j] = len(reps)
        reps.append(i)
    return len(reps)
