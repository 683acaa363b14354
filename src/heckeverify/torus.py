"""Semisimple torus elements as exact exponent functionals.

A torus point is a rational coweight vector v (coordinates over the simple
coroots): a lattice character x evaluates to q^<x,v>.  For q of finite
order m, two coweights give the same point iff they differ by an element
of m times the coroot lattice, so everything reduces mod m coordinatewise.
Central twists (multiplying by an element of the center Z = P^vee/Q^vee)
are a separate torsion component; for finite m the torsion folds into the
q-exponent part exactly, for generic q it is carried along separately.

Conjugacy of semisimple elements in the simply connected group reduces to
the Weyl group orbit on these coweights, which is decided exactly: the
coordinates are scaled to integers, every row of the enumerated Weyl group
is applied to them at once, and two points are conjugate iff their orbits
have the same least image.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from operator import mul

import numpy as np

from . import report
from .rootsystem import RootSystem, RootSystemType, build, components
from .weyl import (
    WeylBudgetError, enumerate_group, poincare_vanishes, valid_orders)

__all__ = [
    "INFINITE", "TorusPoint", "TorusError", "standard_point", "mixed_point",
    "center_representatives", "central_twist", "roots_with_exponent",
    "centralizer_roots", "SubsystemSignature", "centralizer_signature",
    "conjugate_in_G", "verify_mixed_nonconjugacy", "count_one_dim_characters",
]

INFINITE = None
_ROW_CHUNK = 1 << 18          # group rows per gather in _least_images


class TorusError(ValueError):
    pass


def _norm_order(m):
    if m is not None and (not isinstance(m, int) or m < 1):
        raise TorusError(f"order must be a positive integer, or None for "
                         f"the infinite order, got {m!r}")
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
        # vec is in coroot coordinates: each pairing is a row-of-Cartan dot,
        # taken on vec's numerators over their common denominator and then
        # reduced to the least common denominator of the pairings
        den = lcm(*(v.denominator for v in vec))
        ints = [v.numerator * (den // v.denominator) for v in vec]
        vals = [sum(map(mul, row, ints)) for row in self.rs.cartan]
        g = gcd(den, *vals)
        return tuple(v // g for v in vals), den // g

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
    # v = C^{-1} wanted = adj(C) wanted / det C
    det = rs.center_order()
    return tuple(Fraction(sum(map(mul, row, wanted)), det)
                 for row in rs.cartan_adjugate)


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


@lru_cache(maxsize=None)
def center_representatives(rs: RootSystem):
    """Coset representatives of the center P^vee/Q^vee, as torsion coweights
    (coordinates mod 1), computed once per root system.  The identity comes
    first."""
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
    out = tuple(sorted(seen))
    assert len(out) == rs.center_order()
    return out


def central_twist(point: TorusPoint, z) -> TorusPoint:
    """Multiply the point by the central element with torsion coweight z."""
    tor = tuple(a + b for a, b in zip(point.tor, z))
    return TorusPoint.make(point.rs, point.order, point.vq, tor)


# ---------------------------------------------------------------------------
# exponent classes and centralizer subsystems


def _exponent_ids(rs: RootSystem, s: TorusPoint, k):
    """The ids of the roots alpha with alpha(s) = q^k, ascending.

    Decided on integers: with <alpha, vq> = val/den (s._simple_q) and
    k = kn/kd, alpha(s) = q^k iff val*kd - kn*den is zero, or at finite
    order m a multiple of m*den*kd.  Each step is one product over the
    root array, in int64 while every input is below 2^20."""
    (nums, den), (tnums, tden) = s._simple_q, s._simple_tor
    k = Fraction(k)
    kd, want = k.denominator, k.numerator * den
    mod = s.order * den * kd if s.order else 1
    big = max(map(abs, (*nums, *tnums, tden, kd, want, mod))) >= 2 ** 20
    roots = rs.roots.astype(object) if big else rs.roots
    vals = roots @ np.array(nums, dtype=roots.dtype) * kd - want
    if s.order:
        return np.flatnonzero(vals % mod == 0)
    tvals = roots @ np.array(tnums, dtype=roots.dtype)
    return np.flatnonzero((vals == 0) & (tvals % tden == 0))


def roots_with_exponent(rs: RootSystem, s: TorusPoint, k):
    """All roots alpha with alpha(s) = q^k, in the deterministic order of
    rs.all_roots.  At generic q, roots whose value is not a power of q
    never match."""
    return [rs.all_roots[i] for i in _exponent_ids(rs, s, k).tolist()]


def _centralizer_ids(rs: RootSystem, s: TorusPoint):
    """centralizer_roots as root ids."""
    ids = _exponent_ids(rs, s, 0)
    sums = rs.sums[ids[:, None], ids]
    assert set(sums[sums >= 0].tolist()) <= set(ids.tolist()), \
        "centralizer set not closed"
    return ids


def centralizer_roots(rs: RootSystem, s: TorusPoint):
    """Roots alpha with alpha(s) = 1; checked to be a closed subsystem."""
    return [rs.all_roots[i] for i in _centralizer_ids(rs, s).tolist()]


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
    the multiset of squared lengths (ambient normalization, any integer
    multiple of it)."""
    ratio = Fraction(max(norms), min(norms))
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
    ids = _centralizer_ids(rs, s)
    if not ids.size:
        return SubsystemSignature(())
    # components of the non-orthogonality graph are the irreducible pieces:
    # <a, b^vee> = pairings[a] . coroots[b] is nonzero iff (a, b) is
    linked = rs.pairings[ids] @ np.array([rs.coroots[i] for i in ids]).T
    maxnorm = rs.twice_norm2(rs.highest_root)      # the highest root is long
    comps = []
    for group in components(len(ids), np.argwhere(np.triu(linked, 1))):
        members = ids[group]
        # its simple roots: the positive members not a sum of two of them
        pos = members[members < rs.npos]
        made = rs.sums[pos[:, None], pos].ravel().tolist()
        rank = len(set(pos.tolist()) - set(made))
        norms = rs.twice_norms[members].tolist()
        fam, rk = _component_family(rank, len(members), norms)
        nl = norms.count(maxnorm)
        comps.append((fam, rk, len(members), nl, len(norms) - nl))
    return SubsystemSignature(tuple(sorted(comps)))


# ---------------------------------------------------------------------------
# conjugacy by Weyl orbit


def _least_images(rs: RootSystem, points):
    """The least image of each point over the whole Weyl group, as a tuple
    of integers; points of one order are conjugate iff these are equal.

    The coordinates of all points are scaled to integers by one common
    denominator d: the q-part exactly (mod m*d at finite order m) and the
    torsion part mod d.  A group row w acts as w(v) = sum_k v_k
    coroot(w(a_k)), gathered from the per-type coroot table, a chunk of
    rows at a time; images compare lexicographically.  Refuses with
    WeylBudgetError when |W| is over weyl.ENUM_BUDGET."""
    group = enumerate_group(rs)
    coroots = np.array(rs.coroots, dtype=np.int64)
    m, n = points[0].order, rs.rank
    d = lcm(*(c.denominator for p in points for c in p.vq + p.tor))
    scaled = []
    for p in points:
        vq = [int(c * d) for c in p.vq]
        tor = [int(c * d) for c in p.tor]
        # int64 guard: no image coordinate exceeds this before reduction
        assert (sum(map(abs, vq + tor)) * int(np.abs(coroots).max())
                < 2 ** 62), "torus coordinates too large for int64"
        scaled.append(((np.array(vq, dtype=np.int64), m * d if m else None),
                       (np.array(tor, dtype=np.int64), d)))
    best = [None] * len(points)
    for lo in range(0, len(group), _ROW_CHUNK):
        chunk = group.perms[lo:lo + _ROW_CHUNK, :n]   # root ids of w(a_k)
        first = coroots[chunk, 0]       # the same for every point
        for j, parts in enumerate(scaled):
            rows, least = chunk, []
            # lexicographic minimum: one image column at a time, over the
            # rows still tied for least
            for vec, mod in parts:
                if not vec.any():
                    # zero on every row, as the torsion part is at finite
                    # order: TorusPoint.make folds it into the q-part
                    least += [0] * n
                    continue
                for i in range(n):
                    col = (first if rows is chunk and i == 0
                           else coroots[rows, i]) @ vec
                    if mod:
                        col %= mod
                    least.append(int(col.min()))
                    rows = rows[col == least[-1]]
            best[j] = least if best[j] is None else min(best[j], least)
    return [tuple(b) for b in best]


def conjugate_in_G(rs: RootSystem, s: TorusPoint, t: TorusPoint) -> bool:
    """Whether s and t are conjugate in the simply connected group: true iff
    some Weyl element maps one coweight to the other (mod m Q^vee).  Refuses
    with WeylBudgetError when |W| is over weyl.ENUM_BUDGET."""
    if s.order != t.order:
        raise TorusError("points must share the same order of q")
    least_s, least_t = _least_images(rs, [s, t])
    return least_s == least_t


# ---------------------------------------------------------------------------
# the verification entry points


def verify_mixed_nonconjugacy(rstype: RootSystemType, m) -> dict:
    """Check that the mixed point (short to q, long to 1/q) is not conjugate
    to the standard point, by centralizer signature when that already
    separates them, else by exact orbit search.  Returns the
    `<type>.m<order>/nonconjugacy` record; an order outside the valid set
    or an orbit search over weyl.ENUM_BUDGET gives a skipped record naming
    why."""
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
        conj = conjugate_in_G(rs, s, t)
    except WeylBudgetError as e:
        return record("skipped", str(e))
    if conj:
        return record("fail", "not separated", False, "orbit")
    return record("pass", separated, True, "orbit")


def count_one_dim_characters(rstype: RootSystemType, m) -> int:
    """Count pairwise non-conjugate points among the center translates of
    the standard and mixed points.  For the q=1 model (m=1) the count is
    the center order itself: one character per central element.  Any
    other order needs the whole Weyl group, so it refuses with
    WeylBudgetError when |W| is over weyl.ENUM_BUDGET."""
    rs = build(rstype)
    m = _norm_order(m)
    z_reps = center_representatives(rs)
    if m == 1:
        return len(z_reps)
    if poincare_vanishes(rs, m):
        raise TorusError(f"Poincare polynomial vanishes at order {m}")
    classes = [rs.length_class(a) for a in rs.simples]
    if len(set(classes)) == 1:
        raise TorusError(f"{rstype} is simply laced; the doubling claim "
                         "needs two root lengths")
    points = [central_twist(base, z)
              for base in (standard_point(rs, m), mixed_point(rs, m))
              for z in z_reps]
    return len(set(_least_images(rs, points)))
