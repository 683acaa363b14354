"""Extended affine Weyl group and exact Hecke arithmetic at small rank.

An element here is a pair (w, x) standing for w * t_x, with w in the finite
Weyl group and x a weight-lattice vector in fundamental-weight coordinates.
Lengths come from the positive-root double sum, so the affine simple
reflection is the reflection through the wall of the highest short root.
Whether a generator shortens an element is the sign of one affine root, an
O(rank) test; it finds the length-zero subgroup among forced candidates and
steers every reduced word.

Hecke coefficients are integer Laurent polynomials in a formal v with
v^2 = q, which keeps the half-integer powers of the normalized translation
elements exact.  Products fold reduced words one generator at a time, from
whichever side is cheaper; everything stays in the generic Laurent ring and
numeric specialization is left to callers.

An element (w, x) is an integer code (f, x), f a small id of w interned by
its root permutation, with an integer id per root-system type, and a
HeckeElement maps element ids of its type's table to Laurents.  The
product of an id with a generator on either side is kept in an integer
table per (type, generator, side), so a fold loops over ints; an entry is
filled once, from the generator's action on the code, with its parent's
length plus or minus one.  ExtAffine is the boundary form: interned where
an element enters (HeckeElement(rs, terms), basis, length), built where it
leaves (.terms, _factor); only an entering element has its length summed
over the positive roots.  Inside a product coefficients are packed ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import add, mul, sub

from . import report
from .rootsystem import build, components, parse_type
from .weyl import WeylElement, enumerate_group


class HeckeError(ValueError):
    """Raised for unsupported ranks, blown budgets, or bad scalar patterns."""


class EigenRelationError(HeckeError):
    """A spanning sum failed one of its eigen-relations: a failed claim,
    where every other HeckeError is a refusal."""


DEFAULT_TERM_BUDGET = 100_000
PRODUCT_RANK_CAP = 2
DD_RANK_CAP = 3


# ---------------------------------------------------------------------------
# scalars


class Laurent:
    """Integer Laurent polynomial in v, where v^2 = q."""

    __slots__ = ("c",)

    def __init__(self, c=None):
        self.c = {e: k for e, k in (c or {}).items() if k}

    @classmethod
    def unit(cls) -> "Laurent":
        return cls({0: 1})

    def __add__(self, o: "Laurent") -> "Laurent":
        out = dict(self.c)
        for e, k in o.c.items():
            out[e] = out.get(e, 0) + k
        return Laurent(out)

    def __sub__(self, o: "Laurent") -> "Laurent":
        return self + -o

    def __neg__(self) -> "Laurent":
        return Laurent({e: -k for e, k in self.c.items()})

    def __mul__(self, o: "Laurent") -> "Laurent":
        if len(o.c) == 1:                   # scaling by a monomial
            (e2, k2), = o.c.items()
            return Laurent({e1 + e2: k1 * k2 for e1, k1 in self.c.items()})
        out = {}
        for e1, k1 in self.c.items():
            for e2, k2 in o.c.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + k1 * k2
        return Laurent(out)

    def shift(self, k: int) -> "Laurent":
        """Multiply by v^k."""
        return Laurent({e + k: c for e, c in self.c.items()})

    def __eq__(self, o) -> bool:
        return isinstance(o, Laurent) and self.c == o.c

    def __hash__(self):
        return hash(tuple(sorted(self.c.items())))

    def __bool__(self) -> bool:
        return bool(self.c)

    def at_q1(self) -> int:
        return sum(self.c.values())

    def __repr__(self):
        if not self.c:
            return "0"
        bits = []
        for e, k in sorted(self.c.items()):
            if e == 0:
                bits.append(f"{k}")
            elif e % 2 == 0:
                bits.append(f"{k}*q^{e // 2}")
            else:
                bits.append(f"{k}*q^({e}/2)")
        return " + ".join(bits)


L_ONE = Laurent({0: 1})
L_Q = Laurent({2: 1})
L_QINV = Laurent({-2: 1})
L_QM1 = Laurent({2: 1, 0: -1})          # q - 1


# ---------------------------------------------------------------------------
# the extended affine Weyl group


@dataclass(frozen=True)
class ExtAffine:
    """w * t_x with x in fundamental-weight coordinates."""

    w: WeylElement
    x: tuple

    def __mul__(self, o: "ExtAffine") -> "ExtAffine":
        # (w, x)(w', x') = (ww', w'^{-1}(x) + x'), where
        # <w'^{-1}(x), a_j^vee> = <x, w'(a_j)^vee>
        rs, perm, x = o.w.rs, o.w.perm, self.x
        pre = (sum(a * c for a, c in zip(x, rs.coroots[perm[s]]))
               for s in rs.simple_ids)
        return ExtAffine(self.w * o.w, tuple(a + b for a, b in zip(pre, o.x)))

    def inverse(self) -> "ExtAffine":
        wx = self.w.apply_weight(self.x)
        return ExtAffine(self.w.inverse(), tuple(-int(a) for a in wx))

    def is_identity(self) -> bool:
        return self.w.is_identity() and not any(self.x)


def ext_identity(rs) -> ExtAffine:
    return ExtAffine(WeylElement.identity(rs), (0,) * rs.rank)


def ext_translation(rs, x) -> ExtAffine:
    return ExtAffine(WeylElement.identity(rs), tuple(int(a) for a in x))


def _length(elem: ExtAffine) -> int:
    """Sum over positive roots of |<x,a^>+1| or |<x,a^>| by the sign of w(a)."""
    rs, perm, x = elem.w.rs, elem.w.perm, elem.x
    tot = 0
    for k in range(rs.npos):
        pair = sum(a * c for a, c in zip(x, rs.coroots[k]))
        tot += abs(pair + 1) if perm[k] >= rs.npos else abs(pair)
    return tot


class _Interned:
    """The extended-affine elements of one type met so far, as integer ids.

    Element k = (w, x) is stored as its code, codes[k] = (f, x): f is a
    small id of w, interned by its root permutation perms[f], with the
    products of ids memoised in fprod.  Both grow lazily, so no group is
    enumerated.  Root permutations of different root systems can collide,
    so each type has its own table.  lengths[k] is the length of element
    k, and steps[left][i][k] packs its product with generator r_i on that
    side as (neighbour id << 1 | length went up); -1 until first asked for.
    Fills, products and factorisations read codes alone: an ExtAffine is
    built only for an element coming in (id) or going out (elem)."""

    def __init__(self, rstype):
        rs = self.rs = build(rstype)
        self.perms, self.fids, self.fprod = [], {}, {}
        self.codes, self.ids, self.lengths = [], {}, []
        self.steps = tuple([[] for _ in range(rs.rank + 1)] for _ in range(2))
        self.factors, self.products = {}, {}
        # what descends and _neighbour read: walls[i] is the root index of
        # beta (i = 0) or of alpha_i, gens[i] the finite id of r_i's finite
        # part, and weights[r] root r in weight coordinates
        self.npos = rs.npos
        self.coroots = rs.coroots
        self.walls = [rs.index[highest_short_root(rs)], *rs.simple_ids]
        self.weights = list(map(tuple, rs.pairings.tolist()))
        self.identity = self._add(
            (self.finite(tuple(range(2 * self.npos))), (0,) * rs.rank), 0)
        self.gens = [self.finite(WeylElement.reflection(rs, rs.all_roots[w]).perm)
                     for w in self.walls]

    def finite(self, perm) -> int:
        """The id of the finite part with root permutation perm."""
        f = self.fids.get(perm)
        if f is None:
            f = self.fids[perm] = len(self.perms)
            self.perms.append(perm)
        return f

    def fmul(self, f: int, h: int) -> int:
        """The id of perms[f] * perms[h] (apply perms[h] first)."""
        got = self.fprod.get((f, h))
        if got is None:
            u = self.perms[f]
            got = self.fprod[(f, h)] = self.finite(
                tuple(map(u.__getitem__, self.perms[h])))
        return got

    def _add(self, code, length: int) -> int:
        k = self.ids.get(code)
        if k is None:
            k = self.ids[code] = len(self.codes)
            self.codes.append(code)
            self.lengths.append(length)
            for side in self.steps:
                for table in side:
                    table.append(-1)
        return k

    def id(self, elem: ExtAffine) -> int:
        code = (self.finite(elem.w.perm), elem.x)
        k = self.ids.get(code)
        return self._add(code, _length(elem)) if k is None else k

    def elem(self, k: int) -> ExtAffine:
        f, x = self.codes[k]
        return ExtAffine(WeylElement._of(self.rs, self.perms[f]), x)

    def descends(self, perm, x, i: int, left: bool) -> bool:
        """Whether r_i on that side shortens (w, x), for w's root
        permutation perm: one root lookup and at most one O(rank) pairing.

        Write (a, k), for a root a and an integer k, for the affine root
        v -> <v, a^vee> + k; it is positive when k > 0, or k = 0 and a > 0.
        (w, x) sends (a, k) to (w(a), k - <x, a^vee>), and summing over k
        for each a > 0 shows that _length counts the positive affine roots
        it sends to negative ones.  r_i has length 1 and negates the
        positive affine root a_i, which is (alpha_i, 0) for s_i and
        (-beta, 1) for r_0 = s_beta t_{-beta}, so it permutes the other
        positive affine roots.  Hence l(e r_i) = l(e) - 1 exactly when
        e(a_i) < 0, and l(r_i e) = l(e) - 1 exactly when e^{-1}(a_i) < 0,
        where e^{-1} sends (a, k) to (w^{-1}(a), k + <x, w^{-1}(a)^vee>).
        Written out, with beta the highest short root:
          right s_j: x_j > 0, or x_j = 0 and w(alpha_j) < 0;
          right r_0: p <= -2, or p = -1 and w(beta) > 0, for p = <x, beta^vee>;
          left s_j:  p < 0, or p = 0 and w^{-1}(alpha_j) < 0,
                     for p = <x, w^{-1}(alpha_j)^vee>;
          left r_0:  p >= 2, or p = 1 and w^{-1}(beta) > 0,
                     for p = <x, w^{-1}(beta)^vee>.
        Either way the length changes by exactly one, so the neighbour's
        length is the parent's plus or minus one."""
        wall = self.walls[i]
        if left:
            r = perm.index(wall)    # w^{-1}(alpha_j) or w^{-1}(beta)
            p = sum(map(mul, x, self.coroots[r]))
            if i:
                return p < 0 or p == 0 and r >= self.npos
            return p > 1 or p == 1 and r < self.npos
        if i:
            p = x[i - 1]
            return p > 0 or p == 0 and perm[wall] >= self.npos
        p = sum(map(mul, x, self.coroots[wall]))
        return p < -1 or p == -1 and perm[wall] < self.npos

    def _neighbour(self, f: int, x, i: int, left: bool):
        """The code of (w, x) r_i or r_i (w, x), from (w, x)(w', x') =
        (w w', w'^{-1}(x) + x') with r_i = (s_j, 0) or (s_beta, -beta):
        (w, x) s_j = (w s_j, x - x_j alpha_j), (w, x) r_0 = (w s_beta,
        x - (p + 1) beta) for p = <x, beta^vee>, s_j (w, x) = (s_j w, x)
        and r_0 (w, x) = (s_beta w, x - w^{-1}(beta))."""
        s = self.gens[i]
        if left:
            if i:
                return self.fmul(s, f), x
            shift = self.weights[self.perms[f].index(self.walls[0])]
            return self.fmul(s, f), tuple(map(sub, x, shift))
        if i:
            p = x[i - 1]
        else:
            p = sum(map(mul, x, self.coroots[self.walls[0]])) + 1
        shift = self.weights[self.walls[i]]
        return self.fmul(f, s), tuple(a - p * c for a, c in zip(x, shift))

    def step(self, k: int, i: int, left: bool) -> int:
        table = self.steps[left][i]
        got = table[k]
        if got < 0:
            f, x = self.codes[k]
            up = not self.descends(self.perms[f], x, i, left)
            nb = self._add(self._neighbour(f, x, i, left),
                           self.lengths[k] + (1 if up else -1))
            got = table[k] = nb << 1 | up
        return got

    def times(self, k: int, m: int) -> int:
        """The id of element k times element m, one of them of length zero
        (as in every product a fold takes), so the product has the other's
        length: l(ab) <= l(a) + l(b) and l(a) <= l(ab) + l(b^{-1}).  For
        codes (f, x), (h, y) it is (f h, w_h^{-1}(x) + y), with
        <w_h^{-1}(x), alpha_j^vee> = <x, w_h(alpha_j)^vee>."""
        got = self.products.get((k, m))
        if got is None:
            lk, lm = self.lengths[k], self.lengths[m]
            if lk and lm:
                raise AssertionError("neither factor has length zero")
            (f, x), (h, y) = self.codes[k], self.codes[m]
            perm = self.perms[h]
            pre = (sum(map(mul, x, self.coroots[perm[s]]))
                   for s in self.rs.simple_ids)
            got = self.products[(k, m)] = self._add(
                (self.fmul(f, h), tuple(map(add, pre, y))), lk + lm)
        return got

    def factor(self, k: int):
        """(omega id, word) with element k = omega * r_{j_1} ... r_{j_m}
        and the word reduced: step down the first right descent, in
        generator order, while the length is positive.  Only the descent
        chain is interned."""
        got = self.factors.get(k)
        if got is None:
            tail = []
            e = k
            gens = range(len(self.walls))
            while self.lengths[e]:
                f, x = self.codes[e]
                perm = self.perms[f]
                i = next((i for i in gens
                          if self.descends(perm, x, i, False)), None)
                if i is None:
                    raise AssertionError(
                        "element of positive length with no descent")
                e = self.step(e, i, False) >> 1
                tail.append(i)
            got = self.factors[k] = (e, tuple(reversed(tail)))
        return got


_INTERNED: dict = {}


def _interned(rstype) -> _Interned:
    return (_INTERNED.get(rstype)
            or _INTERNED.setdefault(rstype, _Interned(rstype)))


def length(elem: ExtAffine) -> int:
    """Sum over positive roots of |<x,a^>+1| or |<x,a^>| by the sign of w(a);
    computed once per element."""
    g = _interned(elem.w.rs.rstype)
    return g.lengths[g.id(elem)]


def is_dominant(rs, x) -> bool:
    """Nonnegative pairing with every simple coroot; in weight coordinates
    that is just coordinatewise nonnegativity."""
    return all(int(a) >= 0 for a in x)


def highest_short_root(rs):
    short = min(rs.twice_norm2(s) for s in rs.simples)
    # the positive roots are ordered by height
    return [r for r in rs.positive_roots if rs.twice_norm2(r) == short][-1]


@lru_cache(maxsize=None)
def affine_generators(rstype):
    """(r_0, r_1, ..., r_n); index i >= 1 is the finite reflection in a_i,
    r_0 reflects through the affine wall of the highest short root."""
    rs = build(rstype)
    beta = highest_short_root(rs)
    gens = [ExtAffine(WeylElement.reflection(rs, beta),
                      tuple((-rs.pairings[rs.index[beta]]).tolist()))]
    gens += [ExtAffine(WeylElement.simple(rs, j), (0,) * rs.rank)
             for j in range(rs.rank)]
    for g in gens:
        # _length, not length: building the type's _Interned table reads
        # these generators, so they cannot be interned while being built
        assert _length(g) == 1
    return tuple(gens)


@lru_cache(maxsize=None)
def omega_group(rstype):
    """The length-zero subgroup, one element per weight/root lattice coset.

    A length-zero (w, x) forces <x, a_j^> to be 0 on each simple root kept
    positive by w and -1 on each simple root inverted, so there is exactly
    one candidate x per w and a sweep over the finite group finds all of
    them.  No finite generator is a right descent of a candidate, so it
    has length zero exactly when r_0 is not one either (an element of
    positive length has a right descent).  The count must equal the Cartan
    determinant."""
    rs = build(rstype)
    target = rs.center_order()
    g = _interned(rstype)
    out = [ext_identity(rs)]
    if target > 1:
        for w in enumerate_group(rs):
            if w.is_identity():
                continue
            x = tuple(0 if w.perm[a] < rs.npos else -1 for a in rs.simple_ids)
            # the test alone: length() would intern every candidate
            if not g.descends(w.perm, x, 0, False):
                out.append(ExtAffine(w, x))
    if len(out) != target:
        # a wrong count, not an input refused
        raise AssertionError(
            f"found {len(out)} length-zero elements in {rstype}, "
            f"expected {target}")
    out.sort(key=lambda e: (e.x, e.w.images))
    return tuple(out)


def _factor(elem: ExtAffine):
    """elem = omega * r_{j_1} ... r_{j_m} with the word reduced."""
    g = _interned(elem.w.rs.rstype)
    om, word = g.factor(g.id(elem))
    return g.elem(om), word


def tau_rotation(rstype):
    """The length-zero element rotating the affine diagram one step.

    In this module's apply-right-first composition its conjugation sends
    r_{i+1} to r_i (indices mod n+1); read with composition in the opposite
    order that is the usual shift of every generator index up by one.  Only
    type A has one: its affine diagram is the only cycle."""
    if rstype.family != "A":
        raise HeckeError(f"no one-step diagram rotation in {rstype}")
    gens = affine_generators(rstype)
    n1 = len(gens)
    for om in omega_group(rstype):
        if om.is_identity():
            continue
        inv = om.inverse()
        if all(om * gens[(i + 1) % n1] * inv == gens[i] for i in range(n1)):
            return om
    # a wrong length-zero group, not an input refused
    raise AssertionError(f"no one-step diagram rotation in {rstype}")


# ---------------------------------------------------------------------------
# Hecke elements


class HeckeElement:
    """Finitely supported map from extended-affine elements to scalars,
    held as ids: element id -> nonzero Laurent over the type's _Interned
    table g.  terms is the ExtAffine-keyed view, built on each read."""

    __slots__ = ("g", "ids")

    def __init__(self, rs, terms=None):
        g = self.g = _interned(rs.rstype)
        self.ids = {g.id(e): c for e, c in (terms or {}).items() if c}

    @classmethod
    def _of(cls, g: _Interned, ids: dict) -> "HeckeElement":
        """The element with these ids, every coefficient nonzero."""
        out = cls.__new__(cls)
        out.g, out.ids = g, ids
        return out

    @property
    def rs(self):
        return self.g.rs

    @property
    def terms(self) -> dict:
        return {self.g.elem(k): c for k, c in self.ids.items()}

    @classmethod
    def unit(cls, rs) -> "HeckeElement":
        return cls(rs, {ext_identity(rs): L_ONE})

    @classmethod
    def basis(cls, rs, elem: ExtAffine, coeff: Laurent = L_ONE) -> "HeckeElement":
        return cls(rs, {elem: coeff})

    def scale(self, coeff: Laurent) -> "HeckeElement":
        ids = {k: c * coeff for k, c in self.ids.items()} if coeff else {}
        return HeckeElement._of(self.g, ids)

    def __add__(self, o: "HeckeElement") -> "HeckeElement":
        out = dict(self.ids)
        for k, c in o.ids.items():
            out[k] = out[k] + c if k in out else c
        return HeckeElement._of(self.g, {k: c for k, c in out.items() if c})

    def __eq__(self, o) -> bool:
        return (isinstance(o, HeckeElement) and self.g is o.g
                and self.ids == o.ids)

    def is_zero(self) -> bool:
        return not self.ids

    def __len__(self):
        return len(self.ids)

    def at_q1(self):
        """Specialize q to 1: a plain group-algebra element over the integers."""
        return {e: k for e, c in self.terms.items() if (k := c.at_q1())}

    def __repr__(self):
        return f"HeckeElement({len(self.ids)} terms)"


# Inside a product, coefficients are packed into one Python integer each
# (Kronecker substitution): sum_e c_e v^e is stored as sum_e c_e 2^(bits*(e-lo))
# with signed digits.  Every operation a fold needs is then one integer
# operation: adding, multiplying by q = v^2 (a shift by 2*bits), and the
# product of two coefficients.  Packing is a ring map, so it is exact; it
# can be read back while every true coefficient stays below 2^(bits-1) in
# absolute value, which _digits guarantees from a bound on the sum of
# absolute values (a fold at most triples it).


def _l1(c: Laurent) -> int:
    return sum(map(abs, c.c.values()))


def _digits(bound: int) -> int:
    """Digit width for coefficients of absolute value at most bound."""
    return bound.bit_length() + 1


def _pack(c: Laurent, lo: int, bits: int) -> int:
    return sum(k << (bits * (e - lo)) for e, k in c.c.items())


def _unpack(x: int, lo: int, bits: int) -> Laurent:
    out = {}
    half, full = 1 << (bits - 1), 1 << bits
    e = lo
    while x:
        d = x & (full - 1)
        if d >= half:
            d -= full
        if d:
            out[e] = d
        x = (x - d) >> bits
        e += 1
    return Laurent(out)


def _fold_gen(g: _Interned, terms, i, left, shift):
    """terms * T_{r_i} (or the mirror product) by the quadratic relation,
    over element ids and packed coefficients; shift is 2*bits."""
    table = g.steps[left][i]
    out = {}
    get = out.get
    for e, c in terms.items():
        s = table[e]
        if s < 0:
            s = g.step(e, i, left)
        er = s >> 1
        if s & 1:
            out[er] = get(er, 0) + c
        else:
            cq = c << shift               # times q
            out[e] = get(e, 0) + cq - c   # times q - 1
            out[er] = get(er, 0) + cq
    return out


def hecke_mul(a: HeckeElement, b: HeckeElement,
              term_budget: int = DEFAULT_TERM_BUDGET) -> HeckeElement:
    """Exact product; folds each term's reduced word of the factor with the
    shorter total word length into the other factor."""
    g = a.g
    if b.g is not g:
        raise HeckeError("factors live over different root systems")
    lengths = g.lengths
    right = (sum(map(lengths.__getitem__, b.ids))
             <= sum(map(lengths.__getitem__, a.ids)))
    seeds, rest = (b.ids, a.ids) if right else (a.ids, b.ids)
    words = [(g.factor(k), c) for k, c in seeds.items()]
    lo_seed = min((min(c.c) for c in seeds.values()), default=0)
    lo_rest = min((min(c.c) for c in rest.values()), default=0)
    rest_l1 = sum(map(_l1, rest.values()))
    bits = _digits(sum(_l1(c) * 3 ** len(w) for (_, w), c in words) * rest_l1)
    shift = 2 * bits
    rest = [(k, _pack(c, lo_rest, bits)) for k, c in rest.items()]
    out: dict = {}
    for (om, word), cs in words:
        cs = _pack(cs, lo_seed, bits)
        if right:
            part = {g.times(k, om): c * cs for k, c in rest}
            for j in word:
                part = _fold_gen(g, part, j, False, shift)
        else:
            part = {k: c * cs for k, c in rest}
            for j in reversed(word):
                part = _fold_gen(g, part, j, True, shift)
            part = {g.times(om, k): c for k, c in part.items()}
        for e, c in part.items():
            out[e] = out.get(e, 0) + c
        if len(out) > term_budget:
            raise HeckeError(
                f"product support exceeded the {term_budget}-term budget")
    lo = lo_seed + lo_rest
    return HeckeElement._of(
        g, {e: _unpack(c, lo, bits) for e, c in out.items() if c})


@lru_cache(maxsize=4096)
def _basis_inverse(g: _Interned, k: int) -> HeckeElement:
    """T_k^{-1}, from T_r^{-1} = q^{-1} (T_r + 1 - q): the word's factors
    are folded with nonnegative exponents and q^{-m} is applied at the end.
    Keyed by the table itself, so an id is never read against another
    table."""
    om, word = g.factor(k)
    bits = _digits(3 ** len(word))
    shift = 2 * bits
    h = {g.identity: 1}
    for j in reversed(word):
        folded = _fold_gen(g, h, j, False, shift)
        for e, c in h.items():
            folded[e] = folded.get(e, 0) + c - (c << shift)
        h = folded
    inv = g.id(g.elem(om).inverse())
    lo = -2 * len(word)
    return HeckeElement._of(g, {g.times(e, inv): _unpack(c, lo, bits)
                                for e, c in h.items() if c})


def basis_inverse(rs, elem: ExtAffine) -> HeckeElement:
    g = _interned(rs.rstype)
    return _basis_inverse(g, g.id(elem))


# ---------------------------------------------------------------------------
# Bernstein elements


def _theta_parts(rs, x):
    """Canonical decomposition x = y - z with y, z dominant."""
    x = tuple(int(a) for a in x)
    z = tuple(max(0, -a) for a in x)
    y = tuple(a + b for a, b in zip(x, z))
    return y, z


@lru_cache(maxsize=4096)
def _theta(rstype, x) -> HeckeElement:
    rs = build(rstype)
    y, z = _theta_parts(rs, x)
    ty, tz = ext_translation(rs, y), ext_translation(rs, z)
    top = HeckeElement.basis(rs, ty, Laurent({length(tz) - length(ty): 1}))
    return hecke_mul(top, basis_inverse(rs, tz)) if any(z) else top


def theta(rs, x) -> HeckeElement:
    """theta_x = q^{(l(z)-l(y))/2} T_y T_z^{-1} for the canonical y, z."""
    if rs.rank > PRODUCT_RANK_CAP:
        raise HeckeError(
            f"rank {rs.rank} is over the rank-{PRODUCT_RANK_CAP} product cap")
    return _theta(rs.rstype, tuple(int(a) for a in x))


def weyl_orbit(rs, x):
    """The finite-group orbit of a weight, sorted for determinism."""
    out = {tuple(int(a) for a in w.apply_weight(x)) for w in enumerate_group(rs)}
    return sorted(out)


def central_sum(rs, x) -> HeckeElement:
    """S_x, the orbit sum of theta over the finite-group orbit of x."""
    if not is_dominant(rs, x):
        raise HeckeError(f"{x} is not dominant")
    out = HeckeElement(rs)
    for y in weyl_orbit(rs, x):
        out = out + theta(rs, y)
    return out


def build_D_Dprime(rs):
    """The two spanning sums over the finite group, with their eigen-relations
    under every finite generator checked in the generic ring."""
    if rs.rank > DD_RANK_CAP:
        raise HeckeError(f"rank {rs.rank} is over the rank-{DD_RANK_CAP} cap "
                         f"(DD_RANK_CAP) of the spanning sums")
    group = enumerate_group(rs)
    elems = [ExtAffine(w, (0,) * rs.rank) for w in group]
    d = HeckeElement(rs, dict.fromkeys(elems, L_ONE))
    dp = HeckeElement(rs, {e: Laurent({-2 * lw: (-1) ** lw})
                           for e, lw in zip(elems, group.lengths.tolist())})
    minus = Laurent({0: -1})
    for j in range(rs.rank):
        tr = HeckeElement.basis(rs, affine_generators(rs.rstype)[j + 1])
        if hecke_mul(tr, d) != d.scale(L_Q) or hecke_mul(d, tr) != d.scale(L_Q):
            raise EigenRelationError(
                f"spanning sum failed the q eigen-relation at {j}")
        if (hecke_mul(tr, dp) != dp.scale(minus)
                or hecke_mul(dp, tr) != dp.scale(minus)):
            raise EigenRelationError(
                f"alternating sum failed the -1 eigen-relation at {j}")
    return d, dp


# ---------------------------------------------------------------------------
# one-dimensional characters


@lru_cache(maxsize=None)
def _bond_orders(rstype):
    """m(i, j) for the affine generators; None when the product never closes
    (the rank-one affine group, where the two walls are parallel)."""
    gens = affine_generators(rstype)
    out = {}
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            prod = gens[i] * gens[j]
            e = prod
            m = 1
            while m <= 6 and not e.is_identity():
                e = e * prod
                m += 1
            out[(i, j)] = m if m <= 6 else None
    return out


def braid_classes(rstype):
    """Affine generator indices grouped by odd-bond connectivity; a
    one-dimensional character must be constant on each group."""
    odd = [pair for pair, m in _bond_orders(rstype).items()
           if m is not None and m % 2 == 1]
    return sorted(tuple(g) for g in
                  components(len(affine_generators(rstype)), odd))


def one_dim_character(rstype, assignment) -> dict:
    """Scalar of theta on each simple root under T_{r_i} -> assignment[i].

    assignment maps every affine generator index (0 = affine node) to "q" or
    "-1".  The translation by a simple root has equal length-zero parts in
    both halves of its canonical decomposition, so the scalar is read off the
    two reduced words with no Hecke arithmetic:
    q^{(l(z)-l(y))/2} * prod(word of y) / prod(word of z)."""
    rstype = parse_type(rstype) if isinstance(rstype, str) else rstype
    rs = build(rstype)
    n1 = rs.rank + 1
    if sorted(assignment) != list(range(n1)):
        raise HeckeError(f"assignment must cover generator indices 0..{rs.rank}")
    for i, v in assignment.items():
        if v not in ("q", "-1"):
            raise HeckeError(f"scalar at index {i} must be 'q' or '-1'")
    for group in braid_classes(rstype):
        if len({assignment[i] for i in group}) > 1:
            raise HeckeError(
                f"generators {group} are braid-linked by an odd bond and "
                f"must act by the same scalar")
    out = {}
    for i in range(rs.rank):
        x = tuple(rs.cartan[i])     # the simple root in weight coordinates
        y, z = _theta_parts(rs, x)
        ty, tz = ext_translation(rs, y), ext_translation(rs, z)
        om_y, word_y = _factor(ty)
        om_z, word_z = _factor(tz)
        if om_y != om_z:
            raise AssertionError(
                "translations by weights in the same root-lattice coset "
                "must share their length-zero part")
        ups = (sum(assignment[j] == "q" for j in word_y)
               - sum(assignment[j] == "q" for j in word_z))
        sign = (-1) ** sum(assignment[j] == "-1" for j in word_y + word_z)
        # twice the exponent of q
        out[i + 1] = Laurent({length(tz) - length(ty) + 2 * ups: sign})
    return out


# ---------------------------------------------------------------------------
# recorded word identities


def _a_type_word(n, i):
    """Letters (1-based finite generators) of the recorded type-A word for
    the i-th fundamental translation: blocks [a .. a+i-1] for a = n+1-i
    down to 1."""
    word = []
    for a in range(n + 1 - i, 0, -1):
        word.extend(range(a, a + i))
    return word


F4_WORD = (0, 4, 3, 2, 1, 3, 4, 2, 3, 2, 4, 3, 1, 2, 3, 4)
G2_WORDS = {1: (0, 1, 2, 1, 2, 1), 2: (0, 1, 2, 1, 2, 0, 1, 2, 1, 2)}


def verify_translation_words():
    """Check every recorded translation word against the group law.

    Each `words/<slug>` record confirms the word lands on the right
    translation and that its letter count equals the translation's length,
    so the corresponding Hecke product is length-additive and the operator
    identity follows."""
    records = []

    def rec(slug, ok, statement):
        records.append(report.make_record(
            "hecke", "words", slug, f"word table {slug}", statement,
            {"holds": True}, {"holds": bool(ok)}, "pass" if ok else "fail"))

    for n in range(1, 5):
        rstype = parse_type(f"A{n}")
        rs, gens = build(rstype), affine_generators(rstype)
        tau = tau_rotation(rstype)
        for i in range(1, n + 1):
            word = _a_type_word(n, i)
            got = reduce(mul, [tau] * (n + 1 - i) + [gens[j] for j in word])
            target = ext_translation(rs, tuple(int(j == i - 1)
                                               for j in range(n)))
            ok = (got == target and length(target) == len(word)
                  and len(word) == i * (n + 1 - i))
            rec(f"a{n}-x{i}", ok,
                f"rotation power {n + 1 - i} then {len(word)} letters lands "
                f"on the fundamental translation x{i}, length {i * (n + 1 - i)}")
    rs = build(parse_type("F4"))
    gens = affine_generators(rs.rstype)
    got = reduce(mul, [gens[j] for j in F4_WORD])
    target = ext_translation(rs, (0, 0, 0, 1))
    rec("f4-x4", got == target and length(target) == len(F4_WORD),
        "the recorded 16-letter word is a reduced expression of the fourth "
        "fundamental translation")
    rs = build(parse_type("G2"))
    gens = affine_generators(rs.rstype)
    for i, word in sorted(G2_WORDS.items()):
        got = reduce(mul, [gens[j] for j in word])
        target = ext_translation(rs, tuple(int(j == i - 1) for j in range(2)))
        rec(f"g2-x{i}", got == target and length(target) == len(word),
            f"the recorded {len(word)}-letter word is a reduced expression "
            f"of the fundamental translation x{i}")
    fw = rs.fundamental_weights
    rec("g2-lattice", tuple(fw[0]) == (2, 1) and tuple(fw[1]) == (3, 2),
        "in root coordinates the fundamental weights are 2a1+a2 and 3a1+2a2")
    g0, g2 = gens[0], gens[2]
    rec("g2-commuting-wall", g0 * g2 == g2 * g0,
        "the affine generator commutes with the long-root generator")
    return records


# ---------------------------------------------------------------------------
# ball verification


def _ball(rank, radius):
    out = [()]
    for _ in range(rank):
        out = [t + (c,) for t in out for c in range(-radius, radius + 1)]
    return sorted(out)


@lru_cache(maxsize=4096)
def _theta_translated(rstype, x, shift) -> HeckeElement:
    """theta_x * T_{t_shift}: on a weight ball most pairs share this product."""
    rs = build(rstype)
    return hecke_mul(theta(rs, x),
                     HeckeElement.basis(rs, ext_translation(rs, shift)))


def _cleared_theta_product(rs, x, y, zc):
    """theta_x * theta_y * T_{t_zc} with zc dominating y's denominator,
    without theta_y's scalar v^(l(t_z) - l(t_y)): the right factor
    collapses to the basis element T_{t_u}, u = y + zc - z for y's
    canonical (y, z), so this is theta_x T_{t_u}."""
    yy, zy = _theta_parts(rs, y)
    shift = tuple(a + b - c for a, b, c in zip(yy, zc, zy))
    return _theta_translated(rs.rstype, x, shift)


def verify_bernstein(rstype, radius=2):
    """Exercise the commuting-basis identities on a ball of weights.

    For each pair x, y the products theta_x theta_y and theta_y theta_x are
    compared with theta_{x+y} after clearing the one shared denominator by a
    dominant translation (an invertible basis element, so equality before
    and after clearing agree).  A cleared product is v^k theta_x T_{t_u},
    k = l(t_z) - l(t_y) for y's canonical (y, z), and pairs share their
    (x, u) (144 distinct of 625 ordered pairs at radius 2 on A2, B2 and
    G2), so each distinct theta_x T_{t_u} is computed once.  The target
    is theta_{x+y} T_{t_zc} = v^m T_{t_s}, and a pair passes when
    theta_x T_{t_u} has one term, at t_s, with coefficient v^(m - k):
    scaling by a monomial is injective, so that is the equality itself.
    The radius must be a positive integer: a ball of radius 0 would
    compare only theta_0 with itself and vouch for nothing.  Decomposition
    independence of theta and centrality of the orbit sums over the
    fundamental weights are checked directly.  Returns the three `<type>.ball` records; a failing record's
    computed side also names the offending pairs (at most five products)."""
    if isinstance(radius, bool) or not isinstance(radius, int) or radius < 1:
        raise HeckeError(
            f"ball radius must be a positive integer, got {radius!r}")
    rstype = parse_type(rstype) if isinstance(rstype, str) else rstype
    rs = build(rstype)
    if rs.rank > PRODUCT_RANK_CAP:
        raise HeckeError(
            f"rank {rs.rank} is over the rank-{PRODUCT_RANK_CAP} product cap")
    records = []

    def rec(claim, statement, bad, shown):
        computed = {"failures": len(bad)}
        if bad:
            computed["failing_pairs"] = shown
        records.append(report.make_record(
            "hecke", f"{rstype}.ball", claim, f"commuting family {rstype}",
            statement, {"failures": 0}, computed,
            "fail" if bad else "pass"))

    @lru_cache(maxsize=None)
    def translation(x):
        """t_x and its length, built once per weight in this call."""
        t = ext_translation(rs, x)
        return t, length(t)

    def exponent(y, z):     # the power of v in theta_{y - z}
        return translation(z)[1] - translation(y)[1]

    ball = _ball(rs.rank, radius)
    bad = []
    pairs = 0
    for ix, x in enumerate(ball):
        for y in ball[ix:]:
            s = tuple(map(add, x, y))
            ys, zs = _theta_parts(rs, s)
            m = exponent(ys, zs)
            orders = ((x, y),) if x == y else ((x, y), (y, x))
            pairs += 1
            for a, b in orders:
                yb, zb = _theta_parts(rs, b)
                zc = tuple(map(max, zb, zs))
                target = translation(tuple(p + q - r for p, q, r
                                           in zip(ys, zc, zs)))[0]
                want = HeckeElement.basis(
                    rs, target, Laurent({m - exponent(yb, zb): 1}))
                if _cleared_theta_product(rs, a, b, zc) != want:
                    bad.append((a, b))
    rec("theta-products",
        f"products and transposes of {pairs} weight pairs at radius {radius} "
        f"all match the sum weight", bad, bad[:5])

    probe = [tuple(int(j == i) for j in range(rs.rank))
             for i in range(rs.rank)]
    probe += [tuple(-1 for _ in range(rs.rank)),
              tuple(1 if j == 0 else -1 for j in range(rs.rank))]
    rho = (1,) * rs.rank
    indep_bad = []
    for x in probe:
        y0, z0 = _theta_parts(rs, x)
        for k in (1, 2):
            y = tuple(a + k * b for a, b in zip(y0, rho))
            z = tuple(a + k * b for a, b in zip(z0, rho))
            # v^e T_{t_y} T_{t_z}^{-1}, one more decomposition of theta_x
            alt = hecke_mul(HeckeElement.basis(rs, translation(y)[0],
                                               Laurent({exponent(y, z): 1})),
                            basis_inverse(rs, translation(z)[0]))
            if alt != theta(rs, x):
                indep_bad.append((x, k))
    rec("theta-independence",
        f"{len(probe)} weights rebuilt from 3 decompositions each give one "
        f"value", indep_bad, indep_bad)

    central_bad = []
    for i in range(rs.rank):
        s = central_sum(rs, tuple(int(j == i) for j in range(rs.rank)))
        for j in range(rs.rank + 1):
            tr = HeckeElement.basis(rs, affine_generators(rs.rstype)[j])
            if hecke_mul(tr, s) != hecke_mul(s, tr):
                central_bad.append((i + 1, j))
        for om in omega_group(rs.rstype):
            to = HeckeElement.basis(rs, om)
            if hecke_mul(to, s) != hecke_mul(s, to):
                central_bad.append((i + 1, om))
    rec("central-sums",
        "orbit sums over every fundamental weight commute with every affine "
        "generator and every length-zero element", central_bad, central_bad)
    return records
