"""Weyl groups: enumeration, Poincare polynomials, character counts.

Elements are represented two ways.  The numpy engine encodes each group
element by the tuple of root indices (w(alpha_1), ..., w(alpha_n)) and
enumerates the whole group breadth-first by left multiplication with the
simple reflections; this scales to a few million elements.  WeylElement is
a slower exact object for small-rank work where individual elements are
composed, inverted, and turned into reduced words.

Lengths come for free from the BFS: left multiplication by a simple
reflection changes the length by exactly one, so BFS depth equals Coxeter
length.  That also means layer-(k+1) candidates can only collide with
layer k-1, which keeps the dedupe cheap.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from .partitions import p, ordered_pairs, typeD_count
from .rootsystem import RootSystem, _invert_fraction_matrix

__all__ = [
    "WeylBudgetError", "WeylElement", "GroupEnumeration", "enumerate_group",
    "poincare", "poincare_vanishes", "valid_orders", "irr_count",
    "conjugacy_class_count", "cyclotomic",
]

DEFAULT_BUDGET = 10_000_000


class WeylBudgetError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# exact elements for small-rank work


class WeylElement:
    """A Weyl group element, stored as the images of the simple roots.

    Composition is exact integer arithmetic.  (u * v) means "apply v
    first": (u * v)(x) = u(v(x)).
    """

    __slots__ = ("rs", "images", "_inv_images")

    def __init__(self, rs: RootSystem, images):
        self.rs = rs
        self.images = tuple(tuple(r) for r in images)
        self._inv_images = None

    @classmethod
    def identity(cls, rs: RootSystem) -> "WeylElement":
        return cls(rs, rs.simples)

    @classmethod
    def simple(cls, rs: RootSystem, j: int) -> "WeylElement":
        return cls(rs, [rs.reflect(a, j) for a in rs.simples])

    @classmethod
    def from_word(cls, rs: RootSystem, word) -> "WeylElement":
        out = cls.identity(rs)
        for j in word:
            out = out * cls.simple(rs, j)
        return out

    def apply_root(self, coords):
        n = self.rs.rank
        out = [0] * n
        for i, c in enumerate(coords):
            if c:
                img = self.images[i]
                for k in range(n):
                    out[k] += c * img[k]
        return tuple(out)

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        return WeylElement(self.rs, [self.apply_root(r) for r in other.images])

    def mul_simple(self, j: int) -> "WeylElement":
        """Right multiplication w * s_j without building s_j."""
        rs = self.rs
        imgs = list(self.images)
        for i in range(rs.rank):
            k = rs.cartan[i][j]
            if k:
                imgs[i] = tuple(a - k * b for a, b in zip(imgs[i], self.images[j]))
        return WeylElement(rs, imgs)

    def _inverse_images(self):
        if self._inv_images is None:
            n = self.rs.rank
            mat = [[Fraction(self.images[j][i]) for j in range(n)] for i in range(n)]
            inv = _invert_fraction_matrix(mat)
            cols = []
            for j in range(n):
                col = tuple(int(inv[i][j]) for i in range(n))
                cols.append(col)
            self._inv_images = tuple(cols)
        return self._inv_images

    def inverse(self) -> "WeylElement":
        return WeylElement(self.rs, self._inverse_images())

    def apply_weight(self, x):
        """Action on a vector in fundamental-weight coordinates.

        <w(x), alpha_j^vee> = <x, w^{-1}(alpha_j)^vee>, so the result stays
        exact (integers in, integers out)."""
        inv = self._inverse_images()
        out = []
        for j in range(self.rs.rank):
            val = self.rs.coroot_pairing(x, inv[j])
            out.append(int(val) if val.denominator == 1 else val)
        return tuple(out)

    def is_identity(self) -> bool:
        return self.images == tuple(self.rs.simples)

    def length(self) -> int:
        count = 0
        for r in self.rs.positive_roots:
            img = self.apply_root(r)
            if any(c < 0 for c in img):
                count += 1
        return count

    def word(self):
        """A reduced word (list of simple-reflection indices)."""
        w = self
        tail = []
        while True:
            desc = None
            for j in range(self.rs.rank):
                if any(c < 0 for c in w.images[j]):
                    desc = j
                    break
            if desc is None:
                break
            tail.append(desc)
            w = w.mul_simple(desc)
        return list(reversed(tail))

    def order(self) -> int:
        w = self
        k = 1
        while not w.is_identity():
            w = w * self
            k += 1
            assert k <= 100
        return k

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"WeylElement({self.rs.rstype}, word={self.word()})"


# ---------------------------------------------------------------------------
# numpy engine


def _reflection_tables(rs: RootSystem):
    """refl[j][r] = index of s_j(root r), over all roots."""
    nroots = len(rs.all_roots)
    refl = np.empty((rs.rank, nroots), dtype=np.int16)
    for j in range(rs.rank):
        for r, root in enumerate(rs.all_roots):
            refl[j][r] = rs.index[rs.reflect(root, j)]
    return refl


def _key_powers(rs: RootSystem):
    nroots = len(rs.all_roots)
    base = 1 << max(1, (nroots - 1).bit_length())
    if base ** rs.rank > 2 ** 64:
        raise WeylBudgetError(
            f"cannot key rank-{rs.rank} elements over {nroots} roots in 64 bits")
    return np.array([base ** i for i in range(rs.rank)], dtype=np.uint64)


class GroupEnumeration:
    """The full Weyl group as parallel numpy arrays.

    perms[i] holds the root indices of the images of the simple roots
    under element i; lengths[i] is its Coxeter length.  Elements are
    ordered by (length, key), which is deterministic.
    """

    def __init__(self, rs: RootSystem, perms, lengths, powers):
        self.rs = rs
        self.perms = perms
        self.lengths = lengths
        self._powers = powers
        keys = (perms.astype(np.uint64) * powers).sum(axis=1)
        self._sorted_keys = np.sort(keys)
        self._sorted_to_row = np.argsort(keys, kind="stable")

    def __len__(self):
        return self.perms.shape[0]

    def length_histogram(self):
        hist = np.bincount(self.lengths)
        return {int(l): int(c) for l, c in enumerate(hist) if c}

    def lookup(self, perm_batch):
        """Row indices of a (B, rank) batch of image tuples."""
        keys = (perm_batch.astype(np.uint64) * self._powers).sum(axis=1)
        pos = np.searchsorted(self._sorted_keys, keys)
        assert np.array_equal(self._sorted_keys[pos], keys)
        return self._sorted_to_row[pos]

    def element(self, i: int) -> WeylElement:
        images = [self.rs.all_roots[r] for r in self.perms[i]]
        return WeylElement(self.rs, images)

    def __iter__(self):
        for i in range(len(self)):
            yield self.element(i)


_ENUM_CACHE: dict = {}


def enumerate_group(rs: RootSystem, budget: int = DEFAULT_BUDGET) -> GroupEnumeration:
    """Enumerate the whole Weyl group breadth-first.

    Refuses groups larger than the budget before doing any work, since
    the order is known in advance from the degrees.
    """
    order = rs.weyl_order()
    if order > budget:
        raise WeylBudgetError(
            f"Weyl group of {rs.rstype} has order {order}, "
            f"over the budget of {budget}")
    cached = _ENUM_CACHE.get(rs.rstype)
    if cached is not None:
        return cached

    refl = _reflection_tables(rs)
    powers = _key_powers(rs)
    n = rs.rank

    ident = np.array([[rs.index[a] for a in rs.simples]], dtype=np.int16)
    layers = [ident]
    layer_keys = [np.sort((ident.astype(np.uint64) * powers).sum(axis=1))]
    lengths = [np.zeros(1, dtype=np.int16)]

    depth = 0
    total = 1
    frontier = ident
    prev_keys = np.array([], dtype=np.uint64)
    while frontier.shape[0]:
        cand = np.concatenate([refl[j][frontier] for j in range(n)])
        keys = (cand.astype(np.uint64) * powers).sum(axis=1)
        uniq_keys, first = np.unique(keys, return_index=True)
        cand = cand[first]
        # candidates either fall back into layer depth-1 or are new
        pos = np.searchsorted(prev_keys, uniq_keys)
        pos[pos == prev_keys.size] = 0
        fresh = prev_keys.size == 0
        mask = ~np.equal(prev_keys[pos], uniq_keys) if not fresh else np.ones(
            uniq_keys.size, dtype=bool)
        new = cand[mask]
        if not new.shape[0]:
            break
        depth += 1
        total += new.shape[0]
        layers.append(new)
        lengths.append(np.full(new.shape[0], depth, dtype=np.int16))
        prev_keys = layer_keys[-1]
        layer_keys.append(uniq_keys[mask])
        frontier = new
    assert total == order, (total, order)

    out = GroupEnumeration(rs, np.concatenate(layers),
                           np.concatenate(lengths), powers)
    _ENUM_CACHE[rs.rstype] = out
    return out


# ---------------------------------------------------------------------------
# Poincare polynomial and root-of-unity behaviour


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_divexact(num, den):
    """Exact division of integer polynomials; asserts zero remainder."""
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
    assert not any(num), "division was not exact"
    return out


def _poly_mod(num, den):
    num = list(num)
    dd = len(den) - 1
    lead = den[-1]
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        assert c % lead == 0
        q = c // lead
        for k, y in enumerate(den):
            num[i - dd + k] -= q * y
    while num and num[-1] == 0:
        num.pop()
    return num


@lru_cache(maxsize=None)
def cyclotomic(m: int):
    """Coefficients of the m-th cyclotomic polynomial, ascending."""
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly = _poly_divexact(poly, cyclotomic(d))
    return tuple(poly)


def poincare(rs: RootSystem):
    """Coefficients of sum_w q^l(w), ascending; computed from the degrees."""
    return _poincare(rs.degrees)


@lru_cache(maxsize=None)
def _poincare(degrees):
    out = [1]
    for d in degrees:
        out = _poly_mul(out, [1] * d)
    return tuple(out)


INFINITE_ORDER = float("inf")


def poincare_vanishes(rs: RootSystem, m) -> bool:
    """Whether the Poincare polynomial vanishes at a primitive m-th root
    of unity.  m may be the distinguished value inf (never vanishes)."""
    if m is None or m == INFINITE_ORDER:
        return False
    if not isinstance(m, int) or m < 2:
        raise ValueError(f"order must be an integer >= 2 or inf, got {m!r}")
    return _vanishes(rs.degrees, m)


@lru_cache(maxsize=None)
def _vanishes(degrees, m):
    return not _poly_mod(list(_poincare(degrees)), list(cyclotomic(m)))


def vanishes_by_degrees(rs: RootSystem, m) -> bool:
    """Degree-divisibility shortcut: vanishes iff m divides some degree."""
    if m is None or m == INFINITE_ORDER:
        return False
    return any(d % m == 0 for d in rs.degrees)


def valid_orders(rs: RootSystem):
    """Finite orders of q at which the Poincare polynomial does not vanish,
    up to the largest exponent of the group."""
    top = rs.max_exponent()
    return {m for m in range(2, top + 1) if not poincare_vanishes(rs, m)}


IRR_EXCEPTIONAL = {"G": 6, "F": 25, "E": {6: 25, 7: 60, 8: 112}}


def irr_count(rs: RootSystem) -> int:
    """Number of irreducible characters of the Weyl group."""
    fam, n = rs.rstype.family, rs.rank
    if fam == "A":
        return p(n + 1)
    if fam in ("B", "C"):
        return ordered_pairs(n)
    if fam == "D":
        return typeD_count(n)
    if fam == "E":
        return IRR_EXCEPTIONAL["E"][n]
    return IRR_EXCEPTIONAL[fam]


# ---------------------------------------------------------------------------
# conjugacy classes


def _coord_codec(rs: RootSystem):
    """Encode root coordinate vectors as int64 for table lookup."""
    offset = max(abs(c) for r in rs.all_roots for c in r) + 1
    base = 2 * offset
    assert base ** rs.rank < 2 ** 62
    pows = np.array([base ** i for i in range(rs.rank)], dtype=np.int64)
    coords = np.array(rs.all_roots, dtype=np.int16)
    codes = ((coords.astype(np.int64) + offset) * pows).sum(axis=1)
    order = np.argsort(codes)
    return coords, codes[order], order.astype(np.int32), pows, offset


def conjugacy_class_count(rs: RootSystem, budget: int = DEFAULT_BUDGET):
    """Number and sizes of conjugacy classes, by orbit sweep under
    generator conjugation.  Returns (count, sorted sizes)."""
    group = enumerate_group(rs, budget)
    perms = group.perms
    M = perms.shape[0]
    n = rs.rank
    refl = _reflection_tables(rs)
    coords, sorted_codes, code_order, pows, offset = _coord_codec(rs)
    cartan = np.array(rs.cartan, dtype=np.int16)

    def conj_all(batch):
        """s_j x s_j for each j; returns list of row-index arrays."""
        out = []
        XC = coords[batch]  # (B, n, rank) images of simples as coords
        for j in range(n):
            # z = x s_j: z(a_i) = x(a_i) - C[i][j] x(a_j)
            ZC = XC - cartan[:, j].reshape(1, n, 1) * XC[:, j:j + 1, :]
            codes = ((ZC.astype(np.int64) + offset) *
                     pows.reshape(1, 1, -1)).sum(axis=2)
            pos = np.searchsorted(sorted_codes, codes)
            Z = code_order[pos]
            Y = refl[j][Z]
            out.append(group.lookup(Y))
        return out

    visited = np.zeros(M, dtype=bool)
    sizes = []
    chunk = 200_000
    for start in range(M):
        if visited[start]:
            continue
        visited[start] = True
        frontier = np.array([start], dtype=np.int64)
        size = 1
        while frontier.size:
            pieces = []
            for lo in range(0, frontier.size, chunk):
                pieces.extend(conj_all(perms[frontier[lo:lo + chunk]]))
            nxt = np.unique(np.concatenate(pieces))
            nxt = nxt[~visited[nxt]]
            visited[nxt] = True
            size += nxt.size
            frontier = nxt
        sizes.append(size)
    assert sum(sizes) == M
    return len(sizes), sorted(sizes)
