"""Weyl groups: enumeration, Poincare polynomials, character counts.

The whole group is enumerated as integer arrays: row i holds the root
indices (w(alpha_1), ..., w(alpha_n)) of element i; this scales to a few
million elements.  Sweeps over the group work on row indices alone:
conjugation by a simple reflection is one table of rows built by integer
gathers, and the conjugacy classes are the connected components of those
tables.  WeylElement is the exact object behind one row, for code that
composes, inverts and factors single elements (the extended affine group
in hecke).

The enumeration walks the descent tree (Casselman, "Machine calculations
in Weyl groups", Invent. Math. 116, 1994): every w != 1 has a least right
descent j, and its parent is w s_j, one shorter.  So the children of x are
the x s_j with x(alpha_j) > 0 whose least right descent is j, that is,
with (x s_j)(alpha_i) > 0 for every i < j.  Every element is produced
exactly once, at depth equal to its Coxeter length, with no dedupe.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from .partitions import p, ordered_pairs, typeD_count
from .rootsystem import (
    RootSystem, _invert_fraction_matrix, build, component_labels)

__all__ = [
    "WeylBudgetError", "WeylElement", "GroupEnumeration", "enumerate_group",
    "poincare", "poincare_vanishes", "valid_orders", "irr_count",
    "conjugacy_class_count", "cyclotomic",
]

DEFAULT_BUDGET = 10_000_000


class WeylBudgetError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# exact single elements


class WeylElement:
    """A Weyl group element, stored as the images of the simple roots.

    Composition is exact integer arithmetic.  (u * v) means "apply v
    first": (u * v)(x) = u(v(x)).
    """

    __slots__ = ("rs", "images", "_inv_images", "_hash")

    def __init__(self, rs: RootSystem, images):
        self.rs = rs
        self.images = tuple(tuple(r) for r in images)
        self._inv_images = None
        self._hash = None

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
        if self._hash is None:
            self._hash = hash(self.images)
        return self._hash

    def __repr__(self):
        return f"WeylElement({self.rs.rstype}, word={self.word()})"


# ---------------------------------------------------------------------------
# numpy engine


def _key_powers(rs: RootSystem):
    nroots = len(rs.all_roots)
    base = 1 << max(1, (nroots - 1).bit_length())
    if base ** rs.rank > 2 ** 64:
        raise WeylBudgetError(
            f"cannot key rank-{rs.rank} elements over {nroots} roots in 64 bits")
    return np.array([base ** i for i in range(rs.rank)], dtype=np.uint64)


def _keys(perms, powers):
    """One uint64 key per image tuple, summed column by column so the
    temporaries stay one column wide."""
    keys = np.zeros(perms.shape[0], dtype=np.uint64)
    for i, pw in enumerate(powers):
        keys += perms[:, i].astype(np.uint64) * pw
    return keys


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
        self._index = None      # sorted keys and their rows, for lookup

    def __len__(self):
        return self.perms.shape[0]

    def length_histogram(self):
        hist = np.bincount(self.lengths)
        return {int(l): int(c) for l, c in enumerate(hist) if c}

    def lookup(self, perm_batch):
        """Row indices of a (B, rank) batch of image tuples."""
        if self._index is None:
            keys = _keys(self.perms, self._powers)
            rows = np.argsort(keys)
            self._index = keys[rows], rows
        sorted_keys, rows = self._index
        keys = _keys(perm_batch, self._powers)
        pos = np.searchsorted(sorted_keys, keys)
        assert np.array_equal(sorted_keys[pos], keys)
        return rows[pos]

    def element(self, i: int) -> WeylElement:
        images = [self.rs.all_roots[r] for r in self.perms[i]]
        return WeylElement(self.rs, images)

    def __iter__(self):
        for i in range(len(self)):
            yield self.element(i)


_ENUM_CACHE: dict = {}


def enumerate_group(rs: RootSystem, budget: int = DEFAULT_BUDGET) -> GroupEnumeration:
    """Enumerate the whole Weyl group down the descent tree, one length at
    a time (see the module docstring).

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

    powers = _key_powers(rs)
    npos = len(rs.positive_roots)     # root indices below npos are positive
    frontier = np.array([[rs.index[a] for a in rs.simples]], dtype=np.int16)
    layers = [frontier]
    while frontier.shape[0]:
        children = []
        for j in range(rs.rank):
            y = _right_mul(rs, frontier[frontier[:, j] < npos], j)
            children.append(y[(y[:, :j] < npos).all(axis=1)])
        # each length sorted by key: in tree order, the binary searches of
        # lookup over whole conjugation tables are three times slower
        frontier = np.concatenate(children)
        frontier = frontier[np.argsort(_keys(frontier, powers))]
        layers.append(frontier)
    perms = np.concatenate(layers)
    lengths = np.repeat(np.arange(len(layers), dtype=np.int16),
                        [len(layer) for layer in layers])
    total = perms.shape[0]
    assert total == order, (total, order)

    out = GroupEnumeration(rs, perms, lengths, powers)
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
# gather tables and conjugacy classes


@lru_cache(maxsize=None)
def _gather_tables(rstype):
    """Per-type root-index tables for the gathers over group rows.

    comb[k][r, s] is the index of root r + k*s, or -1 when that is not a
    root, for each k = -C_ij over the nonzero off-diagonal Cartan entries;
    neg[r] is the index of -r; refl[j][r] the index of s_j(r); coroots[r]
    the coordinates of r^vee over the simple coroots."""
    rs = build(rstype)
    ks = {-c for i, row in enumerate(rs.cartan) for j, c in enumerate(row)
          if i != j and c}
    # vectors are looked up by an integer key over a box that holds every
    # r + k*s; the roots' keys are sorted once
    roots = np.array(rs.all_roots, dtype=np.int64)
    off = (1 + max(ks, default=0)) * int(roots.max())
    powers = (2 * off + 1) ** np.arange(rs.rank, dtype=np.int64)
    assert (2 * off + 1) ** rs.rank < 2 ** 62
    root_keys = (roots + off) @ powers
    by_key = np.argsort(root_keys)
    sorted_keys = root_keys[by_key]
    comb = {}
    for k in sorted(ks):
        keys = ((roots[:, None, :] + k * roots[None, :, :] + off) @ powers)
        pos = np.minimum(np.searchsorted(sorted_keys, keys), len(roots) - 1)
        comb[k] = np.where(sorted_keys[pos] == keys, by_key[pos],
                           -1).astype(np.int16)
    neg = np.array([rs.index[tuple(-x for x in a)] for a in rs.all_roots],
                   dtype=np.int16)
    refl = np.array([[rs.index[rs.reflect(a, j)] for a in rs.all_roots]
                     for j in range(rs.rank)], dtype=np.int16)
    coroots = np.array([rs.coroot_coords(a) for a in rs.all_roots],
                       dtype=np.int64)
    return comb, neg, refl, coroots


def _right_mul(rs: RootSystem, x, j: int):
    """Rows of x s_j for a (B, rank) batch of rows x.

    x s_j sends a_i to x(a_i) - C_ij x(a_j): one gather in a root
    combination table per Cartan entry (the negation table for i = j)."""
    comb, neg, _, _ = _gather_tables(rs.rstype)
    z = x.copy()
    for i in range(rs.rank):
        c = rs.cartan[i][j]
        if i == j:
            z[:, i] = neg[x[:, j]]
        elif c:
            z[:, i] = comb[-c][x[:, i], x[:, j]]
    if (z < 0).any():
        raise AssertionError(f"x s_{j} left the roots of {rs.rstype}")
    return z


_ROW_CHUNK = 1 << 18


def conjugation_table(group: GroupEnumeration, j: int):
    """conj[i] = row of s_j * x_i * s_j, for every element x_i at once.

    x s_j comes from _right_mul; applying s_j on the left is one gather in
    the reflection table, and the resulting image tuples are looked up as
    group rows."""
    refl = _gather_tables(group.rs.rstype)[2]
    out = np.empty(len(group), dtype=np.int32)
    for lo in range(0, len(group), _ROW_CHUNK):
        z = _right_mul(group.rs, group.perms[lo:lo + _ROW_CHUNK], j)
        out[lo:lo + _ROW_CHUNK] = group.lookup(refl[j][z])
    return out


def conjugacy_class_count(rs: RootSystem, budget: int = DEFAULT_BUDGET):
    """Number and sizes of conjugacy classes: the connected components of
    the graph joining x to s_j x s_j for every simple reflection s_j.
    Returns (count, sorted sizes).

    Each conjugation table is folded into the class labels as it is built
    (each label is the least row of its class so far): its row pairs are
    taken through the current labels, pairs already in one class are
    dropped, and each table being an involution, one orientation of each
    pair is enough."""
    group = enumerate_group(rs, budget)
    n = len(group)
    label = np.arange(n, dtype=np.int32)
    for j in range(rs.rank):
        a, b = label, label[conjugation_table(group, j)]
        keep = a < b
        label = component_labels(n, a[keep], b[keep])[label]
    sizes = np.unique(label, return_counts=True)[1]
    return len(sizes), sorted(int(k) for k in sizes)
