"""Weyl groups: enumeration, Poincare polynomials, character counts.

The valid orders of q are read from the degrees alone: for m >= 2 the
Poincare polynomial P_W(q) = prod_i (q^d_i - 1)/(q - 1) vanishes at a
primitive m-th root of unity zeta iff m divides some degree d_i.  Since
zeta != 1, the factor (zeta^d - 1)/(zeta - 1) is zero iff zeta^d = 1, iff
m divides d, and a product is zero iff a factor is.  Long division by the
cyclotomic polynomial lives on only as the test oracle for this rule.

The whole group is enumerated as integer arrays: row i holds the root
indices (w(alpha_1), ..., w(alpha_n)) of element i; this scales to a few
million elements.  Rows are multiplied through one table per type, the
reflection table refl[b, r] = root index of s_b(r): since x s_j x^-1 =
s_{x(alpha_j)}, a row times a simple reflection is one gather in it,
(x s_j)(alpha_i) = refl[x(alpha_j), x(alpha_i)], over the i with
C_ij != 0 (s_j fixes every other alpha_i).  A single element, for
code that composes, inverts and factors elements one at a time (the
extended affine group in hecke), is a WeylElement: the permutation of all
root indices that a row's simple-root images determine, so that composing
is a gather and inverting is inverting a permutation.

The enumeration walks the descent tree (Casselman, "Machine calculations
in Weyl groups", Invent. Math. 116, 1994): every w != 1 has a least right
descent j, and its parent is w s_j, one shorter.  So the children of x are
the x s_j with x(alpha_j) > 0 whose least right descent is j, that is,
with (x s_j)(alpha_i) > 0 for every i < j.  Every element is produced
exactly once, at depth equal to its Coxeter length, with no dedupe, and
each row records its parent p and that descent k: z = p s_k.  Rows are
grouped by length and, within a length, follow the tree: by descent k,
then by parent row.  No row is ever looked up.

Each length is one pass: the ascents (j, x) of its rows, x(alpha_j) > 0,
are the nonzero entries of the transposed ascent mask, which lists them
in tree order, by j and then by row; their rows are copied once, each
generator's contiguous run is multiplied by its s_j (the one numpy step
taken per generator), and a product x s_j is kept iff the first simple
root it sends negative is alpha_j, one test for the whole length.

The class count multiplies rows by the tree, with no search for a row.
The right table R[j, z] = z s_j is filled one length l at a time:

* the tree edges give R_k[z] = p and R_k[p] = z;
* any other right descent i of z (z(alpha_i) < 0) makes z the longest
  element of its coset z W_{ik} for the dihedral W_{ik} of order 2 m_ik
  (Bjorner-Brenti, "Combinatorics of Coxeter Groups", 2.3 and 3.4):
  z = u w_0 with u minimal and l(z) = l(u) + m_ik.  So z s_i = p s_k s_i
  = p (s_i s_k)^(m_ik - 1): from p = u (w_0 s_k), the first m_ik - 1
  steps s_i, s_k, s_i, ... go down to u, and the next m_ik - 1 go up to
  u (w_0 s_i), one shorter than z.  Every step is an entry of a row of
  length below l whose neighbour is also below l; a downward entry was
  set when its row was filled, an upward one when its neighbour was.  So
  each length reads only lengths already done, and sets R_i[z] and
  R_i[z s_i] from the end of the walk.

Where s_j is not a right descent of z, R_j[z] is the upward entry of the
longer row z s_j, set when that row was filled; so every entry is set,
with a fixed number of numpy calls per length.  The left tables follow
down the tree, s_j z = (s_j p) s_k, so L_j[z] = R_k[L_j[p]] with
L_j[e] = R_j[e], and conjugation by s_j is L_j[R_j].  The tables are
built for one class count and not kept.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .partitions import p, ordered_pairs, typeD_count
from .rootsystem import RootSystem, build, component_labels

__all__ = [
    "WeylBudgetError", "WeylElement", "GroupEnumeration", "enumerate_group",
    "poincare", "poincare_vanishes", "valid_orders", "irr_count",
    "conjugacy_class_count",
]

ENUM_BUDGET = 10_000_000


class WeylBudgetError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# exact single elements


class WeylElement:
    """A Weyl group element w, stored as a permutation of root indices:
    perm[r] is the index in rs.all_roots of w(root r).

    (u * v) means "apply v first": (u * v)(x) = u(v(x)), so the product
    is one gather, u.perm[v.perm[r]].  The constructor takes the images
    of the simple roots as coordinate tuples, which .images gives back.
    """

    __slots__ = ("rs", "perm", "_hash")

    def __init__(self, rs: RootSystem, images):
        # w(root r) = sum_i r_i w(alpha_i): row r of (roots @ images)
        coords = rs.roots @ np.array(images, dtype=np.int64)
        self.rs = rs
        self.perm = tuple(map(rs.index.__getitem__, map(tuple, coords.tolist())))
        self._hash = None

    @classmethod
    def _of(cls, rs: RootSystem, perm) -> "WeylElement":
        out = cls.__new__(cls)
        out.rs, out.perm, out._hash = rs, perm, None
        return out

    @classmethod
    def identity(cls, rs: RootSystem) -> "WeylElement":
        return cls._of(rs, tuple(range(len(rs.all_roots))))

    @classmethod
    def reflection(cls, rs: RootSystem, root) -> "WeylElement":
        """s_root, a row of the reflection table."""
        refl = _reflection_table(rs.rstype)
        return cls._of(rs, tuple(refl[rs.index[tuple(root)]].tolist()))

    @classmethod
    def simple(cls, rs: RootSystem, j: int) -> "WeylElement":
        return cls.reflection(rs, rs.simples[j])

    @classmethod
    def from_word(cls, rs: RootSystem, word) -> "WeylElement":
        out = cls.identity(rs)
        for j in word:
            out = out * cls.simple(rs, j)
        return out

    @property
    def images(self):
        """The coordinate tuples of w(alpha_1), ..., w(alpha_n)."""
        return tuple(self.apply_root(a) for a in self.rs.simples)

    def apply_root(self, root):
        rs = self.rs
        return rs.all_roots[self.perm[rs.index[tuple(root)]]]

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        return WeylElement._of(self.rs, tuple(map(self.perm.__getitem__,
                                                  other.perm)))

    def inverse(self) -> "WeylElement":
        inv = [0] * len(self.perm)
        for r, s in enumerate(self.perm):
            inv[s] = r
        return WeylElement._of(self.rs, tuple(inv))

    def apply_weight(self, x):
        """Action on a vector in fundamental-weight coordinates.

        <w(x), alpha_j^vee> = <x, w^{-1}(alpha_j)^vee>: a dot product with
        a row of the coroot table (integers in, integers out)."""
        rs = self.rs
        inv = self.inverse().perm
        return tuple(sum(a * c for a, c in zip(x, rs.coroots[inv[s]]))
                     for s in rs.simple_ids)

    def is_identity(self) -> bool:
        return self.perm == tuple(range(len(self.perm)))

    def length(self) -> int:
        """The number of positive roots sent to negative ones."""
        npos = self.rs.npos
        return sum(1 for s in self.perm[:npos] if s >= npos)

    def word(self):
        """A reduced word (list of simple-reflection indices): peel off the
        least right descent, once per unit of length."""
        rs = self.rs
        w = self
        tail = []
        for _ in range(self.length()):
            j = next(j for j, a in enumerate(rs.simple_ids)
                     if w.perm[a] >= rs.npos)
            tail.append(j)
            w = w * WeylElement.simple(rs, j)
        return tail[::-1]

    def order(self) -> int:
        w = self
        k = 1
        while not w.is_identity():
            w = w * self
            k += 1
            assert k <= 100
        return k

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self.perm == other.perm

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.perm)
        return self._hash

    def __repr__(self):
        return f"WeylElement({self.rs.rstype}, word={self.word()})"


# ---------------------------------------------------------------------------
# numpy engine


@lru_cache(maxsize=None)
def _height_steps(rstype):
    """One (b, a, b') triple of root-index arrays per height above one, in
    height order: every positive root b has a simple root a = alpha_t with
    <b, alpha_t^vee> > 0 (the least such t is taken), so b' = s_t(b) is
    lower."""
    rs = build(rstype)
    npos = rs.npos
    b = np.arange(npos)
    pair = rs.pairings[:npos]
    t = np.argmax(pair > 0, axis=1)
    lower = rs.roots[:npos].copy()
    lower[b, t] -= pair[b, t]
    a = np.array(rs.simple_ids)[t]
    b2 = rs.ids(lower)
    height = rs.roots[:npos].sum(axis=1)
    bounds = np.searchsorted(height, np.arange(2, height[-1] + 2)).tolist()
    return [(b[lo:hi], a[lo:hi], b2[lo:hi])
            for lo, hi in zip(bounds, bounds[1:])]


@lru_cache(maxsize=None)
def _reflection_table(rstype):
    """refl[b, r] = root index of s_b(r), for every pair of roots (int16).

    The simple rows are s_j(r) = r - <r, alpha_j^vee> alpha_j, read off the
    pairing table and looked up by one call of rs.ids.  The others are built
    up the heights, one gather per height: for b, a = alpha_t and
    b' = s_t(b) from _height_steps, s_b = s_t s_b' s_t; and s_-b = s_b."""
    rs = build(rstype)
    npos, rank = rs.npos, rs.rank
    refl = np.full((2 * npos, 2 * npos), -1, dtype=np.int16)
    images = (rs.roots[None] - rs.pairings.T[:, :, None]
              * np.eye(rank, dtype=np.int64)[:, None, :])
    refl[list(rs.simple_ids)] = rs.ids(images)
    for b, a, b2 in _height_steps(rstype):
        st = refl[a]
        rows = np.arange(b.size)[:, None]
        refl[b] = st[rows, refl[b2][rows, st]]
    pos = np.arange(npos)
    bad = ((refl[pos, pos] != pos + npos)
           | (refl[pos[:, None], refl[:npos]] != np.arange(2 * npos)).any(axis=1))
    if bad.any():
        root = rs.positive_roots[int(np.argmax(bad))]
        raise AssertionError(f"s_{root} is not a reflection of {rstype}")
    refl[npos:] = refl[:npos]
    return refl


def _whole_perms(rs: RootSystem, rows):
    """The WeylElement permutations of a (B, rank) batch of rows: the
    simple columns are the rows, each higher positive root is filled by one
    reflection-table gather per height, w(b) = w(s_t(b')) =
    s_{w(alpha_t)}(w(b')) for _height_steps' triples, and w(-b) = -w(b)."""
    npos = rs.npos
    perm = np.empty((rows.shape[0], 2 * npos), dtype=np.int16)
    perm[:, list(rs.simple_ids)] = rows
    refl = _reflection_table(rs.rstype)
    for b, a, b2 in _height_steps(rs.rstype):
        perm[:, b] = refl[perm[:, a], perm[:, b2]]
    negate = np.roll(np.arange(2 * npos, dtype=np.int16), npos)
    perm[:, npos:] = negate[perm[:, :npos]]
    return perm


def _right_mul(rs: RootSystem, x, j: int):
    """Rows of x s_j for a (B, rank) batch of rows x.

    (x s_j)(a_i) = s_{x(a_j)}(x(a_i)): one gather in the reflection table,
    over the columns i with C_ij != 0, j among them; s_j fixes the rest."""
    cols = [i for i in range(rs.rank) if rs.cartan[i][j]]
    z = x.copy()
    z[:, cols] = _reflection_table(rs.rstype)[x[:, j:j + 1], x[:, cols]]
    return z


class GroupEnumeration:
    """The full Weyl group as parallel numpy arrays.

    perms[i] holds the root indices of the images of the simple roots
    under element i; lengths[i] is its Coxeter length.  Rows are grouped
    by length, in descent-tree order, which is deterministic.  Every row
    but the identity (row 0) is x s_k for its descent-tree parent
    x = parent[i], one shorter, and its least right descent k =
    descent[i]; row 0 has parent and descent -1.
    """

    def __init__(self, rs: RootSystem, perms, lengths, parent, descent):
        self.rs = rs
        self.perms = perms
        self.lengths = lengths
        self.parent = parent
        self.descent = descent

    def __len__(self):
        return self.perms.shape[0]

    def length_histogram(self):
        hist = np.bincount(self.lengths)
        return {int(l): int(c) for l, c in enumerate(hist) if c}

    def layers(self):
        """(lo, hi) row ranges of the lengths 0, 1, ..., in order."""
        bounds = np.cumsum(np.bincount(self.lengths)).tolist()
        return list(zip([0] + bounds[:-1], bounds))

    def element(self, i: int) -> WeylElement:
        perm = _whole_perms(self.rs, self.perms[i:i + 1])[0]
        return WeylElement._of(self.rs, tuple(perm.tolist()))

    def __iter__(self):
        """The elements in row order, filled a batch of rows at a time."""
        for lo in range(0, len(self), 4096):
            batch = _whole_perms(self.rs, self.perms[lo:lo + 4096])
            for perm in batch.tolist():
                yield WeylElement._of(self.rs, tuple(perm))


_ENUM_CACHE: dict = {}


def enumerate_group(rs: RootSystem) -> GroupEnumeration:
    """Enumerate the whole Weyl group down the descent tree, one pass per
    length (see the module docstring): every ascent x s_j of the length's
    rows is formed, generator by generator on one copy of the rows, and the
    ones whose least right descent is j are the next length, with parent x
    and descent j.

    Refuses groups larger than ENUM_BUDGET before doing any work, since
    the order is known in advance from the degrees.
    """
    order = rs.weyl_order()
    if order > ENUM_BUDGET:
        raise WeylBudgetError(
            f"Weyl group of {rs.rstype} has order {order}, "
            f"over the budget of {ENUM_BUDGET}")
    cached = _ENUM_CACHE.get(rs.rstype)
    if cached is not None:
        return cached

    npos = rs.npos                    # root indices below npos are positive
    frontier = np.array([rs.simple_ids], dtype=np.int16)
    layers, parents, descents = [frontier], [np.array([-1])], [np.array([-1])]
    start = 0                         # the row of frontier[0]
    while frontier.shape[0]:
        # every ascent (j, x) of the length, by generator and then by row
        j, x = np.nonzero((frontier < npos).T)
        y = frontier[x]
        bounds = np.searchsorted(j, np.arange(rs.rank + 1)).tolist()
        for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            y[lo:hi] = _right_mul(rs, y[lo:hi], k)
        # x s_j is a child of x iff j is its least right descent
        least = np.argmax(y >= npos, axis=1) == j
        parents.append(start + x[least])
        descents.append(j[least])
        start += frontier.shape[0]
        frontier = y[least]
        if start + frontier.shape[0] > order:     # a wrong x s_j never ends
            raise AssertionError(f"{rs.rstype}'s descent tree outgrew its order")
        layers.append(frontier)
    perms = np.concatenate(layers)
    parent = np.concatenate(parents).astype(np.int32)
    descent = np.concatenate(descents).astype(np.int8)
    lengths = np.repeat(np.arange(len(layers), dtype=np.int16),
                        [len(layer) for layer in layers])
    total = perms.shape[0]
    assert total == order, (total, order)

    out = GroupEnumeration(rs, perms, lengths, parent, descent)
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


def poincare(rs: RootSystem):
    """Coefficients of sum_w q^l(w), ascending; computed from the degrees."""
    return _poincare(rs.degrees)


@lru_cache(maxsize=None)
def _poincare(degrees):
    out = [1]
    for d in degrees:
        out = _poly_mul(out, [1] * d)
    return tuple(out)


def poincare_vanishes(rs: RootSystem, m) -> bool:
    """Whether the Poincare polynomial vanishes at a primitive m-th root
    of unity: exactly when m divides some degree (Humphreys, "Reflection
    Groups and Coxeter Groups", 3.15).  m = None is the infinite order
    (never vanishes).

    Proof: P_W(q) = prod_i (q^d_i - 1)/(q - 1), and for m >= 2 a primitive
    m-th root zeta is not 1, so the factor (zeta^d - 1)/(zeta - 1) is zero
    iff zeta^d = 1, iff m divides d; a product vanishes iff a factor does.
    Long division of P_W by the cyclotomic polynomial, in
    tests/test_weyl.py, is the oracle the tests hold this rule to."""
    if m is None:
        return False
    if not isinstance(m, int) or m < 2:
        raise ValueError(f"order must be an integer >= 2, or None for the "
                         f"infinite order, got {m!r}")
    return any(d % m == 0 for d in rs.degrees)


def valid_orders(rs):
    """Finite orders of q at which the Poincare polynomial does not vanish,
    up to the largest exponent of the group.  Reads only the degrees, so a
    RootSystemType will do as well as a RootSystem."""
    top = max(rs.degrees) - 1
    return {m for m in range(2, top + 1) if not poincare_vanishes(rs, m)}


IRR_EXCEPTIONAL = {"E6": 25, "E7": 60, "E8": 112, "F4": 25, "G2": 6}


def irr_count(rs: RootSystem) -> int:
    """Number of irreducible characters of the Weyl group."""
    fam, n = rs.rstype.family, rs.rank
    if fam == "A":
        return p(n + 1)
    if fam in ("B", "C"):
        return ordered_pairs(n)
    if fam == "D":
        return typeD_count(n)
    return IRR_EXCEPTIONAL[str(rs.rstype)]


# ---------------------------------------------------------------------------
# multiplication tables and conjugacy classes


def _coxeter_matrix(rs: RootSystem):
    """m_ij, the order of s_i s_j, from C_ij C_ji = 0, 1, 2, 3."""
    c = rs.cartan
    return np.array([[1 if i == j else (2, 3, 4, 6)[c[i][j] * c[j][i]]
                      for j in range(rs.rank)] for i in range(rs.rank)])


def right_multiplication_table(group: GroupEnumeration):
    """right[j, i] = row of x_i s_j, for every generator and row, from
    gathers alone (see the module docstring)."""
    rs = group.rs
    n = len(group)
    npos = rs.npos
    cox = _coxeter_matrix(rs)
    orders = sorted(set(cox.ravel().tolist()) - {1})
    right = np.full((rs.rank, n), -1, dtype=np.int32)
    flat = right.ravel()
    at_k = group.descent.astype(np.int64) * n    # flat[at_k[z] + x] = right[k_z, x]
    z = np.arange(1, n, dtype=np.int32)
    flat[at_k[1:] + z] = group.parent[1:]        # the tree edges, both ways
    flat[at_k[1:] + group.parent[1:]] = z
    for lo, hi in group.layers()[2:]:
        # m[z, i] = m_ik for each right descent i of row z but its tree
        # descent k (m_kk = 1, and those entries are set), 0 off descents
        m = np.where(group.perms[lo:hi] >= npos, cox[group.descent[lo:hi]], 0)
        for mik in orders:
            zm, i = np.nonzero(m == mik)
            if not zm.size:
                continue
            # z s_i = p (s_i s_k)^(m_ik - 1), every step on shorter rows
            zm += lo
            at_i = i * n
            x, at = group.parent[zm], at_k[zm]
            for _ in range(mik - 1):
                x = flat[at + flat[at_i + x]]
            flat[at_i + zm] = x
            flat[at_i + x] = zm
    assert (right >= 0).all()
    return right


def conjugation_table(group: GroupEnumeration, right, j: int):
    """conj[i] = row of s_j * x_i * s_j, for every element x_i at once;
    right is right_multiplication_table(group).

    The left table of s_j is filled down the descent tree one length at a
    time, s_j (p s_k) = (s_j p) s_k, and composed with right[j]."""
    n = len(group)
    at_k = group.descent.astype(np.int64) * n
    flat = right.ravel()
    left = np.empty(n, dtype=np.int32)
    left[0] = right[j, 0]
    for lo, hi in group.layers()[1:]:
        left[lo:hi] = flat[at_k[lo:hi] + left[group.parent[lo:hi]]]
    return left[right[j]]


def conjugacy_class_count(rs: RootSystem):
    """Number and sizes of conjugacy classes: the connected components of
    the graph joining x to s_j x s_j for every simple reflection s_j.
    Returns (count, sorted sizes).

    Each conjugation table is folded into the class labels as it is built
    (each label is the least row of its class so far): its row pairs are
    taken through the current labels, pairs already in one class are
    dropped, and each table being an involution, one orientation of each
    pair is enough.  The multiplication tables live only for the count."""
    group = enumerate_group(rs)
    right = right_multiplication_table(group)
    n = len(group)
    label = np.arange(n, dtype=np.int32)
    for j in range(rs.rank):
        a, b = label, label[conjugation_table(group, right, j)]
        keep = a < b
        label = component_labels(n, a[keep], b[keep])[label]
    sizes = np.unique(label, return_counts=True)[1]
    return len(sizes), sorted(int(k) for k in sizes)
