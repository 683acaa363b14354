"""Irreducible root systems in the simple-root integer basis.

Roots are integer coordinate tuples over the simple roots, enumerated by an
exact closure algorithm driven only by the Cartan matrix (root strings, height
by height).  A RootSystem holds its roots once as an int array, roots
(positive roots first, then their negatives), and one pairing table,
pairings = roots @ cartan: row k is <root k, alpha_j^vee> for every j.  That
table is the one source of these pairings for roots: the reflection
table (weyl) and the torus weights (nilorbits, hecke) read it, and the
positive-root closure carries the same numbers up each height.
pairing() computes the number for vectors that are not roots.  The
twice-norms and the coroots are whole-array steps on roots too.
ids(vecs) and sums are the one lookup from coordinates to root ids: a
root's id is its row in roots, the negative of root i is root i +- npos,
and -1 stands for no root; sums[i, j] is the id of root i + root j.  The module also carries the
standard numerology (degrees, exponents, center order), epsilon-coordinate
views for the classical families and F4, and Chevalley structure constants
with a documented sign convention.

The two exact integer eliminations live here too.  smith gives the center
order, the torus classes on each support pattern of an eigenspace
(nilorbits) and the rank of a torus-weight matrix (verify); _adjugate
(fraction-free Bareiss) gives the Cartan adjugate, from which the
fundamental weights and the torus coweight coordinates are read.

Numbering of simple roots is Bourbaki's throughout:

  A_n   1-2-...-n
  B_n   1-2-...-n  with alpha_n short
  C_n   1-2-...-n  with alpha_n long
  D_n   1-2-...-(n-2) forking to n-1 and n
  E_n   chain 1-3-4-5-6(-7(-8)) with 2 attached to 4
  F_4   1-2=>3-4   (1,2 long; 3,4 short)
  G_2   1<=2       (1 short; 2 long)
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import prod
from operator import add

import numpy as np

__all__ = [
    "RootSystemError",
    "RootSystemType",
    "RootSystem",
    "StructureConstants",
    "parse_type",
    "build",
    "smith",
    "component_labels",
    "components",
    "degrees_of",
    "structure_constants",
]

RANK_BOUNDS = {"A": (1, None), "B": (2, None), "C": (3, None),
               "D": (4, None), "E": (6, 8), "F": (4, 4), "G": (2, 2)}


class RootSystemError(ValueError):
    pass


@dataclass(frozen=True)
class RootSystemType:
    family: str
    rank: int

    def __post_init__(self):
        lo_hi = RANK_BOUNDS.get(self.family)
        if lo_hi is None:
            raise RootSystemError(f"unknown family {self.family!r}")
        lo, hi = lo_hi
        if self.rank < lo or (hi is not None and self.rank > hi):
            raise RootSystemError(f"{self.family}{self.rank} is not an irreducible type "
                                  f"(rank bounds for {self.family}: {lo}..{hi or 'inf'})")

    def __str__(self):
        return f"{self.family}{self.rank}"

    @property
    def degrees(self):
        return degrees_of(self)


def parse_type(text: str) -> RootSystemType:
    """Parse 'E8', 'B4', ... into a validated RootSystemType."""
    text = text.strip()
    if not text or text[0].upper() not in RANK_BOUNDS or not text[1:].isdigit():
        raise RootSystemError(f"cannot parse root system type {text!r}")
    return RootSystemType(text[0].upper(), int(text[1:]))


# --- Cartan data -----------------------------------------------------------
#
# cartan[i][j] = <alpha_i, alpha_j^vee> = 2(alpha_i,alpha_j)/(alpha_j,alpha_j).
# norm2[i] = (alpha_i, alpha_i) in a normalization where short roots have
# norm 2 in the simply-laced case and the global scale is irrelevant.

def _chain_edges(n):
    return [(i, i + 1) for i in range(n - 1)]


def _dynkin_data(rstype: RootSystemType):
    f, n = rstype.family, rstype.rank
    if f in ("A", "B", "C"):
        edges = _chain_edges(n)
    elif f == "D":
        edges = _chain_edges(n - 1) + [(n - 3, n - 1)]
    elif f == "E":
        # nodes 0..n-1 are alpha_1..alpha_n; chain 1-3-4-5-6.. plus 2 at 4
        edges = [(0, 2)] + [(i, i + 1) for i in range(2, n - 1)] + [(1, 3)]
    elif f == "F":
        edges = _chain_edges(4)
    else:
        edges = [(0, 1)]

    if f in ("A", "D", "E"):
        norm2 = [2] * n
    elif f == "B":
        norm2 = [2] * (n - 1) + [1]
    elif f == "C":
        norm2 = [2] * (n - 1) + [4]
    elif f == "F":
        norm2 = [2, 2, 1, 1]
    else:
        norm2 = [2, 6]
    return edges, norm2


def _cartan_matrix(rstype: RootSystemType):
    edges, norm2 = _dynkin_data(rstype)
    n = rstype.rank
    # bil2 is twice the bilinear form, which has integer entries:
    # (alpha_i, alpha_j) = -max(norm2_i, norm2_j)/2 on an edge: every bond of
    # a connected pair joins roots whose norms differ by the full ratio, and
    # the product of the two Cartan entries must be 1, 2 or 3.
    bil2 = [[0] * n for _ in range(n)]
    for i in range(n):
        bil2[i][i] = 2 * norm2[i]
    for i, j in edges:
        bil2[i][j] = bil2[j][i] = -max(norm2[i], norm2[j])
    cartan = [[_exact_div(2 * bil2[i][j], bil2[j][j]) for j in range(n)]
              for i in range(n)]
    return tuple(tuple(row) for row in cartan), norm2, bil2


DEGREES = {
    "A": lambda n: list(range(2, n + 2)),
    "B": lambda n: list(range(2, 2 * n + 1, 2)),
    "C": lambda n: list(range(2, 2 * n + 1, 2)),
    "D": lambda n: sorted(list(range(2, 2 * n - 1, 2)) + [n]),
    "E": {6: [2, 5, 6, 8, 9, 12], 7: [2, 6, 8, 10, 12, 14, 18],
          8: [2, 8, 12, 14, 18, 20, 24, 30]},
    "F": {4: [2, 6, 8, 12]},
    "G": {2: [2, 6]},
}


def degrees_of(rstype: RootSystemType):
    entry = DEGREES[rstype.family]
    if callable(entry):
        return tuple(entry(rstype.rank))
    return tuple(entry[rstype.rank])


def _twice_epsilon_view(rstype: RootSystemType):
    """Rows: simple roots as vectors in the standard epsilon coordinates,
    doubled so that every entry is an integer.

    Provided for B, C, D (n coordinates) and F4 (4 coordinates, half-integer
    entries on alpha_4).  None for other families.
    """
    f, n = rstype.family, rstype.rank
    if f in ("B", "C", "D"):
        rows = [[0] * n for _ in range(n)]
        for i in range(n - 1):
            rows[i][i], rows[i][i + 1] = 2, -2
        if f == "D":
            rows[-1][n - 2] = 2
        rows[-1][n - 1] = 4 if f == "C" else 2
        return tuple(map(tuple, rows))
    if f == "F":
        return ((0, 2, -2, 0), (0, 0, 2, -2), (0, 0, 0, 2), (1, -1, -1, -1))
    return None


def _adjugate(mat):
    """(adj, det) of a square integer matrix whose leading principal minors
    are nonzero, by fraction-free (Bareiss) Gauss-Jordan elimination on
    [mat | I] without row exchanges.  Every entry after step k is a minor
    of the augmented matrix, so each division is exact; the left block ends
    as det * I and the right block as the adjugate."""
    n = len(mat)
    aug = [list(row) + [int(i == j) for j in range(n)]
           for i, row in enumerate(mat)]
    prev = 1
    for k in range(n):
        piv = aug[k][k]
        assert piv, "a leading principal minor vanishes"
        for i in range(n):
            if i != k:
                f = aug[i][k]
                aug[i] = [_exact_div(piv * x - f * y, prev)
                          for x, y in zip(aug[i], aug[k])]
        prev = piv
    return [row[n:] for row in aug], prev


def smith(mat):
    """Diagonalise an integer matrix by unimodular row and column operations.

    Returns (U, U_inv, diag) with U*mat*V = diag(diag) up to signs, for some
    unimodular V, and U_inv the integer inverse of U.  len(diag) is the rank
    of mat; for a square nonsingular mat, prod(diag) is |det mat|.  The
    entries need not divide one another.  Each row operation on U is
    mirrored by the inverse column operation on U_inv."""
    m = [list(row) for row in mat]
    rows, cols = len(m), len(m[0]) if m else 0
    unit = [[int(i == j) for j in range(rows)] for i in range(rows)]
    inv = [row[:] for row in unit]
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
            for row in inv:
                row[t], row[pi] = row[pi], row[t]
        if pj != t:
            for row in m:
                row[t], row[pj] = row[pj], row[t]
        dirty = False
        for i in range(t + 1, rows):
            if m[i][t]:
                q = m[i][t] // m[t][t]
                m[i] = [a - q * b for a, b in zip(m[i], m[t])]
                unit[i] = [a - q * b for a, b in zip(unit[i], unit[t])]
                for row in inv:
                    row[t] += q * row[i]
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
    # t pivots were placed, one per unit of rank
    return unit, inv, [abs(m[k][k]) for k in range(t)]


def _exact_div(num, den):
    """num / den for integers that must divide exactly, as a Python int."""
    assert num % den == 0, (num, den)
    return int(num // den)


_EDGE_CHUNK = 1 << 20


def component_labels(n, src, dst):
    """Connected components of the graph on vertices 0..n-1 with edges
    src[k]--dst[k]: an int array giving each vertex its component's least
    vertex.

    Min-label hooking plus pointer jumping.  Each round first jumps every
    pointer to its tree's root, then walks the edges a chunk at a time:
    an edge whose ends already share a pointer is dropped for good, and
    every other edge hooks the larger pointer under the smaller one.
    Pointers only ever decrease and stay inside their component, so the
    rounds end, and a component's least vertex ends up as its one root."""
    label = np.arange(n, dtype=np.int64 if n > 2 ** 31 - 1 else np.int32)
    src = np.asarray(src, dtype=label.dtype).ravel()
    dst = np.asarray(dst, dtype=label.dtype).ravel()
    chunks = [(src[lo:lo + _EDGE_CHUNK], dst[lo:lo + _EDGE_CHUNK])
              for lo in range(0, src.size, _EDGE_CHUNK)]
    while True:
        while True:
            hop = label[label]
            if np.array_equal(hop, label):
                break
            label = hop
        if not chunks:
            return label
        kept = []
        for s, d in chunks:
            a, b = label[s], label[d]
            cross = a != b
            if cross.any():
                a, b = a[cross], b[cross]
                np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))
                kept.append((s[cross], d[cross]))
        chunks = kept


def components(n, edges):
    """Connected components of the graph on vertices 0..n-1, each an
    ascending list, ordered by their least vertex."""
    if n == 0:
        return []
    pairs = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
    label = component_labels(n, pairs[:, 0], pairs[:, 1])
    order = np.argsort(label, kind="stable")
    cuts = np.flatnonzero(np.diff(label[order])) + 1
    return [part.tolist() for part in np.split(order, cuts)]


class RootSystem:
    """Immutable container for one irreducible root system."""

    def __init__(self, rstype: RootSystemType):
        self.rstype = rstype
        self.rank = rstype.rank
        self.cartan, self._simple_norm2, self._bil2 = _cartan_matrix(rstype)
        self.simples = [tuple(int(i == j) for j in range(self.rank)) for i in range(self.rank)]
        self.degrees = degrees_of(rstype)
        self.positive_roots = self._enumerate_positive()
        self.npos = len(self.positive_roots)
        # ids of alpha_1, ..., alpha_n: height one is sorted lexicographically
        self.simple_ids = tuple(range(self.rank - 1, -1, -1))
        # every root as an int row, the positive ones first and then their
        # negatives in the same order, and the one pairing table:
        # pairings[k, j] = <roots[k], alpha_j^vee>
        positive = np.array(self.positive_roots, dtype=np.int64)
        self.roots = np.concatenate([positive, -positive])
        self.pairings = self.roots @ np.array(self.cartan, dtype=np.int64)
        self.all_roots = list(map(tuple, self.roots.tolist()))
        self.index = {r: i for i, r in enumerate(self.all_roots)}
        self._validate_counts()
        self.highest_root = self.positive_roots[-1]
        self.twice_epsilon_view = _twice_epsilon_view(rstype)
        # 2(r, r) for every root, an integer: one product with twice the form
        self.twice_norms = ((self.roots @ np.array(self._bil2, dtype=np.int64))
                            * self.roots).sum(axis=1)

    # -- construction -------------------------------------------------------

    def pairing(self, root, j) -> int:
        """<root, alpha_j^vee>, an integer, for any integer vector; the
        pairings table has it for every root."""
        return sum(c * self.cartan[i][j] for i, c in enumerate(root) if c)

    def reflect(self, root, j):
        """Image of a root under the simple reflection s_j."""
        k = self.pairing(root, j)
        if not k:
            return root
        out = list(root)
        out[j] -= k
        return tuple(out)

    def _enumerate_positive(self):
        """All positive roots, ordered by (height, lexicographic coords).

        Standard root-string closure, one height at a time: beta + alpha_j
        (beta of height h) is a root iff the string count p - <beta,
        alpha_j^vee> is positive, where p is the number of times alpha_j can
        be subtracted from beta.  Both numbers are carried up with the
        roots, not probed: gamma = beta + alpha_j has the pairings of beta
        plus row j of the Cartan matrix, and p(gamma, j) = p(beta, j) + 1,
        while p(gamma, k) = 0 for every k that gives gamma no source of
        height h this way (gamma - alpha_k, if a root, has height h).  At
        these sizes this loop is faster than a numpy pass per height (E8:
        0.26 against 0.67 ms).
        """
        cartan, rank = self.cartan, self.rank
        # root -> (p for each j, <root, alpha_j^vee> for each j)
        state = {s: ([0] * rank, list(cartan[i]))
                 for i, s in enumerate(self.simples)}
        layer = sorted(state)
        out = list(layer)
        while layer:
            nxt = {}
            for beta in layer:
                down, pair = state[beta]
                for j in range(rank):
                    if down[j] > pair[j]:
                        gamma = list(beta)
                        gamma[j] += 1
                        gamma = tuple(gamma)
                        grown = nxt.get(gamma)
                        if grown is None:
                            grown = nxt[gamma] = (
                                [0] * rank, list(map(add, pair, cartan[j])))
                        grown[0][j] = down[j] + 1
            state = nxt
            layer = sorted(nxt)
            out += layer
        return out

    def _validate_counts(self):
        expected = sum(d - 1 for d in self.degrees)
        if self.npos != expected:
            # a wrong enumeration, not an input refused
            raise AssertionError(
                f"{self.rstype}: enumerated {self.npos} positive roots, "
                f"degree table demands {expected}")

    # -- basic queries -------------------------------------------------------

    def is_root(self, coords) -> bool:
        return tuple(coords) in self.index

    @cached_property
    def _codes(self):
        """(weights, codes, order): a root's code is its coordinates as
        digits in the mixed radix t_i + 1, t the highest root, and order
        sorts the codes.  Codes add as roots do and are distinct (same-sign
        roots differ by under a radix per digit; positive minus negative
        has no negative digit).  Past 2^63 (A63 and up) they are refused."""
        radix = np.array(self.highest_root, dtype=np.int64) + 1
        if prod(radix.tolist()) >= 2 ** 63:
            raise RootSystemError(f"{self.rstype}: root codes overflow int64")
        weights = np.concatenate([[1], np.cumprod(radix[:-1])])
        codes = self.roots @ weights
        return weights, codes, np.argsort(codes)

    def ids(self, vecs):
        """Each integer row's id (any leading shape), -1 for a non-root: a
        code hit counts only if its coordinates equal the row."""
        vecs = np.asarray(vecs, dtype=np.int64)
        weights, codes, order = self._codes
        at = np.searchsorted(codes[order], vecs @ weights)
        at = order[at.clip(max=order.size - 1)]
        return np.where((self.roots[at] == vecs).all(axis=-1), at, -1)

    @cached_property
    def sums(self):
        """sums[i, j] = the id of root i + root j, -1 where that is not a
        root (int16): ids of the pairs whose code sum is a root's code."""
        codes = self._codes[1]
        i, j = np.nonzero(np.isin(codes[:, None] + codes, codes))
        out = np.full((codes.size, codes.size), -1, dtype=np.int16)
        out[i, j] = self.ids(self.roots[i] + self.roots[j])
        return out

    def height(self, root) -> int:
        return sum(root)

    def _twice_form(self, vec) -> int:
        """2(vec, vec), over twice the bilinear form, which has integer
        entries."""
        bil2 = self._bil2
        return sum(a * b * bil2[i][j] for i, a in enumerate(vec) if a
                   for j, b in enumerate(vec) if b)

    def twice_norm2(self, root) -> int:
        """2(root, root); looked up for roots, computed for other vectors."""
        k = self.index.get(tuple(root))
        return self._twice_form(root) if k is None else int(self.twice_norms[k])

    def norm2(self, root) -> Fraction:
        """(root, root) in the fixed normalization."""
        return Fraction(self.twice_norm2(root), 2)

    def length_class(self, root) -> str:
        """'long' or 'short'; every root is 'long' in a simply-laced system."""
        if self.rstype.family in ("A", "D", "E"):
            return "long"
        return ("long" if self.twice_norm2(root) == 2 * max(self._simple_norm2)
                else "short")

    def coroot_coords(self, root):
        """root^vee over the simple coroots: a_i (alpha_i, alpha_i) / (root, root)."""
        n2 = self.twice_norm2(root)
        return tuple(_exact_div(a * self._bil2[i][i], n2)
                     for i, a in enumerate(root))

    @cached_property
    def cartan_adjugate(self):
        """The integer adjugate of the Cartan matrix: cartan * adj is
        center_order() times the identity, checked exactly.  Every leading
        principal minor of a Cartan matrix of finite type is the
        determinant of a finite-type Cartan matrix, hence positive."""
        adj, det = _adjugate(self.cartan)
        n = self.rank
        assert det == self.center_order(), (det, self.rstype)
        assert all(sum(self.cartan[i][k] * adj[k][j] for k in range(n))
                   == det * (i == j) for i in range(n) for j in range(n))
        return tuple(map(tuple, adj))

    @cached_property
    def fundamental_weights(self):
        """Rows of the inverse Cartan matrix (Fractions), built on first use
        from the integer adjugate over the determinant."""
        det = self.center_order()
        return tuple(tuple(Fraction(x, det) for x in row)
                     for row in self.cartan_adjugate)

    @cached_property
    def coroots(self):
        """coroots[k] = coroot_coords(all_roots[k]): the one coroot table,
        built on first use, for all roots in one exact division."""
        num = self.roots * np.diag(np.array(self._bil2, dtype=np.int64))
        coroots, rem = np.divmod(num, self.twice_norms[:, None])
        assert not rem.any(), self.rstype
        return tuple(map(tuple, coroots.tolist()))

    def exponents(self):
        return tuple(d - 1 for d in self.degrees)

    def max_exponent(self) -> int:
        return max(self.exponents())

    def weyl_order(self) -> int:
        return prod(self.degrees)

    def center_order(self) -> int:
        """Order of the center of the simply connected group: det of Cartan."""
        return self._center_order

    @cached_property
    def _center_order(self) -> int:
        # one Smith elimination per root system
        return prod(smith(self.cartan)[2])

    def height_histogram(self):
        """Map height -> number of positive roots of that height."""
        hist = {}
        for r in self.positive_roots:
            h = self.height(r)
            hist[h] = hist.get(h, 0) + 1
        return hist

    def _twice_epsilon(self, roots):
        """Doubled epsilon coordinates of a stack of roots, as int64 rows."""
        if self.twice_epsilon_view is None:
            raise RootSystemError(f"no epsilon view for {self.rstype}")
        return (np.array(roots, dtype=np.int64)
                @ np.array(self.twice_epsilon_view, dtype=np.int64))

    def root_to_epsilon(self, root):
        """Root coordinates in the epsilon view (families B, C, D, F only),
        as Fractions."""
        return tuple(Fraction(x, 2) for x in self._twice_epsilon(root).tolist())

    @cached_property
    def _epsilon_index(self):
        """Twice the epsilon coordinates of each root -> root."""
        keys = self._twice_epsilon(self.all_roots).tolist()
        return dict(zip(map(tuple, keys), self.all_roots))

    def epsilon_to_root(self, eps):
        """Inverse of root_to_epsilon; raises if the vector is not a root.
        Takes ints, Fractions or any other exact numbers."""
        twice = tuple(2 * e for e in eps)
        key = tuple(map(int, twice))
        root = self._epsilon_index.get(key) if key == twice else None
        if root is None:
            raise RootSystemError(f"{eps} is not a root of {self.rstype}")
        return root

    def __repr__(self):
        return f"RootSystem({self.rstype})"


@lru_cache(maxsize=None)
def build(rstype: RootSystemType) -> RootSystem:
    return RootSystem(rstype)


# --- Chevalley structure constants -----------------------------------------

class StructureConstants:
    """Signed constants N(a,b) with [e_a, e_b] = N(a,b) e_{a+b}.

    Signs follow the extraspecial-pair convention: order positive roots by
    (height, lex); for each non-simple positive gamma the extraspecial pair is
    (xi, gamma - xi) with xi the least simple root such that gamma - xi is a
    positive root, and N is +(p+1) there (p the string-down count).  Every
    other constant is forced from these by antisymmetry and the two Jacobi
    consequences

        a+b+c = 0           =>  N(a,b)/(c,c) = N(b,c)/(a,a) = N(c,a)/(b,b)
        a,b>0, a+b=xi+eta    =>  N(a,b) N(a+b,-xi) =
                                 -N(-xi,a) N(a-xi,b) - N(b,-xi) N(b-xi,a)

    Only the constants on pairs of positive roots are stored (pos, built by
    the second identity); n_ids() derives the rest over root ids when asked,
    by N(-a,-b) = -N(a,b), antisymmetry and the first identity, in integers.
    The whole signed table, .table, is collected from it on first use.

    The 'twisted' convention rescales e_{+-a} by (-1)^(a_1 a_2), another valid
    Chevalley basis; downstream orbit counts must not depend on the choice.
    """

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self.convention = "extraspecial"
        self._pos = self._positive_table()      # over positive-root ids

    def twisted(self) -> "StructureConstants":
        """The same basis rescaled to the twisted convention: n() applies
        the sign chi(a) chi(b) chi(a+b)."""
        out = copy.copy(self)
        out.convention = "twisted"
        out.__dict__.pop("table", None)    # collected again from the twisted n()
        return out

    @staticmethod
    def _chi(root):
        if len(root) < 2:
            return 1
        return -1 if (root[0] * root[1]) % 2 else 1

    def n(self, a, b) -> int:
        """N(a,b) for roots a and b given as coordinate tuples."""
        return self.n_ids(self.rs.index[a], self.rs.index[b])

    def n_ids(self, a, b) -> int:
        """N(a,b) for root ids a and b; zero when a+b is not a root."""
        total = int(self.rs.sums[a, b])
        if total < 0:
            return 0
        val = self._untwisted(a, b, total)
        if self.convention == "twisted":
            roots, chi = self.rs.all_roots, self._chi
            val *= chi(roots[a]) * chi(roots[b]) * chi(roots[total])
        return val

    def _untwisted(self, a, b, total) -> int:
        npos, pos, twice = self.rs.npos, self._pos, self.rs.twice_norms
        if a < npos and b < npos:
            return pos[(a, b)]
        if a >= npos and b >= npos:
            return -pos[(a - npos, b - npos)]
        if a >= npos:
            return -self._untwisted(b, a, total)
        # a > 0 > b: with nb = -b, the roots a, -nb, -total sum to zero
        nb = b - npos
        if total < npos:
            # (nb, total) positive, summing to a
            return _exact_div(-pos[(nb, total)] * twice[total], twice[a])
        # (-total, a) positive, summing to nb
        nu = total - npos
        return _exact_div(pos[(nu, a)] * twice[nu], twice[nb])

    @cached_property
    def pos(self):
        """{(a, b): N(a,b)} over pairs of positive roots, as tuples."""
        roots = self.rs.all_roots
        return {(roots[a], roots[b]): v for (a, b), v in self._pos.items()}

    @cached_property
    def table(self):
        """{(a, b): N(a,b)} over every pair of roots with a+b a root."""
        roots, n = self.rs.all_roots, self.n_ids
        a, b = np.nonzero(self.rs.sums >= 0)
        return {(roots[i], roots[j]): n(i, j)
                for i, j in zip(a.tolist(), b.tolist())}

    def string_down(self, a, b) -> int:
        """Largest k with b - k a a root, for root ids a, b: a walk in sums."""
        sums, k = self.rs.sums, 0
        while (b := sums[b, (a + self.rs.npos) % len(sums)]) >= 0:
            k += 1
        return k

    def _positive_table(self):
        """pos over positive-root ids: the decompositions
        gamma = a + b come from the root-sum table, and each non-simple
        gamma's are walked in height order."""
        rs = self.rs
        roots, twice = rs.positive_roots, rs.twice_norms.tolist()
        minus, splits = _positive_decompositions(rs)
        n = {}

        def mixed_neg_simple(xi, a, mu):
            # N(-xi, a) for xi simple, a positive, mu = a - xi positive
            return _exact_div(n[(xi, mu)] * twice[mu], twice[a])

        assert len(splits) == len(roots) - rs.rank, \
            "a non-simple positive root with no decomposition"
        for gamma, pairs in splits:
            # the extraspecial pair: xi the least simple root with gamma - xi
            # a positive root (simple_ids lists alpha_1 first)
            xi = next((s for s in rs.simple_ids if minus[gamma][s] >= 0), None)
            if xi is None:
                raise AssertionError(
                    "positive non-simple root with no simple summand")
            eta = minus[gamma][xi]
            p = self.string_down(xi, eta)
            n[(xi, eta)] = p + 1
            n[(eta, xi)] = -(p + 1)
            n_gamma_negxi = _exact_div(-(p + 1) * twice[eta], twice[gamma])
            for a, b in pairs:
                if (a, b) in n:
                    continue
                acc = 0
                amx = minus[a][xi]
                if amx >= 0:
                    acc += mixed_neg_simple(xi, a, amx) * n[(amx, b)]
                elif a == xi:
                    raise AssertionError("extraspecial pair revisited")
                bmx = minus[b][xi]
                if bmx >= 0:
                    acc -= mixed_neg_simple(xi, b, bmx) * n[(bmx, a)]
                nval = _exact_div(-acc, n_gamma_negxi)
                expect = self.string_down(a, b) + 1
                assert abs(nval) == expect, (roots[gamma], roots[a],
                                             roots[b], nval, expect)
                n[(a, b)] = nval
                n[(b, a)] = -nval
        return n


def _positive_decompositions(rs: RootSystem):
    """Every decomposition gamma = a + b into positive roots, over ids in
    rs.positive_roots (ordered by height).

    Returns (minus, splits): minus[g][a] is the id of g - a = g + (-a),
    -1 where it is not a positive root; splits lists (gamma, [(a, b), ...])
    for each non-simple gamma in id order, with a ascending."""
    diff = rs.sums[:rs.npos, rs.npos:]
    minus = np.where(diff < rs.npos, diff, -1)
    g, a = np.nonzero(minus >= 0)        # ascending g, then ascending a
    b = minus[g, a]
    cuts = np.flatnonzero(np.diff(g)) + 1
    splits = [(int(gs[0]), list(zip(as_.tolist(), bs.tolist())))
              for gs, as_, bs in zip(np.split(g, cuts), np.split(a, cuts),
                                     np.split(b, cuts)) if len(gs)]
    return minus.tolist(), splits


@lru_cache(maxsize=None)
def structure_constants(rstype: RootSystemType,
                        convention: str | None = None) -> StructureConstants:
    """The type's structure constants, built once per process.

    The default (None) and "extraspecial" name one table, the same object;
    "twisted" is that table rescaled."""
    if convention is None:
        return StructureConstants(build(rstype))
    if convention == "extraspecial":
        return structure_constants(rstype)
    if convention == "twisted":
        return structure_constants(rstype).twisted()
    raise RootSystemError(f"unknown sign convention {convention!r}")
