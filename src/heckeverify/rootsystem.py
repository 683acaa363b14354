"""Irreducible root systems in the simple-root integer basis.

Roots are integer coordinate tuples over the simple roots, enumerated by an
exact closure algorithm driven only by the Cartan matrix (root strings, height
by height).  The module also carries the standard numerology (degrees,
exponents, center order), epsilon-coordinate views for the classical families
and F4, and Chevalley structure constants with a documented sign convention.

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
from functools import lru_cache

__all__ = [
    "RootSystemError",
    "RootSystemType",
    "RootSystem",
    "StructureConstants",
    "parse_type",
    "build",
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
    # (alpha_i, alpha_j) = -max(norm2_i, norm2_j)/2 on an edge: every bond of a
    # connected pair joins roots whose norms differ by the full ratio, and the
    # product of the two Cartan entries must be 1, 2 or 3.
    bil = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        bil[i][i] = Fraction(norm2[i])
    for i, j in edges:
        bil[i][j] = bil[j][i] = -Fraction(max(norm2[i], norm2[j]), 2)
    cartan = [[int(2 * bil[i][j] / bil[j][j]) for j in range(n)] for i in range(n)]
    return tuple(tuple(row) for row in cartan), norm2, bil


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


def _epsilon_view(rstype: RootSystemType):
    """Rows: simple roots as vectors in the standard epsilon coordinates.

    Provided for B, C, D (n coordinates) and F4 (4 coordinates, half-integer
    entries on alpha_4).  None for other families.
    """
    f, n = rstype.family, rstype.rank
    half = Fraction(1, 2)
    if f in ("B", "C", "D"):
        rows = []
        for i in range(n - 1):
            v = [Fraction(0)] * n
            v[i], v[i + 1] = Fraction(1), Fraction(-1)
            rows.append(tuple(v))
        last = [Fraction(0)] * n
        if f == "B":
            last[n - 1] = Fraction(1)
        elif f == "C":
            last[n - 1] = Fraction(2)
        else:
            last[n - 2] = last[n - 1] = Fraction(1)
        rows.append(tuple(last))
        return tuple(rows)
    if f == "F":
        return ((Fraction(0), Fraction(1), Fraction(-1), Fraction(0)),
                (Fraction(0), Fraction(0), Fraction(1), Fraction(-1)),
                (Fraction(0), Fraction(0), Fraction(0), Fraction(1)),
                (half, -half, -half, -half))
    return None


def _invert_fraction_matrix(mat):
    """Gauss-Jordan inverse of a square matrix of Fractions."""
    n = len(mat)
    aug = [[Fraction(mat[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _det_int(mat):
    """Exact determinant via Fraction elimination."""
    n = len(mat)
    m = [[Fraction(mat[i][j]) for j in range(n)] for i in range(n)]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = Fraction(1) / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                factor = m[r][col] * inv
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    assert det.denominator == 1
    return int(det)


def components(n, edges):
    """Connected components of the graph on vertices 0..n-1, each an
    ascending list, ordered by their least vertex."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in edges:
        parent[find(a)] = find(b)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


class RootSystem:
    """Immutable container for one irreducible root system."""

    def __init__(self, rstype: RootSystemType):
        self.rstype = rstype
        self.rank = rstype.rank
        self.cartan, self._simple_norm2, self._bil = _cartan_matrix(rstype)
        self._bil2 = [[int(2 * x) for x in row] for row in self._bil]
        self.simples = [tuple(int(i == j) for j in range(self.rank)) for i in range(self.rank)]
        self.positive_roots = self._enumerate_positive()
        self.all_roots = self.positive_roots + [self._neg(r) for r in self.positive_roots]
        self.index = {r: i for i, r in enumerate(self.all_roots)}
        self.degrees = degrees_of(rstype)
        self._validate_counts()
        self.highest_root = self.positive_roots[-1]
        self.fundamental_weights = tuple(
            tuple(row) for row in _invert_fraction_matrix(self.cartan))
        self.epsilon_view = _epsilon_view(rstype)
        self._root_norm2 = {r: self._form(r) for r in self.all_roots}
        self._epsilon_index = None

    # -- construction -------------------------------------------------------

    def _neg(self, root):
        return tuple(-c for c in root)

    def pairing(self, root, j) -> int:
        """<root, alpha_j^vee>, an integer."""
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

        Standard root-string closure: having all roots of height <= h, a sum
        beta + alpha_j (beta of height h) is a root iff the string
        count p - <beta, alpha_j^vee> is positive, where p is the number of
        times alpha_j can be subtracted from beta.
        """
        known = set(self.simples)
        layer = list(self.simples)
        out = [sorted(self.simples)]
        while layer:
            nxt = set()
            for beta in layer:
                for j in range(self.rank):
                    p = 0
                    probe = list(beta)
                    while True:
                        probe[j] -= 1
                        if tuple(probe) in known:
                            p += 1
                        else:
                            break
                    if p - self.pairing(beta, j) > 0:
                        cand = list(beta)
                        cand[j] += 1
                        nxt.add(tuple(cand))
            nxt -= known
            if nxt:
                known |= nxt
                out.append(sorted(nxt))
            layer = sorted(nxt)
        flat = [r for lev in out for r in lev]
        return flat

    def _validate_counts(self):
        expected = sum(d - 1 for d in self.degrees)
        if len(self.positive_roots) != expected:
            raise RootSystemError(
                f"{self.rstype}: enumerated {len(self.positive_roots)} positive roots, "
                f"degree table demands {expected}")

    # -- basic queries -------------------------------------------------------

    def is_root(self, coords) -> bool:
        return tuple(coords) in self.index

    def height(self, root) -> int:
        return sum(root)

    def _form(self, vec) -> Fraction:
        """(vec, vec) by the bilinear-form double sum, taken over twice the
        form, which has integer entries."""
        bil2 = self._bil2
        acc = 0
        for i, a in enumerate(vec):
            if a:
                row = bil2[i]
                for j, b in enumerate(vec):
                    if b:
                        acc += a * b * row[j]
        return Fraction(acc, 2)

    def norm2(self, root) -> Fraction:
        """(root, root) in the fixed normalization; looked up for roots,
        computed for any other vector."""
        root = tuple(root)
        n2 = self._root_norm2.get(root)
        return self._form(root) if n2 is None else n2

    def length_class(self, root) -> str:
        """'long' or 'short'; every root is 'long' in a simply-laced system."""
        if self.rstype.family in ("A", "D", "E"):
            return "long"
        return "long" if self.norm2(root) == max(self._simple_norm2) else "short"

    def coroot_coords(self, root):
        """root^vee as integer coordinates over the simple coroots."""
        n2 = self.norm2(root)
        out = []
        for i, a in enumerate(root):
            c = Fraction(a) * self._bil[i][i] / n2
            assert c.denominator == 1
            out.append(int(c))
        return tuple(out)

    def coroot_pairing(self, x_weight_coords, root) -> Fraction:
        """<x, root^vee> for x given in fundamental-weight coordinates."""
        cr = self.coroot_coords(root)
        return sum(Fraction(a) * b for a, b in zip(x_weight_coords, cr))

    def exponents(self):
        return tuple(d - 1 for d in self.degrees)

    def max_exponent(self) -> int:
        return max(self.exponents())

    def weyl_order(self) -> int:
        out = 1
        for d in self.degrees:
            out *= d
        return out

    def center_order(self) -> int:
        """Order of the center of the simply connected group: det of Cartan."""
        return _det_int(self.cartan)

    def height_histogram(self):
        """Map height -> number of positive roots of that height."""
        hist = {}
        for r in self.positive_roots:
            h = self.height(r)
            hist[h] = hist.get(h, 0) + 1
        return hist

    def root_to_epsilon(self, root):
        """Root coordinates in the epsilon view (families B, C, D, F only)."""
        if self.epsilon_view is None:
            raise RootSystemError(f"no epsilon view for {self.rstype}")
        dim = len(self.epsilon_view[0])
        out = [Fraction(0)] * dim
        for i, c in enumerate(root):
            if c:
                for k in range(dim):
                    out[k] += c * self.epsilon_view[i][k]
        return tuple(out)

    def epsilon_to_root(self, eps):
        """Inverse of root_to_epsilon; raises if the vector is not a root."""
        if self._epsilon_index is None:
            self._epsilon_index = {self.root_to_epsilon(r): r
                                   for r in self.all_roots}
        root = self._epsilon_index.get(tuple(Fraction(e) for e in eps))
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

    The 'twisted' convention rescales e_{+-a} by (-1)^(a_1 a_2), another valid
    Chevalley basis; downstream orbit counts must not depend on the choice.
    """

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self.convention = "extraspecial"
        self.table = self._full_table(self._positive_table())

    def twisted(self) -> "StructureConstants":
        """The same basis rescaled to the twisted convention."""
        chi = self._chi
        out = copy.copy(self)
        out.convention = "twisted"
        out.table = {(a, b): v * chi(a) * chi(b)
                     * chi(tuple(x + y for x, y in zip(a, b)))
                     for (a, b), v in self.table.items()}
        return out

    @staticmethod
    def _chi(root):
        if len(root) < 2:
            return 1
        return -1 if (root[0] * root[1]) % 2 else 1

    def n(self, a, b) -> int:
        """N(a,b); zero when a+b is not a root."""
        return self.table.get((a, b), 0)

    def string_down(self, a, b) -> int:
        """Largest k with b - k a a root (a, b roots, b != +-a)."""
        rs, k = self.rs, 0
        probe = list(b)
        while True:
            probe2 = tuple(x - y for x, y in zip(probe, a))
            if probe2 in rs.index:
                probe, k = list(probe2), k + 1
            else:
                return k

    def _positive_table(self):
        rs = self.rs
        pos = {}

        def vdiff(a, b):
            return tuple(x - y for x, y in zip(a, b))

        by_height = {}
        for r in rs.positive_roots:
            by_height.setdefault(rs.height(r), []).append(r)

        def extraspecial(gamma):
            for s in rs.simples:
                rem = vdiff(gamma, s)
                if rem in rs.index and sum(rem) > 0:
                    return s, rem
            raise AssertionError("positive non-simple root with no simple summand")

        def mixed_neg_simple(xi, a):
            # N(-xi, a) and N(a, -xi) for xi simple, a positive, a-xi a positive root
            mu = vdiff(a, xi)
            base = pos[(xi, mu)]
            val = Fraction(base) * rs.norm2(mu) / rs.norm2(a)
            assert val.denominator == 1
            return int(val)

        for h in sorted(by_height):
            if h == 1:
                continue
            for gamma in by_height[h]:
                xi, eta = extraspecial(gamma)
                p = self.string_down(xi, eta)
                pos[(xi, eta)] = p + 1
                pos[(eta, xi)] = -(p + 1)
                # remaining decompositions of gamma into two positive roots
                n_gx = Fraction(-(p + 1)) * rs.norm2(eta) / rs.norm2(gamma)
                assert n_gx.denominator == 1
                n_gamma_negxi = int(n_gx)  # N(gamma, -xi)
                for a in rs.positive_roots:
                    if rs.height(a) >= h:
                        break
                    b = vdiff(gamma, a)
                    if b not in rs.index or sum(b) <= 0:
                        continue
                    if (a, b) in pos:
                        continue
                    acc = 0
                    amx = vdiff(a, xi)
                    if amx in rs.index and sum(amx) > 0:
                        acc += mixed_neg_simple(xi, a) * pos[(amx, b)]
                    elif a == xi:
                        raise AssertionError("extraspecial pair revisited")
                    bmx = vdiff(b, xi)
                    if bmx in rs.index and sum(bmx) > 0:
                        acc += -mixed_neg_simple(xi, b) * pos[(bmx, a)]
                    val = Fraction(-acc) / n_gamma_negxi
                    assert val.denominator == 1, (gamma, a, b)
                    nval = int(val)
                    expect = self.string_down(a, b) + 1
                    assert abs(nval) == expect, (gamma, a, b, nval, expect)
                    pos[(a, b)] = nval
                    pos[(b, a)] = -nval
        return pos

    def _full_table(self, pos):
        rs = self.rs
        full = dict(pos)

        def vdiff(a, b):
            return tuple(x - y for x, y in zip(a, b))

        for a in rs.positive_roots:
            for b in rs.positive_roots:
                na, nb = rs._neg(a), rs._neg(b)
                if (a, b) in pos:
                    full[(na, nb)] = -pos[(a, b)]
                if a == b:
                    continue
                # mixed pair (a, -b): a - b must be a root
                d = vdiff(a, b)
                if d in rs.index:
                    if sum(d) > 0:
                        # a + (-b) + (-d) = 0 with (b, d) positive summing to a
                        val = Fraction(-pos[(b, d)]) * rs.norm2(d) / rs.norm2(a)
                    else:
                        nu = rs._neg(d)
                        # a + (-b) + nu = 0 with (nu, a) positive summing to b
                        val = Fraction(pos[(nu, a)]) * rs.norm2(nu) / rs.norm2(b)
                    assert val.denominator == 1
                    full[(a, nb)] = int(val)
                    full[(nb, a)] = -int(val)
        return full


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
