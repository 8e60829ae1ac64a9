"""Principal sl(2) inside sl(n) and its weight-vector machinery.

Everything here is exact.  Each element lies on one off-diagonal band S(j)
and is kept as a band element (j, xs) of Python ints: xs[r] is the entry in
row r, column r + j (zero where that column is outside the matrix).  Dense
Fraction matrices appear only as the views `Sl2Triple.e/f/h`,
`WeightBasis.vec` and the argument of `WeightBasis.decompose`, and the
tables hold Fractions.  The module builds:

- the principal triple (e, f, h) with e the superdiagonal (1, ..., n-1),
  f the subdiagonal (n-1, ..., 1), h = diag(n-1, n-3, ..., -(n-1));
- lowest weight vectors f_1 ... f_{n-1}, one per band: f_i is the primitive
  integer form of the power f^i, since the centralizer of the principal
  nilpotent f is spanned by its powers (Kostant 1959);
- the weight basis v_{i,j} = (ad_e)^{i+j} f_i for -i <= j <= i; its strings
  are orthogonal under the trace form B(X, Y) = tr(XY), which proves that it
  spans sl(n) and makes each coefficient a quotient of two O(n) pairings;
- the structure tables
      ad_f v_{i,j}        = a_{i,j} v_{i,j-1}
      [f_{n-1}, v_{n-1-k, n-1-j}] = sum_i c_{i,j,k} v_{i,-j}
  together with verification of the closed formula for a, the sign coherence
  of c along j for fixed (i,k), and the two-term recursion linking the two
  tables.  No elimination runs here.

Out-of-range table lookups raise KeyError: silent fallbacks here would
invalidate every consumer downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

import numpy as np

from .exactla import QQ, mat_trace, qzeros, rational_str


def bracket(x, y):
    """[X, Y] of band elements X = (p, xs), Y = (q, ys), in O(n).

    Row r of the result, on band p + q, is xs[r] ys[r+p] - ys[r] xs[r+q];
    a band beyond the matrix comes out all zero."""
    (p, xs), (q, ys) = x, y
    n = len(xs)

    def at(zs, r):
        return zs[r] if 0 <= r < n else 0

    return p + q, tuple(xs[r] * at(ys, r + p) - ys[r] * at(xs, r + q)
                        for r in range(n))


def pairing(x, y):
    """Trace form B(X, Y) = tr(XY) of X = (j, xs) on S(j) and Y on S(-j),
    in O(n): the sum of xs[r] ys[r+j]."""
    (j, xs), (_, ys) = x, y
    n = len(xs)
    return sum(xs[r] * ys[r + j] for r in range(max(0, -j), min(n, n - j)))


def _scaled(c, x):
    return x[0], tuple(c * v for v in x[1])


def band_matrix(x):
    """Dense Fraction matrix of the band element x."""
    j, xs = x
    n = len(xs)
    m = qzeros(n)
    for r in range(max(0, -j), min(n, n - j)):
        m[r, r + j] = QQ(xs[r])
    return m


def band_of(m, j):
    """The band S(j) part of a dense square matrix, as a band element."""
    n = m.shape[0]
    return j, tuple(m[r, r + j] if 0 <= r + j < n else QQ(0)
                    for r in range(n))


@dataclass(frozen=True)
class Sl2Triple:
    n: int
    e: np.ndarray          # dense forms of `bands`
    f: np.ndarray
    h: np.ndarray
    bands: tuple           # (e, f, h) as band elements


def principal_sl2(n):
    """Principal sl(2) triple in sl(n); validates the bracket relations."""
    if n < 2:
        raise ValueError("need n >= 2")
    e = (1, tuple(r + 1 if r < n - 1 else 0 for r in range(n)))
    f = (-1, tuple(n - r if r else 0 for r in range(n)))
    h = (0, tuple(n - 1 - 2 * r for r in range(n)))
    if bracket(e, f) != h:
        raise ArithmeticError("principal triple failed [e,f] = h")
    if bracket(h, e) != _scaled(2, e):
        raise ArithmeticError("principal triple failed [h,e] = 2e")
    if bracket(h, f) != _scaled(-2, f):
        raise ArithmeticError("principal triple failed [h,f] = -2f")
    return Sl2Triple(n, band_matrix(e), band_matrix(f), band_matrix(h),
                     (e, f, h))


def lowest_weight_vectors(tri):
    """f_1 ... f_{n-1} as band elements: f_i is f^i divided by the gcd of its
    entries, positive coprime ints; ad_f is checked to kill each."""
    n, f = tri.n, tri.bands[1]
    power, out = f[1], []
    for i in range(1, n):
        g = gcd(*power)
        fi = (-i, tuple(v // g for v in power))
        if any(bracket(f, fi)[1]):
            raise ArithmeticError(f"ad_f does not kill f_{i}")
        out.append(fi)
        # f^{i+1}[r, r-i-1] = f^i[r, r-i] f[r-i, r-i-1]
        power = tuple(power[r] * f[1][r - i] if r > i else 0 for r in range(n))
    return out


class WeightBasis:
    """The vectors v_{i,j} = (ad_e)^{i+j} f_i, indexed by 1<=i<=n-1, -i<=j<=i,
    with norms[(i, j)] = B(v_{i,j}, v_{i,-j}) != 0."""

    def __init__(self, tri, bands, norms):
        self.n = tri.n
        self.tri = tri
        self._v = bands
        self.norms = norms

    def indices(self):
        return sorted(self._v.keys())

    def band(self, i, j):
        """v_{i,j} as a band element of S(j)."""
        key = (i, j)
        if key not in self._v:
            raise KeyError(f"v_{{{i},{j}}} out of range for n={self.n}")
        return self._v[key]

    def vec(self, i, j):
        """v_{i,j} as a dense Fraction matrix."""
        return band_matrix(self.band(i, j))

    def solve_band(self, x):
        """Coefficients of the band element x = (j, xs) in the v_{i,j}.

        Band j holds {v_{i,j} : max(|j|,1) <= i <= n-1}, and the strings are
        orthogonal under B, so the coefficient of v_{i,j} is
        B(x, v_{i,-j}) / norms[(i, j)]; on band 0, x must sum to zero.
        Returns dict ((i,j) -> Fraction) of the nonzero entries."""
        j = x[0]
        coeffs = {(i, j): QQ(pairing(x, self._v[(i, -j)]), self.norms[(i, j)])
                  for i in range(max(abs(j), 1), self.n)}
        return {key: c for key, c in coeffs.items() if c}

    def decompose(self, x):
        """Exact coefficients of a traceless matrix in the v basis.

        Returns dict ((i,j) -> Fraction) containing only nonzero entries.
        Raises ValueError only when x has nonzero trace.  Every position
        lies on exactly one band, so band by band is all of x.
        """
        n = self.n
        if mat_trace(x) != 0:
            raise ValueError("decompose requires a traceless matrix")
        out = {}
        for j in range(-(n - 1), n):
            out.update(self.solve_band(band_of(x, j)))
        return out


def build_weight_basis(tri):
    n = tri.n
    e, _, h = tri.bands
    vectors = {}
    for i, v in enumerate(lowest_weight_vectors(tri), 1):
        for j in range(-i, i + 1):
            vectors[(i, j)] = v
            v = bracket(e, v)
        if any(v[1]):
            raise ArithmeticError(f"ad_e does not annihilate the top vector v_{{{i},{i}}}")
    # sanity: weight
    for (i, j), v in vectors.items():
        if bracket(h, v) != _scaled(2 * j, v):
            raise ArithmeticError(f"v_{{{i},{j}}} is not an ad_h eigenvector of weight {2*j}")
    # B pairs the n - |j| vectors of band j (n - 1 on band 0) with those of
    # band -j through a nonsingular diagonal, so together they span sl(n)
    norms = {}
    for j in range(n):
        members = range(max(j, 1), n)
        for i in members:
            row = {i2: pairing(vectors[(i, j)], vectors[(i2, -j)]) for i2 in members}
            if [i2 for i2 in members if row[i2]] != [i]:
                raise ArithmeticError("weight vectors do not span sl(n)")
            norms[(i, j)] = norms[(i, -j)] = row[i]
    return WeightBasis(tri, vectors, norms)


def a_formula(i, j):
    return QQ((i + j) * (i - j + 1))


@dataclass
class StructureTables:
    n: int
    a: dict = field(default_factory=dict)
    c: dict = field(default_factory=dict)

    def a_val(self, i, j):
        key = (i, j)
        if key not in self.a:
            raise KeyError(f"a[{i},{j}] out of range for n={self.n}")
        return self.a[key]

    def c_val(self, i, j, k):
        key = (i, j, k)
        if key not in self.c:
            raise KeyError(f"c[{i},{j},{k}] out of range for n={self.n}")
        return self.c[key]

    def serialize(self):
        lines = []
        for (i, j), v in sorted(self.a.items()):
            lines.append(f"a {i} {j} {rational_str(v)}")
        for (i, j, k), v in sorted(self.c.items()):
            lines.append(f"c {i} {j} {k} {rational_str(v)}")
        return "\n".join(lines) + "\n"


def compute_structure_tables(basis):
    """Populate both tables: check each a-entry through the lowering identity
    [f, v_{i,j}] = a_{i,j} v_{i,j-1}, read each c-entry with the pairing."""
    n = basis.n
    f = basis.tri.bands[1]
    tables = StructureTables(n=n)
    for (i, j) in basis.indices():
        val = a_formula(i, j)
        below = basis.band(i, j - 1) if j > -i else (j - 1, (0,) * n)
        if bracket(f, basis.band(i, j)) != _scaled(val, below):
            raise ArithmeticError(f"ad_f v_{{{i},{j}}} != {val} v_{{{i},{j - 1}}}")
        tables.a[(i, j)] = val
    fn1 = basis.band(n - 1, -(n - 1))
    for j in range(0, n):
        for k in range(0, min(j, n - 2) + 1):
            # the bracket lies on S(-j), so only v_{i,-j} can appear
            coeffs = basis.solve_band(bracket(fn1, basis.band(n - 1 - k, n - 1 - j)))
            for i in range(max(1, j), n):
                tables.c[(i, j, k)] = coeffs.get((i, -j), QQ(0))
    return tables


@dataclass
class SignReport:
    n: int
    strings_checked: int = 0
    recursions_checked: int = 0
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations


def verify_sign_property(tables):
    """Check: c_{i,k,k} != 0 forces c_{i,j,k} != 0 of equal sign for k<=j<=i,
    and the cross-multiplied recursion c_{i,j+1,k} a_{n-1-k,n-1-j} = a_{i,-j} c_{i,j,k}."""
    n = tables.n
    rep = SignReport(n=n)
    for k in range(0, n - 1):
        for i in range(max(1, k), n):
            lead = tables.c.get((i, k, k))
            if lead is None or lead == 0:
                continue
            rep.strings_checked += 1
            sgn = 1 if lead > 0 else -1
            for j in range(k, i + 1):
                val = tables.c_val(i, j, k)
                if val == 0 or (1 if val > 0 else -1) != sgn:
                    rep.violations.append(("sign", i, j, k, val))
    for (i, j, k) in sorted(tables.c):
        if (i, j + 1, k) in tables.c:
            lhs = tables.c_val(i, j + 1, k) * tables.a_val(n - 1 - k, n - 1 - j)
            rhs = tables.a_val(i, -j) * tables.c_val(i, j, k)
            rep.recursions_checked += 1
            if lhs != rhs:
                rep.violations.append(("recursion", i, j, k, lhs - rhs))
    return rep


def commuting_action_check(basis):
    """ad_{f_{n-1}} and ad_f commute on every weight vector (exact)."""
    f = basis.tri.bands[1]
    fn1 = basis.band(basis.n - 1, -(basis.n - 1))
    for (i, j) in basis.indices():
        v = basis.band(i, j)
        if bracket(fn1, bracket(f, v)) != bracket(f, bracket(fn1, v)):
            return False
    return True
