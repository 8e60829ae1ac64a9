"""Principal sl(2) inside sl(n) and its weight-vector machinery.

Everything here is exact (Fraction entries).  The module builds:

- the principal triple (e, f, h) with e the superdiagonal (1, ..., n-1),
  f the subdiagonal (n-1, ..., 1), h = diag(n-1, n-3, ..., -(n-1));
- lowest weight vectors f_1 ... f_{n-1}, one per band, computed as the exact
  kernel of ad_f restricted to the band (f_1 = f, f_{n-1} = E_{n,1});
- the full weight basis v_{i,j} = (ad_e)^{i+j} f_i for -i <= j <= i, which
  spans sl(n);
- the structure tables
      ad_f v_{i,j}        = a_{i,j} v_{i,j-1}
      [f_{n-1}, v_{n-1-k, n-1-j}] = sum_i c_{i,j,k} v_{i,-j}
  together with verification of the closed formula for a, the sign coherence
  of c along j for fixed (i,k), and the two-term recursion linking the two
  tables.

Out-of-range table lookups raise KeyError: silent fallbacks here would
invalidate every consumer downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

import numpy as np

from .exactla import (QQ, commutator, exact_nullspace, exact_rank, mat_trace,
                      qzeros, rational_str)


@dataclass(frozen=True)
class Sl2Triple:
    n: int
    e: np.ndarray
    f: np.ndarray
    h: np.ndarray


def principal_sl2(n):
    """Principal sl(2) triple in sl(n); validates the bracket relations."""
    if n < 2:
        raise ValueError("need n >= 2")
    e = qzeros(n)
    f = qzeros(n)
    h = qzeros(n)
    for j in range(1, n):
        e[j - 1, j] = QQ(j)
        f[j, j - 1] = QQ(n - j)
    for a in range(n):
        h[a, a] = QQ(n - 1 - 2 * a)
    if not np.array_equal(commutator(e, f), h):
        raise ArithmeticError("principal triple failed [e,f] = h")
    if not np.array_equal(commutator(h, e), 2 * np.ones((), dtype=object) * e):
        raise ArithmeticError("principal triple failed [h,e] = 2e")
    if not np.array_equal(commutator(h, f), -2 * np.ones((), dtype=object) * f):
        raise ArithmeticError("principal triple failed [h,f] = -2f")
    return Sl2Triple(n=n, e=e, f=f, h=h)


def band_positions(n, j):
    """Matrix positions of the band S(j) (j-th off-diagonal, j in [-(n-1), n-1])."""
    if not -(n - 1) <= j <= n - 1:
        raise KeyError(f"band {j} out of range for n={n}")
    if j >= 0:
        return [(a, a + j) for a in range(n - j)]
    return [(a - j, a) for a in range(n + j)]


def band_coords(m, j):
    n = m.shape[0]
    return [m[p] for p in band_positions(n, j)]


def in_band(m, j):
    n = m.shape[0]
    pos = set(band_positions(n, j))
    return all(not m[a, b] or (a, b) in pos for a in range(n) for b in range(n))


def lowest_weight_vectors(tri):
    """f_1 ... f_{n-1}: exact kernel of ad_f on each band, positive coprime ints."""
    n = tri.n
    out = []
    for i in range(1, n):
        src = band_positions(n, -i)
        dst = band_positions(n, -i - 1) if i < n - 1 else []
        # columns: band S(-i) coordinates; rows: S(-i-1) coordinates of ad_f
        rows = []
        for dpos in dst:
            row = []
            for spos in src:
                basis_elt = qzeros(n)
                basis_elt[spos] = QQ(1)
                row.append(commutator(tri.f, basis_elt)[dpos])
            rows.append(row)
        if rows:
            kernel = exact_nullspace(rows)
        else:
            kernel = [np.array([QQ(1)], dtype=object)]
        if len(kernel) != 1:
            raise ArithmeticError(f"ad_f kernel on band S(-{i}) has dim {len(kernel)} != 1")
        vec = kernel[0]
        den = 1
        for q in vec:
            den = den * q.denominator // gcd(den, q.denominator)
        ints = [int(q * den) for q in vec]
        g = 0
        for v in ints:
            g = gcd(g, abs(v))
        ints = [v // g for v in ints]
        if ints[0] < 0:
            ints = [-v for v in ints]
        if any(v <= 0 for v in ints) or min(ints) != 1:
            raise ArithmeticError(f"lowest weight vector f_{i} not positive coprime with min 1: {ints}")
        fi = qzeros(n)
        for pos, v in zip(src, ints):
            fi[pos] = QQ(v)
        out.append(fi)
    return out


class WeightBasis:
    """The vectors v_{i,j} = (ad_e)^{i+j} f_i, indexed by 1<=i<=n-1, -i<=j<=i."""

    def __init__(self, tri, vectors):
        self.n = tri.n
        self.tri = tri
        self._v = vectors
        self._band_solvers = self._build_band_solvers()

    def indices(self):
        return sorted(self._v.keys())

    def vec(self, i, j):
        key = (i, j)
        if key not in self._v:
            raise KeyError(f"v_{{{i},{j}}} out of range for n={self.n}")
        return self._v[key]

    def _build_band_solvers(self):
        # Band j is spanned by {v_{i,j} : max(|j|,1) <= i <= n-1}; for j != 0
        # that is a square system, for j = 0 the n-1 vectors span the traceless
        # diagonal.  Precompute the per-band column matrices once.
        n = self.n
        solvers = {}
        for j in range(-(n - 1), n):
            members = [i for i in range(max(abs(j), 1), n)]
            cols = [band_coords(self._v[(i, j)], j) for i in members]
            mat = [[cols[c][r] for c in range(len(members))] for r in range(len(cols[0]))]
            solvers[j] = (members, mat)
        return solvers

    def decompose(self, x):
        """Exact coefficients of a traceless matrix in the v basis.

        Returns dict ((i,j) -> Fraction) containing only nonzero entries.
        Raises ValueError when x has nonzero trace or is outside the span.
        """
        from .exactla import exact_solve
        n = self.n
        if mat_trace(x) != 0:
            raise ValueError("decompose requires a traceless matrix")
        out = {}
        for j in range(-(n - 1), n):
            coords = band_coords(x, j)
            if not any(coords):
                continue
            members, mat = self._band_solvers[j]
            sol = exact_solve(mat, coords)
            if sol is None:
                raise ValueError(f"matrix not in span of the weight basis on band {j}")
            xs, basis = sol
            if basis:
                raise ArithmeticError(f"band {j} basis is degenerate")
            for i, cval in zip(members, xs):
                if cval:
                    out[(i, j)] = cval
        # off-band junk would have been caught band by band only if bands cover
        # all positions -- they do (every position lies on exactly one band).
        return out


def build_weight_basis(tri):
    n = tri.n
    lws = lowest_weight_vectors(tri)
    vectors = {}
    for i in range(1, n):
        v = lws[i - 1]
        vectors[(i, -i)] = v
        for j in range(-i + 1, i + 1):
            v = commutator(tri.e, v)
            vectors[(i, j)] = v
    # sanity: grading, weight, top annihilation, spanning
    for (i, j), v in vectors.items():
        if not in_band(v, j):
            raise ArithmeticError(f"v_{{{i},{j}}} escapes band S({j})")
        if not np.array_equal(commutator(tri.h, v), 2 * np.ones((), dtype=object) * j * v):
            raise ArithmeticError(f"v_{{{i},{j}}} is not an ad_h eigenvector of weight {2*j}")
    for i in range(1, n):
        if np.any(commutator(tri.e, vectors[(i, i)]) != QQ(0)):
            raise ArithmeticError(f"ad_e does not annihilate the top vector v_{{{i},{i}}}")
    flat = [v.reshape(-1) for (_, v) in sorted(vectors.items())]
    if exact_rank(flat) != n * n - 1:
        raise ArithmeticError("weight vectors do not span sl(n)")
    return WeightBasis(tri, vectors)


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
    """Populate both tables by exact decomposition of the defining brackets."""
    n = basis.n
    tri = basis.tri
    tables = StructureTables(n=n)
    for i in range(1, n):
        for j in range(-i, i + 1):
            br = commutator(tri.f, basis.vec(i, j))
            coeffs = basis.decompose(br) if np.any(br != QQ(0)) else {}
            extra = set(coeffs) - {(i, j - 1)}
            if extra:
                raise ArithmeticError(f"ad_f v_{{{i},{j}}} leaves its string: {sorted(extra)}")
            val = coeffs.get((i, j - 1), QQ(0))
            if val != a_formula(i, j):
                raise ArithmeticError(f"a[{i},{j}] = {val} != closed formula {a_formula(i, j)}")
            tables.a[(i, j)] = val
    fn1 = basis.vec(n - 1, -(n - 1))
    for j in range(0, n):
        for k in range(0, min(j, n - 2) + 1):
            br = commutator(fn1, basis.vec(n - 1 - k, n - 1 - j))
            coeffs = basis.decompose(br) if np.any(br != QQ(0)) else {}
            allowed = {(i, -j) for i in range(max(1, j), n)}
            extra = set(coeffs) - allowed
            if extra:
                raise ArithmeticError(
                    f"[f_(n-1), v_{{{n-1-k},{n-1-j}}}] has components outside S(-{j}): {sorted(extra)}")
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
    tri = basis.tri
    fn1 = basis.vec(basis.n - 1, -(basis.n - 1))
    for (i, j) in basis.indices():
        v = basis.vec(i, j)
        lhs = commutator(fn1, commutator(tri.f, v))
        rhs = commutator(tri.f, commutator(fn1, v))
        if not np.array_equal(lhs, rhs):
            return False
    return True
