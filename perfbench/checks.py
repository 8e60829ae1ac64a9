"""Independent output checks for the benchmark.

Nothing here compares against a stored copy of the program's output.  Every
check recomputes a property the mathematics guarantees, from the returned
objects alone, with the benchmark's own arithmetic:

- Stokes data: closure of the monodromy product, alternating
  unitriangularity in some labeling, a traceless formal exponent, and the
  classical closed forms (Sibuya 1975) at Weber and monomial points.
- Jacobian: full column rank d-1 with a singular-value margin, and at Weber
  points the derivative of tr(S2 S1) assembled from the Jacobian column.
- Exact tables and certificates: bracket identities in plain Python
  integers, the table entries re-derived from brackets, the sign pattern
  recomputed from the table, and the deformation kernel re-measured by a
  rank computation modulo a prime.

Each checker returns a list of Check records; an output fails when any of
its records is not ok.
"""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import NamedTuple

import numpy as np

# ten times the default radius_tol of 1e-10 (ROADMAP item 2)
STOKES_TOL = 1e-9
# Lambda is traceless by construction (trace-split gauge)
TRACE_TOL = 1e-12
# central differences with h = 1e-4 carry an O(h^2) truncation error
DERIVATIVE_TOL = 1e-5
SV_GAP_MIN = 1e-4
PRIME = 2_147_483_647  # 2^31 - 1: products of residues fit in int64


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str


def _bound(name, defect, tol):
    return Check(name, bool(defect <= tol), f"{defect:.2e} vs {tol:.0e}")


# ---------------------------------------------------------------------------
# Stokes data

@dataclass
class StokesView:
    """Plain complex copy of one Stokes run: what the checks read."""
    n: int
    k: int
    coeffs: tuple
    matrices: list
    lam: np.ndarray


def stokes_view(op, sd):
    mats = [np.array([[complex(v) for v in row] for row in m])
            for m in sd.matrices]
    return StokesView(op.n, op.k, tuple(op.coeffs), mats,
                      np.array([complex(v) for v in sd.lam]))


def closure_defect(view):
    """max |S_{2k+2} ... S_1 exp(2 pi i Lambda) - (-1)^{k(n+1)} I|."""
    n, k = view.n, view.k
    acc = np.eye(n, dtype=complex)
    for mat in view.matrices:
        acc = mat @ acc
    acc = acc @ np.diag(np.exp(2j * np.pi * view.lam))
    sigma = (-1) ** (k * (n + 1))
    return float(np.abs(acc - sigma * np.eye(n)).max())


def unitriangular_defect(view):
    """Distance from alternating unitriangularity, minimized over every mode
    labeling and over which side the first matrix takes."""
    n = view.n
    best = math.inf
    for perm in permutations(range(n)):
        idx = np.array(perm)
        for first_upper in (True, False):
            worst = 0.0
            for i, mat in enumerate(view.matrices):
                conj = mat[np.ix_(idx, idx)]
                upper = (i % 2 == 0) == first_upper
                wrong = np.tril(conj, -1) if upper else np.triu(conj, 1)
                worst = max(worst, float(np.abs(np.diag(conj) - 1).max()),
                            float(np.abs(wrong).max()))
            best = min(best, worst)
    return best


def _pair_traces(view):
    m = view.matrices
    return [complex(np.trace(m[i + 1] @ m[i])) for i in range(len(m) - 1)]


def weber_defect(view):
    """y'' = (z^2 + c) y: {tr S2S1, tr S3S2} = {1 - e^{i pi c}, 1 - e^{-i pi c}}."""
    c = complex(view.coeffs[0])
    want = (1 - cmath.exp(1j * math.pi * c), 1 - cmath.exp(-1j * math.pi * c))
    got = _pair_traces(view)[:2]
    return min(max(abs(got[0] - want[0]), abs(got[1] - want[1])),
               max(abs(got[0] - want[1]), abs(got[1] - want[0])))


def monomial_trace_defect(view):
    """p = z^{2k}: every tr(S_{i+1} S_i) equals 2 - 4 cos^2(pi/(2k+2))."""
    want = 2 - 4 * math.cos(math.pi / (2 * view.k + 2)) ** 2
    return max(abs(t - want) for t in _pair_traces(view))


def _cubic_closed_form():
    w = 1 + 1j * math.sqrt(3)
    odd = np.eye(3, dtype=complex)
    odd[0, 2] = odd[1, 0] = w
    odd[1, 2] = -np.conj(w)
    even = np.eye(3, dtype=complex)
    even[0, 1] = even[2, 0] = -np.conj(w)
    even[2, 1] = -w
    return odd, even


def cubic_defect(view):
    """p = z^3: the grouped matrices carry 2 x sixth roots of unity."""
    odd, even = _cubic_closed_form()
    return max(float(np.abs(mat - (odd if i % 2 == 0 else even)).max())
               for i, mat in enumerate(view.matrices))


def charpoly(mat):
    """Characteristic polynomial coefficients by Faddeev-LeVerrier."""
    n = mat.shape[0]
    coeffs = [1.0 + 0j]
    acc = np.zeros_like(mat)
    eye = np.eye(n, dtype=complex)
    for t in range(1, n + 1):
        acc = mat @ acc + coeffs[-1] * eye
        coeffs.append(complex(-np.trace(mat @ acc) / t))
    return np.array(coeffs)


def charpoly_defect(view):
    """Monomial points: every product of consecutive grouped matrices has
    one characteristic polynomial (the rotation makes them conjugate)."""
    m = view.matrices
    polys = [charpoly(m[i + 1] @ m[i]) for i in range(len(m) - 1)]
    return max(float(np.abs(p - polys[0]).max()) for p in polys)


def is_monomial(view):
    return all(complex(c) == 0 for c in view.coeffs)


def check_stokes(view):
    checks = [
        _bound("closure", closure_defect(view), STOKES_TOL),
        _bound("unitriangular", unitriangular_defect(view), STOKES_TOL),
        _bound("traceless", abs(complex(view.lam.sum())), TRACE_TOL),
    ]
    if view.n == 2 and view.k == 1:
        checks.append(_bound("weber_traces", weber_defect(view), STOKES_TOL))
    if is_monomial(view):
        checks.append(_bound("monomial_charpoly", charpoly_defect(view),
                             STOKES_TOL))
        if view.n == 2:
            checks.append(_bound("monomial_traces", monomial_trace_defect(view),
                                 STOKES_TOL))
        if (view.n, view.k) == (3, 1):
            checks.append(_bound("cubic_entries", cubic_defect(view),
                                 STOKES_TOL))
    return checks


# ---------------------------------------------------------------------------
# Jacobian of the monodromy map

@dataclass
class JacobianView:
    d: int
    coeffs: tuple
    jacobian: np.ndarray
    holomorphy: float
    base_vector: np.ndarray = None   # monitored entries of a base run (Weber)


def jacobian_view(op, rep, base=None):
    return JacobianView(op.d, tuple(op.coeffs), np.array(rep.jacobian),
                        float(rep.holomorphy),
                        None if base is None else base.monitored_vector())


def weber_derivative_defect(view):
    """d/dc tr(S2 S1) = a'b + ab' must match the derivative of whichever of
    1 - e^{+-i pi c} the base run's trace equals."""
    a, b = view.base_vector[0], view.base_vector[1]
    da, db = view.jacobian[0, 0], view.jacobian[1, 0]
    c = complex(view.coeffs[0])
    trace = 2 + a * b
    plus, minus = cmath.exp(1j * math.pi * c), cmath.exp(-1j * math.pi * c)
    if abs(trace - (1 - plus)) <= abs(trace - (1 - minus)):
        want = -1j * math.pi * plus
    else:
        want = 1j * math.pi * minus
    return abs(da * b + a * db - want)


def check_jacobian(view):
    sv = np.linalg.svd(view.jacobian, compute_uv=False)
    cols = view.jacobian.shape[1]
    gap = float(sv[-1] / sv[0]) if cols and sv[0] > 0 else 0.0
    rank = int((sv >= sv[0] * SV_GAP_MIN).sum()) if cols and sv[0] > 0 else 0
    checks = [Check("rank", rank == view.d - 1 and gap >= SV_GAP_MIN,
                    f"rank {rank} of d-1 = {view.d - 1}, sv_gap {gap:.2e}")]
    if view.base_vector is not None:
        checks.append(_bound("weber_derivative",
                             weber_derivative_defect(view), DERIVATIVE_TOL))
    return checks


# ---------------------------------------------------------------------------
# exact sl(2) tables, in plain integers

def int_matrix(mat):
    out = []
    for row in mat:
        out_row = []
        for v in row:
            q = Fraction(v)
            if q.denominator != 1:
                raise ValueError(f"non-integer entry {q}")
            out_row.append(q.numerator)
        out.append(out_row)
    return out


def imatmul(x, y):
    cols = list(zip(*y))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols]
            for row in x]


def bracket(x, y):
    xy, yx = imatmul(x, y), imatmul(y, x)
    return [[a - b for a, b in zip(r, s)] for r, s in zip(xy, yx)]


def scale(c, x):
    return [[c * v for v in row] for row in x]


@dataclass
class TablesView:
    n: int
    e: list
    f: list
    h: list
    vectors: dict        # (i, j) -> integer matrix
    a: dict
    c: dict
    sign_ok: bool
    sign_strings: int


def tables_view(basis, tables, sign):
    tri = basis.tri
    return TablesView(
        basis.n, int_matrix(tri.e), int_matrix(tri.f), int_matrix(tri.h),
        {ij: int_matrix(basis.vec(*ij)) for ij in basis.indices()},
        dict(tables.a), dict(tables.c), sign.ok, sign.strings_checked)


def _triple_ok(v):
    return (bracket(v.e, v.f) == v.h and bracket(v.h, v.e) == scale(2, v.e)
            and bracket(v.h, v.f) == scale(-2, v.f))


def _weights_ok(v):
    return all(bracket(v.h, m) == scale(2 * j, m)
               for (_, j), m in v.vectors.items())


def _string_bad(v):
    """Indices (i, j) where [f, v_{i,j}] != (i+j)(i-j+1) v_{i,j-1}."""
    n = len(v.f)
    zero = [[0] * n for _ in range(n)]
    bad = []
    for (i, j), m in sorted(v.vectors.items()):
        lower = v.vectors.get((i, j - 1), zero)
        if bracket(v.f, m) != scale((i + j) * (i - j + 1), lower):
            bad.append((i, j))
    return bad


def _a_table_bad(v):
    want = {(i, j): (i + j) * (i - j + 1) for (i, j) in v.vectors}
    return sorted(ij for ij in set(want) | set(v.a)
                  if v.a.get(ij) != want.get(ij))


def _c_table_bad(v):
    """(j, k) where [E_{n,1}, v_{n-1-k, n-1-j}] != sum_i c_{i,j,k} v_{i,-j}."""
    n = v.n
    corner = [[0] * n for _ in range(n)]
    corner[n - 1][0] = 1
    bad = []
    for j in range(n):
        for k in range(min(j, n - 2) + 1):
            lhs = bracket(corner, v.vectors[(n - 1 - k, n - 1 - j)])
            rhs = [[Fraction(0)] * n for _ in range(n)]
            try:
                for i in range(max(1, j), n):
                    cval = v.c[(i, j, k)]
                    for r, row in enumerate(v.vectors[(i, -j)]):
                        for s, x in enumerate(row):
                            rhs[r][s] += cval * x
            except KeyError:
                bad.append((j, k))
                continue
            if lhs != rhs:
                bad.append((j, k))
    return bad


def _sign_pattern(v):
    """Recomputed from the table: (strings checked, violations)."""
    strings, violations = 0, []
    for k in range(v.n - 1):
        for i in range(max(1, k), v.n):
            lead = v.c.get((i, k, k), 0)
            if lead == 0:
                continue
            strings += 1
            for j in range(k, i + 1):
                val = v.c.get((i, j, k), 0)
                if val == 0 or (val > 0) != (lead > 0):
                    violations.append((i, j, k))
    return strings, violations


def check_tables(v):
    n = v.n
    strings, violations = _sign_pattern(v)
    string_bad = _string_bad(v)
    a_bad = _a_table_bad(v)
    c_bad = _c_table_bad(v)
    corner = v.c.get((n - 1, n - 1, n - 2))
    return [
        Check("sl2_triple", _triple_ok(v), "[e,f]=h, [h,e]=2e, [h,f]=-2f"),
        Check("weights", _weights_ok(v), "[h, v_ij] = 2j v_ij"),
        Check("ad_f_strings", not string_bad, f"bad (i,j): {string_bad[:3]}"),
        Check("a_table", not a_bad, f"bad (i,j): {a_bad[:3]}"),
        Check("c_table", not c_bad, f"bad (j,k): {c_bad[:3]}"),
        Check("c_corner", corner == 2 * (n - 1),
              f"c[n-1,n-1,n-2] = {corner}, want {2 * (n - 1)}"),
        Check("sign_pattern",
              not violations and strings > 0 and v.sign_ok
              and strings == v.sign_strings,
              f"{strings} strings, violations {violations[:3]}, "
              f"program says ok={v.sign_ok} over {v.sign_strings}"),
    ]


# ---------------------------------------------------------------------------
# exact deformation-kernel certificates

@dataclass
class SolvabilityView:
    n: int
    D: int
    rows: list             # the joint system, Fraction entries
    joint_kernel_dim: int
    tangent_dim: int
    homogeneous_kernel_dim: int
    traceless_homogeneous_kernel_dim: int


def solvability_view(op, rep, rows):
    return SolvabilityView(op.n, rep.D, rows, rep.joint_kernel_dim,
                           rep.tangent_dim, rep.homogeneous_kernel_dim,
                           rep.traceless_homogeneous_kernel_dim)


def rank_mod_p(rows, p=PRIME):
    """Rank over GF(p); never exceeds the rank over the rationals."""
    def residue(x):
        q = Fraction(x)
        return q.numerator % p * pow(q.denominator, -1, p) % p
    a = np.array([[residue(x) for x in row] for row in rows], dtype=np.int64)
    nrows, ncols = a.shape
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        nz = np.flatnonzero(a[r:, col])
        if not len(nz):
            continue
        piv = r + nz[0]
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r] = a[r] * pow(int(a[r, col]), -1, p) % p
        below = r + 1 + np.flatnonzero(a[r + 1:, col])
        if len(below):
            a[below] = (a[below] - a[below, col:col + 1] * a[r] % p) % p
        r += 1
    return r


def identity_in_kernel(v):
    """Omega = I (constant), pdot = 0 solves the joint system.  Columns hold
    the entries of Omega_b for b = D .. 0, row-major, so Omega_0's diagonal
    sits at D n^2 + a n + a."""
    cols = [v.D * v.n * v.n + a * v.n + a for a in range(v.n)]
    return all(sum(row[c] for c in cols) == 0 for row in v.rows)


def check_solvability(v):
    kernel_p = len(v.rows[0]) - rank_mod_p(v.rows)
    return [
        Check("tangent_dim", v.tangent_dim == 0,
              f"tangent_dim {v.tangent_dim}"),
        Check("scalar_kernel",
              v.homogeneous_kernel_dim == 1
              and v.traceless_homogeneous_kernel_dim == 0,
              f"homogeneous {v.homogeneous_kernel_dim}, traceless "
              f"{v.traceless_homogeneous_kernel_dim}"),
        Check("identity_in_kernel", identity_in_kernel(v), "Omega = I"),
        Check("kernel_mod_p", kernel_p == v.joint_kernel_dim == 1,
              f"mod-p kernel {kernel_p}, program {v.joint_kernel_dim}"),
    ]
