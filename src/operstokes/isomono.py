"""Polynomial deformation systems for cyclic opers.

A cyclic oper point is the monic trace-free polynomial p of degree d = kn;
its connection matrix is A = e + p f_{n-1} with e the principal nilpotent and
f_{n-1} the corner lowest-weight vector.  This module decides, exactly over
the rationals, whether the deformation equation

    dOmega/dz = pdot f_{n-1} + [A, Omega]

admits polynomial solutions: the dimension of admissible pdot (tangent_dim)
and of the homogeneous kernel are read off the kernel of the joint linear
system in the coefficients of Omega (deg <= D) and pdot (deg <= d-2).  That
kernel always holds Omega = I; when its dimension mod one prime is 1 it is
span(I), and otherwise it comes from one exact nullspace.

It also reduces the matrix equation to the n^2-1 scalar equations in the
weight-basis coefficients omega_{i,j}, expands the (2i+1)-fold derivative of
each top coefficient omega_{i,i} symbolically into sign-coherent groups of
p^(a) omega_{m,m}^(b) terms, and replays the degree-count contradiction that
rules out nontrivial polynomial solutions.
"""

from __future__ import annotations

import cmath
import numbers
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .exactla import QQ, exact_nullspace, exact_rank, modular_rank, qzeros
from .poly import Poly
from .sl2 import (build_weight_basis, compute_structure_tables, principal_sl2)


@lru_cache(maxsize=None)
def algebra_data(n):
    """Shared per-n exact data: (triple, weight basis, structure tables)."""
    tri = principal_sl2(n)
    basis = build_weight_basis(tri)
    tables = compute_structure_tables(basis)
    return tri, basis, tables


def _is_exact(x):
    return isinstance(x, (int, Fraction))


@dataclass(frozen=True)
class OperPoint:
    """p(z) = z^d + c_{d-2} z^{d-2} + ... + c_0 with d = k*n (no z^{d-1} term)."""
    n: int
    k: int
    coeffs: tuple

    def __post_init__(self):
        for name in ("n", "k"):
            if type(getattr(self, name)) is not int:  # no float, no bool
                raise ValueError(f"{name} must be an int, got "
                                 f"{getattr(self, name)!r}")
        if self.n < 2:
            raise ValueError("need n >= 2")
        if self.k < 1:
            raise ValueError("need k >= 1")
        d = self.n * self.k
        if len(self.coeffs) != d - 1:
            raise ValueError(f"need d-1 = {d-1} coefficients c_0..c_{d-2}, got {len(self.coeffs)}")
        for m, c in enumerate(self.coeffs):
            if isinstance(c, bool) or not isinstance(c, numbers.Complex):
                raise ValueError(f"coefficient c_{m} must be a number, got "
                                 f"{c!r}")
            if not (_is_exact(c) or cmath.isfinite(c)):
                raise ValueError(f"coefficient c_{m} must be finite, got {c!r}")
        object.__setattr__(self, "coeffs", tuple(
            QQ(c) if isinstance(c, int) else c for c in self.coeffs))

    @property
    def d(self):
        return self.n * self.k

    @property
    def exact(self):
        return all(_is_exact(c) for c in self.coeffs)

    def p(self):
        one = QQ(1) if self.exact else 1.0 + 0j
        return Poly(list(self.coeffs) + [0 * one, one])

    def p_coeff(self, m):
        if m == self.d:
            return QQ(1) if self.exact else 1.0 + 0j
        if m == self.d - 1 or m < 0 or m > self.d:
            return QQ(0) if self.exact else 0j
        return self.coeffs[m]


def corner_vector(n):
    """f_{n-1} = E_{n,1}: the single matrix spanning the lowest band."""
    f = qzeros(n)
    f[n - 1, 0] = QQ(1)
    return f


def connection_matrix(op):
    """A(z) = e + p(z) f_{n-1} as a list of coefficient matrices [A_0..A_d]."""
    n = op.n
    tri, _, _ = algebra_data(n)
    out = []
    for m in range(op.d + 1):
        c = op.p_coeff(m)
        mat = np.array(tri.e) if m == 0 else qzeros(n)
        if c:
            mat = mat + c * corner_vector(n)
        out.append(mat)
    return out


# ---------------------------------------------------------------------------
# matrix-polynomial arithmetic (lists of n x n coefficient matrices)

def mp_derivative(ms):
    if len(ms) <= 1:
        return [0 * ms[0]]
    return [m * ms[m] for m in range(1, len(ms))]


def mp_commutator(xs, ys):
    n = xs[0].shape[0]
    out = [np.zeros((n, n), dtype=object) for _ in range(len(xs) + len(ys) - 1)]
    for a, xa in enumerate(xs):
        if not np.any(xa != 0):
            continue
        for b, yb in enumerate(ys):
            if not np.any(yb != 0):
                continue
            out[a + b] = out[a + b] + (xa @ yb - yb @ xa)
    return out


def mp_sub(xs, ys):
    ln = max(len(xs), len(ys))
    n = xs[0].shape[0]
    zero = np.zeros((n, n), dtype=object)
    return [(xs[m] if m < len(xs) else zero) - (ys[m] if m < len(ys) else zero)
            for m in range(ln)]


def apply_deformation(op, omega, pdot):
    """Residual Omega' - [A, Omega] - pdot f_{n-1}, coefficient-wise.

    omega: list of coefficient matrices; pdot: Poly.  Exact when inputs are.
    Independent of the assembled linear system -- used to cross-check it.
    """
    a = connection_matrix(op)
    res = mp_sub(mp_derivative(omega), mp_commutator(a, omega))
    f = corner_vector(op.n)
    for m in range(pdot.degree + 1):
        c = pdot.coeff(m)
        if c:
            if m >= len(res):
                res = res + [0 * f for _ in range(m + 1 - len(res))]
            res[m] = res[m] - c * f
    return res


# ---------------------------------------------------------------------------
# the joint linear system

def _omega_col(D, nn, b, a, c):
    # variables ordered by descending degree keeps the system close to banded
    return (D - b) * nn * nn + a * nn + c


def joint_rows(op, D):
    """Sparse rows of the joint system, one dict {column: nonzero int or
    Fraction} per equation.

    Rows: coefficient (z^m, entry (a,c)) of Omega' - [A, Omega] - pdot f_{n-1}
    for m = D+d .. 0 descending; columns: entries of Omega_b for b = D .. 0
    descending (_omega_col), then the pdot coefficients of degree d-2 .. 0.
    The terms of one row land on distinct columns.
    """
    n = op.n
    d = op.d
    base = n * n * (D + 1)
    pcs = [(s, op.p_coeff(s)) for s in range(d + 1) if op.p_coeff(s)]
    rows = []
    for m in range(D + d, -1, -1):
        for a in range(n):
            for c in range(n):
                row = {}
                if m + 1 <= D:
                    row[_omega_col(D, n, m + 1, a, c)] = m + 1
                # -[e, Omega_m];  e has e[a, a+1] = a+1
                if m <= D:
                    if a + 1 < n:
                        row[_omega_col(D, n, m, a + 1, c)] = -(a + 1)
                    if c >= 1:
                        row[_omega_col(D, n, m, a, c - 1)] = c
                # -p_s [f, Omega_{m-s}];  f = E_{n,1}
                for s, pc in pcs:
                    b = m - s
                    if not 0 <= b <= D:
                        continue
                    if a == n - 1:
                        row[_omega_col(D, n, b, 0, c)] = -pc
                    if c == 0:
                        row[_omega_col(D, n, b, a, n - 1)] = pc
                # -pdot_m f_{n-1}
                if a == n - 1 and c == 0 and m <= d - 2:
                    row[base + (d - 2 - m)] = -1
                rows.append(row)
    return rows


def joint_system(op, D):
    """joint_rows as dense rows: unknowns (Omega coefficients, pdot
    coefficients).  Entries are ints and Fractions."""
    ncols = op.n * op.n * (D + 1) + op.d - 1
    dense = []
    for row in joint_rows(op, D):
        out = [0] * ncols
        for col, x in row.items():
            out[col] = x
        dense.append(out)
    return dense


@dataclass
class SolvabilityReport:
    op: OperPoint
    D: int
    joint_kernel_dim: int
    tangent_dim: int
    homogeneous_kernel_dim: int
    traceless_homogeneous_kernel_dim: int
    witness: object = None          # (pdot Poly, omega list) when tangent_dim > 0
    timing: float = 0.0
    certificate: str = "elimination"  # or IDENTITY_CERTIFICATE


def _kernel_vector_parts(op, D, vec):
    n = op.n
    omega = []
    for b in range(D + 1):
        mat = qzeros(n)
        for a in range(n):
            for c in range(n):
                mat[a, c] = vec[_omega_col(D, n, b, a, c)]
        omega.append(mat)
    base = n * n * (D + 1)
    qcoeffs = [vec[base + (op.d - 2 - m)] for m in range(op.d - 1)]
    return omega, Poly(qcoeffs)


# the prime of the modular certificate: large enough that an unlucky one
# (rank drop, denominator divisible by it) is a remote event on these rows
CERTIFICATE_PRIME = 2 ** 61 - 1
IDENTITY_CERTIFICATE = "identity mod 2^61-1"


def solvability(op, D=None):
    """Exact kernel of the joint deformation system; dims and optional witness.
    Rational points only: a float rank estimate would be no certificate.

    Omega = I, pdot = 0 solves the system (checked exactly).  When the kernel
    mod CERTIFICATE_PRIME has dimension 1, the kernel over Q, which is no
    larger, is span(I): joint 1, tangent 0, homogeneous 1 and, as tr I = n,
    traceless homogeneous 0, with no rational elimination.  Otherwise the
    kernel comes from the fraction-free elimination of the same rows."""
    if not op.exact:
        raise ValueError("solvability needs an exact rational oper point")
    if D is None:
        D = 2 * (op.d + op.n)
    if type(D) is not int:                    # no float, no bool
        raise ValueError(f"degree cap D must be an int, got {D!r}")
    if D < 0:
        raise ValueError(f"degree cap D must be >= 0, got {D!r}")
    t0 = time.perf_counter()
    rows = joint_rows(op, D)
    n = op.n
    base = n * n * (D + 1)
    nq = op.d - 1
    diagonal = [_omega_col(D, n, 0, a, a) for a in range(n)]
    if any(sum(row.get(col, 0) for col in diagonal) for row in rows):
        raise ArithmeticError("Omega = I fails the joint system")
    if modular_rank(rows, CERTIFICATE_PRIME) == base + nq - 1:
        return SolvabilityReport(
            op=op, D=D, joint_kernel_dim=1, tangent_dim=0,
            homogeneous_kernel_dim=1, traceless_homogeneous_kernel_dim=0,
            timing=time.perf_counter() - t0, certificate=IDENTITY_CERTIFICATE)
    kernel = exact_nullspace(rows, base + nq)
    s = len(kernel)
    qmatrix = [[v[base + t] for t in range(nq)] for v in kernel]
    tangent = exact_rank(qmatrix) if s else 0
    # trace functionals Tr(Omega_b) on the kernel, stacked after the q block
    tmatrix = []
    for v in kernel:
        trw = []
        for b in range(D + 1):
            trw.append(sum(v[_omega_col(D, n, b, a, a)] for a in range(n)))
        tmatrix.append([v[base + t] for t in range(nq)] + trw)
    hom = s - tangent
    traceless_hom = (s - exact_rank(tmatrix)) if s else 0
    witness = None
    if tangent > 0:
        for v in kernel:
            if any(v[base + t] for t in range(nq)):
                omega, pdot = _kernel_vector_parts(op, D, v)
                res = apply_deformation(op, omega, pdot)
                if any(np.any(mat != 0) for mat in res):
                    raise ArithmeticError("kernel vector failed exact re-substitution")
                witness = (pdot, omega)
                break
    return SolvabilityReport(
        op=op, D=D, joint_kernel_dim=s, tangent_dim=tangent,
        homogeneous_kernel_dim=hom, traceless_homogeneous_kernel_dim=traceless_hom,
        witness=witness, timing=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# scalar reduction

class ScalarSystem:
    """The n^2-1 first-order equations for the weight-basis coefficients.

    equations[(i,j)] is the right-hand side of omega_{i,j}' as a list of
    (coefficient, atom) terms in _differentiate_atoms' atoms:
        ("om", i2, j2)       -> omega_{i2,j2}
        ("pom", 0, i2, j2)   -> p * omega_{i2,j2}
        ("pd", 0)            -> pdot
    For j >= 1, omega_{i,j}' = omega_{i,j-1}, and for jj = 0..i
        omega_{i,-jj}' = [omega_{i,-jj-1} if jj < i; pdot if jj = i = n-1]
            + sum_{kk=0}^{min(jj,n-2)} c_{i,jj,kk} p omega_{n-1-kk,n-1-jj}.
    """

    def __init__(self, n):
        _, _, tables = algebra_data(n)
        self.n = n
        self.equations = {}
        for i in range(1, n):
            for j in range(1, i + 1):
                self.equations[(i, j)] = [(QQ(1), ("om", i, j - 1))]
            for jj in range(0, i + 1):
                if jj < i:
                    terms = [(QQ(1), ("om", i, -jj - 1))]
                else:
                    terms = [(QQ(1), ("pd", 0))] if i == n - 1 else []
                for kk in range(0, min(jj, n - 2) + 1):
                    cv = tables.c_val(i, jj, kk)
                    if cv:
                        terms.append((cv, ("pom", 0, n - 1 - kk, n - 1 - jj)))
                self.equations[(i, -jj)] = terms
        if len(self.equations) != n * n - 1:
            raise ArithmeticError("scalar system must have n^2-1 equations")

    def residuals(self, omega, p, pdot):
        """omega_{i,j}' - RHS for every (i,j); omega maps (i,j) -> Poly."""
        out = {}
        zero = Poly([])
        for key, terms in self.equations.items():
            r = omega.get(key, zero).derivative()
            for coeff, atom in terms:
                if atom[0] == "om":
                    r = r - coeff * omega.get(atom[1:], zero)
                elif atom[0] == "pom":
                    r = r - coeff * (p * omega.get(atom[2:], zero))
                else:
                    r = r - coeff * pdot
            out[key] = r
        return out


def matrix_from_scalar(n, omega):
    """Sum omega_{i,j}(z) v_{i,j} as a matrix polynomial (list of matrices)."""
    _, basis, _ = algebra_data(n)
    deg = max((pol.degree for pol in omega.values()), default=0)
    deg = max(deg, 0)
    out = [qzeros(n) for _ in range(deg + 1)]
    for (i, j), pol in omega.items():
        v = basis.vec(i, j)
        for m in range(pol.degree + 1):
            c = pol.coeff(m)
            if c:
                out[m] = out[m] + c * v
    return out


def scalar_from_matrix(n, mats):
    """Decompose each coefficient matrix in the weight basis -> (i,j) -> Poly."""
    _, basis, _ = algebra_data(n)
    acc = {}
    for m, mat in enumerate(mats):
        if not np.any(mat != 0):
            continue
        for key, val in basis.decompose(mat).items():
            acc.setdefault(key, {})[m] = val
    out = {}
    for key, cmap in acc.items():
        top = max(cmap)
        out[key] = Poly([cmap.get(t, QQ(0)) for t in range(top + 1)])
    return out


def reduction_residual_pair(op, omega_scalar, pdot):
    """(matrix residual decomposed, scalar residuals) -- must agree exactly."""
    n = op.n
    mats = matrix_from_scalar(n, omega_scalar)
    res_mat = apply_deformation(op, mats, pdot)
    lhs = scalar_from_matrix(n, res_mat)
    sys_ = ScalarSystem(n)
    rhs = sys_.residuals(omega_scalar, op.p(), pdot)
    return lhs, rhs


# ---------------------------------------------------------------------------
# weight expressions

class WeightExpansionError(ArithmeticError):
    pass


def _differentiate_atoms(system, expr):
    """One z-derivative of a combination of atoms.

    Atoms: ("om", i, j) = omega_{i,j};  ("pom", a, m, j) = p^(a) omega_{m,j};
    ("pd", a) = pdot^(a).  An omega atom is replaced by the right-hand side
    of its equation in the scalar system, whose terms are atoms already.
    """
    out = {}

    def add(atom, c):
        out[atom] = out.get(atom, QQ(0)) + c
        if not out[atom]:
            del out[atom]

    for atom, coeff in expr.items():
        kind = atom[0]
        if kind == "om":
            for c, term in system.equations[atom[1:]]:
                add(term, coeff * c)
        elif kind == "pom":
            _, a, m, j = atom
            if j < 1:
                raise WeightExpansionError(
                    f"p^({a}) omega_{{{m},{j}}} would need the coupled equations")
            add(("pom", a + 1, m, j), coeff)
            add(("pom", a, m, j - 1), coeff)
        else:
            add(("pd", atom[1] + 1), coeff)
    return out


@dataclass
class WeightGroup:
    m: int                     # string index of the omega_{m,m} it references
    leader: int                # j with m = n-1-j
    weight: int                # common a + (m - j') over the group's atoms
    sign: int
    terms: list                # (coefficient, a, b) meaning coeff p^(a) w_m^(b)


@dataclass
class WeightReport:
    n: int
    per_string: dict = field(default_factory=dict)   # i -> list[WeightGroup]
    pdot_terms: dict = field(default_factory=dict)   # i -> coefficient of pdot
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations


def weight_expression_check(op_or_n):
    """Expand omega_{i,i}^(2i+1) for every string i and audit the group laws.

    Checks, for each i: the groups are exactly {m = n-1-j : c_{i,j,j} != 0};
    inside a group every term p^(a) w_m^(b) has a + b equal to the group
    weight i-j; all coefficients in a group share one sign; pdot appears
    exactly for i = n-1, with coefficient 1.
    """
    n = op_or_n.n if isinstance(op_or_n, OperPoint) else int(op_or_n)
    _, _, tables = algebra_data(n)
    system = ScalarSystem(n)
    report = WeightReport(n=n)
    for i in range(1, n):
        expr = {("om", i, i): QQ(1)}
        for _ in range(2 * i + 1):
            expr = _differentiate_atoms(system, expr)
        groups = {}
        for atom, coeff in expr.items():
            if atom[0] == "om":
                report.violations.append(("raw-omega-survives", i, atom))
                continue
            if atom[0] == "pd":
                if atom[1] != 0:
                    report.violations.append(("pdot-derivative", i, atom))
                report.pdot_terms[i] = report.pdot_terms.get(i, QQ(0)) + coeff
                continue
            _, a, m, j = atom
            if j < 0:
                report.violations.append(("negative-omega-index", i, atom))
                continue
            groups.setdefault(m, []).append((coeff, a, m - j))
        expected = {n - 1 - j for j in range(0, min(i, n - 2) + 1)
                    if tables.c_val(i, j, j) != 0}
        if set(groups) != expected:
            report.violations.append(("group-set", i, sorted(groups), sorted(expected)))
        out_groups = []
        for m, terms in sorted(groups.items()):
            leader = n - 1 - m
            weights = {a + b for (_, a, b) in terms}
            if weights != {i - leader}:
                report.violations.append(("group-weight", i, m, sorted(weights), i - leader))
            signs = {1 if c > 0 else -1 for (c, _, _) in terms if c}
            lead_sign = 1 if tables.c_val(i, leader, leader) > 0 else -1
            if len(signs) != 1 or signs != {lead_sign}:
                report.violations.append(("group-sign", i, m, sorted(signs), lead_sign))
            out_groups.append(WeightGroup(
                m=m, leader=leader, weight=i - leader, sign=lead_sign,
                terms=sorted(terms, key=lambda t: (t[1], t[2]))))
        report.per_string[i] = out_groups
        if i == n - 1:
            if report.pdot_terms.get(i) != QQ(1):
                report.violations.append(("pdot-coefficient", i, report.pdot_terms.get(i)))
        elif i in report.pdot_terms:
            report.violations.append(("pdot-unexpected", i, report.pdot_terms[i]))
    return report


# ---------------------------------------------------------------------------
# degree bookkeeping

@dataclass
class ObstructionRow:
    i: int
    leader: int
    lhs_degree: int     # deg of w_i^(2i+1) under the hypothetical degrees
    rhs_degree: int     # deg of the group-m block, no internal cancellation
    holds: bool


@dataclass
class ObstructionReport:
    n: int
    d: int
    d0: int
    rows: list

    @property
    def contradiction(self):
        return all(not r.holds for r in self.rows) and bool(self.rows)


def degree_obstruction(op, degrees):
    """Replay the degree-count contradiction for hypothetical deg omega_{i,i}.

    degrees: int (common bound) or dict i -> degree.  For every string i
    attaining the maximum d0 and every group in its weight expression, a
    polynomial solution would need  d0 - (2i+1) >= d + d0 - i + leader,
    which fails for all d >= 2; the i = n-1 string additionally uses the
    strict bound deg pdot <= d-2 < d-1.
    """
    n, d = op.n, op.d
    if isinstance(degrees, int):
        degrees = {i: degrees for i in range(1, n)}
    d0 = max(degrees.values())
    wr = weight_expression_check(n)
    if not wr.ok:
        raise WeightExpansionError(f"weight expansion violations: {wr.violations}")
    rows = []
    for i, deg_i in sorted(degrees.items()):
        if deg_i != d0:
            continue
        for grp in wr.per_string[i]:
            lhs = d0 - (2 * i + 1)
            rhs = d + d0 - i + grp.leader
            rows.append(ObstructionRow(i=i, leader=grp.leader,
                                       lhs_degree=lhs, rhs_degree=rhs,
                                       holds=lhs >= rhs))
    return ObstructionReport(n=n, d=d, d0=d0, rows=rows)
