"""Exact rational linear algebra on dense matrices.

All kernel/rank/solve computations used for certificates go through the
fraction-free integer elimination in this module, and this is the one place
that turns rational rows into integer ones.  Entries must be ints or
Fractions (anything with integer `numerator` and `denominator`); a float
raises.  Kernel vectors come back as primitive integer vectors, so results
are exact by construction (no floating point anywhere).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import numpy as np

QQ = Fraction


def qmat(rows):
    """Matrix of Fractions (numpy object array) from an iterable of rows."""
    return np.array([[QQ(x) for x in row] for row in rows], dtype=object)


def qzeros(n, m=None):
    if m is None:
        m = n
    z = QQ(0)
    return np.array([[z] * m for _ in range(n)], dtype=object)


def qeye(n):
    m = qzeros(n)
    for i in range(n):
        m[i, i] = QQ(1)
    return m


def commutator(x, y):
    return x @ y - y @ x


def mat_trace(m):
    return sum(m[i, i] for i in range(m.shape[0]))


def _integer_rows(m):
    """Scale each row by the lcm of its denominators; returns list[list[int]].

    Reads each entry's own numerator/denominator, so no Fraction is built."""
    out = []
    for row in m:
        den = 1
        for x in row:
            d = x.denominator
            if d != 1:
                den = den * d // gcd(den, d)
        out.append([x.numerator * (den // x.denominator) for x in row])
    return out


def _strip_content(row):
    g = 0
    for x in row:
        if x:
            g = gcd(g, x if x > 0 else -x)
            if g == 1:
                return row
    if g > 1:
        return [x // g for x in row]
    return row


def _echelon(rows):
    """In-place fraction-free row echelon form.

    Returns the list of pivot columns.  Update rule uses gcd-reduced cross
    multipliers plus content stripping, which keeps entries integral and
    empirically small on the sparse structured systems built here.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        # smallest nonzero pivot by absolute value limits growth
        best = -1
        for i in range(r, nrows):
            v = rows[i][c]
            if v and (best < 0 or abs(v) < abs(rows[best][c])):
                best = i
        if best < 0:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        piv = rows[r][c]
        prow = rows[r]
        for i in range(r + 1, nrows):
            v = rows[i][c]
            if not v:
                continue
            g = gcd(piv if piv > 0 else -piv, v if v > 0 else -v)
            a, b = piv // g, v // g
            ri = rows[i]
            rows[i] = _strip_content([a * x - b * y for x, y in zip(ri, prow)])
        pivots.append(c)
        r += 1
    return pivots


def _back_substitute(rows, pivots, free_col, ncols):
    """Primitive integer kernel vector of the echelon system: zero at the
    other free columns, positive at free_col (its last nonzero entry).

    Fraction-free: x stays integral by scaling the solved part by
    |pivot| / gcd(pivot, s) whenever a pivot does not divide its row sum s."""
    x = [0] * ncols
    x[free_col] = 1
    for r in range(len(pivots) - 1, -1, -1):
        pc = pivots[r]
        row = rows[r]
        s = 0
        for c in range(pc + 1, ncols):
            if row[c] and x[c]:
                s += row[c] * x[c]
        if not s:
            continue
        piv = row[pc]
        g = gcd(piv, s)
        scale = abs(piv) // g
        if scale != 1:
            x = [v * scale for v in x]
        x[pc] = -s // g if piv > 0 else s // g
    return _strip_content(x)


def exact_rank(m):
    rows = _integer_rows(m)
    if not rows:
        return 0
    return len(_echelon(rows))


def _kernel(rows, pivots, ncols):
    pivot_set = set(pivots)
    return [np.array(_back_substitute(rows, pivots, c, ncols), dtype=object)
            for c in range(ncols) if c not in pivot_set]


def exact_nullspace(m):
    """Exact kernel basis of a matrix over the rationals.

    Accepts any iterable of rows with Fraction/int entries.  Returns a list of
    primitive integer column vectors (object arrays of Python ints, gcd 1,
    one per free column, positive there and zero at the other free columns);
    empty list when the kernel is trivial.  Basis vectors satisfy
    m @ v == 0 exactly.
    """
    rows = _integer_rows(m)
    if not rows:
        return []
    return _kernel(rows, _echelon(rows), len(rows[0]))


def exact_solve(m, b):
    """Solve m x = b exactly.

    Returns (particular, kernel_basis) or None when inconsistent.  The
    particular solution (Fractions) sets all free variables to zero: from the
    augmented system's kernel vector v, positive at the b column, it is
    -v_i / v_b.  kernel_basis is as in exact_nullspace.
    """
    rows = _integer_rows([list(row) + [bi] for row, bi in zip(m, b)])
    nc_m = len(rows[0]) - 1 if rows else 0
    pivots = _echelon(rows)
    if pivots and pivots[-1] == nc_m:
        return None
    v = _back_substitute(rows, pivots, nc_m, nc_m + 1)
    vb = v[nc_m]
    return (np.array([QQ(-vi, vb) for vi in v[:nc_m]], dtype=object),
            _kernel(rows, pivots, nc_m))


def rational_str(q):
    """Canonical num/den rendering used by the table serializers."""
    q = QQ(q)
    return f"{q.numerator}/{q.denominator}"
