"""Exact rational linear algebra on sparse integer rows.

All kernel/rank/solve computations used for certificates go through the
fraction-free integer elimination in this module, and this is the one place
that turns rational rows into integer ones.  Entries must be ints or
Fractions (anything with integer `numerator` and `denominator`); a float
raises.  A row is a sequence, or a dict {column: nonzero entry}, and is
held as a dict {column: nonzero int}, so the work follows the nonzeros of
the structured systems built here rather than their width.  Kernel vectors
come back as primitive integer vectors, so results are exact by
construction (no floating point anywhere).  modular_rank is the one
computation over a finite field: a lower bound on the rank over Q.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from math import gcd

import numpy as np

QQ = Fraction


def qzeros(n, m=None):
    if m is None:
        m = n
    z = QQ(0)
    return np.array([[z] * m for _ in range(n)], dtype=object)


def commutator(x, y):
    return x @ y - y @ x


def mat_trace(m):
    return sum(m[i, i] for i in range(m.shape[0]))


def _entries(row):
    """(column, entry) pairs of a dense row, or of a sparse one {column:
    nonzero entry}."""
    return row.items() if isinstance(row, dict) else enumerate(row)


def _integer_rows(m):
    """Scale each row by the lcm of its denominators into a sparse row
    {column: nonzero int}; returns (rows, column count of the dense rows).

    Reads each entry's own numerator/denominator, so no Fraction is built."""
    out = []
    ncols = 0
    for row in m:
        den = 1
        for _, x in _entries(row):
            d = x.denominator
            if d != 1:
                den = den * d // gcd(den, d)
        out.append({c: x.numerator * (den // x.denominator)
                    for c, x in _entries(row) if x})
        if not isinstance(row, dict):
            ncols = len(row)
    return out, ncols


def _strip_content(row):
    g = 0
    for x in row.values():
        g = gcd(g, x)
        if g == 1:
            return row
    if g > 1:
        return {c: x // g for c, x in row.items()}
    return row


def _echelon(rows):
    """Fraction-free sparse row echelon form: {leading column: pivot row}.

    Rows are taken in order; each is reduced against the stored pivot row of
    its leading column until it starts on a new column, where it becomes that
    column's pivot row, or vanishes.  The update uses gcd-reduced cross
    multipliers plus content stripping (Bareiss 1968), which keeps entries
    integral and empirically small on the sparse structured systems built
    here.  Any echelon form has the same pivot columns.
    """
    pivots = {}
    for row in rows:
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None:
                pivots[c] = _strip_content(row)
                break
            g = gcd(prow[c], row[c])
            a, b = prow[c] // g, row[c] // g
            new = {j: a * x for j, x in row.items()}
            for j, y in prow.items():
                x = new.get(j, 0) - b * y
                if x:
                    new[j] = x
                else:
                    del new[j]
            row = _strip_content(new)
    return pivots


def modular_rank(m, p):
    """Rank over GF(p) of rows with int/Fraction entries, or None when an
    entry's denominator is divisible by p.

    Reduction mod p is a ring map on the p-integral rationals, so the rank
    mod p never exceeds the rank over Q (it drops at finitely many unlucky
    primes).  The elimination is _echelon's: rows in order, each reduced
    against the pivot row of its leading (minimal) column, held here as the
    monic row's tail.  A row's columns are visited in increasing order off
    a heap, and its entries are reduced mod p only when they lead.
    """
    pivots = {}
    for row in m:
        red = {}
        for c, x in _entries(row):
            den = x.denominator
            if den % p == 0:
                return None
            if x:
                red[c] = x.numerator * pow(den, -1, p)
        heap = sorted(red)
        while heap:
            c = heappop(heap)
            f = red.pop(c) % p
            if not f:
                continue
            tail = pivots.get(c)
            if tail is None:
                inv = pow(f, -1, p)
                pivots[c] = {j: y for j, x in red.items()
                             if (y := x * inv % p)}
                break
            # every column of the tail lies past c, so none is visited twice
            for j, y in tail.items():
                x = red.get(j)
                if x is None:
                    red[j] = -f * y
                    heappush(heap, j)
                else:
                    red[j] = x - f * y
    return len(pivots)


def _back_substitute(pivots, free_col, ncols):
    """Primitive integer kernel vector of the echelon system as a dense
    object array: zero at the other free columns, positive at free_col (its
    last nonzero entry).

    Fraction-free: x stays integral by scaling the solved part by
    |pivot| / gcd(pivot, s) whenever a pivot does not divide its row sum s."""
    x = {free_col: 1}
    for pc in sorted((c for c in pivots if c < free_col), reverse=True):
        row = pivots[pc]
        s = sum(v * x[c] for c, v in row.items() if c in x)
        if not s:
            continue
        piv = row[pc]
        g = gcd(piv, s)
        scale = abs(piv) // g
        if scale != 1:
            x = {c: v * scale for c, v in x.items()}
        x[pc] = -s // g if piv > 0 else s // g
    v = np.zeros(ncols, dtype=object)
    for c, xc in _strip_content(x).items():
        v[c] = xc
    return v


def _kernel(pivots, ncols):
    return [_back_substitute(pivots, c, ncols)
            for c in range(ncols) if c not in pivots]


def exact_rank(m):
    return len(_echelon(_integer_rows(m)[0]))


def exact_nullspace(m, ncols=None):
    """Exact kernel basis of a matrix over the rationals.

    Accepts any iterable of rows with Fraction/int entries; ncols, the
    column count, is needed when the rows are sparse.  Returns a list of
    primitive integer column vectors (object arrays of Python ints, gcd 1,
    one per free column, positive there and zero at the other free columns);
    empty list when the kernel is trivial.  Basis vectors satisfy
    m @ v == 0 exactly.
    """
    rows, width = _integer_rows(m)
    return _kernel(_echelon(rows), width if ncols is None else ncols)


def exact_solve(m, b):
    """Solve m x = b exactly; m and b must have the same number of rows.

    Returns (particular, kernel_basis) or None when inconsistent.  The
    particular solution (Fractions) sets all free variables to zero: from the
    augmented system's kernel vector v, positive at the b column, it is
    -v_i / v_b.  kernel_basis is as in exact_nullspace.
    """
    rows, ncols = _integer_rows(
        [list(row) + [bi] for row, bi in zip(m, b, strict=True)])
    nc_m = max(ncols - 1, 0)
    pivots = _echelon(rows)
    if nc_m in pivots:
        return None
    v = _back_substitute(pivots, nc_m, nc_m + 1)
    vb = v[nc_m]
    return (np.array([QQ(-vi, vb) for vi in v[:nc_m]], dtype=object),
            _kernel(pivots, nc_m))


def rational_str(q):
    """Canonical num/den rendering used by the table serializers."""
    q = QQ(q)
    return f"{q.numerator}/{q.denominator}"
