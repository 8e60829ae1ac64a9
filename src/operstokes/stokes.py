"""Numerical Stokes data for canonically normalized cyclic opers.

Common ground: the companion-form connection of y^(n) = p(z) y is pushed to
infinity-normal form by the diagonal gauge g = diag(z^{(n-j)k}); the scalar
trace part (weight c = kn(n+1)/2) is split off in closed form so the working
system is trace-free, at the price of a global determinant twist
sigma = (-1)^{k(n+1)} in the monodromy identity.  A formal gauge
Yhat z^Lambda exp(Q) diagonalizes the system to all orders.  Angles are
tracked as exact Fractions of pi (the anti-Stokes directions are rational
multiples of pi), unwrapped monotonically along the sector chain so the
log-branch bookkeeping stays explicit; z^Lambda always uses the chain branch,
and the single wrap-around factor absorbs exp(-2 pi i Lambda) and sigma.

Canonical frames by collocation: all solutions of the scalar equation are
entire, so the Taylor basis at the origin evaluates exactly anywhere -- no
continuation along paths, hence no loss of recessive content at dominance
dips.  The canonical column of a sector is pinned by collocation: its content
along every foreign mode, read against the truncated formal frame on a
moderate reading circle, must vanish at an angle inside that mode's
visibility arc (chosen per sector, with the arc past the lower bounding ray
and before the upper one when the pair crosses there), with unit self-content
at a normalization angle.  This matters because a canonical column generally
jumps at both of its bounding rays, so no single seed direction characterizes
it; a set of per-mode reading angles does.  Every sector is collocated twice
at spread-apart angles (the A and B builds) and consecutive factors pair A
with B, so the closure of the monodromy identity measures true disagreement
between independent constructions instead of telescoping to zero.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import mul

import numpy as np

from .exactla import QQ, qzeros
from .isomono import OperPoint


# ---------------------------------------------------------------------------
# numeric context: the working precision and the arithmetic that carries it

class NumericContext:
    """Working precision of a run: scalars in IEEE doubles (cmath, complex128
    arrays) up to 53 bits, above in a private mpmath context at `bits`
    (object arrays, whose eye holds exact int 0 and 1), and `frac`, the
    fraction bits of every fixed-point construction, rounded once to the
    working precision by _rounded.  `double` selects the 53-bit collocation
    (_double_quotients) and the entire basis' term cut.  mpmath is imported
    by the first multiprecision context or root table."""

    def __init__(self, bits):
        self.double = bits <= 53
        self.bits = max(bits, 53)
        self.frac = self.bits + _GUARD_BITS
        if self.double:
            self.real, self.complex = float, complex
            self.exp, self.log = cmath.exp, cmath.log
            self.dtype = complex
            self._pi = math.pi
        else:
            mp = _mpmath_at(bits)
            self.real, self.complex = mp.mpf, mp.mpc
            self.exp, self.log = mp.exp, mp.log
            self.dtype = object
            self._pi = +mp.pi
        self._one = self.complex(1)

    def pi(self):
        return self._pi

    def one(self):
        return self._one

    def number(self, v):
        """An int, float, complex or Fraction as a working-precision complex;
        a Fraction is divided at the working precision (mpmath takes no
        Fraction)."""
        if isinstance(v, Fraction):
            v = (v.numerator / v.denominator if self.double
                 else self.real(v.numerator) / v.denominator)
        return self.complex(v)

    def eye(self, n):
        return np.eye(n, dtype=self.dtype)


# the numeric context for `bits`, one per precision, shared by every run
make_ctx = functools.lru_cache(maxsize=None)(NumericContext)


@functools.lru_cache(maxsize=None)
def _mpmath_at(prec):
    """A private mpmath context at `prec` bits, one per precision: a clone
    holds reference cycles that only the cyclic collector frees."""
    import mpmath
    mp = mpmath.mp.clone()
    mp.prec = prec
    return mp


# ---------------------------------------------------------------------------
# settings

@dataclass(frozen=True)
class StokesSettings:
    """A fresh run reads on `radius`, or when that is 0 on compute_radius's
    tail-safe circle for radius_tol.  Order 40 keeps that circle small enough
    for the monomials (n, k) = (3, 2), (4, 2), (3, 3), (6, 1) to converge."""
    trunc_order: int = 40        # M: formal series kept through z^{-M}
    radius_tol: float = 1e-10    # target reading accuracy
    radius: float = 0.0          # 0 = the tail-safe circle
    v0: object = None            # base direction, as a Fraction of pi

    def __post_init__(self):
        if not (math.isfinite(self.radius_tol) and self.radius_tol > 0):
            raise ValueError(f"radius_tol must be finite and > 0, got "
                             f"{self.radius_tol!r}")
        if not (math.isfinite(self.radius) and self.radius >= 0):
            raise ValueError(f"radius must be finite and >= 0, got "
                             f"{self.radius!r}")


# ---------------------------------------------------------------------------
# gauge transform

@dataclass(frozen=True)
class GaugedConnection:
    """Trace-free Laurent data B(z) = z^k sum_j B_j z^{-j} plus frame metadata.

    bcoeffs keeps exact Fraction entries whenever the oper point is exact.
    trace_weight is the constant c in Tr B_full = c/z split off by the
    reduction; det_twist = (-1)^{k(n+1)} is the scalar the full product of
    Stokes matrices must reproduce in place of the identity because of that
    split.
    """
    n: int
    k: int
    d: int
    bcoeffs: tuple
    trace_weight: Fraction
    det_twist: int


def gauge_transform(op):
    """Push the companion connection to z = infinity normal form, trace-split.

    The companion matrix (unit superdiagonal, p in the corner) conjugated by
    g = diag(z^{(n-j)k}) becomes z^k times the cyclic shift plus lower-order
    terms, and g contributes the diagonal (n-j)k/z whose trace is removed.
    """
    n, k, d = op.n, op.k, op.d
    jmax = max(d, k + 1)
    bc = [qzeros(n) for _ in range(jmax + 1)]
    for a in range(n - 1):
        bc[0][a, a + 1] = QQ(1)
    bc[0][n - 1, 0] = QQ(1)            # monic top coefficient of p
    for m in range(d - 1):
        c = op.p_coeff(m)
        if c:
            bc[d - m][n - 1, 0] = bc[d - m][n - 1, 0] + c
    cw = QQ(k * n * (n + 1), 2)
    shift = cw / n                      # = k(n+1)/2 per diagonal entry
    for a in range(n):
        bc[k + 1][a, a] = bc[k + 1][a, a] + QQ((n - a) * k) - shift
    twist = -1 if (k * (n + 1)) % 2 else 1
    return GaugedConnection(n=n, k=k, d=d, bcoeffs=tuple(bc),
                            trace_weight=cw, det_twist=twist)


# ---------------------------------------------------------------------------
# formal solution

@dataclass
class FormalSolution:
    """Yhat z^Lambda exp(Q) through order M, in the framed gauge.

    fixed[m] is the z^{-m} coefficient of Yhat (fixed[0] = I) as computed,
    a (2, n, n) array of the real and imaginary parts in fixed point with
    `frac` fraction bits; only the formal inverse (_inverse_table) and the
    tail norms (_tail_norms, which round the last four) read it.
    qcoeffs[j], j = 1..k+1, is the diagonal of the z^j coefficient of Q,
    stored as a vector; lam is the diagonal of Lambda, both rounded once to
    the working precision.
    """
    n: int
    k: int
    M: int
    qcoeffs: dict
    lam: list
    ctx: object
    fixed: list

    def q_entry(self, b, z):
        acc = 0 * z
        for j in range(self.k + 1, 0, -1):
            acc = (acc + self.qcoeffs[j][b]) * z
        return acc

    def trace_residual(self):
        return abs(sum(complex(v) for v in self.lam))


def formal_solution(gc, M, ctx=None):
    """Order-by-order diagonalization, in two stages so levels stay decoupled.

    Stage 1 finds a diagonal-free gauge F = I + sum F_j z^{-j} conjugating the
    system onto a fully diagonal connection sum_j D_j z^{k-j}: at each level
    the off-diagonal part determines F_j (division by eigenvalue differences)
    and the diagonal part is D_j directly.  Q and Lambda read off
    D_0..D_{k+1}; the remaining diagonal tail is integrated term by term as a
    formal series in stage 2 and multiplied back in.

    At every precision this runs on Gaussian integers with `frac` fraction
    bits: the exact B_j framed by the root table's f0, each order's
    convolutions one stacked product shifted back once, the divisions by
    the eigenvalue gaps products with fixed-point reciprocals.  Results are
    rounded once to the working precision (at 53 bits to complex128); Yhat's
    coefficients are kept as computed, unrounded (`fixed`)."""
    if M < gc.k + 2:
        raise ValueError("truncation order must be at least k+2")
    ctx = ctx or make_ctx(53)
    n, k, frac = gc.n, gc.k, ctx.frac
    f0, f0inv = _fixed_frame(ctx, n)
    b = np.array([[[_quantized(c, frac) for c in row] for row in bj]
                  for bj in gc.bcoeffs], dtype=object)
    b = _gauss(np.moveaxis(b, 3, 0), f0, np.matmul) >> frac
    bt = _gauss(f0inv, b, np.matmul) >> frac        # (2, j, n, n): B_j
    lam = f0[:, 1]
    # the leading term must frame to diag(lambda), up to rounding units
    if np.abs(bt[:, 0] - [np.diag(v) for v in lam]).max() > 1 << 8:
        raise ArithmeticError("frame failed to diagonalize the leading term")
    gap = lam[:, None, :] - lam[:, :, None]        # lambda_b - lambda_a
    norm = gap[0] * gap[0] + gap[1] * gap[1] + np.eye(n, dtype=object)
    recip = np.array([gap[0], -gap[1]]) * (1 << 2 * frac) // norm
    levels = k + 2 + M
    F = np.zeros((2, levels, n, n), dtype=object)
    F[0, 0] = np.eye(n, dtype=object) << frac
    D = np.zeros((2, levels, n), dtype=object)
    D[:, 0] = lam
    for j in range(1, levels):
        lo = max(0, j - bt.shape[1] + 1)
        # sum_b B_{j-b} F_b: the B's side by side times the F's stacked
        side = bt[:, j - lo:0:-1].transpose(0, 2, 1, 3).reshape(2, n, -1)
        r = _gauss(side, F[:, lo:j].reshape(2, -1, n), np.matmul)
        r = (r - _gauss(F[:, 1:j], D[:, j - 1:0:-1, None]).sum(axis=1)) >> frac
        if j >= k + 2:
            r = r + (j - k - 1) * F[:, j - k - 1]
        D[:, j] = np.diagonal(r, axis1=1, axis2=2)
        F[:, j] = _gauss(r, recip) >> frac
    # stage 2: diagonal tail u' = (sum_{t>=1} D_{k+1+t} z^{-1-t}) u
    u = np.zeros((2, M + 1, n), dtype=object)
    u[0, 0] = 1 << frac
    for m in range(1, M + 1):
        acc = _gauss(D[:, k + 2:k + 2 + m], u[:, m - 1::-1]).sum(axis=1)
        u[:, m] = -(acc >> frac) // m
    ys = [_gauss(F[:, :m + 1], u[:, m::-1, None]).sum(axis=1) >> frac
          for m in range(M + 1)]
    return FormalSolution(
        n=n, k=k, M=M,
        qcoeffs={k + 1 - s: list(_rounded(ctx, *D[:, s], -frac) / (k + 1 - s))
                 for s in range(k + 1)},
        lam=list(_rounded(ctx, *D[:, k + 1], -frac)), ctx=ctx, fixed=ys)


def _gauss(x, y, op=np.multiply):
    """Product of two Gaussian-integer arrays with leading axis (re, im);
    `op` is np.multiply (entrywise, broadcasting a vector over columns) or
    np.matmul."""
    return np.array([op(x[0], y[0]) - op(x[1], y[1]),
                     op(x[0], y[1]) + op(x[1], y[0])])


def _fixed_frame(ctx, n):
    """f0 and f0^{-1} = conj(f0)/n (f0 is symmetric) as (2, n, n)
    Gaussian-integer arrays with `frac` fraction bits, read from the root
    table; f0's columns (1, lambda_b, ..., lambda_b^{n-1}) are the
    eigenvectors of the cyclic shift."""
    roots = _unit_roots(ctx.frac, n)
    f0 = np.moveaxis(np.array([[roots[2 * a * b % (2 * n)] for b in range(n)]
                               for a in range(n)], dtype=object), 2, 0)
    return f0, np.array([f0[0] // n, -f0[1] // n])


# ---------------------------------------------------------------------------
# sector layout (angles as exact Fractions of pi)

def _diff_arg_fpi(n, a, b):
    """arg(lambda_a - lambda_b)/pi as an exact Fraction in [0, 2)."""
    if a == b:
        raise ValueError("a == b has no direction")
    return (Fraction(1, 2) + Fraction(a + b, n) + (1 if a < b else 0)) % 2


@dataclass(frozen=True)
class SectorLayout:
    """Anti-Stokes lattice, chain-ordered and unwrapped past the base direction.

    rays[t] is d_{t+1} as a Fraction of pi, strictly increasing with uniform
    spacing 1/(n(k+1)), rays[0] being the first direction counterclockwise
    from v0.  pairs[t] lists the ordered (a, b) with
    (lambda_a - lambda_b) e^{i(k+1) theta} in R_{<0} on that ray -- the modes
    whose ratio decays fastest there; lattice directions that no pair crosses
    (present only for n = 2) carry an empty list and a trivial factor.
    """
    n: int
    k: int
    r: int
    ell: int
    v0: Fraction
    rays: tuple
    pairs: tuple
    spacing: Fraction
    half: Fraction

    def ray(self, i):
        """d_i for i = 1..r+1, the wrap ray d_{r+1} = d_1 + 2 included."""
        if i == self.r + 1:
            return self.rays[0] + 2
        return self.rays[i - 1]

    def ray_pairs(self, i):
        return self.pairs[0] if i == self.r + 1 else self.pairs[i - 1]

    def is_phantom(self, i):
        return not self.ray_pairs(i)


def sector_layout(fs_or_gc, v0=None):
    """All 2n(k+1) lattice directions with their crossing pairs, CCW from v0."""
    n, k = fs_or_gc.n, fs_or_gc.k
    spacing = Fraction(1, n * (k + 1))
    offset = Fraction(1, 2 * n * (k + 1)) if n % 2 else Fraction(0)
    lattice = sorted((offset + t * spacing) % 2 for t in range(2 * n * (k + 1)))
    pair_dirs = {}
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            base = ((1 - _diff_arg_fpi(n, a, b)) / (k + 1)) % Fraction(2, k + 1)
            for t in range(k + 1):
                theta = (base + Fraction(2 * t, k + 1)) % 2
                pair_dirs.setdefault(theta, []).append((a, b))
    if not set(pair_dirs) <= set(lattice):
        raise ArithmeticError("crossing directions escaped the canonical lattice")
    if v0 is None:
        v0 = Fraction(1, 4 * n * (k + 1))
    v0 = Fraction(v0) % 2
    if (v0 - offset) % spacing == 0:
        raise ValueError("base direction v0 lies on an anti-Stokes direction")
    start = next((idx for idx, theta in enumerate(lattice) if theta > v0), 0)
    rays = []
    pairs = []
    for t in range(len(lattice)):
        theta = lattice[(start + t) % len(lattice)]
        rays.append(theta if theta > v0 else theta + 2)
        pairs.append(tuple(sorted(pair_dirs.get(theta, []))))
    rays_t = tuple(rays)
    if any(rays_t[t + 1] - rays_t[t] != spacing for t in range(len(rays_t) - 1)):
        raise ArithmeticError("lattice is not evenly spaced")
    r = len(rays_t)
    if r != 2 * n * (k + 1) or r % (2 * k + 2):
        raise ArithmeticError("direction count broke the 2n(k+1) pattern")
    return SectorLayout(n=n, k=k, r=r, ell=r // (2 * k + 2), v0=v0,
                        rays=rays_t, pairs=tuple(pairs), spacing=spacing,
                        half=Fraction(1, 2 * (k + 1)))


# ---------------------------------------------------------------------------
# the tail-safe reading circle


def _tail_norms(fs):
    """(m, max-norm of the z^{-m} term) for the last kept formal terms --
    several, to ride out parity-sparse series whose top term vanishes.  Each
    term is rounded once to the working precision, then to a double."""
    ctx = fs.ctx
    return [(m, max((abs(complex(v)) for v in
                     np.ravel(_rounded(ctx, *fs.fixed[m], -ctx.frac))),
                    default=0.0))
            for m in range(max(1, fs.M - 3), fs.M + 1)]


def compute_radius(fs, settings):
    """Tail-safe radius: smallest circle on which each of the last kept formal
    terms contributes below radius_tol."""
    radius = 2.0
    for m, norm in _tail_norms(fs):
        if norm > 0:
            radius = max(radius, (norm / settings.radius_tol) ** (1.0 / m))
    return 1.05 * radius


# ---------------------------------------------------------------------------
# entire scalar basis and content readings

class EntireBasis:
    """Taylor basis at the origin of the scalar equation y^(n) = p(z) y.

    Column j is the entire solution with y^(t)(0) = delta_{tj}.  Every
    fundamental matrix of the gauged system is a constant linear image of
    these columns, so their values on the reading circle are computed from
    the convergent series alone.  Coefficients are pre-scaled by rho^m,
    i.e. kept as the term magnitudes on the circle, which keeps every
    intermediate quantity within range and makes the truncation criterion
    a plain relative comparison.  The recurrence runs on Gaussian integers
    at every precision, from exact inputs (rho is a double, so a dyadic
    rational).  The coefficients, times the falling factorial of each
    derivative row, are the fixed-point table `sums` reads over the unit
    powers of an angle (every collocation angle is p/q with q | 4n(k+1))."""

    def __init__(self, op, ctx, rho, nterms=None):
        self.n = op.n
        self.ctx = ctx
        self.rho = float(rho)
        n, d = op.n, op.d
        frac = ctx.frac
        r = Fraction(self.rho)
        # p_m rho^(m+n) and the unit jets rho^m / m!, floored to Gaussian
        # integers (re, im) with `frac` fraction bits; each step of the
        # recurrence floor-divides by (s+1)...(s+n) (_GUARD_BITS)
        src = [(m, _quantized(op.p_coeff(m), frac, r ** (m + n)))
               for m in range(d + 1) if op.p_coeff(m)]
        cols = [[_quantized(1, frac, r ** m / math.factorial(m)) if m == j
                 else (0, 0) for m in range(n)] for j in range(n)]
        # terms are kept down to the table's resolution: one fixed-point
        # unit above 53 bits, since a truncation the A and B builds share is
        # one their consistency cannot see; 8 bits under a double at 53
        depth = ctx.bits + 8 if ctx.double else frac
        peak = -math.inf
        quiet = 0
        m = n
        limit = nterms if nterms is not None else _MAX_TERMS
        while m < limit:
            s = m - n
            denom = math.prod(range(s + 1, s + n + 1))
            worst = -math.inf
            for col in cols:
                terms = [(pr, pi, *col[s - mm])
                         for mm, (pr, pi) in src if mm <= s]
                re = sum(pr * cr - pi * ci for pr, pi, cr, ci in terms)
                im = sum(pr * ci + pi * cr for pr, pi, cr, ci in terms)
                acc = (re // (denom << frac), im // (denom << frac))
                col.append(acc)
                worst = max(worst, max(map(abs, acc)).bit_length())
            peak = max(peak, worst)
            quiet = quiet + 1 if worst < peak - depth else 0
            m += 1
            if nterms is None and quiet >= n + d and m > 2 * (n + d):
                break
        else:
            if nterms is None:
                raise ArithmeticError("entire basis did not converge on the "
                                      "reading circle within the term cap")
        self.nterms = m
        # table[t][j] = (re, im, frac') lists over m of (scaled coefficient
        # m of column j) times the falling factorial m (m-1) ... (m-t+1) of
        # derivative row t, cut so the largest entry carries `frac` bits
        falls = [[math.perm(mm, t) for mm in range(m)] for t in range(n)]
        self.table = [[] for _ in falls]
        for ff, row in zip(falls, self.table):
            for col in cols:
                ar, ai = ([c[p] * f for c, f in zip(col, ff)] for p in (0, 1))
                cut = max(0, max(map(abs, ar + ai)).bit_length() - frac)
                row.append(([v >> cut for v in ar], [v >> cut for v in ai],
                            frac - cut))
        self._folds, self._sums = {}, {}

    def state_matrix(self, theta_fpi):
        """Rows y^(t), t = 0..n-1, of each basis column at z = rho e^{i theta}
        on the build circle.

        Summation runs over the unit phases u^m, u = e^{i theta}, times the
        stored scaled coefficients (`sums`), so the accumulated magnitudes
        never exceed the term sizes on the circle; the z^{-t} restores the
        derivative scaling afterwards."""
        ctx = self.ctx
        out = _rounded(ctx, *self.sums(theta_fpi))
        zinv = ctx.one() / (ctx.number(self.rho)
                            * ctx.exp(1j * ctx.number(theta_fpi) * ctx.pi()))
        scale = ctx.one()
        for t in range(1, self.n):
            scale = scale * zinv
            out[t, :] = out[t, :] * scale
        return out

    def sums(self, theta_fpi):
        """The state rows without the z^{-t}, as the (re, im, exp) arrays of
        _table_sums, once per theta mod 2 (u^m depends on theta mod 2 only);
        the table is folded once per period (_fold)."""
        key = _angle(theta_fpi) % 2
        if key not in self._sums:
            self._sums[key] = _table_sums(self.ctx, self.table, key,
                                          self._folds)
        return self._sums[key]


def _angle(theta_fpi):
    """theta as a Fraction.  An angle must be exact: its denominator sizes
    the root table and the fold."""
    if not isinstance(theta_fpi, (int, Fraction)):
        raise TypeError(f"an angle must be an int or a Fraction of pi, got "
                        f"{theta_fpi!r}")
    return Fraction(theta_fpi)


def _unit_powers(ctx, theta_fpi, count):
    """u^m, m < count, for u = e^{i pi theta}: at theta = p/q, the roots
    2pm mod 4q of the root table of denominator 2q, as Gaussian-integer
    tuples (re, im) (_unit_roots)."""
    theta = _angle(theta_fpi)
    p, q = theta.numerator, theta.denominator
    index = np.arange(count) * (2 * p % (4 * q)) % (4 * q)
    roots = _unit_roots(ctx.frac, 2 * q)
    return tuple(zip(*(roots[r] for r in index)))


@functools.lru_cache(maxsize=None)
def _unit_roots(frac, den):
    """e^{i pi r/den}, r < 2 den, as Gaussian integers (re, im) with `frac`
    fraction bits, each rounded to nearest from mpmath 10 bits deeper, so
    within one unit: the one root table per denominator and precision."""
    from mpmath.libmp import mpf_shift, to_int
    mp = _mpmath_at(frac + 10)
    return [tuple((to_int(mpf_shift(x._mpf_, frac + 1), "f") + 1) >> 1
                  for x in (z.real, z.imag))
            for z in (mp.expjpi(mp.mpf(r) / den) for r in range(2 * den))]


def _fold(table, period):
    """A fixed-point table with each row's coefficients summed by residue of
    m mod period: integer additions only, exact, since u^m = u^(m mod
    period) at every angle whose powers have that period (a row no longer
    than the period is its own fold)."""
    return [[tuple(c if len(c) <= period else
                   [sum(c[s::period]) for s in range(period)]
                   for c in (ar, ai)) + (frac,) for ar, ai, frac in row]
            for row in table]


def _table_sums(ctx, table, theta, folds, rows=None):
    """Per entry of a fixed-point table (rows of entries (re, im, frac')
    over m, value (re + i im) 2^-frac'), sum_m table[t][j][m] u^m at theta
    = p/q exactly, as arrays (re, im, exp) along the leading axis, value
    (re + i im) 2^exp, for the rows `rows` (all by default): the table
    folded by 2q (kept in `folds` per q) times the 2q unit powers."""
    q = theta.denominator
    if q not in folds:
        folds[q] = _fold(table, 2 * q)
    pr, pi = _unit_powers(ctx, theta, 2 * q)
    folded = folds[q] if rows is None else [folds[q][t] for t in rows]
    return np.moveaxis(np.array(
        [[(sum(map(mul, ar, pr)) - sum(map(mul, ai, pi)),
           sum(map(mul, ar, pi)) + sum(map(mul, ai, pr)),
           -(frac + ctx.frac)) for ar, ai, frac in row]
         for row in folded], dtype=object), 2, 0)


def _rounded(ctx, re, im, exp):
    """(re + i im) 2^exp, arrays of ints with exp broadcast, as a
    working-precision array, each part rounded once.  At 53 bits int-to-float
    conversion rounds correctly and ldexp scales exactly; a part beyond
    double range becomes inf, without a numpy warning, since the build's
    finiteness check reports it."""
    if not ctx.double:
        return np.frompyfunc(lambda r, i, e: ctx.complex(ctx.real((r, e)),
                                                         ctx.real((i, e))),
                             3, 1)(re, im, exp).astype(object)
    re, im = (np.asarray(v, dtype=object).astype(float) for v in (re, im))
    exp = np.asarray(exp, dtype=object).astype(int)
    out = np.empty(np.broadcast(re, exp).shape, dtype=complex)
    with np.errstate(over="ignore"):
        out.real = np.ldexp(re, exp)
        out.imag = np.ldexp(im, exp)
    return out


def _quantized(v, frac, scale=1):
    """floor(v scale 2^frac), part by part, for an int, Fraction, float or
    complex v and a Fraction scale, all exact (a double is a dyadic
    rational): a Gaussian integer."""
    return tuple(math.floor(Fraction(x) * scale * 2 ** frac)
                 for x in (v.real, v.imag))


def _exact(z):
    """An mpc z as (re, im, exp) with z = (re + i im) 2^exp exactly."""
    (sr, mr, er, _), (si, mi, ei, _) = z._mpc_
    e = min(er, ei)
    return (-mr if sr else mr) << (er - e), (-mi if si else mi) << (ei - e), e


# cap on the adaptive term count of an entire basis
_MAX_TERMS = 20000
# fixed-point bits kept below the working precision by the integer
# constructions, at every precision, in units of 2^-(bits+40).  Entire-basis
# recurrence: its exact inputs p_m rho^(m+n) and rho^m/m!, floored once, and
# each floor division by (s+1)...(s+n) are off by under one unit, which the
# linear recurrence carries on as the Taylor tail of another solution,
# growing no faster than the columns' own terms; against the peak (at least
# the unit jet) N steps leave under N units, and the series stops once its
# terms fall below one unit of the peak.  Formal solution and formal-inverse
# table: each shifted product and each product with a reciprocal eigenvalue
# gap adds a few units per order, carried the same way; absolute, but Y_0 =
# W_0 = I, the later terms on a reading circle are small, and the inverse
# keeps its smallest column rho^(h_a) at full resolution.  At 53 bits each
# finished table is rounded once to doubles.  Above, table sums are exact:
# every unit power is a root within one unit and folding by residue mod 2q
# is exact, so a sum is off by at most sum_m |T_m| units, under N < 2^15
# units of the largest term T_m (N <= _MAX_TERMS), and contents are exact
# from these sums to one rounding.  Collocation: each raw content entry
# (no mode exponential) is rounded once to bits + 40 significant bits
# (_aligned_row), each sector column is solved exactly and rounded once to
# bits + 40 bits of its largest entry (_exact_column), the A/B consistency
# and the factor quotients are exact (_eliminate), and each factor entry is
# rounded once to `bits`.  A kill row gives its column at any nonzero
# scale, so only the normalization row's right-hand side e^{E}, one
# working-precision exp, carries a mode exponential; its rounding at
# 2^-bits scales its column as a whole and reaches a factor entry as a
# relative 2^-bits, the size of that entry's own rounding.  So the only
# other errors before the result's are the two roundings at 2^-(bits+40),
# and each moves a solution by at most the condition number
# kappa of the matrix solved (the collocation matrix, the A build) times
# that (Higham 2002, ch. 7; an exact elimination adds none of ch. 9's
# growth): the bits lost are bounded by log2 kappa, which the A/B
# consistency measures, and up to kappa = 2^40 the factors keep their full
# `bits`.  The columns are rounded because exact ones would carry (n-1)-
# minors into the quotients: at z^6 (n = 6) those took 95 ms a sector.
_GUARD_BITS = 40


def _series_tail(fs, rho):
    """Reading-circle bound on the truncated formal frame: the largest of the
    last kept terms."""
    return max([0.0] + [norm * rho ** (-m) for m, norm in _tail_norms(fs)])


@dataclass
class _Build:
    """One collocation at a reading radius: the formal solution and entire
    basis it read, the quotients the factors are made of and the A/B
    agreement."""
    fs: FormalSolution
    basis: EntireBasis
    rho: float
    quotients: list
    cons: float


def _collocate(op, gc, layout, fs, rho, cond, norms, nterms=None):
    """Both independent builds at reading radius rho, plus their agreement.

    The entire basis is built on the circle rho at the formal solution's
    precision (with a frozen term count when replaying).  The two builds
    collocate at different angles, so the worst deviation of
    (A build)^{-1} (B build) from the identity over all sectors measures the
    amplified working-precision noise at this radius, without modeling it;
    the truncated formal frame's tail, which both builds share, not at all.

    Factor j pairs the A build of sector j with the B build of sector j-1
    (the wrap factor, j = 1, with sector r), so no matrix object is shared
    between consecutive factors and the closure of the full product
    measures real disagreement between independent collocations.  Per
    sector one solve against A serves both its agreement and its factor:
    above 53 bits one exact elimination (_exact_quotient), each factor entry
    rounded once, at 53 bits one batched LAPACK solve (_double_quotients)."""
    ctx, n = fs.ctx, gc.n
    basis = EntireBasis(op, ctx, rho, nterms)
    inverse = _inverse_table(fs, rho)
    if ctx.double:
        quotients, deviations = _double_quotients(fs, layout, basis, inverse,
                                                  cond, norms)
    else:
        gammas, scalars = _plan_contents(fs, basis, inverse, cond, norms)
        va, vb = (sector_coefficients(fs, layout, gammas, scalars, cond,
                                      norms, variant) for variant in "AB")
        quotients, deviations = [], []
        for i in range(1, layout.r + 1):
            x, det, exp = _exact_quotient(va[i], vb[i], vb[i - 1 or layout.r])
            deviations.append(_deviation(x[:, :, :n], det, exp[:, :n]))
            quotients.append(_rounded_quotient(ctx, x[:, :, n:], det,
                                               exp[:, n:]))
    cons = float(np.max(deviations))  # keeps a NaN from any sector
    if not math.isfinite(cons):
        raise ArithmeticError("collocation build overflowed")
    return _Build(fs=fs, basis=basis, rho=rho, quotients=quotients,
                  cons=cons)


def _double_quotients(fs, layout, basis, inverse, cond, norms):
    """The 53-bit collocation: per sector i the quotient (A_i)^{-1} B_{i-1}
    (B_r for i = 1) and the largest modulus of (A_i)^{-1} B_i - I.  All
    column systems of both builds are one batched LAPACK solve against
    (0, ..., 0, 1), all sectors' [B_i | B_{i-1}] against A_i one more."""
    n, r = fs.n, layout.r
    systems = [[(cond[(i, v, d, a)], a) for a in range(n) if a != d]
               + [(norms[(i, d)], d)]
               for v in "AB" for i in range(1, r + 1) for d in range(n)]
    rows = _double_contents(fs, basis, inverse,
                            {pair for reads in systems for pair in reads})
    rhs = np.zeros((len(systems), n, 1))
    rhs[:, n - 1] = 1.0
    cols = np.linalg.solve(np.array([[rows[pair] for pair in reads]
                                     for reads in systems]), rhs)[..., 0]
    a, b = cols.reshape(2, r, n, n).swapaxes(2, 3)
    x = np.linalg.solve(a, np.concatenate([b, np.roll(b, 1, axis=0)], axis=2))
    return (list(np.ascontiguousarray(x[:, :, n:])),
            np.abs(x[:, :, :n] - np.eye(n)).max(axis=(1, 2)).tolist())


def _double_contents(fs, basis, inverse, pairs):
    """{(theta, b): row}: _content_matrix's raw row b at theta times e^{-E}
    (_mode_scalars gives e^{E}), as LAPACK's pivoting is not invariant under
    row scaling.  Both tables are rounded once to complex128 and summed per
    angle by one matrix-vector product over the rounded roots.  An
    overflow turns inf or nan, which the A/B consistency judges."""
    ctx, n, frac = fs.ctx, fs.n, fs.ctx.frac
    tables = []
    for table in (basis.table, inverse):
        re, im, cut = (np.array([[entry[p] for entry in row] for row in table],
                                dtype=object) for p in range(3))
        tables.append(_rounded(ctx, re, im, -cut[:, :, None]))
    log_rho = ctx.log(ctx.number(basis.rho))
    out = {}
    for theta, group in itertools.groupby(sorted(pairs), key=lambda t: t[0]):
        modes = [b for _, b in group]
        p, q = theta.numerator, theta.denominator
        roots = _double_roots(frac, 2 * q)
        phases = [p * int(2 * h) % (4 * q) for h in _gauge_exponents(n, fs.k)]
        chart = log_rho + 1j * ctx.number(theta) * ctx.pi()
        z = ctx.exp(chart)
        scalars = [ctx.exp(-(fs.q_entry(b, z) + fs.lam[b] * chart))
                   for b in modes]
        with np.errstate(over="ignore", invalid="ignore"):
            s, w = (t @ roots[np.arange(t.shape[-1]) * (2 * p) % (4 * q)]
                    for t in tables)
            raw = (w.real - 1j * w.imag) @ (roots[phases, None]
                                            * (s.real + 1j * s.imag))
            out.update(zip(((theta, b) for b in modes),
                           np.array(scalars)[:, None] * raw[modes]))
    return out


@functools.lru_cache(maxsize=None)
def _double_roots(frac, den):
    """_unit_roots(frac, den) rounded once to a complex128 array."""
    return _rounded(make_ctx(53), *zip(*_unit_roots(frac, den)), -frac)


def _visibility_interval(layout, i, a, d):
    """Fraction-of-pi interval inside the closed supersector of sector i on
    which mode a dominates mode d and on which killing the a-content pins the
    sector-i canonical column d.

    The dominance arcs of the pair recur with period 2/(k+1); at most two
    intersect the supersector, and two only when the pair crosses at a
    bounding ray, in which case the sector-i condition lives on the arc past
    the lower ray (respectively before the upper ray) -- the condition on the
    other side belongs to the neighboring sector and differs from it by
    exactly the Stokes jump."""
    k = layout.k
    half = layout.half
    lo = layout.ray(i) - half
    hi = layout.ray(i + 1) + half
    period = Fraction(2, k + 1)
    base = ((1 - _diff_arg_fpi(layout.n, a, d)) / (k + 1)) % period
    tmin = math.floor((lo - 3 * half - base) / period)
    tmax = math.ceil((hi - half - base) / period)
    arcs = []
    minima = []
    for t in range(tmin, tmax + 1):
        m = base + t * period
        u, v = max(m + half, lo), min(m + 3 * half, hi)
        if u <= v:
            arcs.append((u, v))
            minima.append(m)
    if not arcs:
        raise ArithmeticError("pair never becomes visible on the supersector")
    if len(arcs) == 1:
        return arcs[0]
    if len(arcs) != 2:
        raise ArithmeticError("more dominance arcs than the lattice allows")
    crossing = minima[1]
    if crossing == layout.ray(i):
        return arcs[1]
    if crossing == layout.ray(i + 1):
        return arcs[0]
    raise ArithmeticError("pair crossing fell strictly inside a sector")


def _leading_re(layout, a, theta):
    """Re(lambda_a e^{i pi (k+1) theta}) with lambda_a = e^{2 pi i a/n}, the
    argument reduced exactly: Re q_a at the angle theta up to the positive
    factor r^{k+1}/(k+1) of its leading term."""
    arg = (Fraction(2 * a, layout.n) + (layout.k + 1) * theta) % 2
    return math.cos(math.pi * float(arg))


# leading-order scores closer than this are exact ties (distinct scores are
# cosine sums at lattice angles, far further apart)
_TIE = 1e-12


def _sector_reading_plan(layout):
    """Collocation angles of every sector, a function of the layout alone.

    Per kill condition of sector i, two spread-apart angles inside the
    mode's visibility arc (for the independent A and B builds).  Per column,
    one normalization angle on the quarter-spacing grid over the supersector
    where its own mode rides highest over the others by the leading
    exponents, min over a != d of Re((lambda_d - lambda_a) e^{i pi (k+1)
    theta}), so unit self-content is read at the best conditioning; scores
    within _TIE of the best are ties, which go to the smallest angle.  Which
    mode dominates where is fixed by the leading exponents, so the plan is
    the same on every reading circle, at every working precision and at
    every point with this layout, and is made once per run."""
    n, step = layout.n, layout.spacing / 4
    cond, norms = {}, {}
    for i in range(1, layout.r + 1):
        for d in range(n):
            for a in range(n):
                if a == d:
                    continue
                u, v = _visibility_interval(layout, i, a, d)
                w = v - u
                cond[(i, "A", d, a)] = u + w / 4
                cond[(i, "B", d, a)] = v - w / 4
        lo = layout.ray(i) - layout.half
        count = int((layout.ray(i + 1) + layout.half - lo) / step)
        cands = [lo + t * step for t in range(count + 1)]
        lead = {th: [_leading_re(layout, a, th) for a in range(n)]
                for th in cands}
        for d in range(n):
            score = {th: min(re[d] - re[a] for a in range(n) if a != d)
                     for th, re in lead.items()}
            top = max(score.values())
            norms[(i, d)] = min(th for th in cands if score[th] >= top - _TIE)
    return cond, norms


def _inverse_table(fs, rho):
    """sum_{m<=M} W_m z^{-m} f0^{-1} on the circle rho, W_0 = I and W_m =
    -sum_{j>=1} Y_j W_{m-j}: V_m = rho^-m W_m f0^{-1} obeys the recurrence in
    Y_j rho^-j, and 1/z^m = rho^-m conj(u^m), so the table holds conj(V_m)
    and its sums are conjugated.  The recurrence runs on Gaussian integers
    at every precision, each Y_j in the real form [[re, -im], [im, re]],
    one product per order: the Y's side by side times the V's stacked.
    Column a also carries rho^(h_a), the modulus of gauged row a of a
    content (_gauge_exponents), since the recurrence only multiplies on the
    left.  The table has EntireBasis.table's layout, rows b and entries a."""
    ctx, n, M, frac = fs.ctx, fs.n, fs.M, fs.ctx.frac
    # rho is a dyadic rational, so its powers scale exactly up to one floor,
    # and a half-integer power is one isqrt; the table keeps g more fraction
    # bits, so its smallest column keeps `frac` bits
    r = Fraction(rho)
    j = np.arange(1, M + 1, dtype=object)[:, None, None, None]
    re, im = np.moveaxis(np.array(fs.fixed[1:]) * r.denominator ** j
                         // r.numerator ** j, 1, 0)
    ys = np.block([[re, -im], [im, re]]).transpose(1, 0, 2).reshape(2 * n, -1)
    sq = [r ** int(2 * h) for h in _gauge_exponents(n, fs.k)]
    g = max(0, max(s.denominator.bit_length() - s.numerator.bit_length()
                   for s in sq) // 2 + 1)
    mod = np.array([math.isqrt(math.floor(s * 4 ** (frac + g)))
                    for s in sq], dtype=object)
    vs = np.zeros((M + 1, 2 * n, n), dtype=object)
    vs[0] = np.vstack(_fixed_frame(ctx, n)[1] * mod >> frac)
    for m in range(1, M + 1):
        vs[m] = -(ys[:, :2 * n * m] @ vs[m - 1::-1].reshape(-1, n) >> frac)
    return [[(list(vs[:, b, a]), list(-vs[:, n + b, a]), frac + g)
             for a in range(n)] for b in range(n)]


@functools.lru_cache(maxsize=None)
def _gauge_exponents(n, k):
    """h_a, a < n: gauged row a of a content is z^(h_a) times row a of the
    state sums, h_a the gauge exponent (n-a)k - k(n+1)/2 less the
    derivative order a."""
    return tuple((n - a) * k - Fraction(k * (n + 1), 2) - a for a in range(n))


def _content_matrix(fs, basis, inverse, theta_fpi, modes=None, folds=None):
    """Raw content rows of the entire-basis columns against the formal
    modes `modes` (all by default) at one reading angle: row x holds each
    column's coefficient along mode x, read from the truncated formal frame
    at z = rho e^{i theta} on the basis' circle as (formal-inverse table)
    times (gauged state sums), without mode x's exponential: the content
    is e^{-(q_x(z) + lambda_x log z)} times the raw row.  Returned as
    {x: row x}.

    The phase e^{i pi theta h_a} of gauged row a is one root of order 4q
    read at the unwrapped numerator of theta = p/q, so the chart log z =
    ln rho + i pi theta stays explicit: on the next sheet a raw row takes
    the det twist and its mode scalar e^{-2 pi i lambda_x}, the wrap
    factor's extra scalars (collocation_factors).  The modulus rho^(h_a) of
    gauged row a is in the inverse table's columns.  Only the inverse-table
    rows of `modes` are summed, and each entry is rounded once, to `frac`
    significant bits (_aligned_row).  `folds` keeps the inverse table's
    folds (_table_sums) across the angles of one build."""
    ctx = fs.ctx
    n, k = fs.n, fs.k
    modes = list(range(n)) if modes is None else list(modes)
    theta = _angle(theta_fpi)
    p, q = theta.numerator, theta.denominator
    phases = [p * int(2 * h) % (4 * q) for h in _gauge_exponents(n, k)]
    sr, si, se = basis.sums(theta)
    folds = {} if folds is None else folds
    roots = _unit_roots(ctx.frac, 2 * q)
    phase = np.array([roots[r] for r in phases], dtype=object).T
    x = _gauss(phase[:, :, None], np.array([sr, si]))
    low = se.min(axis=0)                         # align each column exactly
    wr, wi, we = _table_sums(ctx, inverse, theta, folds, modes)
    cont = _gauss(np.array([wr, -wi]), x << (se - low), np.matmul)
    exp = low - ctx.frac + we[0, 0]
    return {b: _aligned_row(re, im, exp, ctx.frac)
            for b, re, im in zip(modes, *cont)}


def _mode_scalars(fs, rho, pairs):
    """Per (theta, b) in pairs, e^{E} for mode b's exponential E = q_b(z) +
    lambda_b log z at z = rho e^{i pi theta} on the chart log z = ln rho +
    i pi theta: the right-hand side a normalization row solves for
    (_exact_column).  One log per call; z is rho times a root of the root
    table, so the exponential of each pair is the only exp."""
    ctx = fs.ctx
    log_rho = ctx.log(ctx.number(rho))
    points, out = {}, {}
    for theta, b in pairs:
        if theta not in points:
            p, q = theta.numerator, theta.denominator
            ur, ui = _unit_roots(ctx.frac, 2 * q)[2 * p % (4 * q)]
            z = ctx.number(rho) * ctx.complex(ctx.real((ur, -ctx.frac)),
                                              ctx.real((ui, -ctx.frac)))
            points[theta] = log_rho + 1j * ctx.number(theta) * ctx.pi(), z
        chart, z = points[theta]
        out[(theta, b)] = ctx.exp(fs.q_entry(b, z) + fs.lam[b] * chart)
    return out


def _plan_contents(fs, basis, inverse, cond, norms):
    """What the exact collocation solves of a plan read
    (sector_coefficients): the raw content rows {theta: {mode: row}} of the
    modes read at each angle, the kill conditions' foreign modes and the
    normalizations' own, and the mode scalars (_mode_scalars) of the
    normalization (angle, column) pairs, since an exact solve gives a kill
    row's column at any nonzero scale."""
    reads = {}
    for (_, _, _, a), th in cond.items():
        reads.setdefault(th, set()).add(a)
    for (_, d), th in norms.items():
        reads.setdefault(th, set()).add(d)
    folds = {}          # the inverse table's, one per angle denominator
    gammas = {th: _content_matrix(fs, basis, inverse, th, sorted(modes),
                                  folds)
              for th, modes in sorted(reads.items())}
    pairs = {(th, d) for (_, d), th in norms.items()}
    return gammas, _mode_scalars(fs, basis.rho, sorted(pairs))


def _aligned_row(re, im, exp, frac):
    """A row of entries (re + i im) 2^exp, each rounded to nearest to `frac`
    significant bits, as Gaussian integers (re, im) on the row's lowest
    exponent e: int lists re, im and the int e, the row being
    (re + i im) 2^e.  Zero entries take no part in the lowest exponent."""
    out = []
    for r, i, e in zip(re, im, exp):
        s = max(abs(r), abs(i)).bit_length() - frac
        if s > 0:
            half = 1 << (s - 1)
            r, i, e = (r + half) >> s, (i + half) >> s, e + s
        out.append((r, i, e))
    low = min((e for r, i, e in out if r or i), default=0)
    return ([r << max(0, e - low) for r, _, e in out],
            [i << max(0, e - low) for _, i, e in out], low)


@dataclass(frozen=True)
class CollocationPlan:
    """Discrete data of a collocation run, frozen so finite-difference
    stencils reuse identical circles, angles, term counts, working precision
    and mode labeling.  It records the truncation order and base direction
    it was made with, which a replay's settings must repeat."""
    rho: float
    nterms: int
    bits: int
    cond: dict      # (sector, variant, column, mode) -> Fraction-of-pi angle
    norms: dict     # (sector, column) -> Fraction-of-pi angle
    perm: tuple     # mode labeling in which S_1 is upper triangular
    trunc_order: int    # M of the formal solution read
    v0: Fraction        # the layout's base direction, mod 2


def sector_coefficients(fs, layout, gammas, scalars, cond, norms, variant):
    """Coefficient matrices of the canonical frames in the entire basis.

    Column d of sector i solves n collocation conditions: vanishing content
    along each foreign mode at that mode's reading angle, unit self-content
    at the normalization angle, from the raw content rows `gammas` and the
    mode scalars `scalars` of _plan_contents.  A sector is a fixed-point
    matrix (y, s) of value y diag(2^s), solved exactly (_exact_column)."""
    n = layout.n
    out = {}
    for i in range(1, layout.r + 1):
        systems = [[(cond[(i, variant, d, a)], a) for a in range(n) if a != d]
                   + [(norms[(i, d)], d)] for d in range(n)]
        y, s = zip(*(_exact_column([gammas[th][b] for th, b in reads],
                                   _exact(scalars[reads[-1]]), fs.ctx.frac)
                     for reads in systems))
        out[i] = np.stack(y, axis=-1), np.array(s, dtype=object)
    return out


def _exact_column(rows, rhs, frac):
    """The column v with rows . v = (0, ..., 0, s), for raw content rows
    (re, im, e) as _aligned_row gives them (value (re + i im) 2^e) and the
    normalization row's right-hand side s = (sr + i si) 2^se given as
    rhs = (sr, si, se), solved exactly (_eliminate) and rounded once, to
    nearest on `frac` bits of its largest entry: (y, s), v = y 2^s, y a
    (2, n) Gaussian-integer array.  Only the normalization row, the last,
    has a right-hand side, so only its exponents scale the column: 2^e
    row . v = 2^se s' is row . v = s' 2^(se - e)."""
    aug = np.array([[part + [0] for part in row[:2]] for row in rows],
                   dtype=object).transpose(1, 0, 2)
    aug[:, -1, -1] = rhs[:2]
    det, x = _eliminate(aug)
    # x / det = x conj(det) / |det|^2
    num = _gauss(x[:, :, 0], np.array([det[0], -det[1]]))
    norm = det[0] * det[0] + det[1] * det[1]
    exp = (max(abs(v) for v in num.ravel()).bit_length() - norm.bit_length()
           - frac)
    return (np.array([[_divide(v, norm, exp) for v in part] for part in num],
                     dtype=object), exp + rhs[2] - rows[-1][2])


def _eliminate(aug):
    """Fraction-free Gauss-Jordan elimination over the Gaussian integers
    (Bareiss 1968) of [A | B], a (2, n, n + m) array (re, im) with A
    square: (det, x), det the last pivot (det A up to sign) and x = det
    A^{-1} B, both exact.  Each step cross-multiplies every other row by
    the pivot and divides exactly by the previous pivot, so the entries
    stay minors of [A | B].  The pivot is the first nonzero entry of its
    column: exact arithmetic needs no search by modulus.  A singular A
    raises ZeroDivisionError."""
    (re, im), n = aug.tolist(), aug.shape[1]
    width = len(re[0])
    pr, pi, norm = 1, 0, 1
    for k in range(n):
        p = next((t for t in range(k, n) if re[t][k] or im[t][k]), None)
        if p is None:
            raise ZeroDivisionError("singular collocation system")
        re[k], re[p], im[k], im[p] = re[p], re[k], im[p], im[k]
        ar, ai = re[k], im[k]
        kr, ki = ar[k], ai[k]
        for t in range(n):
            if t == k:
                continue
            br, bi = re[t], im[t]
            cr, ci = br[k], bi[k]
            for j in range(k + 1, width):
                xr = kr * br[j] - ki * bi[j] - cr * ar[j] + ci * ai[j]
                xi = kr * bi[j] + ki * br[j] - cr * ai[j] - ci * ar[j]
                # exact division by the previous pivot p: x conj(p) / |p|^2
                br[j] = (xr * pr + xi * pi) // norm
                bi[j] = (xi * pr - xr * pi) // norm
        pr, pi, norm = kr, ki, kr * kr + ki * ki
    return (np.array([pr, pi], dtype=object),
            np.array([[row[n:] for row in re], [row[n:] for row in im]],
                     dtype=object))


def _exact_quotient(a, *bs):
    """a^{-1} [b_1 | b_2 | ...] for fixed-point matrices (y, s) of value
    y diag(2^s) (sector_coefficients), from one elimination of [y_a | y_b]:
    a^{-1} b = diag(2^-s_a) y_a^{-1} y_b diag(2^s_b), so entry (r, c) is
    x[r, c] 2^exp[r, c] / det with x = det y_a^{-1} y_b.  Returns x
    (2, n, m), det (2,) and exp (n, m), all exact."""
    ya, sa = a
    yb, sb = (np.concatenate(part, axis=-1) for part in zip(*bs))
    det, x = _eliminate(np.concatenate([ya, yb], axis=-1))
    return x, det, sb[None, :] - sa[:, None]


def _rounded_quotient(ctx, x, det, exp):
    """An _exact_quotient x 2^exp / det as a working-precision array, each
    part of each entry rounded once (_nearest) from x conj(det) / |det|^2:
    no mpmath arithmetic."""
    parts = _gauss(x, np.array([det[0], -det[1]]))
    norm = det[0] * det[0] + det[1] * det[1]
    out = np.empty(exp.shape, dtype=object)
    for idx in np.ndindex(exp.shape):
        (mr, er), (mi, ei) = (_nearest(p[idx], norm, ctx.bits) for p in parts)
        out[idx] = ctx.complex(ctx.real((mr, er + exp[idx])),
                               ctx.real((mi, ei + exp[idx])))
    return out


def _divide(a, w, exp):
    """a / (w 2^exp) for ints a and w > 0, rounded to the nearest int (ties
    to even): one integer shift-division."""
    num, den = (a, w << exp) if exp >= 0 else (a << -exp, w)
    q, rem = divmod(num, den)
    return q + (2 * rem > den or (2 * rem == den and q & 1))


def _nearest(a, w, bits):
    """a / w for ints a and w > 0, rounded to nearest (ties to even) to
    `bits` significant bits, as (man, exp) with value man 2^exp."""
    if not a:
        return 0, 0
    # |a| / w lies in 2^exp (2^(bits-1), 2^(bits+1)), so at most one retry
    # on a halved scale
    exp = abs(a).bit_length() - w.bit_length() - bits
    man = _divide(a, w, exp)
    if abs(man) > 1 << bits:
        exp += 1
        man = _divide(a, w, exp)
    return man, exp


def _deviation(x, det, exp):
    """Largest modulus of a square _exact_quotient x 2^exp / det minus the
    identity, as a float: each difference is exact, its modulus rounded
    (inf past double range)."""
    worst = 0.0
    for r, c in np.ndindex(exp.shape):
        (pr, pi), (qr, qi), e = x[:, r, c], det, exp[r, c]
        if e >= 0:
            pr, pi = pr << e, pi << e
        else:
            qr, qi = qr << -e, qi << -e
        if r == c:
            pr, pi = pr - qr, pi - qi
        try:
            worst = max(worst, math.sqrt((pr * pr + pi * pi)
                                         / (qr * qr + qi * qi)))
        except OverflowError:
            return math.inf
    return worst


def collocation_factors(fs, quotients, det_twist):
    """Connection factors K_j = Phi_j^{-1} Phi_{j-1} as entire-basis algebra,
    from a build's quotients (A build of sector j)^{-1} (B build of sector
    j-1), j = 1..r (_collocate).  The wrap factor K_1 compares sector 1
    against sector r: re-reading sector 1 on the chart shifted by 2 pi
    multiplies its contents by the det twist and exp(2 pi i Lambda), giving
    the closed-form extra scalars here."""
    ctx = fs.ctx
    tau = 2j * ctx.number(ctx.pi())
    sigma = ctx.number(det_twist)
    scalars = np.array([sigma * ctx.exp(-tau * lam) for lam in fs.lam],
                       dtype=ctx.dtype)
    return [quotients[0] * scalars] + quotients[1:]


# ---------------------------------------------------------------------------
# factors, grouped matrices, residuals

def dominance_order(layout):
    """Mode indices sorted by the leading exponent Re(lambda_a e^{i pi (k+1)
    theta}) at the first half-period center theta, most recessive first;
    relabeled by this permutation, S_1 is upper triangular and the grouped
    matrices alternate.  A function of the layout alone, so it is the same
    at every radius, precision and stencil perturbation of the lower
    coefficients; the leading values at the center are well apart, and an
    exact tie would go to the smaller mode index."""
    center = layout.ray(1) + (layout.ell - 1) * layout.spacing / 2
    vals = sorted((_leading_re(layout, a, center), a) for a in range(layout.n))
    return tuple(a for _, a in vals)


def stokes_matrices(layout, factors):
    """Group the factors into the 2k+2 Stokes matrices
    S_i = K_{i ell} ... K_{(i-1) ell + 1}."""
    ell = layout.ell
    mats = []
    for i in range(2 * layout.k + 2):
        acc = factors[i * ell]
        for j in range(i * ell + 1, (i + 1) * ell):
            acc = factors[j] @ acc
        mats.append(acc)
    return mats


def _conjugate_by_order(mat, order):
    return mat[np.ix_(order, order)]


def unipotency_residual(mats, perm):
    """Deviation of each grouped matrix from alternating unitriangularity in
    the dominance labeling: unit diagonal plus one strict triangle, upper for
    odd i and lower for even i."""
    worst = 0.0
    for i, mat in enumerate(mats, start=1):
        conj = _conjugate_by_order(mat, perm)
        upper = i % 2 == 1
        n = mat.shape[0]
        for s in range(n):
            for t in range(n):
                v = abs(complex(conj[s, t]))
                if s == t:
                    worst = max(worst, abs(v - 1.0))
                elif (s < t) != upper:
                    worst = max(worst, v)
    return worst


def identity_residual(ctx, mats, lam, det_twist):
    """Max-norm distance of S_{2k+2} ... S_1 exp(2 pi i Lambda) from the
    det-twist multiple of the identity -- the monodromy-free certificate for
    the whole pipeline."""
    n = mats[0].shape[0]
    acc = ctx.eye(n)
    for mat in mats:
        acc = mat @ acc
    twist = [ctx.exp(ctx.number(2j) * ctx.number(ctx.pi()) * lam[b])
             for b in range(n)]
    worst = 0.0
    for s in range(n):
        for t in range(n):
            v = complex(acc[s, t]) * complex(twist[t])
            target = det_twist if s == t else 0.0
            worst = max(worst, abs(v - target))
    return worst


def factor_support_residual(layout, factors):
    """Structural residuals of the raw factors: off-support mass, deviation
    of diagonals from one, and the distance of phantom-ray factors from the
    identity (n = 2 only)."""
    support = diag_dev = phantom = 0.0
    for j in range(1, layout.r + 1):
        kmat = factors[j - 1]
        # the wrap factor K_1 sits on the ray d_{r+1} = d_1 + 2, which crosses
        # the same pairs as d_1, so ray_pairs(j) is right for every j
        allowed = set(layout.ray_pairs(j))
        local_diag = 0.0
        n = kmat.shape[0]
        for c in range(n):
            for d in range(n):
                v = abs(complex(kmat[c, d]))
                if c == d:
                    local_diag = max(local_diag, abs(v - 1.0))
                elif (c, d) not in allowed:
                    support = max(support, v)
        diag_dev = max(diag_dev, local_diag)
        if layout.is_phantom(j):
            off = max(abs(complex(kmat[c, d]))
                      for c in range(n) for d in range(n) if c != d)
            phantom = max(phantom, max(off, local_diag))
    return support, diag_dev, phantom


# ---------------------------------------------------------------------------
# top-level driver

@dataclass
class StokesData:
    """Complete Stokes output of one oper point, with its frozen plan and
    self-diagnosed residuals.  missed names the residuals that missed their
    bounds: "consistency" when the A/B agreement is not within 3 radius_tol,
    the slack left by the reading's one precision correction, and
    "asymptotic" when the truncated frame's tail, which both builds share,
    is not within radius_tol; converged holds when neither did, and a run
    that missed either still returns its data.  lam and qcoeffs are the
    run's formal exponents Lambda and Q, as on FormalSolution."""
    op: OperPoint
    n: int
    k: int
    radius: float
    lam: list
    qcoeffs: dict
    layout: SectorLayout
    factors: list
    matrices: list
    perm: tuple
    det_twist: int
    residuals: dict
    settings: StokesSettings
    plan: CollocationPlan
    missed: tuple

    @property
    def converged(self):
        return not self.missed

    def missed_names(self):
        """The missed residuals in words, with their values."""
        words = {"consistency": "reading consistency",
                 "asymptotic": "asymptotic residual"}
        return [f"{words[name]} {self.residuals[name]!r}"
                for name in self.missed]

    def monitored_vector(self):
        """Strict-triangle entries of the dominance-conjugated grouped
        matrices, concatenated -- the coordinates in which the monodromy map
        is differentiated."""
        out = []
        for i, mat in enumerate(self.matrices, start=1):
            conj = _conjugate_by_order(mat, self.perm)
            upper = i % 2 == 1
            for s in range(self.n):
                for t in range(self.n):
                    if (s < t) == upper and s != t:
                        out.append(complex(conj[s, t]))
        return np.array(out, dtype=complex)


def _select_reading(op, gc, layout, settings, cond, norms):
    """The run's build, on settings.radius or else compute_radius's circle,
    where the first omitted formal terms -- the truncated frame's error,
    which the A and B builds share and their agreement cannot see -- fall
    below the target.  A 53-bit collocation there measures the rest,
    arithmetic noise scaling as 2^-bits; when it misses a third of the
    target, one rebuild at 53 + 8 + max(8, ceil(log2(shortfall))) bits is
    the run's build.  Every build reads at the layout's angles cond, norms."""
    fs = formal_solution(gc, settings.trunc_order, make_ctx(53))
    rho = settings.radius or compute_radius(fs, settings)
    try:
        build = _collocate(op, gc, layout, fs, rho, cond, norms)
    except (ArithmeticError, np.linalg.LinAlgError):
        if settings.radius:
            raise
        # beyond double range the request is out of reach: the run reads
        # the circle tail-safe to double precision and reports the miss
        rho = compute_radius(fs, replace(settings, radius_tol=2.0 ** -53))
        return _collocate(op, gc, layout, fs, rho, cond, norms)
    if build.cons <= settings.radius_tol / 3:
        return build
    shortfall = math.log2(build.cons) - math.log2(settings.radius_tol)
    bits = 53 + 8 + max(8, math.ceil(shortfall))
    return _collocate(op, gc, layout, formal_solution(
        gc, settings.trunc_order, make_ctx(bits)), rho, cond, norms)


def stokes_data(op, settings=None, plan=None):
    """Full pipeline: gauge, formal solution, sector layout, canonical
    frames collocated in the entire basis, factors, grouped matrices,
    residual certificates.  A plan from an earlier run freezes every
    discrete choice instead of selecting the reading circle anew; settings
    whose truncation order, base direction or nonzero radius differ from
    the plan's raise ValueError, since its circle, angles and term count
    belong to those."""
    settings = settings or StokesSettings()
    gc = gauge_transform(op)
    layout = sector_layout(gc, settings.v0)
    if plan is None:
        cond, norms = _sector_reading_plan(layout)
        build = _select_reading(op, gc, layout, settings, cond, norms)
        plan = CollocationPlan(rho=build.rho, nterms=build.basis.nterms,
                               bits=build.fs.ctx.bits, cond=cond, norms=norms,
                               perm=dominance_order(layout),
                               trunc_order=settings.trunc_order, v0=layout.v0)
    else:
        asked = settings.trunc_order, layout.v0, settings.radius or plan.rho
        if (plan.trunc_order, plan.v0, plan.rho) != asked:
            raise ValueError(
                f"the plan was made with trunc_order={plan.trunc_order}, "
                f"v0={plan.v0} and radius={plan.rho!r}, the settings ask for "
                f"trunc_order={settings.trunc_order}, v0={layout.v0} and "
                f"radius={settings.radius!r}")
        fs = formal_solution(gc, settings.trunc_order, make_ctx(plan.bits))
        build = _collocate(op, gc, layout, fs, plan.rho, plan.cond,
                           plan.norms, plan.nterms)
    fs, ctx = build.fs, build.fs.ctx
    factors = collocation_factors(fs, build.quotients, gc.det_twist)
    matrices = stokes_matrices(layout, factors)
    support, diag_dev, phantom = factor_support_residual(layout, factors)
    residuals = {
        "identity": identity_residual(ctx, matrices, fs.lam, gc.det_twist),
        "unipotency": unipotency_residual(matrices, plan.perm),
        "trace": fs.trace_residual(),
        "asymptotic": _series_tail(fs, plan.rho),
        "consistency": build.cons,
        "support": support,
        "factor_diag": diag_dev,
        "phantom": phantom,
    }
    bounds = {"consistency": 3 * settings.radius_tol,
              "asymptotic": settings.radius_tol}
    return StokesData(op=op, n=gc.n, k=gc.k, radius=plan.rho, lam=fs.lam,
                      qcoeffs=fs.qcoeffs, layout=layout, factors=factors, matrices=matrices,
                      perm=plan.perm, det_twist=gc.det_twist,
                      residuals=residuals, settings=settings, plan=plan,
                      missed=tuple(name for name, bound in bounds.items()
                                   if not residuals[name] <= bound))
