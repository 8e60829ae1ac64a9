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

import functools
import math
import numbers
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .exactla import QQ, qzeros
from .isomono import OperPoint


# ---------------------------------------------------------------------------
# numeric context: the working precision and the arithmetic that carries it

class NumericContext:
    """Working precision of a run: scalars in a private mpmath context at
    `bits`, pi among them, and `frac`, the fraction bits of every
    fixed-point construction, rounded once to the working precision by
    _rounded.  mpmath is imported by the first context or root table."""

    def __init__(self, bits):
        self.bits = bits
        self.frac = bits + _GUARD_BITS
        mp = _mpmath_at(bits)
        self.real, self.complex = mp.mpf, mp.mpc
        self.exp, self.log = mp.exp, mp.log
        self.pi = +mp.pi

    def number(self, v):
        """An int, float, complex or Fraction as a working-precision complex;
        a Fraction is divided at the working precision (mpmath takes no
        Fraction)."""
        if isinstance(v, Fraction):
            v = self.real(v.numerator) / v.denominator
        return self.complex(v)


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
        if type(self.trunc_order) is not int:        # no float, no bool
            raise ValueError(f"trunc_order must be an int, got "
                             f"{self.trunc_order!r}")
        for name, relation in (("radius_tol", ">"), ("radius", ">=")):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got "
                                 f"{value!r}")
            if not (math.isfinite(value)
                    and (value > 0 or value == 0 and relation == ">=")):
                raise ValueError(f"{name} must be finite and {relation} 0, "
                                 f"got {value!r}")


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
    return GaugedConnection(n=n, k=k, bcoeffs=tuple(bc),
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


def formal_solution(gcs, M, ctx):
    """Order-by-order diagonalization, in two stages so levels stay decoupled,
    of gauged connections of one (n, k): one FormalSolution each.

    Stage 1 finds a diagonal-free gauge F = I + sum F_j z^{-j} conjugating the
    system onto a fully diagonal connection sum_j D_j z^{k-j}: at each level
    the off-diagonal part determines F_j (division by eigenvalue differences)
    and the diagonal part is D_j directly.  Q and Lambda read off
    D_0..D_{k+1}; the remaining diagonal tail is integrated term by term as a
    formal series u in stage 2 and multiplied back in.

    At every precision this runs on Gaussian integers with `frac` fraction
    bits: the exact B_j framed by the root table's f0, F, D and u triples
    (_triple), each order's sums three-product matmuls (_gauss) shifted
    back once (the B's side by side times the F's stacked, and per column a
    dot product over the levels for F D, u and Yhat = F u), the divisions
    by the eigenvalue gaps products with fixed-point reciprocals, every
    array with a point axis after the parts.  Results are rounded once to
    the working precision; Yhat's coefficients are kept as computed,
    unrounded (`fixed`)."""
    n, k, frac, size = gcs[0].n, gcs[0].k, ctx.frac, len(gcs)
    if M < k + 2:
        raise ValueError("truncation order must be at least k+2")
    f0, f0inv = _fixed_frame(ctx, n)
    b = np.array([[[[_quantized(c, frac) for c in row] for row in bj]
                   for bj in gc.bcoeffs] for gc in gcs], dtype=object)
    b = _gauss(np.moveaxis(b, 4, 0), f0, np.matmul) >> frac
    bt = _triple(_gauss(f0inv, b, np.matmul) >> frac)   # (3, P, j, n, n)
    lam = f0[:, 1]
    # the leading term must frame to diag(lambda), up to rounding units
    if np.abs(bt[:2, :, 0] - [[np.diag(v)] for v in lam]).max() > 1 << 8:
        raise ArithmeticError("frame failed to diagonalize the leading term")
    gap = lam[:, None, :] - lam[:, :, None]        # lambda_b - lambda_a
    norm = gap[0] * gap[0] + gap[1] * gap[1] + np.eye(n, dtype=object)
    recip = np.array([gap[0], -gap[1]]) * (1 << 2 * frac) // norm
    levels = k + 2 + M
    F = np.zeros((3, size, levels, n, n), dtype=object)
    F[0, :, 0] = F[2, :, 0] = np.eye(n, dtype=object) << frac
    cols = F.transpose(0, 1, 4, 3, 2)       # F_j[a, c] at (c, a, j), a view
    D = np.zeros((3, size, n, levels), dtype=object)
    D[..., 0] = _triple(lam)[:, None]
    for j in range(1, levels):
        lo = max(0, j - bt.shape[2] + 1)
        # sum_b B_{j-b} F_b: the B's side by side times the F's stacked
        side = bt[:, :, j - lo:0:-1].transpose(0, 1, 3, 2, 4)
        r = _gauss(side.reshape(3, size, n, -1),
                   F[:, :, lo:j].reshape(3, size, -1, n), np.matmul)
        # sum_b F_b D_{j-b}: F_b[a, c] D_{j-b}[c] summed over b per c
        fd = _gauss(cols[..., 1:j], D[..., j - 1:0:-1, None], np.matmul)
        r = (r - fd[..., 0].swapaxes(-1, -2)) >> frac
        if j >= k + 2:
            r = r + (j - k - 1) * F[:2, :, j - k - 1]
        D[..., j] = _triple(np.diagonal(r, axis1=-2, axis2=-1))
        F[:, :, j] = _triple(_gauss(r, recip) >> frac)
    # stage 2: diagonal tail u' = (sum_{t>=1} D_{k+1+t} z^{-1-t}) u
    u = np.zeros((3, size, n, M + 1), dtype=object)
    u[0, ..., 0] = u[2, ..., 0] = 1 << frac
    for m in range(1, M + 1):
        acc = _gauss(D[..., None, k + 2:k + 2 + m],
                     u[..., m - 1::-1, None], np.matmul)[..., 0, 0]
        u[..., m] = _triple(-(acc >> frac) // m)
    ys = np.array([_gauss(cols[..., :m + 1], u[..., m::-1, None],
                          np.matmul)[..., 0].swapaxes(-1, -2) >> frac
                   for m in range(M + 1)])          # (M + 1, 2, P, n, n)
    return [FormalSolution(
        n=n, k=k, M=M,
        qcoeffs={k + 1 - s: list(_rounded(ctx, *D[:2, p, :, s], -frac)
                                 / (k + 1 - s))
                 for s in range(k + 1)},
        lam=list(_rounded(ctx, *D[:2, p, :, k + 1], -frac)), ctx=ctx,
        fixed=ys[:, :, p]) for p in range(size)]


def _triple(x):
    """(re, im) as (re, im, re + im), a factor _gauss's matmul reuses."""
    return np.array([x[0], x[1], x[0] + x[1]])


def _gauss(x, y, op=np.multiply):
    """Product (re, im) of two Gaussian-integer arrays with leading axis
    (re, im), or (re, im, re + im) for a reused factor (_triple), exactly.
    np.multiply (entrywise, broadcasting a vector over columns) takes four
    products; np.matmul takes Gauss's three (Knuth, TAOCP 2, 4.6.4), each
    summed in the matmul: re = p1 - p2 and im = p3 - p1 - p2 for p1 =
    x_re y_re, p2 = x_im y_im and p3 = (x_re + x_im)(y_re + y_im)."""
    if op is np.multiply:
        return np.array([op(x[0], y[0]) - op(x[1], y[1]),
                         op(x[0], y[1]) + op(x[1], y[0])])
    p3 = op(*(v[2] if len(v) == 3 else v[0] + v[1] for v in (x, y)))
    p1, p2 = op(x[0], y[0]), op(x[1], y[1])
    p3 -= p1
    p3 -= p2
    p1 -= p2
    return np.array([p1, p3])


def _fixed_frame(ctx, n):
    """f0 and f0^{-1} = conj(f0)/n (f0 is symmetric) as (2, n, n)
    Gaussian-integer arrays with `frac` fraction bits, read from the root
    table; f0's columns (1, lambda_b, ..., lambda_b^{n-1}) are the
    eigenvectors of the cyclic shift."""
    a = np.arange(n)
    f0 = np.moveaxis(_unit_roots(ctx.frac, n)[2 * np.outer(a, a) % (2 * n)],
                     2, 0)
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
    terms contributes below radius_tol (inf past double range)."""
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
    derivative row, are the fixed-point table _table_sums reads over the
    unit powers of an angle (every collocation angle is p/q with q |
    4n(k+1))."""

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
        # terms are kept down to the table's resolution, one fixed-point
        # unit, since a truncation the A and B builds share is one their
        # consistency cannot see
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
            quiet = quiet + 1 if worst < peak - frac else 0
            m += 1
            if nterms is None and quiet >= n + d and m > 2 * (n + d):
                break
        else:
            if nterms is None:
                raise ArithmeticError("entire basis did not converge on the "
                                      "reading circle within the term cap")
        self.nterms = m
        # entry (t, j) of the table: (scaled coefficient m of column j) times
        # the falling factorial m (m-1) ... (m-t+1) of derivative row t, cut
        # so the largest coefficient of the entry carries `frac` bits
        falls = np.array([[math.perm(mm, t) for mm in range(m)]
                          for t in range(n)], dtype=object)
        coeffs = np.moveaxis(np.array(cols, dtype=object), 2, 0)
        coeffs = coeffs[:, None] * falls[:, None]
        cut = np.array([[max(0, v.bit_length() - frac) for v in row]
                        for row in np.abs(coeffs).max(axis=(0, 3))],
                       dtype=object)
        coeffs >>= cut[..., None]
        self.table = coeffs, cut - frac

    def state_matrix(self, theta_fpi):
        """Rows y^(t), t = 0..n-1, of each basis column at z = rho e^{i theta}
        on the build circle.

        Summation runs over the unit phases u^m, u = e^{i theta}, times the
        stored scaled coefficients (_table_sums), so the accumulated
        magnitudes never exceed the term sizes on the circle; the z^{-t}
        restores the derivative scaling afterwards."""
        ctx = self.ctx
        sums, exp = _table_sums(ctx, self.table, *_period([theta_fpi]))
        out = _rounded(ctx, *sums[..., 0], exp)
        zinv = 1 / (ctx.number(self.rho)
                    * ctx.exp(1j * ctx.number(theta_fpi) * ctx.pi))
        scale = 1
        for t in range(1, self.n):
            scale = scale * zinv
            out[t, :] = out[t, :] * scale
        return out


def _period(thetas):
    """Q, the angles' common even period, and each angle's numerator P over
    it: the least even Q with every angle P/Q, P an integer, so that u =
    e^{i pi theta} has u^(2Q) = 1, u^Q = (-1)^P and u^(Q/2) = i^P
    exactly.  An angle must be exact, an int or a Fraction of pi: its
    denominator sizes the root table and the fold."""
    for theta in thetas:
        if not isinstance(theta, (int, Fraction)):
            raise TypeError(f"an angle must be an int or a Fraction of pi, "
                            f"got {theta!r}")
    q = math.lcm(*(theta.denominator for theta in thetas))
    period = q if q % 2 == 0 else 2 * q
    return period, [theta.numerator * (period // theta.denominator)
                    for theta in thetas]


@functools.lru_cache(maxsize=None)
def _unit_roots(frac, den):
    """e^{i pi r/den}, r < 2 den, as the Gaussian-integer array (2 den, 2)
    of (re, im) with `frac` fraction bits: the one root table per
    denominator and precision.  The roots of the first quadrant, or of the
    first half when den is odd, are each rounded to nearest from mpmath 10
    bits deeper, so within one unit; the rest are their exact turns by i,
    -1 and -i, so that on the table a quarter turn of the angle is exactly
    a product by i (_table_sums).  A root's value depends on its angle
    alone, not on the denominator of the table it is read from."""
    from mpmath.libmp import mpf_shift, to_int
    mp = _mpmath_at(frac + 10)
    turns = 2 if den % 2 else 4
    first = np.array([[(to_int(mpf_shift(x._mpf_, frac + 1), "f") + 1) >> 1
                       for x in (z.real, z.imag)]
                      for z in (mp.expjpi(mp.mpf(r) / den)
                                for r in range(2 * den // turns))],
                     dtype=object)
    if turns == 2:
        return np.concatenate([first, -first])
    turned = np.stack([-first[:, 1], first[:, 0]], axis=1)     # i first
    return np.concatenate([first, turned, -first, -turned])


def _table_sums(ctx, table, period, numerators):
    """Per entry of a fixed-point table (coeffs, exp), the sums of
    _class_sums at every angle: (sums, exp), sums of shape (2, rows,
    entries, angles), value sums 2^exp."""
    out = np.empty(table[0].shape[:3] + (len(numerators),), dtype=object)
    for cols, sums in _class_sums(ctx, table, period, numerators):
        out[..., cols] = sums
    return out, table[1] - ctx.frac


def _class_sums(ctx, table, period, numerators):
    """Per entry of a fixed-point table (coeffs, exp), the Gaussian-integer
    array (2, rows, entries, terms) of coefficients over m, or (2, points,
    rows, entries, terms) for a batch's (_inverse_table), and the (rows,
    entries) array of exponents, value coeffs 2^exp, sum_m coeffs[..., m]
    u^m exactly at each angle P/Q, Q the angles' common period and P each
    one's numerator (_period), one class P mod 4 at a time: per class with
    angles, (cols, sums), cols its angles' indices and sums of shape (2,
    ..., len(cols)), value sums 2^(exp - frac).  The table is
    folded once by 2Q, since u^m = u^(m mod 2Q), then by the quarter turns
    u^(Q/2) = i^P into one table of length Q/2 per class, each summed by
    one three-product matmul (_gauss) with its angles' unit powers u^m, the
    roots 2Pm mod 4Q of the root table of denominator 2Q.  Integer
    additions and products by powers of i only, exact on the root table,
    whose quarter turns are exact (_unit_roots)."""
    coeffs = table[0]
    # zeros of Python ints: np.pad would pad an object array with int64s
    pad = np.zeros(coeffs.shape[:-1] + (-coeffs.shape[-1] % (2 * period),),
                   dtype=object)
    coeffs = np.concatenate([coeffs, pad], axis=-1)
    coeffs = coeffs.reshape(coeffs.shape[:-1] + (-1, 2 * period)).sum(axis=-2)
    # class c sums i^(cj) b_j over the quarters b_j: (b0 + b2) +- (b1 + b3)
    # for c = 0, 2 and (b0 - b2) +- i (b1 - b3) for c = 1, 3
    b0, b1, b2, b3 = np.split(coeffs, 4, axis=-1)
    s0, s1, d0, d1 = b0 + b2, b1 + b3, b0 - b2, b1 - b3
    d1 = np.array([-d1[1], d1[0]])
    folded = (s0 + s1, d0 + d1, s0 - s1, d0 - d1)
    # the generator's frame outlives this fold: keep only the class tables
    del coeffs, b0, b1, b2, b3, s0, s1, d0, d1
    steps = np.array([2 * p % (4 * period) for p in numerators])
    index = np.arange(period // 2)[:, None] * steps % (4 * period)
    powers = np.moveaxis(_unit_roots(ctx.frac, 2 * period)[index], 2, 0)
    for c, part in enumerate(folded):
        cols = [a for a, p in enumerate(numerators) if p % 4 == c]
        if cols:
            yield cols, _gauss(part, powers[..., cols], np.matmul)


def _rounded(ctx, re, im, exp):
    """(re + i im) 2^exp, arrays of ints with exp broadcast, as a
    working-precision array, each part rounded once."""
    return np.frompyfunc(lambda r, i, e: ctx.complex(ctx.real((r, e)),
                                                     ctx.real((i, e))),
                         3, 1)(re, im, exp).astype(object)


def _quantized(v, frac, scale=1):
    """floor(v scale 2^frac), part by part, for an int, Fraction, float or
    complex v and a Fraction scale, all exact (a double is a dyadic
    rational): a Gaussian integer, each floor one integer division."""
    s = Fraction(scale)
    return tuple((x.numerator * s.numerator << frac)
                 // (x.denominator * s.denominator)
                 for x in map(Fraction, (v.real, v.imag)))


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
# keeps its smallest column rho^(h_a) at full resolution.  Table sums are
# exact: every unit power is a root within one unit, and folding by residue
# mod 2Q and then by the quarter turns only adds coefficients and turns
# them by powers of i, which the root table's exact quarter turns make
# exact, so a sum is off by at most sum_m |T_m| units, under N < 2^15
# units of the largest term T_m (N <= _MAX_TERMS), and contents are exact
# from these sums to one rounding.  Collocation: each raw content
# entry (no mode exponential) is rounded once to bits + 40 significant bits
# (_aligned), each sector column is solved exactly and rounded once to
# bits + 40 bits of its largest entry (sector_coefficients), the A/B
# consistency and the factor quotients are exact (_eliminate), and each
# factor entry is rounded once to `bits`.  A kill row gives its column at
# any nonzero scale, so only the normalization row's right-hand side e^{E},
# one working-precision exp, carries a mode exponential; its rounding at
# 2^-bits scales its column as a whole and reaches a factor entry as a
# relative 2^-bits, the size of that entry's own rounding.  So the only
# other errors before the result's are the two roundings at 2^-(bits+40),
# and each moves a solution by at most the condition number
# kappa of the matrix solved (the collocation matrix, the A build) times
# that (Higham 2002, ch. 7; an exact elimination adds none of ch. 9's
# growth): the bits lost are bounded by log2 kappa, which the A/B
# consistency measures, and up to kappa = 2^40 the factors keep their full
# `bits`.  The columns are rounded because exact ones would carry (n-1)-
# minors into the quotients: at z^6 (n = 6) those took 95 ms a sector.  A
# batch of points (replay) takes each step per entry as a batch of one does,
# so no point's result depends on the batch it is made in.
_GUARD_BITS = 40


def _series_tail(fs, rho):
    """Reading-circle bound on the truncated formal frame: the largest of the
    last kept terms."""
    return max([0.0] + [norm * rho ** (-m) for m, norm in _tail_norms(fs)])


@dataclass
class _Build:
    """One point's collocation at a reading radius: the formal solution it
    read, its entire basis' circle and term count, the quotients the
    factors are made of and the A/B agreement."""
    fs: FormalSolution
    rho: float
    nterms: int
    quotients: list
    cons: float


def _collocate(ops, layout, fss, rho, nterms=None):
    """Both independent builds at reading radius rho, plus their agreement,
    of every point of a layout: one _Build each.

    Each entire basis is built on the circle rho at the formal solutions'
    precision (with a frozen term count when replaying).  The two builds
    collocate at different angles, so the worst deviation of
    (A build)^{-1} (B build) from the identity over all sectors measures the
    amplified working-precision noise at this radius, without modeling it;
    the truncated formal frame's tail, which both builds share, not at all.

    Factor j pairs the A build of sector j with the B build of sector j-1
    (the wrap factor, j = 1, with sector r), so no matrix object is shared
    between consecutive factors and the closure of the full product
    measures real disagreement between independent collocations.  Per
    sector one exact elimination against A (_exact_quotient) serves both
    its agreement and its factor, each factor entry rounded once.  Every
    build at a layout reads at that layout's angles (_layout_reading).
    Every integer layer takes all points at once: the column solves one
    sector at a time (sector_coefficients) and the quotients of every
    sector in one elimination; a fresh run is a batch of one."""
    ctx, n, rho = fss[0].ctx, layout.n, float(rho)
    reads, pairs, _, _ = _layout_reading(layout)
    terms = []

    def tables():           # each summed by _content_matrix as it is drawn
        for op in ops:
            basis = EntireBasis(op, ctx, rho, nterms)
            terms.append(basis.nterms)
            yield basis.table

    contents = _content_matrix(fss, tables(), _inverse_table(fss, rho), reads)
    scalars = [_mode_scalars(fs, rho, pairs) for fs in fss]
    y, s = sector_coefficients(fss, layout, contents, scalars)
    # sector i of every point against A: its B build and sector i - 1's
    # (sector r's for sector 1)
    x, det, exp = _exact_quotient(
        (y[:, :, 0], s[:, 0]), (y[:, :, 1], s[:, 1]),
        (np.roll(y[:, :, 1], 1, axis=2), np.roll(s[:, 1], 1, axis=1)))
    deviations = _deviation(x[..., :n], det, exp[..., :n]).max(axis=1)
    if not np.isfinite(deviations).all():      # a NaN from any sector too
        raise ArithmeticError("collocation build overflowed")
    return [_Build(fs=fs, rho=rho, nterms=terms[p], cons=float(deviations[p]),
                   quotients=[_rounded_quotient(ctx, x[:, p, i, :, n:],
                                                det[:, p, i], exp[p, i, :, n:])
                              for i in range(layout.r)])
            for p, fs in enumerate(fss)]


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
    every point with this layout, and is made once per run.

    The rule runs on sectors 1 and 2 only.  Two spacings on, (k+1) theta
    gains 2/n and lambda_a e^{2 pi i/n} = lambda_{a+1} (Sibuya 1975), so
    sector i reads sector i-2's angles two spacings on, with column and mode
    one up mod n: exactly, since the arcs are exact Fractions and
    _leading_re reduces its argument exactly before the cosine, so every
    score and tie repeats."""
    n, step = layout.n, layout.spacing / 4
    cond, norms = {}, {}
    for i in (1, 2):
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
    turn = 2 * layout.spacing
    for i in range(3, layout.r + 1):
        for d in range(n):
            for a in range(n):
                if a != d:
                    for variant in "AB":
                        back = (i - 2, variant, (d + 1) % n, (a + 1) % n)
                        cond[(i, variant, d, a)] = cond[back] + turn
            norms[(i, d)] = norms[(i - 2, (d + 1) % n)] + turn
    return cond, norms


@functools.lru_cache(maxsize=None)
def _layout_reading(layout):
    """What every build at a layout reads, worked out once per layout and
    shared by its runs and replays, every angle (_sector_reading_plan)
    looked up here so a build reads by position: `reads`, the angles and
    the (angle index, mode) rows read there (_content_matrix); `pairs`,
    the sorted normalization (angle, column) pairs, the only ones whose
    mode scalars a build needs (_mode_scalars), since an exact solve gives
    a kill row's column at any nonzero scale; and per variant, sector and
    column its rows, normalization last, and its pair (`systems`,
    `scales`: sector_coefficients).  Callers share it and must not change
    it."""
    cond, norms = _sector_reading_plan(layout)
    pairs = sorted({(theta, d) for (_, d), theta in norms.items()})
    keys = sorted({(theta, a) for (*_, a), theta in cond.items()}
                  | set(pairs))
    row = {key: index for index, key in enumerate(keys)}
    pair = {key: index for index, key in enumerate(pairs)}
    angles = sorted({theta for theta, _ in keys})
    at = {theta: t for t, theta in enumerate(angles)}
    rows = [(at[theta], b) for theta, b in keys]
    n, sectors = layout.n, range(1, layout.r + 1)
    systems = np.array([[[[row[(cond[(i, v, d, a)], a)] for a in range(n)
                           if a != d] + [row[(norms[(i, d)], d)]]
                          for d in range(n)] for i in sectors] for v in "AB"])
    scales = np.array([[pair[(norms[(i, d)], d)] for d in range(n)]
                       for i in sectors])
    return (angles, rows), pairs, systems, scales


@functools.lru_cache(maxsize=None)
def _layout_shape(layout):
    """The shape every run at a layout is checked and read in, worked out
    once per layout like its angles (_layout_reading): the mode labeling
    `perm` (dominance_order); per grouped matrix S_i, in that labeling, the
    strict triangle it may fill, upper for odd i and lower for even i;
    per factor K_j its allowed entries, the diagonal and the pairs its ray
    crosses, the wrap factor K_1 on d_{r+1} = d_1 + 2 crossing ray 1's; and
    which factors sit on phantom rays, crossed by no pair.  Callers share
    it and must not change it."""
    n = layout.n
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    triangles = np.array([upper if i % 2 else upper.T
                          for i in range(1, 2 * layout.k + 3)])
    supports = np.array([np.eye(n, dtype=bool)] * layout.r)
    for j, pairs in enumerate(layout.pairs):
        for a, b in pairs:
            supports[j, a, b] = True
    phantom = np.array([not pairs for pairs in layout.pairs])
    return dominance_order(layout), triangles, supports, phantom


def _inverse_table(fss, rho):
    """sum_{m<=M} W_m z^{-m} f0^{-1} on the circle rho, W_0 = I and W_m =
    -sum_{j>=1} Y_j W_{m-j}, for each formal solution of a batch: V_m =
    rho^-m W_m f0^{-1} obeys the recurrence in Y_j rho^-j, and 1/z^m =
    rho^-m conj(u^m), so the table holds conj(V_m) and its sums are
    conjugated.  The recurrence runs on Gaussian integers
    at every precision, the Y's and V's as triples (re, im, re + im), one
    three-product matmul (_gauss) per order for the batch: the Y's side by
    side times the V's stacked.  Column a also carries rho^(h_a), the
    modulus of gauged row a of a content (_gauge_exponents), since the
    recurrence only multiplies on the left.  The table has
    EntireBasis.table's format, rows b and entries a, with a point axis
    after the parts; rho, g and mod are the batch's, so one exponent array
    serves every point."""
    ctx, n, M, frac = fss[0].ctx, fss[0].n, fss[0].M, fss[0].ctx.frac
    # rho is a dyadic rational, so its powers scale exactly up to one floor,
    # and a half-integer power is one isqrt; the table keeps g more fraction
    # bits, so its smallest column keeps `frac` bits
    r = Fraction(rho)
    j = np.arange(1, M + 1, dtype=object)[:, None]   # Y_j[a, c] at (a, j, c)
    ys = np.array([fs.fixed[1:] for fs in fss]).transpose(2, 0, 3, 1, 4)
    ys = _triple(ys * r.denominator ** j // r.numerator ** j)
    ys = ys.reshape(3, len(fss), n, -1)
    sq = [r ** int(2 * h) for h in _gauge_exponents(n, fss[0].k)]
    g = max(0, max(s.denominator.bit_length() - s.numerator.bit_length()
                   for s in sq) // 2 + 1)
    mod = np.array([math.isqrt(math.floor(s * 4 ** (frac + g)))
                    for s in sq], dtype=object)
    vs = np.zeros((3, len(fss), M + 1, n, n), dtype=object)
    vs[:, :, 0] = _triple(_fixed_frame(ctx, n)[1] * mod >> frac)[:, None]
    for m in range(1, M + 1):
        vs[:, :, m] = _triple(-(_gauss(
            ys[..., :n * m], vs[:, :, m - 1::-1].reshape(3, len(fss), -1, n),
            np.matmul) >> frac))
    coeffs = np.moveaxis(np.array([vs[0], -vs[1]]), 2, -1)
    return coeffs, np.full((n, n), -(frac + g), dtype=object)


@functools.lru_cache(maxsize=None)
def _gauge_exponents(n, k):
    """h_a, a < n: gauged row a of a content is z^(h_a) times row a of the
    state sums, h_a the gauge exponent (n-a)k - k(n+1)/2 less the
    derivative order a."""
    return tuple((n - a) * k - Fraction(k * (n + 1), 2) - a for a in range(n))


def _content_matrix(fss, tables, inverse, reads):
    """Raw content rows of every point's entire-basis columns against the
    formal modes read at each angle, `reads` the angles and the (angle
    index, mode x) rows read: row x holds each column's coefficient along
    mode x, read from the truncated formal frame at z = rho e^{i theta} on
    the bases' circle as (formal-inverse table) times (gauged state sums),
    without mode x's exponential: the content is e^{-(q_x(z) + lambda_x
    log z)} times the raw row.  `tables` yields each point's
    EntireBasis.table and `inverse` is the batch's _inverse_table.
    Returned as (rows, low): point p's row t is rows[:, p, t] 2^low[p, t].

    Every angle is read as P/Q for Q the angles' common period (_period).
    The phase e^{i pi theta h_a} of gauged row a is one root of order 4Q
    read at the unwrapped numerator P, so the chart log z = ln rho + i pi
    theta stays explicit: on the next sheet a raw row takes the det twist
    and its mode scalar e^{-2 pi i lambda_x}, the wrap factor's extra
    scalars (_stokes_result).  The modulus rho^(h_a) of gauged row a
    is in the inverse table's columns.  Each table is folded once and
    summed one class P mod 4 at a time (_class_sums), a basis table before
    the next is drawn, so the sums of every point and the inverse's of one
    class are held together; the contents of every mode and point are one
    stacked product per class; each read entry is rounded once, to `frac`
    significant bits (_aligned)."""
    ctx, (angles, rows) = fss[0].ctx, reads
    twice = [int(2 * h) for h in _gauge_exponents(fss[0].n, fss[0].k)]
    period, numerators = _period(angles)
    phase = np.moveaxis(_unit_roots(ctx.frac, 2 * period)[
        [[p * t % (4 * period) for t in twice] for p in numerators]], 2, 0)
    sums, se = zip(*(([s for _, s in _class_sums(ctx, t, period, numerators)],
                      t[1] - ctx.frac) for t in tables))
    se = np.array(se)
    low = se.min(axis=1)                         # align each column exactly
    shift = (se - low[:, None])[:, None]
    exp = (low - 2 * ctx.frac + inverse[1][0, 0])[:, None]
    at, modes = np.array(rows).T
    out = np.empty((2, len(fss), len(rows), fss[0].n), dtype=object)
    out_low = np.empty((len(fss), len(rows)), dtype=object)
    where = np.empty(len(angles), dtype=int)
    for (cols, w), *point in zip(
            _class_sums(ctx, inverse, period, numerators), *sums):
        x = _gauss(phase[:, None, cols, :, None],
                   np.moveaxis(np.stack(point, axis=1), -1, 2))
        x <<= shift
        cont = _gauss(np.moveaxis(np.array([w[0], -w[1]]), -1, 2), x,
                      np.matmul)
        # the rows read at this class's angles, by place among its angles
        where[cols] = range(len(cols))
        pick = np.flatnonzero(np.isin(at, cols))
        out[:, :, pick], out_low[:, pick] = _aligned(
            *cont[:, :, where[at[pick]], modes[pick]], exp, ctx.frac)
    return out, out_low


def _mode_scalars(fs, rho, pairs):
    """Per (theta, b) in pairs, in their order, e^{E} for mode b's
    exponential E = q_b(z) + lambda_b log z at z = rho e^{i pi theta} on
    the chart log z = ln rho + i pi theta: the right-hand side a
    normalization row solves for (sector_coefficients).  One log per call;
    z is rho times a root of the root table of the angles' common period,
    made once per run of pairs at one angle, so the exponential of each
    pair is the only exp."""
    ctx = fs.ctx
    log_rho = ctx.log(ctx.number(rho))
    period, numerators = _period([theta for theta, _ in pairs])
    roots = _unit_roots(ctx.frac, 2 * period)
    out, last = [], None
    for (theta, b), p in zip(pairs, numerators):
        if p != last:
            ur, ui = roots[2 * p % (4 * period)]
            z = ctx.number(rho) * ctx.complex(ctx.real((ur, -ctx.frac)),
                                              ctx.real((ui, -ctx.frac)))
            chart, last = log_rho + 1j * ctx.number(theta) * ctx.pi, p
        out.append(ctx.exp(fs.q_entry(b, z) + fs.lam[b] * chart))
    return out


# bit lengths of an object array of ints, entrywise
_bit_length = np.frompyfunc(int.bit_length, 1, 1)


def _aligned(re, im, exp, frac):
    """Rows of entries (re + i im) 2^exp, entries on the last axis and exp
    broadcast, each rounded to nearest to `frac` significant bits, as
    Gaussian integers on their row's lowest exponent: (rows, low), rows of
    shape (2, ...) and the row rows 2^low.  Zero entries take no part in
    the lowest exponent, and a row of zeros has low 0."""
    s = np.maximum(_bit_length(np.maximum(abs(re), abs(im))) - frac, 0)
    half = (1 << s) >> 1
    re, im, e = (re + half) >> s, (im + half) >> s, exp + s
    live = (re != 0) | (im != 0)
    low = np.where(live, e, e.max() + 1).min(axis=-1)
    low = np.where(live.any(axis=-1), low, 0)
    shift = np.maximum(e - low[..., None], 0)
    return np.array([re << shift, im << shift]), low


@dataclass(frozen=True)
class CollocationPlan:
    """Every choice of a collocation run, frozen so finite-difference
    stencils reuse identical settings, circles, term counts and working
    precision.  The angles (_layout_reading) and the mode labeling
    (dominance_order) are functions of the layout alone, so a replayed
    point must have the layout's n and k."""
    settings: StokesSettings
    layout: SectorLayout
    rho: float          # the reading circle
    nterms: int         # the entire basis' term count
    bits: int           # the working precision


def sector_coefficients(fss, layout, contents, scalars):
    """Coefficient matrices of the canonical frames in the entire basis, of
    every point, variant and sector of a build.

    Column d of sector i solves n collocation conditions: vanishing content
    along each foreign mode at that mode's reading angle, unit self-content
    at the normalization angle, its rows (_layout_reading) taken from
    `contents` (_content_matrix) and its normalization's scalar s from the
    point's `scalars` (_mode_scalars).  The column v with rows . v = (0,
    ..., 0, s) is solved exactly, a sector's columns of every point and
    variant in one elimination, and rounded once, to nearest on `frac`
    bits of its largest entry.  Only the normalization row has a
    right-hand side, so only its exponents scale the column: 2^e row . v =
    2^se s' is row . v = s' 2^(se - e).
    Returns (y, s), y (2, P, 2, r, n, n) and s (P, 2, r, n): sector i + 1
    of point p in variant v (A, B) is y[:, p, v, i] diag(2^s[p, v, i])."""
    n, frac = layout.n, fss[0].ctx.frac
    _, _, systems, scales = _layout_reading(layout)
    rows, low = contents
    rhs = np.array([[_exact(v) for v in point] for point in scalars],
                   dtype=object)[:, scales]                 # (P, r, n, 3)
    y, s = [], []
    for i in range(layout.r):
        # one sector at a time: a system's minors grow with n, and a whole
        # build's 2rn systems at once took 70 MB more at z^10 (n = 10)
        aug = np.zeros(rows.shape[:2] + (2, n, n, n + 1), dtype=object)
        aug[..., :n] = rows[:, :, systems[:, i]]
        aug[..., -1, n] = np.moveaxis(rhs[:, i, :, :2], -1, 0)[:, :, None]
        det, x = _eliminate(aug)
        # x / det = x conj(det) / |det|^2
        num = _gauss(x[..., 0], np.array([det[0], -det[1]])[..., None])
        norm = det[0] * det[0] + det[1] * det[1]
        exp = (_bit_length(np.maximum(abs(num[0]), abs(num[1])).max(axis=-1))
               - _bit_length(norm) - frac)
        y.append(np.frompyfunc(_divide, 3, 1)(num, norm[..., None],
                                              exp[..., None]))
        s.append(exp + rhs[:, None, i, :, 2] - low[:, systems[:, i, :, -1]])
    return np.stack(y, axis=3).swapaxes(-1, -2), np.stack(s, axis=2)


def _eliminate(aug):
    """Fraction-free Gauss-Jordan elimination over the Gaussian integers
    (Bareiss 1968) of a stack of systems [A | B], an array (2, ..., n,
    n + m) (re, im) with every A square: (det, x) of shapes (2, ...) and
    (2, ..., n, m), det each system's last pivot (det A up to sign) and
    x = det A^{-1} B, all exact.  Each step cross-multiplies every other
    row by the pivot and divides exactly by the previous pivot, so the
    entries stay minors of [A | B]; a row of every system at a time, so
    only one row's products are held.  Each system's pivot is the first
    nonzero entry of its column: exact arithmetic needs no search by
    modulus.  A singular A anywhere in the stack raises
    ZeroDivisionError."""
    batch, (n, width) = aug.shape[1:-2], aug.shape[-2:]
    re, im = aug.reshape((2, -1, n, width)).copy()
    every = np.arange(re.shape[0])
    for k in range(n):
        nonzero = (re[:, k:, k] != 0) | (im[:, k:, k] != 0)
        if not nonzero.any(axis=1).all():
            raise ZeroDivisionError("singular collocation system")
        p = k + nonzero.argmax(axis=1)
        if (p != k).any():
            for part in (re, im):
                part[every, k], part[every, p] = part[every, p], part[every, k]
        # views: the pivot row's entries up to column k no longer change
        kr, ki = re[:, k, k, None], im[:, k, k, None]
        ar, ai = re[:, k, k + 1:], im[:, k, k + 1:]
        for t in range(n):
            if t == k:
                continue
            br, bi = re[:, t, k + 1:], im[:, t, k + 1:]
            cr, ci = re[:, t, k, None], im[:, t, k, None]
            xr = kr * br - ki * bi - cr * ar + ci * ai
            xi = kr * bi + ki * br - cr * ai - ci * ar
            if k:
                # exact division by the previous pivot p: x conj(p) / |p|^2
                xr, xi = ((xr * pr + xi * pi) // norm,
                          (xi * pr - xr * pi) // norm)
            br[...], bi[...] = xr, xi
        pr, pi, norm = kr, ki, kr * kr + ki * ki
    return (np.array([pr, pi]).reshape((2,) + batch),
            np.array([re[..., n:], im[..., n:]]).reshape(
                (2,) + batch + (n, width - n)))


def _exact_quotient(a, *bs):
    """a^{-1} [b_1 | b_2 | ...] for fixed-point matrices (y, s) of value
    y diag(2^s) (sector_coefficients), or stacks of them with the same
    leading axes, from one elimination of [y_a | y_b]: a^{-1} b =
    diag(2^-s_a) y_a^{-1} y_b diag(2^s_b), so entry (r, c) is x[r, c]
    2^exp[r, c] / det with x = det y_a^{-1} y_b.  Returns x (2, ..., n,
    m), det (2, ...) and exp (..., n, m), all exact."""
    ya, sa = a
    yb, sb = (np.concatenate(part, axis=-1) for part in zip(*bs))
    det, x = _eliminate(np.concatenate([ya, yb], axis=-1))
    return x, det, sb[..., None, :] - sa[..., :, None]


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
    """Largest modulus of each square _exact_quotient x 2^exp / det of a
    stack minus the identity, as floats: each difference is exact, its
    modulus rounded (inf everywhere past double range)."""
    p = x << np.maximum(exp, 0)
    q = det[..., None, None] << np.maximum(-exp, 0)
    diagonal = np.arange(exp.shape[-1])
    p[..., diagonal, diagonal] -= q[..., diagonal, diagonal]
    try:
        ratio = (p[0] * p[0] + p[1] * p[1]) / (q[0] * q[0] + q[1] * q[1])
    except OverflowError:
        return np.full(exp.shape[:-2], math.inf)
    return np.sqrt(ratio.astype(float)).max(axis=(-2, -1))


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


def identity_residual(ctx, mats, lam, det_twist):
    """Max-norm distance of S_{2k+2} ... S_1 exp(2 pi i Lambda) from the
    det-twist multiple of the identity -- the monodromy-free certificate for
    the whole pipeline."""
    n = mats[0].shape[0]
    acc = np.eye(n, dtype=object)
    for mat in mats:
        acc = mat @ acc
    twist = [ctx.exp(ctx.number(2j) * ctx.number(ctx.pi) * lam[b])
             for b in range(n)]
    worst = 0.0
    for s in range(n):
        for t in range(n):
            v = complex(acc[s, t]) * complex(twist[t])
            target = det_twist if s == t else 0.0
            worst = max(worst, abs(v - target))
    return worst


def _identity_gap(mats):
    """Entrywise distance of a stack of matrices from the identity in
    modulus, ||m_ss| - 1| on the diagonal and |m_st| off it, each entry
    rounded to a double first and its modulus taken by hypot, as
    abs(complex) takes it (np.abs can differ in the last bit)."""
    z = np.array(mats, dtype=complex)
    mod = np.hypot(z.real, z.imag)
    return np.where(np.eye(z.shape[-1], dtype=bool), abs(mod - 1.0), mod)


# ---------------------------------------------------------------------------
# top-level driver

@dataclass
class StokesData:
    """Complete Stokes output of one oper point on its plan, with
    self-diagnosed residuals.  perm is the mode labeling of plan.layout
    (dominance_order).  The shape residuals "unipotency", "support",
    "factor_diag" and "phantom" are the largest distances from the
    identity (_identity_gap) of the entries that the layout's masks
    (_layout_shape) leave out or pick, and monitored_vector reads the
    grouped matrices through the same triangles.  missed names the
    residuals that missed their bounds: "consistency" when the A/B
    agreement is not within 3 radius_tol, the slack left by the reading's
    one precision correction, and "asymptotic" when the truncated frame's
    tail, which both builds share, is not within radius_tol; converged
    holds when neither did, and a run that missed either still returns its
    data.  lam and qcoeffs are the run's formal exponents Lambda and Q, as
    on FormalSolution; plan.bits is _FIRST_BITS, or the bits of the
    reading's one correction."""
    op: OperPoint
    plan: CollocationPlan
    lam: list
    qcoeffs: dict
    factors: list
    matrices: list
    perm: tuple
    det_twist: int
    residuals: dict
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
        _, triangles, _, _ = _layout_shape(self.plan.layout)
        conj = np.array(self.matrices)[:, self.perm][:, :, self.perm]
        return np.array(conj[triangles], dtype=complex)


# the bits of a fresh run's first build: at the default settings every
# monomial point from (n, k) = (2, 1) to (6, 1), and (5, 2) and (4, 3),
# reads to its request in one build at 69 bits (measured), where a first
# build at 53 bits needed a second one at 69 to 100 bits at each of them
# but (2, 1) to (2, 3)
_FIRST_BITS = 69


def _select_reading(op, gc, layout, settings):
    """The run's build, on settings.radius or else compute_radius's circle,
    where the first omitted formal terms -- the truncated frame's error,
    which the A and B builds share and their agreement cannot see -- fall
    below the target.  A collocation at _FIRST_BITS there measures the
    rest, arithmetic noise scaling as 2^-bits; when it misses a third of
    the target, one rebuild at _FIRST_BITS + 8 + max(8,
    ceil(log2(shortfall))) bits is the run's build.  Each build is a batch
    of one."""
    [fs] = formal_solution([gc], settings.trunc_order, make_ctx(_FIRST_BITS))
    rho = settings.radius or compute_radius(fs, settings)
    build = None
    if math.isfinite(rho):
        try:
            [build] = _collocate([op], layout, [fs], rho)
        except ArithmeticError:
            if settings.radius:
                raise
    if build is None:
        # a tail-safe circle beyond double range (Weber at radius_tol
        # 1e-300), or one that the entire basis cannot sum within its term
        # cap (1e-100), puts the request out of reach: the run reads the
        # circle tail-safe to 2^-53 and reports the miss.  The first build's
        # other ArithmeticErrors on the tail-safe circle take this fallback
        # too: a singular collocation system (ZeroDivisionError) and a NaN
        # from any sector ("collocation build overflowed")
        rho = compute_radius(fs, replace(settings, radius_tol=2.0 ** -53))
        return _collocate([op], layout, [fs], rho)[0]
    if build.cons <= settings.radius_tol / 3:
        return build
    shortfall = math.log2(build.cons) - math.log2(settings.radius_tol)
    bits = _FIRST_BITS + 8 + max(8, math.ceil(shortfall))
    return _collocate([op], layout, formal_solution(
        [gc], settings.trunc_order, make_ctx(bits)), rho)[0]


def stokes_data(op, settings=None):
    """Full pipeline: gauge, formal solution, sector layout, canonical
    frames collocated in the entire basis, factors, grouped matrices,
    residual certificates.  The run selects its reading circle and
    precision; its plan freezes them for replays."""
    settings = settings or StokesSettings()
    gc = gauge_transform(op)
    layout = sector_layout(gc, settings.v0)
    build = _select_reading(op, gc, layout, settings)
    plan = CollocationPlan(settings=settings, layout=layout, rho=build.rho,
                           nterms=build.nterms, bits=build.fs.ctx.bits)
    return _stokes_result(op, gc, plan, build)


def replay(ops, plan):
    """stokes_data of every point of `ops` on a plan, which freezes every
    choice, made as one batch: a point whose n or k differs from the
    plan's layout raises ValueError, since the plan's angles belong to its
    layout."""
    n, k = plan.layout.n, plan.layout.k
    for op in ops:
        if (op.n, op.k) != (n, k):
            raise ValueError(f"the plan was made with n={n}, k={k}, a point "
                             f"asks for n={op.n}, k={op.k}")
    if not ops:         # formal_solution reads n off its first point
        return []
    gcs = [gauge_transform(op) for op in ops]
    fss = formal_solution(gcs, plan.settings.trunc_order, make_ctx(plan.bits))
    builds = _collocate(ops, plan.layout, fss, plan.rho, plan.nterms)
    return [_stokes_result(op, gc, plan, build)
            for op, gc, build in zip(ops, gcs, builds)]


def _stokes_result(op, gc, plan, build):
    """A point's StokesData from its build on the plan: the factors K_j =
    Phi_j^{-1} Phi_{j-1}, j = 1..r, the build's quotients (A build of
    sector j)^{-1} (B build of sector j-1) (_collocate), their grouped
    matrices and residuals."""
    fs, ctx, layout = build.fs, build.fs.ctx, plan.layout
    perm, triangles, supports, phantom = _layout_shape(layout)
    # the wrap factor K_1 compares sector 1 against sector r: re-reading
    # sector 1 on the chart shifted by 2 pi multiplies its contents by the
    # det twist and exp(2 pi i Lambda)
    tau, sigma = 2j * ctx.number(ctx.pi), ctx.number(gc.det_twist)
    wrap = np.array([sigma * ctx.exp(-tau * lam) for lam in fs.lam],
                    dtype=object)
    factors = [build.quotients[0] * wrap] + build.quotients[1:]
    matrices = stokes_matrices(layout, factors)
    gaps = _identity_gap(factors)
    grouped = _identity_gap(matrices)[:, perm][:, :, perm]
    residuals = {
        "identity": identity_residual(ctx, matrices, fs.lam, gc.det_twist),
        "unipotency": float(grouped[~triangles].max(initial=0.0)),
        "trace": fs.trace_residual(),
        "asymptotic": _series_tail(fs, plan.rho),
        "consistency": build.cons,
        "support": float(gaps[~supports].max(initial=0.0)),
        "factor_diag": float(np.diagonal(gaps, 0, 1, 2).max(initial=0.0)),
        "phantom": float(gaps[phantom].max(initial=0.0)),
    }
    tol = plan.settings.radius_tol
    bounds = {"consistency": 3 * tol, "asymptotic": tol}
    return StokesData(op=op, plan=plan, lam=fs.lam, qcoeffs=fs.qcoeffs,
                      factors=factors, matrices=matrices, perm=perm,
                      det_twist=gc.det_twist, residuals=residuals,
                      missed=tuple(name for name, bound in bounds.items()
                                   if not residuals[name] <= bound))
