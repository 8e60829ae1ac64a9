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
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

import numpy as np

from .exactla import QQ, qzeros
from .isomono import OperPoint


# ---------------------------------------------------------------------------
# numeric contexts: float64 (numpy) and arbitrary precision (mpmath)

class FloatCtx:
    """Working precision = IEEE double (53 bits)."""

    bits = 53

    def pi(self):
        return math.pi

    def exp(self, x):
        return cmath.exp(x)

    def one(self):
        return 1.0 + 0.0j

    def to_complex(self, x):
        return complex(x)

    def number(self, v):
        if isinstance(v, Fraction):
            return complex(v.numerator / v.denominator)
        return complex(v)

    def matrix(self, rows):
        return np.array([[self.number(v) for v in row] for row in rows],
                        dtype=complex)

    def zeros(self, n, m=None):
        return np.zeros((n, m if m is not None else n), dtype=complex)

    def eye(self, n):
        return np.eye(n, dtype=complex)

    def solve(self, a, b):
        return np.linalg.solve(a, b)

    def log(self, x):
        return cmath.log(x)

    def root_of_unity(self, num, den):
        """exp(i pi num/den), argument reduced exactly before evaluation."""
        return cmath.exp(1j * math.pi * (num % (2 * den)) / den)


class MPCtx:
    """mpmath working precision (bits > 53)."""

    def __init__(self, bits):
        import mpmath
        self.mp = mpmath.mp.clone()
        self.mp.prec = bits
        self.bits = bits

    def pi(self):
        return +self.mp.pi

    def exp(self, x):
        return self.mp.exp(x)

    def one(self):
        return self.mp.mpc(1)

    def to_complex(self, x):
        return complex(x)

    def number(self, v):
        if isinstance(v, Fraction):
            return self.mp.mpc(self.mp.mpf(v.numerator) / v.denominator)
        if isinstance(v, complex):
            return self.mp.mpc(v.real, v.imag)
        return self.mp.mpc(v)

    def matrix(self, rows):
        return np.array([[self.number(v) for v in row] for row in rows],
                        dtype=object)

    def zeros(self, n, m=None):
        m = m if m is not None else n
        z = self.mp.mpc(0)
        return np.array([[z] * m for _ in range(n)], dtype=object)

    def eye(self, n):
        out = self.zeros(n)
        for t in range(n):
            out[t, t] = self.mp.mpc(1)
        return out

    def solve(self, a, b):
        """Gaussian elimination with partial pivoting; small dense systems."""
        n = a.shape[0]
        vec = b.ndim == 1
        rhs = b.reshape(n, 1) if vec else b
        aug = np.concatenate([a.copy(), rhs.copy()], axis=1)
        for col in range(n):
            piv = max(range(col, n), key=lambda r: abs(aug[r, col]))
            if abs(aug[piv, col]) == 0:
                raise ZeroDivisionError("singular matrix")
            if piv != col:
                aug[[col, piv]] = aug[[piv, col]]
            aug[col] = aug[col] / aug[col, col]
            for r in range(n):
                if r != col and aug[r, col] != 0:
                    aug[r] = aug[r] - aug[col] * aug[r, col]
        x = aug[:, n:]
        return x.reshape(-1) if vec else x

    def log(self, x):
        return self.mp.log(x)

    def root_of_unity(self, num, den):
        return self.mp.exp(self.mp.mpc(0, 1) * self.mp.pi * (num % (2 * den)) / den)


def make_ctx(bits):
    return FloatCtx() if bits <= 53 else MPCtx(bits)


# ---------------------------------------------------------------------------
# settings

@dataclass(frozen=True)
class StokesSettings:
    trunc_order: int = 20        # M: formal series kept through z^{-M}
    radius_tol: float = 1e-10    # target reading accuracy
    radius: float = 0.0          # 0 = adaptive reading circle
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

    def framed(self, ctx):
        """f0^{-1} B_j f0 with f0 the root-of-unity Vandermonde frame."""
        n = self.n
        f0 = frame_matrix(n, ctx)
        f0inv = _frame_inverse(n, ctx)
        out = [f0inv @ ctx.matrix(bj) @ f0 for bj in self.bcoeffs]
        lam = eigenvalue_vector(n, ctx)
        b0 = out[0]
        worst = max((abs(ctx.to_complex(b0[a, b]))
                     for a in range(n) for b in range(n) if a != b), default=0.0)
        if worst > 1e-10:
            raise ArithmeticError("frame failed to diagonalize the leading term")
        snapped = ctx.zeros(n)
        for a in range(n):
            snapped[a, a] = lam[a]
        out[0] = snapped
        return out


def frame_matrix(n, ctx):
    """Columns (1, lambda_b, ..., lambda_b^{n-1}): eigenvectors of the shift."""
    out = ctx.zeros(n)
    for a in range(n):
        for b in range(n):
            out[a, b] = ctx.root_of_unity(2 * a * b, n)
    return out


def eigenvalue_vector(n, ctx):
    return [ctx.root_of_unity(2 * b, n) for b in range(n)]


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

    ycoeffs[m] is the z^{-m} coefficient of Yhat (ycoeffs[0] = I);
    qcoeffs[j], j = 1..k+1, is the diagonal of the z^j coefficient of Q,
    stored as a vector; lam is the diagonal of Lambda.
    """
    n: int
    k: int
    M: int
    ycoeffs: list
    qcoeffs: dict
    lam: list
    ctx: object

    def yhat(self, z):
        acc = self.ycoeffs[0].copy()
        w = 1.0 / z
        pw = w
        for m in range(1, self.M + 1):
            acc = acc + self.ycoeffs[m] * pw
            pw = pw * w
        return acc

    def yhat_prime(self, z):
        acc = self.ctx.zeros(self.n)
        w = 1.0 / z
        pw = w * w
        for m in range(1, self.M + 1):
            acc = acc + self.ycoeffs[m] * (-m) * pw
            pw = pw * w
        return acc

    def q_entry(self, b, z):
        acc = 0 * z
        for j in range(self.k + 1, 0, -1):
            acc = (acc + self.qcoeffs[j][b]) * z
        return acc

    def q_prime_entry(self, b, z):
        acc = 0 * z
        for j in range(self.k + 1, 0, -1):
            acc = acc * z + j * self.qcoeffs[j][b]
        return acc

    def trace_residual(self):
        return abs(sum(self.ctx.to_complex(v) for v in self.lam))


def formal_solution(gc, M, ctx=None):
    """Order-by-order diagonalization, in two stages so levels stay decoupled.

    Stage 1 finds a diagonal-free gauge F = I + sum F_j z^{-j} conjugating the
    system onto a fully diagonal connection sum_j D_j z^{k-j}: at each level
    the off-diagonal part determines F_j (division by eigenvalue differences)
    and the diagonal part is D_j directly.  Q and Lambda read off
    D_0..D_{k+1}; the remaining diagonal tail is integrated term by term as a
    formal series in stage 2 and multiplied back in.
    """
    if M < gc.k + 2:
        raise ValueError("truncation order must be at least k+2")
    ctx = ctx or FloatCtx()
    n, k = gc.n, gc.k
    bt = gc.framed(ctx)
    jmax = len(bt) - 1
    lam = eigenvalue_vector(n, ctx)
    for a in range(n):
        for b in range(a + 1, n):
            if abs(ctx.to_complex(lam[a] - lam[b])) < 1e-12:
                raise ArithmeticError("eigenvalue collision in the leading term")
    levels = k + 1 + M
    F = [ctx.eye(n)]
    D = [list(lam)]
    for j in range(1, levels + 1):
        r = ctx.zeros(n)
        for b in range(max(0, j - jmax), j):
            r = r + bt[j - b] @ F[b]
        for b in range(1, j):
            scaled = F[b].copy()
            for col in range(n):
                scaled[:, col] = scaled[:, col] * D[j - b][col]
            r = r - scaled
        if j >= k + 2:
            r = r + (j - k - 1) * F[j - k - 1]
        D.append([r[a, a] for a in range(n)])
        fj = ctx.zeros(n)
        for a in range(n):
            for b in range(n):
                if a != b:
                    fj[a, b] = r[a, b] / (lam[b] - lam[a])
        F.append(fj)
    qcoeffs = {k + 1 - s: [D[s][a] / (k + 1 - s) for a in range(n)]
               for s in range(k + 1)}
    lam_vec = list(D[k + 1])
    # stage 2: diagonal tail u' = (sum_{t>=1} D_{k+1+t} z^{-1-t}) u
    one = ctx.one()
    u = [[one] * n]
    for m in range(1, M + 1):
        acc = [0 * one] * n
        for t in range(1, m + 1):
            if k + 1 + t <= levels:
                acc = [acc[a] + D[k + 1 + t][a] * u[m - t][a] for a in range(n)]
        u.append([-acc[a] / m for a in range(n)])
    y = []
    for m in range(M + 1):
        acc = ctx.zeros(n)
        for a_idx in range(m + 1):
            scaled = F[a_idx].copy()
            for col in range(n):
                scaled[:, col] = scaled[:, col] * u[m - a_idx][col]
            acc = acc + scaled
        y.append(acc)
    return FormalSolution(n=n, k=k, M=M, ycoeffs=y, qcoeffs=qcoeffs,
                          lam=lam_vec, ctx=ctx)


def formal_residual(gc, fs, z):
    """|| Yhat' - B Yhat + Yhat (Q' + Lambda/z) || at a concrete z (framed)."""
    ctx = fs.ctx
    n = fs.n
    bt = gc.framed(ctx)
    z = ctx.number(z)
    bz = ctx.zeros(n)
    w = 1.0 / z
    pw = z ** gc.k
    for bj in bt:
        bz = bz + bj * pw
        pw = pw * w
    yh = fs.yhat(z)
    res = fs.yhat_prime(z) - bz @ yh
    for b in range(n):
        res[:, b] = res[:, b] + yh[:, b] * (fs.q_prime_entry(b, z) + fs.lam[b] / z)
    return max(abs(ctx.to_complex(res[a, b])) for a in range(n) for b in range(n))


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
# radius bounds for the reading-circle scan

# nats of dominance gap between the most separated modes on the innermost
# scanned circle
_INNER_EXPONENT = 6.0


def _tail_norms(fs):
    """(m, max-norm of the z^{-m} term) for the last kept formal terms --
    several, to ride out parity-sparse series whose top term vanishes."""
    ctx = fs.ctx
    return [(m, max((abs(ctx.to_complex(v)) for v in np.ravel(fs.ycoeffs[m])),
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


def inner_radius(fs):
    """Innermost useful reading radius: the dominance gap between two
    exponential modes grows like max|lam_a - lam_b| r^{k+1}/(k+1), and the
    circle on which that exponent reaches _INNER_EXPONENT is where the modes
    first separate by a few nats."""
    n, k = fs.n, fs.k
    max_diff = 2.0 * math.sin(math.pi * (n // 2) / n)
    r0 = ((k + 1) * _INNER_EXPONENT / max_diff) ** (1.0 / (k + 1))
    return max(1.0, r0)


# ---------------------------------------------------------------------------
# entire scalar basis and content readings

class EntireBasis:
    """Taylor basis at the origin of the scalar equation y^(n) = p(z) y.

    Column j is the entire solution with y^(t)(0) = delta_{tj}.  Every
    fundamental matrix of the gauged system is a constant linear image of
    these columns, so their values on the reading circle are computed from
    the convergent series alone.  Coefficients are pre-scaled by rho^m,
    i.e. kept as the term magnitudes on the circle, which keeps every
    intermediate quantity within floating range and makes the truncation
    criterion a plain relative comparison.  They are stored once, times the
    falling factorial of each derivative row, as the table state_matrix
    sums."""

    def __init__(self, op, ctx, rho, bits, nterms=None):
        self.n = op.n
        self.ctx = ctx
        self.rho = float(rho)
        n, d = op.n, op.d
        rho_c = ctx.number(self.rho)
        one = ctx.one()
        src = [(d, rho_c ** (d + n))]
        for m in range(d - 1):
            c = op.p_coeff(m)
            if c:
                src.append((m, ctx.number(c) * rho_c ** (m + n)))
        cols = [[] for _ in range(n)]
        fact = 1
        for m in range(n):
            if m:
                fact *= m
            for j in range(n):
                cols[j].append((one * ctx.number(Fraction(1, fact))
                                * rho_c ** m) if m == j else 0 * one)
        window = n + d
        peak_log = -math.inf
        quiet = 0
        m = n
        limit = nterms if nterms is not None else _MAX_TERMS
        while m < limit:
            s = m - n
            denom = ctx.number(Fraction(1, math.prod(range(s + 1, s + n + 1))))
            worst = -math.inf
            for j in range(n):
                acc = 0 * one
                for mm, pc in src:
                    if mm <= s:
                        acc = acc + pc * cols[j][s - mm]
                acc = acc * denom
                cols[j].append(acc)
                worst = max(worst, _log_abs(ctx, acc))
            peak_log = max(peak_log, worst)
            quiet = quiet + 1 if worst < peak_log - (bits + 8) * _LN2 else 0
            m += 1
            if nterms is None and quiet >= window and m > 2 * (n + d):
                break
        else:
            if nterms is None:
                raise ArithmeticError("entire basis did not converge on the "
                                      "reading circle within the term cap")
        self.nterms = m
        # table[t][j][m] = (scaled coefficient m of column j) times the
        # falling factorial m (m-1) ... (m-t+1) of derivative row t: complex
        # doubles at 53 bits, fixed-point integer lists (see _fixed_row) above
        falls = [[math.perm(mm, t) for mm in range(m)] for t in range(n)]
        if isinstance(ctx, FloatCtx):
            # an overflowed series gives inf * 0 = nan here, which the
            # finiteness checks downstream reject
            with np.errstate(invalid="ignore"):
                self.table = (np.array(falls, dtype=float)[:, None, :]
                              * np.array(cols, dtype=complex)[None, :, :])
        else:
            self.table = [[_fixed_row(cols[j], falls[t], bits)
                           for j in range(n)] for t in range(n)]

    def state_matrix(self, theta_fpi):
        """Rows y^(t), t = 0..n-1, of each basis column at z = rho e^{i theta}
        on the build circle.

        Summation runs over the unit phases u^m, u = e^{i theta}, times the
        stored scaled coefficients, so the accumulated magnitudes never
        exceed the term sizes on the circle; the z^{-t} restores the
        derivative scaling afterwards.  At double precision the sum is one
        complex matrix-vector product; above it, the powers are Gaussian
        integers in fixed point and each entry is an exact integer dot
        product, rounded once to the working precision."""
        ctx = self.ctx
        n = self.n
        u = ctx.exp(1j * ctx.number(theta_fpi) * ctx.pi())
        zinv = ctx.one() / (ctx.number(self.rho) * u)
        if isinstance(ctx, FloatCtx):
            powers = np.full(self.nterms, u, dtype=complex)
            powers[0] = 1.0
            zpow = np.full(n, zinv, dtype=complex)
            zpow[0] = 1.0
            return (self.table @ np.cumprod(powers)) * np.cumprod(zpow)[:, None]
        frac = ctx.bits + _GUARD_BITS
        ur = _fixed(u.real, frac)
        ui = _fixed(u.imag, frac)
        pr, pi = [1 << frac], [0]
        for _ in range(self.nterms - 1):
            a, b = pr[-1], pi[-1]
            pr.append((a * ur - b * ui) >> frac)
            pi.append((a * ui + b * ur) >> frac)
        mpf, mpc = ctx.mp.mpf, ctx.mp.mpc
        out = ctx.zeros(n)
        scale = ctx.one()
        for t in range(n):
            for j in range(n):
                ar, ai, afrac = self.table[t][j]
                re = sum(map(mul, ar, pr)) - sum(map(mul, ai, pi))
                im = sum(map(mul, ar, pi)) + sum(map(mul, ai, pr))
                exp = -(afrac + frac)
                out[t, j] = mpc(mpf((re, exp)), mpf((im, exp))) * scale
            scale = scale * zinv
        return out


def _fixed(x, frac, factor=1):
    """floor(factor x 2^frac) for an mpf x, exactly (x = man 2^exp)."""
    sign, man, exp, _ = x._mpf_
    v = -man * factor if sign else man * factor
    return v << (exp + frac) if exp + frac >= 0 else v >> -(exp + frac)


def _fixed_row(col, falls, bits):
    """Real and imaginary parts of col[m] falls[m] in fixed point, with
    `frac` fraction bits chosen so the largest entry carries bits +
    _GUARD_BITS bits."""
    top = max((abs(f * x.man).bit_length() + x.exp
               for b, f in zip(col, falls) for x in (b.real, b.imag)
               if f and x), default=0)
    frac = bits + _GUARD_BITS - top
    return ([_fixed(b.real, frac, f) for b, f in zip(col, falls)],
            [_fixed(b.imag, frac, f) for b, f in zip(col, falls)], frac)


_LN2 = math.log(2.0)
# cap on the adaptive term count of an entire basis
_MAX_TERMS = 20000
# fixed-point bits kept below the working precision by the multiprecision
# series evaluator: the m-th power is off by at most 2m units, so a sum of
# N <= _MAX_TERMS terms is off by under 2 N^2 < 2^30 units of its largest
# term, still 2^-10 below the working precision
_GUARD_BITS = 40


def _log_abs(ctx, x):
    if isinstance(ctx, FloatCtx):
        a = abs(x)
        return math.log(a) if a > 0 else -math.inf
    a = abs(x)
    return float(ctx.mp.log(a)) if a != 0 else -math.inf


def _series_tail(fs, rho):
    """Reading-circle bound on the truncated formal frame: the largest of the
    last kept terms."""
    return max([0.0] + [norm * rho ** (-m) for m, norm in _tail_norms(fs)])


@dataclass
class _Build:
    """One collocation at a reading radius: the formal solution and entire
    basis it read, the A and B sector coefficients and their agreement."""
    fs: FormalSolution
    basis: EntireBasis
    rho: float
    va: dict
    vb: dict
    cons: float


def _collocate(op, gc, layout, fs, rho, cond, norms, nterms=None):
    """Both independent builds at reading radius rho, plus their agreement.

    The entire basis is built on the circle rho at the formal solution's
    precision (with a frozen term count when replaying).  The two builds
    collocate at different angles, so the worst deviation of
    (A build)^{-1} (B build) from the identity over all sectors measures the
    actual reading error at this radius -- truncated-frame tail and
    amplified working-precision noise together, without modeling either."""
    ctx = fs.ctx
    basis = EntireBasis(op, ctx, rho, ctx.bits, nterms)
    f0inv = _frame_inverse(gc.n, ctx)
    angles = sorted(set(cond.values()) | set(norms.values()))
    gammas = {th: _content_matrix(gc, fs, basis, f0inv, th) for th in angles}
    va = sector_coefficients(fs, layout, gammas, cond, norms, "A")
    vb = sector_coefficients(fs, layout, gammas, cond, norms, "B")
    eye = ctx.eye(gc.n)
    cons = 0.0
    for i in range(1, layout.r + 1):
        dev = ctx.solve(va[i], vb[i]) - eye
        worst = max(abs(ctx.to_complex(v)) for v in np.ravel(dev))
        # a NaN deviation must propagate: max(cons, nan) would keep cons
        cons = worst if not worst <= cons else cons
    if not math.isfinite(cons):
        raise ArithmeticError("collocation build overflowed")
    return _Build(fs=fs, basis=basis, rho=rho, va=va, vb=vb, cons=cons)


def _scan_radii(fs, settings):
    """Candidate reading circles: geometric grid from the radius where mode
    gaps reach a few nats out to the radius where the truncated-frame tail
    drops two orders below the target tolerance (so a tail-safe circle for
    the precision escalation always lies inside the grid)."""
    if settings.radius:
        return [float(settings.radius)]
    hi = compute_radius(fs, settings) * 100.0 ** (1.0 / fs.M)
    lo = min(max(1.0, inner_radius(fs)), 0.9 * hi)
    steps = 20
    return [lo * (hi / lo) ** (t / steps) for t in range(steps + 1)]


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


def _frame_inverse(n, ctx):
    f0inv = ctx.zeros(n)
    inv_n = ctx.number(Fraction(1, n))
    for a in range(n):
        for b in range(n):
            f0inv[a, b] = inv_n * ctx.root_of_unity(-2 * a * b, n)
    return f0inv


def _content_matrix(gc, fs, basis, f0inv, theta_fpi):
    """Contents of the entire-basis columns against the formal modes at one
    reading angle: row x holds each column's coefficient along mode x, read
    from the truncated formal frame at z = rho e^{i theta} on the basis'
    circle.  The chart log z = ln rho + i pi theta ties every fractional
    power (the trace-split scalar, z^Lambda) to the unwrapped angle chain, so
    re-reading sector 1 on the shifted chart is what produces the wrap
    factor's extra scalars."""
    ctx = fs.ctx
    n, k = fs.n, fs.k
    chart = (ctx.log(ctx.number(basis.rho))
             + 1j * ctx.number(theta_fpi) * ctx.pi())
    z = ctx.exp(chart)
    shift = Fraction(gc.k * (gc.n + 1), 2)
    x = basis.state_matrix(theta_fpi)
    for a in range(n):
        expo = ctx.number((n - a) * k - shift)
        x[a, :] = x[a, :] * ctx.exp(expo * chart)
    w = f0inv @ x
    cont = ctx.solve(fs.yhat(z), w)
    for b in range(n):
        scale = ctx.exp(-(fs.q_entry(b, z) + fs.lam[b] * chart))
        cont[b, :] = cont[b, :] * scale
    return cont


@dataclass(frozen=True)
class CollocationPlan:
    """Discrete data of a collocation run, frozen so finite-difference
    stencils reuse identical circles, angles, term counts, working precision
    and mode labeling."""
    rho: float
    nterms: int
    bits: int
    cond: dict      # (sector, variant, column, mode) -> Fraction-of-pi angle
    norms: dict     # (sector, column) -> Fraction-of-pi angle
    perm: tuple     # mode labeling in which S_1 is upper triangular


def sector_coefficients(fs, layout, gammas, cond, norms, variant):
    """Coefficient matrices of the canonical frames in the entire basis.

    Column d of sector i solves n collocation conditions: vanishing content
    along each foreign mode at that mode's reading angle, unit self-content
    at the normalization angle."""
    ctx = fs.ctx
    n = layout.n
    out = {}
    for i in range(1, layout.r + 1):
        vmat = ctx.zeros(n)
        for d in range(n):
            rows = ctx.zeros(n)
            rhs = ctx.zeros(n, 1)
            at = 0
            for a in range(n):
                if a == d:
                    continue
                rows[at, :] = gammas[cond[(i, variant, d, a)]][a, :]
                at += 1
            rows[n - 1, :] = gammas[norms[(i, d)]][d, :]
            rhs[n - 1, 0] = ctx.one()
            vmat[:, d] = ctx.solve(rows, rhs)[:, 0]
        out[i] = vmat
    return out


def collocation_factors(fs, layout, va, vb, det_twist):
    """Connection factors K_j = Phi_j^{-1} Phi_{j-1} as entire-basis algebra.

    Factor j pairs the A build of sector j with the B build of sector j-1,
    so no matrix object is shared between consecutive factors and the
    closure of the full product measures real disagreement between
    independent collocations.  The wrap factor compares sector 1 against
    sector r: re-reading sector 1 on the chart shifted by 2 pi multiplies
    its contents by the det twist and exp(2 pi i Lambda), giving the
    closed-form extra scalars here."""
    ctx = fs.ctx
    n = fs.n
    factors = {j: ctx.solve(va[j], vb[j - 1]) for j in range(2, layout.r + 1)}
    wrap = ctx.solve(va[1], vb[layout.r])
    tau = 2j * ctx.number(ctx.pi())
    sigma = ctx.number(det_twist)
    for d in range(n):
        wrap[:, d] = wrap[:, d] * (sigma * ctx.exp(-tau * fs.lam[d]))
    factors[1] = wrap
    return [factors[j] for j in range(1, layout.r + 1)]


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
    n = mat.shape[0]
    out = mat.copy()
    for s in range(n):
        for t in range(n):
            out[s, t] = mat[order[s], order[t]]
    return out


def unipotency_residual(ctx, mats, perm):
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
                v = abs(ctx.to_complex(conj[s, t]))
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
            v = ctx.to_complex(acc[s, t]) * ctx.to_complex(twist[t])
            target = det_twist if s == t else 0.0
            worst = max(worst, abs(v - target))
    return worst


def factor_support_residual(ctx, layout, factors):
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
                v = abs(ctx.to_complex(kmat[c, d]))
                if c == d:
                    local_diag = max(local_diag, abs(v - 1.0))
                elif (c, d) not in allowed:
                    support = max(support, v)
        diag_dev = max(diag_dev, local_diag)
        if layout.is_phantom(j):
            off = max(abs(ctx.to_complex(kmat[c, d]))
                      for c in range(n) for d in range(n) if c != d)
            phantom = max(phantom, max(off, local_diag))
    return support, diag_dev, phantom


# ---------------------------------------------------------------------------
# top-level driver

@dataclass
class StokesData:
    """Complete Stokes output of one oper point, with its frozen plan and
    self-diagnosed residuals.  converged says whether the A/B agreement met
    the requested tolerance within the escalation's factor of 3; a run that
    missed it still returns its data.  lam and qcoeffs are the run's formal
    exponents Lambda and Q, as on FormalSolution."""
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
    converged: bool

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
    """Pick reading radius and working precision by measurement, and return
    the build that settled the choice.  The collocation angles cond and
    norms come from the layout alone, so every build here reads at the same
    angles.

    Scan: the candidate circles innermost first, each read from its own
    double-precision basis, recording its A/B agreement and stopping at the
    first circle that meets the target tolerance (smallest basis that does
    the job, so tightening the tolerance genuinely sharpens the run).  A
    circle whose build is not finite is skipped.  When no circle meets it at
    double precision, move to the innermost circle whose truncated-frame
    tail is safely below the target and raise the working precision by the
    measured shortfall (A/B disagreement there is pure arithmetic noise,
    which scales as 2^-bits), then rebuild."""
    fs = formal_solution(gc, settings.trunc_order, FloatCtx())
    target = settings.radius_tol
    scanned = {}
    for s in _scan_radii(fs, settings):
        try:
            scanned[s] = _collocate(op, gc, layout, fs, s, cond, norms)
        except (ArithmeticError, np.linalg.LinAlgError, ZeroDivisionError):
            continue
        if scanned[s].cons <= target / 3:
            break
    if not scanned:
        raise ArithmeticError("no viable reading circle in the scanned range")
    okay = [s for s in scanned if scanned[s].cons <= target / 3]
    if okay:
        rho = min(okay)
    else:
        feasible = [s for s in scanned if _series_tail(fs, s) <= target / 30]
        rho = (min(feasible) if feasible
               else min(scanned, key=lambda s: scanned[s].cons))
    final = scanned[rho]
    bits, shortfall = fs.ctx.bits, final.cons / target
    for _ in range(3):
        if shortfall <= 3:
            break
        bits = bits + max(8, math.ceil(math.log2(shortfall))) + 8
        final = _collocate(op, gc, layout, formal_solution(
            gc, settings.trunc_order, make_ctx(bits)), rho, cond, norms)
        shortfall = final.cons / target
    return final


def stokes_data(op, settings=None, plan=None):
    """Full pipeline: gauge, formal solution, sector layout, canonical
    frames collocated in the entire basis, factors, grouped matrices,
    residual certificates.  A plan from an earlier run freezes every
    discrete choice instead of selecting the reading circle anew."""
    settings = settings or StokesSettings()
    gc = gauge_transform(op)
    layout = sector_layout(gc, settings.v0)
    if plan is None:
        cond, norms = _sector_reading_plan(layout)
        build = _select_reading(op, gc, layout, settings, cond, norms)
        plan = CollocationPlan(rho=build.rho, nterms=build.basis.nterms,
                               bits=build.fs.ctx.bits, cond=cond, norms=norms,
                               perm=dominance_order(layout))
    else:
        fs = formal_solution(gc, settings.trunc_order, make_ctx(plan.bits))
        build = _collocate(op, gc, layout, fs, plan.rho, plan.cond,
                           plan.norms, plan.nterms)
    fs, ctx = build.fs, build.fs.ctx
    factors = collocation_factors(fs, layout, build.va, build.vb,
                                  gc.det_twist)
    matrices = stokes_matrices(layout, factors)
    support, diag_dev, phantom = factor_support_residual(ctx, layout, factors)
    residuals = {
        "identity": identity_residual(ctx, matrices, fs.lam, gc.det_twist),
        "unipotency": unipotency_residual(ctx, matrices, plan.perm),
        "trace": fs.trace_residual(),
        "asymptotic": _series_tail(fs, plan.rho),
        "consistency": build.cons,
        "support": support,
        "factor_diag": diag_dev,
        "phantom": phantom,
    }
    return StokesData(op=op, n=gc.n, k=gc.k, radius=plan.rho, lam=fs.lam,
                      qcoeffs=fs.qcoeffs, layout=layout, factors=factors, matrices=matrices,
                      perm=plan.perm, det_twist=gc.det_twist,
                      residuals=residuals, settings=settings, plan=plan,
                      converged=build.cons <= 3 * settings.radius_tol)
