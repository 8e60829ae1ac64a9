"""Numerical Stokes data for canonically normalized cyclic opers.

Common ground: the companion-form connection of y^(n) = p(z) y is pushed to
infinity-normal form by the diagonal gauge g = diag(z^{(n-j)k}); the scalar
trace part (weight c = kn(n+1)/2) is split off in closed form so the working
system is trace-free, at the price of a global determinant twist
sigma = (-1)^{k(n+1)} in the monodromy identity.  The formal frame
Yhat z^Lambda exp(Q) and its inverse come from scalar series of the
equation and of its adjoint, each a recurrence of fixed length, paired by
the bilinear concomitant, with no matrix diagonalization.  Angles are
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
between independent constructions instead of telescoping to zero.  The
factors are exact quotients of integer solves, each factor and grouped entry
is rounded once to a double from exact data, and mpmath makes only scalars.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

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
        if self.v0 is not None:         # what Fraction() reads, no bool
            try:
                if isinstance(self.v0, bool):
                    raise TypeError
                Fraction(self.v0)
            except (TypeError, ValueError, ArithmeticError):
                raise ValueError(f"v0 must be a Fraction of pi, got "
                                 f"{self.v0!r}") from None


# ---------------------------------------------------------------------------
# formal solution

def det_twist(op):
    """sigma = (-1)^{k(n+1)}, the scalar the full product of Stokes matrices
    reproduces in place of the identity, because the gauge splits off the
    trace kn(n+1)/(2z) (FormalSolution)."""
    return -1 if (op.k * (op.n + 1)) % 2 else 1


@dataclass
class FormalSolution:
    """Yhat z^Lambda exp(Q) through order M, in the framed gauge: the
    companion connection of y^(n) = p y conjugated by diag(z^{(n-t)k}), its
    trace kn(n+1)/(2z) split off (det_twist), framed by f0 (_fixed_frame).

    fixed[m] and dual[..., m] are the z^{-m} coefficients of Yhat (fixed[0]
    = I up to units) and of Yhat^{-1} f0^{-1} (rows a, entries t), (2, n,
    n) fixed-point arrays of the parts with `frac` fraction bits, read by
    the tail norms (_tail_norms) and the formal inverse (_inverse_table).
    qcoeffs[j], j = 1..k+1, is the diagonal of the z^j coefficient of Q as
    a vector and lam that of Lambda, both at the working precision.
    """
    n: int
    k: int
    M: int
    qcoeffs: dict
    lam: list
    ctx: object
    fixed: np.ndarray
    dual: np.ndarray

    def q_entry(self, b, z):
        acc = 0 * z
        for j in range(self.k + 1, 0, -1):
            acc = (acc + self.qcoeffs[j][b]) * z
        return acc

    def trace_residual(self):
        return abs(sum(complex(v) for v in self.lam))

    @functools.cached_property
    def tail(self):
        """_tail_norms, rounded once per formal solution."""
        return _tail_norms(self)


def _root_series(op):
    """Exact (re, im) r_0..r_{k+1} of p^{1/n} = z^k sum_i r_i z^{-i}: with
    P_j at z^{d-j} in p, n i r_i = sum_{j<=i} (j - n(i-j)) P_j r_{i-j}."""
    big = np.array([[Fraction(c.real), Fraction(c.imag)] for c in
                    map(op.p_coeff, range(op.d, op.d - op.k - 2, -1))]).T
    r = np.zeros((2, op.k + 2), dtype=object)
    r[0, 0] = Fraction(1)
    for i in range(1, op.k + 2):
        r[:, i] = sum(_gauss(big[:, j], r[:, i - j])
                      * Fraction(j - op.n * (i - j), op.n * i)
                      for j in range(1, i + 1))
    return r


def _raised(phi, x, top, frac):
    """z^{-k} (D + phi') on series x[..., i] of z^{top - i}, as (re, im):
    phi' = sum_l phi[..., l] z^{k-l} moves term i to i + l, times phi_l,
    and D moves it to i + k + 1, times top - i."""
    k, width = phi.shape[-1] - 2, x.shape[-1]
    out = np.zeros_like(x[:2])
    for i in range(k + 2):
        out[..., i:] += _gauss(phi[..., i, None], x[..., :width - i])
    out >>= frac
    out[..., k + 1:] += (top - np.arange(width - k - 1, dtype=object)
                         ) * x[:2, ..., :-k - 1]
    return out


def formal_solution(ops, M, ctx):
    """Formal solutions of points of one (n, k), a FormalSolution each,
    from the scalar equation (Wasow 1965; README).

    Mode a is w_a e^{phi_a}, phi_a' = l sum_{i<=k} r_i z^{k-i} + (l r_{k+1}
    - (n-1)k/2)/z, r_i the exact roots of p^{1/n} (_root_series), l =
    lambda_a for y^(n) = p y and -lambda_a for its adjoint y^(n) = (-1)^n
    p y; ((D + phi')^n - l^n p) w = 0 is the recurrence s_m = sum_{i <=
    (n-1)(k+1)} s_{m-i} T_i(m-i) / (m n l^{n-1}), T_i from the C_j of D^j
    in (D + phi')^n, C^{(t+1)}_j = C^{(t)}_j' + phi' C^{(t)}_j +
    C^{(t)}_{j-1}.  Column a of f0 Yhat is z^{-tk} (D + phi_a')^t w_a and,
    by the bilinear concomitant (Ince 1926), row a of Yhat^{-1}
    f0^{-1} is lambda_a/n (-1)^j z^{-jk} (D + psi_a')^j v_a, j = n-1-t, v_a
    and psi_a' the adjoint's.  All series of all points run at once on
    Gaussian integers with `frac` fraction bits, each product (_gauss)
    shifted back once; l r_i is floored once and rounded once for Lambda_a
    = l r_{k+1} and Q_{j,a} = l r_{k+1-j}/j (then divided by j)."""
    n, k, frac, size = ops[0].n, ops[0].k, ctx.frac, len(ops)
    if M < k + 2:
        raise ValueError("truncation order must be at least k+2")
    f0, f0inv = _fixed_frame(ctx, n)
    # l of every series, the equation's modes then the adjoint's, and l^n
    ell = np.concatenate([f0[:, 1], -f0[:, 1]], axis=1)[:, None, :, None]
    unit = np.array([1] * n + [(-1) ** n] * n, dtype=object)[:, None]
    roots = [_root_series(op) for op in ops]    # over one denominator each
    den = np.array([[[math.lcm(*(x.denominator for x in r.ravel()))]]
                    for r in roots], dtype=object)
    lr = _gauss(ell, np.moveaxis(roots * den // 1, 0, 1)[:, :, None]) // den
    phi = _triple(lr)                           # (3, P, 2n, k + 2)
    phi[[0, 2], ..., k + 1] -= ((n - 1) * k << frac) >> 1
    # C_j = z^{(t-j)k} sum_i c[j, i] z^{-i} after t steps, less l^n p
    width = n * (k + 1) + 1
    c = np.zeros((2, n + 1, size, 2 * n, width), dtype=object)
    c[0, 0, ..., 0] = 1 << frac
    jk = np.arange(n + 1, dtype=object)[:, None, None, None] * k
    for t in range(n):
        new = _raised(phi, c, t * k - jk, frac)
        new[:, 1:] += c[:, :-1]
        c = new
    c[:, 0] -= np.moveaxis(np.array([[_quantized(op.p_coeff(op.d - i), frac)
                                      for i in range(width)] for op in ops],
                                    dtype=object), 2, 0)[:, :, None] * unit
    # T_i(m) = sum_j (-1)^j rising(m, j) c[j, i + (1-j)(k+1)], times l / l^n
    steps = (n - 1) * (k + 1)
    i, j = np.ogrid[1:steps + 1, :n + 1]
    at = i + (1 - j) * (k + 1)
    tc = _gauss(ell[..., None] * unit[..., None],
                np.moveaxis(c, 1, -2)[..., j, at.clip(0)]
                * np.where(at >= 0, (-1) ** j, 0).astype(object))
    rising = np.array([[[math.prod(range(m - i, m - i + j)) if m >= i else 0
                         for m in range(M + 1)] for j in range(n + 1)]
                       for i in range(1, steps + 1)], dtype=object)
    T = np.stack([(tc[..., i, :].reshape(-1, n + 1) @ rising[i]).reshape(
        tc.shape[:3] + (M + 1,)) for i in range(steps)], axis=-1) >> frac
    s = np.zeros((2, size, 2 * n, M + 1), dtype=object)
    s[0, :, :n, 0] = 1 << frac
    s[:, :, n:, 0] = f0[:, None, 1] // n        # lambda_a/n: Yhat^{-1}'s rows
    for m in range(1, M + 1):
        top = min(steps, m)
        acc = _gauss(T[..., m, :top], s[..., m - 1::-1][..., :top])
        s[..., m] = acc.sum(axis=-1) // (n * m << frac)
    del c, tc, T                    # freed before the rows, the peak
    rows = [_triple(s)]
    for t in range(n - 1):
        rows.append(_triple(_raised(phi, rows[-1], t * k, frac)))
    rows = np.array(rows)[:, :2]                # (t, 2, P, 2n, M + 1)
    fixed = _gauss(f0inv, rows[:, :, :, :n].transpose(1, 0, 2, 4, 3).reshape(
        2, n, -1), np.matmul) >> frac
    fixed = fixed.reshape(2, n, size, M + 1, n).transpose(2, 3, 0, 1, 4)
    alt = (-1) ** np.arange(n, dtype=object)[:, None, None, None, None]
    dual = (rows[:, :, :, n:] * alt)[::-1].transpose(1, 2, 3, 0, 4)
    return [FormalSolution(
        n=n, k=k, M=M,
        qcoeffs={j: list(_rounded(ctx, *lr[:, p, :n, k + 1 - j], -frac) / j)
                 for j in range(1, k + 2)},
        lam=list(_rounded(ctx, *lr[:, p, :n, k + 1], -frac)), ctx=ctx,
        fixed=fixed[p], dual=dual[:, p])
        for p in range(size)]


def _triple(x):
    """(re, im) as (re, im, re + im), a factor _gauss's matmul reuses."""
    return np.array([x[0], x[1], x[0] + x[1]])


def _gauss(x, y, op=np.multiply):
    """Product (re, im) of two Gaussian-integer arrays with leading axis
    (re, im), or (re, im, re + im) for a reused factor (_triple), exactly,
    by `op`: np.multiply (entrywise, broadcasting) or np.matmul.  Either
    takes Gauss's three products (Knuth, TAOCP 2, 4.6.4), a matmul's each
    summed in the matmul: re = p1 - p2 and im = p3 - p1 - p2 for p1 =
    x_re y_re, p2 = x_im y_im and p3 = (x_re + x_im)(y_re + y_im)."""
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
    (present only for n = 2) carry an empty list and a trivial factor.  A
    half-period 1/(k+1) holds n rays, the factors of one grouped matrix.
    """
    n: int
    k: int
    r: int
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


def sector_layout(n, k, v0=None):
    """All 2n(k+1) lattice directions with their crossing pairs, CCW from v0."""
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
    return SectorLayout(n=n, k=k, r=r, v0=v0, rays=rays_t,
                        pairs=tuple(pairs), spacing=spacing,
                        half=Fraction(1, 2 * (k + 1)))


# ---------------------------------------------------------------------------
# the tail-safe reading circle


def _tail_norms(fs):
    """(m, max-norm of the z^{-m} term) for the last kept formal terms --
    several, to ride out parity-sparse series whose top term vanishes.  Each
    term is rounded once to the working precision, then to a double, once
    per formal solution (FormalSolution.tail)."""
    ctx = fs.ctx
    return [(m, max((abs(complex(v)) for v in
                     np.ravel(_rounded(ctx, *fs.fixed[m], -ctx.frac))),
                    default=0.0))
            for m in range(max(1, fs.M - 3), fs.M + 1)]


def compute_radius(fs, settings):
    """Tail-safe radius: smallest circle on which each of the last kept formal
    terms contributes below radius_tol (inf past double range)."""
    radius = 2.0
    for m, norm in fs.tail:
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
        src = [(m, *_quantized(op.p_coeff(m), frac, r ** (m + n)))
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
            denom = math.prod(range(s + 1, s + n + 1)) << frac
            worst = -math.inf
            for col in cols:
                re = im = 0
                for mm, pr, pi in src:          # ascending m
                    if mm > s:
                        break
                    cr, ci = col[s - mm]
                    re += pr * cr - pi * ci
                    im += pr * ci + pi * cr
                re, im = re // denom, im // denom
                col.append((re, im))
                worst = max(worst, abs(re).bit_length(), abs(im).bit_length())
            peak = max(peak, worst)
            quiet = quiet + 1 if worst < peak - frac else 0
            m += 1
            if nterms is None and quiet >= n + d and m > 2 * (n + d):
                break
        else:
            if nterms is None:
                raise ArithmeticError(_TERM_CAP)
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
_TERM_CAP = ("entire basis did not converge on the reading circle within "
             "the term cap")
# augmented entries in one stacked elimination (sector_coefficients): one
# sector of a fresh z^8 (8,1) build, 2 parts x 2 variants x 8 systems of
# 8 x 9, so a fresh n <= 3, k = 1 build is one stack and from n = 7 each
# sector its own: every (8,1) sector in one stack (minors grow with n) took
# its peak RSS from 46.3 to 58.6 MB and saved only about 10% of its time
_STACK_ENTRIES = 2304
# fixed-point bits kept below the working precision by the integer
# constructions, at every precision, in units of 2^-(bits+40).  Entire-basis
# recurrence: its exact inputs p_m rho^(m+n) and rho^m/m!, floored once, and
# each floor division by (s+1)...(s+n) are off by under one unit, which the
# linear recurrence carries on as the Taylor tail of another solution,
# growing no faster than the columns' own terms; against the peak (at least
# the unit jet) N steps leave under N units, and the series stops once its
# terms fall below one unit of the peak.  Formal series: l r_i, p's
# coefficients and lambda_a/n are floored once, each (D + phi') and each
# recurrence coefficient T_i is a sum of exact products shifted once, and
# each order floor-divides once by n m, so an order takes a few units,
# which the recurrence carries on divided by n m per step as it carries the
# series' own terms; Yhat is one more shifted product, by f0^{-1}, and the
# formal inverse is the adjoint's series, scaled by rho^(h_t - m) with one
# floor, with no inversion to amplify them: absolute, but Y_0 = W_0 = I, the
# later terms on a reading circle are small, and the inverse table
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
# factor entry is rounded once, to a double.  A kill row gives its column at
# any nonzero scale, so only the normalization row's right-hand side e^{E},
# one working-precision exp, carries a mode exponential; its rounding at
# 2^-bits scales its column as a whole and reaches a factor entry as a
# relative 2^-bits, below that entry's own rounding.  So the only
# other errors before the result's are the two roundings at 2^-(bits+40),
# and each moves a solution by at most the condition number
# kappa of the matrix solved (the collocation matrix, the A build) times
# that (Higham 2002, ch. 7; an exact elimination adds none of ch. 9's
# growth): the bits lost are bounded by log2 kappa, which the A/B
# consistency measures, and up to kappa = 2^40 the factors keep their full
# `bits`.  The columns are rounded because exact ones would carry (n-1)-
# minors into the quotients: at z^6 (n = 6) those took 95 ms a sector.
# Grouped matrices and closure (_stokes_result): each quotient Q_j rounded
# to nearest on `frac` bits is within n u / sqrt 2 in the max-row-sum norm,
# u = 2^-frac, and each of the r - 1 products, within or of the groups,
# floors each part, within sqrt 2 n u; so to first order a grouped matrix,
# or the closure's Q_r ... Q_1, is off by under 3 r n u prod_j max(1,
# ||Q_j||) before its one rounding to a double.  A batch of points (replay)
# takes each step per entry as a batch of one does, so no point's result
# depends on the batch it is made in.
_GUARD_BITS = 40


def _series_tail(fs, rho):
    """Reading-circle bound on the truncated formal frame: the largest of the
    last kept terms."""
    return max([0.0] + [norm * rho ** (-m) for m, norm in fs.tail])


@dataclass
class _Build:
    """One point's collocation at a reading radius: the formal solution it
    read, its entire basis' circle and term count, the exact quotients the
    factors are made of, sector i + 1's x[:, i] 2^exp[i] / det[:, i] for
    (x, det, exp) (_exact_quotient), and the A/B agreement."""
    fs: FormalSolution
    rho: float
    nterms: int
    quotients: tuple
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
    Every integer layer takes all points at once: the column solves in
    stacks of sectors (sector_coefficients) and the quotients of every
    sector in one elimination; a fresh run is a batch of one."""
    ctx, n, rho = fss[0].ctx, layout.n, float(rho)
    # entire solutions' terms peak near index rho^(k+1) (order k+1, type
    # 1/(k+1)): refuse past twice the cap, or not finite, before any table
    if nterms is None and not ((layout.k + 1) * math.log(rho)
                               <= math.log(2 * _MAX_TERMS)):
        raise ArithmeticError(_TERM_CAP)
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
                   quotients=(x[:, p, ..., n:], det[:, p], exp[p, ..., n:]))
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
    """sum_{m<=M} W_m z^{-m} f0^{-1} on the circle rho, W_m f0^{-1} each
    formal solution's `dual`: as 1/z^m = rho^-m conj(u^m), the table holds
    conj(rho^-m W_m f0^{-1}), its column t times rho^(h_t), the modulus of
    gauged row t of a content (_gauge_exponents), in EntireBasis.table's
    format (rows a, entries t) with a point axis after the parts, and its
    sums are conjugated; rho, g and mod are the batch's."""
    n, M, frac = fss[0].n, fss[0].M, fss[0].ctx.frac
    # rho is a double (the basis' circle), a dyadic rational: its powers
    # scale exactly up to one floor, a half-integer power is one isqrt, and
    # g more fraction bits keep `frac` bits in the smallest column
    r = Fraction(float(rho))
    sq = [r ** int(2 * h) for h in _gauge_exponents(n, fss[0].k)]
    g = max(0, max(s.denominator.bit_length() - s.numerator.bit_length()
                   for s in sq) // 2 + 1)
    mod = np.array([math.isqrt(math.floor(s * 4 ** (frac + g)))
                    for s in sq], dtype=object)[:, None]
    e = r.denominator.bit_length() - 1          # rho = num 2^-e
    coeffs = ((np.array([fs.dual for fs in fss]).swapaxes(0, 1) * mod)
              << e * np.arange(M + 1, dtype=object)) // np.array(
        [r.numerator ** m << frac for m in range(M + 1)], dtype=object)
    coeffs[1] = -coeffs[1]
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
    ..., 0, s) is solved exactly, every point and variant of as many
    consecutive sectors as _STACK_ENTRIES holds (one at least) in one
    elimination, and rounded once, to nearest on `frac` bits of its
    largest entry.  Only the normalization row has a right-hand side, so
    only its exponents scale the column: 2^e row . v = 2^se s' is row . v
    = s' 2^(se - e).
    Returns (y, s), y (2, P, 2, r, n, n) and s (P, 2, r, n): sector i + 1
    of point p in variant v (A, B) is y[:, p, v, i] diag(2^s[p, v, i])."""
    n, frac = layout.n, fss[0].ctx.frac
    _, _, systems, scales = _layout_reading(layout)
    rows, low = contents
    rhs = np.array([[_exact(v) for v in point] for point in scalars],
                   dtype=object)[:, scales]                 # (P, r, n, 3)
    aug = np.zeros(rows.shape[:2] + systems.shape + (n + 1,), dtype=object)
    aug[..., :n] = rows[:, :, systems]
    aug[..., -1, n] = np.moveaxis(rhs[..., :2], -1, 0)[:, :, None]
    step = max(1, _STACK_ENTRIES // aug[:, :, :, 0].size)
    det, x = (np.concatenate(part, axis=3) for part in zip(*(
        _eliminate(aug[:, :, :, i:i + step])
        for i in range(0, layout.r, step))))
    # x / det = x conj(det) / |det|^2
    num = _gauss(x[..., 0], np.array([det[0], -det[1]])[..., None])
    norm = det[0] * det[0] + det[1] * det[1]
    exp = (_bit_length(np.maximum(abs(num[0]), abs(num[1])).max(axis=-1))
           - _bit_length(norm) - frac)
    y = np.frompyfunc(_divide, 3, 1)(num, norm[..., None], exp[..., None])
    s = exp + rhs[:, None, ..., 2] - low[:, systems[..., -1]]
    return y.swapaxes(-1, -2), s


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


def _quotient_entries(rounding, x, det, exp):
    """rounding(a, w, e) of each part a / (w 2^e) of each entry of an
    _exact_quotient x 2^exp / det = x conj(det) 2^exp / |det|^2: _divide
    for ints, _ratio for doubles.  Returns an array (2, ...), (re, im)."""
    re, im = det[..., None, None]
    parts = _gauss(x, np.array([re, -im]))
    return np.frompyfunc(rounding, 3, 1)(parts, re * re + im * im, -exp)


def _divide(a, w, exp):
    """a / (w 2^exp) for ints a and w > 0, rounded to the nearest int (ties
    to even): one integer shift-division."""
    num, den = (a, w << exp) if exp >= 0 else (a << -exp, w)
    q, rem = divmod(num, den)
    return q + (2 * rem > den or (2 * rem == den and q & 1))


def _ratio(a, w, exp):
    """a / (w 2^exp) for ints a and w > 0 as a double, correctly rounded
    once (int true division is), or OverflowError past double range."""
    num, den = (a, w << exp) if exp >= 0 else (a << -exp, w)
    return num / den


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
    center = layout.ray(1) + (layout.n - 1) * layout.spacing / 2
    vals = sorted((_leading_re(layout, a, center), a) for a in range(layout.n))
    return tuple(a for _, a in vals)


def _identity_gap(mats):
    """Entrywise distance of a complex128 stack of matrices from I in
    modulus, ||m_ss| - 1| on the diagonal and |m_st| off it, each modulus
    by hypot, as abs(complex) takes it (np.abs can differ in the last
    bit)."""
    mod = np.hypot(mats.real, mats.imag)
    return np.where(np.eye(mats.shape[-1], dtype=bool), abs(mod - 1.0), mod)


# ---------------------------------------------------------------------------
# top-level driver

@dataclass
class StokesData:
    """Complete Stokes output of one oper point on its plan, with
    self-diagnosed residuals.  The shape residuals "unipotency", "support",
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
    reading's one correction.  factors (r, n, n) and matrices (2k+2, n, n)
    are complex128 arrays, each entry rounded once to a double from exact
    data (_stokes_result)."""
    op: OperPoint
    plan: CollocationPlan
    lam: list
    qcoeffs: dict
    factors: np.ndarray
    matrices: np.ndarray
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
        perm, triangles, _, _ = _layout_shape(self.plan.layout)
        return self.matrices[:, perm][:, :, perm][triangles]


# the bits of a fresh run's first build: at the default settings every
# monomial point from (n, k) = (2, 1) to (6, 1), and (5, 2) and (4, 3),
# reads to its request in one build at 69 bits (measured), where a first
# build at 53 bits needed a second one at 69 to 100 bits at each of them
# but (2, 1) to (2, 3)
_FIRST_BITS = 69


def _select_reading(op, layout, settings):
    """The run's build, on settings.radius or else compute_radius's circle,
    where the first omitted formal terms -- the truncated frame's error,
    which the A and B builds share and their agreement cannot see -- fall
    below the target.  A collocation at _FIRST_BITS there measures the
    rest, arithmetic noise scaling as 2^-bits; when it misses a third of
    the target, one rebuild at _FIRST_BITS + 8 + max(8,
    ceil(log2(shortfall))) bits is the run's build.  Each build is a batch
    of one."""
    [fs] = formal_solution([op], settings.trunc_order, make_ctx(_FIRST_BITS))
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
        [op], settings.trunc_order, make_ctx(bits)), rho)[0]


def stokes_data(op, settings=None):
    """Full pipeline: gauge, formal solution, sector layout, canonical
    frames collocated in the entire basis, factors, grouped matrices,
    residual certificates.  The run selects its reading circle and
    precision; its plan freezes them for replays."""
    settings = settings or StokesSettings()
    layout = sector_layout(op.n, op.k, settings.v0)
    build = _select_reading(op, layout, settings)
    plan = CollocationPlan(settings=settings, layout=layout, rho=build.rho,
                           nterms=build.nterms, bits=build.fs.ctx.bits)
    return _stokes_result(op, plan, build)


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
    fss = formal_solution(ops, plan.settings.trunc_order, make_ctx(plan.bits))
    builds = _collocate(ops, plan.layout, fss, plan.rho, plan.nterms)
    return [_stokes_result(op, plan, build) for op, build in zip(ops, builds)]


def _stokes_result(op, plan, build):
    """A point's StokesData from its build on the plan: the factors K_j =
    Phi_j^{-1} Phi_{j-1}, j = 1..r, from the build's exact quotients Q_j =
    (A build of sector j)^{-1} (B build of sector j-1) (_collocate), their
    grouped matrices, fixed-point products of the quotients on `frac` bits,
    and residuals, every entry rounded once to a double (_GUARD_BITS)."""
    fs, ctx, layout = build.fs, build.fs.ctx, plan.layout
    perm, triangles, supports, phantom = _layout_shape(layout)
    # the wrap factor K_1 compares sector 1 against sector r: re-reading
    # sector 1 on the chart shifted by 2 pi multiplies its contents by the
    # det twist and exp(2 pi i Lambda), so K_1 = Q_1 W and S_1 = (Q_n ...
    # Q_1) W for W = diag(sigma exp(-2 pi i lambda_b)), taken exactly, and
    # S_{2k+2} ... S_1 exp(2 pi i Lambda) = sigma Q_r ... Q_1
    tau, sigma = 2j * ctx.number(ctx.pi), ctx.number(det_twist(op))
    wrap = np.array([_exact(sigma * ctx.exp(-tau * lam)) for lam in fs.lam],
                    dtype=object).T

    def doubles(x, det, exp):           # a stack whose first matrix takes W
        x = np.concatenate([_gauss(x[:, :1], wrap[:2]), x[:, 1:]], axis=1)
        exp = np.concatenate([exp[:1] + wrap[2], exp[1:]])
        parts = _quotient_entries(_ratio, x, det, exp)
        return np.frompyfunc(complex, 2, 1)(*parts).astype(complex)

    def product(mats):                  # mats[-1] ... mats[0]
        return functools.reduce(
            lambda acc, m: _gauss(m, acc, np.matmul) >> ctx.frac, mats)

    x, det, exp = build.quotients
    fixed = _quotient_entries(_divide, x, det, exp + ctx.frac).swapaxes(0, 1)
    groups = [product(fixed[i:i + layout.n])
              for i in range(0, layout.r, layout.n)]
    one = np.array([1, 0], dtype=object)
    unit = np.full((len(groups),) + exp.shape[1:], -ctx.frac, dtype=object)
    factors = doubles(x, det, exp)
    matrices = doubles(np.stack(groups, axis=1), one, unit)
    gaps = _identity_gap(factors)
    grouped = _identity_gap(matrices)[:, perm][:, :, perm]
    residuals = {
        "identity": float(_deviation(product(groups), one, unit[0])),
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
                      factors=factors, matrices=matrices, residuals=residuals,
                      missed=tuple(name for name, bound in bounds.items()
                                   if not residuals[name] <= bound))
