"""Oracles: difference quotients for the forward-mode Jacobian, mpmath
arithmetic at a run's working precision, and the formal frame Yhat from
the matrix recurrence.

Both quotients differentiate the same frozen plan the tangent replay does,
from single-point replays (stokes.replay) at points shifted off the base
point, so each is an independent estimate of immersion.jacobian's columns:
the four-point stencil the Jacobian was once made from, and the trapezoid
rule for the Cauchy integral of the derivative on a circle (Bornemann 2011,
Found. Comput. Math. 11).  Working reads the run's fixed-point values as
mpmath numbers at its working precision, for the tests that check them
against plain mpmath sums.  The run builds Yhat^{-1} from scalar series of
the equation and its adjoint and Yhat itself only at its last orders
(formal_solution); reference_formal_solution builds Yhat at every order by
the order-by-order matrix diagonalization it replaced (Wasow 1965), with
its sums taken by four real products, to check the run's inverse and tail
against.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from operstokes import stokes
from operstokes.exactla import qzeros
from operstokes.isomono import OperPoint
from operstokes.stokes import replay


def shifted(op, m, delta):
    """op with c_m moved by the complex step delta."""
    coeffs = list(op.coeffs)
    coeffs[m] = complex(coeffs[m]) + delta
    return OperPoint(op.n, op.k, tuple(coeffs))


def stencil_points(op, h):
    """Per coordinate c_m the four points c_m +- h and c_m +- i h."""
    return [shifted(op, m, delta) for m in range(op.d - 1)
            for delta in (h, -h, 1j * h, -1j * h)]


def stencil_jacobian(op, plan, h=1e-4):
    """(J, holomorphy) from the four-point stencil on the plan: column m
    the mean of the real-step and imaginary-step central quotients, the
    four-point trapezoid rule for the Cauchy integral, O(h^4), and their
    largest disagreement over max(1, max |col|)."""
    values = np.array([replay(point, plan).monitored_vector()
                       for point in stencil_points(op, h)]).reshape(
        op.d - 1, 4, -1)
    col = (values[:, 0] - values[:, 1]) / (2 * h)
    icol = (values[:, 2] - values[:, 3]) / (2j * h)
    scale = np.maximum(1.0, np.abs(col).max(axis=1))
    return ((col + icol) / 2).T, float((np.abs(icol - col).max(axis=1)
                                        / scale).max())


def circle_jacobian(op, plan, radius=0.1, count=12):
    """J from the count-point trapezoid rule for (1/2 pi i) closed integral
    of nu(c + w e_m) / w^2 dw on |w| = radius, per coordinate: exact for
    every Taylor term below degree count + 1, so its error is that of the
    terms of degree count + 1 and on, about radius^count relative."""
    roots = np.exp(2j * np.pi * np.arange(count) / count)
    cols = []
    for m in range(op.d - 1):
        values = np.array([replay(shifted(op, m, radius * w), plan)
                           .monitored_vector() for w in roots])
        cols.append((values * roots.conj()[:, None]).mean(axis=0) / radius)
    return np.array(cols).T


class Working:
    """mpmath at a numeric context's working precision `bits`: pi, exp and
    log, numbers, and the run's fixed-point values, each part rounded once
    to the working precision."""

    def __init__(self, ctx):
        self.mp = mpmath.mp.clone()
        self.mp.prec = ctx.bits
        self.frac = ctx.frac
        self.exp, self.log, self.pi = self.mp.exp, self.mp.log, +self.mp.pi

    def number(self, v):
        """An int, float, complex or Fraction as a working-precision
        complex, a Fraction divided at the working precision."""
        if isinstance(v, Fraction):
            v = self.mp.mpf(v.numerator) / v.denominator
        return self.mp.mpc(v)

    def rounded(self, re, im, exp):
        """(re + i im) 2^exp, arrays of ints with exp broadcast, as an
        object array of working-precision complexes."""
        mpf, mpc = self.mp.mpf, self.mp.mpc
        return np.frompyfunc(lambda r, i, e: mpc(mpf((r, e)), mpf((i, e))),
                             3, 1)(re, im, exp).astype(object)

    def table(self, fixed):
        """A fixed-point table (rows, exp), the Gaussian integers rows[:,
        ...] times 2^exp, as working-precision complexes."""
        return self.rounded(*fixed[0], fixed[1])

    def exponents(self, fs):
        """(lam, qcoeffs) of a formal solution from its exact lr, each part
        rounded once and Q_j then divided by j at the working precision."""
        k, lr = fs.k, fs.lr
        lam = list(self.rounded(*lr[..., k + 1], -self.frac))
        return lam, {j: list(self.rounded(*lr[..., k + 1 - j], -self.frac) / j)
                     for j in range(1, k + 2)}


def gauge_transform(op):
    """The companion connection pushed to z = infinity normal form,
    trace-split: the trace-free Laurent data B(z) = z^k sum_j B_j z^{-j} as
    the tuple of the B_j, exact (Fraction entries) whenever the oper point
    is.

    The companion matrix (unit superdiagonal, p in the corner) conjugated by
    g = diag(z^{(n-j)k}) becomes z^k times the cyclic shift plus lower-order
    terms, and g contributes the diagonal (n-j)k/z whose trace c/z, c =
    kn(n+1)/2, is removed (det_twist).
    """
    n, k, d = op.n, op.k, op.d
    jmax = max(d, k + 1)
    bc = [qzeros(n) for _ in range(jmax + 1)]
    for a in range(n - 1):
        bc[0][a, a + 1] = Fraction(1)
    bc[0][n - 1, 0] = Fraction(1)       # monic top coefficient of p
    for m in range(d - 1):
        c = op.p_coeff(m)
        if c:
            bc[d - m][n - 1, 0] = bc[d - m][n - 1, 0] + c
    cw = Fraction(k * n * (n + 1), 2)
    shift = cw / n                      # = k(n+1)/2 per diagonal entry
    for a in range(n):
        bc[k + 1][a, a] = bc[k + 1][a, a] + Fraction((n - a) * k) - shift
    return tuple(bc)


def gauss4(x, y, op=np.multiply):
    """(re, im) product of two (re, im) arrays by four products."""
    return np.array([op(x[0], y[0]) - op(x[1], y[1]),
                     op(x[0], y[1]) + op(x[1], y[0])])


def quantized(v, frac, scale=1):
    return tuple(math.floor(Fraction(x) * scale * 2 ** frac)
                 for x in (v.real, v.imag))


@dataclass
class Frame:
    """The reference formal frame of a point: ys[m] the z^{-m} coefficient
    of Yhat, m = 0..M, a (2, n, n) fixed-point array of the parts with
    `frac` fraction bits, and lr as FormalSolution keeps it, so Lambda_a =
    lr[:, a, k+1] and Q_{j,a} = lr[:, a, k+1-j]/j (Working.exponents)."""
    n: int
    k: int
    M: int
    lr: np.ndarray
    ctx: object
    ys: list


def reference_formal_solution(op, M, ctx):
    """The four-product recurrence on op's gauged connection
    (gauge_transform), a Frame: each order's convolutions materialized as
    term arrays and reduced by .sum(axis=1)."""
    bcoeffs, k = gauge_transform(op), op.k
    n, frac = len(bcoeffs[0]), ctx.frac
    f0, f0inv = stokes._fixed_frame(ctx, n)
    b = np.array([[[quantized(c, frac) for c in row] for row in bj]
                  for bj in bcoeffs], dtype=object)
    b = gauss4(np.moveaxis(b, 3, 0), f0, np.matmul) >> frac
    bt = gauss4(f0inv, b, np.matmul) >> frac
    lam = f0[:, 1]
    gap = lam[:, None, :] - lam[:, :, None]
    norm = gap[0] * gap[0] + gap[1] * gap[1] + np.eye(n, dtype=object)
    recip = np.array([gap[0], -gap[1]]) * (1 << 2 * frac) // norm
    levels = k + 2 + M
    F = np.zeros((2, levels, n, n), dtype=object)
    F[0, 0] = np.eye(n, dtype=object) << frac
    D = np.zeros((2, levels, n), dtype=object)
    D[:, 0] = lam
    for j in range(1, levels):
        lo = max(0, j - bt.shape[1] + 1)
        side = bt[:, j - lo:0:-1].transpose(0, 2, 1, 3).reshape(2, n, -1)
        r = gauss4(side, F[:, lo:j].reshape(2, -1, n), np.matmul)
        r = (r - gauss4(F[:, 1:j], D[:, j - 1:0:-1, None]).sum(axis=1)) >> frac
        if j >= k + 2:
            r = r + (j - k - 1) * F[:, j - k - 1]
        D[:, j] = np.diagonal(r, axis1=1, axis2=2)
        F[:, j] = gauss4(r, recip) >> frac
    u = np.zeros((2, M + 1, n), dtype=object)
    u[0, 0] = 1 << frac
    for m in range(1, M + 1):
        acc = gauss4(D[:, k + 2:k + 2 + m], u[:, m - 1::-1]).sum(axis=1)
        u[:, m] = -(acc >> frac) // m
    ys = [gauss4(F[:, :m + 1], u[:, m::-1, None]).sum(axis=1) >> frac
          for m in range(M + 1)]
    return Frame(n=n, k=k, M=M, lr=np.swapaxes(D[:, :k + 2], 1, 2), ctx=ctx,
                 ys=ys)
