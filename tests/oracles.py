"""Oracles: difference quotients for the forward-mode Jacobian, and mpmath
arithmetic at a run's working precision.

Both quotients differentiate the same frozen plan the tangent replay does,
from single-point replays (stokes.replay) at points shifted off the base
point, so each is an independent estimate of immersion.jacobian's columns:
the four-point stencil the Jacobian was once made from, and the trapezoid
rule for the Cauchy integral of the derivative on a circle (Bornemann 2011,
Found. Comput. Math. 11).  Working reads the run's fixed-point values as
mpmath numbers at its working precision, for the tests that check them
against plain mpmath sums.
"""

from fractions import Fraction

import mpmath
import numpy as np

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
