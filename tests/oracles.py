"""Difference-quotient oracles for the forward-mode Jacobian.

Both differentiate the same frozen plan the tangent replay does, from
single-point replays (stokes.replay) at points shifted off the base point,
so each is an independent estimate of immersion.jacobian's columns: the
four-point stencil the Jacobian was once made from, and the trapezoid rule
for the Cauchy integral of the derivative on a circle (Bornemann 2011,
Found. Comput. Math. 11).
"""

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
