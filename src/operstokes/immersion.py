"""Numerical corroboration that the monodromy map is an immersion.

The base space is the family y^(n) = p(z) y with p monic of degree d = k n
and no z^{d-1} term, coordinatized by the remaining d-1 coefficients
c_0..c_{d-2}.  The map under study sends these coordinates to the
strict-triangle entries of the grouped Stokes matrices -- the free entries of
the alternating unipotent factors.  Its differential is approximated in each
coordinate by the mean of the real-step and imaginary-step central
differences, with every discrete choice of the Stokes run (reading circle,
collocation angles, term count, working precision, eigenvalue labeling)
frozen at the base point, so the quotients differentiate one fixed smooth
function rather than a chain of re-planned runs.

Full column rank of the differential, read off a singular value decomposition
with a relative threshold, corroborates numerically what the exact kernel
computation of the deformation system certifies algebraically; the module
also houses the cross-check that runs both at the same point and insists
they agree.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .isomono import OperPoint, solvability
from .stokes import CollocationPlan, replay, stokes_data

__all__ = [
    "JacobianReport", "CrossCheckReport", "jacobian", "kernel_cross_check",
]


@dataclass(frozen=True)
class JacobianReport:
    """Differential of the monodromy map at op, on the base run's plan.

    jacobian has one row per monitored Stokes entry and one column per
    coefficient c_m; singular_values descend; rank counts values at or above
    sigma_1 * rank_tol; sv_gap = sigma_{d-1}/sigma_1 is the margin by which
    full column rank holds; holomorphy is the worst disagreement between the
    real-step and imaginary-step difference quotients, whose mean is the
    column (complex differentiability makes them equal up to O(h^2));
    missed names the runs that did not converge, "base" or a stencil key
    (m, delta) as in stencil_residuals, and converged holds when none
    did."""
    op: OperPoint
    h: float
    rank_tol: float
    jacobian: np.ndarray
    singular_values: tuple
    rank: int
    sv_gap: float
    holomorphy: float
    base_residuals: dict
    stencil_residuals: dict
    plan: CollocationPlan
    missed: tuple

    @property
    def converged(self):
        return not self.missed

    def missed_names(self):
        """The missed runs in words: "base run" or "stencil run c_m +h",
        the step written +h, -h, +hj or -hj."""
        return ["base run" if key == "base" else f"stencil run c_{key[0]} "
                + (f"{key[1].real:+g}" if key[1].imag == 0
                   else f"{key[1].imag:+g}j") for key in self.missed]


@dataclass(frozen=True)
class CrossCheckReport:
    """Exact tangent kernel vs numeric differential rank at the point
    jacobian.op."""
    agree: bool
    solvability: object
    jacobian: JacobianReport


def _shifted(op, m, delta):
    coeffs = list(op.coeffs)
    coeffs[m] = complex(coeffs[m]) + delta
    return OperPoint(op.n, op.k, tuple(coeffs))


def _stencil_points(op, h):
    """Evaluation points around the base: per coordinate c_m the four points
    c_m +- h and c_m +- i h."""
    return [(m, delta, _shifted(op, m, delta))
            for m in range(op.d - 1) for delta in (h, -h, 1j * h, -1j * h)]


def jacobian(op, h=1e-4, settings=None, rank_tol=1e-4):
    """Differential of the monodromy map from a four-point stencil.

    Column m is the mean of the real-step quotient
    (nu(c + h e_m) - nu(c - h e_m)) / (2h) and the same quotient along i h:
    the 4-point trapezoid rule for the Cauchy integral of nu around c, whose
    error is O(h^4).  The worst disagreement of the two quotients is
    reported as the holomorphy diagnostic.  The 4(d-1) stencil points are
    one replay of the base point's frozen plan, made as one batch
    (stokes.replay), and each must come back with sane closure residuals,
    otherwise the differences would compare artifacts of run planning
    instead of values of the map."""
    for name, value in (("h", h), ("rank_tol", rank_tol)):
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a real number, got {value!r}")
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"step h must be finite and > 0, got {h!r}")
    if not 0 < rank_tol <= 1:
        raise ValueError(f"rank_tol must lie in (0, 1], got {rank_tol!r}")
    base = stokes_data(op, settings)
    plan = base.plan
    points = _stencil_points(op, h)
    runs = replay([shifted_op for _, _, shifted_op in points], plan)

    ceiling = max(1e-6, 1e3 * base.residuals["identity"])
    values = {}
    stencil_residuals = {}
    missed = [] if base.converged else ["base"]
    for (m, delta, _), run in zip(points, runs):
        res = run.residuals["identity"]
        stencil_residuals[(m, complex(delta))] = res
        if not math.isfinite(res) or res > ceiling:
            raise ArithmeticError(
                f"stencil point c_{m} {delta:+} lost closure "
                f"(identity residual {res:.2e})")
        values[(m, complex(delta))] = run.monitored_vector()
        if not run.converged:
            missed.append((m, complex(delta)))

    cols, deviation = [], 0.0
    for m in range(op.d - 1):
        col = (values[(m, complex(h))] - values[(m, complex(-h))]) / (2 * h)
        icol = (values[(m, 1j * h)] - values[(m, -1j * h)]) / (2j * h)
        cols.append((col + icol) / 2)
        scale = max(1.0, float(np.abs(col).max()))
        deviation = max(deviation, float(np.abs(icol - col).max()) / scale)
    jac = np.column_stack(cols)

    sv = np.linalg.svd(jac, compute_uv=False)
    top = float(sv[0]) if len(sv) else 0.0
    rank = int((sv >= top * rank_tol).sum()) if top > 0 else 0
    gap = float(sv[op.d - 2] / top) if top > 0 and len(sv) >= op.d - 1 else 0.0
    return JacobianReport(
        op=op, h=h, rank_tol=rank_tol, jacobian=jac,
        singular_values=tuple(float(s) for s in sv),
        rank=rank, sv_gap=gap, holomorphy=deviation,
        base_residuals=dict(base.residuals),
        stencil_residuals=stencil_residuals, plan=plan,
        missed=tuple(missed))


def kernel_cross_check(op, D=None, h=1e-4, settings=None, rank_tol=1e-4):
    """Exact and numeric injectivity verdicts at the same point.

    The exact side computes the kernel of the joint deformation system and
    its tangent dimension; the numeric side computes the differential's rank.
    A vanishing tangent kernel must coincide with full column rank d-1; the
    report records both so a disagreement points at settings, not at the
    mathematics."""
    if not op.exact:
        raise ValueError("cross-check needs an exact rational base point")
    exact = solvability(op, D)
    numeric = jacobian(op, h=h, settings=settings, rank_tol=rank_tol)
    agree = (exact.tangent_dim == 0) == (numeric.rank == op.d - 1)
    return CrossCheckReport(agree=agree, solvability=exact, jacobian=numeric)
