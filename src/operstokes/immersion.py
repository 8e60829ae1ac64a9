"""Numerical corroboration that the monodromy map is an immersion.

The base space is the family y^(n) = p(z) y with p monic of degree d = k n
and no z^{d-1} term, coordinatized by the remaining d-1 coefficients
c_0..c_{d-2}.  The map under study sends these coordinates to the
strict-triangle entries of the grouped Stokes matrices -- the free entries of
the alternating unipotent factors.  Its differential is computed in forward
mode (Griewank and Walther 2008, ch. 3-4): one replay of the base run's
frozen plan -- reading circle, collocation angles, term count, working
precision, eigenvalue labeling -- carries the exact tangents along every
c_m through every layer (stokes.replay), so it differentiates one fixed
smooth function rather than a chain of re-planned runs, with no step to
choose; Jimbo, Miwa and Ueno (Physica D 2, 1981) is the analytic form of
this derivative.

Full column rank of the differential, read off a singular value decomposition
with a relative threshold, corroborates numerically what the exact kernel
computation of the deformation system certifies algebraically; the module
also houses the cross-check that runs both at the same point and insists
they agree.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .isomono import OperPoint, solvability
from .stokes import StokesData, replay, stokes_data

__all__ = [
    "JacobianReport", "CrossCheckReport", "jacobian", "kernel_cross_check",
]


@dataclass(frozen=True)
class JacobianReport:
    """Differential of the monodromy map at op, on the plan of base, op's run.

    jacobian has one row per monitored Stokes entry and one column per
    coefficient c_m; singular_values descend; rank counts values at or above
    sigma_1 * rank_tol; sv_gap = sigma_{d-1}/sigma_1 is the margin by which
    full column rank holds; holomorphy is the disagreement of the A and B
    builds' tangents, the largest |d(A_i^{-1} B_i)| over sectors i and
    directions c_m (zero in exact arithmetic, as A_i^{-1} B_i = I) over
    max(1, max |J|); converged holds when the base run did, whose replay
    is the tangents' value."""
    op: OperPoint
    rank_tol: float
    jacobian: np.ndarray
    singular_values: tuple
    rank: int
    sv_gap: float
    holomorphy: float
    base: StokesData

    @property
    def converged(self):
        return self.base.converged


@dataclass(frozen=True)
class CrossCheckReport:
    """Exact tangent kernel vs numeric differential rank at the point
    jacobian.op."""
    agree: bool
    solvability: object
    jacobian: JacobianReport


def jacobian(op, settings=None, rank_tol=1e-4):
    """Differential of the monodromy map in forward mode: the base run
    picks the plan, and one replay of it at op with tangents
    (stokes.replay) gives every column, the exact derivative of the frozen
    plan's monitored entries, each tangent rounded where its value is."""
    if isinstance(rank_tol, bool) or not isinstance(rank_tol, numbers.Real):
        raise ValueError(f"rank_tol must be a real number, got {rank_tol!r}")
    if not 0 < rank_tol <= 1:
        raise ValueError(f"rank_tol must lie in (0, 1], got {rank_tol!r}")
    base = stokes_data(op, settings)
    _, jac, drift = replay(op, base.plan, tangents=True)
    sv = np.linalg.svd(jac, compute_uv=False)
    top = float(sv[0]) if len(sv) else 0.0
    rank = int((sv >= top * rank_tol).sum()) if top > 0 else 0
    gap = float(sv[op.d - 2] / top) if top > 0 and len(sv) >= op.d - 1 else 0.0
    return JacobianReport(
        op=op, rank_tol=rank_tol, jacobian=jac,
        singular_values=tuple(float(s) for s in sv), rank=rank, sv_gap=gap,
        holomorphy=drift / max(1.0, float(np.abs(jac).max(initial=0.0))),
        base=base)


def kernel_cross_check(op, D=None, settings=None, rank_tol=1e-4):
    """Exact and numeric injectivity verdicts at the same point.

    The exact side computes the kernel of the joint deformation system and
    its tangent dimension; the numeric side computes the differential's rank.
    A vanishing tangent kernel must coincide with full column rank d-1; the
    report records both so a disagreement points at settings, not at the
    mathematics."""
    if not op.exact:
        raise ValueError("cross-check needs an exact rational base point")
    exact = solvability(op, D)
    numeric = jacobian(op, settings=settings, rank_tol=rank_tol)
    agree = (exact.tangent_dim == 0) == (numeric.rank == op.d - 1)
    return CrossCheckReport(agree=agree, solvability=exact, jacobian=numeric)
