import cmath
import dataclasses
import math
import random
from collections import Counter
from fractions import Fraction as QQ

import mpmath
import numpy as np
import pytest

from operstokes import immersion, stokes
from operstokes.immersion import jacobian, kernel_cross_check
from operstokes.isomono import OperPoint
from operstokes.stokes import StokesSettings, replay, stokes_data


@pytest.fixture(scope="module")
def weber_report():
    return jacobian(OperPoint(2, 1, (0,)))


@pytest.fixture(scope="module")
def quartic_report():
    return jacobian(OperPoint(2, 2, (0, 0, 0)))


@pytest.fixture(scope="module")
def cubic_report():
    return jacobian(OperPoint(3, 1, (0, 0)))


def test_monitored_vector_of_the_pipeline():
    sd = stokes_data(OperPoint(2, 1, (0,)))
    assert sd.residuals["identity"] <= 1e-8
    assert sd.monitored_vector().shape == (4,)


def test_weber_differential(weber_report):
    rep = weber_report
    assert rep.op.d == 2
    assert rep.jacobian.shape == (4, 1)
    assert rep.rank == 1
    assert rep.sv_gap == 1.0
    # frozen: d nu / d c_0 for y'' = (z^2 + c_0) y at c_0 = 0
    assert abs(rep.singular_values[0] - 12.7342) <= 1e-2
    assert rep.holomorphy <= 1e-5


def test_cubic_differential(cubic_report):
    rep = cubic_report
    assert rep.jacobian.shape == (12, 2)
    assert rep.rank == 2
    assert 0.4 <= rep.sv_gap <= 0.7
    assert abs(rep.singular_values[0] - 15.311) <= 5e-2
    assert abs(rep.singular_values[1] - 8.112) <= 5e-2
    assert rep.holomorphy <= 1e-5


def test_quartic_differential(quartic_report):
    rep = quartic_report
    assert rep.jacobian.shape == (6, 3)
    assert rep.rank == 3
    assert rep.sv_gap >= 1e-4
    assert rep.holomorphy <= 1e-5


def test_step_sweep_is_stable(quartic_report):
    coarse = jacobian(OperPoint(2, 2, (0, 0, 0)), h=1e-3)
    assert coarse.rank == quartic_report.rank
    assert abs(coarse.sv_gap - quartic_report.sv_gap) <= 1e-3
    worst = abs(coarse.jacobian - quartic_report.jacobian).max()
    assert worst <= 1e-3 * abs(quartic_report.jacobian).max()


def test_rank_threshold_semantics(quartic_report):
    sv = quartic_report.singular_values
    strict = jacobian(OperPoint(2, 2, (0, 0, 0)), rank_tol=0.99)
    assert strict.rank == sum(1 for s in sv if s >= 0.99 * sv[0])
    assert strict.rank < 3


def test_perturbed_point_keeps_full_rank():
    rep = jacobian(OperPoint(2, 1, (0.3 + 0.2j,)))
    assert rep.rank == 1
    assert rep.op.coeffs == (0.3 + 0.2j,)
    assert rep.holomorphy <= 1e-5


def test_weber_derivative_is_fourth_order():
    # y'' = (z^2 + c) y: tr(S2 S1) = 2 + ab is 1 - e^{+-i pi c} (Sibuya), so
    # d/dc tr = a'b + ab' has a closed form; the averaged real- and
    # imaginary-step quotient at the default h must meet it to O(h^4)
    c = 0.1 + 0.05j
    op = OperPoint(2, 1, (c,))
    a, b = stokes_data(op).monitored_vector()[:2]
    da, db = jacobian(op).jacobian[:2, 0]
    trace = 2 + a * b
    plus, minus = cmath.exp(1j * math.pi * c), cmath.exp(-1j * math.pi * c)
    if abs(trace - (1 - plus)) <= abs(trace - (1 - minus)):
        want = -1j * math.pi * plus
    else:
        want = 1j * math.pi * minus
    assert abs(da * b + a * db - want) <= 1e-9


def test_stencil_bookkeeping(weber_report):
    rep = weber_report
    assert set(rep.stencil_residuals) == {
        (0, complex(s)) for s in (1e-4, -1e-4, 1e-4j, -1e-4j)}
    assert all(v <= 1e-6 for v in rep.stencil_residuals.values())
    assert rep.base.residuals["identity"] <= 1e-8


def test_converged_needs_every_run(weber_report, monkeypatch):
    assert weber_report.converged
    # a fixed circle too small for 1e-10: the base run already misses it
    loose = jacobian(OperPoint(2, 1, (0,)),
                     settings=StokesSettings(radius=2.5))
    assert not loose.converged
    # a converged base run does not cover its stencil runs
    real = immersion.replay

    def stencil_misses(ops, plan):
        return [dataclasses.replace(data, missed=("consistency",))
                for data in real(ops, plan)]

    monkeypatch.setattr(immersion, "replay", stencil_misses)
    rep = jacobian(OperPoint(2, 1, (0,)))
    assert rep.base.residuals == weber_report.base.residuals
    assert not rep.converged
    # the report names every missed run: here all 4(d-1) stencil keys, and
    # not the base run
    assert weber_report.missed == () and "base" in loose.missed
    assert set(rep.missed) == set(rep.stencil_residuals)
    assert len(rep.missed) == 4 * (rep.op.d - 1) and "base" not in rep.missed
    assert rep.missed_names() == [f"stencil run c_0 {s}" for s in
                                  ("+0.0001", "-0.0001", "+0.0001j",
                                   "-0.0001j")]


def test_jacobian_clones_mpmath_once_per_precision(monkeypatch):
    # every run of a Jacobian shares one numeric context and one root-table
    # context per precision, so mpmath is cloned at most once per precision
    # (at the (3,1) point each of the nine runs cloned its own at 69 bits)
    clones = []
    clone = mpmath.mp.clone
    monkeypatch.setattr(mpmath.mp, "clone",
                        lambda: clones.append(clone()) or clones[-1])
    for cached in (stokes.make_ctx, stokes._mpmath_at, stokes._unit_roots):
        cached.cache_clear()
    rep = jacobian(OperPoint(3, 1, (QQ(1, 5), QQ(-1, 7))))
    assert rep.converged and rep.base.plan.bits > 53
    precisions = Counter(mp.prec for mp in clones)
    assert rep.base.plan.bits in precisions
    assert max(precisions.values()) == 1


def test_lost_closure_is_an_error():
    # a step so large the base point's frozen reading plan cannot represent
    # the shifted equation any more must fail loudly, not differentiate noise
    with pytest.raises(ArithmeticError):
        jacobian(OperPoint(2, 1, (0,)), h=50.0)


def test_cross_check_weber():
    rep = kernel_cross_check(OperPoint(2, 1, (0,)))
    assert rep.agree
    assert rep.solvability.tangent_dim == 0
    assert rep.jacobian.rank == 1
    assert rep.solvability.homogeneous_kernel_dim == 1


def test_cross_check_needs_exact_point():
    with pytest.raises(ValueError):
        kernel_cross_check(OperPoint(2, 1, (0.5 + 0.1j,)))


@pytest.mark.parametrize("coeffs", [
    (QQ(1, 5), QQ(-1, 7)), (QQ(1, 5), QQ(-1, 4), QQ(1, 6))],
    ids=["cubic-n3", "quartic-n4"])
def test_differential_passes_the_taylor_test(coeffs):
    # nu(c + t v) - nu(c) - t J v = O(t^2) on the frozen plan: the remainder
    # over t^2 stays flat from t = 0.1 to 0.001, the points one replay of
    # the Jacobian's plan with the base point first.  With J off by 1e-3
    # the first-order miss 1e-3 t J v takes over at small t; the seeded
    # direction is one where ||J v|| makes that visible at t = 0.001
    op = OperPoint(len(coeffs) + 1, 1, coeffs)
    rep = jacobian(op)
    rng = random.Random(2)
    v = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1))
                  for _ in coeffs])
    v /= np.linalg.norm(v)
    ts = (0.1, 0.03, 0.01, 0.003, 0.001)
    c = np.array([complex(x) for x in coeffs])
    runs = replay([op] + [OperPoint(op.n, 1, tuple(c + t * v)) for t in ts],
                  rep.base.plan)
    nu = [run.monitored_vector() for run in runs]

    def spread(jac):
        ratios = [np.linalg.norm(nu_t - nu[0] - t * (jac @ v))
                  / np.linalg.norm(nu[0]) / t ** 2
                  for t, nu_t in zip(ts, nu[1:])]
        return max(ratios) / min(ratios)

    assert spread(rep.jacobian) <= 1.5
    assert spread(rep.jacobian * (1 + 1e-3)) > 1.5
