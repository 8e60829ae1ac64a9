import cmath
import dataclasses
import math
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction as QQ

import numpy as np
import pytest

import operstokes
from operstokes import immersion, stokes
from operstokes.immersion import jacobian, kernel_cross_check
from operstokes.isomono import OperPoint
from operstokes.stokes import StokesSettings, replay, stokes_data

from oracles import stencil_jacobian, stencil_points


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
    # forward mode has no step: the stencil oracle on the same plan at h =
    # 1e-3 and 1e-4 (single-point replays) keeps its rank and gap and
    # meets it, the finer step the closer
    rep = quartic_report
    coarse, fine = (stencil_jacobian(rep.op, rep.base.plan, h)[0]
                    for h in (1e-3, 1e-4))
    scale = abs(rep.jacobian).max()
    for jac in (coarse, fine):
        sv = np.linalg.svd(jac, compute_uv=False)
        assert (sv >= sv[0] * rep.rank_tol).sum() == rep.rank
        assert abs(sv[-1] / sv[0] - rep.sv_gap) <= 1e-3
    assert abs(coarse - rep.jacobian).max() <= 1e-3 * scale
    assert abs(fine - rep.jacobian).max() <= 1e-12 * scale


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
    # d/dc tr = a'b + ab' has a closed form; the forward-mode column, exact
    # for the frozen plan, must meet it to the run's reading accuracy (the
    # averaged step quotients met it to O(h^4), within 1e-9)
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
    assert abs(da * b + a * db - want) <= 1e-13


def test_stencil_bookkeeping(weber_report):
    # the stencil oracle's four single-point replays keep their closure on
    # the frozen plan and meet the forward-mode column, whose A/B tangent
    # disagreement (holomorphy) is far below the quotients' disagreement
    rep = weber_report
    points = stencil_points(rep.op, 1e-4)
    assert [p.coeffs for p in points] == [
        (complex(s),) for s in (1e-4, -1e-4, 1e-4j, -1e-4j)]
    assert all(replay(p, rep.base.plan).residuals["identity"] <= 1e-6
               for p in points)
    assert rep.base.residuals["identity"] <= 1e-8
    stencil, spread = stencil_jacobian(rep.op, rep.base.plan)
    assert abs(stencil - rep.jacobian).max() <= 1e-12 * abs(
        rep.jacobian).max()
    assert rep.holomorphy <= 1e-3 * spread


def test_converged_needs_every_run(weber_report, monkeypatch):
    assert weber_report.converged
    # a fixed circle too small for 1e-10: the base run already misses it
    loose = jacobian(OperPoint(2, 1, (0,)),
                     settings=StokesSettings(radius=2.5))
    assert not loose.converged and loose.base.missed
    # the tangent replay's value is the base run bit for bit, so the base
    # run's verdict is the differential's
    values = []
    real = immersion.replay

    def recorded(op, plan, tangents=False):
        out = real(op, plan, tangents)
        values.append(out[0])
        return out

    monkeypatch.setattr(immersion, "replay", recorded)
    for settings in (None, StokesSettings(radius=2.5)):
        rep = jacobian(OperPoint(2, 1, (0,)), settings=settings)
        value = values[-1]
        assert value.residuals == rep.base.residuals
        assert value.missed == rep.base.missed
        assert value.matrices.tobytes() == rep.base.matrices.tobytes()
        assert rep.converged == (not value.missed)
    assert weber_report.base.residuals == values[0].residuals


def test_jacobian_builds_one_context_per_precision(monkeypatch):
    # every run of a Jacobian shares one numeric context per precision and
    # one root table per denominator and precision: at the (3,1) point the
    # base run and its replay read at 69 bits, each table built once
    keys = []
    roots = stokes._unit_roots
    monkeypatch.setattr(stokes, "_unit_roots",
                        lambda *key: keys.append(key) or roots(*key))
    for cached in (stokes.make_ctx, roots):
        cached.cache_clear()
    rep = jacobian(OperPoint(3, 1, (QQ(1, 5), QQ(-1, 7))))
    assert rep.converged and rep.base.plan.bits > 53
    assert stokes.make_ctx.cache_info().misses == 1
    assert {frac for frac, _ in keys} == {
        stokes.make_ctx(rep.base.plan.bits).frac}
    assert roots.cache_info().misses == len(set(keys)) < len(keys)


def bits_of(value):
    """A result as nested tuples that are equal only if it is equal bit
    for bit: arrays as their bytes, floats as their hex."""
    if dataclasses.is_dataclass(value):
        return bits_of(vars(value))
    if isinstance(value, dict):
        return tuple((key, bits_of(v)) for key, v in value.items())
    if isinstance(value, (list, tuple)):
        return tuple(map(bits_of, value))
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (float, complex)):
        return tuple(float(part).hex() for part in (value.real, value.imag))
    return value


def test_a_run_needs_no_mpmath():
    # every scalar of a run is fixed point: with mpmath unimportable, a
    # fresh (3,1) run and a Jacobian at the seeded Weber point succeed, and
    # each field equals this interpreter's run bit for bit
    script = (
        "import pickle, sys\n"
        "sys.modules['mpmath'] = None\n"
        "from fractions import Fraction\n"
        "from operstokes.immersion import jacobian\n"
        "from operstokes.isomono import OperPoint\n"
        "from operstokes.stokes import stokes_data\n"
        "sd = stokes_data(OperPoint(3, 1, (Fraction(1, 5), Fraction(-1, 7))))\n"
        "rep = jacobian(OperPoint(2, 1, (-0.3656 + 0.3474j,)))\n"
        "sys.stdout.buffer.write(pickle.dumps((sd, rep)))\n")
    src = os.path.dirname(os.path.dirname(operstokes.__file__))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True)
    sd, rep = pickle.loads(run.stdout)
    assert bits_of(sd) == bits_of(
        stokes_data(OperPoint(3, 1, (QQ(1, 5), QQ(-1, 7)))))
    assert bits_of(rep) == bits_of(
        jacobian(OperPoint(2, 1, (-0.3656 + 0.3474j,))))


def test_lost_closure_is_an_error():
    # a base run whose circle the entire basis cannot sum fails loudly,
    # before any tangent is made, rather than differentiating noise
    with pytest.raises(ArithmeticError, match=stokes._TERM_CAP):
        jacobian(OperPoint(2, 1, (0,)), settings=StokesSettings(radius=1e100))


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
    # over t^2 stays flat from t = 0.1 to 0.001, each point a replay of the
    # Jacobian's plan.  With J off by 1e-3
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
    nu = [replay(point, rep.base.plan).monitored_vector() for point in
          [op] + [OperPoint(op.n, 1, tuple(c + t * v)) for t in ts]]

    def spread(jac):
        ratios = [np.linalg.norm(nu_t - nu[0] - t * (jac @ v))
                  / np.linalg.norm(nu[0]) / t ** 2
                  for t, nu_t in zip(ts, nu[1:])]
        return max(ratios) / min(ratios)

    assert spread(rep.jacobian) <= 1.5
    assert spread(rep.jacobian * (1 + 1e-3)) > 1.5
