"""Frozen-plan replays with tangents.

A Jacobian replays its base run's plan once at the base point, as a jet:
component 0 the value and component 1 + m the exact derivative along c_m,
carried through the exact integer layers by the Leibniz rule.  Every value
step is the one a plain replay takes, so the jet's value must equal, bit for
bit, the base run and a replay without tangents, and its tangents must agree
with difference quotients of plain replays on the same plan.
"""

from fractions import Fraction as QQ

import numpy as np
import pytest

from operstokes import immersion, stokes
from operstokes.isomono import OperPoint
from operstokes.stokes import replay, stokes_data

from oracles import circle_jacobian, stencil_jacobian

POINTS = {
    # the benchmark's Jacobian points at seed 1
    "weber": OperPoint(2, 1, (-0.3656 + 0.3474j,)),
    "quartic": OperPoint(2, 2, (0.1319 - 0.1225j, -0.0023 - 0.0253j,
                                0.0758 + 0.1444j)),
    "cubic": OperPoint(3, 1, (QQ(1, 5), QQ(-1, 7))),
    # three tangents at n = 4
    "quartic-n4": OperPoint(4, 1, (QQ(1, 5), QQ(-1, 4), QQ(1, 6))),
}


def exact(values):
    """Complex doubles as their bytes."""
    return np.array(values, dtype=complex).tobytes()


def fields(sd):
    """Every field of a StokesData, its Lambda and Q, factors and grouped
    matrices as bytes."""
    out = dict(vars(sd))
    out["lam"] = exact(sd.lam)
    out["qcoeffs"] = {j: exact(q) for j, q in sd.qcoeffs.items()}
    for name in ("factors", "matrices"):
        values = getattr(sd, name)
        assert values.dtype == complex
        out[name] = (values.shape, values.tobytes())
    return out


@pytest.mark.parametrize("name", list(POINTS))
def test_batched_replay_equals_each_point_alone(name):
    # the jet's value component is the base run and the plain replay, bit
    # for bit, and it carries one tangent column per coefficient
    op = POINTS[name]
    base = stokes_data(op)
    value, jac, drift = replay(op, base.plan, tangents=True)
    assert value.op == op and value.plan == base.plan
    assert fields(value) == fields(base) == fields(replay(op, base.plan))
    assert jac.shape == (len(base.monitored_vector()), op.d - 1)
    assert np.isfinite(jac).all() and 0 <= drift <= 1e-10


def test_batch_with_a_point_of_another_layout_is_refused():
    # the plan's angles belong to its layout: a (2,1) point on a (2,2)
    # plan is refused, with tangents or without
    plan = stokes_data(POINTS["quartic"]).plan
    for tangents in (False, True):
        with pytest.raises(ValueError, match="the plan was made with n=2, "
                                             "k=2, a point asks for n=2, k=1"):
            replay(OperPoint(2, 1, (QQ(1, 3),)), plan, tangents)


def test_jacobian_replays_its_stencil_in_one_batch(monkeypatch):
    # one formal solution for the base run, and one jet of the value and
    # its d - 1 tangents for the whole differential
    calls = []
    real = stokes.formal_solution

    def counted(op, M, ctx, tangents=False):
        calls.append(len(real(op, M, ctx, tangents)))
        return real(op, M, ctx, tangents)

    monkeypatch.setattr(stokes, "formal_solution", counted)
    rep = immersion.jacobian(POINTS["quartic"])
    assert rep.converged
    assert calls == [1, 4]


def test_batched_replay_of_unlike_points():
    # points far apart on one plan: their tables and contents sit on other
    # exponents, which each jet keeps, and its value is its plain replay
    plan = stokes_data(POINTS["cubic"]).plan
    for point in (OperPoint(3, 1, (0, 0)), OperPoint(3, 1, (QQ(3, 2),
                                                           QQ(-4, 3))),
                  OperPoint(3, 1, (-0.6 + 0.4j, 0.9j))):
        value, jac, _ = replay(point, plan, tangents=True)
        assert fields(value) == fields(replay(point, plan))
        want, _ = stencil_jacobian(point, plan)
        assert np.abs(jac - want).max() <= 1e-10 * np.abs(want).max()


@pytest.mark.parametrize("name, count", [
    ("cubic", 12), ("quartic-n4", 12), ("quartic", 16)])
def test_tangents_match_the_difference_oracles(name, count):
    # forward mode against the four-point stencil (h = 1e-4, O(h^4)) and
    # the trapezoid rule on the circle of radius 0.1 (error about
    # 0.1^count), on the frozen plan.  At the seeded (2,2) point the
    # circle's own error at 12 points is 1.2e-12 of max |J|, as 16 points
    # leave 2.4e-16 and forward mode meets the stencil within 8.6e-14
    op = POINTS[name]
    rep = immersion.jacobian(op)
    scale = np.abs(rep.jacobian).max()
    stencil, _ = stencil_jacobian(op, rep.base.plan)
    assert np.abs(rep.jacobian - stencil).max() <= 1e-12 * scale
    circle = circle_jacobian(op, rep.base.plan, 0.1, count)
    assert np.abs(rep.jacobian - circle).max() <= 1e-13 * scale
