"""Frozen-plan replays made as one batch.

A Jacobian replays its base run's plan at every stencil point in one call,
with a point axis through the exact integer layers.  Every layer is exact
integer arithmetic with the same shifts and floors per entry, so each
point's data must equal, bit for bit, a replay of that point alone.
"""

from fractions import Fraction as QQ

import pytest

from operstokes import immersion, stokes
from operstokes.isomono import OperPoint
from operstokes.stokes import replay, stokes_data

POINTS = {
    # the benchmark's Jacobian points at seed 1
    "weber": OperPoint(2, 1, (-0.3656 + 0.3474j,)),
    "quartic": OperPoint(2, 2, (0.1319 - 0.1225j, -0.0023 - 0.0253j,
                                0.0758 + 0.1444j)),
    "cubic": OperPoint(3, 1, (QQ(1, 5), QQ(-1, 7))),
    # 12 stencil points at n = 4
    "quartic-n4": OperPoint(4, 1, (QQ(1, 5), QQ(-1, 4), QQ(1, 6))),
}


def exact(values):
    """Working-precision numbers as their exact mpmath tuples."""
    return [v._mpc_ for v in values]


def fields(sd):
    """Every field of a StokesData, its working-precision numbers as exact
    tuples and its complex128 factors and grouped matrices as bytes."""
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
    op = POINTS[name]
    plan = stokes_data(op).plan
    points = [p for _, _, p in immersion._stencil_points(op, 1e-4)]
    assert len(points) == 4 * (op.d - 1)
    batch = replay(points, plan)
    assert len(batch) == len(points)
    for point, got in zip(points, batch):
        [want] = replay([point], plan)
        assert got.op == point and got.plan == plan
        assert fields(got) == fields(want)


def test_batch_with_a_point_of_another_layout_is_refused():
    # the plan's angles belong to its layout: a (2,1) point among (2,2)
    # points is refused as a replay of it alone is
    quartic = POINTS["quartic"]
    plan = stokes_data(quartic).plan
    others = [quartic, OperPoint(2, 1, (QQ(1, 3),))]
    for ops in (others, others[::-1]):
        with pytest.raises(ValueError, match="the plan was made with n=2, "
                                             "k=2, a point asks for n=2, k=1"):
            replay(ops, plan)


def test_jacobian_replays_its_stencil_in_one_batch(monkeypatch):
    # one formal solution for the base run and one for the whole stencil
    calls = []
    real = stokes.formal_solution

    def counted(gcs, M, ctx):
        calls.append(len(gcs))
        return real(gcs, M, ctx)

    monkeypatch.setattr(stokes, "formal_solution", counted)
    rep = immersion.jacobian(POINTS["weber"])
    assert rep.converged
    assert calls == [1, 4]


def test_batched_replay_of_unlike_points():
    # points far apart on one plan: their tables and contents sit on other
    # exponents, which each point keeps in the batch
    plan = stokes_data(POINTS["cubic"]).plan
    points = [POINTS["cubic"], OperPoint(3, 1, (0, 0)),
              OperPoint(3, 1, (QQ(3, 2), QQ(-4, 3))),
              OperPoint(3, 1, (-0.6 + 0.4j, 0.9j))]
    batch = replay(points, plan)
    for point, got in zip(points, batch):
        assert fields(got) == fields(replay([point], plan)[0])


def test_empty_replay_is_empty():
    # formal_solution reads n off the first point, so an empty batch
    # raised IndexError
    assert replay([], stokes_data(POINTS["weber"]).plan) == []
