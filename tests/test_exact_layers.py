"""Exact integer layers of a build against their unbatched references.

sector_coefficients solves consecutive sectors in stacks of at most
_STACK_ENTRIES augmented entries, and every system of a stack is eliminated
on its own pivots, so any stack size must give the same integers: one
sector per stack (the per-sector loop it replaced), the default, and one
stack per build.  The entire basis' recurrence sums each term in one loop;
the tuple-list form it replaced is kept here as the oracle, and the two
must give equal tables and term counts and refuse the same circles.
"""

import math
from fractions import Fraction as QQ

import numpy as np
import pytest

from operstokes import immersion, stokes
from operstokes.isomono import OperPoint
from operstokes.stokes import EntireBasis, make_ctx, replay, stokes_data


def reference_entire_table(op, ctx, rho, nterms=None):
    """EntireBasis' (table, nterms) from the recurrence written with a list
    of (p_m, coefficient) tuples and two generator sums per term."""
    n, d, frac = op.n, op.d, ctx.frac
    r = QQ(float(rho))
    src = [(m, stokes._quantized(op.p_coeff(m), frac, r ** (m + n)))
           for m in range(d + 1) if op.p_coeff(m)]
    cols = [[stokes._quantized(1, frac, r ** m / math.factorial(m))
             if m == j else (0, 0) for m in range(n)] for j in range(n)]
    peak, quiet, m = -math.inf, 0, n
    limit = nterms if nterms is not None else stokes._MAX_TERMS
    while m < limit:
        s = m - n
        denom = math.prod(range(s + 1, s + n + 1))
        worst = -math.inf
        for col in cols:
            terms = [(pr, pi, *col[s - mm]) for mm, (pr, pi) in src if mm <= s]
            re = sum(pr * cr - pi * ci for pr, pi, cr, ci in terms)
            im = sum(pr * ci + pi * cr for pr, pi, cr, ci in terms)
            acc = (re // (denom << frac), im // (denom << frac))
            col.append(acc)
            worst = max(worst, max(map(abs, acc)).bit_length())
        peak = max(peak, worst)
        quiet = quiet + 1 if worst < peak - frac else 0
        m += 1
        if nterms is None and quiet >= n + d and m > 2 * (n + d):
            break
    else:
        if nterms is None:
            raise ArithmeticError(stokes._TERM_CAP)
    falls = np.array([[math.perm(mm, t) for mm in range(m)]
                      for t in range(n)], dtype=object)
    coeffs = np.moveaxis(np.array(cols, dtype=object), 2, 0)
    coeffs = coeffs[:, None] * falls[:, None]
    cut = np.array([[max(0, v.bit_length() - frac) for v in row]
                    for row in np.abs(coeffs).max(axis=(0, 3))], dtype=object)
    coeffs >>= cut[..., None]
    return (coeffs, cut - frac), m


def same_table(got, want):
    return (got[0].shape == want[0].shape
            and np.array_equal(got[0], want[0])
            and np.array_equal(got[1], want[1]))


RECURRENCE_POINTS = {
    "weber": OperPoint(2, 1, (QQ(1, 3),)),
    "cubic": OperPoint(3, 1, (QQ(1, 5), QQ(-1, 7))),
    "complex": OperPoint(2, 2, (0.1 + 0.2j, -0.05j, 0.2)),
    "z4": OperPoint(4, 1, (0, 0, 0)),
    "z6-k2": OperPoint(3, 2, (0, 0, 0, 0, 0)),
}


@pytest.mark.parametrize("bits", [69, 105])
@pytest.mark.parametrize("rho", [2.5, 4.93])
@pytest.mark.parametrize("name", list(RECURRENCE_POINTS))
def test_entire_basis_matches_tuple_list_recurrence(name, rho, bits):
    op, ctx = RECURRENCE_POINTS[name], make_ctx(bits)
    want, count = reference_entire_table(op, ctx, rho)
    basis = EntireBasis(op, ctx, rho)
    assert basis.nterms == count
    assert same_table(basis.table, want)
    # frozen term counts, shorter and longer than the adaptive one
    for nterms in (count - 5, count + 7):
        frozen = EntireBasis(op, ctx, rho, nterms)
        want, frozen_count = reference_entire_table(op, ctx, rho, nterms)
        assert frozen.nterms == frozen_count == nterms
        assert same_table(frozen.table, want)


def test_entire_basis_refuses_the_circles_the_reference_refuses(monkeypatch):
    # a cap of 140 terms: Weber's terms peak near index rho^2, and its
    # bases on circles 2, 3 and 4 stop at 79, 103 and 130 terms
    monkeypatch.setattr(stokes, "_MAX_TERMS", 140)
    op, ctx = RECURRENCE_POINTS["weber"], make_ctx(69)
    refused = []
    for rho in (2.0, 3.0, 4.0, 5.0, 6.0, 8.0):
        try:
            want, count = reference_entire_table(op, ctx, rho)
        except ArithmeticError as err:
            assert str(err) == stokes._TERM_CAP
            with pytest.raises(ArithmeticError, match=stokes._TERM_CAP):
                EntireBasis(op, ctx, rho)
            refused.append(rho)
            continue
        basis = EntireBasis(op, ctx, rho)
        assert basis.nterms == count and same_table(basis.table, want)
    assert refused == [5.0, 6.0, 8.0]


def run_recorded(monkeypatch, make):
    """The StokesData that `make` returns, with every sector_coefficients
    result (y, s) of the run and the sector count of each stacked
    elimination of each call."""
    solves, stacks = [], []
    real_solve, real_eliminate = stokes.sector_coefficients, stokes._eliminate

    def recorded_solve(*args):
        stacks.append([])
        out = real_solve(*args)
        solves.append(out)
        return out

    def recorded_eliminate(aug):
        if aug.ndim == 7:       # (2, P, variants, sectors, n, n, n + 1)
            stacks[-1].append(aug.shape[3])
        return real_eliminate(aug)

    with monkeypatch.context() as patch:
        patch.setattr(stokes, "sector_coefficients", recorded_solve)
        patch.setattr(stokes, "_eliminate", recorded_eliminate)
        result = make()
    return result, solves, stacks


def quartic_replay():
    """A 4-point (2,2) replay batch on its base run's plan."""
    op = OperPoint(2, 2, (0.1 + 0.2j, -0.05j, 0.2))
    plan = stokes_data(op).plan
    points = [p for _, _, p in immersion._stencil_points(op, 1e-4)][:4]
    return lambda: replay(points, plan)


def fresh(op):
    """A fresh default run at op, which needs nothing made beforehand."""
    def prepare():
        return lambda: [stokes_data(op)]
    return prepare


STACK_CASES = {
    # (what makes the run, made outside the recording, and the default
    # stack sizes of each sector_coefficients call)
    "weber": (fresh(OperPoint(2, 1, (QQ(1, 3),))), [[8]]),
    "cubic": (fresh(OperPoint(3, 1, (QQ(1, 5), QQ(-1, 7)))), [[12]]),
    "z6-k2": (fresh(OperPoint(3, 2, (0, 0, 0, 0, 0))), [[16, 2]]),
    "quartic-replay-4": (quartic_replay, [[12]]),
}


@pytest.mark.parametrize("name", list(STACK_CASES))
def test_sector_stacks_are_exact(monkeypatch, name):
    prepare, default_stacks = STACK_CASES[name]
    make = prepare()
    base, base_solves, stacks = run_recorded(monkeypatch, make)
    assert stacks == default_stacks
    r = base[0].plan.layout.r
    for cap, sizes in ((1, [1] * r), (10 ** 9, [r])):
        monkeypatch.setattr(stokes, "_STACK_ENTRIES", cap)
        got, solves, stacks = run_recorded(monkeypatch, make)
        assert stacks == [sizes] * len(default_stacks)
        for (y, s), (y0, s0) in zip(solves, base_solves, strict=True):
            assert y.shape == y0.shape and np.array_equal(y, y0)
            assert s.shape == s0.shape and np.array_equal(s, s0)
        for sd, sd0 in zip(got, base, strict=True):
            assert sd.factors.tobytes() == sd0.factors.tobytes()
            assert sd.matrices.tobytes() == sd0.matrices.tobytes()
            assert sd.residuals == sd0.residuals
            assert sd.plan == sd0.plan
