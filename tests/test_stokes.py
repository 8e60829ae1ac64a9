import cmath
import math
from collections import Counter
from fractions import Fraction as QQ

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import settings as hyp_settings
from hypothesis import strategies as st

from operstokes import stokes
from operstokes.isomono import OperPoint
from operstokes.stokes import (EntireBasis, FloatCtx, MPCtx, StokesSettings,
                               _visibility_interval, formal_residual,
                               formal_solution, gauge_transform, make_ctx,
                               sector_layout, stokes_data)

SQ2 = 1.4142135623730951


def as_np(mat):
    return np.array([[complex(v) for v in row] for row in mat])


def weber():
    return OperPoint(2, 1, (0,))


def cubic():
    return OperPoint(3, 1, (0, 0))


# ---------------------------------------------------------------------------
# direction layout: exact lattice facts

def test_layout_counts_and_spacing():
    for n in range(2, 6):
        for k in range(1, 4):
            op = OperPoint(n, k, (0,) * (n * k - 1))
            layout = sector_layout(gauge_transform(op))
            assert layout.r == 2 * n * (k + 1)
            step = QQ(1, n * (k + 1))
            assert all(layout.rays[t + 1] - layout.rays[t] == step
                       for t in range(layout.r - 1))


def test_layout_rotation_invariance():
    # rotating by pi/(k+1) maps the direction set to itself
    for n in (2, 3, 5):
        for k in (1, 3):
            op = OperPoint(n, k, (0,) * (n * k - 1))
            layout = sector_layout(gauge_transform(op))
            rays = {th % 2 for th in layout.rays}
            assert {(th + QQ(1, k + 1)) % 2 for th in rays} == rays


def test_layout_parity_symmetry():
    # n odd: the positive real axis splits a sector symmetrically;
    # n even: it is itself a direction
    for n in (3, 5):
        op = OperPoint(n, 1, (0,) * (n - 1))
        layout = sector_layout(gauge_transform(op))
        rays = {th % 2 for th in layout.rays}
        assert QQ(0) not in rays
        assert {(-th) % 2 for th in rays} == rays
    for n in (2, 4):
        op = OperPoint(n, 1, (0,) * (n - 1))
        layout = sector_layout(gauge_transform(op))
        assert QQ(0) in {th % 2 for th in layout.rays}


def test_layout_rejects_base_direction_on_ray():
    op = weber()
    with pytest.raises(ValueError):
        sector_layout(gauge_transform(op), v0=QQ(1, 4))


@given(st.integers(2, 6), st.integers(1, 4),
       st.fractions(min_value=-2, max_value=2, max_denominator=40))
@hyp_settings(max_examples=60, deadline=None)
def test_layout_invariants(n, k, v0):
    op = OperPoint(n, k, (0,) * (n * k - 1))
    gc = gauge_transform(op)
    try:
        layout = sector_layout(gc, v0=v0)
    except ValueError:
        assume(False)
    assert layout.r == 2 * n * (k + 1)
    assert layout.rays[0] > layout.v0 >= layout.rays[0] - layout.spacing
    assert layout.rays[-1] - layout.rays[0] == 2 - layout.spacing
    # every ordered mode pair crosses on exactly k+1 of the directions
    counts = Counter(pair for pairs in layout.pairs for pair in pairs)
    want = {(a, b) for a in range(n) for b in range(n) if a != b}
    assert set(counts) == want
    assert all(c == k + 1 for c in counts.values())


# ---------------------------------------------------------------------------
# gauge data

def test_gauge_trace_weight_and_twist():
    gc2 = gauge_transform(weber())
    assert gc2.trace_weight == QQ(3)      # k n(n+1)/2 = 1*2*3/2
    assert gc2.det_twist == -1            # (-1)^{k(n+1)}
    gc3 = gauge_transform(cubic())
    assert gc3.trace_weight == QQ(6)
    assert gc3.det_twist == 1


def test_gauge_leading_block_is_cyclic():
    gc = gauge_transform(cubic())
    b0 = gc.bcoeffs[0]
    want = np.zeros((3, 3), dtype=object)
    want[0, 1] = want[1, 2] = QQ(1)
    want[2, 0] = QQ(1)
    assert np.array_equal(np.array(b0, dtype=object), want)


# ---------------------------------------------------------------------------
# formal solution

def test_formal_solution_exactly_traceless():
    for op in (weber(), cubic()):
        fs = formal_solution(gauge_transform(op), 12)
        assert fs.trace_residual() <= 1e-15


def test_formal_residual_truncation_scaling():
    # the defect of the truncated frame is one formal order: doubling the
    # radius divides it by ~2^{M+1-k}
    op = weber()
    gc = gauge_transform(op)
    fs = formal_solution(gc, 8)
    r1 = formal_residual(gc, fs, 20.0)
    r2 = formal_residual(gc, fs, 40.0)
    assert r2 < r1
    ratio = r1 / r2
    want = 2.0 ** (fs.M + 1 - fs.k)
    assert 0.25 * want <= ratio <= 4 * want


def test_residue_exponent_of_shifted_square():
    # y'' = (z^2 + c) y has formal residue exponents exactly -+ c/2
    sd = stokes_data(OperPoint(2, 1, (QQ(1, 3),)), StokesSettings())
    lam = sorted(complex(v).real for v in sd.lam)
    assert abs(lam[0] + 1 / 6) <= 1e-12 and abs(lam[1] - 1 / 6) <= 1e-12


# ---------------------------------------------------------------------------
# entire basis

def test_entire_basis_wronskian_is_one():
    # columns start as the identity jet at 0 and the equation has no
    # first-derivative term, so the Wronskian is exactly 1 everywhere
    mp = mpmath.mp.clone()
    mp.prec = 200
    for ctx, tol in ((FloatCtx(), 1e-9), (MPCtx(97), 1e-20)):
        for op, rho in ((weber(), 4.5), (cubic(), 4.0)):
            for theta, radius in ((QQ(1, 7), rho), (QQ(-2, 5), 2.2)):
                basis = EntireBasis(op, ctx, radius, ctx.bits)
                mat = basis.state_matrix(theta)
                w = mp.det(mp.matrix(mat.tolist()))
                assert abs(w - 1) <= tol


def _series_reference(op, radius, theta, prec):
    """Rows y^(t), t < n, of the jet basis at z = radius e^{i pi theta}:
    the Taylor recurrence of y^(n) = p y summed term by term in mpmath at
    prec bits, until the terms fall 2^-prec below the largest one."""
    mp = mpmath.mp.clone()
    mp.prec = prec
    n, d = op.n, op.d
    z = mp.mpf(radius) * mp.expjpi(mp.mpf(theta.numerator) / theta.denominator)
    pcoef = {d: mp.mpf(1)}
    for m in range(d - 1):
        c = QQ(op.p_coeff(m))
        if c:
            pcoef[m] = mp.mpf(c.numerator) / c.denominator
    out = [[None] * n for _ in range(n)]
    for j in range(n):
        coef = [mp.mpf(1) / mp.factorial(j) if m == j else mp.mpf(0)
                for m in range(n)]
        sizes = [abs(c) * abs(z) ** m for m, c in enumerate(coef)]
        while (len(coef) <= 2 * (n + d)
               or max(sizes[-(n + d):]) >= max(sizes) * mp.mpf(2) ** -prec):
            s = len(coef) - n
            coef.append(mp.fsum(pc * coef[s - mm] for mm, pc in pcoef.items()
                                if mm <= s) / mp.rf(s + 1, n))
            sizes.append(abs(coef[-1]) * abs(z) ** (len(coef) - 1))
        for t in range(n):
            out[t][j] = mp.fsum(mp.ff(m, t) * c * z ** (m - t)
                                for m, c in enumerate(coef) if m >= t)
    return mp, out


@pytest.mark.parametrize("bits", [53, 97, 132])
def test_state_matrix_matches_plain_series(bits):
    # the evaluator rounds differently at each precision (numpy at 53 bits,
    # fixed-point integers above) but must agree entrywise with the plain
    # series summed 80 bits deeper
    for op, rho in ((weber(), 4.5),
                    (OperPoint(3, 1, (QQ(1, 5), QQ(-1, 7))), 8.15)):
        for theta, radius in ((QQ(1, 7), rho), (QQ(-2, 5), 0.6 * rho)):
            basis = EntireBasis(op, make_ctx(bits), radius, bits)
            got = basis.state_matrix(theta)
            mp, want = _series_reference(op, radius, theta, bits + 80)
            worst = max(abs(mp.mpc(got[t, j]) - want[t][j]) / abs(want[t][j])
                        for t in range(op.n) for j in range(op.n))
            assert worst <= 2.0 ** -(bits - 30)


def test_entire_basis_matches_gaussian_column():
    # y = exp(z^2/2) solves y'' = (z^2 + 1) y with y(0) = 1, y'(0) = 0... no:
    # y' = z y gives y'' = (1 + z^2) y, so the (1,0)-jet column of that
    # equation is exactly the Gaussian
    op = OperPoint(2, 1, (1,))
    basis = EntireBasis(op, FloatCtx(), 3.0, 53)
    for theta in (QQ(0), QQ(1, 3), QQ(7, 5)):
        z = 3.0 * cmath.exp(1j * math.pi * float(theta))
        got = as_np(basis.state_matrix(theta))
        want = cmath.exp(z * z / 2)
        assert abs(got[0, 0] - want) <= 1e-9 * abs(want)
        assert abs(got[1, 0] - z * want) <= 1e-9 * abs(z * want)


def test_entire_basis_term_count_adapts():
    small = EntireBasis(weber(), FloatCtx(), 2.0, 53)
    large = EntireBasis(weber(), FloatCtx(), 8.0, 53)
    assert small.nterms < large.nterms


# ---------------------------------------------------------------------------
# visibility arcs

def test_visibility_intervals_cover_supersector_conditions():
    for op in (weber(), cubic(), OperPoint(2, 2, (0, 0, 0))):
        gc = gauge_transform(op)
        layout = sector_layout(gc)
        fs = formal_solution(gc, 12)
        for i in range(1, layout.r + 1):
            lo = layout.ray(i) - layout.half
            hi = layout.ray(i + 1) + layout.half
            for d in range(layout.n):
                for a in range(layout.n):
                    if a == d:
                        continue
                    u, v = _visibility_interval(layout, i, a, d)
                    assert lo <= u < v <= hi
                    z = 5.0 * cmath.exp(1j * math.pi * float(u + v) / 2)
                    # mode a genuinely dominates mode d at the reading angle,
                    # by the full exponent polynomial
                    assert (fs.q_entry(a, z) - fs.q_entry(d, z)).real > 0


# ---------------------------------------------------------------------------
# full pipeline oracles

def test_weber_stokes_entries():
    # classical connection numbers for y'' = z^2 y: each grouped matrix
    # carries the single off-diagonal entry i sqrt(2), on alternating sides
    sd = stokes_data(weber(), StokesSettings())
    assert sd.det_twist == -1
    assert sd.residuals["identity"] <= 1e-8
    assert sd.residuals["unipotency"] <= 1e-8
    assert len(sd.matrices) == 4
    positions = []
    for mat in sd.matrices:
        off = as_np(mat) - np.eye(2)
        ranked = sorted(((abs(off[a, b]), a, b)
                         for a in range(2) for b in range(2) if a != b),
                        reverse=True)
        _, a, b = ranked[0]
        assert abs(off[a, b] - 1j * SQ2) <= 1e-6
        assert ranked[1][0] <= 1e-6
        positions.append((a, b))
    assert positions == [positions[0], positions[1]] * 2
    assert positions[0] != positions[1]


def test_cubic_stokes_entries():
    # omega-orbit values for y''' = z^3 y: every live entry is a primitive
    # sixth root of unity times 2, and the four grouped matrices repeat in
    # pairs because p is invariant under the half-period rotation
    sd = stokes_data(cubic(), StokesSettings())
    assert sd.det_twist == 1
    assert sd.residuals["identity"] <= 1e-8
    assert sd.residuals["unipotency"] <= 1e-8
    w = 1 + 1j * math.sqrt(3)
    odd = np.eye(3, dtype=complex)
    odd[0, 2] = w
    odd[1, 0] = w
    odd[1, 2] = -np.conj(w)
    even = np.eye(3, dtype=complex)
    even[0, 1] = -np.conj(w)
    even[2, 0] = -np.conj(w)
    even[2, 1] = -w
    assert len(sd.matrices) == 4
    for i, mat in enumerate(sd.matrices, start=1):
        want = odd if i % 2 else even
        assert abs(as_np(mat) - want).max() <= 1e-6


@pytest.mark.parametrize("c", [0, QQ(1, 3), 0.1 + 0.05j])
def test_weber_traces_closed_form(c):
    # Sibuya's connection formula for y'' = (z^2 + c) y: the products of
    # consecutive Stokes matrices have traces 1 - exp(+-i pi c), one sign
    # each, for every c
    sd = stokes_data(OperPoint(2, 1, (c,)), StokesSettings())
    s1, s2, s3 = (as_np(m) for m in sd.matrices[:3])
    got = (np.trace(s2 @ s1), np.trace(s3 @ s2))
    e = cmath.exp(1j * math.pi * complex(c))
    want = (1 - e, 1 - 1 / e)
    dev = min(max(abs(got[0] - want[0]), abs(got[1] - want[1])),
              max(abs(got[0] - want[1]), abs(got[1] - want[0])))
    assert dev <= 1e-9


def test_octic_monomial_sibuya_traces():
    # y'' = z^8 y: Sibuya's Stokes multipliers 2i cos(pi/10) give every
    # product of consecutive grouped matrices the trace 2 - 4 cos^2(pi/10)
    sd = stokes_data(OperPoint(2, 4, (0,) * 7), StokesSettings())
    assert sd.converged
    assert sd.residuals["identity"] <= 1e-9
    mats = [as_np(m) for m in sd.matrices]
    want = 2 - 4 * math.cos(math.pi / 10) ** 2
    for s, t in zip(mats, mats[1:]):
        assert abs(np.trace(t @ s) - want) <= 1e-9


def test_phantom_rays_carry_identity_factors():
    sd = stokes_data(weber(), StokesSettings())
    assert sd.residuals["phantom"] <= 1e-8
    assert sd.residuals["support"] <= 1e-8
    count = sum(1 for j in range(1, sd.layout.r + 1)
                if sd.layout.is_phantom(j))
    assert count == sd.layout.r // 2


def test_rotation_shifts_grouped_matrices():
    op = OperPoint(3, 1, (QQ(1, 5), QQ(-1, 7)))
    a = stokes_data(op, StokesSettings())
    b = stokes_data(op, StokesSettings(v0=a.layout.v0 + QQ(1, 2)))
    for i in range(1, 4):
        dev = abs(as_np(a.matrices[i]) - as_np(b.matrices[i - 1])).max()
        assert dev <= 1e-6


def test_plan_replay_is_deterministic():
    op = cubic()
    first = stokes_data(op, StokesSettings())
    again = stokes_data(op, StokesSettings(), plan=first.plan)
    for a, b in zip(first.factors, again.factors):
        assert np.array_equal(as_np(a), as_np(b))


def test_plan_does_not_depend_on_precision():
    # the angles and labeling come from the layout alone: the default
    # 96-bit run and a 53-bit run on a fixed inner circle plan identically,
    # even where two normalization candidates tie exactly
    op = cubic()
    mp_run = stokes_data(op)
    fp_run = stokes_data(op, StokesSettings(radius=5.0, radius_tol=1e-6))
    assert mp_run.plan.bits > 53 and fp_run.plan.bits == 53
    assert mp_run.plan.cond == fp_run.plan.cond
    assert mp_run.plan.norms == fp_run.plan.norms
    assert mp_run.plan.perm == fp_run.plan.perm


def test_refinement_sharpens_the_closure():
    op = weber()
    coarse = stokes_data(op, StokesSettings(trunc_order=20, radius_tol=1e-10))
    fine = stokes_data(op, StokesSettings(trunc_order=30, radius_tol=1e-12))
    assert fine.residuals["identity"] * 10 <= coarse.residuals["identity"]


def test_complex_coefficients_supported():
    sd = stokes_data(OperPoint(2, 1, (0.1 + 0.05j,)), StokesSettings())
    assert sd.residuals["identity"] <= 1e-7
    assert abs(sum(complex(v) for v in sd.lam)) <= 1e-12


def test_fixed_radius_is_respected():
    sd = stokes_data(weber(), StokesSettings(radius=4.5))
    assert sd.radius == 4.5
    assert sd.residuals["identity"] <= 1e-6


def test_fresh_run_builds_once_per_precision_and_circle(monkeypatch):
    # the escalation's final build is the run's build: no formal solution is
    # recomputed at a precision, and no entire basis is rebuilt on a circle;
    # the angles are planned once, one visibility arc per kill condition
    fs_bits, bases, arcs = [], [], []
    real_formal, real_basis = stokes.formal_solution, stokes.EntireBasis
    real_arc = stokes._visibility_interval

    def counted_formal(*args, **kwargs):
        fs = real_formal(*args, **kwargs)
        fs_bits.append(fs.ctx.bits)
        return fs

    class CountedBasis(real_basis):
        def __init__(self, op, ctx, rho, bits, nterms=None):
            bases.append((float(rho), bits))
            super().__init__(op, ctx, rho, bits, nterms)

    def counted_arc(*args):
        arcs.append(args)
        return real_arc(*args)

    monkeypatch.setattr(stokes, "formal_solution", counted_formal)
    monkeypatch.setattr(stokes, "EntireBasis", CountedBasis)
    monkeypatch.setattr(stokes, "_visibility_interval", counted_arc)
    sd = stokes_data(cubic())
    assert sd.plan.bits > 53
    assert sd.residuals["identity"] <= 1e-9
    assert {53, sd.plan.bits} <= set(fs_bits)
    assert len(fs_bits) == len(set(fs_bits))
    assert (sd.radius, sd.plan.bits) in bases
    assert len(bases) == len(set(bases))
    assert len(arcs) == sd.layout.r * sd.n * (sd.n - 1)


def test_scan_builds_no_basis_outside_the_reading_circle(monkeypatch):
    # each scanned circle is read from its own basis, innermost first, and
    # the scan stops at the circle it reads
    radii = []
    real_basis = stokes.EntireBasis

    class CountedBasis(real_basis):
        def __init__(self, op, ctx, rho, bits, nterms=None):
            radii.append(float(rho))
            super().__init__(op, ctx, rho, bits, nterms)

    monkeypatch.setattr(stokes, "EntireBasis", CountedBasis)
    sd = stokes_data(OperPoint(2, 1, (QQ(1, 3),)))
    assert sd.plan.bits == 53 and sd.converged
    assert radii == sorted(radii) and radii[-1] == sd.radius
