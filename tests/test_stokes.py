import cmath
import functools
import itertools
import math
import random
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
from operstokes.stokes import (EntireBasis, StokesSettings,
                               _visibility_interval, det_twist,
                               formal_solution, make_ctx, replay,
                               sector_layout, stokes_data)
from oracles import stencil_points
from test_series_kernel import gauge_transform

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
            layout = sector_layout(op.n, op.k)
            assert layout.r == 2 * n * (k + 1)
            step = QQ(1, n * (k + 1))
            assert all(layout.rays[t + 1] - layout.rays[t] == step
                       for t in range(layout.r - 1))


def test_layout_rotation_invariance():
    # rotating by pi/(k+1) maps the direction set to itself
    for n in (2, 3, 5):
        for k in (1, 3):
            op = OperPoint(n, k, (0,) * (n * k - 1))
            layout = sector_layout(op.n, op.k)
            rays = {th % 2 for th in layout.rays}
            assert {(th + QQ(1, k + 1)) % 2 for th in rays} == rays


def test_layout_parity_symmetry():
    # n odd: the positive real axis splits a sector symmetrically;
    # n even: it is itself a direction
    for n in (3, 5):
        op = OperPoint(n, 1, (0,) * (n - 1))
        layout = sector_layout(op.n, op.k)
        rays = {th % 2 for th in layout.rays}
        assert QQ(0) not in rays
        assert {(-th) % 2 for th in rays} == rays
    for n in (2, 4):
        op = OperPoint(n, 1, (0,) * (n - 1))
        layout = sector_layout(op.n, op.k)
        assert QQ(0) in {th % 2 for th in layout.rays}


def test_layout_rejects_base_direction_on_ray():
    op = weber()
    with pytest.raises(ValueError):
        sector_layout(op.n, op.k, v0=QQ(1, 4))


@given(st.integers(2, 6), st.integers(1, 4),
       st.fractions(min_value=-2, max_value=2, max_denominator=40))
@hyp_settings(max_examples=60, deadline=None)
def test_layout_invariants(n, k, v0):
    try:
        layout = sector_layout(n, k, v0=v0)
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
    # the trace k n(n+1)/2 of the gauge's diagonal (n-a)k is split off:
    # B_{k+1} keeps (n-a)k - k(n+1)/2 on its diagonal, summing to 0
    for op in (weber(), cubic(), OperPoint(4, 2, (0,) * 7)):
        n, k = op.n, op.k
        diag = [gauge_transform(op)[k + 1][a, a] for a in range(n)]
        assert diag == [(n - a) * k - QQ(k * (n + 1), 2) for a in range(n)]
        assert sum(diag) == 0
    assert det_twist(weber()) == -1            # (-1)^{k(n+1)}
    assert det_twist(cubic()) == 1


def test_gauge_leading_block_is_cyclic():
    b0 = gauge_transform(cubic())[0]
    want = np.zeros((3, 3), dtype=object)
    want[0, 1] = want[1, 2] = QQ(1)
    want[2, 0] = QQ(1)
    assert np.array_equal(np.array(b0, dtype=object), want)


# ---------------------------------------------------------------------------
# formal solution

def formal(op, M, ctx):
    """The formal solution of one point: a jet of its value alone."""
    [fs] = formal_solution(op, M, ctx)
    return fs


def inverse_table(fs, rho):
    """The formal-inverse table of one formal solution, without the jet
    axis of its value alone."""
    coeffs, exp = stokes._inverse_table([fs], rho)
    return coeffs[:, 0], exp


def ycoeffs(fs):
    """Y_m, m = 0..M, the z^{-m} coefficients of Yhat, each rounded once to
    the working precision from the formal solution's fixed point."""
    return [stokes._rounded(fs.ctx, *y, -fs.ctx.frac) for y in fs.fixed]


def yhat(fs, z):
    """sum_m Y_m z^{-m}: the truncated formal frame at a concrete z."""
    ys = ycoeffs(fs)
    acc = ys[0].copy()
    w = 1.0 / z
    pw = w
    for m in range(1, fs.M + 1):
        acc = acc + ys[m] * pw
        pw = pw * w
    return acc


def yhat_prime(fs, z):
    ys = ycoeffs(fs)
    acc = np.zeros((fs.n, fs.n), dtype=object)
    w = 1.0 / z
    pw = w * w
    for m in range(1, fs.M + 1):
        acc = acc + ys[m] * (-m) * pw
        pw = pw * w
    return acc


def q_prime_entry(fs, b, z):
    acc = 0 * z
    for j in range(fs.k + 1, 0, -1):
        acc = acc * z + j * fs.qcoeffs[j][b]
    return acc


def formal_residual(op, fs, z):
    """|| Yhat' - B Yhat + Yhat (Q' + Lambda/z) || at a concrete z, with B
    framed by the rounded f0 of _fixed_frame."""
    ctx = fs.ctx
    n = fs.n
    f0, f0inv = (stokes._rounded(ctx, *f, -ctx.frac)
                 for f in stokes._fixed_frame(ctx, n))
    z = ctx.number(z)
    bz = np.zeros((n, n), dtype=object)
    w = 1.0 / z
    pw = z ** op.k
    for bj in gauge_transform(op):
        bz = bz + np.array([[ctx.number(v) for v in row] for row in bj],
                           dtype=object) * pw
        pw = pw * w
    yh = yhat(fs, z)
    res = yhat_prime(fs, z) - f0inv @ bz @ f0 @ yh
    for b in range(n):
        res[:, b] = res[:, b] + yh[:, b] * (q_prime_entry(fs, b, z)
                                            + fs.lam[b] / z)
    return max(abs(complex(res[a, b])) for a in range(n) for b in range(n))


def test_formal_solution_exactly_traceless():
    for op in (weber(), cubic()):
        fs = formal(op, 12, make_ctx(69))
        assert fs.trace_residual() <= 1e-15


def test_formal_residual_truncation_scaling():
    # the defect of the truncated frame is one formal order: doubling the
    # radius divides it by ~2^{M+1-k}, at a double's 53 bits and above
    for op, bits in itertools.product(
            (weber(), OperPoint(3, 1, (QQ(1, 5), QQ(-1, 7)))), (53, 97)):
        fs = formal(op, 8, make_ctx(bits))
        r1 = formal_residual(op, fs, 20.0)
        r2 = formal_residual(op, fs, 40.0)
        assert r2 < r1
        ratio = r1 / r2
        want = 2.0 ** (fs.M + 1 - fs.k)
        assert 0.25 * want <= ratio <= 4 * want


@pytest.mark.parametrize("op", [
    OperPoint(2, 1, (QQ(1, 3),)), OperPoint(3, 1, (QQ(1, 5), QQ(-1, 7))),
    OperPoint(2, 4, (0,) * 7)], ids=["weber", "cubic-point", "octic"])
def test_double_formal_solution_matches_multiprecision(op):
    # one recurrence at every precision: at a double's 53 bits the
    # fixed-point solution is rounded once, so each Y_m, Lambda and Q_j is
    # within 4 ulps of its largest entry of the 132-bit one, however far
    # the series grows
    mp = mpmath.mp.clone()
    mp.prec = 200
    lo, hi = (formal(op, 20, make_ctx(bits)) for bits in (53, 132))
    pairs = list(zip(ycoeffs(lo), ycoeffs(hi))) + [(lo.lam, hi.lam)]
    pairs += [(lo.qcoeffs[j], hi.qcoeffs[j]) for j in hi.qcoeffs]
    assert len(pairs) == 21 + 1 + op.k + 1
    for got, want in pairs:
        got, want = np.ravel(got), [mp.mpc(v) for v in np.ravel(want)]
        # each part is rounded to 53 significant bits
        assert all(part._mpf_[3] <= 53
                   for v in got for part in (v.real, v.imag))
        ulp = np.spacing(float(max(abs(v) for v in want)))
        assert all(abs(mp.mpc(g) - v) <= 4 * ulp for g, v in zip(got, want))


def test_residue_exponent_of_shifted_square():
    # y'' = (z^2 + c) y has formal residue exponents exactly -+ c/2
    sd = stokes_data(OperPoint(2, 1, (QQ(1, 3),)), StokesSettings())
    lam = sorted(complex(v).real for v in sd.lam)
    assert abs(lam[0] + 1 / 6) <= 1e-12 and abs(lam[1] - 1 / 6) <= 1e-12


def root_series(op):
    """r_0..r_{k+1} of p(z)^{1/n} = z^k sum_j r_j z^{-j}, exactly: the
    binomial series of (1 + u)^{1/n}, u = sum_m c_m z^{m-d}, through
    z^{-(k+1)}."""
    n, d, top = op.n, op.d, op.k + 1
    u = [QQ(0)] * (top + 1)
    for m, c in enumerate(op.coeffs):
        if d - m <= top:
            u[d - m] += c
    r, power, binom = [QQ(0)] * (top + 1), [QQ(1)] + [QQ(0)] * top, QQ(1)
    for t in range(top + 1):
        r = [a + binom * b for a, b in zip(r, power)]
        power = [sum(power[i] * u[j - i] for i in range(j + 1))
                 for j in range(top + 1)]
        binom = binom * (QQ(1, n) - t) / (t + 1)
    return r


@pytest.mark.parametrize("n, k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2),
                                  (4, 1), (4, 2), (5, 1), (6, 1)])
def test_formal_exponents_in_closed_form(n, k):
    # the eigenvalues of B(z) are the n-th roots of p, so mode a of the
    # formal solution has Q_a' + lambda_a / z = zeta^a p^{1/n} + O(z^-2):
    # lambda_a = zeta^a r_{k+1} and Q_{j,a} = zeta^a r_{k+1-j} / j, with
    # zeta = e^{2 pi i / n}
    rng = random.Random(1000 * n + k)
    op = OperPoint(n, k, tuple(QQ(rng.randint(-9, 9), rng.randint(1, 4))
                               for _ in range(n * k - 1)))
    fs = formal(op, 12, make_ctx(69))
    r = root_series(op)
    zeta = [cmath.exp(2j * math.pi * a / n) for a in range(n)]
    pairs = [(fs.lam, r[k + 1])]
    pairs += [(fs.qcoeffs[j], r[k + 1 - j] / j) for j in range(1, k + 2)]
    assert sorted(fs.qcoeffs) == list(range(1, k + 2))
    for got, root in pairs:
        want = [z * complex(root) for z in zeta]
        scale = max(1.0, abs(float(root)))
        assert max(abs(complex(g) - w) for g, w in zip(got, want)) \
            <= 1e-14 * scale


# ---------------------------------------------------------------------------
# numeric context

def test_double_and_multiprecision_contexts_agree():
    # one context class at every precision: every method gives the same
    # value to double precision at a double's 53 bits and at 97 bits, and
    # a^{-1} b, the exact quotient rounded once to a double, is x (a
    # fixed-point matrix (y, s) is y diag(2^s), and 4 b has Gaussian-integer
    # entries).  The numpy complex scalar guards exp and log against
    # backends that dispatch on the exact type and drop the imaginary part
    # (mpmath.fp does)
    lo, hi = make_ctx(53), make_ctx(97)
    assert (lo.bits, lo.frac) == (53, 53 + stokes._GUARD_BITS)
    assert (hi.bits, hi.frac) == (97, 97 + stokes._GUARD_BITS)
    a = [[4, 1, 0], [1, 3, -1], [0, 2, 5]]
    x = [QQ(1, 2), -2j, 1 + 0.25j]
    b = [[sum(a[r][c] * x[c] for c in range(3))] for r in range(3)]
    w = np.complex128(0.3 + 0.2j)

    def exact(rows, s):             # a jet of its value alone
        return (np.array([[[[int(v.real) for v in row] for row in rows]],
                          [[[int(v.imag) for v in row] for row in rows]]],
                         dtype=object),
                np.array([[s] * len(rows[0])], dtype=object))

    def values(ctx):
        return [ctx.pi, ctx.number(QQ(-1, 7)), ctx.number(0.25 - 0.5j),
                ctx.exp(w), ctx.log(w)]

    got, want = values(lo), values(hi)
    assert len(got) == len(want) == 5
    assert all(abs(complex(g) - complex(v)) <= 1e-15
               for g, v in zip(got, want))
    re, im = stokes._quotient_entries(stokes._ratio, *stokes._exact_quotient(
        exact(a, 0), exact([[4 * v for v in row] for row in b], -2)))
    # x is dyadic, so its one rounding is exact
    assert [complex(r, i) for r, i in zip(re.ravel(), im.ravel())] == [
        complex(v) for v in x]
    assert abs(got[3] - cmath.exp(0.3 + 0.2j)) <= 1e-15
    assert abs(got[4] - cmath.log(0.3 + 0.2j)) <= 1e-15


# ---------------------------------------------------------------------------
# entire basis

def test_entire_basis_wronskian_is_one():
    # columns start as the identity jet at 0 and the equation has no
    # first-derivative term, so the Wronskian is exactly 1 everywhere
    mp = mpmath.mp.clone()
    mp.prec = 200
    for ctx, tol in ((make_ctx(53), 1e-9), (make_ctx(97), 1e-20)):
        for op, rho in ((weber(), 4.5), (cubic(), 4.0)):
            for theta, radius in ((QQ(1, 7), rho), (QQ(-2, 5), 2.2)):
                basis = EntireBasis(op, ctx, radius)
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
        c = op.p_coeff(m)
        if isinstance(c, complex):
            pcoef[m] = mp.mpc(c)
        elif c:
            pcoef[m] = mp.mpf(QQ(c).numerator) / QQ(c).denominator
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


@pytest.mark.parametrize("bits", [53, 97, 129, 132])
def test_state_matrix_matches_plain_series(bits):
    # the fixed-point evaluator, rounded once at each precision, must agree
    # entrywise with the plain series summed 80 bits deeper
    cases = ((weber(), 4.5), (OperPoint(3, 1, (QQ(1, 5), QQ(-1, 7))), 8.15))
    if bits == 129:
        # z^4 at its default plan, where the scaled series grows the most,
        # and a complex (3,1) point, whose series has imaginary parts
        cases = ((OperPoint(4, 1, (0, 0, 0)), 9.05),
                 (OperPoint(3, 1, (0.2 + 0.1j, -0.05j)), 8.15))
    readings = [(op, theta, radius) for op, rho in cases
                for theta, radius in ((QQ(1, 7), rho), (QQ(-2, 5), 0.6 * rho))]
    # every reading sums more terms than the 2D = 48 roots of the (3,1)
    # lattice, so each table is folded by its angle's period;
    # add the (3,1) lattice angle 7/24, period 48, and the same angle on
    # the next sheet
    readings += [(OperPoint(3, 1, (QQ(1, 5), QQ(-1, 7))), theta, 8.15)
                 for theta in (QQ(7, 24), QQ(7, 24) + 2)]
    for op, theta, radius in readings:
        basis = EntireBasis(op, make_ctx(bits), radius)
        assert basis.nterms > 48
        got = basis.state_matrix(theta)
        mp, want = _series_reference(op, radius, theta, bits + 80)
        worst = max(abs(mp.mpc(got[t, j]) - want[t][j]) / abs(want[t][j])
                    for t in range(op.n) for j in range(op.n))
        assert worst <= 2.0 ** -(bits - 30)


@pytest.mark.parametrize("bits", [53, 97, 132])
def test_formal_inverse_matches_plain_series(bits):
    # the fixed-point formal-inverse table, summed over the shared unit
    # powers and rounded once, against sum_m W_m z^{-m} f0^{-1} from the
    # run's own Y_m in mpmath 80 bits deeper; and the
    # truncated inverse undoes the truncated frame up to the omitted orders
    # z^{-m}, m > M
    mp = mpmath.mp.clone()
    mp.prec = bits + 80
    for op, rho in ((weber(), 4.5),
                    (OperPoint(3, 1, (QQ(1, 5), QQ(-1, 7))), 8.15)):
        ctx = make_ctx(bits)
        fs = formal(op, 20, ctx)
        n, M = fs.n, fs.M
        table = inverse_table(fs, rho)
        ys = [mp.matrix([[mp.mpc(v) for v in row] for row in y])
              for y in ycoeffs(fs)]
        ws = [mp.eye(n)]
        for m in range(1, M + 1):
            ws.append(-sum((ys[j] * ws[m - j] for j in range(1, m + 1)),
                           mp.zeros(n)))
        omitted = sum(rho ** -m * max(abs(v) for v in sum(
            (ys[j] * ws[m - j] for j in range(m - M, M + 1)), mp.zeros(n)))
            for m in range(M + 1, 2 * M + 1))
        f0inv = mp.matrix([[mp.expjpi(mp.mpf(-2 * a * b) / n) / n
                            for b in range(n)] for a in range(n)])
        for theta in (QQ(1, 7), QQ(-2, 5)):
            z = rho * mp.expjpi(mp.mpf(theta.numerator) / theta.denominator)
            want = sum((ws[m] * z ** -m for m in range(M + 1)),
                       mp.zeros(n)) * f0inv
            # the table is summed as the contents sum it, and its column a
            # carries rho^(h_a), which is divided out
            sums, exp = stokes._table_sums(ctx, table,
                                           *stokes._period([theta]))
            got = stokes._rounded(ctx, *sums[..., 0], exp).conj() / [
                    ctx.number(rho) ** ctx.number(h)
                    for h in stokes._gauge_exponents(n, fs.k)]
            worst = max(abs(mp.mpc(got[a, b]) - want[a, b])
                        for a in range(n) for b in range(n))
            assert worst <= 2.0 ** -(bits - 30) * max(abs(v) for v in want)
            f0 = stokes._rounded(ctx, *stokes._fixed_frame(ctx, n)[0],
                                 -ctx.frac)
            prod = yhat(fs, ctx.number(z)) @ got @ f0 - np.eye(n)
            res = max(abs(complex(v)) for v in np.ravel(prod))
            assert res <= omitted + 2.0 ** -(bits - 10)
            assert omitted <= 1e-2 * stokes._series_tail(fs, rho)


@pytest.mark.parametrize("bits", [97, 132])
def test_unit_roots_are_within_one_unit(bits):
    # every unit power is a root read from the table of its denominator,
    # so u^m is as accurate at m = 255 as at m = 1; and every root of the
    # (3,1) and (5,1) lattice tables, D = 24 and 40, is within one unit of
    # the fixed point (the test allows two) against mpmath 400 bits deep
    ctx = make_ctx(bits)
    mp = mpmath.mp.clone()
    mp.prec = 400

    def off(got, r, den, frac=ctx.frac):
        unit = mp.mpf(2) ** -frac
        want = mp.expjpi(mp.mpf(r) / den)
        return max(abs(got[0] * unit - want.real),
                   abs(got[1] * unit - want.imag)) / unit

    # u^m as _table_sums reads it: the sums of a table whose entry m holds
    # the one coefficient 1 at m
    unit = np.zeros((2, 1, 256, 256), dtype=object)
    unit[0, 0] = np.eye(256, dtype=int).astype(object)
    (pr, pi), exp = stokes._table_sums(
        ctx, (unit, np.zeros((1, 256), dtype=object)),
        *stokes._period([QQ(7, 24)]))
    pr, pi = pr[0, :, 0], pi[0, :, 0]
    assert (exp == -ctx.frac).all()
    assert max(off((pr[m], pi[m]), 7 * m, 24) for m in range(256)) <= 2
    for den in (24, 40):
        roots = stokes._unit_roots(ctx.frac, den)
        assert len(roots) == 2 * den
        assert max(off(root, r, den) for r, root in enumerate(roots)) <= 2
    # a table is exactly symmetric under the quarter turns, or the half
    # turn when den is odd, which the quarter-turn folds of _table_sums
    # rely on; also where rounding every root on its own breaks the
    # symmetry (the half turn at each (frac, den) here, the quarter turn
    # too at (97, 48)), and still within one unit
    for frac, den in ((109, 96), (121, 48), (110, 5), (97, 48)):
        roots = stokes._unit_roots(frac, den)
        if den % 2:
            assert (np.roll(roots, -den, axis=0) == -roots).all()
        else:
            assert (np.roll(roots, -(den // 2), axis=0)
                    == np.stack([-roots[:, 1], roots[:, 0]], axis=1)).all()
        assert max(off(root, r, den, frac)
                   for r, root in enumerate(roots)) <= 1
    # a float angle would size the table by its binary denominator
    with pytest.raises(TypeError):
        stokes._period([7 / 24])


def loop_sums(ctx, table, thetas):
    """Per entry and angle, the plain loop over m of coefficient m times
    root 2Pm mod 4Q of the root table of denominator 2Q, unfolded, for Q
    the angles' common period and each angle P/Q: the reference for
    _table_sums, as (re, im) per entry and angle."""
    period, numerators = stokes._period(thetas)
    assert numerators == [theta * period for theta in thetas]
    roots = stokes._unit_roots(ctx.frac, 2 * period)
    coeffs, _ = table
    sums = {}
    for t, j in np.ndindex(coeffs.shape[1:3]):
        ar, ai = coeffs[:, t, j]
        for a, theta in enumerate(thetas):
            step = 2 * (theta * period).numerator
            sr = si = 0
            for m, (cr, ci) in enumerate(zip(ar, ai)):
                ur, ui = roots[step * m % (4 * period)]
                sr += cr * ur - ci * ui
                si += cr * ui + ci * ur
            sums[(t, j, a)] = (sr, si)
    return sums


def assert_sums_match_loop(ctx, table, thetas):
    (re, im), exp = stokes._table_sums(ctx, table, *stokes._period(thetas))
    for (t, j, a), want in loop_sums(ctx, table, thetas).items():
        assert (re[t, j, a], im[t, j, a]) == want
        assert exp[t, j] == table[1][t, j] - ctx.frac


def test_table_sums_match_a_loop_over_angles():
    # the angles, of any denominators, are summed by one fold of the table
    # by 2Q, Q = 24 here, then one product per class P mod 4 of its
    # quarter-turn fold with their unit powers; each sum must equal,
    # exactly, the plain unfolded loop, at every angle, on both sheets and
    # for both tables of a (3,1) build
    op = OperPoint(3, 1, (QQ(1, 5), QQ(-1, 7)))
    ctx = make_ctx(69)
    fs = formal(op, 20, ctx)
    thetas = [QQ(1, 24), QQ(7, 24), QQ(31, 24), QQ(7, 24) + 2,
              QQ(1, 8), QQ(2, 3), QQ(-5, 12), QQ(31, 24) + 2]
    period, numerators = stokes._period(thetas)
    assert period == 24 and {p % 4 for p in numerators} == {0, 1, 2, 3}
    for table in (EntireBasis(op, ctx, 8.15).table,
                  inverse_table(fs, 8.15)):
        assert_sums_match_loop(ctx, table, thetas)


@given(st.data())
@hyp_settings(max_examples=40, deadline=None)
def test_table_sums_fold_tables_of_any_length(data):
    # tables shorter than 2Q are padded, longer ones folded, and an odd
    # common denominator q has period 2q
    ctx = make_ctx(53)
    thetas = [QQ(data.draw(st.integers(-4 * q, 4 * q)), q) for q in
              data.draw(st.lists(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12]),
                                 min_size=1, max_size=4))]
    period, _ = stokes._period(thetas)
    length = data.draw(st.integers(1, 6 * period))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32)))

    def part():
        return [int(v) << 40 for v in rng.integers(-2 ** 40, 2 ** 40, length)]

    table = (np.array([[[part() for _ in range(2)] for _ in range(2)]
                       for _ in range(2)], dtype=object),
             np.array([[-data.draw(st.integers(0, 100)) for _ in range(2)]
                       for _ in range(2)], dtype=object))
    assert_sums_match_loop(ctx, table, thetas)


def mode_scalar(fs, rho, theta, b, prec):
    """e^{-(q_b(z) + lambda_b log z)} at z = rho e^{i pi theta} on the chart
    log z = ln rho + i pi theta, in mpmath at `prec` bits, from the run's
    own Q and Lambda: the factor that turns raw content row b into mode b's
    content, evaluated independently of _mode_scalars."""
    mp = mpmath.mp.clone()
    mp.prec = prec
    chart = mp.log(rho) + 1j * mp.pi * theta.numerator / theta.denominator
    z = mp.exp(chart)
    q = mp.fsum(mp.mpc(fs.qcoeffs[j][b]) * z ** j for j in fs.qcoeffs)
    return mp.exp(-(q + mp.mpc(fs.lam[b]) * chart))


def aligned_row(re, im, exp, frac):
    """The reference rounding of one content row: each entry (re + i im)
    2^exp rounded to nearest to `frac` significant bits, one at a time,
    then all put on the row's lowest exponent, which zero entries take no
    part in: (re list, im list, e)."""
    out = []
    for r, i, e in zip(re, im, exp):
        s = max(abs(r), abs(i)).bit_length() - frac
        if s > 0:
            half = 1 << (s - 1)
            r, i, e = (r + half) >> s, (i + half) >> s, e + s
        out.append((r, i, e))
    low = min((e for r, i, e in out if r or i), default=0)
    return ([r << max(0, e - low) for r, _, e in out],
            [i << max(0, e - low) for _, i, e in out], low)


def layout_reads(layout):
    """The modes a build at the layout reads at each angle, {theta:
    modes}, from _layout_reading's (angles, rows)."""
    (angles, rows), _, _, _ = stokes._layout_reading(layout)
    reads = {}
    for t, b in rows:
        reads.setdefault(angles[t], []).append(b)
    return reads


def read_contents(fs, basis, inverse, reads):
    """_content_matrix of one point (a jet of one) on its entire basis
    and formal-inverse table (inverse_table) at the modes {theta: modes}
    of `reads`, as {theta: {mode: (re list, im list, e)}}, the row being
    (re + i im) 2^e."""
    angles = list(reads)
    rows = [(t, b) for t, theta in enumerate(angles)
            for b in sorted(reads[theta])]
    (re, im), low = stokes._content_matrix(
        [fs], iter([basis.table]), (inverse[0][:, None], inverse[1]),
        (angles, rows))
    out = {theta: {} for theta in angles}
    for index, (t, b) in enumerate(rows):
        out[angles[t]][b] = (re[0, index].tolist(), im[0, index].tolist(),
                             low[0, index])
    return out


def content(fs, basis, inverse, rho, theta):
    """Mode contents at theta, as a working-precision matrix with one row
    per mode: each raw row of _content_matrix ((re, im, e), value
    (re + i im) 2^e, each entry rounded once) times its mode_scalar."""
    ctx = fs.ctx
    out = []
    gamma = read_contents(fs, basis, inverse, {theta: range(fs.n)})[theta]
    for b, row in sorted(gamma.items()):
        scale = mode_scalar(fs, rho, theta, b, ctx.bits + 40)
        re, im, e = (np.array(part, dtype=object) for part in row)
        out.append(stokes._rounded(ctx, re, im, e) * ctx.complex(scale))
    return np.array(out)


def per_denominator_contents(fs, basis, inverse, reads):
    """_content_matrix with one pass per angle denominator q, each table
    folded by 2q and summed against the unit powers and phases of the root
    table of denominator 2q: the reference for its single pass over the
    angles' common period."""
    ctx, n = fs.ctx, fs.n
    hs = stokes._gauge_exponents(n, fs.k)

    def sums(table, q, thetas):
        # fold by 2q: coefficients summed by residue of m mod 2q
        coeffs, exp = table
        pad = np.zeros(coeffs.shape[:-1] + (-coeffs.shape[-1] % (2 * q),),
                       dtype=object)
        coeffs = np.concatenate([coeffs, pad], axis=-1)
        coeffs = coeffs.reshape(coeffs.shape[:-1] + (-1, 2 * q)).sum(axis=-2)
        steps = np.array([2 * th.numerator % (4 * q) for th in thetas])
        index = np.arange(coeffs.shape[-1])[:, None] * steps % (4 * q)
        powers = np.moveaxis(stokes._unit_roots(ctx.frac, 2 * q)[index], 2, 0)
        re, im = stokes._gauss(coeffs, powers, np.matmul)
        return re, im, exp - ctx.frac

    dens = {}
    for theta in reads:
        dens.setdefault(theta.denominator, []).append(theta)
    out = {}
    for q, thetas in sorted(dens.items()):
        sr, si, se = sums(basis.table, q, thetas)
        phase = stokes._unit_roots(ctx.frac, 2 * q)[
            [[th.numerator * int(2 * h) % (4 * q) for h in hs]
             for th in thetas]]
        x = stokes._gauss(np.moveaxis(phase, 2, 0)[..., None],
                          np.moveaxis(np.array([sr, si]), 3, 1))
        low = se.min(axis=0)
        wr, wi, we = sums(inverse, q, thetas)
        cont = stokes._gauss(np.moveaxis(np.array([wr, -wi]), 3, 1),
                             x << (se - low), np.matmul)
        exp = low - ctx.frac + we[0, 0]
        for a, theta in enumerate(thetas):
            out[theta] = {b: aligned_row(*cont[:, a, b], exp, ctx.frac)
                          for b in sorted(reads[theta])}
    return out


@pytest.mark.parametrize("op", [
    OperPoint(2, 1, (QQ(1, 3),)), OperPoint(2, 2, (0.1 + 0.2j, -0.05j, 0.2)),
    OperPoint(3, 1, (QQ(1, 5), QQ(-1, 7))), OperPoint(4, 1, (0, 0, 0)),
    OperPoint(3, 2, (0,) * 5), OperPoint(2, 4, (0,) * 7)],
    ids=["weber", "quartic", "cubic-point", "z4-n4", "z6-n3", "octic"])
def test_content_matrix_matches_a_pass_per_denominator(op):
    # one pass over every angle of a default plan, folded by its common
    # period, must give exactly the raw rows of one pass per denominator
    plan = stokes_data(op).plan
    fs = formal(op, plan.settings.trunc_order, make_ctx(plan.bits))
    basis = EntireBasis(op, fs.ctx, plan.rho, plan.nterms)
    inverse = inverse_table(fs, plan.rho)
    reads = layout_reads(plan.layout)
    assert len({th.denominator for th in reads}) > 1
    assert (read_contents(fs, basis, inverse, reads)
            == per_denominator_contents(fs, basis, inverse, reads))


def test_content_matrix_wrap_identity():
    # re-reading an angle on the next sheet multiplies every content row b
    # by det_twist e^{-2 pi i lambda_b}: the gauge rows pick up
    # e^{2 pi i expo_a} = sigma, the formal exponent columns e^{-2 pi i
    # lambda_b}.  The row phases are roots read at the unwrapped numerator,
    # which must keep this chart bookkeeping.  The raw rows are composed
    # with independently evaluated mode scalars, and the run's own scalars
    # (_mode_scalars: e^{E}) must agree with those on both sheets
    for op, rho, theta in ((OperPoint(3, 1, (QQ(1, 5), QQ(-1, 7))), 4.0,
                            QQ(7, 24)),
                           (OperPoint(2, 1, (QQ(1, 3),)), 4.5, QQ(5, 16))):
        for bits in (132, 97, 53):
            ctx = make_ctx(bits)
            fs = formal(op, 20, ctx)
            basis = EntireBasis(op, ctx, rho)
            inverse = inverse_table(fs, rho)
            sheets = [content(fs, basis, inverse, rho, t)
                      for t in (theta, theta + 2)]
            here, next_sheet = sheets
            for b in range(op.n):
                twist = det_twist(op) * ctx.exp(-2j * ctx.pi * fs.lam[b])
                for j in range(op.n):
                    want = twist * here[b, j]
                    assert (abs(next_sheet[b, j] - want)
                            <= 2.0 ** -(bits - 30) * abs(want))
            pairs = [(t, b) for t in (theta, theta + 2) for b in range(op.n)]
            for (t, b), got in zip(pairs,
                                   stokes._mode_scalars([fs], rho, pairs)[0]):
                want = mode_scalar(fs, rho, t, b, bits + 40)
                assert abs(1 / got - want) <= 2.0 ** -(bits - 30) * abs(want)
        assert det_twist(op) == (1 if op.n == 3 else -1)


@pytest.mark.parametrize("op", [OperPoint(3, 1, (QQ(1, 5), QQ(-1, 7))),
                                OperPoint(4, 1, (0, 0, 0))])
def test_sector_columns_meet_their_conditions(op):
    # a sector column is solved exactly from raw content rows
    # on their lowest exponents against the normalization row's right-hand
    # side e^{E}, and rounded once, so that right-hand side's exponent must
    # scale the column with its row's.  Left out it puts a power of 2 on
    # every column, which closure and consistency cannot see (both are
    # invariant under a common diagonal conjugation) while sigma_1 of the
    # (3,1) Jacobian moves from 17.6 to 1.3e7.  Each column of every sector,
    # at working precision, must meet its own n conditions on the contents,
    # the raw rows composed with independently evaluated mode scalars:
    # foreign contents vanish and the self-content is 1, to 2^-(bits-10) of
    # the terms' sizes
    plan = stokes_data(op).plan
    layout = plan.layout
    cond, norms = stokes._sector_reading_plan(layout)
    ctx = make_ctx(plan.bits)
    fs = formal(op, StokesSettings().trunc_order, ctx)
    basis = EntireBasis(op, ctx, plan.rho, plan.nterms)
    gammas = read_contents(fs, basis, inverse_table(fs, plan.rho),
                           layout_reads(layout))
    reads, pairs, _, _ = stokes._layout_reading(layout)
    contents = stokes._content_matrix(
        [fs], iter([basis.table]), stokes._inverse_table([fs], plan.rho),
        reads)
    scalars = stokes._mode_scalars([fs], plan.rho, pairs)[0]
    ys, ss = stokes.sector_coefficients([fs], layout, contents, [scalars])
    mp = mpmath.mp.clone()
    mp.prec = plan.bits
    tol = 2.0 ** -(plan.bits - 10)
    scales = {}
    for v, variant in enumerate("AB"):
        # one matrix per sector of the point in each variant
        assert ys.shape == (2, 1, 2, layout.r, op.n, op.n)
        assert ss.shape == (1, 2, layout.r, op.n)
        coeffs = {i + 1: (ys[:, 0, v, i], ss[0, v, i])
                  for i in range(layout.r)}
        for i, (y, s) in coeffs.items():
            for d in range(op.n):
                v = [mp.mpc(*y[:, r, d]) * mp.mpf(2) ** s[d]
                     for r in range(op.n)]
                rows = [(cond[(i, variant, d, a)], a, 0)
                        for a in range(op.n) if a != d]
                rows.append((norms[(i, d)], d, 1))
                for th, b, want in rows:
                    if (th, b) not in scales:
                        scales[(th, b)] = mp.mpc(mode_scalar(
                            fs, plan.rho, th, b, plan.bits + 40))
                    re, im, e = gammas[th][b]
                    terms = [scales[(th, b)] * mp.mpc(re[j], im[j])
                             * mp.mpf(2) ** e * v[j] for j in range(op.n)]
                    assert (abs(mp.fsum(terms) - want)
                            <= tol * sum(abs(t) for t in terms))


def test_exact_sector_coefficients_match_double():
    # the quotients of the exact sector coefficients, each rounded once to
    # a double, match between a double's 53 bits and 69 bits on one plan
    op = OperPoint(3, 1, (QQ(1, 5), QQ(-1, 7)))
    rho = 4.0
    layout = sector_layout(op.n, op.k)
    quotients = {}
    for bits in (53, 69):
        fs = formal(op, 20, make_ctx(bits))
        build = stokes._collocate(op, layout, [fs], rho)
        re, im = stokes._quotient_entries(stokes._ratio, *build.quotients)
        quotients[bits] = (re[0] + 1j * im[0]).astype(complex)
    assert len(quotients[53]) == len(quotients[69]) == layout.r
    for got, want in zip(quotients[53], quotients[69]):
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()


CLOSURE_POINTS = {
    "weber-1/3": OperPoint(2, 1, (QQ(1, 3),)),
    "cubic": OperPoint(3, 1, (QQ(1, 5), QQ(-1, 7))),
    "quartic-n4": OperPoint(4, 1, (QQ(1, 5), QQ(-1, 4), QQ(1, 6))),
    "z8-n2": OperPoint(2, 4, (0,) * 7),
}


def mpc_identity_residual(ctx, mats, lam, sigma):
    """The closure as working-precision matrices once measured it: max-norm
    distance of S_{2k+2} ... S_1 exp(2 pi i Lambda) from the det-twist
    multiple of the identity, the product taken in mpc and the twist and
    the difference in doubles."""
    n = mats[0].shape[0]
    acc = np.eye(n, dtype=object)
    for mat in mats:
        acc = mat @ acc
    twist = [ctx.exp(ctx.number(2j) * ctx.number(ctx.pi) * lam[b])
             for b in range(n)]
    worst = 0.0
    for s in range(n):
        for t in range(n):
            v = complex(acc[s, t]) * complex(twist[t])
            target = sigma if s == t else 0.0
            worst = max(worst, abs(v - target))
    return worst


@pytest.mark.parametrize("name", list(CLOSURE_POINTS))
def test_closure_matches_exact_rational_product(name, monkeypatch):
    # the closure is max |Q_r ... Q_1 - I| for the build's exact quotients,
    # taken here over Q(i) with one common denominator, within the
    # fixed-point bound 3 r n 2^-frac prod_j max(1, ||Q_j||) (_GUARD_BITS)
    # and the result's rounding; the closure as mpc matrices measured it
    # (the quotients at the working precision, the wrap, the grouping and
    # the twist) agrees within 1e-4 relative and 1e-18 absolute
    op, builds = CLOSURE_POINTS[name], []
    result = stokes._stokes_result

    def kept(op, plan, build):
        builds.append(build)
        return result(op, plan, build)

    monkeypatch.setattr(stokes, "_stokes_result", kept)
    sd = stokes_data(op)
    [build] = builds
    x, det, exp = build.quotients
    x, det = x[:, 0], det[:, 0]         # the value, a jet of one
    n, layout, ctx = op.n, sd.plan.layout, build.fs.ctx
    # Q_j = N_j / D_j, N_j = x conj(det) 2^(exp - e_j) Gaussian integers
    # and D_j = |det|^2 2^-e_j for e_j the least exponent of Q_j
    prod_re, prod_im = np.eye(n, dtype=object), np.zeros((n, n), dtype=object)
    den, norms, quotients = QQ(1), [], []
    for j in range(layout.r):
        dr, di = det[:, j]
        low = int(exp[j].min())
        shift = exp[j] - low
        nr = (x[0, j] * dr + x[1, j] * di) << shift
        ni = (x[1, j] * dr - x[0, j] * di) << shift
        dj = QQ(dr * dr + di * di) / QQ(2) ** low
        prod_re, prod_im = (nr.dot(prod_re) - ni.dot(prod_im),
                            nr.dot(prod_im) + ni.dot(prod_re))
        den *= dj
        quotients.append([[(QQ(nr[a, b]) / dj, QQ(ni[a, b]) / dj)
                           for b in range(n)] for a in range(n)])
        norms.append(max(sum(math.hypot(*map(float, v)) for v in row)
                         for row in quotients[-1]))
    worst = max((QQ(prod_re[a, b]) - (den if a == b else 0)) ** 2
                + QQ(prod_im[a, b]) ** 2
                for a in range(n) for b in range(n)) / den ** 2
    want = math.sqrt(float(worst))
    got = sd.residuals["identity"]
    bound = (3 * layout.r * n * 2.0 ** -ctx.frac
             * math.prod(max(1.0, v) for v in norms))
    assert abs(got - want) <= bound + 2.0 ** -51 * want
    # the mpc oracle: K_1 = Q_1 W, then S_i = K_{i n} ... K_{(i-1) n + 1}
    tau, sigma = 2j * ctx.number(ctx.pi), ctx.number(det_twist(op))
    wrap = [sigma * ctx.exp(-tau * lam) for lam in sd.lam]
    factors = [np.array([[ctx.number(re) + 1j * ctx.number(im)
                          for re, im in row] for row in q], dtype=object)
               for q in quotients]
    factors[0] = factors[0] * np.array(wrap, dtype=object)
    mats = []
    for i in range(0, layout.r, layout.n):
        acc = factors[i]
        for j in range(i + 1, i + layout.n):
            acc = factors[j] @ acc
        mats.append(acc)
    old = mpc_identity_residual(ctx, mats, sd.lam, det_twist(op))
    assert abs(got - old) <= 1e-4 * old + 1e-18


def test_collocate_reports_a_nan_from_any_sector(monkeypatch):
    # a NaN deviation in the first sector, before finite ones, still makes
    # the build unreadable
    op = OperPoint(2, 1, (QQ(1, 3),))
    layout = sector_layout(op.n, op.k)
    fs = formal(op, 20, make_ctx(69))
    deviation, sectors = stokes._deviation, []

    def first_sector_nan(*args):
        sectors.append(deviation(*args))
        if len(sectors) == 1:
            sectors[-1].flat[0] = math.nan
        return sectors[-1]

    monkeypatch.setattr(stokes, "_deviation", first_sector_nan)
    with pytest.raises(ArithmeticError, match="overflowed"):
        stokes._collocate(op, layout, [fs], 4.0)


def gauss_matrix(draw, rows, cols):
    return [[(draw(st.integers(-40, 40)), draw(st.integers(-40, 40)))
             for _ in range(cols)] for _ in range(rows)]


def oracle_solve(a, b):
    """a^{-1} b over Q(i), entries (re, im) pairs of Fractions, by plain
    Gauss-Jordan; None when a is singular."""
    def mul(x, y):
        return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]

    def div(x, y):
        norm = y[0] * y[0] + y[1] * y[1]
        return ((x[0] * y[0] + x[1] * y[1]) / norm,
                (x[1] * y[0] - x[0] * y[1]) / norm)

    n = len(a)
    aug = [[(QQ(v[0]), QQ(v[1])) for v in ra + rb] for ra, rb in zip(a, b)]
    for k in range(n):
        p = next((t for t in range(k, n) if aug[t][k] != (0, 0)), None)
        if p is None:
            return None
        aug[k], aug[p] = aug[p], aug[k]
        aug[k] = [div(v, aug[k][k]) for v in aug[k]]
        for t in range(n):
            if t != k:
                c = aug[t][k]
                aug[t] = [(v[0] - w[0], v[1] - w[1])
                          for v, w in zip(aug[t], (mul(c, u) for u in aug[k]))]
    return [row[n:] for row in aug]


def gauss_array(rows):
    return np.array([[[v[p] for v in row] for row in rows] for p in (0, 1)],
                    dtype=object)


def is_nearest_double(got, value):
    """Whether the double `got` is a nearest double to the Fraction
    `value`: no closer double lies on either side."""
    err = abs(QQ(got) - value)
    return all(err <= abs(QQ(math.nextafter(got, side)) - value)
               for side in (-math.inf, math.inf))


def check_against_oracle(a, b):
    """_eliminate and the rounded quotient against oracle_solve: x = det
    a^{-1} b exactly, and each part of each entry rounded once to its
    nearest double."""
    want = oracle_solve(a, b)
    if want is None:
        with pytest.raises(ZeroDivisionError):
            stokes._eliminate(gauss_array([ra + rb for ra, rb in zip(a, b)]))
        return
    det, x = stokes._eliminate(gauss_array([ra + rb for ra, rb in zip(a, b)]))
    assert tuple(det) != (0, 0)
    for r, row in enumerate(want):
        for c, (wr, wi) in enumerate(row):
            assert (x[0, r, c], x[1, r, c]) == (
                det[0] * wr - det[1] * wi, det[0] * wi + det[1] * wr)

    def exact(rows):                # a jet of its value alone
        return (gauss_array(rows)[:, None],
                np.zeros((1, len(rows[0])), dtype=object))

    got = stokes._quotient_entries(stokes._ratio, *stokes._exact_quotient(
        exact(a), exact(b)))[:, 0]
    for r, row in enumerate(want):
        for c, parts in enumerate(row):
            for part, value in zip(got[:, r, c], parts):
                assert type(part) is float
                assert is_nearest_double(part, value)


@given(st.data(), st.integers(1, 5), st.integers(1, 3))
@hyp_settings(max_examples=60, deadline=None)
def test_eliminate_matches_fraction_oracle(data, n, m):
    a = gauss_matrix(data.draw, n, n)
    b = gauss_matrix(data.draw, n, m)
    if data.draw(st.booleans()):
        a[0][0] = (0, 0)                    # a zero leading pivot
    if n > 1 and data.draw(st.booleans()):
        # a singular system: the last row a Gaussian multiple of the first
        c = (data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3)))
        a[-1] = [(c[0] * u - c[1] * v, c[0] * v + c[1] * u) for u, v in a[0]]
    check_against_oracle(a, b)


def test_eliminate_zero_pivot_and_singular():
    # the first pivot is the first nonzero entry of its column; a zero
    # column or a repeated row is singular and raises
    check_against_oracle([[(0, 0), (1, 2)], [(3, -1), (0, 5)]],
                         [[(1, 0)], [(0, 1)]])
    check_against_oracle([[(0, 0), (0, 0), (1, 0)], [(0, 0), (2, 1), (0, 0)],
                          [(1, 1), (0, 0), (0, 0)]],
                         [[(1, 0), (0, 0)], [(0, 1), (3, 0)], [(7, 0), (1, 1)]])
    for a in ([[(0, 0), (1, 0)], [(0, 0), (2, 3)]],
              [[(1, 2), (3, 4)], [(1, 2), (3, 4)]]):
        assert oracle_solve(a, [[(1, 0)], [(0, 0)]]) is None
        check_against_oracle(a, [[(1, 0)], [(0, 0)]])


@given(st.data(), st.integers(2, 4), st.integers(1, 3), st.integers(2, 6))
@hyp_settings(max_examples=60, deadline=None)
def test_batched_eliminate_matches_fraction_oracle(data, n, m, size):
    # one stack of systems, each with its own pivots: systems whose first
    # pivot needs a row swap (a zero leading entry) side by side with ones
    # that start without; x = det a^{-1} b exactly for each, each system
    # as it is solved alone, and a singular system anywhere in the stack
    # raises
    systems = []
    for t in range(size):
        a = gauss_matrix(data.draw, n, n)
        b = gauss_matrix(data.draw, n, m)
        if t % 2 == 0:
            a[0][0] = (0, 0)
        elif a[0][0] == (0, 0):
            a[0][0] = (1, 0)
        systems.append((a, b))
    if data.draw(st.booleans()):
        # a singular system: its last row a Gaussian multiple of its first
        a = systems[data.draw(st.integers(0, size - 1))][0]
        c = (data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3)))
        a[-1] = [(c[0] * u - c[1] * v, c[0] * v + c[1] * u) for u, v in a[0]]
    stack = np.stack([gauss_array([ra + rb for ra, rb in zip(a, b)])
                      for a, b in systems], axis=1)
    wants = [oracle_solve(a, b) for a, b in systems]
    if any(want is None for want in wants):
        with pytest.raises(ZeroDivisionError):
            stokes._eliminate(stack)
        return
    det, x = stokes._eliminate(stack)
    assert det.shape == (2, size) and x.shape == (2, size, n, m)
    for t, want in enumerate(wants):
        assert tuple(det[:, t]) != (0, 0)
        for r, row in enumerate(want):
            for c, (wr, wi) in enumerate(row):
                assert (x[0, t, r, c], x[1, t, r, c]) == (
                    det[0, t] * wr - det[1, t] * wi,
                    det[0, t] * wi + det[1, t] * wr)
        one_det, one_x = stokes._eliminate(stack[:, t])
        assert one_det.tolist() == det[:, t].tolist()
        assert one_x.tolist() == x[:, t].tolist()
    # any leading axes: the stack as (size, 1) systems
    det2, x2 = stokes._eliminate(stack[:, :, None])
    assert det2[:, :, 0].tolist() == det.tolist()
    assert x2[:, :, 0].tolist() == x.tolist()


def loop_deviation(x, det, exp):
    """The reference for _deviation: one square quotient x 2^exp / det,
    entry by entry, the largest modulus of its difference from I."""
    worst = 0.0
    for r, c in np.ndindex(exp.shape):
        (pr, pi), (qr, qi), e = x[:, r, c], det, exp[r, c]
        if e >= 0:
            pr, pi = pr << e, pi << e
        else:
            qr, qi = qr << -e, qi << -e
        if r == c:
            pr, pi = pr - qr, pi - qi
        worst = max(worst, math.sqrt((pr * pr + pi * pi)
                                     / (qr * qr + qi * qi)))
    return worst


@given(st.data(), st.integers(1, 4), st.integers(1, 5))
@hyp_settings(max_examples=60, deadline=None)
def test_deviation_matches_a_loop_per_quotient(data, n, size):
    # every quotient of a stack at once, exactly as the loop reads each;
    # a quotient past double range puts the whole stack at inf, which
    # fails its build as one past range alone did
    def ints(count, lo, hi):
        return np.array(data.draw(st.lists(st.integers(lo, hi),
                                           min_size=count, max_size=count)),
                        dtype=object)

    x = ints(2 * size * n * n, -2 ** 80, 2 ** 80).reshape(2, size, n, n)
    det = ints(2 * size, -2 ** 40, 2 ** 40).reshape(2, size)
    det[0, (det[0] == 0) & (det[1] == 0)] = 1
    exp = ints(size * n * n, -60, 60).reshape(size, n, n)
    got = stokes._deviation(x, det, exp)
    assert got.shape == (size,)
    for t in range(size):
        assert got[t] == loop_deviation(x[:, t], det[:, t], exp[t])
    x[0, -1, 0, 0], exp[-1, 0, 0] = 1, 3000
    assert (stokes._deviation(x, det, exp) == math.inf).all()


@given(st.integers(-2 ** 400, 2 ** 400), st.integers(1, 2 ** 300),
       st.integers(-600, 750))
@hyp_settings(max_examples=200, deadline=None)
def test_nearest_is_within_half_an_ulp(a, w, exp):
    # one shift and one int true division: the nearest double to
    # a / (w 2^exp), its sign a's, down to the subnormals
    got = stokes._ratio(a, w, exp)
    value = QQ(a, w) / QQ(2) ** exp
    assert type(got) is float
    assert is_nearest_double(got, value)
    assert got == 0 if a == 0 else (got < 0) == (a < 0)
    # past double range, an ArithmeticError, which a run reports as a
    # numerical failure
    with pytest.raises(OverflowError):
        stokes._ratio(a or 1, w, -1100 - w.bit_length())


def test_entire_basis_matches_gaussian_column():
    # y = exp(z^2/2) has y' = z y and y'' = (1 + z^2) y, with y(0) = 1 and
    # y'(0) = 0, so it is the (1,0)-jet column of y'' = (z^2 + 1) y
    op = OperPoint(2, 1, (1,))
    basis = EntireBasis(op, make_ctx(53), 3.0)
    for theta in (QQ(0), QQ(1, 3), QQ(7, 5)):
        z = 3.0 * cmath.exp(1j * math.pi * float(theta))
        got = as_np(basis.state_matrix(theta))
        want = cmath.exp(z * z / 2)
        assert abs(got[0, 0] - want) <= 1e-9 * abs(want)
        assert abs(got[1, 0] - z * want) <= 1e-9 * abs(z * want)


def test_entire_basis_inputs_are_exact():
    # the recurrence starts from p_m rho^(m+n) and rho^m/m! floored once
    # from exact rationals (rho is a double, so a dyadic rational), so at 69
    # bits its first coefficients match the exact rational recurrence to
    # within a few fixed-point units; inputs rounded at the working
    # precision would be off by about 2^40 units, the guard bits.  Here
    # p = z^2 + 1/5, and coefficient m is scaled by rho^m
    op, rho = OperPoint(2, 1, (QQ(1, 5),)), 5.325
    basis = EntireBasis(op, make_ctx(69), rho)
    r = QQ(rho)
    for j in range(2):
        coef = [r ** j if m == j else QQ(0) for m in range(2)]
        for s in range(38):
            acc = r ** 2 / 5 * coef[s]
            if s >= 2:
                acc += r ** 4 * coef[s - 2]
            coef.append(acc / ((s + 1) * (s + 2)))
        re, im = basis.table[0][:, 0, j]
        frac = -basis.table[1][0, j]
        assert max(abs(re[m] - coef[m] * 2 ** frac) for m in range(40)) <= 4
        assert not any(im[:40])


def test_entire_basis_term_count_adapts():
    small = EntireBasis(weber(), make_ctx(53), 2.0)
    large = EntireBasis(weber(), make_ctx(53), 8.0)
    assert small.nterms < large.nterms


# ---------------------------------------------------------------------------
# visibility arcs

def test_visibility_intervals_cover_supersector_conditions():
    for op in (weber(), cubic(), OperPoint(2, 2, (0, 0, 0))):
        layout = sector_layout(op.n, op.k)
        fs = formal(op, 12, make_ctx(69))
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


def all_sector_plan(layout):
    """The reading plan's rule applied to every sector, as a reference for
    _sector_reading_plan, which applies it to two and rotates those."""
    n, step = layout.n, layout.spacing / 4
    cond, norms = {}, {}
    for i in range(1, layout.r + 1):
        for d in range(n):
            for a in range(n):
                if a == d:
                    continue
                u, v = _visibility_interval(layout, i, a, d)
                w = v - u
                cond[(i, "A", d, a)] = u + w / 4
                cond[(i, "B", d, a)] = v - w / 4
        lo = layout.ray(i) - layout.half
        count = int((layout.ray(i + 1) + layout.half - lo) / step)
        cands = [lo + t * step for t in range(count + 1)]
        lead = {th: [stokes._leading_re(layout, a, th) for a in range(n)]
                for th in cands}
        for d in range(n):
            score = {th: min(re[d] - re[a] for a in range(n) if a != d)
                     for th, re in lead.items()}
            top = max(score.values())
            norms[(i, d)] = min(th for th in cands
                                if score[th] >= top - stokes._TIE)
    return cond, norms


def test_sector_reading_plan_is_rotated():
    # planning two sectors and rotating them by two spacings, mode a to
    # a + 1, must give every angle the rule gives each sector on its own,
    # ties included, at every base direction
    checked = 0
    for n, k in itertools.product(range(2, 7), range(1, 5)):
        base = n * (k + 1)
        for v0 in (None, QQ(1, 7 * base), QQ(3, 5 * base), QQ(-2, 9)):
            try:
                layout = sector_layout(n, k, v0)
            except ValueError:       # v0 on an anti-Stokes direction
                continue
            assert stokes._sector_reading_plan(layout) == \
                all_sector_plan(layout)
            checked += 1
    # only v0 = -2/9 at (6,2) lies on a ray
    assert checked == 79


# ---------------------------------------------------------------------------
# full pipeline oracles

def test_weber_stokes_entries():
    # classical connection numbers for y'' = z^2 y: each grouped matrix
    # carries the single off-diagonal entry i sqrt(2), on alternating sides
    sd = stokes_data(weber(), StokesSettings())
    assert det_twist(sd.op) == -1
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
    assert det_twist(sd.op) == 1
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


def q_form(n, k):
    """Coefficients of prod_j (x - q^{n-1-2j}), q = e^{i pi k/(k+1)}: the
    principal sl(2) weights n-1, n-3, ..., 1-n exponentiated at q."""
    q = cmath.exp(1j * math.pi * k / (k + 1))
    return np.poly([q ** (n - 1 - 2 * j) for j in range(n)])


def pair_charpoly_defect(sd, want):
    """Largest coefficient distance of the characteristic polynomial of
    every S_{i+1} S_i, the wrap pair S_1 S_{2k+2} included, from want."""
    mats = sd.matrices
    return max(float(np.abs(np.poly(mats[(i + 1) % len(mats)] @ mats[i])
                            - want).max()) for i in range(len(mats)))


@pytest.mark.parametrize("n, k", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1),
                                  (3, 2), (4, 1), (4, 2), (5, 1), (6, 1)])
def test_monomial_pairs_have_the_q_form(n, k):
    # at p = z^d the rotation z -> e^{2 pi i/(n(k+1))} z gives every
    # S_{i+1} S_i one characteristic polynomial, with roots q^{n-1-2j}: at
    # n = 2 the trace is Sibuya's 2 - 4 cos^2(pi/(2k+2)), in general the
    # quantum dimension [n]_q (Dorey, Dunning & Tateo 2000).  The (n, k+1)
    # form misses by 0.11 or more at the points below, so the check tells
    # neighbouring k apart
    sd = stokes_data(OperPoint(n, k, (0,) * (n * k - 1)))
    assert pair_charpoly_defect(sd, q_form(n, k)) <= 1e-9
    if (n, k) in {(2, 1), (3, 1), (4, 1), (2, 4), (6, 1)}:
        assert pair_charpoly_defect(sd, q_form(n, k + 1)) >= 0.1


def rotated(op):
    """p~(z) = w^n p(w z), w = e^{2 pi i/(n(k+1))}: c~_m = w^(n+m) c_m, and
    p~ stays monic (w^(n+d) = 1) with no z^(d-1) term."""
    n, k = op.n, op.k
    return OperPoint(n, k, tuple(
        cmath.exp(2j * math.pi * (n + m) / (n * (k + 1))) * complex(c)
        for m, c in enumerate(op.coeffs)))


def rotation_defects(op):
    """The rotation identity's defects at op, one list per shift s in (2,
    0): for each j >= 1 with both runs clear of the wrap factor, the
    characteristic polynomials of the products of p~'s factors[j:j+2n] and
    of p's factors[j+s:j+s+2n], P, compared as (absolute, normalized): the
    largest coefficient distance, and the largest with coefficient i over
    max(1, ||P||_2)^i, the size an error relative to P takes there."""
    here, there = stokes_data(op), stokes_data(rotated(op))
    n, r = op.n, here.plan.layout.r

    def product(factors):
        return functools.reduce(lambda acc, f: f @ acc, factors)

    out = []
    for s in (2, 0):
        runs = []
        for j in range(1, r - 2 * n - 1):
            want = product(here.factors[j + s:j + s + 2 * n])
            gap = np.abs(np.poly(product(there.factors[j:j + 2 * n]))
                         - np.poly(want))
            scale = max(1.0, np.linalg.norm(want, 2)) ** np.arange(n + 1)
            runs.append((float(gap.max()), float((gap / scale).max())))
        out.append(runs)
    return out


@given(st.integers(2, 4), st.integers(1, 2), st.integers(0, 2 ** 16))
@hyp_settings(max_examples=8, deadline=None)
def test_rotation_shifts_the_factors_by_two_rays(n, k, seed):
    # y~(z) = y(w z) solves y~^(n) = p~ y~, so the rotation carries ray j + 2
    # of p to ray j of p~, up to a relabeling and rescaling of the modes,
    # which leave the characteristic polynomial of a product of consecutive
    # factors alone.  Over 80 seeds of these points every run converged, and
    # the normalized defect read at most 3.6e-15; the absolute one reached
    # 1.1e-9 at (4,2), where the products have norms up to 2e7
    rng = random.Random(seed)
    op = OperPoint(n, k, tuple(QQ(rng.randint(-3, 3), rng.randint(1, 7))
                               for _ in range(n * k - 1)))
    shifted, _ = rotation_defects(op)
    assert max(normalized for _, normalized in shifted) <= 1e-9


@pytest.mark.parametrize("op", [
    OperPoint(3, 1, (QQ(1, 5), QQ(-1, 7))),
    OperPoint(2, 2, (0.1 + 0.2j, -0.05j, 0.2)),
    OperPoint(4, 1, (QQ(1, 5), QQ(-1, 4), QQ(1, 6)))],
    ids=["cubic-point", "quartic-complex", "quartic-n4"])
def test_rotation_identity_needs_the_shift(op):
    # the identity holds within 5.6e-14 (absolute) at these points, and the
    # same runs with no shift miss, the worst by 2.4 or more and every run
    # by 0.25 or more normalized (at c = 0 the rotation is a symmetry, and
    # no shift would hold too)
    shifted, unshifted = rotation_defects(op)
    assert max(max(run) for run in shifted) <= 1e-9
    assert max(absolute for absolute, _ in unshifted) >= 1.0
    assert min(normalized for _, normalized in unshifted) >= 0.2


def test_phantom_rays_carry_identity_factors():
    sd = stokes_data(weber(), StokesSettings())
    assert sd.residuals["phantom"] <= 1e-8
    assert sd.residuals["support"] <= 1e-8
    layout = sd.plan.layout
    assert sum(1 for pairs in layout.pairs if not pairs) == layout.r // 2


# the per-entry loops the shape residuals and the monitored vector were
# first written as: the layout's masks (_layout_shape) must give the same
# floats and the same complex entries, bit for bit

def loop_unipotency(mats, perm):
    worst = 0.0
    for i, mat in enumerate(mats, start=1):
        conj = mat[np.ix_(perm, perm)]
        upper = i % 2 == 1
        n = mat.shape[0]
        for s in range(n):
            for t in range(n):
                v = abs(complex(conj[s, t]))
                if s == t:
                    worst = max(worst, abs(v - 1.0))
                elif (s < t) != upper:
                    worst = max(worst, v)
    return worst


def loop_factor_support(layout, factors):
    support = diag_dev = phantom = 0.0
    for j in range(1, layout.r + 1):
        kmat = factors[j - 1]
        # the wrap factor K_1 on d_{r+1} = d_1 + 2 crosses ray 1's pairs
        allowed = set(layout.pairs[j - 1])
        local_diag = 0.0
        n = kmat.shape[0]
        for c in range(n):
            for d in range(n):
                v = abs(complex(kmat[c, d]))
                if c == d:
                    local_diag = max(local_diag, abs(v - 1.0))
                elif (c, d) not in allowed:
                    support = max(support, v)
        diag_dev = max(diag_dev, local_diag)
        if not allowed:
            off = max(abs(complex(kmat[c, d]))
                      for c in range(n) for d in range(n) if c != d)
            phantom = max(phantom, max(off, local_diag))
    return support, diag_dev, phantom


def loop_monitored_vector(sd):
    out, perm = [], stokes.dominance_order(sd.plan.layout)
    for i, mat in enumerate(sd.matrices, start=1):
        conj = mat[np.ix_(perm, perm)]
        upper = i % 2 == 1
        for s in range(sd.op.n):
            for t in range(sd.op.n):
                if (s < t) == upper and s != t:
                    out.append(complex(conj[s, t]))
    return np.array(out, dtype=complex)


def assert_shape_matches_loops(sd):
    layout = sd.plan.layout
    perm = stokes.dominance_order(layout)
    got = [sd.residuals[name]
           for name in ("unipotency", "support", "factor_diag", "phantom")]
    want = [loop_unipotency(sd.matrices, perm),
            *loop_factor_support(layout, sd.factors)]
    assert [type(v) for v in got] == [float] * 4
    assert got == want
    vec, ref = sd.monitored_vector(), loop_monitored_vector(sd)
    assert vec.dtype == ref.dtype and vec.shape == ref.shape
    assert (vec == ref).all()


@pytest.mark.parametrize("op", [
    OperPoint(2, 2, (0,) * 3),
    weber(),                                # phantom rays
    OperPoint(2, 1, (QQ(1, 3),)),
    OperPoint(3, 2, (0,) * 5),
    OperPoint(2, 4, (0,) * 7),              # ten grouped matrices
    OperPoint(4, 1, (QQ(1, 5), QQ(-1, 4), QQ(1, 6))),
    OperPoint(2, 2, (0.1 + 0.2j, -0.05j, 0.2)),
], ids=["z4", "weber", "weber-1/3", "z6-32", "z8-24", "41", "complex-22"])
def test_shape_residuals_equal_the_entry_loops(op):
    assert_shape_matches_loops(stokes_data(op))


def test_replayed_shape_residuals_equal_the_entry_loops():
    op = OperPoint(2, 2, (0.1 + 0.2j, -0.05j, 0.2))
    plan = stokes_data(op).plan
    runs = [replay(point, plan) for point in stencil_points(op, 1e-4)]
    runs.append(replay(op, plan, tangents=True)[0])
    assert len(runs) == 13
    for sd in runs:
        assert_shape_matches_loops(sd)


def test_rotation_shifts_grouped_matrices():
    op = OperPoint(3, 1, (QQ(1, 5), QQ(-1, 7)))
    a = stokes_data(op, StokesSettings())
    b = stokes_data(op, StokesSettings(v0=a.plan.layout.v0 + QQ(1, 2)))
    for i in range(1, 4):
        dev = abs(as_np(a.matrices[i]) - as_np(b.matrices[i - 1])).max()
        assert dev <= 1e-6


def test_plan_replay_is_deterministic():
    op = cubic()
    first = stokes_data(op, StokesSettings())
    again = replay(op, first.plan)
    for a, b in zip(first.factors, again.factors):
        assert np.array_equal(as_np(a), as_np(b))


def test_replay_rejects_a_point_of_another_layout():
    # a plan's angles belong to its layout: a (2,2) plan replayed at a
    # (2,1) point with the same base direction read identity residual 2.45
    # while only the base direction was compared.  The plan carries its
    # settings, so n and k are all a point can get wrong
    base = StokesSettings(v0=QQ(1, 100))
    quartic = OperPoint(2, 2, (0, 0, 0))
    plan = stokes_data(quartic, base).plan
    weber_point = OperPoint(2, 1, (QQ(1, 3),))
    for tangents in (False, True):
        with pytest.raises(ValueError,
                           match="the plan was made with n=2, k=2"):
            replay(weber_point, plan, tangents)


@pytest.mark.parametrize("op, pairs, angles, rows", [
    (OperPoint(3, 1, (QQ(1, 5), QQ(-1, 7))), 14, 14, 95),
    (OperPoint(4, 1, (0, 0, 0)), 26, 21, 208)], ids=["cubic-point", "z4-n4"])
def test_exact_build_reads_only_what_its_solves_use(op, pairs, angles, rows,
                                                    monkeypatch):
    # a kill row gives its column at any nonzero scale, so a build
    # evaluates the context's exp once per distinct normalization (angle,
    # column) pair -- at (3,1) 14, where every read row took one (59 angles
    # x 3 modes = 177) -- and rounds content rows only for the modes read
    # at each angle: 95 of those 177 at (3,1), 208 of 81 x 4 = 324 at z^4
    # (4,1), whose 26 pairs share 21 angles
    plan = stokes_data(op).plan
    cond, norms = stokes._sector_reading_plan(plan.layout)
    norm_pairs = {(th, d) for (_, d), th in norms.items()}
    assert len(norm_pairs) == pairs
    assert len({th for th, _ in norm_pairs}) == angles
    ctx = make_ctx(plan.bits)
    fs = formal(op, plan.settings.trunc_order, ctx)
    exps, read = [], []
    exp = ctx.exp
    monkeypatch.setattr(ctx, "exp", lambda x: exps.append(x) or exp(x))
    content_matrix = stokes._content_matrix

    def traced_contents(fss, tables, inverse, reads):
        # the angles asked for, and the rows rounded
        read.append((reads[0], content_matrix(fss, tables, inverse, reads)))
        return read[-1][1]

    monkeypatch.setattr(stokes, "_content_matrix", traced_contents)
    build = stokes._collocate(op, plan.layout, [fs], plan.rho, plan.nterms)
    assert build.cons <= 1e-10
    assert len(exps) == pairs
    reads = set(cond.values()) | set(norms.values())
    assert len(read) == 1 and set(read[0][0]) == reads
    assert len(reads) * op.n > read[0][1][0].shape[2] == rows


def test_plan_does_not_depend_on_precision(monkeypatch):
    # the angles and labeling come from the layout alone: every build of
    # the default run and of a run corrected to more bits on a larger
    # circle reads the same angles, even where two normalization
    # candidates tie exactly
    read = []
    content_matrix = stokes._content_matrix

    def traced_contents(fss, tables, inverse, reads):
        read.append((fss[0].ctx.bits, frozenset(reads[0])))
        return content_matrix(fss, tables, inverse, reads)

    monkeypatch.setattr(stokes, "_content_matrix", traced_contents)
    op = cubic()
    run = stokes_data(op)
    fine = stokes_data(op, StokesSettings(radius_tol=1e-20))
    assert run.plan.bits == stokes._FIRST_BITS < fine.plan.bits
    assert run.plan.rho < fine.plan.rho
    assert [bits for bits, _ in read] == [stokes._FIRST_BITS,
                                          stokes._FIRST_BITS, fine.plan.bits]
    assert len({angles for _, angles in read}) == 1
    assert run.plan.layout == fine.plan.layout
    assert (stokes.dominance_order(run.plan.layout)
            == stokes.dominance_order(fine.plan.layout))


def test_refinement_sharpens_the_closure():
    op = weber()
    coarse = stokes_data(op, StokesSettings(trunc_order=20, radius_tol=1e-10))
    fine = stokes_data(op, StokesSettings(trunc_order=30, radius_tol=1e-12))
    assert fine.residuals["identity"] * 10 <= coarse.residuals["identity"]


def test_quartic_closure_meets_the_request():
    # the basis truncation, which the A and B builds share and their
    # consistency cannot see, must stay below the requested tolerance at z^4
    sd = stokes_data(OperPoint(4, 1, (0, 0, 0)))
    assert sd.converged
    assert sd.residuals["identity"] <= sd.plan.settings.radius_tol


def test_complex_coefficients_supported():
    sd = stokes_data(OperPoint(2, 1, (0.1 + 0.05j,)), StokesSettings())
    assert sd.residuals["identity"] <= 1e-7
    assert abs(sum(complex(v) for v in sd.lam)) <= 1e-12


def test_fixed_radius_is_respected():
    sd = stokes_data(weber(), StokesSettings(radius=4.5))
    assert sd.plan.rho == 4.5
    assert sd.residuals["identity"] <= 1e-6


@pytest.mark.parametrize("name, value", [
    ("radius", True), ("radius_tol", True), ("radius_tol", "1e-10"),
    ("radius", "4.5"), ("radius_tol", None)])
def test_radius_settings_must_be_real_numbers(name, value):
    # a bool read as the circle rho = 1 (or a request for 1.0), and a str
    # reached math.isfinite as a TypeError: both are ValueErrors naming
    # the field, which the CLI maps to exit 2
    with pytest.raises(ValueError, match=f"^{name} must be a real number"):
        StokesSettings(**{name: value})


def test_frame_tail_above_request_is_not_converged():
    # inside the tail-safe circle the A and B builds still agree to the
    # request, since they share the truncated formal frame; the frame's own
    # tail, the asymptotic residual, misses it, and so does the run
    sd = stokes_data(OperPoint(2, 1, (QQ(1, 3),)), StokesSettings(radius=4.0))
    tol = sd.plan.settings.radius_tol
    assert sd.residuals["consistency"] <= 3 * tol
    assert sd.residuals["asymptotic"] > 100 * tol
    assert not sd.converged


def test_fresh_run_builds_once_per_precision_and_circle(monkeypatch):
    # the correction's build is the run's build: no formal solution is
    # recomputed at a precision, and no entire basis is rebuilt on a circle;
    # the angles are planned once per layout, one visibility arc per kill
    # condition of the two planned sectors (the others are their
    # rotations), and a replay plans none.  Weber at 1e-25 makes the one
    # correction
    fs_bits, bases, arcs = [], [], []
    real_formal, real_basis = stokes.formal_solution, stokes.EntireBasis
    real_arc = stokes._visibility_interval

    def counted_formal(*args, **kwargs):
        fss = real_formal(*args, **kwargs)
        fs_bits.extend(fs.ctx.bits for fs in fss)
        return fss

    class CountedBasis(real_basis):
        def __init__(self, op, ctx, rho, nterms=None, tangents=False):
            bases.append((float(rho), ctx.bits))
            super().__init__(op, ctx, rho, nterms, tangents)

    def counted_arc(*args):
        arcs.append(args)
        return real_arc(*args)

    monkeypatch.setattr(stokes, "formal_solution", counted_formal)
    monkeypatch.setattr(stokes, "EntireBasis", CountedBasis)
    monkeypatch.setattr(stokes, "_visibility_interval", counted_arc)
    stokes._layout_reading.cache_clear()
    op, settings = OperPoint(2, 1, (QQ(1, 3),)), StokesSettings(radius_tol=1e-25)
    sd = stokes_data(op, settings)
    assert sd.plan.bits > stokes._FIRST_BITS and sd.converged
    assert sd.residuals["identity"] <= 1e-9
    assert fs_bits == [stokes._FIRST_BITS, sd.plan.bits]
    assert bases == [(sd.plan.rho, bits) for bits in fs_bits]
    assert len(arcs) == 2 * op.n * (op.n - 1)
    # a replay reads the angles its layout's first run worked out
    replay(op, sd.plan)
    assert len(arcs) == 2 * op.n * (op.n - 1)


@pytest.mark.parametrize("tol, count",
                         [(1e-10, 1), (1e-25, 2), (1e-300, 1)],
                         ids=["default", "corrected", "fallback"])
def test_fresh_run_rounds_each_formal_tail_once(monkeypatch, tol, count):
    # the circle (compute_radius), the fallback's 2^-53 circle and the
    # asymptotic residual (_series_tail) read one rounding of a formal
    # solution's last terms: one per formal solution, so two when the
    # reading makes its one correction, and one on the fallback, which
    # rounded them three times
    tails = []
    real = stokes._tail_norms

    def counted(fs):
        tails.append(fs)
        return real(fs)

    monkeypatch.setattr(stokes, "_tail_norms", counted)
    sd = stokes_data(OperPoint(2, 1, (QQ(1, 3),)),
                     StokesSettings(radius_tol=tol))
    assert len(tails) == len({id(fs) for fs in tails}) == count
    assert (sd.plan.bits > stokes._FIRST_BITS) == (count == 2)
    assert sd.converged == (tol > 1e-300)


@pytest.mark.parametrize("op, tol, count", [
    (OperPoint(2, 1, (QQ(1, 3),)), 1e-25, 2),
    (OperPoint(3, 1, (0, 0)), 1e-10, 1),
    (OperPoint(4, 1, (0, 0, 0)), 1e-10, 1)], ids=["weber", "cubic", "z4-n4"])
def test_fresh_run_reads_one_circle(monkeypatch, op, tol, count):
    # a fresh run builds one entire basis at _FIRST_BITS on the tail-safe
    # circle, which reads z^3 and z^4 (n = 4) to the default request, and at
    # most one correction at more bits on the same circle
    builds = []
    real_basis = stokes.EntireBasis

    class CountedBasis(real_basis):
        def __init__(self, op, ctx, rho, nterms=None, tangents=False):
            builds.append((float(rho), ctx.bits))
            super().__init__(op, ctx, rho, nterms, tangents)

    monkeypatch.setattr(stokes, "EntireBasis", CountedBasis)
    sd = stokes_data(op, StokesSettings(radius_tol=tol))
    assert sd.converged
    assert len(builds) == count
    assert builds[0][1] == stokes._FIRST_BITS
    assert all(b > stokes._FIRST_BITS for _, b in builds[1:])
    assert {rho for rho, _ in builds} == {sd.plan.rho}
    assert builds[-1][1] == sd.plan.bits


def test_infinite_circle_is_never_built(monkeypatch):
    # at radius_tol 1e-300 compute_radius's circle is past double range;
    # the run goes straight to the circle tail-safe to 2^-53
    radii = []
    real_basis = stokes.EntireBasis

    class RecordedBasis(real_basis):
        def __init__(self, op, ctx, rho, nterms=None, tangents=False):
            radii.append(rho)
            super().__init__(op, ctx, rho, nterms, tangents)

    monkeypatch.setattr(stokes, "EntireBasis", RecordedBasis)
    sd = stokes_data(OperPoint(2, 1, (0,)), StokesSettings(radius_tol=1e-300))
    assert not sd.converged
    assert radii == [sd.plan.rho] and math.isfinite(sd.plan.rho)


def test_fixed_radius_build_failure_propagates(monkeypatch):
    # on a fixed circle the first build's ArithmeticError is the run's
    # answer: no fallback build on the tail-safe circle
    radii = []

    class FailingBasis:
        def __init__(self, op, ctx, rho, nterms=None, tangents=False):
            radii.append(rho)
            raise ArithmeticError("basis failed")

    monkeypatch.setattr(stokes, "EntireBasis", FailingBasis)
    with pytest.raises(ArithmeticError, match="basis failed"):
        stokes_data(weber(), StokesSettings(radius=4.5))
    assert radii == [4.5]


@pytest.mark.parametrize("n, k", [(3, 2), (4, 2), (3, 3)])
def test_default_run_converges_at_monomials(n, k):
    # the default order's tail-safe circle is small enough to read these
    # in one build at _FIRST_BITS
    sd = stokes_data(OperPoint(n, k, (0,) * (n * k - 1)))
    assert sd.converged
    assert sd.residuals["identity"] <= 1e-9
