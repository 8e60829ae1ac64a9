"""The Gaussian-integer series kernel against its four-product form.

formal_solution and _inverse_table sum every series product as Gauss's
three real products inside one matmul.  The sums are exact integers before
the one shift or floor that rounds them, so the outputs must equal, bit for
bit, the four-product recurrences kept here as the reference.
"""

import math
import random
from fractions import Fraction as QQ

import numpy as np
import pytest
from hypothesis import given
from hypothesis import settings as hyp_settings
from hypothesis import strategies as st

from operstokes import stokes
from operstokes.isomono import OperPoint
from operstokes.stokes import (FormalSolution, StokesSettings,
                               formal_solution, gauge_transform, make_ctx)


def gauss4(x, y, op=np.multiply):
    """(re, im) product of two (re, im) arrays by four products."""
    return np.array([op(x[0], y[0]) - op(x[1], y[1]),
                     op(x[0], y[1]) + op(x[1], y[0])])


def quantized(v, frac, scale=1):
    return tuple(math.floor(QQ(x) * scale * 2 ** frac)
                 for x in (v.real, v.imag))


def reference_formal_solution(bcoeffs, k, M, ctx):
    """The four-product recurrence on a gauged connection's B_j
    (gauge_transform) of pole order k: each order's convolutions
    materialized as term arrays and reduced by .sum(axis=1)."""
    n, frac = len(bcoeffs[0]), ctx.frac
    f0, f0inv = stokes._fixed_frame(ctx, n)
    b = np.array([[[quantized(c, frac) for c in row] for row in bj]
                  for bj in bcoeffs], dtype=object)
    b = gauss4(np.moveaxis(b, 3, 0), f0, np.matmul) >> frac
    bt = gauss4(f0inv, b, np.matmul) >> frac
    lam = f0[:, 1]
    gap = lam[:, None, :] - lam[:, :, None]
    norm = gap[0] * gap[0] + gap[1] * gap[1] + np.eye(n, dtype=object)
    recip = np.array([gap[0], -gap[1]]) * (1 << 2 * frac) // norm
    levels = k + 2 + M
    F = np.zeros((2, levels, n, n), dtype=object)
    F[0, 0] = np.eye(n, dtype=object) << frac
    D = np.zeros((2, levels, n), dtype=object)
    D[:, 0] = lam
    for j in range(1, levels):
        lo = max(0, j - bt.shape[1] + 1)
        side = bt[:, j - lo:0:-1].transpose(0, 2, 1, 3).reshape(2, n, -1)
        r = gauss4(side, F[:, lo:j].reshape(2, -1, n), np.matmul)
        r = (r - gauss4(F[:, 1:j], D[:, j - 1:0:-1, None]).sum(axis=1)) >> frac
        if j >= k + 2:
            r = r + (j - k - 1) * F[:, j - k - 1]
        D[:, j] = np.diagonal(r, axis1=1, axis2=2)
        F[:, j] = gauss4(r, recip) >> frac
    u = np.zeros((2, M + 1, n), dtype=object)
    u[0, 0] = 1 << frac
    for m in range(1, M + 1):
        acc = gauss4(D[:, k + 2:k + 2 + m], u[:, m - 1::-1]).sum(axis=1)
        u[:, m] = -(acc >> frac) // m
    ys = [gauss4(F[:, :m + 1], u[:, m::-1, None]).sum(axis=1) >> frac
          for m in range(M + 1)]
    return FormalSolution(
        n=n, k=k, M=M,
        qcoeffs={k + 1 - s: list(stokes._rounded(ctx, *D[:, s], -frac)
                                 / (k + 1 - s))
                 for s in range(k + 1)},
        lam=list(stokes._rounded(ctx, *D[:, k + 1], -frac)), ctx=ctx,
        fixed=ys)


def reference_inverse_table(fs, rho):
    """The formal-inverse recurrence with each Y_j in the real 2n x 2n form
    [[re, -im], [im, re]], one real product per order."""
    ctx, n, M, frac = fs.ctx, fs.n, fs.M, fs.ctx.frac
    r = QQ(rho)
    j = np.arange(1, M + 1, dtype=object)[:, None, None, None]
    re, im = np.moveaxis(np.array(fs.fixed[1:]) * r.denominator ** j
                         // r.numerator ** j, 1, 0)
    ys = np.block([[re, -im], [im, re]]).transpose(1, 0, 2).reshape(2 * n, -1)
    sq = [r ** int(2 * h) for h in stokes._gauge_exponents(n, fs.k)]
    g = max(0, max(s.denominator.bit_length() - s.numerator.bit_length()
                   for s in sq) // 2 + 1)
    mod = np.array([math.isqrt(math.floor(s * 4 ** (frac + g)))
                    for s in sq], dtype=object)
    vs = np.zeros((M + 1, 2 * n, n), dtype=object)
    vs[0] = np.vstack(stokes._fixed_frame(ctx, n)[1] * mod >> frac)
    for m in range(1, M + 1):
        vs[m] = -(ys[:, :2 * n * m] @ vs[m - 1::-1].reshape(-1, n) >> frac)
    coeffs = np.moveaxis(np.array([vs[:, :n], -vs[:, n:]]), 1, -1)
    return coeffs, np.full((n, n), -(frac + g), dtype=object)


POINTS = {
    "weber-complex": OperPoint(2, 1, (0.3 - 0.2j,)),
    "quartic-complex": OperPoint(2, 2, (0.1 + 0.2j, -0.05j, 0.2)),
    "cubic-point": OperPoint(3, 1, (QQ(1, 5), QQ(-1, 7))),
    "quartic-n4": OperPoint(4, 1, (QQ(1, 3), QQ(-2, 5), QQ(1, 7))),
    "z6-n6": OperPoint(6, 1, (0,) * 5),
}


@pytest.mark.parametrize("bits", [69, 105])
@pytest.mark.parametrize("name", list(POINTS))
def test_series_kernel_matches_four_products(name, bits):
    # formal solution and formal-inverse table at the default order M = 40,
    # exactly as the four-product recurrences give them
    op = POINTS[name]
    ctx = make_ctx(bits)
    M = StokesSettings().trunc_order
    [got] = formal_solution([op], M, ctx)
    want = reference_formal_solution(gauge_transform(op), op.k, M, ctx)
    assert len(got.fixed) == len(want.fixed) == M + 1
    for g, w in zip(got.fixed, want.fixed):
        assert g.shape == w.shape == (2, op.n, op.n)
        assert g.tolist() == w.tolist()
    assert got.lam == want.lam
    assert got.qcoeffs == want.qcoeffs
    for rho in (4.5, 8.15):
        (tc, te), (wc, we) = (stokes._inverse_table([got], rho),
                              reference_inverse_table(want, rho))
        tc = tc[:, 0]                   # the point axis of a batch of one
        assert tc.shape == wc.shape == (2, op.n, op.n, M + 1)
        assert tc.tolist() == wc.tolist()
        assert te.tolist() == we.tolist()


def gaussian(rng, shape, bits):
    """A (2, *shape) object array of signed ints below 2^bits, about a
    quarter of them zero."""
    size = 2 * math.prod(shape)
    vals = [0 if rng.random() < 0.25 else rng.randint(-2 ** bits, 2 ** bits)
            for _ in range(size)]
    return np.array(vals, dtype=object).reshape((2,) + shape)


def shapes(n, length, angles):
    """(x, y) shapes of the batched products the kernel takes: the stacked
    B F product and the per-column dot products over levels (formal
    solution, formal inverse), a table class against its unit powers, and
    the stacked contents."""
    return [((n, length * n), (length * n, n)),
            ((n, n, length), (n, length, 1)),
            ((n, 1, length), (n, length, 1)),
            ((n, n, length // 2 + 1), (length // 2 + 1, angles)),
            ((angles, n, n), (angles, n, n))]


@given(st.data())
@hyp_settings(max_examples=40, deadline=None)
def test_gauss_matmul_matches_four_products(data):
    n = data.draw(st.integers(1, 4))
    length = data.draw(st.integers(0, 6))
    angles = data.draw(st.integers(1, 5))
    bits = data.draw(st.sampled_from([1, 8, 64, 200]))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    for xs, ys in shapes(n, length, angles):
        x, y = gaussian(rng, xs, bits), gaussian(rng, ys, bits)
        want = gauss4(x, y, np.matmul)
        got = stokes._gauss(x, y, np.matmul)
        assert got.shape == want.shape
        assert got.tolist() == want.tolist()
        # a triple (re, im, re + im) gives the same product
        assert (stokes._gauss(stokes._triple(x), stokes._triple(y),
                              np.matmul).tolist() == want.tolist())
        # and the entrywise form takes the same three products
        if xs == ys:
            assert stokes._gauss(x, y).tolist() == gauss4(x, y).tolist()


@given(st.data())
@hyp_settings(max_examples=40, deadline=None)
def test_gauss_multiply_matches_four_products(data):
    # the entrywise product is Gauss's three too, broadcast as the kernel
    # takes it: a batch against one matrix (the gap reciprocals), columns
    # against one scalar each (the conjugate determinants, the wrap), a
    # phase row against stacked sums and a vector against a scalar, with
    # signed entries to 2^256
    n = data.draw(st.integers(1, 4))
    bits = data.draw(st.sampled_from([1, 64, 256]))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    for xs, ys in (((3, n, n), (n, n)), ((3, n, n), (3, n, 1)),
                   ((2, n, n), (1, n)), ((1, n, 1, 2), (n, n, 1)),
                   ((n,), ())):
        x, y = gaussian(rng, xs, bits), gaussian(rng, ys, bits)
        want = gauss4(x, y)
        got = stokes._gauss(x, y)
        assert got.shape == want.shape
        assert got.tolist() == want.tolist()
        assert stokes._gauss(stokes._triple(x), y).tolist() == want.tolist()


def test_gauss_matmul_empty_inner_axis_is_integer_zero():
    x = np.zeros((2, 3, 3, 0), dtype=object)
    y = np.zeros((2, 3, 0, 1), dtype=object)
    got = stokes._gauss(x, y, np.matmul)
    assert got.shape == (2, 3, 3, 1)
    assert all(type(v) is int and v == 0 for v in got.ravel())


@pytest.mark.parametrize("order", [40.0, True, "40", None])
def test_trunc_order_must_be_an_int(order):
    with pytest.raises(ValueError, match="trunc_order must be an int"):
        StokesSettings(trunc_order=order)


@pytest.mark.parametrize("v0", [True, False, "abc", 1j, float("nan"),
                                float("inf"), "1/0"],
                         ids=["true", "false", "abc", "complex", "nan", "inf",
                              "zero-denominator"])
def test_v0_must_read_as_a_fraction(v0):
    # a bool would read as base direction pi or 0, and the rest would fail
    # inside stokes_data with a message that does not name v0
    with pytest.raises(ValueError, match="v0 must be a Fraction of pi"):
        StokesSettings(v0=v0)


def test_v0_reads_what_fraction_reads():
    for v0 in (None, 1, QQ(1, 7), 0.125, "1/9"):
        assert StokesSettings(v0=v0).v0 == v0
