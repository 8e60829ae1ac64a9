"""The scalar-equation formal series against the matrix recurrences.

formal_solution builds Yhat^{-1} f0^{-1} at every order from scalar series
of the equation and its adjoint, and Yhat only at its last orders, whose
max-norms the run reads (FormalSolution.tail).  The order-by-order matrix
diagonalization and the series inversion it replaced
(oracles.reference_formal_solution, reference_inverse_table), with their
sums taken by four real products, check both: the reference Yhat times the
run's formal inverse must be the identity order by order, the run's tail
must be the reference's tail norms, and the inverse tables, Lambda and Q
must agree per order to a few fixed-point units.  The Gaussian-integer
products themselves (_gauss) must equal the four-product form bit for bit.
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
from operstokes.stokes import StokesSettings, formal_solution, make_ctx

from oracles import Working, gauss4, reference_formal_solution


def reference_inverse_table(fs, rho):
    """The formal-inverse recurrence with each Y_j in the real 2n x 2n form
    [[re, -im], [im, re]], one real product per order."""
    ctx, n, M, frac = fs.ctx, fs.n, fs.M, fs.ctx.frac
    r = QQ(rho)
    j = np.arange(1, M + 1, dtype=object)[:, None, None, None]
    re, im = np.moveaxis(np.array(fs.ys[1:]) * r.denominator ** j
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


def largest(x):
    return max(abs(v) for v in np.ravel(x))


def tolerance(scale, one, frac):
    """2^-(frac-12) of max(1, scale), for values in units of 1/one."""
    return max(one, scale) >> (frac - 12)


def tail_norms(frame):
    """FormalSolution.tail of a reference frame: (m, max-norm of Y_m) for
    m = max(1, M-3)..M, each part rounded in mpmath once to the working
    precision and then, to nearest, to a double."""
    rounded = Working(frame.ctx).rounded
    return [(m, max(abs(complex(v)) for v in
                    np.ravel(rounded(*frame.ys[m], -frame.ctx.frac))))
            for m in range(max(1, frame.M - 3), frame.M + 1)]


@pytest.mark.parametrize("bits", [69, 105])
@pytest.mark.parametrize("name", list(POINTS))
def test_series_kernel_matches_four_products(name, bits):
    # formal solution and formal-inverse table at the default order M = 40
    # agree with the matrix recurrences: Yhat's tail norms bit for bit
    # (tail_norms), the table order by order to 2^-(frac-12) of the sizes
    # of the terms of the inverse recurrence W_m = -sum_j Y_j W_{m-j},
    # whose roundings it carries, and Lambda and Q to a few units of the
    # working precision
    op = POINTS[name]
    ctx = make_ctx(bits)
    M, frac = StokesSettings().trunc_order, ctx.frac
    [got] = formal_solution(op, M, ctx)
    want = reference_formal_solution(op, M, ctx)
    assert len(want.ys) == M + 1
    assert got.tail == tail_norms(want)
    work = Working(ctx)
    (got_lam, got_q), (want_lam, want_q) = map(work.exponents, (got, want))
    pairs = [(got_lam, want_lam)]
    pairs += [(got_q[j], want_q[j]) for j in want_q]
    assert sorted(got_q) == sorted(want_q)
    for g, w in pairs:
        assert all(abs(x - y) <= 2.0 ** (2 - bits) * max(1, abs(y))
                   for x, y in zip(g, w))
    for rho in (4.5, 8.15):
        (tc, te), (wc, we) = (stokes._inverse_table([got], rho),
                              reference_inverse_table(want, rho))
        tc = tc[:, 0]                   # the jet axis of a value alone
        assert tc.shape == wc.shape == (2, op.n, op.n, M + 1)
        assert te.tolist() == we.tolist()
        ys = [largest(y) * QQ(rho) ** -j / 2 ** frac
              for j, y in enumerate(want.ys)]
        vs = [largest(wc[..., m]) for m in range(M + 1)]
        for m in range(M + 1):
            scale = max([vs[m]] + [ys[j] * vs[m - j] for j in range(1, m + 1)])
            assert largest(tc[..., m] - wc[..., m]) <= tolerance(
                math.floor(scale), 1 << -int(te[0, 0]), frac)


INVERSE_POINTS = {
    "21": OperPoint(2, 1, (0.3 - 0.2j,)),
    "31": OperPoint(3, 1, (QQ(1, 5), QQ(-1, 7))),
    "41": OperPoint(4, 1, (QQ(1, 3), QQ(-2, 5), QQ(1, 7))),
    "51": OperPoint(5, 1, (QQ(1, 2), 0, QQ(-1, 3), QQ(2, 7))),
    "22": OperPoint(2, 2, (0.1 + 0.2j, -0.05j, 0.2)),
    "32": OperPoint(3, 2, (QQ(1, 3), QQ(-2, 5), QQ(1, 7), QQ(3, 4),
                           QQ(-1, 2))),
    "23": OperPoint(2, 3, (QQ(1, 4), QQ(-1, 3), QQ(2, 5), QQ(1, 6),
                           QQ(-3, 7))),
    "z8-24": OperPoint(2, 4, (0,) * 7),
}


@pytest.mark.parametrize("name", list(INVERSE_POINTS))
def test_formal_inverse_is_the_inverse(name):
    # sum_{j<=m} Y_j W_{m-j} = delta_{m0} I through order M, with Y_j the
    # reference frame's and W_m f0^-1 the run's dual coefficients, f0 the
    # fixed-point frame: exact integer products, each order within
    # 2^-(frac-12) of the sum of its terms' sizes (or absolutely, below 1)
    op = INVERSE_POINTS[name]
    ctx = make_ctx(69)
    frac, n, M = ctx.frac, op.n, 40
    [fs] = formal_solution(op, M, ctx)
    ys = reference_formal_solution(op, M, ctx).ys
    f0 = stokes._fixed_frame(ctx, n)[0]
    ws = [gauss4(fs.dual[..., m], f0, np.matmul) >> frac
          for m in range(M + 1)]
    eye = np.array([np.eye(n, dtype=object) << 2 * frac,
                    np.zeros((n, n), dtype=object)])
    for m in range(M + 1):
        terms = [gauss4(ys[j], ws[m - j], np.matmul) for j in range(m + 1)]
        got = sum(terms) - (eye if m == 0 else 0)
        assert largest(got) <= tolerance(sum(map(largest, terms)),
                                         1 << 2 * frac, frac)


@pytest.mark.parametrize("bits", [69, 105])
@pytest.mark.parametrize("name", list(INVERSE_POINTS))
def test_tail_matches_the_independent_frame(name, bits):
    # the run forms Yhat only at the orders its tail reads, and their
    # max-norms, rounded to `bits` and then to a double, are the reference
    # frame's bit for bit at the default order M = 40, at the points whose
    # inverse test_formal_inverse_is_the_inverse checks
    op, M = INVERSE_POINTS[name], StokesSettings().trunc_order
    ctx = make_ctx(bits)
    [fs] = formal_solution(op, M, ctx)
    assert fs.tail == tail_norms(reference_formal_solution(op, M, ctx))
    assert [m for m, _ in fs.tail] == [M - 3, M - 2, M - 1, M]


def test_tangent_components_carry_no_tail():
    # a (4,1) tangent replay's jet: the value and its three tangents, of
    # which only the value's tail is read
    value, *tangents = formal_solution(
        OperPoint(4, 1, (QQ(1, 5), QQ(-1, 4), QQ(1, 6))), 40, make_ctx(69),
        tangents=True)
    assert len(tangents) == 3 and len(value.tail) == 4
    assert all(fs.tail is None for fs in tangents)


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
