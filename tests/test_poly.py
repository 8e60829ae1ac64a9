from fractions import Fraction as QQ

from hypothesis import given, settings
from hypothesis import strategies as st

from operstokes.poly import Poly

coeff = st.fractions(min_value=-20, max_value=20, max_denominator=5)
polys = st.lists(coeff, min_size=0, max_size=6).map(Poly)


def z_power(m):
    """z^m."""
    return Poly((0,) * m + (1,))


def evaluate(p, z):
    """p(z) by Horner's rule."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * z + c
    return acc


def test_degree_and_trailing_zeros():
    assert Poly([1, 0, 0]).degree == 0
    assert Poly([]).degree == -1
    assert Poly([0, 0, QQ(3)]).degree == 2


def test_coeff_out_of_range():
    p = Poly([1, 2])
    assert p.coeff(5) == 0
    assert p.coeff(1) == 2


def test_arithmetic_known():
    p = Poly([1, 1])          # 1 + z
    q = Poly([-1, 1])         # -1 + z
    assert p * q == Poly([-1, 0, 1])
    assert p + q == Poly([0, 2])
    assert p - p == Poly([])


def test_eval_horner():
    p = Poly([QQ(1), QQ(0), QQ(3)])  # 1 + 3z^2
    assert evaluate(p, QQ(2)) == 13
    assert abs(evaluate(p, 1j) - (1 + 3 * (1j) ** 2)) < 1e-15


def test_derivative_known():
    p = z_power(4) + 2 * z_power(1)
    assert p.derivative() == Poly([2, 0, 0, 4])


@given(polys, polys)
@settings(max_examples=60, deadline=None)
def test_leibniz(f, g):
    lhs = (f * g).derivative()
    rhs = f.derivative() * g + f * g.derivative()
    assert lhs == rhs


@given(polys, polys, coeff)
@settings(max_examples=60, deadline=None)
def test_eval_is_ring_hom(f, g, x):
    assert evaluate(f * g, x) == evaluate(f, x) * evaluate(g, x)
    assert evaluate(f + g, x) == evaluate(f, x) + evaluate(g, x)
