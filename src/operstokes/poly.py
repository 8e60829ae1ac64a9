"""Dense univariate polynomials over any exact or floating scalar ring.

Coefficients are stored ascending; the zero polynomial is the empty tuple and
has degree -1.  Arithmetic never normalizes coefficient types, so the same
class serves Fraction, int, float and complex work.
"""

from __future__ import annotations


class Poly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def coeff(self, m):
        return self.coeffs[m] if 0 <= m < len(self.coeffs) else 0

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, x in enumerate(b):
            out[i] = out[i] + x
        return Poly(out)

    def __neg__(self):
        return Poly([-x for x in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly([x * other for x in self.coeffs])
        if not self.coeffs or not other.coeffs:
            return Poly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            if not x:
                continue
            for j, y in enumerate(other.coeffs):
                out[i + j] = out[i + j] + x * y
        return Poly(out)

    __rmul__ = __mul__

    def derivative(self):
        return Poly([i * x for i, x in enumerate(self.coeffs)][1:])

    def __call__(self, z):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def shift(self, m):
        """Multiply by z^m."""
        if not self.coeffs:
            return Poly()
        return Poly((0,) * m + self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

