"""The per-coefficient polynomial arithmetic that ``exactpoly.Polynomial``
replaced with integer rows, kept as the reference the rows are held to.

Coefficients are stored as given (int, Fraction or GaussianRational, a real
GaussianRational as its Fraction), and every operation is a loop of scalar
operations, each reducing its own result.
"""

from fractions import Fraction
from math import factorial

from twistlab.exactpoly import GaussianRational


class ScalarPolynomial:
    """Dense polynomial on scalar coefficients; ``coeffs[k]`` is that of x^k."""

    def __init__(self, coeffs=()):
        coeffs = [c.re if isinstance(c, GaussianRational) and not c.im else c for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    def coefficient(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    @staticmethod
    def _as_poly(x):
        return x if isinstance(x, ScalarPolynomial) else ScalarPolynomial((x,))

    def __add__(self, other):
        other = self._as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return ScalarPolynomial(self.coefficient(k) + other.coefficient(k) for k in range(n))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return ScalarPolynomial(self.coefficient(k) - other.coefficient(k) for k in range(n))

    def __rsub__(self, other):
        return self._as_poly(other) - self

    def __mul__(self, other):
        if isinstance(other, ScalarPolynomial):
            if not self.coeffs or not other.coeffs:
                return ScalarPolynomial()
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return ScalarPolynomial(out)
        return ScalarPolynomial(other * c for c in self.coeffs)

    __rmul__ = __mul__

    def __pow__(self, n):
        result = ScalarPolynomial((1,))
        for _ in range(n):
            result = result * self
        return result

    def __divmod__(self, other):
        """Long division with remainder over the coefficient field."""
        if not other.coeffs:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dd, dv = len(self.coeffs) - 1, len(other.coeffs) - 1
        quot = [0] * (dd - dv + 1)  # empty when dd < dv: the remainder is self
        lead = other.coeffs[-1]  # a Fraction has no division by a GaussianRational
        inverse = lead.conjugate() / lead.norm() if isinstance(lead, GaussianRational) else 1 / Fraction(lead)
        for k in range(dd - dv, -1, -1):
            c = rem[dv + k] * inverse
            quot[k] = c
            if c != 0:
                for j, b in enumerate(other.coeffs):
                    rem[j + k] -= c * b
        return ScalarPolynomial(quot), ScalarPolynomial(rem)

    def compose(self, inner):
        result = ScalarPolynomial()
        for c in reversed(self.coeffs):
            result = result * inner + ScalarPolynomial((c,))
        return result

    def conjugate(self):
        return ScalarPolynomial(
            c.conjugate() if isinstance(c, GaussianRational) else c for c in self.coeffs)

    def __call__(self, x):
        result = 0
        for c in reversed(self.coeffs):
            result = result * x + c
        return result


def elementary_symmetric_reciprocal(k: int, n: int) -> Fraction:
    """e_k(1/1, 1/2, ..., 1/n) by the one-row DP."""
    e = [Fraction(0)] * (k + 1)
    e[0] = Fraction(1)
    for j in range(1, n + 1):
        x = Fraction(1, j)
        for i in range(min(k, j), 0, -1):
            e[i] += e[i - 1] * x
    return e[k]


def c_coeff_by_symmetric_functions(mu: int, ell: int) -> Fraction:
    """C(mu, ell) = (-1)^(ell-mu) (ell-1)! e_{mu-1}(1, 1/2, ..., 1/(ell-1))."""
    sign = -1 if (ell - mu) % 2 else 1
    return sign * factorial(ell - 1) * elementary_symmetric_reciprocal(mu - 1, ell - 1)
