"""Exact scalars and dense univariate polynomials.

Scalars are ``int``, ``fractions.Fraction`` or :class:`GaussianRational`
(a + bi with rational a, b).  A :class:`Polynomial` keeps its coefficients
as integer numerator rows over one positive common denominator in lowest
terms, so each ring operation, composition and evaluation is an integer
loop with one gcd per result.  All of it stays exact, so zero-remainder
divisibility can be asserted literally: the remainder of P mod (x - r)^m is
the part of P(x + r) below x^m, read off the rows of one composition.
Nothing here is numeric: a caller that needs floating-point values rounds
the integer rows itself.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm

_RATIONAL_TYPES = (int, Fraction)


def as_fraction(x) -> Fraction:
    """Coerce ints, Fractions and rational/decimal strings to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class GaussianRational:
    """Exact complex number with rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", as_fraction(re))
        object.__setattr__(self, "im", as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __reduce__(self):  # pickle and copy rebuild through __init__, not __setattr__
        return GaussianRational, (self.re, self.im)

    # -- predicates ---------------------------------------------------------

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, _RATIONAL_TYPES):
            return GaussianRational(x, 0)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm(self) -> Fraction:
        """|z|^2, exact."""
        return self.re * self.re + self.im * self.im

    # -- comparisons / conversion -------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


_SCALAR_TYPES = (int, Fraction, GaussianRational)


def _parts(c) -> tuple[int, int, int]:
    """(re, im, den): an exact scalar as (re + i im)/den with den > 0."""
    if isinstance(c, int):
        return c, 0, 1
    if isinstance(c, Fraction):
        return c.numerator, 0, c.denominator
    if not isinstance(c, GaussianRational):
        raise TypeError(f"not an exact scalar: {c!r}")
    den = lcm(c.re.denominator, c.im.denominator)
    return (c.re.numerator * (den // c.re.denominator),
            c.im.numerator * (den // c.im.denominator), den)


def _convolve(a, b) -> list:
    """Coefficient row of the product of two integer rows."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _combine(a, fa, b, fb) -> list:
    """fa * a + fb * b for integer rows of any lengths."""
    return [x * fa + y * fb for x, y in zip_longest(a, b, fillvalue=0)]


def _product(ar, ai, br, bi) -> tuple[list, list]:
    """Rows (re, im) of (ar + i ai)(br + i bi); an empty row is zero."""
    re = _convolve(ar, br)
    if not (ai or bi):
        return re, []
    return (_combine(re, 1, _convolve(ai, bi), -1),
            _combine(_convolve(ar, bi), 1, _convolve(ai, br), 1))


class Polynomial:
    """Dense univariate polynomial with exact scalar coefficients.

    The coefficients are kept as integer numerator rows over one positive
    common denominator in lowest terms: ``re[k]`` and ``im[k]`` over ``den``
    are the real and imaginary parts of the coefficient of x^k, and ``im``
    is empty unless some coefficient is non-real.  The top coefficient is
    nonzero except for the zero polynomial, whose degree is reported as -1.
    This form is canonical, so equality compares rows.

    ``coeffs`` gives the coefficients as scalars: a real one as a
    ``Fraction`` and a non-real one as a :class:`GaussianRational`.
    """

    __slots__ = ("re", "im", "den", "_coeffs")

    def __init__(self, coeffs=()):
        parts = [_parts(c) for c in coeffs]
        den = lcm(*(d for _, _, d in parts))
        self._set([r * (den // d) for r, _, d in parts],
                  [i * (den // d) for _, i, d in parts], den)

    @classmethod
    def from_rows(cls, re, im, den) -> "Polynomial":
        """The polynomial (re + i im)/den from integer rows, ``im`` empty or
        no longer than ``re``, and an integer den > 0."""
        poly = object.__new__(cls)
        poly._set(re, im, den)
        return poly

    def _set(self, re, im, den) -> None:
        """Store the rows trimmed and in lowest terms: one gcd per polynomial."""
        im = list(im) + [0] * (len(re) - len(im)) if any(im) else ()
        n = len(re)
        while n and not re[n - 1] and not (im and im[n - 1]):
            n -= 1
        g = gcd(den, *re, *im)
        if g != 1:
            den //= g
            re = [x // g for x in re]
            im = [x // g for x in im]
        setattr_ = object.__setattr__
        setattr_(self, "re", tuple(re[:n]))
        setattr_(self, "im", tuple(im[:n]))
        setattr_(self, "den", den)
        setattr_(self, "_coeffs", None)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- structure ------------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The coefficients as scalars, lowest power first."""
        if self._coeffs is None:
            den = self.den
            coeffs = tuple(
                GaussianRational(Fraction(r, den), Fraction(i, den)) if i else Fraction(r, den)
                for r, i in zip_longest(self.re, self.im, fillvalue=0)
            )
            object.__setattr__(self, "_coeffs", coeffs)
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self.re) - 1

    @property
    def is_zero(self) -> bool:
        return not self.re

    def coefficient(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.re) else 0

    # -- ring operations --------------------------------------------------------

    def _plus(self, other: "Polynomial", sign: int) -> "Polynomial":
        g = gcd(self.den, other.den)
        fa, fb = other.den // g, sign * (self.den // g)
        return Polynomial.from_rows(_combine(self.re, fa, other.re, fb),
                                    _combine(self.im, fa, other.im, fb), self.den * fa)

    def __add__(self, other):
        other = self._as_poly(other)
        if other is None:
            return NotImplemented
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._as_poly(other)
        if other is None:
            return NotImplemented
        return self._plus(other, -1)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            re, im = _product(self.re, self.im, other.re, other.im)
            return Polynomial.from_rows(re, im, self.den * other.den)
        if not isinstance(other, _SCALAR_TYPES):
            return NotImplemented
        sr, si, sd = _parts(other)
        re = [x * sr - y * si for x, y in zip_longest(self.re, self.im, fillvalue=0)]
        im = [x * si + y * sr for x, y in zip_longest(self.re, self.im, fillvalue=0)]
        return Polynomial.from_rows(re, im, self.den * sd)

    def __rmul__(self, other):
        return self.__mul__(other)

    @staticmethod
    def _as_poly(x):
        if isinstance(x, Polynomial):
            return x
        if isinstance(x, _SCALAR_TYPES):
            return Polynomial((x,))
        return None

    def compose(self, inner: "Polynomial") -> "Polynomial":
        """self(inner(x)) by Horner on the rows.

        With self = N/d and inner = P/e this is
        sum_k N_k P^k e^(m-k) / (d e^m), m = deg self: integer Horner steps
        and one reduction at the end.
        """
        if self.degree < 1 or inner.degree < 1:
            return Polynomial((self(inner.coefficient(0)),))
        re, im = [self.re[-1]], [self.im[-1]] if self.im else []
        scale = 1
        for k in range(self.degree - 1, -1, -1):
            scale *= inner.den
            re, im = _product(re, im, inner.re, inner.im)
            re[0] += self.re[k] * scale
            if self.im:
                im[0] += self.im[k] * scale
        return Polynomial.from_rows(re, im, self.den * scale)

    def conjugate(self) -> "Polynomial":
        return Polynomial.from_rows(list(self.re), [-x for x in self.im], self.den)

    # -- evaluation ---------------------------------------------------------------

    def __call__(self, x):
        """Exact Horner evaluation at an exact scalar x.

        The value is a ``GaussianRational`` when x or a coefficient is
        non-real, a ``Fraction`` otherwise.
        """
        xr, xi, xd = _parts(x)
        re = im = 0
        scale = 1
        for r, i in zip_longest(reversed(self.re), reversed(self.im), fillvalue=0):
            re, im = re * xr - im * xi + r * scale, re * xi + im * xr + i * scale
            scale *= xd
        den = self.den * scale // xd if self.re else 1
        if self.im or isinstance(x, GaussianRational):
            return GaussianRational(Fraction(re, den), Fraction(im, den))
        return Fraction(re, den)

    # -- misc ----------------------------------------------------------------------

    def __eq__(self, other):
        other = self._as_poly(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im and self.den == other.den

    def __hash__(self):
        # a constant hashes as its scalar, which it equals
        if self.degree < 1:
            return hash(self.coefficient(0))
        return hash((self.re, self.im, self.den))

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"
    def pretty(self) -> str:
        """Human-readable form, highest power first, e.g. ``-s^2 + 1/2``."""
        if self.is_zero:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coefficient(k)
            if c == 0:
                continue
            c_str = str(c)
            negative = c_str.startswith("-") and isinstance(
                c, (int, Fraction)
            )
            if negative:
                c_str = c_str[1:]
            if k == 0:
                term = c_str
            else:
                xpow = "s" if k == 1 else f"s^{k}"
                if c == 1:
                    term = xpow
                elif c == -1 and isinstance(c, (int, Fraction)):
                    term, negative = xpow, True
                else:
                    if isinstance(c, GaussianRational):
                        c_str = f"({c})"
                        negative = False
                    term = f"{c_str}*{xpow}"
            if not parts:
                parts.append(f"-{term}" if negative else term)
            else:
                parts.append(f"- {term}" if negative else f"+ {term}")
        return " ".join(parts)
