"""Exact scalars and dense univariate polynomials.

Two coefficient regimes share one polynomial class:

* exact: ``fractions.Fraction`` and :class:`GaussianRational` (a + bi with
  rational a, b) -- all arithmetic, composition and division-with-remainder
  stay exact, so zero-remainder divisibility can be asserted literally;
* numeric: mpmath ``mpf``/``mpc`` coefficients for data that is not rational.

Numeric evaluation of an exact polynomial happens through mpmath at the
ambient working precision.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath as mp

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

    # -- predicates ---------------------------------------------------------

    @property
    def is_real(self) -> bool:
        return self.im == 0

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

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

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

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return 1 / (self ** (-n))
        result = GaussianRational(1, 0)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

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

    def to_mpc(self) -> mp.mpc:
        return mp.mpc(mp.mpmathify(self.re), mp.mpmathify(self.im))

    def __complex__(self) -> complex:
        return float(self.re) + 1j * float(self.im)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


I_UNIT = GaussianRational(0, 1)


def conj_scalar(c):
    """Complex conjugate for any supported scalar type."""
    if isinstance(c, _RATIONAL_TYPES):
        return c
    if isinstance(c, GaussianRational):
        return c.conjugate()
    return mp.conj(c)


def scalar_to_mpc(c):
    """Convert an exact or numeric scalar to mpc at ambient precision."""
    if isinstance(c, GaussianRational):
        return c.to_mpc()
    if isinstance(c, (int, Fraction)):
        return mp.mpc(mp.mpmathify(c))
    return mp.mpc(c)


def scalar_is_exact(c) -> bool:
    return isinstance(c, (int, Fraction, GaussianRational))


def _exact_div(a, b):
    """Scalar division that keeps int/int exact instead of going float and
    bridges the Fraction/mpf gap (mpf only reflects + and * for Fraction)."""
    if isinstance(a, int) and isinstance(b, int):
        return Fraction(a, b)
    try:
        return a / b
    except TypeError:
        return mp.mpmathify(a) / mp.mpmathify(b)


def _sub(a, b):
    """Scalar subtraction through negation; Fraction + mpf is supported
    where Fraction - mpf is not."""
    try:
        return a - b
    except TypeError:
        return a + (-b)


class Polynomial:
    """Dense univariate polynomial; ``coeffs[k]`` is the coefficient of x^k.

    The trailing coefficient is nonzero except for the zero polynomial,
    whose degree is reported as -1.  A real :class:`GaussianRational` is
    stored as its ``Fraction`` real part: it compares, hashes and prints the
    same, and products of real data then run on plain Fractions.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = [
            c.re if isinstance(c, GaussianRational) and not c.im else c for c in coeffs
        ]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls((c,))

    @classmethod
    def monomial(cls, c, k: int) -> "Polynomial":
        return cls((0,) * k + (c,))

    @classmethod
    def variable(cls) -> "Polynomial":
        return cls((0, 1))

    # -- structure ------------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self):
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    @property
    def is_exact(self) -> bool:
        return all(scalar_is_exact(c) for c in self.coeffs)

    # -- ring operations --------------------------------------------------------

    def __add__(self, other):
        other = self._as_poly(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(
            self.coefficient(k) + other.coefficient(k) for k in range(n)
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = self._as_poly(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(
            _sub(self.coefficient(k), other.coefficient(k)) for k in range(n)
        )

    def __rsub__(self, other):
        other = self._as_poly(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return Polynomial(-c for c in self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero or other.is_zero:
                return Polynomial()
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return Polynomial(out)
        return Polynomial(other * c for c in self.coeffs)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial power needs a nonnegative integer")
        result = Polynomial((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    @staticmethod
    def _as_poly(x):
        if isinstance(x, Polynomial):
            return x
        if isinstance(x, (int, Fraction, GaussianRational)):
            return Polynomial((x,))
        return None

    def __divmod__(self, other: "Polynomial"):
        """Exact division with remainder over the coefficient field."""
        if not isinstance(other, Polynomial) or other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dd, dv = self.degree, other.degree
        if dd < dv:
            return Polynomial(), self
        quot = [0] * (dd - dv + 1)
        lead = other.coeffs[-1]
        for k in range(dd - dv, -1, -1):
            c = _exact_div(rem[dv + k], lead)
            quot[k] = c
            if c != 0:
                for j, b in enumerate(other.coeffs):
                    rem[j + k] = _sub(rem[j + k], c * b)
        return Polynomial(quot), Polynomial(rem)

    def divides_exactly(self, divisor: "Polynomial") -> bool:
        """True when ``divisor`` divides self with exactly zero remainder."""
        _, r = divmod(self, divisor)
        return r.is_zero

    def compose(self, inner: "Polynomial") -> "Polynomial":
        """self(inner(x)) by Horner on polynomials."""
        result = Polynomial()
        for c in reversed(self.coeffs):
            result = result * inner + Polynomial((c,))
        return result

    def conjugate(self) -> "Polynomial":
        return Polynomial(conj_scalar(c) for c in self.coeffs)

    # -- evaluation ---------------------------------------------------------------

    def __call__(self, x):
        """Exact Horner evaluation (x exact scalar keeps the result exact)."""
        result = 0
        for c in reversed(self.coeffs):
            result = result * x + c
        return result

    def eval_mpc(self, z) -> mp.mpc:
        """Numeric Horner evaluation at the ambient mpmath precision."""
        z = mp.mpmathify(z)
        result = mp.mpc(0)
        for c in reversed(self.coeffs):
            result = result * z + scalar_to_mpc(c)
        return result

    # -- misc ----------------------------------------------------------------------

    def __eq__(self, other):
        other = self._as_poly(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"

    def pretty(self, var: str = "s") -> str:
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
                xpow = var if k == 1 else f"{var}^{k}"
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
