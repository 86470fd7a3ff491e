"""High-precision special functions and Dirichlet characters.

Gamma is delegated to mpmath at the ambient binary precision.  Hurwitz
zeta(s, a) has two routes, chosen by s alone: on the disc |s - 1| <= 0.26,
where the verification chain puts its contours around the pole, one Taylor
series per (a, precision) of zeta(1+x, a) - 1/x, built once by Euler-Maclaurin
on power series with its truncation chosen from stated error bounds, is
evaluated by Horner plus 1/x; everywhere else mpmath's zeta (Euler-Maclaurin
with the shift and correction order chosen internally) evaluates the value.
This module adds the pole signalling and argument contracts the rest of the
package relies on, plus the character machinery (values, Gauss sums,
L-functions) needed for the additive/multiplicative twist conversions.

Characters are built from a primitive root, so any modulus with a cyclic
unit group works; the verification chain only uses modulus 1, 4 and odd
primes.

Hurwitz zeta values are memoised in a bounded LRU cache keyed by the exact
arguments and the working precision, in front of both routes, so a run
evaluates each value once no matter how many twists, contour nodes or shadow
checks ask for it; the series coefficients sit in a second bounded cache.
Cached values are immutable mpmath numbers and the caches are thread-safe, so
concurrent callers are fine; everything else is stateless given the
(immutable) index table.
"""

from __future__ import annotations

from contextlib import nullcontext
from fractions import Fraction
from functools import lru_cache
from math import gcd

import mpmath as mp

DEFAULT_PRECISION = 128


class PoleError(ArithmeticError):
    """The requested value sits at a pole of the function."""


def working_precision(bits: int):
    """Context manager setting the mpmath working precision in bits."""
    if bits < 53:
        raise ValueError("precision below 53 bits is not supported")
    return mp.workprec(bits)


def unit_phase(x: Fraction) -> mp.mpc:
    """e(x) = exp(2 pi i x) for exact rational x, at ambient precision."""
    return mp.expjpi(2 * mp.mpmathify(Fraction(x)))


def _precision_context(precision: int | None):
    """``precision`` bits for the block, or the ambient precision if None."""
    return mp.workprec(precision) if precision else nullcontext()


def gamma_complex(s, precision: int | None = None) -> mp.mpc:
    """Gamma(s) for complex s; raises PoleError at nonpositive integers."""
    with _precision_context(precision):
        s = mp.mpc(mp.mpmathify(s))
        if mp.im(s) == 0:
            re = mp.re(s)
            if re <= 0 and re == mp.floor(re):
                raise PoleError(f"gamma pole at s={s}")
        try:
            return mp.mpc(mp.gamma(s))
        except ValueError as exc:  # mpmath's own pole detection
            raise PoleError(f"gamma pole at s={s}") from exc


#: Distinct Hurwitz values kept; one denominator's contour nodes times its
#: numerators (256 x 24 at the largest allowed q) fit with room to spare.
_HURWITZ_CACHE_SIZE = 1 << 13


#: |s - 1| served by the Taylor series at s = 1: the radius-1/4 contour
#: nodes there can sit one ulp outside 1/4.
_SERIES_RADIUS = 0.26
#: Extra bits carried by the series build and evaluation.
_SERIES_GUARD = 20


@lru_cache(maxsize=512)
def _hurwitz_series_at_1(a_mpf: tuple, prec: int) -> tuple:
    """Taylor coefficients c_0..c_M of zeta(1+x, a) - 1/x, computed at
    prec + guard bits, with truncation error below 2^-(prec+guard) on
    |x| <= rho.

    Euler-Maclaurin with shift N = 2J and J Bernoulli terms, run on power
    series in x (F. Johansson, Numer. Algorithms 2015), with L_k = log(k+a):

      sum_{k<N} e^(-x L_k)/(k+a) + (e^(-x L_N) - 1)/x + e^(-x L_N) P(x),
      P(x) = 1/(2(N+a)) + sum_{j<=J} B_2j/(2j)! (N+a)^-2j prod_{i<2j} (x+i).

    J is the first whose remainder bound (Johansson's Theorem 1)
    4 (1+rho)_2J / ((2 pi)^2J (2J-rho) (N+a)^(2J-rho)) is below half the
    target, and M >= 2J-1 the first degree whose Taylor tail bound
    S (Lam rho)^(M+1)/(M+1)! e^(Lam rho) is below the other half, with
    Lam = max |L_k| and S = sum_{k<N} 1/(k+a) + L_N + |P|((M+1)/Lam), where
    |P| has the absolute values of P's coefficients.
    """
    wp = prec + _SERIES_GUARD
    with mp.workprec(53):  # the bounds; mpf exponents cannot underflow
        a, rho = mp.make_mpf(a_mpf), mp.mpf(_SERIES_RADIUS)
        half_eps = mp.ldexp(1, -wp - 1)
        big_j = 1
        while 4 * mp.rf(1 + rho, 2 * big_j) / (
            (2 * mp.pi * (2 * big_j + a)) ** (2 * big_j) * (2 * big_j - rho)
        ) * (2 * big_j + a) ** rho > half_eps:
            big_j += 1
        n = 2 * big_j
        lam = max(abs(mp.log(a)), mp.log(n + a))
        weights = mp.fsum(1 / (k + a) for k in range(n)) + mp.log(n + a) + 1 / (2 * (n + a))
        m = n - 1
        while (weights + mp.fsum(
            abs(mp.bernoulli(2 * j)) / mp.factorial(2 * j) / (n + a) ** (2 * j)
            * mp.rf((m + 1) / lam + 1, 2 * j - 1) for j in range(1, big_j + 1)
        )) * (lam * rho) ** (m + 1) / mp.factorial(m + 1) * mp.exp(lam * rho) > half_eps:
            m += 1
    with mp.workprec(wp):
        a = mp.make_mpf(a_mpf)
        power_sums = [mp.mpf(0)] * (m + 1)  # sum_k (-L_k)^i / (k+a)
        for k in range(n):
            term, minus_log = 1 / (k + a), -mp.log(k + a)
            for i in range(m + 1):
                power_sums[i] += term
                term *= minus_log
        exp_series, minus_log = [mp.mpf(1)], -mp.log(n + a)  # e^(-x L_N)
        for i in range(1, m + 2):
            exp_series.append(exp_series[-1] * minus_log / i)
        bracket = [1 / (2 * (n + a))] + [mp.mpf(0)] * (n - 1)
        rising = [1]  # prod_{i' <= i} (x+i'), exact integer coefficients
        for i in range(1, n):
            rising = [lo + i * hi for lo, hi in zip([0] + rising, rising + [0])]
            if i % 2:
                weight = mp.bernoulli(i + 1) / mp.factorial(i + 1) / (n + a) ** (i + 1)
                for d, c in enumerate(rising):
                    bracket[d] += weight * c
        return tuple(
            power_sums[i] / mp.factorial(i)
            + exp_series[i + 1]
            + mp.fsum(bracket[d] * exp_series[i - d] for d in range(min(i + 1, n)))
            for i in range(m + 1)
        )


@lru_cache(maxsize=_HURWITZ_CACHE_SIZE)
def _hurwitz_memo(s_mpc: tuple, a_mpf: tuple, prec: int) -> mp.mpc:
    """zeta(s, a) at ``prec`` bits, keyed by the exact mpmath values: the
    Taylor series at s = 1 on |s - 1| <= rho, mp.zeta elsewhere."""
    with mp.workprec(prec):
        s = mp.make_mpc(s_mpc)
        if abs(s - 1) > _SERIES_RADIUS:
            return mp.mpc(mp.zeta(s, mp.make_mpf(a_mpf)))
        coeffs = _hurwitz_series_at_1(a_mpf, prec)
        with mp.workprec(prec + _SERIES_GUARD):
            x = s - 1
            value = mp.polyval(coeffs[::-1], x) + 1 / x
        return +value


def hurwitz_zeta(s, a, precision: int | None = None) -> mp.mpc:
    """Hurwitz zeta(s, a) for a > 0 (contract range a in (0, 1]);
    raises PoleError at s = 1.

    The arguments are converted at the requested precision, and the value
    is memoised on (s, a, precision) exactly.
    """
    with _precision_context(precision):
        s = mp.mpc(mp.mpmathify(s))
        a = mp.mpmathify(a)
        if a <= 0:
            raise ValueError(f"need a > 0, got a={a}")
        if s == 1:
            raise PoleError("Hurwitz zeta pole at s=1")
        return _hurwitz_memo(s._mpc_, a._mpf_, mp.mp.prec)


# ---------------------------------------------------------------------------
# Dirichlet characters mod m (cyclic unit group)
# ---------------------------------------------------------------------------

def _unit_group_order(m: int) -> int:
    return sum(1 for a in range(1, m + 1) if gcd(a, m) == 1)


def primitive_root(m: int) -> int:
    """Smallest primitive root mod m; raises for non-cyclic unit groups."""
    if m == 1:
        return 1
    order = _unit_group_order(m)
    for g in range(2, m + 1):
        if gcd(g, m) != 1:
            continue
        seen = 1
        x = g % m
        while x != 1:
            x = x * g % m
            seen += 1
        if seen == order:
            return g
    raise ValueError(f"(Z/{m}Z)* is not cyclic; no primitive root")


class DirichletCharacter:
    """chi_k mod m with chi(g^j) = e(k j / phi(m)) for a primitive root g.

    Values are roots of unity of order dividing phi(m), realized numerically
    at the ambient precision; chi(n) = 0 when gcd(n, m) > 1.
    """

    def __init__(self, modulus: int, index: int):
        if modulus < 1:
            raise ValueError("modulus must be >= 1")
        self.modulus = modulus
        self.order = _unit_group_order(modulus)
        self.index = index % self.order
        g = primitive_root(modulus)
        table = {}
        x, j = 1, 0
        while j < self.order:
            table[x] = j
            x = x * g % modulus
            j += 1
        self._log = table

    @property
    def is_principal(self) -> bool:
        return self.index == 0

    def exponent_of(self, n: int) -> Fraction | None:
        """chi(n) = e(exponent_of(n)); None when gcd(n, m) > 1."""
        n = n % self.modulus
        if self.modulus == 1:
            return Fraction(0)
        if gcd(n, self.modulus) != 1:
            return None
        return Fraction(self.index * self._log[n], self.order)

    def value(self, n: int) -> mp.mpc:
        e = self.exponent_of(n)
        if e is None:
            return mp.mpc(0)
        return unit_phase(e)

    __call__ = value

    def conjugate(self) -> "DirichletCharacter":
        return DirichletCharacter(self.modulus, -self.index)

    def __eq__(self, other):
        return (
            isinstance(other, DirichletCharacter)
            and self.modulus == other.modulus
            and self.index == other.index
        )

    def __hash__(self):
        return hash((self.modulus, self.index))

    def __repr__(self):
        return f"DirichletCharacter(modulus={self.modulus}, index={self.index})"


def characters_mod(m: int, include_principal: bool = True):
    """All phi(m) characters mod m, principal first."""
    order = _unit_group_order(m)
    start = 0 if include_principal else 1
    return [DirichletCharacter(m, k) for k in range(start, order)]


def gauss_sum(chi: DirichletCharacter) -> mp.mpc:
    """tau(chi) = sum_{a mod m} chi(a) e(a/m)."""
    m = chi.modulus
    total = mp.mpc(0)
    for a in range(1, m + 1):
        e = chi.exponent_of(a)
        if e is None:
            continue
        total += unit_phase(e + Fraction(a, m))
    return total


def dirichlet_l(s, chi: DirichletCharacter, precision: int | None = None) -> mp.mpc:
    """L(s, chi) = m^-s sum_a chi(a) zeta(s, a/m); PoleError for the
    principal character at s = 1."""
    s = mp.mpc(s)
    if chi.is_principal and s == 1:
        raise PoleError("L(s, principal) pole at s=1")
    m = chi.modulus
    with _precision_context(precision):
        total = mp.mpc(0)
        for a in range(1, m + 1):
            e = chi.exponent_of(a)
            if e is None:
                continue
            if s == 1:
                # poles of the individual zeta(s, a/m) cancel since
                # sum chi(a) = 0; the finite parts are -psi(a/m)
                total += unit_phase(e) * (-mp.psi(0, mp.mpf(a) / m))
            else:
                total += unit_phase(e) * hurwitz_zeta(s, Fraction(a, m))
        return mp.power(m, -s) * total
