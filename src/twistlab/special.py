"""High-precision special functions and Dirichlet characters.

Gamma and the Hurwitz zeta function are delegated to mpmath, which evaluates
them to the ambient binary precision (Euler-Maclaurin for Hurwitz zeta, with
the shift and correction order chosen internally); this module adds the pole
signalling and argument contracts the rest of the package relies on, plus
the character machinery (values, Gauss sums, L-functions) needed for the
additive/multiplicative twist conversions.

Characters are built from a primitive root, so any modulus with a cyclic
unit group works; the verification chain only uses modulus 1, 4 and odd
primes.

Hurwitz zeta values are memoised in a bounded LRU cache keyed by the exact
arguments and the working precision, so a run evaluates each value once no
matter how many twists, contour nodes or shadow checks ask for it.  Cached
values are immutable mpmath numbers and the cache is thread-safe, so
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


@lru_cache(maxsize=_HURWITZ_CACHE_SIZE)
def _hurwitz_memo(s_mpc: tuple, a_mpf: tuple, prec: int) -> mp.mpc:
    """mp.zeta(s, a) at ``prec`` bits, keyed by the exact mpmath values."""
    with mp.workprec(prec):
        return mp.mpc(mp.zeta(mp.make_mpc(s_mpc), mp.make_mpf(a_mpf)))


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
