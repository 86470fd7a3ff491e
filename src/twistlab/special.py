"""High-precision special functions and Dirichlet characters.

Precision comes from the context: every value is computed at the ambient
mpmath precision ``mp.mp.prec`` (wrap a call in ``mp.workprec`` for more
bits), and every cache keys on it.  Hurwitz zeta(s, a) has two routes.  When
0 < a <= 1 and s lies within 0.26 of an integer c in -3..17 (the discs of the
verification chain: s = 1, the polar consistency contours at 1 - nu and their
main-term shifts), one Taylor series per (c, a, precision) of the entire part
of an Euler-Maclaurin sum, built once in fixed point with its sizes from
log-space error bounds, is evaluated by Horner beside the pole term's row
(N+a)^(1-s), divided once by s - 1, within 2^-(prec+20) max(1, |zeta|).
The series at center 1 also gives gamma_0(a) = -psi(a), the constant term of
zeta(s, a) - 1/(s-1), which the twists' c_-1 and L(1, chi) at s = 1 read.
Every other (s, a) goes to mpmath's zeta, whose value is returned unchanged;
below the real axis a value is the conjugate of its mirror's (Schwarz).
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

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import ceil, exp, factorial, fsum, gcd, lgamma, log, pi

import mpmath as mp
from mpmath.libmp import to_rational


class PoleError(ArithmeticError):
    """The requested value sits at a pole of the function."""


def unit_phase(x: Fraction) -> mp.mpc:
    """e(x) = exp(2 pi i x) for exact rational x, at ambient precision."""
    return mp.expjpi(2 * mp.mpmathify(Fraction(x)))


@lru_cache(maxsize=64)
def roots_of_unity(n: int, prec: int) -> tuple:
    """(e(0/n), e(1/n), ..., e((n-1)/n)) at ``prec`` bits."""
    with mp.workprec(prec):
        return tuple(unit_phase(Fraction(r, n)) for r in range(n))


@lru_cache(maxsize=64)
def hurwitz_parameters(q: int, prec: int) -> tuple:
    """The Hurwitz parameters (1/q, 2/q, ..., q/q) as mpf at ``prec`` bits."""
    with mp.workprec(prec):
        return tuple(mp.mpmathify(Fraction(u, q)) for u in range(1, q + 1))


#: Distinct Hurwitz values kept, about 0.5 kB each: `verify` at its defaults
#: keeps 563 and `euler` none, and the 16 square-law nodes of its largest
#: character check (mod 13) take 208.
_HURWITZ_CACHE_SIZE = 1 << 13


#: |s - c| served by the Taylor series at the integer c: the radius-1/4
#: contour nodes there can sit one ulp outside 1/4.
_SERIES_RADIUS = 0.26
#: Centers with a series: polar consistency puts contours at 1 - nu for
#: nu <= 4, and the main term shifts them by up to K = 16.
_SERIES_CENTERS = range(-3, 18)
#: Bits below 2^-prec that the series' truncation error stays under.
_SERIES_GUARD = 20


def _log_sum(logs) -> float:  # log sum exp(logs), in floats free of under- and overflow
    return (top := max(logs)) + log(fsum(exp(x - top) for x in logs))


def _series_size(c: int, a: float, prec: int) -> tuple[int, int, int]:
    """(N, M, wp) of ``_hurwitz_series`` from its bounds in floats in log space
    (lgamma; |B_2j|/(2j)! = 2 zeta(2j)/(2 pi)^2j, DLMF 25.6.2, zeta(2j) <= 1 +
    4^-j + 9^-j (1 + 3/(2j-1))): nothing underflows, and a bit of margin on
    each half of the target keeps every size at or above the exact bounds'."""
    rho, log_2pi, log_target = _SERIES_RADIUS, log(2 * pi), -(prec + _SERIES_GUARD + 2) * log(2)
    low = c - rho - 1  # Re(s) + 2J - 1 >= 2J + low on the disc
    big_j = max(1, int(-low) // 2 + 1)
    while (log(4) + lgamma(abs(c) + rho + 2 * big_j) - lgamma(abs(c) + rho) - 2 * big_j * log_2pi
           - log(2 * big_j + low) - (2 * big_j + low) * log(2 * big_j + a)) > log_target:
        big_j += 1
    n, m = 2 * big_j, 2 * big_j - 1
    logs = [log(k + a) for k in range(n + 1)]
    lam = max(abs(logs[0]), logs[n])
    weights = [log(2 + 2 * (4.0 ** -j + 9.0 ** -j * (1 + 3 / (2 * j - 1))))
               - 2 * j * log_2pi + (1 - 2 * j) * logs[n] for j in range(1, big_j + 1)]
    pole = (1 - c) * logs[n] - log(abs(c - 1) - rho if c != 1 else rho)  # log (N+a)^(1-c)/d

    def log_tail(m):
        y = abs(c) + (m + 1) / lam
        bracket = _log_sum([-log(2)] + [w + lgamma(y + 2 * j - 1) - lgamma(y)
                                        for j, w in enumerate(weights, 1)])
        return (_log_sum([-c * x for x in logs[:n]] + [bracket - c * logs[n], pole])
                + (m + 1) * log(lam * rho) - lgamma(m + 2) + lam * rho)
    while log_tail(m) > log_target:
        m += 1
    cancel = 0 if c > 1 else ceil(_log_sum([(rho - c) * x for x in logs[:n]]) / log(2) + 1e-9)
    return n, m, prec + _SERIES_GUARD + (n * (m + 1)).bit_length() + cancel


#: Series kept, one per (center, a, precision), 2-2.6 kB each at 128 bits:
#: every numerator of every q <= 24 at s = 1 plus a few alphas' polar
#: centers fit; `verify` at its defaults builds 40 and `euler` none.
@lru_cache(maxsize=512)
def _hurwitz_series(c: int, a_mpf: tuple, prec: int) -> tuple:
    """(wp, L_N, coeffs, pole_row): zeta(c+x, a) = E(x) + (N+a)^(1-s)/(s-1)
    within 2^-(prec+guard) max(1, |zeta|) on |x| <= rho, coeffs being E's
    Taylor coefficients and pole_row those of (N+a)^(1-s) = (N+a)^(1-c)
    e^(-x L_N), both as integers in units of 2^-wp, highest degree first.

    Euler-Maclaurin with shift N = 2J and J Bernoulli terms (F. Johansson,
    Numer. Algorithms 2015), L_k = log(k+a), keeps the pole term closed and
    runs the entire part on power series in x = s - c:

      sum_{k<N} (k+a)^-c e^(-x L_k) + e^(-x L_N) P(x),
      P(x) = (N+a)^-c [1/2 + sum_{j<=J} B_2j/(2j)! (N+a)^(1-2j) prod_{i<2j-1} (x+c+i)].

    J is the first whose remainder bound (Johansson's Theorem 1)
    4 (|c|+rho)_2J / ((2 pi)^2J (2J+c-rho-1) (N+a)^(2J+c-rho-1)) is below
    half the target, and M >= 2J-1 the first degree whose Taylor tail bound
    S (Lam rho)^(M+1)/(M+1)! e^(Lam rho) is below the other half, with
    Lam = max |L_k| and S = sum_{k<N} (k+a)^-c + |P|((M+1)/Lam) + (N+a)^(1-c)/d,
    |P| taking (|c| + y)_(2j-1) for each product and d = |c-1| - rho <= |s-1|
    (or rho at c = 1, the pole row's tail being O(x^(M+1))).  Fixed point at wp bits adds
    bit_length(N (M+1)) bits for its truncations and, for c <= 1, where the
    terms cancel against the pole term, log2 sum_{k<N} (k+a)^(rho-c); at c = 1
    these also cover the rows' rounding of (k+a)^-c at wp bits relative, which
    elsewhere makes the error relative to max(1, |zeta|).  P is built on
    integers: its weights are rounded once at wp + e bits, 2^e > (N+|c|)! >=
    twice any rising-factorial coefficient sum, and P is shifted down once,
    rounded, to within (J+3)/4 <= N/2 units of 2^-wp per coefficient, which
    the bit_length(N (M+1)) bits cover.  The pole row, the last row times the
    exact (N+a)^(1-c), errs by about 10 (N+a)^(1-c) units, under 40 2^cancel for
    c <= 0 (N >= 14: compare the integral of the increasing terms), and is
    divided by |s-1| >= 0.74 off c = 1; at c = 1 its error is relative to
    |1/x| <= |zeta| + 2^cancel.  The same bits cover it, one mpc division included.
    """
    n, m, wp = _series_size(c, float(mp.make_mpf(a_mpf)), prec)
    with mp.workprec(wp):
        a = mp.make_mpf(a_mpf)
        rows = []  # coefficients of (k+a)^-c e^(-x L_k) for k < N, then e^(-x L_N)
        for k in range(n + 1):
            minus_log = int(mp.ldexp(-mp.log(k + a), wp))
            rows.append(list(accumulate(
                range(1, m + 1), lambda term, i: term * minus_log // i >> wp,
                initial=int(mp.ldexp((k + a) ** -c if k < n else 1, wp)),
            )))
        num, den = to_rational(a_mpf)
        num, extra = num + n * den, factorial(n + abs(c)).bit_length()  # N + a = num/den
        top, bottom = (den ** c, num ** c) if c >= 0 else (num ** -c, den ** -c)  # (N+a)^-c
        bracket = [((top << wp + extra) + bottom) // (2 * bottom)] + [0] * (n - 1)  # P(x)
        rising = [1]  # prod_{i' <= i} (x+c+i'), exact integer coefficients
        for i in range(n - 1):
            rising = [lo + (c + i) * hi for lo, hi in zip([0] + rising, rising + [0])]
            top, bottom = top * den, bottom * num * (i + 2)  # (N+a)^(-c-i-1)/(i+2)!
            if i % 2 == 0:  # B_2j/(2j)! (N+a)^(1-2j-c) at 2^-(wp+extra), to nearest
                p, q = mp.bernfrac(i + 2)
                weight = ((p * top << wp + extra + 1) + q * bottom) // (2 * q * bottom)
                for d, r in enumerate(rising):
                    bracket[d] += weight * r
        bracket, exp_row = [b + (1 << extra - 1) >> extra for b in bracket], rows.pop()
        top, bottom = (num, den) if c <= 1 else (den, num)  # (N+a)^(1-c) = (top/bottom)^|1-c|
        return wp, mp.log(n + a), tuple(
            sum(row[i] for row in rows)
            + (sum(bracket[d] * exp_row[i - d] for d in range(min(i + 1, n))) >> wp)
            for i in reversed(range(m + 1))
        ), tuple(x * top ** abs(1 - c) // bottom ** abs(1 - c) for x in reversed(exp_row))


@lru_cache(maxsize=_HURWITZ_CACHE_SIZE)
def _hurwitz_memo(s_mpc: tuple, a_mpf: tuple, prec: int) -> mp.mpc:
    """zeta(s, a) at ``prec`` bits, keyed by the exact mpmath values: the
    series at the integer c on |s - c| <= rho for c in the series centers
    and a <= 1, mp.zeta elsewhere."""
    with mp.workprec(prec):
        s, a = mp.make_mpc(s_mpc), mp.make_mpf(a_mpf)
        c = int(mp.nint(s.real))
        if c not in _SERIES_CENTERS or abs(s - c) > _SERIES_RADIUS or a > 1:
            return mp.mpc(mp.zeta(s, a))
        return +_series_value(s, c, a_mpf, prec)


def _series_value(s, c: int, a_mpf: tuple, prec: int) -> mp.mpc:
    """zeta(s, a) by the series at c, unrounded at its wp bits: E and the pole
    row by one Horner loop in fixed point, then one mpc division by s - 1."""
    wp, _, coeffs, pole_row = _hurwitz_series(c, a_mpf, prec)
    x_re, x_im = (int(mp.ldexp(part, wp)) for part in (s.real - c, s.imag))
    re = im = p_re = p_im = 0
    for coeff, pole in zip(coeffs, pole_row):
        re, im = coeff + (x_re * re - x_im * im >> wp), x_re * im + x_im * re >> wp
        p_re, p_im = pole + (x_re * p_re - x_im * p_im >> wp), x_re * p_im + x_im * p_re >> wp
    with mp.workprec(wp):
        return (mp.mpc(mp.ldexp(re, -wp), mp.ldexp(im, -wp))
                + mp.mpc(mp.ldexp(p_re, -wp), mp.ldexp(p_im, -wp)) / (s - 1))


def _stieltjes_0(a, prec: int) -> mp.mpf:
    """p_0 = -psi(a) of x zeta(1+x, a) = x E(x) + e^(-x L_N) = 1 + p_0 x + ... for
    an mpf a, at the ambient precision from the ``prec``-bit series at center 1:
    p_0 = E_0 - L_N."""
    wp, log_n, coeffs, _ = _hurwitz_series(1, a._mpf_, prec)
    return mp.ldexp(coeffs[-1], -wp) - log_n


def hurwitz_zeta(s, a) -> mp.mpc:
    """Hurwitz zeta(s, a) for a > 0 (contract range a in (0, 1]);
    raises PoleError at s = 1.

    The arguments are converted at the ambient precision, and the value is
    memoised on (s, a, precision) exactly.
    """
    s = mp.mpc(mp.mpmathify(s))
    a = mp.mpmathify(a)
    if not (mp.isfinite(s) and mp.isfinite(a)):
        raise ValueError(f"need finite s and a, got s={s}, a={a}")
    if a <= 0:
        raise ValueError(f"need a > 0, got a={a}")
    if s == 1:
        raise PoleError("Hurwitz zeta pole at s=1")
    if s.imag < 0:  # Schwarz reflection, a being real: zeta(conj s, a) = conj zeta(s, a)
        return mp.conj(_hurwitz_memo(mp.conj(s)._mpc_, a._mpf_, mp.mp.prec))
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


def dirichlet_l(s, chi: DirichletCharacter) -> mp.mpc:
    """L(s, chi) = m^-s sum_a chi(a) zeta(s, a/m); PoleError for the
    principal character at s = 1."""
    s = mp.mpc(s)
    if chi.is_principal and s == 1:
        raise PoleError("L(s, principal) pole at s=1")
    m, prec = chi.modulus, mp.mp.prec
    total = mp.mpc(0)
    for a, x in enumerate(hurwitz_parameters(m, prec), 1):
        e = chi.exponent_of(a)
        if e is not None:
            # at s = 1 the poles of the zeta(s, a/m) cancel since sum chi(a) = 0,
            # leaving their finite parts gamma_0(a/m) = -psi(a/m)
            total += unit_phase(e) * (_stieltjes_0(x, prec) if s == 1 else hurwitz_zeta(s, x))
    return mp.power(m, -s) * total
