"""High-precision special functions and Dirichlet characters.

Precision comes from the context: every value is computed at the ambient
mpmath precision ``mp.mp.prec`` (wrap a call in ``mp.workprec`` for more
bits), and every cache keys on it.  Hurwitz zeta(s, a) has two routes.  When
0 < a <= 1 and s lies within 0.26 of an integer c in -3..17 (the discs about
s = 1, where the square laws sample, about twist-grid's integer points at
t = 0, and about the main term's shifts of points near 1 - nu, which the tests'
contours sample), one Taylor series per (c, a, precision) of (s-1) zeta(s, a),
the entire part of an Euler-Maclaurin sum times s - 1 plus the pole term's
numerator (N+a)^(1-s), built once in fixed point with its sizes from log-space
error bounds, is evaluated by one Horner pass and divided once by s - 1, within
2^-(prec+20) max(1, |zeta|).  gamma_0(a) = -psi(a), the constant term of
zeta(s, a) - 1/(s-1), which the twists' c_-1 and L(1, chi) at s = 1 read, is
summed as its own Euler-Maclaurin constant term, with no series.
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
evaluates each value once no matter how many twists, circle nodes or shadow
checks ask for it; the series coefficients sit in a second bounded cache.
Cached values are immutable mpmath numbers and the caches are thread-safe, so
concurrent callers are fine; everything else is stateless given the
(immutable) index table.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import count, repeat
from math import ceil, exp, factorial, fsum, gcd, lgamma, log, pi
from operator import mul, rshift

import mpmath as mp
from mpmath.libmp import (fone, from_float, from_int, from_man_exp, from_rational, fzero,
                          mpc_div, mpc_pos, mpf_add, mpf_div, mpf_le, mpf_log,
                          mpf_mul, mpf_shift, mpf_sub, round_nearest, to_int, to_rational)


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
#: keeps 96 and `euler` none, and the 16 square-law nodes of its largest
#: character check (mod 13) take 208.
_HURWITZ_CACHE_SIZE = 1 << 13


#: |s - c| served by the Taylor series at the integer c: the radius-1/4
#: square-law and test-contour nodes there can sit one ulp outside 1/4.
_SERIES_RADIUS = 0.26
#: Centers with a series: the main term's shifts s + nu of points near
#: 1 - nu, nu <= 4, reach 17 at K = 16 (the tests' contours sample them), and
#: twist-grid's reflected kernel reads integer centers at t = 0.
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
    rows = _log_sum([-c * x for x in logs[:n]] + [pole])  # and the rows, free of m

    def log_tail(m):
        y = abs(c) + (m + 1) / lam
        bracket = _log_sum([-log(2)] + [w + lgamma(y + 2 * j - 1) - lgamma(y)
                                        for j, w in enumerate(weights, 1)])
        return (_log_sum([rows, bracket - c * logs[n]])
                + (m + 1) * log(lam * rho) - lgamma(m + 2) + lam * rho)
    while log_tail(m) > log_target:
        m += 1
    cancel = 0 if c > 1 else ceil(_log_sum([(rho - c) * x for x in logs[:n]]) / log(2) + 1e-9)
    return n, m, prec + _SERIES_GUARD + (n * (m + 1)).bit_length() + cancel


#: Series kept, one per (center, a, precision), 2-3.5 kB each at 128 bits:
#: every numerator of every q <= 24 at s = 1 plus a few alphas' other
#: centers fit; `verify` at its defaults builds 7 and `euler` none.
@lru_cache(maxsize=512)
def _hurwitz_series(c: int, a_mpf: tuple, prec: int) -> tuple:
    """(wp, coeffs, e_0, p_0): zeta(c+x, a) = G(x)/(s-1) within 2^-(prec+guard) max(1, |zeta|)
    on |x| <= rho, G(x) = (x+c-1) E(x) + P(x) with E the Taylor series of the entire part and
    P that of the pole term's numerator (N+a)^(1-s) = (N+a)^(1-c) e^(-x L_N): coeffs are G's,
    highest degree first, e_0 and p_0 the constant terms of E and P, all in units of 2^-wp.

    Euler-Maclaurin with shift N = 2J and J Bernoulli terms (F. Johansson, Numer. Algorithms
    2015), L_k = log(k+a), keeps the pole term closed and runs the entire part on power
    series in x = s - c:

      sum_{k<N} (k+a)^-c e^(-x L_k) + e^(-x L_N) B(x),
      B(x) = (N+a)^-c [1/2 + sum_{j<=J} B_2j/(2j)! (N+a)^(1-2j) prod_{i<2j-1} (x+c+i)].

    J is the first whose remainder bound (Johansson's Theorem 1) 4 (|c|+rho)_2J / ((2 pi)^2J
    (2J+c-rho-1) (N+a)^(2J+c-rho-1)) is below half the target, and M >= 2J-1 the first degree
    whose Taylor tail bound S (Lam rho)^(M+1)/(M+1)! e^(Lam rho) is below the other half, with
    Lam = max |L_k| and S = sum_{k<N} (k+a)^-c + |B|((M+1)/Lam) + (N+a)^(1-c)/d, |B| taking
    (|c| + y)_(2j-1) for each product and d = |c-1| - rho <= |s-1| (or rho at c = 1, P's
    tail being O(x^(M+1))); G, of degree M+1, keeps that tail after the division by s-1.
    Fixed point at wp bits adds bit_length(N (M+1)) bits for its truncations and, for c <= 1,
    where the terms cancel against the pole term, log2 sum_{k<N} (k+a)^(rho-c).  The rows
    t_k (-L_k)^i start from t_k = (k+a)^-c, exact rationals rounded once, and take one floored
    product by -L_k (`_minus_logs`, within 2 units) per degree, i! dividing each column once:
    on |x| <= rho a row errs by at most 1.4 + (1 + 2 t_k) rho e^(Lam rho) <= 2.2 + 1.7 t_k
    units.  B is built on integers: its weights are rounded once at wp + e bits, 2^e >
    (N+|c|)! >= twice any rising-factorial coefficient sum, and B is shifted down once,
    rounded, to within (J+3)/4 <= N/2 units per coefficient, which the bit_length(N (M+1))
    bits cover.  P, the last row times the exact (N+a)^(1-c), errs by about 10 (N+a)^(1-c)
    units, under 40 2^cancel for c <= 0 (N >= 14: compare the integral of the increasing
    terms).  Horner on G at the truncated x floors 2(M+2) times, and G's units are divided by
    |s-1| >= 0.74 off c = 1; at c = 1 they are relative to |1/x| <= |zeta| + 2^cancel.  The
    same bits cover these, one mpc division included.
    """
    n, m, wp = _series_size(c, float(mp.make_mpf(a_mpf)), prec)
    num, den = to_rational(a_mpf)  # a = num/den
    bucket = -(-wp // 64) * 64
    logs = [x >> bucket - wp for x in _minus_logs(a_mpf, bucket, -(-(n + 1) // 16) * 16)[:n + 1]]

    def power(x, j):  # (x/den)^j as (top, bottom)
        return (x ** j, den ** j) if j >= 0 else (den ** -j, x ** -j)
    terms = [(2 * (top << wp) + bottom) // (2 * bottom)  # (k+a)^-c, to nearest
             for top, bottom in (power(k * den + num, -c) for k in range(n))] + [1 << wp]
    columns, exp_row = [sum(terms) - terms[-1]], [terms[-1]]  # E's series sums, then B's row
    for i in range(1, m + 1):  # the rows t_k (-L_k)^i, divided by i! once per column
        terms = list(map(rshift, map(mul, terms, logs), repeat(wp)))
        columns.append((sum(terms) - terms[-1]) // factorial(i))
        exp_row.append(terms[-1] // factorial(i))
    num, extra = num + n * den, factorial(n + abs(c)).bit_length()  # N + a = num/den
    top, bottom = power(num, -c)  # (N+a)^-c
    bracket = [((top << wp + extra) + bottom) // (2 * bottom)] + [0] * (n - 1)  # B(x)
    for i, rising in enumerate(_rising_rows(c, n)):
        top, bottom = top * den, bottom * num * (2 * i + 2)  # (N+a)^(-c-2i-1)/(2i+2)!
        p, q = _bernoulli_fraction(2 * i + 2)  # B_2j/(2j)! (N+a)^(1-2j-c), to nearest
        weight = ((p * top << wp + extra + 1) + q * bottom) // (2 * q * bottom)
        top, bottom = top * den, bottom * num * (2 * i + 3)
        bracket[:len(rising)] = [b + weight * r for b, r in zip(bracket, rising)]
    bracket = [b + (1 << extra - 1) >> extra for b in bracket]
    entire = [col + (sum(map(mul, bracket[:i + 1], exp_row[i::-1])) >> wp)
              for i, col in enumerate(columns)]
    top, bottom = power(num, 1 - c)
    pole = [x * top // bottom for x in exp_row]  # P = (N+a)^(1-c) e^(-x L_N)
    g = [(c - 1) * e + p + d for e, p, d in zip(entire + [0], pole + [0], [0] + entire)]
    return wp, tuple(reversed(g)), entire[0], pole[0]  # G = (x + c - 1) E + P


@lru_cache(maxsize=64)
def _minus_logs(a_mpf: tuple, bucket: int, length: int) -> tuple:
    """-log(k+a) 2^bucket for k < length, mpmath's at bucket + 8 bits floored, within
    a unit: one table per (a, bucket, length) for every center (length in 16s)."""
    with mp.workprec(bucket + 8):
        a = mp.make_mpf(a_mpf)
        return tuple(int(mp.floor(mp.ldexp(-mp.log(k + a), bucket))) for k in range(length))


@lru_cache(maxsize=64)
def _rising_rows(c: int, n: int) -> tuple:
    """The integer rows, lowest first, of prod_{i' <= i} (x+c+i') for even i < n-1."""
    rows = [[1]]
    for i in range(n - 1):
        rows.append([lo + (c + i) * hi for lo, hi in zip([0] + rows[-1], rows[-1] + [0])])
    return tuple(map(tuple, rows[1::2]))


_bernoulli_fraction = lru_cache(maxsize=None)(mp.bernfrac)
_RADIUS_SQUARED = mpf_mul(from_float(_SERIES_RADIUS), from_float(_SERIES_RADIUS))  # exactly


@lru_cache(maxsize=_HURWITZ_CACHE_SIZE)
def _hurwitz_memo(s_mpc: tuple, a_mpf: tuple, prec: int) -> mp.mpc:
    """zeta(s, a) at ``prec`` bits, keyed by the exact mpmath values: the
    series at the integer c on |s - c| <= rho (tested exactly) for c in the
    series centers and a <= 1, mp.zeta elsewhere."""
    re, im = s_mpc
    if mpf_le(a_mpf, fone) and re[2] + re[3] < 6:  # a <= 1 and |Re s| < 32
        c = to_int(re, round_nearest)
        offset = mpf_sub(re, from_int(c))  # exact, as are the squares
        if c in _SERIES_CENTERS and mpf_le(mpf_add(mpf_mul(offset, offset), mpf_mul(im, im)),
                                           _RADIUS_SQUARED):
            return mp.make_mpc(mpc_pos(_series_value(s_mpc, c, a_mpf, prec), prec, round_nearest))
    with mp.workprec(prec):
        return mp.mpc(mp.zeta(mp.make_mpc(s_mpc), mp.make_mpf(a_mpf)))


def _series_value(s_mpc: tuple, c: int, a_mpf: tuple, prec: int) -> tuple:
    """zeta(s, a) as an mpc value tuple by the series at c, unrounded at its wp
    bits: G by one Horner loop in fixed point at x = s - c truncated to
    2^-wp, then one mpc division by s - 1.  At s = c exactly, E_0 + P_0/(c-1),
    each rounded at wp bits, so that a zero of zeta(c, a) comes out exact."""
    wp, coeffs, e_0, p_0 = _hurwitz_series(c, a_mpf, prec)
    re, im = s_mpc
    if re == from_int(c) and im == fzero:
        e_0, p_0 = (from_man_exp(x, -wp, wp, round_nearest) for x in (e_0, p_0))
        pole = mpf_div(p_0, from_int(c - 1), wp, round_nearest)
        return mpf_add(e_0, pole, wp, round_nearest), fzero
    x_re, x_im = (to_int(mpf_shift(part, wp)) for part in (mpf_sub(re, from_int(c)), im))
    g_re = g_im = 0
    for coeff in coeffs:
        g_re, g_im = coeff + (x_re * g_re - x_im * g_im >> wp), x_re * g_im + x_im * g_re >> wp
    g = from_man_exp(g_re, -wp, wp, round_nearest), from_man_exp(g_im, -wp, wp, round_nearest)
    return mpc_div(g, (mpf_sub(re, fone, wp, round_nearest), im), wp, round_nearest)


def _stieltjes_0(a, prec: int) -> mp.mpf:
    """gamma_0(a) = -psi(a), the constant term of zeta(s, a) - 1/(s-1), for an mpf a > 0 at
    the ambient precision: the Euler-Maclaurin constant term at z = N + a (DLMF 5.11.2 with
    psi(a) = psi(z) - sum_{k<N} 1/(k+a)),

      sum_{k<N} 1/(k+a) - log z + 1/(2z) + sum_{j<=J} B_2j / (2j z^2j),

    whose remainder, z being positive, is at most the first omitted term (DLMF 5.11(ii)).
    N = (prec+guard)/4, and J is the first that puts that term's bound 4 (2J+2)!/((2J+2) (2 pi
    N)^(2J+2)) (|B_2j| <= 4 (2j)!/(2 pi)^2j, DLMF 24.9.8) below 2^-(prec+guard+1).  The terms
    are exact rationals floored to units of 2^-wp, and log z is mpmath's at wp bits: N + J + 6
    units, below 2^-(prec+guard+1) too.  So the value lies within 2^-(prec+20) of gamma_0(a)
    before its one rounding at the ambient precision."""
    n, target = (prec + _SERIES_GUARD) // 4, -(prec + _SERIES_GUARD + 1) * log(2)
    big_j = next(j for j in count(1)
                 if log(2 / (j + 1)) + lgamma(2 * j + 3) - (2 * j + 2) * log(2 * pi * n) < target)
    wp = prec + _SERIES_GUARD + 1 + (n + big_j + 6).bit_length()
    num, den = to_rational(a._mpf_)
    z = num + n * den  # N + a = z/den
    total = sum((den << wp) // (k * den + num) for k in range(n)) + (den << wp - 1) // z
    for j in range(1, big_j + 1):
        p, q = _bernoulli_fraction(2 * j)
        total += (p * den ** (2 * j) << wp) // (2 * j * q * z ** (2 * j))
    log_z = mpf_log(from_rational(z, den, wp, round_nearest), wp, round_nearest)
    return mp.make_mpf(mpf_sub(from_man_exp(total, -wp), log_z, mp.mp.prec, round_nearest))


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
    return hurwitz_batch(s, [a])[0]


def hurwitz_batch(s: mp.mpc, params) -> list[mp.mpc]:
    """zeta(s, a) for each mpf a > 0 in ``params``, s a finite mpc other than 1:
    `hurwitz_zeta`'s values, with its conversions and checks made once.
    Below the real axis, a being real, zeta(conj s, a) = conj zeta(s, a) (Schwarz)."""
    prec, mirror = mp.mp.prec, s.imag < 0
    key = (mp.conj(s) if mirror else s)._mpc_
    values = [_hurwitz_memo(key, a._mpf_, prec) for a in params]
    return [mp.conj(value) for value in values] if mirror else values


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
    total, values = mp.mpc(0), s != 1 and hurwitz_batch(s, hurwitz_parameters(m, prec))
    for a, x in enumerate(hurwitz_parameters(m, prec), 1):
        e = chi.exponent_of(a)
        if e is not None:  # chi(a) = e(e) from the table of unit_phase values
            # at s = 1 the poles of the zeta(s, a/m) cancel since sum chi(a) = 0,
            # leaving their finite parts gamma_0(a/m) = -psi(a/m)
            total += roots_of_unity(e.denominator, prec)[e.numerator % e.denominator] * (
                values[a - 1] if values else _stieltjes_0(x, prec))
    return mp.power(m, -s) * total
