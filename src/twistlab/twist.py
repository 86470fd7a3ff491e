"""The divisor coefficients of zeta(s)^2 and their twists.

A linear twist of a Dirichlet series with coefficients a(n) is
F(s, alpha) = sum a(n) e(-n alpha) n^-s; the multiplicative twist by a
character chi is F(s, chi) = sum a(n) chi(n) n^-s.  Here a(n) = d(n), the
number of divisors, so F(s) = zeta(s)^2.  Twists are keyed by exact reduced
fractions throughout (Fraction reduces automatically), and negative
arguments use F(s, -a/q) = F(s, (q-a)/q).

In sigma > 1 every series sum is one pass over n <= N into the bucket sums
B_r = sum_{n = r mod m} d(n) n^-s: e(-n a/q) depends only on n mod q, so any
twist with q | m is sum_r e(-r a/q) B_r.  A grid shares one pass per s (m =
lcm of its denominators), and the additive/multiplicative identity reads every
sum off the buckets mod p.

The pass runs on Gaussian integers: n^-s in units of 2^-bits, bits a few
dozen above the working precision, and the bucket sums exact, each converted
to mpc once.  It reads no coefficient list.  n^-s is completely
multiplicative, so only primes get an evaluation of their own: at a real
integer s = k >= 2 the exact rational 1/p^k rounded once, at any other s a
transcendental one.  With L = isqrt(N), every n <= N is one of two kinds.
An L-smooth n is visited depth first from 1, multiplying by the primes
p <= L in non-decreasing order, n^-s = (n/p)^-s p^-s rounded, and d(n)
follows from d(n/p) and the exponent of p; w(m) = d(m) m^-s is kept for
every m <= L.  Any other n is m P with exactly
one prime P > L and m <= N/P < P, so d(m P) = 2 d(m).  P streams from a
bytearray sieve in descending order, so that N/P rises through 1..L and
extends running sums of w(m) per residue class; the P^-s of the primes
sharing N/P and P mod m add first, and each class takes one multiplication
by that sum.  Memory: N sieve bytes plus O(sqrt N) integers.

The additive twist has a closed Hurwitz-zeta form that continues it to the
whole plane minus the double pole at s = 1:

    sum d(n) e(-n a/q) n^-s
        = q^(-2s) sum_{u,v=1}^{q} e(-u v a/q) zeta(s, u/q) zeta(s, v/q),

the oracle of the continued twists; one batch of it mod p gives every
character twist mod p.  One pair sum, rounded once per group w = uv mod q and
per root sum, serves the values and c_-1 at s = 1; c_-2 there is the count
q^-2 sum_{u,v} e(-uvb/q) = gcd(b, q)/q, an exact fraction.  At sigma <= -1,
where its Hurwitz values would sit deep in the left half-plane, the twist grid
and the growth certificate read Hurwitz's formula instead, from Hurwitz values
at 1 - s, with a stated error radius.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import gcd, isqrt, lcm, prod

import mpmath as mp
from mpmath.libmp import (from_int, fzero, mpc_exp, mpc_mul_int, mpc_mul_mpf, mpc_pow, mpf_pow,
                          round_nearest, to_fixed)

from .euler import leading_coefficient
from .special import (
    PoleError,
    _stieltjes_0,
    characters_mod,
    gauss_sum,
    hurwitz_batch,
    hurwitz_parameters,
    roots_of_unity,
)


def reduce_mod_one(alpha) -> Fraction:
    """Reduced fraction representative of alpha in [0, 1)."""
    alpha = Fraction(alpha)
    return alpha - (alpha.numerator // alpha.denominator)


class DivisorStream:
    """a(n) = d(n), the number of divisors; coefficients of zeta(s)^2.

    The cache only ever grows, so values up to any previously requested cap
    never change.
    """

    def __init__(self):
        self._cache: list[int] = [0]  # index 0 unused; d(n) at index n

    def ensure(self, n_max: int) -> None:
        if n_max < len(self._cache):
            return
        size = max(n_max + 1, 2 * len(self._cache))
        # every divisor pair i < n/i of n below size is counted once, for i
        # up to sqrt(n); a square n = i*i adds its lone middle divisor
        counts = [0] * size
        for i in range(1, isqrt(size - 1) + 1):
            counts[i * i] += 1
            for n in range(i * (i + 1), size, i):
                counts[n] += 2
        self._cache = counts

    def values(self, n_max: int) -> list[int]:
        """[d(1), ..., d(n_max)]."""
        self.ensure(n_max)
        return self._cache[1 : n_max + 1]

    def tail_bound(self, n_max: int, sigma) -> mp.mpf:
        """Integral estimate of sum_{n>N} d(n) n^-sigma from the mean value
        d(n) ~ log n + 2*gamma."""
        sigma = mp.mpf(sigma)
        if sigma <= 1:
            raise ValueError("tail estimate needs sigma > 1")
        n = mp.mpf(n_max)
        shape = mp.log(n) / (sigma - 1) + 1 / (sigma - 1) ** 2
        return n ** (1 - sigma) * (shape + 2 * mp.euler / (sigma - 1))


_divisor_singleton: DivisorStream | None = None


def divisor_stream(shared: bool = True) -> DivisorStream:
    """The divisor-function stream; by default a process-wide shared cache."""
    global _divisor_singleton
    if not shared:
        return DivisorStream()
    if _divisor_singleton is None:
        _divisor_singleton = DivisorStream()
    return _divisor_singleton


# ---------------------------------------------------------------------------
# Twist evaluation
# ---------------------------------------------------------------------------

TwistPartialSum = namedtuple("TwistPartialSum", "value tail_estimate")


#: Bits below 2^-bits carried by the prime powers of a series pass, so that
#: their rounding stays a small part of the per-n error bound stated in
#: `_divisor_sums`.
_TABLE_GUARD = 8


def _nearest(x, scale: int) -> int:
    """The integer nearest x * 2^scale for an mpf value tuple x (ties round up)."""
    return to_fixed(x, scale + 1) + 1 >> 1


def _fixed_power(p: int, minus_s, scale: int) -> tuple[int, int]:
    """The Gaussian integer nearest p^minus_s 2^scale: 1/p^k rounded once for an
    int minus_s = -k, else the value at the working precision of mpf_pow (real)
    or mpc_pow, the libmp routines mp.power dispatches to, rounding to nearest."""
    if isinstance(minus_s, int):
        return (1 << scale + 1) // p ** -minus_s + 1 >> 1, 0
    if isinstance(minus_s, mp.mpf):
        return _nearest(mpf_pow(from_int(p), minus_s._mpf_, mp.mp.prec, round_nearest), scale), 0
    re, im = mpc_pow((from_int(p), fzero), minus_s._mpc_, mp.mp.prec, round_nearest)
    return _nearest(re, scale), _nearest(im, scale)


def _power_cut(sigma, scale: int, n_max: int) -> int:
    """min(n_max, floor(2^((scale + 2)/sigma))) for sigma > 0, else n_max: every
    n above it has n^-sigma < 2^-(scale+2), a quarter unit at 2^-scale, so
    its power rounds to exactly 0 there."""
    if sigma > 0 and (scale + 2) / sigma < n_max.bit_length():
        return min(n_max, int(mp.power(2, (scale + 2) / sigma)))
    return n_max


def _prime_flags(limit: int) -> bytearray:
    """flags[n] = 1 exactly when n <= limit is prime."""
    flags = bytearray([1]) * (limit + 1)
    flags[: min(2, limit + 1)] = bytes(min(2, limit + 1))
    for i in range(2, isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, limit + 1, i)))
    return flags


def _divisor_sums(n_max: int, s, modulus: int, folds=None):
    """Bucket sums sum_{n <= N, n = r mod modulus} d(n) n^-s, N = n_max, each
    converted to mpc once; a modulus above N gets one bucket per n.  ``folds``,
    divisors p of ``modulus``, gives instead the buckets mod p of each p, bit
    for bit a pass mod p.

    The pass (see the module docstring) runs in units of 2^-bits,
    bits = prec + bit_length(N bit_length(N)).  A table entry x = p^-s is
    evaluated by mpmath at bits + 18 bits and rounded to the nearest multiple
    of 2^-(bits+8), so it is within 2^-(bits+8) max(1, |x|).  At a real
    integer s = k >= 2 it is the exact 1/p^k rounded once, within
    2^-(bits+9), and mpmath's integer: 1/p^k is the tie 2^-(bits+9), which
    both round up, or lies p^-k 2^-(bits+9) or more from every tie, beyond
    mpmath's error.  A product m^-s p^-s is rounded to the nearest multiple
    of 2^-bits, within 2^-bits/sqrt(2).  A smooth n^-s is Omega(n) such
    products from 1^-s = 1, and the errors add: absolutely for sigma >= 0,
    where every |p^-s| <= 1, relatively for sigma < 0, where every
    |p^-s| >= 1.  The terms m P multiply m^-s by P^-s exactly.  So for any
    sigma, per n, the term
    d(n) n^-s is within

        (Omega(n) + 1) 2^-bits max(1, n^-sigma) d(n).

    As sum_{n <= N} (Omega(n) + 1) <= N bit_length(N) <= 2^(bits - prec), the
    buckets are within 2^-prec max_n d(n) max(1, n^-sigma) of the truth
    before their one rounding at the working precision.

    For sigma > 0 a prime with p^-sigma < 2^-(bits+10) rounds to exactly 0,
    and so does every term it divides.  The pass stops streaming primes there
    and skips the multiples of every smooth n whose value has rounded to 0, so
    its result is bit for bit that of the full pass.
    """
    s = mp.mpc(s)
    size = min(modulus, n_max + 1)
    sigma = s.real
    bits = mp.mp.prec + (n_max * n_max.bit_length()).bit_length()
    table_scale = bits + _TABLE_GUARD
    root = isqrt(n_max)
    with mp.workprec(table_scale + 10):  # every table entry
        cut = _power_cut(sigma, table_scale, n_max)
        flags = _prime_flags(cut)
        small = [p for p in range(2, min(root, cut) + 1) if flags[p]]
        # an integer s = k >= 2 reads the exact 1/p^k, another real mpmath's real power
        minus_s = -s if s.imag else -int(sigma) if sigma >= 2 and sigma == int(sigma) else -sigma
        small_values = [_fixed_power(p, minus_s, table_scale) for p in small]

        # L-smooth n, depth first from 1: the children of n are n p for p >= its
        # largest prime, each summed as it is made.  An entry carries d(n) and the
        # exponent e of that prime: a child by the same prime has d (e + 2)/(e + 1),
        # by a larger one 2 d.  Only a child with children (n p^2 <= N) is visited.
        weight_re, weight_im = [0] * (root + 1), [0] * (root + 1)  # d(m) m^-s, m <= L
        smooth_re, smooth_im = [0] * size, [0] * size
        half = 1 << table_scale - 1
        stack = []
        if n_max >= 1:
            smooth_re[1 % modulus] = weight_re[1] = 1 << bits
            stack.append((1, 1 << bits, 0, 0, 1, 0))
        while stack:
            n, vr, vi, first, d, e = stack.pop()
            for i in range(first, len(small)):
                p = small[i]
                child = n * p
                if child > n_max:
                    break
                pr, pi = small_values[i]
                cr = vr * pr - vi * pi + half >> table_scale
                ci = vr * pi + vi * pr + half >> table_scale
                if not (cr or ci):  # a zero value has only zero multiples
                    continue
                dc, ec = (d * (e + 2) // (e + 1), e + 1) if i == first else (2 * d, 1)
                r = child % modulus
                smooth_re[r] += dc * cr
                smooth_im[r] += dc * ci
                if child <= root:
                    weight_re[child], weight_im[child] = dc * cr, dc * ci
                if child * p <= n_max:
                    stack.append((child, cr, ci, i, dc, ec))

        # n = m P with one prime P > L: m <= top = N // P < P, so d(m P) = 2 d(m).
        # As P falls, top rises through 1..L and extends the running class sums
        # acc_j = sum_{m <= top, m = j mod modulus} w(m); the primes of one top
        # add their 2 P^-s per class c = P mod modulus, and each (c, j) takes one
        # product into the bucket of j c
        width = min(modulus, root + 1)
        acc_re, acc_im = [0] * width, [0] * width
        large_re, large_im = [0] * size, [0] * size
        for top in range(1, root + 1):
            acc_re[top % modulus] += weight_re[top]
            acc_im[top % modulus] += weight_im[top]
            low, high = max(root, n_max // (top + 1)), min(cut, n_max // top)
            groups = {}
            for p in compress(range(high, low, -1), flags[high:low:-1]):
                pr, pi = _fixed_power(p, minus_s, table_scale)
                gr, gi = groups.get(p % modulus, (0, 0))
                groups[p % modulus] = gr + 2 * pr, gi + 2 * pi
            for c, (gr, gi) in groups.items():
                for j in range(min(width, top + 1)):
                    xr, xi = acc_re[j], acc_im[j]
                    if xr or xi:
                        r = j * c % modulus
                        large_re[r] += xr * gr - xi * gi
                        large_im[r] += xr * gi + xi * gr
    re = [(x << table_scale) + y for x, y in zip(smooth_re, large_re)]
    im = [(x << table_scale) + y for x, y in zip(smooth_im, large_im)]
    scale = bits + table_scale
    if folds is not None:
        return [[mp.mpc(mp.ldexp(sum(re[r::p]), -scale), mp.ldexp(sum(im[r::p]), -scale))
                 for r in range(p)] for p in folds]
    return [mp.mpc(mp.ldexp(x, -scale), mp.ldexp(y, -scale)) for x, y in zip(re, im)]


def _twist_from_residues(sums: list, alpha: Fraction) -> mp.mpc:
    """sum_r e(-r alpha) sums[r]; the denominator of alpha divides the bucket modulus."""
    a, q = alpha.numerator, alpha.denominator
    roots = roots_of_unity(q, mp.mp.prec)
    return sum((roots[-r * a % q] * mp.fsum(sums[r::q]) for r in range(min(q, len(sums)))),
               mp.mpc(0))


def twist_direct(s, alpha, n_max: int = 100_000) -> TwistPartialSum:
    """Partial sum of F(s, alpha) over n <= n_max; requires sigma > 1."""
    s = mp.mpc(s)
    if mp.re(s) <= 1:
        raise ValueError("direct twist evaluation needs sigma > 1")
    alpha = Fraction(alpha)
    stream = divisor_stream()
    value = _twist_from_residues(_divisor_sums(n_max, s, alpha.denominator), alpha)
    return TwistPartialSum(value, stream.tail_bound(n_max, mp.re(s)))


def _pair_sums(xs, q: int, numerators, linear: bool = False) -> list[mp.mpc]:
    """sum_w e(-wb/q) C_w for each b in ``numerators``, C_w = sum_{uv = w mod q} x_u x_v
    with x_u = xs[u-1], or with ``linear`` C_w = sum_{uv = w mod q} (x_u + x_v), the
    x-coefficient of the products (1 + x_u x)(1 + x_v x).  The pairs u <= v (doubled if
    u < v) group by w; each C_w is one exact dot product rounded once, as is each root sum."""
    groups = [[] for _ in range(q)]
    for u, x in enumerate(xs, 1):
        for v in range(u, q + 1):
            d = 2 if u < v else 1
            groups[u * v % q] += ((d, x), (d, xs[v - 1])) if linear else ((d * x, xs[v - 1]),)
    roots, sums = roots_of_unity(q, mp.mp.prec), [mp.fdot(group) for group in groups]
    return [mp.fdot([roots[-w * b % q] for w in range(q)], sums) for b in numerators]


@lru_cache(maxsize=128)
def _log_at(x, prec: int) -> tuple:
    """log x for a rational x > 0 as mpmath reads it at ``prec`` bits, as an mpf
    value tuple at ``prec`` bits: once per (x, precision)."""
    with mp.workprec(prec):
        return mp.log(mp.mpmathify(x))._mpf_


def _divisor_twist_kernel(s, q: int, numerators) -> list[mp.mpc]:
    """F(s, b/q) = q^(-2s) sum_{u,v=1}^{q} e(-u v b/q) zeta(s, u/q) zeta(s, v/q)
    for each b in ``numerators``, from one ``_pair_sums`` of the values;
    raises PoleError at s = 1.  q^(-2s) is exp(-2s log q), its product taken
    at 10 more bits, as mpmath's power takes it, from log q at those bits."""
    s, prec = mp.mpc(s), mp.mp.prec
    if s == 1:
        raise PoleError("the twisted series has its double pole at s=1")
    hurwitz = hurwitz_batch(s, hurwitz_parameters(q, prec))
    if q == 1:  # zeta(s)^2: 1^(-2s) is exactly 1, and the one pair rounds once either way
        return [hurwitz[0] * hurwitz[0]] * len(numerators)
    exponent = mpc_mul_mpf(mpc_mul_int(s._mpc_, -2, prec), _log_at(q, prec + 10), prec + 10)
    prefactor = mp.make_mpc(mpc_exp(exponent, prec, round_nearest))
    return [prefactor * value for value in _pair_sums(hurwitz, q, numerators)]


def _reflected_twist_kernel(s, q: int, numerators) -> tuple[list[mp.mpc], mp.mpf]:
    """(values, radius): F(s, b/q), sigma < 0, for each b in ``numerators`` by Hurwitz's
    formula (DLMF 25.11.9) from q Hurwitz values at Re(1 - s) > 1: F(s, b/q) is
    (2 Gamma(1-s) (2 pi)^(s-1) / q)^2 sum_{u,v} e(-uvb/q) Z_u Z_v (``_pair_sums``, index
    q standing for 0), Z_u = sum_{i=1..q} sin(pi s/2 + 2 pi i u/q) zeta(1-s, i/q).
    Error, with eps = 2^-prec, m = cosh(pi t/2) >= |sin|, |cos| and H = sum_i |zeta(1-s, i/q)|:
    the sines (at prec + 10 bits) err by eps m/32; each zeta by 2 eps relative, plus
    3.4 |1-s| eps from its rounded parameter (|zeta(2-s, a)| <= 3.4 |zeta(1-s, a)|/a for
    sigma <= -1); so each Z_u by (3.1 + 4|1-s|) eps m H; the pair sums (roots within
    4.2 eps, three roundings) by (12.4 + 8|1-s|) eps (q m H)^2; P and the product by
    1.1 eps.  So radius = (16 + 8|1-s|) eps |P| (q m H)^2 bounds the error: only the
    sums can cancel.  Every sine row is exactly 0 only at t = 0, s/2 an integer
    and q <= 2 (sinpi of an exact integer, roots +-1): there F is exactly 0,
    returned with radius 0."""
    s, prec = mp.mpc(s), mp.mp.prec
    hurwitz = hurwitz_batch(1 - s, hurwitz_parameters(q, prec))
    with mp.workprec(prec + 10):  # sin(pi s/2 + 2 pi k/q) for k = 0..q-1
        sin, cos = mp.sinpi(s / 2), mp.cospi(s / 2)
        rows = [sin * root.real + cos * root.imag for root in roots_of_unity(q, prec + 10)]
    if not any(rows):
        return [mp.mpc(0)] * len(numerators), mp.mpf(0)
    zs = [mp.fdot([rows[i * u % q] for i in range(1, q + 1)], hurwitz) for u in range(1, q + 1)]
    with mp.workprec(prec + 10 + max(0, mp.mag(s))):
        prefactor = (2 * mp.gamma(1 - s) * mp.power(2 * mp.pi, s - 1) / q) ** 2
    size = q * mp.cosh(mp.pi * s.imag / 2) * mp.fsum(map(abs, hurwitz))  # q m H
    return ([prefactor * value for value in _pair_sums(zs, q, numerators)],
            (16 + 8 * abs(1 - s)) * mp.ldexp(abs(prefactor) * size ** 2, -prec))


class PrecisionExhaustedError(ArithmeticError):
    """The working precision cannot support the requested evaluation."""


def _stable_reflected_twists(s, q: int, numerators) -> list[mp.mpc]:
    """The values of `_reflected_twist_kernel`, whose sums can cancel: a radius
    above 2^-(prec/4) |F| (fewer than prec/4 stable bits) raises
    PrecisionExhaustedError."""
    values, radius = _reflected_twist_kernel(s, q, numerators)
    if any(radius > abs(value) * mp.mpf(2) ** (-mp.mp.prec // 4) for value in values):
        raise PrecisionExhaustedError(
            f"a twist value F(s, b/{q}) at s = {mp.nstr(s, 15)} carries fewer than "
            f"{mp.mp.prec // 4} stable bits; raise the working precision")
    return values


def zeta2_twist_oracle(s, alpha) -> mp.mpc:
    """Analytic continuation of the twist F(s, alpha) to s != 1.

    Evaluates the q^2-term Hurwitz-zeta combination at the ambient
    precision; raises PoleError at the double pole s = 1.
    """
    alpha = reduce_mod_one(alpha)
    return _divisor_twist_kernel(s, alpha.denominator, [alpha.numerator])[0]


def zeta2_twist_batch(s, q: int) -> list[mp.mpc]:
    """All continued divisor twists F(s, b/q) for b = 0..q-1 at once,
    sharing the q Hurwitz-zeta evaluations; raises PoleError at s = 1."""
    return _divisor_twist_kernel(s, q, range(q))


_LAURENT_GUARD = 40  # bits above prec for the closed-form Laurent data at s = 1


def _laurent_at_1(q: int, numerators) -> list[dict]:
    """{k: c_k} for k = -3..-1 at s = 1 of F(s, b/q) for each b in ``numerators``:
    c_-3 = 0, c_-2 the exact `leading_coefficient` and c_-1 in closed form.  With
    X_u(x) = x zeta(1+x, u/q) = 1 + p_0 x + O(x^2),

      x^2 F(1+x, b/q) = q^-2 e^(-2x log q) sum_w e(-wb/q) sum_{uv = w mod q} X_u X_v,

    so c_-1 = q^-2 (S_1 - 2 log q S_0), S_0 the ``_pair_sums`` of ones and S_1 the
    linear ones of the x-coefficients p_0 of the X_u.  p_0 = -psi(u/q) is the
    generalized Stieltjes constant gamma_0(u/q), summed by `special._stieltjes_0`
    as its own Euler-Maclaurin constant term at the parameters u/q of
    ``zeta2_twist_batch``: no Hurwitz series is built for it.

    Error, against the twist the batch evaluates (u/q rounded to prec bits):
    p_0 lies within eps = 2^-(prec+20) before its rounding at prec + 40 bits,
    which adds under 2^-(prec+30) (|p_0| < 2^10 for u/q >= 1/1000), so within
    1.001 eps.  Each p_0 enters 2q of the q^2 products, so the sums carry this
    to 2.002 eps in c_-1; working at prec + 40 bits adds less than eps for q <= 1000.
    So c_-1 lies within 2^-prec |c_-1| + 4 2^-(prec+20), the first term being
    the one final rounding to prec bits.
    """
    prec = mp.mp.prec
    with mp.workprec(prec + _LAURENT_GUARD):
        p_0 = [_stieltjes_0(a, prec) for a in hurwitz_parameters(q, prec)]
        decay = (1, -2 * mp.make_mpf(_log_at(q, prec + _LAURENT_GUARD)))  # e^(-2x log q)
        residues = [mp.fdot(decay, sums) / q ** 2 for sums in zip(
            _pair_sums(p_0, q, numerators, linear=True), _pair_sums([1] * q, q, numerators))]
    return [{-3: 0, -2: leading_coefficient(b, q), -1: +c} for b, c in zip(numerators, residues)]


@lru_cache(maxsize=64)
def _character_weights(p: int, prec: int) -> tuple[tuple, tuple]:
    """(rows, taus) at ``prec`` bits, per non-principal chi mod p in
    `characters_mod` order: the row conj chi(a) for a = 1..p and tau(conj chi)."""
    with mp.workprec(prec):
        bars = [chi.conjugate() for chi in characters_mod(p, include_principal=False)]
        rows = tuple(tuple(chi_bar.value(a) for a in range(1, p + 1)) for chi_bar in bars)
        return rows, tuple(gauss_sum(chi_bar) for chi_bar in bars)


def character_twists(twists, p: int) -> list[mp.mpc]:
    """tau(conj chi)^-1 sum_a conj chi(a) twists[-a mod p] for every non-principal chi
    mod p, in `characters_mod` order, where twists[b] stands for F(., b/p), b = 0..p-1.
    The map is linear: ``zeta2_twist_batch(s, p)`` gives F(s, chi) (any s != 1), and
    the c_k of ``_laurent_at_1(p, range(p))`` give c_k of F(s, chi) at s = 1."""
    rows, taus = _character_weights(p, mp.mp.prec)
    reflected = [twists[-a % p] for a in range(1, p + 1)]
    return [mp.fdot(row, reflected) / tau for row, tau in zip(rows, taus)]


def _conversion_rhs(a: int, p: int, f_chis, f_full, f_p_free) -> mp.mpc:
    """(p-1)^-1 sum_{chi != chi0} chi(a) tau(conj chi) F(s,chi) - (p/(p-1) F/F_p - F), the
    identity's right-hand side, from F(s, chi) in `characters_mod` order, F and F/F_p;
    tau(conj chi) and chi(a) = conj(conj chi(a)) come from `_character_weights`."""
    rows, taus = _character_weights(p, mp.mp.prec)
    char_part = mp.fdot([tau * f for tau, f in zip(taus, f_chis)],
                        [row[a % p - 1] for row in rows], conjugate=True)
    return char_part / (p - 1) - (mp.mpf(p) / (p - 1) * f_p_free - f_full)


class IdentityCheck(namedtuple("IdentityCheck", "lhs rhs")):
    __slots__ = ()

    @property
    def difference(self) -> mp.mpf:
        return abs(self.lhs - self.rhs)


def additive_from_mult_identity_check(s, a: int, primes, n_max: int = 100_000) -> list:
    """Both sides of the additive-from-multiplicative identity for each p in ``primes``

    F(s,-a/p) = (p-1)^-1 sum_{chi != chi0} chi(a) tau(conj chi) F(s,chi)
                - (p/(p-1) 1/F_p(s) - 1) F(s)

    evaluated as truncated series over n <= n_max with sigma > 1.
    F(s)/F_p(s) is the p-free part of the series, so every sum reads one pass
    over the coefficients modulo the product of the primes, folded mod p.
    """
    s = mp.mpc(s)
    if mp.re(s) <= 1:
        raise ValueError("identity check needs sigma > 1")
    if any(gcd(a, p) != 1 for p in primes):
        raise ValueError("need gcd(a, p) = 1")
    checks = []
    for p, sums in zip(primes, _divisor_sums(n_max, s, prod(primes), primes) if primes else []):
        f_full, (rows, _) = mp.fsum(sums), _character_weights(p, mp.mp.prec)
        f_chis = [mp.fdot(sums[1:], row, conjugate=True) for row in rows]
        checks.append(IdentityCheck(_twist_from_residues(sums, Fraction(-a, p)),
                                    _conversion_rhs(a, p, f_chis, f_full, f_full - sums[0])))
    return checks


def half_twist_coefficient_identity(n_max: int = 10_000) -> list[int]:
    """Exact coefficient check of the identity at p = 2, where the character
    sum is empty and F(s,-1/2) = F(s) - 2 F(s)/F_2(s) termwise: the p-free
    part of d (d convolved with (1 - 2^-s)^2) is d(n) - 2 d(n/2) [2|n] +
    d(n/4) [4|n], and d(n) minus twice it must equal d(n) (-1)^n.  Returns the
    list of failing n (empty = identity holds)."""
    d = [0, *divisor_stream().values(n_max)]
    p_free = d[:]
    p_free[2::2] = [x - 2 * y for x, y in zip(p_free[2::2], d[1:])]
    p_free[4::4] = [x + y for x, y in zip(p_free[4::4], d[1:])]
    return [n for n in range(1, n_max + 1) if d[n] * (-1) ** n != d[n] - 2 * p_free[n]]


def twist_grid_rows(s_values, alphas, n_max: int = 100_000) -> list[tuple]:
    """Rows (sigma, t, alpha, Re, Im, method) over an s-grid and alpha list.

    Points with sigma > 1 share one direct-series pass modulo the lcm of the
    alpha denominators.  The other points read the continuation ("oracle"),
    one kernel call per denominator q: Hurwitz's formula at sigma <= -1, the
    domain of its stated radius, else the Hurwitz pair sum at s itself.
    """
    alphas = [reduce_mod_one(alpha) for alpha in alphas]
    numerators = {q: sorted({alpha.numerator for alpha in alphas if alpha.denominator == q})
                  for q in {alpha.denominator for alpha in alphas}}
    rows = []
    for s in s_values:
        s = mp.mpc(s)
        if s.real > 1:
            sums = _divisor_sums(n_max, s, lcm(*numerators))
            values = {alpha: _twist_from_residues(sums, alpha) for alpha in alphas}
        else:
            kernel = _stable_reflected_twists if s.real <= -1 else _divisor_twist_kernel
            values = {Fraction(b, q): value for q, bs in numerators.items()
                      for b, value in zip(bs, kernel(s, q, bs))}
        method = "direct" if s.real > 1 else "oracle"
        rows.extend((mp.nstr(s.real, 17), mp.nstr(s.imag, 17), str(alpha),
                     mp.nstr(values[alpha].real, 25), mp.nstr(values[alpha].imag, 25), method)
                    for alpha in alphas)
    return rows
