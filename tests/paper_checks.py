"""Checks of the paper that no command runs, shared by the tests and the
acceptance suite (pytest does not collect this module).

* P_nu(s), R_nu minus its shifted-Bernoulli part;
* numeric remainder checks for the finite expansions that define the C/A
  coefficients and the Q-sum, and the two exact factorial inequalities used
  to control them.  Test points should avoid the poles w = 1..M; the helpers
  accept any admissible w and the suites pick them on the ray arg(w) = 3*pi/4
  scaled by powers of two;
* the round trip of the additive/multiplicative conversion identity through
  the continued twists, and the coefficients of the p-free part F/F_p;
* the generic coefficient pass the divisor pass replaced, kept as its reference;
* the invariants of a datum that the transformation formula's general main
  term reads: conductor, shifted root number and lambda-invariant;
* the numeric readings of exact values the tests compare against: an exact
  scalar or a polynomial's Horner value as mpc, and d(n) one n at a time.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import factorial, isqrt

import mpmath as mp

from twistlab import bernoulli, twist
from twistlab.exactpoly import GaussianRational, Polynomial
from twistlab.expansion import a_coeff, c_coeff, q_poly, r_poly
from twistlab.funceq import DatumError, FunctionalEquationDatum, QParam
from twistlab.special import hurwitz_zeta
from twistlab.twist import (
    IdentityCheck,
    _conversion_rhs,
    character_twists,
    zeta2_twist_batch,
    divisor_stream,
    zeta2_twist_oracle,
)


# ---------------------------------------------------------------------------
# Numeric readings of exact values
# ---------------------------------------------------------------------------

def to_mpc(c) -> mp.mpc:
    """An exact scalar (int, Fraction or GaussianRational) as mpc at the
    working precision, each part rounded once."""
    if isinstance(c, GaussianRational):
        return mp.mpc(mp.mpmathify(c.re), mp.mpmathify(c.im))
    return mp.mpc(mp.mpmathify(c))


def eval_mpc(poly: Polynomial, z) -> mp.mpc:
    """Horner evaluation of an exact polynomial at the working precision."""
    z = mp.mpmathify(z)
    result = mp.mpc(0)
    for c in reversed(poly.coeffs):
        result = result * z + to_mpc(c)
    return result


def divisor_count(n: int) -> int:
    """d(n) from the shared divisor stream, one coefficient at a time."""
    stream = divisor_stream()
    stream.ensure(n)
    return stream._cache[n]


# ---------------------------------------------------------------------------
# P polynomials
# ---------------------------------------------------------------------------

def p_poly(datum: FunctionalEquationDatum, nu: int) -> Polynomial:
    """R_nu(s) - B_{nu+1}(1 - 2s - i*theta), exact."""
    if nu < 1:
        raise ValueError("P_nu needs nu >= 1")
    shifted = bernoulli.bernoulli_polynomial(nu + 1).compose(
        Polynomial((GaussianRational(1, -datum.theta), -2))
    )
    return r_poly(datum, nu) - shifted


# ---------------------------------------------------------------------------
# Numeric remainder checks for the finite expansions
# ---------------------------------------------------------------------------

def falling_product(w, first: int, last: int):
    """(w - first)(w - first - 1)...(w - last); empty product is 1."""
    result = mp.mpc(1)
    for j in range(first, last + 1):
        result *= w - j
    return result


def check_expansion_1overw(w, m: int, M: int):
    """Measured error and exact remainder bound for the 1/w expansion.

    1/w = (-1)^(m+1)/m! * sum_{ell=m+1}^{M} (-1)^ell (ell-1)!
          / ((w-(m+1))...(w-ell)) + r, with
    |r| <= M! / (m! |w (w-(m+1))...(w-M)|).  Requires 1 <= m+1 <= M < |w|.
    """
    w = mp.mpc(w)
    if m < 0 or M < m + 1:
        raise ValueError(f"need 0 <= m and m+1 <= M, got m={m}, M={M}")
    if not M < abs(w):
        raise ValueError(f"need M < |w|, got M={M}, |w|={abs(w)}")
    acc = mp.mpc(0)
    for ell in range(m + 1, M + 1):
        sign = -1 if ell % 2 else 1
        acc += sign * factorial(ell - 1) / falling_product(w, m + 1, ell)
    outer_sign = 1 if (m + 1) % 2 == 0 else -1
    partial = outer_sign * acc / factorial(m)
    error = abs(1 / w - partial)
    bound = factorial(M) / (
        factorial(m) * abs(w) * abs(falling_product(w, m + 1, M))
    )
    return error, bound


def check_expansion_1overw_mu(w, mu: int, M: int):
    """Measured remainder and displayed bound for the 1/w^mu expansion.

    1/w^mu = sum_{ell=mu}^{M} C(mu,ell)/((w-1)...(w-ell)) + R with
    |R| << 2^M M! / ((mu-1)! |w (w-1)...(w-M)|).  The bound carries an
    absolute implied constant, so callers compare against a logged slack
    multiple rather than the bare expression.  Requires 1 <= mu <= M <= |w|/2.
    """
    w = mp.mpc(w)
    if mu < 1 or M < mu:
        raise ValueError(f"need 1 <= mu <= M, got mu={mu}, M={M}")
    if M > abs(w) / 2:
        raise ValueError(f"need M <= |w|/2, got M={M}, |w|={abs(w)}")
    acc = mp.mpc(0)
    for ell in range(mu, M + 1):
        acc += mp.mpmathify(c_coeff(mu, ell)) / falling_product(w, 1, ell)
    error = abs(w**-mu - acc)
    bound = (
        mp.mpf(2) ** M
        * factorial(M)
        / (factorial(mu - 1) * abs(w) * abs(falling_product(w, 1, M)))
    )
    return error, bound


def check_expansion_shifted_mu(
    datum: FunctionalEquationDatum, s, w, mu: int, N: int
):
    """Measured remainder and displayed scale for the shifted-power expansion

    1/(w + 2s - 1 + i*theta)^mu = sum_{nu=mu}^{N} A_{mu,nu}(s)
    / ((w-1)...(w-nu)) + R, with R on the scale
    A^|s| (|s|^|sigma| + 1) / ((mu-1)! |w (w-1)...(w-N)|).  The constant A
    is existential; the returned scale realizes it as A = 2 and callers
    compare against a logged slack multiple.  The expansion regime is
    N close to |sigma| (within a bounded offset) and |w| >= 2N.
    """
    s = mp.mpc(s)
    w = mp.mpc(w)
    if mu < 1 or N < mu:
        raise ValueError(f"need 1 <= mu <= N, got mu={mu}, N={N}")
    if abs(w) < 2 * N:
        raise ValueError(f"need |w| >= 2N, got N={N}, |w|={abs(w)}")
    theta = mp.mpmathify(datum.theta)
    shifted = w + 2 * s - 1 + 1j * theta
    acc = mp.mpc(0)
    for nu in range(mu, N + 1):
        acc += eval_mpc(a_coeff(datum, mu, nu), s) / falling_product(w, 1, nu)
    error = abs(shifted**-mu - acc)
    sigma = abs(mp.re(s))
    scale = (
        mp.mpf(2) ** abs(s)
        * (abs(s) ** sigma + 1)
        / (factorial(mu - 1) * abs(w) * abs(falling_product(w, 1, N)))
    )
    return error, scale


def check_exp_expansion(datum: FunctionalEquationDatum, s, w, N: int):
    """Both sides of the finite Q-sum identity at a test point.

    lhs = exp(sum_{nu=1}^{N} (-1)^nu R_nu(s)/(nu(nu+1)) (w+2s-1+i*theta)^-nu),
    rhs = sum_{nu=0}^{N} Q_nu(s)/((w-1)...(w-nu)); the difference decays like
    |w|^-(N+1) along rays, which the suites measure by doubling |w|.
    Requires |w| >= 4(N + |s| + 1) so the expansion regime applies.
    """
    s = mp.mpc(s)
    w = mp.mpc(w)
    if N < 0:
        raise ValueError("N must be nonnegative")
    if abs(w) < 4 * (N + abs(s) + 1):
        raise ValueError(f"|w| too small for N={N}, |s|={abs(s)}")
    theta = mp.mpmathify(datum.theta)
    shifted = w + 2 * s - 1 + 1j * theta
    arg = mp.mpc(0)
    for nu in range(1, N + 1):
        sign = -1 if nu % 2 else 1
        arg += (
            sign
            * eval_mpc(r_poly(datum, nu), s)
            / (nu * (nu + 1))
            / shifted**nu
        )
    lhs = mp.exp(arg)
    rhs = mp.mpc(1)
    for nu in range(1, N + 1):
        rhs += eval_mpc(q_poly(datum, nu), s) / falling_product(w, 1, nu)
    return lhs, rhs, abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Exact factorial inequalities
# ---------------------------------------------------------------------------

def phi_bound_check(N: int, x) -> tuple[Fraction, Fraction]:
    """Phi_N(x) = sum_{m=1}^N x^m/m! and its bound (2x)^N/N!, both exact;
    valid for 1 <= N <= 3x/2."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError("x must be positive")
    if not 1 <= N <= Fraction(3, 2) * x:
        raise ValueError(f"need 1 <= N <= 3x/2, got N={N}, x={x}")
    value = sum(x**m / factorial(m) for m in range(1, N + 1))
    bound = (2 * x) ** N / factorial(N)
    return value, bound


def psi_bound_check(M: int, x) -> tuple[Fraction, Fraction]:
    """Psi_M(x) = sum_{mu=1}^M x^(2 mu)/(mu!)^2 and its bound (2x)^(2M)/(M!)^2;
    valid for 1 <= M <= sqrt(2) x (checked exactly as M^2 <= 2 x^2)."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError("x must be positive")
    if not (1 <= M and M * M <= 2 * x * x):
        raise ValueError(f"need 1 <= M <= sqrt(2) x, got M={M}, x={x}")
    value = sum(x ** (2 * m) / factorial(m) ** 2 for m in range(1, M + 1))
    bound = (2 * x) ** (2 * M) / factorial(M) ** 2
    return value, bound


# ---------------------------------------------------------------------------
# Conversion identity through the continued twists
# ---------------------------------------------------------------------------

def reconstruct_additive_twist(s, a: int, p: int) -> IdentityCheck:
    """Round trip: build every F(s, chi) from the continued additive twists,
    then reassemble F(s, -a/p) from them together with the closed forms
    F(s) = zeta(s)^2 and F_p(s) = (1 - p^-s)^-2; compares the result against
    the oracle value directly."""
    s = mp.mpc(s)
    zeta2 = hurwitz_zeta(s, 1) ** 2
    rhs = _conversion_rhs(a, p, character_twists(zeta2_twist_batch(s, p), p), zeta2,
                          zeta2 * (1 - mp.power(p, -s)) ** 2)
    return IdentityCheck(zeta2_twist_oracle(s, Fraction(-a, p)), rhs)


def p_free_coefficient(n: int, p: int) -> int:
    """Coefficient of n^-s in F(s)/F_p(s): d convolved with the coefficients of
    1/F_p(s) = (1 - p^-s)^2 = 1 - 2 p^-s + p^-2s."""
    return sum(w * divisor_count(n // pk) for pk, w in ((1, 1), (p, -2), (p * p, 1)) if n % pk == 0)


# ---------------------------------------------------------------------------
# The generic coefficient pass
# ---------------------------------------------------------------------------

def _mp_power_fixed(p: int, minus_s, scale: int) -> tuple[int, int]:
    """p^minus_s by mp.power at the working precision, as the Gaussian integer
    nearest p^minus_s 2^scale."""
    v = mp.power(p, minus_s)
    return tuple(twist._nearest(x._mpf_, scale) for x in (v.real, v.imag))


def residue_sums_reference(coeffs: list[int], s, modulus: int, folds=None):
    """`twist._divisor_sums` for any integer coefficients a(n) = coeffs[n - 1],
    N = len(coeffs): the same units, table and prime stop, with every p^-s by
    mp.power, a coefficient read per term, and each large prime P looping over
    its m <= N/P.  Its buckets are the divisor pass's bit for bit when the
    coefficients are d(n)."""
    s = mp.mpc(s)
    n_max = len(coeffs)
    size = min(modulus, n_max + 1)
    sigma = s.real
    bits = mp.mp.prec + (n_max * n_max.bit_length()).bit_length()
    table_scale = bits + twist._TABLE_GUARD
    root = isqrt(n_max)
    with mp.workprec(table_scale + 10):
        cut = twist._power_cut(sigma, table_scale, n_max)
        flags = twist._prime_flags(cut)
        small = [p for p in range(2, min(root, cut) + 1) if flags[p]]
        flags[: root + 1] = bytes(min(root, cut) + 1)
        minus_s = -s if s.imag else -sigma
        small_values = [_mp_power_fixed(p, minus_s, table_scale) for p in small]
        table_re, table_im = [0] * (root + 1), [0] * (root + 1)
        smooth_re, smooth_im = [0] * size, [0] * size
        half = 1 << table_scale - 1
        stack = [(1, 1 << bits, 0, 0)] if n_max >= 1 else []
        while stack:
            n, vr, vi, first = stack.pop()
            if n <= root:
                table_re[n], table_im[n] = vr, vi
            c = coeffs[n - 1]
            if c:
                r = n % modulus
                smooth_re[r] += c * vr
                smooth_im[r] += c * vi
            for i in range(first, len(small)):
                child = n * small[i]
                if child > n_max:
                    break
                pr, pi = small_values[i]
                cr = vr * pr - vi * pi + half >> table_scale
                ci = vr * pi + vi * pr + half >> table_scale
                if cr or ci:
                    stack.append((child, cr, ci, i))
        large_re, large_im = [0] * size, [0] * size
        for p in compress(range(cut + 1), flags):
            pr, pi = _mp_power_fixed(p, minus_s, table_scale)
            top = n_max // p
            width = min(modulus, top + 1)
            acc_re, acc_im = [0] * width, [0] * width
            for m, c in enumerate(coeffs[p - 1 : top * p : p], 1):
                if c:
                    j = m % modulus
                    acc_re[j] += c * table_re[m]
                    acc_im[j] += c * table_im[m]
            for j in range(width):
                xr, xi = acc_re[j], acc_im[j]
                if xr or xi:
                    r = j * p % modulus
                    large_re[r] += xr * pr - xi * pi
                    large_im[r] += xr * pi + xi * pr
    re = [(x << table_scale) + y for x, y in zip(smooth_re, large_re)]
    im = [(x << table_scale) + y for x, y in zip(smooth_im, large_im)]
    scale = bits + table_scale
    if folds is not None:
        return [[mp.mpc(mp.ldexp(sum(re[r::p]), -scale), mp.ldexp(sum(im[r::p]), -scale))
                 for r in range(p)] for p in folds]
    return [mp.mpc(mp.ldexp(x, -scale), mp.ldexp(y, -scale)) for x, y in zip(re, im)]


# ---------------------------------------------------------------------------
# Invariants of the general main term
# ---------------------------------------------------------------------------

def q_param_value(q_param: QParam) -> mp.mpf:
    """Q = coef * pi^pi_exp at the ambient precision."""
    v = mp.mpmathify(q_param.coef)
    if q_param.pi_exp:
        v = v * mp.pi ** mp.mpmathify(q_param.pi_exp)
    return v


def conductor(datum: FunctionalEquationDatum):
    """(2 pi)^degree * Q^2 * prod lambda_j^(2 lambda_j).

    Returns an exact Fraction when the pi-powers cancel and every
    2*lambda_j is an integer; otherwise an mpf at the ambient precision.
    """
    d = datum.degree()
    if (
        d.denominator == 1
        and d + 2 * datum.q_param.pi_exp == 0
        and all((2 * f.lam).denominator == 1 for f in datum.factors)
    ):
        value = Fraction(2) ** int(d) * datum.q_param.coef**2
        for f in datum.factors:
            value *= f.lam ** int(2 * f.lam)
        return value
    v = (2 * mp.pi) ** mp.mpmathify(d) * q_param_value(datum.q_param) ** 2
    for f in datum.factors:
        lam = mp.mpmathify(f.lam)
        v *= lam ** (2 * lam)
    return v


def root_number_star(datum: FunctionalEquationDatum):
    """omega * exp(-i pi (eta+1)/2) * (q/(2 pi)^2)^(i theta/2)
    * prod lambda_j^(-2 i Im mu_j); requires degree 2.

    Principal branches are used for the two non-elementary powers; they
    only matter when theta != 0 or some mu_j is non-real, and then the
    value is an mpc at the ambient precision.
    """
    if datum.degree() != 2:
        raise DatumError("shifted root number needs a degree-2 datum")
    xi = datum.xi_invariant()
    eta, theta = xi.re, xi.im
    if theta == 0 and all(f.mu.im == 0 for f in datum.factors) and (eta + 1).denominator == 1:
        # exp(-i pi (eta+1)/2) = (-i)^(eta+1)
        powers_of_minus_i = (1, GaussianRational(0, -1), -1, GaussianRational(0, 1))
        return datum.omega * powers_of_minus_i[int(eta + 1) % 4]
    value = to_mpc(datum.omega) * mp.exp(-1j * mp.pi * (mp.mpmathify(eta) + 1) / 2)
    if theta != 0:
        q_f = mp.mpmathify(conductor(datum))
        value *= mp.exp(1j * (mp.mpmathify(theta) / 2) * mp.log(q_f / (2 * mp.pi) ** 2))
    for f in datum.factors:
        if f.mu.im != 0:
            value *= mp.exp(-2j * mp.mpmathify(f.mu.im) * mp.log(mp.mpmathify(f.lam)))
    return value


def lambda_invariant(datum: FunctionalEquationDatum):
    """-i * root_number_star; equals 1 for the zeta^2 datum."""
    w = root_number_star(datum)
    if isinstance(w, GaussianRational):
        return GaussianRational(0, -1) * w
    return -1j * w
