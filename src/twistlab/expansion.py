"""Expansion-coefficient engine for the degree-2 twist transformation formula.

Builds, with exact arithmetic whenever the functional-equation datum is
rational, the polynomial apparatus

* C(mu, ell)    -- rational coefficients converting 1/w^mu into sums of
                   1/((w-1)...(w-ell)),
* A_{mu,nu}(s)  -- the same conversion for 1/(w + 2s - 1 + i*theta)^mu,
* R_nu(s)       -- Bernoulli-sum polynomials attached to the Gamma data,
                   computed through two independent closed forms that are
                   compared coefficient by coefficient on every call,
* P_nu(s)       -- R_nu minus its shifted-Bernoulli part,
* V_mu(s)       -- exponential-composition polynomials, the coefficients of
                   exp(sum_nu (-1)^nu R_nu x^nu / (nu(nu+1))), built by the
                   power-series recurrence for exp,
* Q_nu(s)       -- the transformation-formula polynomials
                   Q_nu = sum_mu V_mu * A_{mu,nu}, with Q_0 = 1,

plus numeric remainder checks for the finite expansions that define the
C/A coefficients and the Q-sum, and the two exact factorial inequalities
used to control them.

Test points for the remainder checks should avoid the poles w = 1..M; the
helpers here accept any admissible w and the suites pick them on the ray
arg(w) = 3*pi/4 scaled by powers of two.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import mpmath as mp

from . import bernoulli
from .exactpoly import GaussianRational, Polynomial, scalar_to_mpc
from .funceq import FunctionalEquationDatum


# ---------------------------------------------------------------------------
# C coefficients
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def c_coeff(mu: int, ell: int) -> Fraction:
    """C(mu, ell) in closed form; C(1, ell) = (-1)^(ell-1) (ell-1)!,
    C(mu, ell) = (-1)^(ell-mu) (ell-1)! * e_{mu-1}(1, 1/2, ..., 1/(ell-1))
    for mu >= 2, where e_k is the elementary symmetric polynomial.
    """
    if mu < 1 or ell < mu:
        raise ValueError(f"need 1 <= mu <= ell, got mu={mu}, ell={ell}")
    sign = -1 if (ell - mu) % 2 else 1
    return sign * factorial(ell - 1) * _elementary_symmetric_reciprocal(mu - 1, ell - 1)


def _elementary_symmetric_reciprocal(k: int, n: int) -> Fraction:
    """e_k(1/1, 1/2, ..., 1/n) by the standard one-row DP."""
    e = [Fraction(0)] * (k + 1)
    e[0] = Fraction(1)
    for j in range(1, n + 1):
        x = Fraction(1, j)
        for i in range(min(k, j), 0, -1):
            e[i] += e[i - 1] * x
    return e[k]


# ---------------------------------------------------------------------------
# Datum-dependent polynomials
# ---------------------------------------------------------------------------

def _shift_poly(datum: FunctionalEquationDatum) -> Polynomial:
    """2s - 1 + i*theta as a polynomial in s."""
    theta = datum.theta
    const = (
        GaussianRational(-1, theta)
        if isinstance(theta, Fraction)
        else mp.mpc(-1, theta)
    )
    return Polynomial((const, 2))


def a_coeff(datum: FunctionalEquationDatum, mu: int, nu: int) -> Polynomial:
    """A_{mu,nu}(s) = sum_k binom(-mu, k) C(mu+k, nu) (2s-1+i*theta)^k;
    degree exactly nu - mu.

    The sum is built as a polynomial in y = 2s-1+i*theta and composed with
    the shift, so Horner's rule multiplies by a linear polynomial per k.
    """
    if mu < 1 or nu < mu:
        raise ValueError(f"need 1 <= mu <= nu, got mu={mu}, nu={nu}")
    # binom(-mu, k) = (-1)^k * C(mu+k-1, k)
    in_y = Polynomial(
        (-1 if k % 2 else 1) * comb(mu + k - 1, k) * c_coeff(mu + k, nu)
        for k in range(nu - mu + 1)
    )
    return in_y.compose(_shift_poly(datum))


@lru_cache(maxsize=None)
def r_poly(datum: FunctionalEquationDatum, nu: int) -> Polynomial:
    """R_nu(s): degree nu+1 with leading coefficient (-2)^(nu+1) + 2(-1)^nu.

    Both closed forms are computed and compared on every (cached) call;
    a mismatch would mean corrupted invariants and raises ArithmeticError.
    Exact forms must be equal.  Numeric forms may differ in no coefficient
    by more than 2^-(prec//2) times their largest coefficient modulus, where
    prec is the lower of the datum's and the working precision (the rule of
    the datum's |omega| check).
    """
    via_h, via_gamma = r_poly_forms(datum, nu)
    if via_h.is_exact and via_gamma.is_exact:
        agree = via_h == via_gamma
    else:
        prec = min(datum.precision, mp.mp.prec)
        scale = max(abs(scalar_to_mpc(c)) for c in via_h.coeffs + via_gamma.coeffs)
        worst = max(
            (abs(scalar_to_mpc(c)) for c in (via_h - via_gamma).coeffs), default=0
        )
        agree = worst <= scale * mp.mpf(2) ** -(prec // 2)
    if not agree:
        raise ArithmeticError(f"R_{nu} closed forms disagree for {datum.label!r}")
    return via_h


def r_poly_forms(
    datum: FunctionalEquationDatum, nu: int
) -> tuple[Polynomial, Polynomial]:
    """The H-invariant form and the per-factor Bernoulli form of R_nu."""
    if nu < 1:
        raise ValueError("R_nu needs nu >= 1")
    n = nu + 1
    b_poly = bernoulli.bernoulli_polynomial(n)
    theta = datum.theta
    i_theta = (
        GaussianRational(0, theta) if isinstance(theta, Fraction) else mp.mpc(0, theta)
    )
    # B_{nu+1}(1 - 2s - i*theta) + B_{nu+1}(1), shared by both forms
    shifted = b_poly.compose(Polynomial((1 - i_theta, -2)))
    base = shifted + Polynomial((b_poly(1),))

    one_minus_s = Polynomial((1, -1))
    sign = -1 if nu % 2 else 1
    h_sum = Polynomial()
    for k in range(n + 1):
        h_k = datum.h_invariant(k)
        h_conj = h_k.conjugate() if isinstance(h_k, GaussianRational) else mp.conj(h_k)
        term = Polynomial.monomial(sign * h_k, n - k) - h_conj * one_minus_s ** (n - k)
        h_sum = h_sum + comb(n, k) * term
    via_h = base + Fraction(1, 2) * h_sum

    factor_sum = Polynomial()
    for f in datum.factors:
        mu_c = f.mu.conjugate() if isinstance(f.mu, GaussianRational) else mp.conj(f.mu)
        left = b_poly.compose(Polynomial((f.lam + mu_c, -f.lam)))
        right = b_poly.compose(Polynomial((1 - f.mu, -f.lam)))
        lam_pow = (
            Fraction(f.lam) ** nu
            if isinstance(f.lam, (int, Fraction))
            else mp.mpmathify(f.lam) ** nu
        )
        factor_sum = factor_sum + (left + right) * (1 / lam_pow)
    via_gamma = base - factor_sum
    return via_h, via_gamma


def p_poly(datum: FunctionalEquationDatum, nu: int) -> Polynomial:
    """R_nu(s) - B_{nu+1}(1 - 2s - i*theta), exact."""
    if nu < 1:
        raise ValueError("P_nu needs nu >= 1")
    n = nu + 1
    theta = datum.theta
    i_theta = (
        GaussianRational(0, theta) if isinstance(theta, Fraction) else mp.mpc(0, theta)
    )
    shifted = bernoulli.bernoulli_polynomial(n).compose(Polynomial((1 - i_theta, -2)))
    return r_poly(datum, nu) - shifted


@lru_cache(maxsize=None)
def v_poly(datum: FunctionalEquationDatum, mu: int) -> Polynomial:
    """V_mu(s) = (-1)^mu sum_{m} 1/m! sum_{nu_1+...+nu_m=mu}
    prod R_{nu_j}(s) / (nu_j (nu_j+1)); degree 2*mu.

    The sum over ordered compositions is [x^mu] exp(G) with
    G = sum_nu (-1)^nu R_nu x^nu / (nu(nu+1)).  J.C.P. Miller's power-series
    recurrence for exp (from F' = G'F; Knuth, TAOCP vol. 2, 4.7) gives
    mu V_mu = sum_{k=1}^{mu} (-1)^k R_k/(k+1) V_{mu-k} with V_0 = 1: O(mu^2)
    polynomial products, each V_{mu-k} taken from this cache.
    """
    if mu < 1:
        raise ValueError("V_mu needs mu >= 1")
    total = Polynomial()
    for k in range(1, mu + 1):
        g_k = Fraction(-1 if k % 2 else 1, k + 1) * r_poly(datum, k)
        total = total + (g_k * v_poly(datum, mu - k) if k < mu else g_k)
    return Fraction(1, mu) * total


@lru_cache(maxsize=None)
def q_poly(datum: FunctionalEquationDatum, nu: int) -> Polynomial:
    """Q_0 = 1 and Q_nu = sum_{mu=1}^{nu} V_mu(s) A_{mu,nu}(s); degree 2*nu."""
    if nu < 0:
        raise ValueError("Q_nu needs nu >= 0")
    if nu == 0:
        return Polynomial((1,))
    total = Polynomial()
    for mu in range(1, nu + 1):
        total = total + v_poly(datum, mu) * a_coeff(datum, mu, nu)
    return total


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
        acc += a_coeff(datum, mu, nu).eval_mpc(s) / falling_product(w, 1, nu)
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
            * r_poly(datum, nu).eval_mpc(s)
            / (nu * (nu + 1))
            / shifted**nu
        )
    lhs = mp.exp(arg)
    rhs = mp.mpc(1)
    for nu in range(1, N + 1):
        rhs += q_poly(datum, nu).eval_mpc(s) / falling_product(w, 1, nu)
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
# Table export
# ---------------------------------------------------------------------------

def polynomial_table(datum: FunctionalEquationDatum, k_max: int):
    """Rows (family, index, degree, pretty form, coefficient list) for
    Q_0..Q_K, R_1..R_K, V_1..V_K; used by the CLI table writer."""
    rows = []
    for nu in range(0, k_max + 1):
        q = q_poly(datum, nu)
        rows.append(("Q", nu, q.degree, q.pretty(), [str(c) for c in q.coeffs]))
    for nu in range(1, k_max + 1):
        r = r_poly(datum, nu)
        rows.append(("R", nu, r.degree, r.pretty(), [str(c) for c in r.coeffs]))
    for mu in range(1, k_max + 1):
        v = v_poly(datum, mu)
        rows.append(("V", mu, v.degree, v.pretty(), [str(c) for c in v.coeffs]))
    return rows
