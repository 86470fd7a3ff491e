"""Expansion-coefficient engine for the degree-2 twist transformation formula.

Builds, in exact arithmetic over the Gaussian rationals, the polynomial
apparatus

* C(mu, ell)    -- integer coefficients converting 1/w^mu into sums of
                   1/((w-1)...(w-ell)): C(mu, ell) = s(ell, mu), the signed
                   Stirling numbers of the first kind, one integer row per ell,
* A_{mu,nu}(s)  -- the same conversion for 1/(w + 2s - 1 + i*theta)^mu,
* R_nu(s)       -- Bernoulli-sum polynomials attached to the Gamma data,
                   computed through two independent closed forms that are
                   compared exactly on every call, each H-invariant computed
                   once per datum,
* V_mu(s)       -- exponential-composition polynomials, the coefficients of
                   exp(sum_nu (-1)^nu R_nu x^nu / (nu(nu+1))), built by the
                   power-series recurrence for exp,
* Q_nu(s)       -- the transformation-formula polynomials
                   Q_nu = sum_mu V_mu * A_{mu,nu}, with Q_0 = 1.

Everything here is exact, on the integer rows of ``exactpoly.Polynomial``;
the numeric remainder checks of the finite expansions behind C/A and the
Q-sum, and the factorial inequalities that control them, are checks of the
paper that live with the tests.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb

from . import bernoulli
from .exactpoly import GaussianRational, Polynomial
from .funceq import FunctionalEquationDatum


# ---------------------------------------------------------------------------
# C coefficients
# ---------------------------------------------------------------------------

def c_coeff(mu: int, ell: int) -> Fraction:
    """C(mu, ell), the coefficient of 1/((w-1)...(w-ell)) in 1/w^mu: the
    signed Stirling number of the first kind s(ell, mu) (DLMF 26.8)."""
    if mu < 1 or ell < mu:
        raise ValueError(f"need 1 <= mu <= ell, got mu={mu}, ell={ell}")
    return Fraction(_stirling_row(ell)[mu])


@lru_cache(maxsize=None)
def _stirling_row(n: int) -> tuple[int, ...]:
    """(s(n, 0), ..., s(n, n)) by s(n+1, k) = s(n, k-1) - n s(n, k)."""
    row = [1]
    for m in range(n):
        row = [a - m * b for a, b in zip([0] + row, row + [0])]
    return tuple(row)


# ---------------------------------------------------------------------------
# Datum-dependent polynomials
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _shift_poly(datum: FunctionalEquationDatum) -> Polynomial:
    """2s - 1 + i*theta as a polynomial in s."""
    return Polynomial((GaussianRational(-1, datum.theta), 2))


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

    Both exact closed forms are computed and compared on every (cached)
    call; a mismatch would mean corrupted invariants and raises
    ArithmeticError.
    """
    via_h, via_gamma = r_poly_forms(datum, nu)
    if via_h != via_gamma:
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
    # B_{nu+1}(1 - 2s - i*theta) + B_{nu+1}(1), shared by both forms
    shifted = b_poly.compose(Polynomial((GaussianRational(1, -datum.theta), -2)))
    base = shifted + Polynomial((b_poly(1),))

    # h(y) = sum_k binom(n, k) H(k) y^(n-k); the H form reads h at y = s and
    # its conjugate at y = 1 - s
    h = Polynomial(comb(n, k) * _h_invariant(datum, n - k) for k in range(n + 1))
    sign = -1 if nu % 2 else 1
    h_sum = sign * h - h.conjugate().compose(Polynomial((1, -1)))
    via_h = base + Fraction(1, 2) * h_sum

    factor_sum = Polynomial()
    for f, count in Counter(datum.factors).items():  # equal factors once, with their multiplicity
        left = b_poly.compose(Polynomial((f.lam + f.mu.conjugate(), -f.lam)))
        right = b_poly.compose(Polynomial((1 - f.mu, -f.lam)))
        factor_sum = factor_sum + (left + right) * (count / f.lam**nu)
    via_gamma = base - factor_sum
    return via_h, via_gamma


@lru_cache(maxsize=None)
def _h_invariant(datum: FunctionalEquationDatum, k: int) -> GaussianRational:
    """H(k) of ``datum``, computed once for every R_nu that reads it."""
    return datum.h_invariant(k)


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


def q_taylor(datum: FunctionalEquationDatum, nu: int, center: int) -> Polynomial:
    """Q_nu(center + x), one exact shift: its rows are Q_nu's Taylor coefficients at
    s = center, and at center = 1 - nu those below x^m are the remainder of Q_nu mod
    (s + nu - 1)^m, which ``polys`` checks zero."""
    return q_poly(datum, nu).compose(Polynomial((center, 1)))


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
