"""Acceptance suite: every release-gating property at its stated tolerance,
one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import random
from fractions import Fraction
from math import comb, factorial

import mpmath as mp
import pytest

from twistlab.euler import degree_bound, euler_factor_at_1, solve_local_factor
from twistlab.exactpoly import Polynomial
from twistlab.expansion import c_coeff, q_poly, r_poly, r_poly_forms
from twistlab.transform import (
    growth_certificate,
    identity_reduction_check,
    transformation_polar_consistency,
    twist_laurent_table,
    verify_chi_holomorphy,
)
from twistlab.twist import (
    additive_from_mult_identity_check,
    half_twist_coefficient_identity,
    twist_direct,
    zeta2_twist_oracle,
)

from paper_checks import (
    check_exp_expansion,
    check_expansion_1overw,
    check_expansion_1overw_mu,
    check_expansion_shifted_mu,
)
from scalar_polynomial import ScalarPolynomial


def criterion(number: int, description: str, ok: bool):
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"acceptance criterion {number} failed: {description}"


def test_criterion_1_exact_polynomial_laws(zeta2):
    ok = q_poly(zeta2, 1) == Polynomial((0, 0, -1))
    ok = ok and r_poly(zeta2, 1) == Polynomial((0, 0, 2))
    for nu in range(1, 9):
        q = q_poly(zeta2, nu)
        ok = ok and q.degree == 2 * nu
        _, remainder = divmod(ScalarPolynomial(q.coeffs), ScalarPolynomial((nu - 1, 1)) ** 2)
        ok = ok and not remainder.coeffs
    criterion(
        1,
        "deg Q_nu = 2nu and (s+nu-1)^2 | Q_nu exactly for nu <= 8; "
        "Q_1 = -s^2, R_1 = 2s^2",
        ok,
    )


def test_criterion_2_dual_r_formulas(zeta2):
    ok = True
    for nu in range(1, 11):
        via_h, via_gamma = r_poly_forms(zeta2, nu)
        ok = ok and (via_h - via_gamma).is_zero
    criterion(2, "both closed forms of R_nu agree exactly for nu <= 10", ok)


def test_criterion_3_coefficient_system():
    ok = all(c_coeff(mu, mu) == 1 for mu in range(1, 15))
    for ell in range(2, 15):
        for mu in range(1, ell):
            step = (
                (-1) ** (ell - 1)
                * factorial(ell - 1)
                * sum((-1) ** m * c_coeff(mu, m) / factorial(m) for m in range(mu, ell))
            )
            ok = ok and c_coeff(mu + 1, ell) == step
    for ell in range(1, 15):
        for mu in range(1, ell + 1):
            cap = Fraction(factorial(ell - 1), factorial(mu - 1)) * comb(ell - 1, mu - 1)
            ok = ok and abs(c_coeff(mu, ell)) <= cap
    criterion(
        3,
        "closed form obeys the step recursion for mu < ell <= 14, "
        "C(mu,mu) = 1, and the factorial-binomial cap holds exactly",
        ok,
    )


def test_criterion_4_expansion_remainders(zeta2):
    rng = random.Random(41)
    ok = True
    # simple-power expansion: the remainder meets its bound (which it
    # saturates: the inductive remainder is exactly the bound product, so
    # only rounding separates the two sides)
    for _ in range(200):
        radius = rng.uniform(15, 300)
        angle = rng.uniform(0, 2)
        w = radius * mp.expjpi(angle)
        m = rng.randint(0, 3)
        m_cap = min(12, int(radius) - 1)
        big = rng.randint(m + 1, m_cap)
        error, bound = check_expansion_1overw(w, m, big)
        ok = ok and error <= bound * (1 + mp.mpf("1e-18"))
    # factorial-quotient expansions: within 10x the realized displayed
    # scales, with order-(N+1) decay under doubling of |w|
    slack_log = []
    w = 64 * mp.expjpi(mp.mpf(3) / 4)
    for mu, big in ((1, 5), (2, 8), (3, 8)):
        e1, b1 = check_expansion_1overw_mu(w, mu, big)
        e2, b2 = check_expansion_1overw_mu(2 * w, mu, big)
        slack_log.append((f"power mu={mu}", mp.nstr(e1 / b1, 4)))
        ok = ok and e1 <= 10 * b1 and e2 <= 10 * b2
        ok = ok and e1 / e2 >= 2**big
    # shifted powers live in the regime N ~ |sigma| + O(1)
    for s, mu, n_trunc in (
        (mp.mpc("-3.5", 1), 1, 4),
        (mp.mpc("-3.5", 1), 2, 4),
        (mp.mpc("-5.5", 1), 2, 6),
    ):
        w_n = 8 * (n_trunc + 1) * mp.expjpi(mp.mpf(3) / 4)
        e1, b1 = check_expansion_shifted_mu(zeta2, s, w_n, mu, n_trunc)
        e2, b2 = check_expansion_shifted_mu(zeta2, s, 2 * w_n, mu, n_trunc)
        slack_log.append((f"shifted mu={mu} N={n_trunc}", mp.nstr(e1 / b1, 4)))
        ok = ok and e1 <= 10 * b1 and e2 <= 10 * b2
        ok = ok and e1 / e2 >= 2**n_trunc
    s = mp.mpc("0.3", "0.2")
    for n_trunc in (1, 2, 3):
        big_w = 16 * (n_trunc + 1) * mp.expjpi(mp.mpf(3) / 4)
        _, _, d1 = check_exp_expansion(zeta2, s, big_w, n_trunc)
        _, _, d2 = check_exp_expansion(zeta2, s, 2 * big_w, n_trunc)
        scale = (
            mp.mpf(2) ** abs(s)
            * (abs(s) ** abs(mp.re(s)) + 1)
            / abs(big_w * mp.fprod(big_w - j for j in range(1, n_trunc + 1)))
        )
        slack_log.append((f"exp-sum N={n_trunc}", mp.nstr(d1 / scale, 4)))
        ok = ok and d1 <= 10 * scale
        ok = ok and d1 / d2 >= 2**n_trunc
    print("\nremainder slack ratios (measured / realized scale):", slack_log)
    criterion(
        4,
        "simple-power remainder bound exact at 200 random points; "
        "factorial-quotient remainders within 10x realized scales with "
        "order-(N+1) decay",
        ok,
    )


def test_criterion_5_oracle_agreement():
    s = mp.mpc(3)
    worst = mp.mpf(0)
    for q in range(1, 7):
        for a in range(1, q + 1):
            if Fraction(a, q).denominator != q:
                continue
            alpha = Fraction(a, q)
            direct = twist_direct(s, alpha, 100_000).value
            continued = zeta2_twist_oracle(s, alpha)
            worst = max(worst, abs(direct - continued))
    criterion(
        5,
        f"continued twist matches the direct series at sigma=3 for q <= 6 "
        f"(worst {mp.nstr(worst, 4)} <= 1e-8)",
        worst <= mp.mpf("1e-8"),
    )


def test_criterion_6_laurent_laws(zeta2):
    table = twist_laurent_table(6)
    tol, pair_tol = mp.mpf("1e-8"), mp.mpf("1e-10")
    ok = True
    beta = table[(1, 1)][-1] / table[(1, 1)][-2]
    ok = ok and abs(beta - 2 * mp.euler) <= tol
    ok = ok and abs(mp.im(beta)) <= pair_tol
    ok = ok and abs(table[(1, 1)][-3]) <= pair_tol
    for q in range(1, 7):
        ratios = []
        for (qq, a), expn in table.items():
            if qq != q:
                continue
            c2, c1 = expn[-2], expn[-1]
            ratios.append(c1 / c2)
            ok = ok and c2 == Fraction(1, q)
            ok = ok and abs(c1 / c2 - (beta - 2 * mp.log(q))) <= tol
        if len(ratios) > 1:
            ok = ok and max(abs(x - y) for x in ratios for y in ratios) <= pair_tol
    criterion(
        6,
        "Laurent laws for q <= 6: leading coefficient exactly 1/q, subleading ratio "
        "2*gamma - 2 log q, a-independent, real, no third-order pole",
        ok,
    )


def test_criterion_7_twist_conversions():
    ok = half_twist_coefficient_identity(10_000) == []
    for p in (3, 5):
        for sigma in ("2.5", "3"):
            (check,) = additive_from_mult_identity_check(mp.mpc(sigma), 1, [p], n_max=100_000)
            ok = ok and check.difference <= mp.mpf("1e-8")
    for p in (3, 5):
        report = verify_chi_holomorphy(p, tol=mp.mpf("1e-15"))
        ok = ok and report.passed
    criterion(
        7,
        "conversion identity exact coefficientwise at p=2 (n <= 1e4), "
        "numeric at p in {3,5} to 1e-8; character twists equal the squared "
        "L-function and are pole-free at s=1 to 1e-15",
        ok,
    )


def test_criterion_8_euler_endgame(zeta2):
    ok = True
    for p in (2, 3, 5):
        value = euler_factor_at_1(p)
        ok = ok and value == Fraction(p, p - 1) ** 2
        solution = solve_local_factor(value, p)
        ok = ok and solution.status == "forced"
        ok = ok and solution.factor.partial_degree == 2
        ok = ok and solution.factor.roots == (1, 1)
    for p in (2, 3, 5, 7, 11, 13):
        ok = ok and degree_bound(p * p, 1, p) == 2
    criterion(
        8,
        "local values solve to (1-1/p)^-2 exactly, the equality-forcing "
        "argument returns partial degree 2 with unit roots, degree bound 2",
        ok,
    )


def test_criterion_9_polar_consistency():
    ok = True
    for alpha in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)):
        report = transformation_polar_consistency(alpha, 8, tol=mp.mpf("1e-8"))
        ok = ok and report.passed
    reduction = identity_reduction_check(n_points=20, tol=mp.mpf("1e-12"))
    ok = ok and reduction.passed
    criterion(
        9,
        "difference of twist and main term has no residues at s = 1 - nu "
        "and no principal part at s = 1 (alpha in {1/2, 1/3, 2/3}, K = 8); "
        "alpha=1, K=0 reduces to the identity at 20 points",
        ok,
    )


def test_criterion_10_growth_certificate():
    ok = True
    for q, h in ((1, 1), (3, 9)):
        cert = growth_certificate(Fraction(1, q), h, t=5)
        ok = ok and cert.passed
        ok = ok and max(cert.log_ratios) <= mp.mpf(2) * min(cert.log_ratios)
    wrong = growth_certificate(Fraction(1, 3), 1, t=5)
    ok = ok and not wrong.passed
    ok = ok and abs(wrong.slope - mp.log(9)) <= mp.mpf("0.2") * mp.log(9)
    criterion(
        10,
        "growth certificate passes for (q,h) in {(1,1),(3,9)} with stable "
        "envelope constant and fails for (q=3, h=1) with slope within 20% "
        "of log 9",
        ok,
    )
