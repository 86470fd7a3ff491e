import json
import random
from fractions import Fraction
from math import factorial, comb
from pathlib import Path

import mpmath as mp
import pytest

from twistlab.exactpoly import GaussianRational, Polynomial
from twistlab.expansion import (
    _shift_poly,
    a_coeff,
    c_coeff,
    polynomial_table,
    q_poly,
    q_taylor,
    r_poly,
    r_poly_forms,
    v_poly,
)
from twistlab.funceq import DatumError, FunctionalEquationDatum, GammaFactor, QParam, factor
from twistlab import bernoulli

from scalar_polynomial import ScalarPolynomial, c_coeff_by_symmetric_functions
from paper_checks import (
    check_exp_expansion,
    check_expansion_1overw,
    check_expansion_1overw_mu,
    eval_mpc,
    p_poly,
    phi_bound_check,
    psi_bound_check,
    to_mpc,
)


def synthetic_datum_real():
    """Rational degree-2 datum with theta = 0 that is not the reference one."""
    return FunctionalEquationDatum(
        q_param=QParam.parse("pi^-1"),
        omega=GaussianRational(1),
        factors=(factor(Fraction(1, 2), Fraction(1, 4)), factor(Fraction(1, 2), Fraction(1, 4))),
        pole_order=0,
        label="synthetic-real",
    )


def synthetic_datum_complex(label="synthetic-complex"):
    """Exact Gaussian-rational datum with theta != 0 and complex mu."""
    return FunctionalEquationDatum(
        q_param=QParam.parse("pi^-1"),
        omega=GaussianRational(1),
        factors=(
            factor(Fraction(1, 2), GaussianRational(0, Fraction(1, 2))),
            factor(Fraction(1, 2), GaussianRational(Fraction(1, 4), 0)),
        ),
        pole_order=0,
        label=label,
    )


def _compositions(total):
    """All ordered tuples of positive integers summing to total."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


def v_poly_by_compositions(datum, mu):
    """Literal ordered-composition evaluation of V_mu; exponential in mu,
    the independent route the recurrence in v_poly is held to."""
    total = Polynomial()
    for parts in _compositions(mu):
        term = Polynomial((Fraction(1, factorial(len(parts))),))
        for nu_j in parts:
            term = term * r_poly(datum, nu_j) * Fraction(1, nu_j * (nu_j + 1))
        total = total + term
    return (-1) ** mu * total


def a_coeff_by_powers(datum, mu, nu):
    """Literal sum_k binom(-mu, k) C(mu+k, nu) (2s-1+i*theta)^k, one power of
    the shift per k; the reference for the Horner form in a_coeff."""
    eta = _shift_poly(datum)
    total, power = Polynomial(), Polynomial((1,))
    for k in range(nu - mu + 1):
        b = comb(mu + k - 1, k) * (-1 if k % 2 else 1)
        total = total + (b * c_coeff(mu + k, nu)) * power
        power = power * eta
    return total


def all_data(zeta2):
    """The reference datum and both synthetic ones."""
    return (zeta2, synthetic_datum_real(), synthetic_datum_complex())


class TestCCoefficients:
    def test_examples(self):
        assert c_coeff(1, 3) == 2
        assert c_coeff(2, 3) == -3
        for mu in range(1, 13):
            assert c_coeff(mu, mu) == 1

    def test_first_row_closed_form(self):
        for ell in range(1, 15):
            assert c_coeff(1, ell) == (-1) ** (ell - 1) * factorial(ell - 1)

    def test_recursion_consistency(self):
        # the closed form must satisfy the step recursion
        # C(mu+1, ell) = (-1)^(ell-1) (ell-1)! sum_{m=mu}^{ell-1} (-1)^m C(mu, m)/m!
        for ell in range(2, 15):
            for mu in range(1, ell):
                rhs = (
                    (-1) ** (ell - 1)
                    * factorial(ell - 1)
                    * sum(
                        (-1) ** m * c_coeff(mu, m) / factorial(m)
                        for m in range(mu, ell)
                    )
                )
                assert c_coeff(mu + 1, ell) == rhs, (mu, ell)

    def test_magnitude_bound_exact(self):
        for ell in range(1, 15):
            for mu in range(1, ell + 1):
                cap = Fraction(factorial(ell - 1), factorial(mu - 1)) * comb(ell - 1, mu - 1)
                assert abs(c_coeff(mu, ell)) <= cap, (mu, ell)

    def test_stirling_rows_equal_symmetric_function_form(self):
        # the integer Stirling recurrence against the closed form it replaced
        for ell in range(1, 40):
            for mu in range(1, ell + 1):
                assert c_coeff(mu, ell) == c_coeff_by_symmetric_functions(mu, ell), (mu, ell)
        assert type(c_coeff(2, 5)) is Fraction

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            c_coeff(0, 3)
        with pytest.raises(ValueError):
            c_coeff(4, 3)


class TestACoefficients:
    def test_examples(self, zeta2):
        assert a_coeff(zeta2, 1, 1) == Polynomial((1,))
        assert a_coeff(zeta2, 1, 2) == Polynomial((0, -2))

    def test_degree_law(self, zeta2):
        for nu in range(1, 9):
            for mu in range(1, nu + 1):
                assert a_coeff(zeta2, mu, nu).degree == nu - mu, (mu, nu)

    def test_rejects_bad_input(self, zeta2):
        with pytest.raises(ValueError):
            a_coeff(zeta2, 2, 1)

    def test_horner_equals_power_sum(self, zeta2):
        for datum in all_data(zeta2):
            for nu in range(1, 13):
                for mu in range(1, nu + 1):
                    assert a_coeff(datum, mu, nu) == a_coeff_by_powers(datum, mu, nu)


class TestRPolynomials:
    def test_reference_r1(self, zeta2):
        assert r_poly(zeta2, 1) == Polynomial((0, 0, 2))

    def test_degree_and_leading(self, zeta2):
        for datum in all_data(zeta2):
            for nu in range(1, 11):
                r = r_poly(datum, nu)
                assert r.degree == nu + 1
                assert r.coefficient(r.degree) == (-2) ** (nu + 1) + 2 * (-1) ** nu

    def test_dual_forms_agree_exactly(self, zeta2):
        for datum in (zeta2, synthetic_datum_real(), synthetic_datum_complex()):
            for nu in range(1, 11):
                via_h, via_gamma = r_poly_forms(datum, nu)
                assert via_h == via_gamma, (datum.label, nu)

    def test_gamma_form_groups_equal_factors(self, zeta2, monkeypatch):
        # zeta(s)^2's two factors are equal: the Gamma form composes B_{nu+1}
        # once per distinct factor (two compositions), and equals the sum
        # over every factor, repeats included
        for datum in (zeta2, synthetic_datum_complex()):
            for nu in range(1, 9):
                b_poly = bernoulli.bernoulli_polynomial(nu + 1)
                per_factor = sum(
                    ((b_poly.compose(Polynomial((f.lam + f.mu.conjugate(), -f.lam)))
                      + b_poly.compose(Polynomial((1 - f.mu, -f.lam)))) * (1 / f.lam**nu)
                     for f in datum.factors), Polynomial())
                shifted = b_poly.compose(Polynomial((GaussianRational(1, -datum.theta), -2)))
                base = shifted + Polynomial((b_poly(1),))
                assert r_poly_forms(datum, nu)[1] == base - per_factor, (datum.label, nu)
        compositions = []
        compose = Polynomial.compose
        monkeypatch.setattr(Polynomial, "compose",
                            lambda self, inner: compositions.append(inner) or compose(self, inner))
        r_poly_forms(zeta2, 5)
        assert len(compositions) == 1 + 1 + 2  # shifted, the H form's conj(h)(1 - s), one factor

    def test_rejects_nu_zero(self, zeta2):
        with pytest.raises(ValueError):
            r_poly(zeta2, 0)


class TestPPolynomials:
    def test_defining_identity(self, zeta2):
        # P_nu + B_{nu+1}(1 - 2s) = R_nu identically (theta = 0 here)
        one_minus_2s = Polynomial((1, -2))
        for nu in range(1, 9):
            shifted = bernoulli.bernoulli_polynomial(nu + 1).compose(one_minus_2s)
            assert p_poly(zeta2, nu) + shifted == r_poly(zeta2, nu)

    def test_subtracted_sum_form(self, zeta2):
        # P_nu = B_{nu+1}(1) - sum_j [B(lam(1-s)+mu~) + B(1-lam s-mu)]/lam^nu
        for nu in range(1, 9):
            b = bernoulli.bernoulli_polynomial(nu + 1)
            total = Polynomial((b(Fraction(1)),))
            for f in zeta2.factors:
                left = b.compose(Polynomial((f.lam + f.mu.conjugate(), -f.lam)))
                right = b.compose(Polynomial((1 - f.mu, -f.lam)))
                total = total - (left + right) * (1 / Fraction(f.lam) ** nu)
            assert p_poly(zeta2, nu) == total

    def test_degree_cap(self, zeta2):
        for nu in range(1, 9):
            assert p_poly(zeta2, nu).degree <= nu + 1


class TestVPolynomials:
    def test_v1_v2_frozen(self, zeta2):
        assert v_poly(zeta2, 1) == Polynomial((0, 0, -1))
        # V_2 = R_2/6 + R_1^2/8
        expected = Fraction(1, 6) * r_poly(zeta2, 2) + Fraction(1, 8) * r_poly(zeta2, 1) * r_poly(zeta2, 1)
        assert v_poly(zeta2, 2) == expected
        assert v_poly(zeta2, 2) == Polynomial((0, 0, Fraction(1, 2), -1, Fraction(1, 2)))

    def test_degree_law(self, zeta2):
        for datum in all_data(zeta2):
            for mu in range(1, 9):
                assert v_poly(datum, mu).degree == 2 * mu

    def test_partition_grouping_equals_ordered_compositions(self, zeta2):
        # the recurrence in v_poly against the literal composition sum
        for datum in all_data(zeta2):
            for mu in range(1, 9):
                assert v_poly(datum, mu) == v_poly_by_compositions(datum, mu), (datum.label, mu)

    def test_exponential_series_route(self, zeta2):
        # independent route: V_mu = (-1)^mu [x^mu] exp(sum_nu R_nu x^nu/(nu(nu+1)))
        order = 6
        series = [Polynomial() for _ in range(order + 1)]
        series[0] = Polynomial((1,))
        log_terms = [Polynomial()] + [
            r_poly(zeta2, nu) * Fraction(1, nu * (nu + 1)) for nu in range(1, order + 1)
        ]
        power = [Polynomial((1,))] + [Polynomial() for _ in range(order)]
        acc = list(power)
        for m in range(1, order + 1):
            nxt = [Polynomial() for _ in range(order + 1)]
            for i in range(order + 1):
                if power[i].is_zero:
                    continue
                for j in range(1, order + 1 - i):
                    nxt[i + j] = nxt[i + j] + power[i] * log_terms[j]
            power = nxt
            inv_mfact = Fraction(1, factorial(m))
            for i in range(order + 1):
                acc[i] = acc[i] + inv_mfact * power[i]
        for mu in range(1, order + 1):
            assert v_poly(zeta2, mu) == (-1) ** mu * acc[mu], mu


class TestQPolynomials:
    def test_frozen_values(self, zeta2):
        assert q_poly(zeta2, 0) == Polynomial((1,))
        assert q_poly(zeta2, 1) == Polynomial((0, 0, -1))
        # Q_2 = s^2 (s+1)^2 / 2
        root = Polynomial((0, 1)) * Polynomial((1, 1))
        assert q_poly(zeta2, 2) == Fraction(1, 2) * root * root

    def test_degree_law_reference_and_synthetic(self, zeta2):
        for datum in all_data(zeta2):
            for nu in range(1, 9):
                assert q_poly(datum, nu).degree == 2 * nu, (datum.label, nu)

    def test_divisibility_exact(self, zeta2):
        # by the scalar long division, independent of the shift `polys` reads
        for nu in range(1, 9):
            divisor = ScalarPolynomial((nu - 1, 1)) ** 2
            quotient, remainder = divmod(ScalarPolynomial(q_poly(zeta2, nu).coeffs), divisor)
            assert not remainder.coeffs, nu
            assert Polynomial(quotient.coeffs) * Polynomial(divisor.coeffs) == q_poly(zeta2, nu)

    @pytest.mark.parametrize("nu", range(5))
    def test_taylor_rows_are_value_and_derivative(self, zeta2, nu):
        # q_taylor's rows 0 and 1 against exact Horner on Q_nu and on its
        # derivative; the complex datum carries imaginary rows through the shift
        for datum in all_data(zeta2):
            q = q_poly(datum, nu)
            derivative = Polynomial([c * k for k, c in enumerate(q.coeffs)][1:])
            for center in range(-4, 3):
                taylor = q_taylor(datum, nu, center)
                assert taylor.degree == q.degree, (datum.label, center)
                for row, want in ((0, q(center)), (1, derivative(center))):
                    assert (Polynomial((taylor.coefficient(row),))
                            == Polynomial((want,))), (datum.label, center, row)
        if nu:  # zeta(s)^2's double zero at s = 1 - nu
            taylor = q_taylor(zeta2, nu, 1 - nu)
            assert (taylor.coefficient(0), taylor.coefficient(1)) == (0, 0)
            assert taylor.coefficient(2) != 0

    def test_growth_trend_logged(self, zeta2):
        # (sup_{|s|<=nu} |Q_nu(s)| nu!)^(1/(2 nu)) / (nu+1) stays bounded
        ratios = []
        for nu in range(1, 9):
            q = q_poly(zeta2, nu)
            sup = max(
                abs(eval_mpc(q, nu * mp.expjpi(mp.mpf(2 * k) / 8))) for k in range(8)
            )
            ratios.append(float((sup * factorial(nu)) ** (mp.mpf(1) / (2 * nu)) / (nu + 1)))
        print("\nQ growth trend ratios:", [f"{r:.4f}" for r in ratios])
        assert max(ratios) < 20


class TestGoldenTable:
    def test_non_real_datum_matches_the_recorded_table(self):
        # Q, R and V up to K = 16 of the theta != 0, complex-mu datum, recorded
        # from the per-coefficient arithmetic: the only table that exercises
        # the imaginary rows
        golden = json.loads((Path(__file__).parent / "data"
                             / "polynomial_table_synthetic_complex_k16.json").read_text())
        rows = polynomial_table(synthetic_datum_complex(label="golden-complex"), 16)
        assert [list(row) for row in rows] == golden


class TestNumericRegime:
    """Data that are not exact are refused; the exact polynomials meet the
    numeric world only through evaluation at the working precision."""

    def test_dual_forms_agree_numerically(self):
        # the exact R_nu against mpmath's own Bernoulli polynomials, with the
        # per-factor form summed numerically at theta != 0 and complex mu
        datum = synthetic_datum_complex()
        i_theta = 1j * mp.mpmathify(datum.theta)
        for nu in range(1, 9):
            n = nu + 1
            for s in (mp.mpc("0.3", "0.2"), mp.mpc(-2, 1), mp.mpc(3)):
                terms = [mp.bernpoly(n, 1 - 2 * s - i_theta), mp.bernpoly(n, 1)]
                for f in datum.factors:
                    lam, mu = mp.mpmathify(f.lam), to_mpc(f.mu)
                    terms += [-mp.bernpoly(n, lam + mp.conj(mu) - lam * s) / lam**nu,
                              -mp.bernpoly(n, 1 - mu - lam * s) / lam**nu]
                scale = mp.fsum(abs(t) for t in terms)
                error = abs(eval_mpc(r_poly(datum, nu), s) - mp.fsum(terms))
                assert error <= scale * mp.mpf(2) ** -(mp.mp.prec - 16), (nu, s)

    @pytest.mark.parametrize("prec", [64, 128, 256])
    def test_dual_form_check_passes_at_each_precision(self, prec):
        # the working precision enters neither the forms nor their comparison
        reference = [r_poly(synthetic_datum_complex(), nu) for nu in range(1, 17)]
        with mp.workprec(prec):
            datum = synthetic_datum_complex(label=f"complex-{prec}")
            assert [r_poly(datum, nu) for nu in range(1, 17)] == reference

    @pytest.mark.parametrize("prec, delta", [(128, "1e-10"), (256, "1e-20")])
    def test_dual_form_check_catches_perturbed_invariant(self, monkeypatch, prec, delta):
        # a perturbed H-invariant moves only the H form; the exact comparison
        # sees a perturbation of any size, at any working precision
        exact_h = FunctionalEquationDatum.h_invariant
        monkeypatch.setattr(
            FunctionalEquationDatum,
            "h_invariant",
            lambda self, n: exact_h(self, n) + Fraction(delta),
        )
        with mp.workprec(prec):
            datum = synthetic_datum_complex(label=f"perturbed-{prec}")
            with pytest.raises(ArithmeticError, match="closed forms disagree"):
                r_poly(datum, 1)

    def test_not_exact(self):
        # mpf/mpc Gamma data and omega are refused, not computed at some precision
        with pytest.raises(DatumError, match="lambda must be a Fraction"):
            GammaFactor(mp.mpf("0.5"), GaussianRational(0))
        with pytest.raises(DatumError, match="lambda must be a Fraction"):
            factor(mp.mpf("0.5"))
        with pytest.raises(DatumError, match="mu must be a GaussianRational"):
            GammaFactor(Fraction(1, 2), mp.mpc("0.25", "0.1"))
        with pytest.raises(DatumError, match="omega must be a GaussianRational"):
            FunctionalEquationDatum(QParam.parse("pi^-1"), mp.expjpi(mp.mpf(1) / 3),
                                    (factor(Fraction(1, 2)),) * 2)

class TestExpansionChecks:
    def test_1overw_examples(self):
        error, bound = check_expansion_1overw(mp.mpc(100), 0, 5)
        assert error <= bound * (1 + mp.mpf(2) ** -100)
        assert bound < mp.mpf("1.5e-10")
        error, bound = check_expansion_1overw(mp.mpc(50, 50), 2, 10)
        assert error <= bound * (1 + mp.mpf(2) ** -100)

    def test_1overw_single_term_identity(self):
        # M = 1, m = 0: the remainder is exactly -1/(w(w-1))
        w = mp.mpc(10)
        error, bound = check_expansion_1overw(w, 0, 1)
        exact = abs(-1 / (w * (w - 1)))
        assert abs(error - exact) < mp.mpf("1e-35")
        assert abs(bound - exact) < mp.mpf("1e-35")

    def test_1overw_rejects_large_m(self):
        with pytest.raises(ValueError):
            check_expansion_1overw(mp.mpc(5), 0, 6)

    def test_1overw_mu_examples(self):
        error, bound = check_expansion_1overw_mu(mp.mpc(100), 1, 5)
        assert error <= bound
        error, bound = check_expansion_1overw_mu(mp.mpc(0, 40), 3, 8)
        assert error <= 10 * bound

    def test_1overw_mu_single_term(self):
        w = mp.mpc(10)
        error, _ = check_expansion_1overw_mu(w, 1, 1)
        assert abs(error - abs(1 / (w * (w - 1)))) < mp.mpf("1e-35")

    def test_1overw_mu_rejects_small_w(self):
        with pytest.raises(ValueError):
            check_expansion_1overw_mu(mp.mpc(10), 1, 6)

    def test_exp_expansion_doubling_decay(self, zeta2):
        n_trunc = 2
        w = mp.mpc(-100, 200)
        _, _, diff1 = check_exp_expansion(zeta2, mp.mpc("0.3"), w, n_trunc)
        _, _, diff2 = check_exp_expansion(zeta2, mp.mpc("0.3"), 2 * w, n_trunc)
        assert diff1 / diff2 >= 2**n_trunc

    def test_exp_expansion_n_zero(self, zeta2):
        lhs, rhs, diff = check_exp_expansion(zeta2, mp.mpc("0.3"), mp.mpc(-40, 80), 0)
        assert lhs == 1 and rhs == 1 and diff == 0

    def test_exp_expansion_at_s_one(self, zeta2):
        # R_1(1) = 2; the nu = 1 truncation against the direct exponential
        assert r_poly(zeta2, 1)(Fraction(1)) == 2
        w = mp.mpc(-200, 200)
        lhs, rhs, diff = check_exp_expansion(zeta2, mp.mpc(1), w, 1)
        direct = mp.exp(-mp.mpf(2) / (2 * (w + 1)))
        assert abs(lhs - direct) < mp.mpf("1e-30")
        assert diff < 100 / abs(w) ** 2

    def test_exp_expansion_rejects_small_w(self, zeta2):
        with pytest.raises(ValueError):
            check_exp_expansion(zeta2, mp.mpc(3), mp.mpc(10), 4)


class TestFactorialInequalities:
    def test_phi_examples(self):
        value, bound = phi_bound_check(3, 2)
        assert value == Fraction(16, 3) and bound == Fraction(32, 3)
        value, bound = phi_bound_check(1, 1)
        assert value == 1 and bound == 2

    def test_psi_example(self):
        value, bound = psi_bound_check(1, 1)
        assert value == 1 and bound == 4

    def test_random_admissible_exact(self):
        rng = random.Random(99)
        for _ in range(60):
            x = Fraction(rng.randint(1, 80), rng.randint(1, 8))
            n_cap = int(Fraction(3, 2) * x)
            if n_cap < 1:
                continue
            n = rng.randint(1, n_cap)
            value, bound = phi_bound_check(n, x)
            assert value <= bound
            m_cap = int((2 * x * x) ** Fraction(1, 2))
            while m_cap * m_cap > 2 * x * x:
                m_cap -= 1
            if m_cap >= 1:
                m = rng.randint(1, m_cap)
                value, bound = psi_bound_check(m, x)
                assert value <= bound

    def test_hypotheses_enforced(self):
        with pytest.raises(ValueError):
            phi_bound_check(4, 2)  # N > 3x/2
        with pytest.raises(ValueError):
            psi_bound_check(3, 2)  # M > sqrt(2) x
        with pytest.raises(ValueError):
            phi_bound_check(1, -1)
