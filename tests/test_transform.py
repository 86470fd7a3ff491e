from fractions import Fraction

import mpmath as mp
import pytest

from twistlab import transform
from twistlab.exactpoly import scalar_to_mpc
from twistlab.expansion import q_poly
from twistlab.special import PoleError
from twistlab.transform import (
    GrowthCertificate,
    LaurentConvergenceError,
    LocalFactor,
    contour_integral,
    degree_bound,
    euler_factor_at_1,
    growth_certificate,
    identity_reduction_check,
    laurent_extract,
    solve_local_factor,
    transformation_polar_consistency,
    transformation_main_term,
    transformation_prefactor,
    twist_laurent_table,
    verify_alpha_law,
    verify_beta_law,
    verify_chi_holomorphy,
)
from twistlab.twist import zeta2_twist_oracle


class TestLaurentExtract:
    def test_simple_pole(self):
        exp = laurent_extract(lambda s: 1 / (s - 1), center=1, max_pole_order=2, nodes=64)
        assert abs(exp.coefficient(-1) - 1) < mp.mpf("1e-25")
        for k in (-2, 0, 1, 2):
            assert abs(exp.coefficient(k)) < mp.mpf("1e-25")

    def test_zeta_squared_stieltjes(self):
        exp = laurent_extract(
            lambda s: zeta2_twist_oracle(s, Fraction(0)),
            center=1,
            max_pole_order=2,
            nodes=128,
        )
        assert abs(exp.coefficient(-2) - 1) < mp.mpf("1e-20")
        assert abs(exp.coefficient(-1) - 2 * mp.euler) < mp.mpf("1e-20")
        assert exp.error(-1) < mp.mpf("1e-20")

    def test_half_twist_leading_coefficient(self):
        exp = laurent_extract(
            lambda s: zeta2_twist_oracle(s, Fraction(1, 2)),
            center=1,
            max_pole_order=2,
            nodes=128,
        )
        assert abs(exp.coefficient(-2) - mp.mpf("0.5")) < mp.mpf("1e-20")

    def test_taylor_side(self):
        exp = laurent_extract(lambda s: mp.exp(s), center=0, max_pole_order=1, k_max=2, nodes=64)
        assert abs(exp.coefficient(0) - 1) < mp.mpf("1e-25")
        assert abs(exp.coefficient(1) - 1) < mp.mpf("1e-25")
        assert abs(exp.coefficient(2) - mp.mpf("0.5")) < mp.mpf("1e-25")

    def test_branch_cut_detected(self):
        with pytest.raises(LaurentConvergenceError):
            laurent_extract(lambda s: mp.log(s - 1), center=1, max_pole_order=1, nodes=64)

    def test_branch_cut_in_one_component_detected(self):
        with pytest.raises(LaurentConvergenceError):
            transform._laurent_many(
                lambda s: [1 / (s - 1), mp.log(s - 1)], 1, 1, Fraction(1, 4), 64, 2
            )

    def test_vector_extraction_equals_scalar_extraction(self):
        components = [
            lambda s: 1 / (s - 1),
            lambda s: mp.exp(s) / (s - 1) ** 2,
            lambda s: zeta2_twist_oracle(s, Fraction(1, 3)),
        ]
        many = transform._laurent_many(
            lambda s: [g(s) for g in components], 1, 3, Fraction(1, 4), 64, 1
        )
        assert len(many) == len(components)
        for g, got in zip(components, many):
            want = laurent_extract(g, center=1, max_pole_order=3, nodes=64, k_max=1)
            assert got == want

    def test_real_on_reals_gives_real_coefficients(self):
        # conjugate symmetry: the half-twist has real coefficients
        # ((-1)^n d(n)), so it is real on the real axis and its Laurent
        # coefficients around a real center must be real
        exp = laurent_extract(
            lambda s: zeta2_twist_oracle(s, Fraction(1, 2)),
            center=1,
            max_pole_order=2,
            k_max=1,
            nodes=64,
        )
        for k in range(-2, 2):
            assert abs(mp.im(exp.coefficient(k))) < mp.mpf("1e-25"), k

    def test_odd_node_count_rejected(self):
        with pytest.raises(ValueError):
            laurent_extract(lambda s: s, center=0, nodes=63)

    def test_contour_integral_residue(self):
        value = contour_integral(lambda s: 3 / (s - 1), center=1)
        assert abs(value - 6j * mp.pi) < mp.mpf("1e-25")

    @pytest.mark.parametrize("nodes", (0, -2))
    def test_too_few_nodes_rejected(self, nodes):
        with pytest.raises(ValueError, match="nodes"):
            laurent_extract(lambda s: 1 / (s - 1), center=1, nodes=nodes)

    @pytest.mark.parametrize("nodes", (0, 1))
    def test_contour_integral_needs_two_nodes(self, nodes):
        with pytest.raises(ValueError, match="nodes"):
            contour_integral(lambda s: 1 / (s - 1), center=1, nodes=nodes)

    @pytest.mark.parametrize("bits", (64, 128, 256))
    def test_root_table_matches_per_node_phases(self, bits):
        # the reference route: one e^(-2 pi i j k / n) per (node, k)
        with mp.workprec(bits):
            for n, radius in ((128, Fraction(1, 4)), (64, Fraction(1, 8)), (6, Fraction(1, 3))):
                samples = transform._circle_samples(
                    lambda s: zeta2_twist_oracle(s, Fraction(1, 3)), 1, radius, n
                )
                ks = range(-3, 3)
                got = transform._coeffs_from_samples(samples, radius, ks)
                scale = max(abs(c) for c in got.values())
                for k in ks:
                    want = mp.fsum(
                        v * mp.expjpi(mp.mpf(-2 * j * k) / n) for j, v in enumerate(samples)
                    ) / n * mp.mpmathify(radius) ** (-k)
                    assert abs(got[k] - want) <= scale * mp.mpf(2) ** -(bits - 8), (n, k)


class TestMainTerm:
    @pytest.mark.parametrize("bits", (64, 128, 256))
    def test_cached_q_coefficients_equal_exact_evaluation(self, zeta2, bits):
        with mp.workprec(bits):
            points = [mp.mpc("-2.75", "0.25"), mp.mpc(1, "-0.25"), mp.mpc("0.5", 14)]
            for nu in range(9):
                coeffs = transform._q_coeffs(zeta2, nu, bits)
                for s in points:
                    value = mp.polyval(coeffs, s)
                    assert value._mpc_ == q_poly(zeta2, nu).eval_mpc(s)._mpc_, (nu, s)

    def test_alpha_one_reduction(self, zeta2):
        report = identity_reduction_check(zeta2)
        assert report.passed

    @pytest.mark.parametrize("bits", (64, 128, 256))
    def test_cached_prefactor_equals_literal_formula(self, zeta2, bits):
        with mp.workprec(bits):
            for s in (mp.mpc("1.7", "0.4"), mp.mpc("-2.75", "0.25"), mp.mpc(3)):
                for alpha in (Fraction(1), Fraction(1, 2), Fraction(2, 3)):
                    omega_star = scalar_to_mpc(zeta2.root_number_star())
                    theta = mp.mpmathify(zeta2.theta)
                    base = mp.sqrt(mp.mpmathify(zeta2.conductor())) * mp.mpmathify(alpha)
                    want = -1j * omega_star * mp.exp((2 * s - 1 + 1j * theta) * mp.log(base))
                    got = transformation_prefactor(zeta2, s, alpha)
                    assert got._mpc_ == want._mpc_, (s, alpha)

    def test_prefactor_homogeneity(self, zeta2):
        s = mp.mpc("1.7", "0.4")
        a1, a2 = Fraction(1, 2), Fraction(3, 4)
        lhs = transformation_prefactor(zeta2, s, a1) / transformation_prefactor(zeta2, s, a2)
        rhs = mp.exp((2 * s - 1) * mp.log(mp.mpmathify(a1 / a2)))
        assert abs(lhs - rhs) < mp.mpf("1e-30")

    def test_increments_match_term_sizes(self, zeta2):
        # raising K by one adds exactly one term; its size is predicted
        # independently from the polynomial value and the shifted series
        from twistlab.expansion import q_poly

        s = mp.mpc(3)
        alpha = Fraction(1, 2)
        values = {k: transformation_main_term(zeta2, s, alpha, k) for k in range(5, 13)}
        print("\nmain-term increment table (K -> K+1):")
        for k in range(5, 12):
            increment = abs(values[k + 1] - values[k])
            predicted = (
                abs(transformation_prefactor(zeta2, s, alpha))
                * (mp.mpmathify(alpha) / (2 * mp.pi)) ** (k + 1)
                * abs(q_poly(zeta2, k + 1).eval_mpc(s))
                * abs(mp.zeta(s + k + 1) ** 2)
            )
            print(f"  K={k}: increment {mp.nstr(increment, 6)}")
            assert abs(increment - predicted) <= mp.mpf("1e-20") * max(1, predicted)

    def test_pole_signal(self, zeta2):
        with pytest.raises(PoleError):
            transformation_main_term(zeta2, mp.mpc(1), Fraction(1, 2), 2)
        with pytest.raises(PoleError):
            transformation_main_term(zeta2, mp.mpc(-1), Fraction(1, 2), 4)

    def test_rejects_nonpositive_alpha(self, zeta2):
        with pytest.raises(ValueError):
            transformation_main_term(zeta2, mp.mpc(3), Fraction(-1, 2), 2)

    def test_rejects_wrong_degree(self):
        from twistlab.exactpoly import GaussianRational
        from twistlab.funceq import FunctionalEquationDatum, QParam, factor

        degree_one = FunctionalEquationDatum(
            QParam.parse("pi^-1/2"), GaussianRational(1), (factor(Fraction(1, 2)),)
        )
        with pytest.raises(ValueError):
            transformation_main_term(degree_one, mp.mpc(3), Fraction(1, 2), 2)


class TestPolarConsistency:
    def test_alpha_half_at_tight_tolerance(self, zeta2):
        report = transformation_polar_consistency(
            zeta2, Fraction(1, 2), 6, tol=mp.mpf("1e-10"), nodes=16
        )
        assert report.passed
        assert len(report.records) == 6  # four circles + two principal parts


@pytest.fixture(scope="module")
def table():
    old = mp.mp.prec
    mp.mp.prec = 128
    try:
        return twist_laurent_table(3)
    finally:
        mp.mp.prec = old


class TestLaurentLaws:
    def test_batched_table_equals_per_numerator_extraction(self):
        # the reference route: one scalar extraction of the oracle per a/q
        table = twist_laurent_table(6)
        assert sorted(table) == [
            (1, 1), (2, 1), (3, 1), (3, 2), (4, 1), (4, 3),
            (5, 1), (5, 2), (5, 3), (5, 4), (6, 1), (6, 5),
        ]
        for (q, a), got in table.items():
            want = laurent_extract(
                lambda s: zeta2_twist_oracle(s, Fraction(a, q)),
                center=1,
                max_pole_order=3,
                radius=Fraction(1, 4),
                nodes=128,
                k_max=0,
            )
            assert got.coefficients == want.coefficients, (q, a)
            assert got.errors == want.errors, (q, a)

    def test_alpha_law(self, zeta2, table):
        report = verify_alpha_law(zeta2, 3, table=table)
        assert report.passed

    def test_beta_law(self, zeta2, table):
        report = verify_beta_law(zeta2, 3, table=table)
        assert report.passed

    def test_lambda_reality_chain(self, zeta2, table):
        # alpha_F = lambda_F conj(alpha_F) with lambda_F = 1
        alpha_f = table[(1, 1)].coefficient(-2)
        lam = zeta2.lambda_invariant()
        assert lam == 1
        assert abs(alpha_f - mp.conj(alpha_f)) < mp.mpf("1e-12")
        assert abs(table[(1, 1)].coefficient(-3)) < mp.mpf("1e-10")

    def test_wrong_instance_rejected(self, table):
        from twistlab.funceq import FunctionalEquationDatum, QParam, factor
        from twistlab.exactpoly import GaussianRational

        no_pole = FunctionalEquationDatum(
            QParam.parse("pi^-1"), GaussianRational(1),
            (factor(Fraction(1, 2)), factor(Fraction(1, 2))),
            pole_order=0,
        )
        with pytest.raises(ValueError):
            verify_alpha_law(no_pole, 2, table=table)


class TestChiHolomorphy:
    def test_p3(self):
        report = verify_chi_holomorphy(3)
        assert report.passed
        assert any("square law" in r.name for r in report.records)


class TestEulerEndgame:
    def test_local_values(self, zeta2):
        for p in (2, 3, 5):
            value = euler_factor_at_1(zeta2, p)
            target = (1 - mp.mpf(1) / p) ** -2
            assert abs(value - target) <= mp.mpf("1e-8"), p

    def test_solver_cases(self):
        forced = solve_local_factor(4, 2)
        assert forced.status == "forced"
        assert forced.factor.partial_degree == 2
        assert forced.factor.roots == (1, 1)
        infeasible = solve_local_factor(5, 2)
        assert infeasible.status == "infeasible"
        assert infeasible.factor is None
        free = solve_local_factor(2, 2)
        assert free.status == "underdetermined"

    def test_local_factor_invariant(self):
        with pytest.raises(ValueError):
            LocalFactor(2, 1, (mp.mpf("1.5"),))
        lf = LocalFactor(2, 2, (1, 1))
        assert abs(lf.value_at(1) - 4) < mp.mpf("1e-30")

    def test_blowup_guard(self, zeta2, monkeypatch):
        # every numerator shares c_-2 = 1, so alpha_F(1/p)/alpha_F = 1
        def shared_pole(s, q, precision=None):
            return [1 / (s - 1) ** 2] * q

        monkeypatch.setattr(transform, "zeta2_twist_batch", shared_pole)
        with pytest.raises(ArithmeticError, match="too close to 1"):
            euler_factor_at_1(zeta2, 2)

    @pytest.mark.parametrize("p", (1, 0, -3))
    def test_degree_bound_rejects_p_below_two(self, p):
        with pytest.raises(ValueError, match="p >= 2"):
            degree_bound(4, 1, p)

    @pytest.mark.parametrize("q_f", (0, Fraction(0), mp.mpf(0), -1))
    def test_degree_bound_rejects_nonpositive_conductor(self, q_f):
        with pytest.raises(ValueError, match="need h >= q_F > 0"):
            degree_bound(4, q_f, 2)

    def test_degree_bound(self):
        for p in (2, 3, 5, 7, 11, 13):
            assert degree_bound(p * p, 1, p) == 2
        assert degree_bound(7, 7, 3) == 0
        assert degree_bound(8, 1, 2) == 3
        assert degree_bound(mp.mpf(8.0), 1, 2) == 3
        assert degree_bound(Fraction(9, 2), Fraction(1, 2), 3) == 2
        with pytest.raises(ValueError):
            degree_bound(1, 2, 3)


class TestGrowthCertificate:
    def test_correct_h_passes(self):
        for q, h in ((1, 1), (3, 9)):
            cert = growth_certificate(Fraction(1, q), h, t=5)
            assert isinstance(cert, GrowthCertificate)
            assert cert.passed, (q, h)
            assert abs(cert.slope) < mp.mpf("0.2")

    def test_wrong_h_fails_with_log_q_squared_slope(self):
        cert = growth_certificate(Fraction(1, 3), 1, t=5)
        assert not cert.passed
        assert abs(cert.slope - mp.log(9)) <= mp.mpf("0.2") * mp.log(9)

    def test_rejects_nonnegative_sigma(self):
        with pytest.raises(ValueError):
            growth_certificate(Fraction(1, 2), 4, sigmas=(-10, 5))

    def test_precision_exhaustion_signal(self, monkeypatch):
        # the shadow evaluation at raised precision certifies the digits;
        # an evaluator whose answer moves with the precision must be refused
        import twistlab.transform as transform_module
        from twistlab.transform import PrecisionExhaustedError

        def unstable(s, alpha, precision=None):
            return mp.mpf("1.01") if precision else mp.mpf(1)

        monkeypatch.setattr(transform_module, "zeta2_twist_oracle", unstable)
        with pytest.raises(PrecisionExhaustedError):
            growth_certificate(Fraction(1, 3), 9, t=5, sigmas=(-10,))
