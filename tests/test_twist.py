import subprocess
import sys
from fractions import Fraction
from math import gcd

import mpmath as mp
import numpy as np
import pytest

from twistlab.special import DirichletCharacter, PoleError, dirichlet_l
from twistlab.twist import (
    CoefficientStream,
    additive_from_mult_identity_check,
    divisor_stream,
    half_twist_coefficient_identity,
    mult_twist_from_additive,
    p_free_coefficient,
    reconstruct_additive_twist,
    reduce_mod_one,
    twist_direct,
    twist_grid_rows,
    twist_smoothed,
    zeta2_twist_batch,
    zeta2_twist_oracle,
)


class TestDivisorStream:
    def test_small_values(self, divisors):
        assert divisors.values(12) == [1, 2, 2, 3, 2, 4, 2, 4, 3, 4, 2, 6]
        assert divisors.a(1) == 1
        assert divisors.a(12) == 6

    def test_cache_is_stable_under_extension(self, divisors):
        before = divisors.values(50)
        divisors.ensure(5000)
        assert divisors.values(50) == before

    def test_partial_sums_match_convolution_square(self, divisors):
        # sum_{n<=N} d(n)/n^3 = sum_{ab<=N} (ab)^-3, exactly in rationals
        n_max = 200
        lhs = sum(
            Fraction(divisors.a(n), n**3) for n in range(1, n_max + 1)
        )
        rhs = sum(
            Fraction(1, (a * b) ** 3)
            for a in range(1, n_max + 1)
            for b in range(1, n_max // a + 1)
        )
        assert lhs == rhs

    def test_subpolynomial_growth_proxy(self, divisors):
        # d(n) <= C n^0.35 over the first million values with a small
        # constant; the bare exponent-0.35 envelope is violated by highly
        # composite n (d(2520) = 48 > 2520^0.35), so the measured constant
        # is logged and capped instead
        divisors.ensure(10**6)
        values = np.asarray(divisors.values(10**6), dtype=np.float64)
        n = np.arange(1, 10**6 + 1, dtype=np.float64)
        constant = float(np.max(values / n**0.35))
        print(f"\ndivisor growth constant sup d(n)/n^0.35 = {constant:.4f}")
        assert constant < 4

    def test_index_validation(self, divisors):
        with pytest.raises(ValueError):
            divisors.a(0)

    def test_sieve_matches_naive_divisor_count(self):
        stream = divisor_stream(shared=False)
        naive = [
            sum(1 for d in range(1, n + 1) if n % d == 0) for n in range(1, 5001)
        ]
        assert stream.values(5000) == naive
        # growth from a small cache rebuilds through the same sieve
        small = divisor_stream(shared=False)
        small.ensure(3)
        assert small.values(5000) == naive


def test_cli_import_leaves_numpy_out():
    code = "import sys, twistlab.cli; print('numpy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


class TestTwistDirect:
    def test_integer_alpha_equals_untwisted(self, divisors):
        s = mp.mpc(3)
        twisted = twist_direct(divisors, s, Fraction(2), 500).value
        plain = mp.fsum(divisors.a(n) * mp.power(n, -s) for n in range(1, 501))
        assert abs(twisted - plain) < mp.mpf("1e-35")

    def test_against_oracle_at_half(self, divisors):
        s = mp.mpc(3)
        result = twist_direct(divisors, s, Fraction(1, 2), 100_000)
        oracle = zeta2_twist_oracle(s, Fraction(1, 2))
        assert abs(result.value - oracle) <= mp.mpf("1e-8")
        assert abs(result.value - oracle) <= result.tail_estimate

    def test_conjugate_symmetry(self, divisors):
        s = mp.mpc(2.5, 3)
        lhs = twist_direct(divisors, s, Fraction(1, 3), 2000).value
        rhs = mp.conj(twist_direct(divisors, mp.conj(s), Fraction(-1, 3), 2000).value)
        assert abs(lhs - rhs) < mp.mpf("1e-30")

    def test_rejects_sigma_below_one(self, divisors):
        with pytest.raises(ValueError):
            twist_direct(divisors, mp.mpc("0.9"), Fraction(1, 2), 100)


class TestTwistSmoothed:
    def test_alpha_zero_limit(self, divisors):
        s = mp.mpc(3)
        target = zeta2_twist_oracle(s, Fraction(0))
        errors = [
            abs(twist_smoothed(divisors, s, Fraction(0), x, tol=mp.mpf("1e-25")) - target)
            for x in (200, 800, 3200)
        ]
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < mp.mpf("1e-3")

    def test_cauchy_sequence_in_x(self, divisors):
        s = mp.mpc(3)
        alpha = Fraction(1, 3)
        tol = mp.mpf("1e-12")
        diffs = [
            abs(
                twist_smoothed(divisors, s, alpha, x, tol=tol)
                - twist_smoothed(divisors, s, alpha, 2 * x, tol=tol)
            )
            for x in (100, 1000, 10_000)
        ]
        assert diffs[0] > diffs[1] > diffs[2]

    def test_small_x_first_term_dominates(self, divisors):
        s = mp.mpc(3)
        x = mp.mpf("0.05")
        value = twist_smoothed(divisors, s, Fraction(1, 4), x)
        z = 1 / x + 2j * mp.pi * mp.mpf(1) / 4
        first = divisors.a(1) * mp.exp(-z)
        assert abs(value - first) < abs(first) * mp.mpf("1e-3")

    def test_rejects_nonpositive_x(self, divisors):
        with pytest.raises(ValueError):
            twist_smoothed(divisors, mp.mpc(3), Fraction(1, 2), 0)


class TestOracle:
    def test_q_one_is_zeta_squared(self):
        for s in (mp.mpc(3), mp.mpc("0.25", 5), mp.mpc(-7.5, 2)):
            assert abs(zeta2_twist_oracle(s, Fraction(0)) - mp.zeta(s) ** 2) < mp.mpf(
                "1e-25"
            ) * max(1, abs(mp.zeta(s) ** 2))

    def test_continuation_smoke(self):
        value = zeta2_twist_oracle(mp.mpc(-7.5, 2), Fraction(2, 5))
        assert mp.isfinite(value)

    def test_pole_signalled(self):
        with pytest.raises(PoleError):
            zeta2_twist_oracle(mp.mpc(1), Fraction(1, 2))

    def test_periodicity_exact(self):
        s = mp.mpc(2, 1)
        assert zeta2_twist_oracle(s, Fraction(1, 3)) == zeta2_twist_oracle(
            s, Fraction(4, 3)
        )
        assert zeta2_twist_oracle(s, Fraction(-2, 3)) == zeta2_twist_oracle(
            s, Fraction(1, 3)
        )

    def test_grid_agreement_with_direct(self, divisors):
        n_max = 20_000
        for sigma in (2, 3, 4):
            for t in (0, 5, 14):
                s = mp.mpc(sigma, t)
                for q in range(1, 7):
                    for a in range(1, q + 1):
                        if Fraction(a, q).denominator != q:
                            continue
                        alpha = Fraction(a, q)
                        direct = twist_direct(divisors, s, alpha, n_max)
                        oracle = zeta2_twist_oracle(s, alpha)
                        budget = mp.mpf("1.5") * direct.tail_estimate + mp.mpf("1e-12")
                        assert abs(direct.value - oracle) <= budget, (s, alpha)

    def test_batch_matches_single(self):
        s = mp.mpc("0.3", 2)
        batch = zeta2_twist_batch(s, 5)
        for b in range(5):
            assert abs(batch[b] - zeta2_twist_oracle(s, Fraction(b, 5))) < mp.mpf("1e-30")

    def test_batch_is_bitwise_oracle_on_reduced_numerators(self):
        for s in (mp.mpc("0.3", 2), mp.mpc(-12, "4.5")):
            for q in (1, 2, 6, 7, 12):
                batch = zeta2_twist_batch(s, q)
                for b in range(q):
                    if gcd(b, q) == 1 or q == 1:
                        single = zeta2_twist_oracle(s, Fraction(b, q))
                        assert batch[b]._mpc_ == single._mpc_, (s, q, b)


class TestMultiplicativeConversion:
    def test_matches_squared_l_function(self):
        stream = divisor_stream()
        for p, s in ((5, mp.mpc(3)), (3, mp.mpc(2))):
            for chi in (DirichletCharacter(p, 1), DirichletCharacter(p, p - 2)):
                if chi.is_principal:
                    continue
                assembled = mult_twist_from_additive(stream, s, chi)
                target = dirichlet_l(s, chi) ** 2
                assert abs(assembled - target) < mp.mpf("1e-20"), (p, s, chi.index)

    def test_rejects_principal(self):
        with pytest.raises(ValueError):
            mult_twist_from_additive(divisor_stream(), mp.mpc(3), DirichletCharacter(5, 0))

    def test_linearity_in_coefficients(self, divisors):
        divisors.ensure(3000)
        doubled = CoefficientStream(lambda n: 2 * divisors.a(n), label="2*divisor")
        plain = CoefficientStream(lambda n: divisors.a(n), label="divisor-copy")
        chi = DirichletCharacter(5, 1)
        s = mp.mpc(3)
        lhs = mult_twist_from_additive(doubled, s, chi, n_max=3000)
        rhs = 2 * mult_twist_from_additive(plain, s, chi, n_max=3000)
        assert abs(lhs - rhs) < mp.mpf("1e-25")


class TestConversionIdentity:
    def test_numeric_examples(self, divisors):
        check = additive_from_mult_identity_check(divisors, mp.mpc(3), 1, 3, n_max=100_000)
        assert check.difference <= mp.mpf("1e-10")
        check = additive_from_mult_identity_check(divisors, mp.mpc("2.5"), 2, 5, n_max=100_000)
        assert check.difference <= mp.mpf("1e-8")

    def test_rejects_bad_arguments(self, divisors):
        with pytest.raises(ValueError):
            additive_from_mult_identity_check(divisors, mp.mpc(3), 3, 3)
        with pytest.raises(ValueError):
            additive_from_mult_identity_check(divisors, mp.mpc("0.5"), 1, 3)

    def test_half_twist_coefficients_exact(self, divisors):
        assert half_twist_coefficient_identity(divisors, 10_000) == []

    def test_p_free_coefficients(self, divisors):
        # coefficient of F/F_2: d(n) for odd n, 0 for even n
        for n in (1, 2, 3, 4, 12, 15, 64):
            expected = divisors.a(n) if n % 2 else 0
            assert p_free_coefficient(divisors, n, 2) == expected

    def test_round_trip_reconstruction(self):
        for p in (3, 5):
            for a in (1, p - 1):
                check = reconstruct_additive_twist(mp.mpc(3), a, p)
                assert check.difference <= mp.mpf("1e-10"), (p, a)


class TestGridRows:
    def test_rows_cover_methods(self, divisors):
        rows = twist_grid_rows(
            divisors, [mp.mpc(3), mp.mpc("0.5", 5)], [Fraction(1, 2)], n_max=2000
        )
        assert [r[5] for r in rows] == ["direct", "oracle"]
        assert rows[0][2] == "1/2"


def test_reduce_mod_one():
    assert reduce_mod_one(Fraction(7, 3)) == Fraction(1, 3)
    assert reduce_mod_one(Fraction(-1, 3)) == Fraction(2, 3)
    assert reduce_mod_one(Fraction(-2)) == 0
