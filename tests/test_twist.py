import functools
import gc
import subprocess
import sys
from fractions import Fraction
from itertools import compress
from math import floor, gcd, isqrt
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from twistlab import cli, special, twist
from twistlab.bernoulli import bernoulli_polynomial
from twistlab.special import (
    PoleError,
    characters_mod,
    dirichlet_l,
    gauss_sum,
    hurwitz_zeta,
    roots_of_unity,
    unit_phase,
)
from twistlab.twist import (
    PrecisionExhaustedError,
    _divisor_sums,
    additive_from_mult_identity_check,
    character_twists,
    divisor_stream,
    half_twist_coefficient_identity,
    reduce_mod_one,
    twist_direct,
    twist_grid_rows,
    zeta2_twist_batch,
    zeta2_twist_oracle,
)

from paper_checks import (divisor_count, p_free_coefficient, reconstruct_additive_twist,
                          residue_sums_reference)


class TestDivisorStream:
    def test_small_values(self, divisors):
        assert divisors.values(12) == [1, 2, 2, 3, 2, 4, 2, 4, 3, 4, 2, 6]

    def test_cache_is_stable_under_extension(self, divisors):
        before = divisors.values(50)
        divisors.ensure(5000)
        assert divisors.values(50) == before

    def test_partial_sums_match_convolution_square(self, divisors):
        # sum_{n<=N} d(n)/n^3 = sum_{ab<=N} (ab)^-3, exactly in rationals
        n_max = 200
        lhs = sum(
            Fraction(d, n**3) for n, d in enumerate(divisors.values(n_max), 1)
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


def test_cli_import_leaves_numpy_out(checkout_env):
    code = "import sys, twistlab.cli; print('numpy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=checkout_env
    )
    assert result.stdout.strip() == "False"


class TestTwistDirect:
    def test_integer_alpha_equals_untwisted(self, divisors):
        s = mp.mpc(3)
        twisted = twist_direct(s, Fraction(2), 500).value
        plain = mp.fsum(d * mp.power(n, -s) for n, d in enumerate(divisors.values(500), 1))
        assert abs(twisted - plain) < mp.mpf("1e-35")

    def test_against_oracle_at_half(self):
        s = mp.mpc(3)
        result = twist_direct(s, Fraction(1, 2), 100_000)
        oracle = zeta2_twist_oracle(s, Fraction(1, 2))
        assert abs(result.value - oracle) <= mp.mpf("1e-8")
        assert abs(result.value - oracle) <= result.tail_estimate

    def test_conjugate_symmetry(self):
        s = mp.mpc(2.5, 3)
        lhs = twist_direct(s, Fraction(1, 3), 2000).value
        rhs = mp.conj(twist_direct(mp.conj(s), Fraction(-1, 3), 2000).value)
        assert abs(lhs - rhs) < mp.mpf("1e-30")

    def test_rejects_sigma_below_one(self):
        with pytest.raises(ValueError):
            twist_direct(mp.mpc("0.9"), Fraction(1, 2), 100)


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

    def test_grid_agreement_with_direct(self):
        n_max = 20_000
        for sigma in (2, 3, 4):
            for t in (0, 5, 14):
                s = mp.mpc(sigma, t)
                for q in range(1, 7):
                    for a in range(1, q + 1):
                        if Fraction(a, q).denominator != q:
                            continue
                        alpha = Fraction(a, q)
                        direct = twist_direct(s, alpha, n_max)
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

    def test_left_half_plane_matches_exact_bernoulli_route(self):
        # zeta(-n, a) = -B_{n+1}(a)/(n+1) makes F(-n, b/q) exact:
        # q^(2n) (n+1)^-2 sum_w e(-w/q) C_w with C_w = sum_{uvb = w mod q} B_{n+1}(u/q)
        # B_{n+1}(v/q) rational, summed 64 bits above the oracle.  The oracle cancels
        # hardest here, where the growth certificate's only other evidence is its
        # +64-bit shadow.  F vanishes exactly where every term does (q <= 2, even n),
        # so there the bound scales with sum |terms| = 0.
        alphas = (Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(3, 4), Fraction(1, 3),
                  Fraction(2, 5))
        for n in (10, 11, 13, 15, 25):
            bernoulli = bernoulli_polynomial(n + 1)
            for alpha in alphas:
                b, q = alpha.numerator, alpha.denominator
                values = [bernoulli(Fraction(u, q)) for u in range(1, q + 1)]
                grouped = [Fraction(0)] * q
                for u, x in enumerate(values, 1):
                    for v, y in enumerate(values, 1):
                        grouped[u * v * b % q] += x * y
                scale = Fraction(q ** (2 * n), (n + 1) ** 2)
                terms = scale * sum(map(abs, values)) ** 2
                for bits in (64, 128, 256):
                    with mp.workprec(bits + 64):
                        roots = roots_of_unity(q, bits + 64)
                        exact = mp.mpmathify(scale) * mp.fdot(
                            [roots[-w % q] for w in range(q)], map(mp.mpmathify, grouped))
                    with mp.workprec(bits):
                        got = zeta2_twist_oracle(-n, alpha)
                    bound = mp.ldexp(abs(exact) if exact else mp.mpmathify(terms), 8 - bits)
                    assert abs(got - exact) <= bound, (bits, n, alpha)

    @pytest.mark.parametrize("s", [mp.mpc("1.2", "0.1"), mp.mpc("-3.1", "0.2"), mp.mpc(2, 14)])
    def test_grouped_kernel_matches_literal_double_sum(self, s):
        # the reference route: q^(-2s) sum_{u,v=1}^{q} e(-uvb/q) zeta(s, u/q) zeta(s, v/q).
        # Both routes round at the size of the summed terms, and the sum can
        # cancel far below it (q = 12, b = 0 at s = -3.1+0.2i: 6.5e-5 from
        # terms of 2e4), so "relative" is taken to q^(-2 sigma) (sum |zeta|)^2
        for bits in (64, 128, 256):
            with mp.workprec(bits):
                for q in range(1, 13):
                    hurwitz = [hurwitz_zeta(s, Fraction(u, q)) for u in range(1, q + 1)]
                    scale = abs(mp.power(q, -2 * s)) * mp.fsum(abs(h) for h in hurwitz) ** 2
                    batch = zeta2_twist_batch(s, q)
                    for b in range(q):
                        total = mp.mpc(0)
                        for u in range(1, q + 1):
                            for v in range(1, q + 1):
                                phase = unit_phase(Fraction(-u * v * b, q))
                                total += phase * hurwitz[u - 1] * hurwitz[v - 1]
                        want = mp.power(q, -2 * s) * total
                        assert abs(batch[b] - want) <= scale * mp.mpf(2) ** -(bits - 8), \
                            (bits, q, b)


    @pytest.mark.parametrize("bits", (64, 128, 256))
    def test_untwisted_kernel_is_the_pair_sum_bit_for_bit(self, bits):
        # q = 1 returns zeta(s)^2 itself: 1^(-2s) is exactly 1 and the one
        # pair rounds once, so the bytes are those of the general route
        with mp.workprec(bits):
            for s in (mp.mpc("1.2", "0.1"), mp.mpc("-3.1", "0.2"), mp.mpc(2, 14),
                      mp.mpc("-2.75", "-0.25"), mp.mpc("8.25")):
                h = hurwitz_zeta(s, 1)
                general = mp.power(1, -2 * s) * mp.fdot([(h, h)])
                for numerators in ([0], [1], [0, 0]):
                    got = twist._divisor_twist_kernel(s, 1, numerators)
                    assert [x._mpc_ for x in got] == [general._mpc_] * len(numerators)

    @pytest.mark.parametrize("alpha", [Fraction(1, 2), Fraction(1, 3), Fraction(3, 7), Fraction(2)])
    def test_twist_at_conj_s_is_the_conjugate_of_the_opposite_twist(self, alpha):
        # F(conj s, alpha) = conj F(s, -alpha), d(n) being real: three kernel
        # calls at different numerators and points, each within a few ulps
        for s in (mp.mpc("-1.8", "0.2"), mp.mpc("0.3", "2.5")):
            own, twin = zeta2_twist_oracle(s, alpha), zeta2_twist_oracle(s, -alpha)
            assert abs(mp.conj(twin) - zeta2_twist_oracle(mp.conj(s), alpha)) <= (
                abs(own) + abs(twin)) * mp.mpf(2) ** -(mp.mp.prec - 4)


class TestReflectedKernel:
    """Hurwitz's formula (the growth certificate's route, Hurwitz values at 1 - s)
    against the oracle, whose Hurwitz values sit at s itself."""

    # the certificate's default grid at its default t, and an odd grid near the axis
    POINTS = ([mp.mpc(sigma, 5) for sigma in (-10, -20, -30, -40)]
              + [mp.mpc(sigma, 0.5) for sigma in (-10.5, -15.5, -25.5)])
    REFERENCE_BITS = 288

    @classmethod
    @functools.lru_cache(maxsize=None)
    def reference(cls, q, index):
        """F(s, b/q) for b = 0..q-1 by the oracle at 288 bits, and an allowance for
        its error: 2^10 ulps of q^-2sigma (sum_u |zeta(s, u/q)|)^2, the scale of its
        sums, each Hurwitz value being within a few ulps."""
        s, bits = cls.POINTS[index], cls.REFERENCE_BITS
        with mp.workprec(bits):
            values = zeta2_twist_batch(s, q)
            sizes = mp.fsum(abs(hurwitz_zeta(s, Fraction(u, q))) for u in range(1, q + 1))
            return values, mp.ldexp(abs(mp.power(q, -2 * s)) * sizes ** 2, 10 - bits)

    @pytest.mark.parametrize("bits", (64, 128, 256))
    def test_agrees_with_the_oracle_within_the_stated_radius(self, bits):
        for q in range(1, 13):
            for index, s in enumerate(self.POINTS):
                want, allowance = self.reference(q, index)
                with mp.workprec(bits):
                    got, radius = twist._reflected_twist_kernel(s, q, range(q))
                for b, (value, target) in enumerate(zip(got, want)):
                    assert abs(value - target) <= radius + allowance, (bits, q, b, s)

    def test_radius_leaves_the_certificate_most_of_the_bits(self):
        # on the default grid the radius is far below |F| for alpha = 1/q
        with mp.workprec(128):
            for q in (1, 2, 3, 4, 7, 12):
                for s in self.POINTS[:4]:
                    (value,), radius = twist._reflected_twist_kernel(s, q, [1])
                    assert radius <= abs(value) * mp.mpf(2) ** -100, (q, s)

    @pytest.mark.parametrize("bits", (64, 128, 256))
    def test_trivial_zeros_are_exact(self, bits):
        # at t = 0 and even sigma every sine row vanishes exactly for q <= 2, and
        # for no q >= 3; the oracle at 64 more bits agrees
        with mp.workprec(bits):
            for sigma in (-2, -4, -10, -40):
                s = mp.mpc(sigma)
                for q in range(1, 7):
                    values, radius = twist._reflected_twist_kernel(s, q, range(q))
                    with mp.workprec(bits + 64):
                        want = zeta2_twist_batch(s, q)
                    assert (radius == 0) == (q <= 2), (sigma, q)
                    for value, target in zip(values, want):
                        assert abs(value - target) <= radius + mp.ldexp(abs(target), 8 - bits)
                        assert value == 0 or q > 2


class TestMultiplicativeConversion:
    def test_matches_squared_l_function(self):
        # every odd prime of the --primes range, at a point on the series disc
        # |s - 1| = 1/4 and at one off every disc
        for bits in (128, 256):
            with mp.workprec(bits):
                for s in (mp.mpc(1, "0.25"), mp.mpc("0.5", 14)):
                    for p in (3, 5, 7, 11, 13):
                        chars = characters_mod(p, include_principal=False)
                        values = character_twists(zeta2_twist_batch(s, p), p)
                        assert len(values) == len(chars) == p - 2
                        for chi, value in zip(chars, values):
                            target = dirichlet_l(s, chi) ** 2
                            bound = mp.ldexp(max(1, abs(target)), 12 - bits)
                            assert abs(value - target) <= bound, (bits, s, p, chi.index)

    def test_weights_are_cached_per_precision(self):
        # weights cached at 256 bits would round the 128-bit sums differently
        s = mp.mpc(2, 1)
        twist._character_weights.cache_clear()
        twists = zeta2_twist_batch(s, 5)
        alone = [v._mpc_ for v in character_twists(twists, 5)]
        twist._character_weights.cache_clear()
        with mp.workprec(256):
            character_twists(zeta2_twist_batch(s, 5), 5)
        assert [v._mpc_ for v in character_twists(twists, 5)] == alone


class TestConversionIdentity:
    def test_numeric_examples(self):
        for s, a, p, bound in ((mp.mpc(3), 1, 3, "1e-10"), (mp.mpc("2.5"), 2, 5, "1e-8")):
            (check,) = additive_from_mult_identity_check(s, a, [p], n_max=100_000)
            assert check.difference <= mp.mpf(bound)
            # both sides read a mod p only, outside 1..p-1 too
            for shifted in (a + p, a - 2 * p):
                assert additive_from_mult_identity_check(s, shifted, [p], n_max=100_000) == [check]

    def test_one_pass_serves_every_prime_bit_for_bit(self):
        s, primes = mp.mpc("2.5", 1), (3, 5, 7)
        checks = additive_from_mult_identity_check(s, 2, primes, n_max=5000)
        assert checks == [additive_from_mult_identity_check(s, 2, [p], n_max=5000)[0]
                          for p in primes]
        assert additive_from_mult_identity_check(s, 2, [], n_max=5000) == []

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            additive_from_mult_identity_check(mp.mpc(3), 3, [3])
        with pytest.raises(ValueError):
            additive_from_mult_identity_check(mp.mpc(3), 5, [3, 5])
        with pytest.raises(ValueError):
            additive_from_mult_identity_check(mp.mpc("0.5"), 1, [3])

    def test_half_twist_coefficients_exact(self):
        assert half_twist_coefficient_identity(10_000) == []

    def test_p_free_coefficients(self, divisors):
        # coefficient of F/F_p: d(n) for n prime to p, 0 otherwise
        for p in (2, 3, 5):
            for n in (1, 2, 3, 4, 9, 12, 15, 25, 64, 75):
                expected = divisor_count(n) if n % p else 0
                assert p_free_coefficient(n, p) == expected, (n, p)

    def test_round_trip_reconstruction(self):
        for p in (3, 5):
            for a in (1, p - 1, p + 1, -p - 1):
                check = reconstruct_additive_twist(mp.mpc(3), a, p)
                assert check.difference <= mp.mpf("1e-10"), (p, a)


REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference"


def signed_coefficient(n):
    """Signed integer coefficients with a zero at every fourth n."""
    return 0 if n % 4 == 0 else n % 5 - 2


def literal_buckets(coeff, s, weight, n_max, modulus):
    """sum_{n <= n_max, n = r mod modulus} a(n) weight(n) n^-s for a(n) =
    coeff(n), one term and one mp.power at a time: the per-n loop the
    fixed-point kernel replaced, kept as the independent route."""
    sums = [mp.mpc(0)] * min(modulus, n_max + 1)
    for n in range(1, n_max + 1):
        c = coeff(n)
        if c != 0:
            sums[n % modulus] += c * weight(n) * mp.power(n, -s)
    return sums


def literal_series(s, weight, n_max):
    """sum_{n <= n_max} d(n) weight(n) n^-s by the literal route."""
    return literal_buckets(divisor_count, s, weight, n_max, 1)[0]


def big_omega(n):
    """Omega(n): the prime factors of n counted with multiplicity."""
    count, p = 0, 2
    while p * p <= n:
        while n % p == 0:
            n //= p
            count += 1
        p += 1
    return count + (n > 1)


def fixed_point_bounds(coeff, s, modulus, n_max):
    """The error the kernel's docstring states per bucket before its rounding
    at the working precision: the sum over the bucket's n with a(n) != 0 of
    (Omega(n) + 1) 2^-bits max(1, n^-sigma) |a(n)|, where
    bits = prec + bit_length(N bit_length(N))."""
    bits = mp.mp.prec + (n_max * n_max.bit_length()).bit_length()
    bounds = [mp.mpf(0)] * min(modulus, n_max + 1)
    for n in range(1, n_max + 1):
        c = coeff(n)
        if c != 0:
            size = max(1, mp.power(n, -mp.re(s))) * abs(c)
            bounds[n % modulus] += (big_omega(n) + 1) * size
    return [mp.ldexp(bound, -bits) for bound in bounds]


def literal_twist(s, alpha, n_max):
    """sum d(n) e(-n alpha) n^-s with the phase evaluated afresh for every n."""
    return literal_series(s, lambda n: unit_phase(reduce_mod_one(-n * alpha)), n_max)


def assert_close(got, want):
    assert abs(got - want) <= mp.mpf(2) ** -(mp.mp.prec - 20) * abs(want), (got, want)


# the series of d(n) at t = 0 and at t = 14
KERNEL_POINTS = [pytest.param(mp.mpc("2.5"), id="t0-divisor"),
                 pytest.param(mp.mpc(2, 14), id="t14-divisor")]


class TestResidueKernel:
    @pytest.mark.parametrize("s", KERNEL_POINTS)
    def test_direct_matches_literal_loop(self, s):
        for alpha in (Fraction(0), Fraction(1, 2), Fraction(2, 3), Fraction(-3, 7)):
            got = twist_direct(s, alpha, 1500).value
            assert_close(got, literal_twist(s, alpha, 1500))

    @pytest.mark.parametrize("s", KERNEL_POINTS)
    def test_identity_sides_match_literal_loops(self, s):
        n_max = 1500
        for a, p in ((1, 3), (2, 5)):
            (check,) = additive_from_mult_identity_check(s, a, [p], n_max=n_max)
            f_full = literal_series(s, lambda n: 1, n_max)
            f_p_free = literal_series(s, lambda n: n % p != 0, n_max)
            char_part = mp.fsum(
                chi.value(a)
                * gauss_sum(chi.conjugate())
                * literal_series(s, chi.value, n_max)
                for chi in characters_mod(p, include_principal=False)
            )
            rhs = char_part / (p - 1) - (mp.mpf(p) / (p - 1) * f_p_free - f_full)
            assert_close(check.lhs, literal_twist(s, Fraction(-a, p), n_max))
            assert_close(check.rhs, rhs)

    @pytest.mark.parametrize(
        "coeff, buckets",
        [pytest.param(divisor_count,
                      lambda coeffs, s, modulus: _divisor_sums(len(coeffs), s, modulus),
                      id="divisor"),
         # any other coefficients only the tests' generic reference pass accepts
         pytest.param(signed_coefficient, residue_sums_reference, id="generic")])
    @pytest.mark.parametrize(
        "s",
        [
            pytest.param(mp.mpc("2.5"), id="t0"),
            pytest.param(mp.mpc(2, 14), id="t14"),
            pytest.param(mp.mpc(-1, 2), id="smoothed"),  # sigma < 0: the errors add relatively
            pytest.param(mp.mpc(40, 3), id="sigma40"),  # primes stop at 13
        ],
    )
    def test_buckets_within_stated_bound_of_literal_loop(self, coeff, buckets, s):
        # n_max on both sides of the square and power-of-two boundaries of the
        # table sizes; modulus n_max + 1 gives one bucket per n
        prec = mp.mp.prec
        for n_max in (1, 2, 3, 4, 15, 16, 17, 1000, 1024, 2000):
            with mp.workprec(prec + 64):
                terms = literal_buckets(coeff, s, lambda n: 1, n_max, n_max + 1)
                per_class = [mp.fsum(terms[r::6]) for r in range(min(6, n_max + 1))]
            coeffs = [coeff(n) for n in range(1, n_max + 1)]
            for modulus, want in ((6, per_class), (n_max + 1, terms)):
                got = buckets(coeffs, s, modulus)
                bounds = fixed_point_bounds(coeff, s, modulus, n_max)
                assert len(got) == len(want)
                for r, (g, w, bound) in enumerate(zip(got, want, bounds)):
                    rounding = mp.ldexp(abs(w) + bound, 1 - prec)
                    assert abs(g - w) <= bound + rounding, (n_max, modulus, r)

    # the prime stop at sigma = 40, sigma < 0, and both sides of the real/complex power
    REFERENCE_POINTS = (mp.mpc("2.5"), mp.mpc(2, 14), mp.mpc(-1, 2), mp.mpc(40, 3), mp.mpc(3),
                        mp.mpc("1.5", -7))
    SIZES = (1, 2, 3, 4, 15, 16, 17, 1000, 1024, 2000)

    @pytest.mark.parametrize("bits, sizes, points", [
        pytest.param(64, SIZES, REFERENCE_POINTS, id="64"),
        pytest.param(128, SIZES, REFERENCE_POINTS, id="128"),
        pytest.param(256, SIZES, REFERENCE_POINTS, id="256"),
        pytest.param(128, (20_000,), REFERENCE_POINTS[:2], id="128-20000")])
    def test_divisor_pass_is_the_generic_pass_bit_for_bit(self, divisors, bits, sizes, points):
        # every modulus class: one bucket, a few, more than sqrt(N), one per n, above N
        with mp.workprec(bits):
            for n_max in sizes:
                coeffs = divisors.values(n_max)
                for s in points:
                    for modulus in (1, 6, 105, n_max + 1, 17017):
                        got = _divisor_sums(n_max, s, modulus)
                        want = residue_sums_reference(coeffs, s, modulus)
                        assert [v._mpc_ for v in got] == [v._mpc_ for v in want], (n_max, s, modulus)
                    got = _divisor_sums(n_max, s, 105, folds=(3, 5, 7))
                    want = residue_sums_reference(coeffs, s, 105, folds=(3, 5, 7))
                    assert [[v._mpc_ for v in f] for f in got] == [[v._mpc_ for v in f] for f in want]

    @pytest.mark.parametrize("bits", (64, 128, 256))
    def test_prime_powers_are_mp_power_bit_for_bit(self, bits):
        primes = [p for p in range(2, 20_001) if all(p % d for d in range(2, isqrt(p) + 1))]
        scale = bits + 30
        with mp.workprec(bits):
            for s in self.REFERENCE_POINTS:
                minus_s = -s if s.imag else -s.real
                for p in primes:
                    v = mp.power(p, minus_s)
                    want = (twist._nearest(v.real._mpf_, scale), twist._nearest(v.imag._mpf_, scale))
                    assert twist._fixed_power(p, minus_s, scale) == want, (p, s)

    @pytest.mark.parametrize("bits", (64, 128, 256))
    def test_integer_powers_are_the_exact_nearest_and_mp_power_bit_for_bit(self, bits):
        # the table of a 10^5-term pass: 29 bits above the working precision,
        # mpmath's powers 10 bits above that
        flags = twist._prime_flags(100_000)
        scale = bits + 29
        with mp.workprec(scale + 10):
            for k in range(2, 9):
                for p in compress(range(100_001), flags):
                    exact = floor(Fraction(2**scale, p**k) + Fraction(1, 2))
                    assert twist._nearest(mp.power(p, -k)._mpf_, scale) == exact, (p, k)
                    assert twist._fixed_power(p, -k, scale) == (exact, 0), (p, k)

    @pytest.mark.parametrize("s", (2, 3))
    def test_integer_pass_calls_no_mpmath_power(self, monkeypatch, s):
        def refuse(*args):
            raise AssertionError("an integer s took mpmath's power")

        want = residue_sums_reference(divisor_stream().values(2000), s, 6)
        monkeypatch.setattr(twist, "mpf_pow", refuse)
        monkeypatch.setattr(twist, "mpc_pow", refuse)
        assert [v._mpc_ for v in _divisor_sums(2000, mp.mpc(s), 6)] == [v._mpc_ for v in want]
        twist_grid_rows([mp.mpc(s)], [Fraction(1, 2), Fraction(1, 3)], n_max=2000)

    def test_huge_integer_sigma_streams_no_prime(self, monkeypatch):
        # k = 10^300: one p^k would never finish
        calls, fixed_power = [], twist._fixed_power
        monkeypatch.setattr(
            twist, "_fixed_power", lambda *args: calls.append(args) or fixed_power(*args))
        assert _divisor_sums(100_000, mp.mpc("1e300"), 2) == [0, 1]
        assert calls == []

    def test_prime_stop_is_bit_identical_to_the_full_pass(self, monkeypatch):
        power_cut = twist._power_cut
        for s in (mp.mpc(40, 3), mp.mpc(40)):  # mpmath's power, then the exact 1/p^40
            cuts = []
            monkeypatch.setattr(
                twist, "_power_cut", lambda *args: cuts.append(power_cut(*args)) or cuts[-1])
            stopped = _divisor_sums(2000, s, 6)
            assert cuts == [14]  # no prime above 13 is streamed
            monkeypatch.setattr(twist, "_power_cut", lambda sigma, scale, n_max: n_max)
            full = _divisor_sums(2000, s, 6)
            assert [v._mpc_ for v in stopped] == [v._mpc_ for v in full], s

    @pytest.mark.parametrize("s", KERNEL_POINTS)
    def test_folded_buckets_are_a_pass_mod_p_bit_for_bit(self, s):
        folded = _divisor_sums(2000, s, 105, folds=(3, 5, 7))
        for p, buckets in zip((3, 5, 7), folded):
            assert [v._mpc_ for v in buckets] == [v._mpc_ for v in _divisor_sums(2000, s, p)]

    def test_pass_leaves_no_garbage(self):
        # a reference cycle would hold the pass's tables until the cyclic
        # collector happens to run
        gc.collect()
        gc.disable()
        try:
            _divisor_sums(2000, mp.mpc(2, 14), 6)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_bucket_count_is_capped_by_the_terms(self):
        assert len(_divisor_sums(2000, mp.mpc(3), 6)) == 6
        assert len(_divisor_sums(2000, mp.mpc(3), 17017)) == 2001

    def test_series_sums_build_no_coefficient_list(self, monkeypatch):
        def refuse(self, n_max):
            raise AssertionError("a series pass built the coefficient list")

        monkeypatch.setattr(twist.DivisorStream, "ensure", refuse)
        s = mp.mpc(3)
        rows = twist_grid_rows([s], [Fraction(1, 2), Fraction(1, 3)], n_max=2000)
        assert [r[5] for r in rows] == ["direct", "direct"]
        twist_direct(s, Fraction(1, 2), 2000)
        additive_from_mult_identity_check(s, 1, [3, 5], n_max=2000)


class TestGridRows:
    def test_rows_cover_methods(self):
        rows = twist_grid_rows([mp.mpc(3), mp.mpc("0.5", 5)], [Fraction(1, 2)], n_max=2000)
        assert [r[5] for r in rows] == ["direct", "oracle"]
        assert rows[0][2] == "1/2"
        assert rows[1][3:5] == tuple(
            mp.nstr(f(zeta2_twist_oracle(mp.mpc("0.5", 5), Fraction(1, 2))), 25)
            for f in (mp.re, mp.im))

    @pytest.mark.parametrize("s", KERNEL_POINTS)
    def test_shared_pass_equals_per_alpha_direct(self, s):
        # lcm(7, 11, 13, 17) = 17017 > n_max: one bucket per term
        n_max = 2000
        for alphas in (
            [Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)],
            [Fraction(1, 7), Fraction(1, 11), Fraction(1, 13), Fraction(1, 17)],
        ):
            rows = twist_grid_rows([s], alphas, n_max=n_max)
            values = [twist_direct(s, alpha, n_max).value for alpha in alphas]
            assert [r[3:5] for r in rows] == [
                (mp.nstr(mp.re(v), 25), mp.nstr(mp.im(v), 25)) for v in values
            ]

    LEFT = [mp.mpc(-1, 5), mp.mpc("-3.5", 5), mp.mpc("-10.5", "0.5"), mp.mpc(-20, 5)]
    LEFT_ALPHAS = [Fraction(1, 7), Fraction(1, 11), Fraction(2, 7), Fraction(0), Fraction(3, 2)]

    def test_left_half_plane_rows_agree_with_the_oracle_within_the_radius(self):
        # sigma <= -1 reads Hurwitz's formula; the oracle at 64 more bits is the reference,
        # and each printed part is off by at most half a unit in its 25th digit
        rows = twist_grid_rows(self.LEFT, self.LEFT_ALPHAS)
        assert {r[5] for r in rows} == {"oracle"}
        for i, s in enumerate(self.LEFT):
            for alpha, row in zip(self.LEFT_ALPHAS, rows[i * len(self.LEFT_ALPHAS):]):
                alpha = reduce_mod_one(alpha)
                assert row[2] == str(alpha)
                (_,), radius = twist._reflected_twist_kernel(s, alpha.denominator, [alpha.numerator])
                with mp.workprec(mp.mp.prec + 64):
                    want = zeta2_twist_oracle(s, alpha)
                printing = mp.mpf(10) ** -24 * (abs(want.real) + abs(want.imag))
                assert abs(mp.mpc(row[3], row[4]) - want) <= radius + printing, (s, alpha)

    def test_left_half_plane_calls_mp_zeta_nowhere_left_of_zero(self, monkeypatch):
        points, zeta = [], mp.zeta
        monkeypatch.setattr(mp, "zeta", lambda s, *args: points.append(mp.mpc(s)) or zeta(s, *args))
        special._hurwitz_memo.cache_clear()
        twist_grid_rows(self.LEFT + [mp.mpc(-40, 5)], self.LEFT_ALPHAS)
        assert points and min(point.real for point in points) >= 0

    def test_one_kernel_call_per_point_and_denominator(self, monkeypatch):
        calls = []
        for name in ("_reflected_twist_kernel", "_divisor_twist_kernel"):
            kernel = getattr(twist, name)
            monkeypatch.setattr(twist, name, lambda s, q, bs, kernel=kernel, name=name: calls.append(
                (name, mp.mpc(s).real, q, list(bs))) or kernel(s, q, bs))
        twist_grid_rows([mp.mpc(-2, 5), mp.mpc("0.5", 5)], self.LEFT_ALPHAS + [Fraction(-5, 7)])
        assert sorted(calls) == sorted(
            (name, mp.mpf(sigma), q, bs) for name, sigma in (("_reflected_twist_kernel", -2),
                                                            ("_divisor_twist_kernel", "0.5"))
            for q, bs in ((7, [1, 2]), (11, [1]), (1, [0]), (2, [1])))

    def test_a_value_without_stable_bits_is_refused(self):
        # F(s, 1/2) has zeta(s)^2's double zero at s = -2, so it is about 1.6e-22
        # at s = -2 + 1e-10 i: 64 bits leave fewer than 16 stable bits, 128 enough
        s = mp.mpc(-2, "1e-10")
        with mp.workprec(64), pytest.raises(PrecisionExhaustedError, match="stable bits"):
            twist_grid_rows([s], [Fraction(1, 2)])
        assert twist_grid_rows([s], [Fraction(1, 2)])[0][3] == "1.576084513302592286907829e-22"

    def test_cli_rows_equal_reference(self, capsys):
        # the numerators of the benchmark's even and odd seeds; each run reads
        # the reference rows of its own alphas
        reference = (REFERENCE / "grid.csv").read_text().splitlines()
        for alphas, other in (("1/2,1/3", ",2/3,"), ("1/2,2/3", ",1/3,")):
            code = cli.main(["twist-grid", "--sigma-grid", "2,3", "--t", "0", "--alphas", alphas])
            lines = capsys.readouterr().out.splitlines()
            assert code == 0
            assert lines == [line for line in reference if other not in line], alphas


def test_reduce_mod_one():
    assert reduce_mod_one(Fraction(7, 3)) == Fraction(1, 3)
    assert reduce_mod_one(Fraction(-1, 3)) == Fraction(2, 3)
    assert reduce_mod_one(Fraction(-2)) == 0
