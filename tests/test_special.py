import random
import sys
from fractions import Fraction
from itertools import accumulate
from operator import mul

import mpmath as mp
import pytest
from mpmath.libmp import to_rational

from twistlab import special
from twistlab.bernoulli import bernoulli_polynomial
from twistlab.special import (
    DirichletCharacter,
    PoleError,
    characters_mod,
    dirichlet_l,
    gauss_sum,
    hurwitz_zeta,
    primitive_root,
    roots_of_unity,
    unit_phase,
)

TIGHT = mp.mpf("1e-30")


class TestHurwitzZeta:
    def test_riemann_value(self):
        assert abs(hurwitz_zeta(2, 1) - mp.pi**2 / 6) < TIGHT

    def test_half_shift_identity(self):
        # zeta(s, 1/2) = (2^s - 1) zeta(s)
        for s in (mp.mpc(3), mp.mpc("0.5", 14), mp.mpc("-7.5")):
            lhs = hurwitz_zeta(s, Fraction(1, 2))
            rhs = (mp.power(2, s) - 1) * hurwitz_zeta(s, 1)
            assert abs(lhs - rhs) < mp.mpf("1e-28") * max(1, abs(rhs))

    def test_negative_integer_values_from_bernoulli(self):
        # zeta(-n, a) = -B_{n+1}(a)/(n+1), exact targets from the table
        for n in range(11):
            for a in (Fraction(1, 3), Fraction(1, 2), Fraction(1)):
                target = -mp.mpmathify(bernoulli_polynomial(n + 1)(a)) / (n + 1)
                assert abs(hurwitz_zeta(-n, a) - target) < mp.mpf("1e-30"), (n, a)

    def test_recurrence(self):
        rng = random.Random(13)
        for _ in range(25):
            s = mp.mpc(rng.uniform(-5, 5), rng.uniform(-10, 10))
            if abs(s - 1) < 0.2:
                continue
            a = mp.mpf(rng.uniform(0.05, 1.0))
            lhs = hurwitz_zeta(s, a)
            rhs = hurwitz_zeta(s, a + 1) + mp.power(a, -s)
            assert abs(lhs - rhs) < mp.mpf("1e-25") * max(1, abs(lhs))

    def test_pole_and_domain(self):
        with pytest.raises(PoleError):
            hurwitz_zeta(1, Fraction(1, 2))
        with pytest.raises(ValueError):
            hurwitz_zeta(2, 0)

    @pytest.mark.parametrize(
        "s, a",
        [
            (mp.nan, Fraction(1, 3)),
            (mp.inf, Fraction(1, 3)),
            (mp.mpc(2, mp.nan), Fraction(1, 3)),
            (mp.mpc(-mp.inf, 1), Fraction(1, 3)),
            (2, mp.nan),
            (2, mp.inf),
        ],
    )
    def test_non_finite_arguments_rejected(self, s, a):
        with pytest.raises(ValueError, match="finite"):
            hurwitz_zeta(s, a)

    def test_arguments_converted_at_requested_precision(self):
        # a = 1/3 rounded at the 128-bit ambient precision would cap the
        # relative accuracy near 2^-127 however many bits are requested
        s = mp.mpc(-30, 5)
        with mp.workprec(256):
            value = hurwitz_zeta(s, Fraction(1, 3))
            target = mp.zeta(s, mp.mpf(1) / 3)
            assert abs(value - target) < abs(target) * mp.mpf(2) ** -240


class TestHurwitzMemo:
    POINT = (mp.mpc("-7.25", "3.5"), Fraction(2, 7))

    def test_memoised_value_is_bitwise_uncached_value(self):
        s, a = self.POINT
        for bits in (128, 192):
            with mp.workprec(bits):
                first = hurwitz_zeta(s, a)
                second = hurwitz_zeta(s, a)
                uncached = mp.mpc(mp.zeta(s, mp.mpmathify(a)))
            assert first._mpc_ == second._mpc_ == uncached._mpc_, bits

    def test_precision_is_part_of_the_key(self):
        s, a = mp.mpc("0.75", "-11"), Fraction(5, 9)
        memo = special._hurwitz_memo
        memo.cache_clear()
        coarse = hurwitz_zeta(s, a)
        assert memo.cache_info().misses == 1
        with mp.workprec(192):
            fine = hurwitz_zeta(s, a)
        info = memo.cache_info()
        assert (info.hits, info.misses) == (0, 2)
        assert fine._mpc_ != coarse._mpc_
        with mp.workprec(192):
            hurwitz_zeta(s, a)
        assert memo.cache_info().hits == 1


class TestHurwitzSeriesAtOne:
    A_VALUES = tuple(
        Fraction(a) for a in ("1", "1/2", "1/3", "1/5", "4/5", "1/24", "23/24")
    )
    RADII = (special._SERIES_RADIUS, 0.25, 0.125, 1 / 64)

    @pytest.mark.parametrize("bits", (64, 128, 256))
    def test_series_value_against_mpmath_at_higher_precision(self, bits):
        # same binary (s, a) on both sides; the reference carries 64 more bits
        with mp.workprec(bits):
            for a in self.A_VALUES:
                a_bin = mp.mpmathify(a)
                for radius in self.RADII:
                    for j in range(8):
                        s = 1 + mp.mpf(radius) * mp.expjpi(mp.mpf(j) / 4)
                        value = hurwitz_zeta(s, a)
                        with mp.workprec(bits + 64):
                            target = mp.zeta(s, a_bin)
                            error = abs(value - target) / abs(target)
                        assert error <= mp.mpf(2) ** -(bits - 2), (bits, a, radius, j)

    def test_series_serves_the_disc_including_its_edge(self):
        special._hurwitz_memo.cache_clear()
        special._hurwitz_series.cache_clear()
        with mp.workprec(128):
            rho = mp.mpf(special._SERIES_RADIUS)
            for s in (1 + rho, 1 - rho, 1 + 1j * rho, mp.mpc(1, "1e-30")):
                hurwitz_zeta(s, Fraction(3, 7))
        info = special._hurwitz_series.cache_info()
        assert (info.misses, info.hits) == (1, 3)

    def test_taylor_coefficients_are_stieltjes_constants(self):
        # zeta(s, a) = 1/(s-1) + sum_n (-1)^n gamma_n(a)/n! (s-1)^n; mpmath
        # computes gamma_n(a) by quadrature, an independent route.  The series
        # holds the entire part E, and the pole term (N+a)^-x / x is
        # 1/x - L_N + L_N^2 x/2 + ..., so gamma_0 = E_0 - L_N and
        # -gamma_1 = E_1 + L_N^2/2.
        bits = 128
        with mp.workprec(bits):
            for a in self.A_VALUES:
                a_bin = mp.mpmathify(a)
                wp, log_n, coeffs, _ = special._hurwitz_series(1, a_bin._mpf_, bits)
                with mp.workprec(bits + 64):
                    e0, e1 = (mp.ldexp(coeffs[-1 - i], -wp) for i in (0, 1))
                    gamma0 = mp.stieltjes(0, a_bin)
                    gamma1 = mp.stieltjes(1, a_bin)
                    assert abs(e0 - log_n - gamma0) <= abs(gamma0) * mp.mpf(2) ** -bits, a
                    assert abs(e1 + log_n**2 / 2 + gamma1) <= abs(gamma1) * mp.mpf(2) ** -bits, a

    def test_point_just_outside_the_disc_is_mpmath_bit_for_bit(self):
        with mp.workprec(128):
            rho = mp.mpf(special._SERIES_RADIUS)
            for s in (1 + rho * (1 + mp.mpf(2) ** -60), mp.mpc(1 - rho, "1e-8")):
                assert abs(s - 1) > rho
                for a in (Fraction(1), Fraction(1, 3)):
                    uncached = mp.mpc(mp.zeta(s, mp.mpmathify(a)))
                    assert hurwitz_zeta(s, a)._mpc_ == uncached._mpc_, (s, a)

    @pytest.mark.parametrize("bits", (64, 128, 256))
    def test_pole_at_one_still_raises(self, bits):
        with mp.workprec(bits):
            for a in (Fraction(1), Fraction(1, 24)):
                with pytest.raises(PoleError):
                    hurwitz_zeta(1, a)
                with pytest.raises(PoleError):
                    hurwitz_zeta(mp.mpc(1, 0), a)


class TestHurwitzSeries:
    """The series route at every integer center the verification chain uses."""

    CENTERS = (*range(-3, 11), 17)
    A_VALUES = TestHurwitzSeriesAtOne.A_VALUES
    RADII = TestHurwitzSeriesAtOne.RADII

    def points(self, center):
        # four nodes per radius, turned by an eighth of a turn per radius
        for index, radius in enumerate(self.RADII):
            for j in range(4):
                yield center + mp.mpf(radius) * mp.expjpi(mp.mpf(j) / 2 + mp.mpf(index) / 8)

    @pytest.mark.parametrize("bits", (64, 128, 256))
    @pytest.mark.parametrize("center", CENTERS)
    def test_value_against_mpmath_at_higher_precision(self, center, bits):
        # the rounded value within 2^-(bits-2) relative, and the unrounded
        # series within its stated 2^-(bits+guard) (relative where |zeta| > 1);
        # same binary (s, a) on both sides, the reference 64 bits finer
        guard = special._SERIES_GUARD
        with mp.workprec(bits):
            for a in self.A_VALUES:
                a_bin = mp.mpmathify(a)
                for s in self.points(center):
                    value = hurwitz_zeta(s, a)
                    raw = special._series_value(s, center, a_bin._mpf_, bits)
                    with mp.workprec(bits + 64):
                        target = mp.zeta(s, a_bin)
                        error = abs(value - target) / abs(target)
                        raw_error = abs(raw - target) / max(1, abs(target))
                    assert error <= mp.mpf(2) ** -(bits - 2), (a, s)
                    assert raw_error <= mp.mpf(2) ** -(bits + guard), (a, s)

    def test_each_disc_is_one_build_then_hits(self):
        with mp.workprec(128):
            rho = mp.mpf(special._SERIES_RADIUS)
            for center in self.CENTERS:
                special._hurwitz_memo.cache_clear()
                special._hurwitz_series.cache_clear()
                for s in (center + rho, center - rho, center + 1j * rho, center - 1j * rho / 3):
                    hurwitz_zeta(s, Fraction(3, 7))
                info = special._hurwitz_series.cache_info()
                assert (info.misses, info.hits) == (1, 3), center

    @pytest.mark.parametrize("bits", (64, 128, 256))
    def test_nonpositive_centers_against_the_exact_bernoulli_layer(self, bits):
        # zeta(c, a) = -B_{1-c}(a)/(1-c) for c = 0..-3, a = u/q with q <= 8.
        # The target is exact at the binary a the series sees, so the
        # unrounded series may differ from it only by its stated
        # 2^-(bits+guard) max(1, |zeta|), and the value by that plus the
        # rounding of the result to ``bits``.
        def exact(x):
            return Fraction(*to_rational(x._mpf_))

        guard = special._SERIES_GUARD
        alphas = sorted({Fraction(u, q) for q in range(1, 9) for u in range(1, q + 1)})
        with mp.workprec(bits):
            for c in (0, -1, -2, -3):
                for a in alphas:
                    a_mpf = mp.mpmathify(a)
                    target = -bernoulli_polynomial(1 - c)(exact(a_mpf)) / (1 - c)
                    stated = Fraction(2) ** -(bits + guard) * max(1, abs(target))
                    raw = special._series_value(mp.mpc(c), c, a_mpf._mpf_, bits)
                    assert abs(exact(raw.real) - target) + abs(exact(raw.imag)) <= stated, (c, a)
                    value = hurwitz_zeta(c, a)
                    got, im = exact(value.real), exact(value.imag)
                    rounding = Fraction(2) ** -bits * abs(got)
                    assert abs(got - target) + abs(im) <= stated + rounding, (c, a)

    def test_off_the_series_route_is_mpmath_bit_for_bit(self):
        with mp.workprec(128):
            rho = mp.mpf(special._SERIES_RADIUS)
            near_center = [mp.mpc(-4, "0.2"), mp.mpf("-3.9"), mp.mpc("-4.1", "-0.1"), mp.mpf("18.1")]
            outside = [c + rho * (1 + mp.mpf(2) ** -60) for c in (-3, 0, 5, 17)]
            growth = [mp.mpc(-10, 5), mp.mpc(-40, 5)]
            for s in near_center + outside + growth:
                for a in (Fraction(1), Fraction(1, 3), Fraction(5, 7)):
                    uncached = mp.mpc(mp.zeta(s, mp.mpmathify(a)))
                    assert hurwitz_zeta(s, a)._mpc_ == uncached._mpc_, (s, a)
            # a > 1 lies outside the contract range the series serves
            s = mp.mpc(-2, "0.1")
            uncached = mp.mpc(mp.zeta(s, mp.mpf(3) / 2))
            assert hurwitz_zeta(s, Fraction(3, 2))._mpc_ == uncached._mpc_


class TestSchwarzReflection:
    """Below the real axis hurwitz_zeta reads the memoised value at the mirror
    point: zeta(conj s, a) = conj zeta(s, a) for real a."""

    def test_mirror_is_the_exact_conjugate_and_the_memo_keeps_the_upper_point(self, monkeypatch):
        keys, memo = [], special._hurwitz_memo
        monkeypatch.setattr(special, "_hurwitz_memo",
                            lambda s, a, prec: keys.append(s) or memo(s, a, prec))
        with mp.workprec(128):
            rho = mp.mpf(1) / 4
            on_discs = [c + rho * mp.expjpi(mp.mpf(j) / 16) for c in (-3, 0, 1, 5, 17)
                        for j in range(1, 16, 2)]
            off_discs = [mp.mpc(-10, 5), mp.mpc("0.5", 14), mp.mpc("2.5", "0.75"),
                         mp.mpc(-4, "0.2")]
            for s in on_discs + off_discs:
                for a in (Fraction(1), Fraction(1, 3), Fraction(5, 7)):
                    below = hurwitz_zeta(mp.conj(s), a)
                    assert below._mpc_ == mp.conj(hurwitz_zeta(s, a))._mpc_, (s, a)
        assert len(keys) == 2 * 3 * len(on_discs + off_discs)
        assert all(mp.make_mpc(key).imag >= 0 for key in keys)


class TestSeriesPoleTerm:
    """The pole term (N+a)^(1-c) e^(-x L_N)/(s - 1), Horner-evaluated beside E in
    fixed point, at the nodes the verification chain samples.  Nodes below the
    real axis read their mirror, so the upper half of each circle, real axis
    included, is every node the series serves."""

    A_VALUES = sorted({Fraction(u, q) for q in range(1, 6) for u in range(1, q + 1)})

    @pytest.mark.parametrize("bits", (64, 128, 256))
    def test_raw_series_within_its_stated_bound(self, bits):
        guard = special._SERIES_GUARD
        with mp.workprec(bits):
            params = [mp.mpmathify(a) for a in self.A_VALUES]
            # the polar circles and their main-term shifts (radius 1/4, 32 nodes),
            # each center seeing every a, and the character circles (radius 1/8, 8 nodes)
            cases = [(c, c + w / 4, params[(j + c) % len(params)])
                     for c in special._SERIES_CENTERS
                     for j, w in enumerate(roots_of_unity(32, bits)[:17])]
            cases += [(1, 1 + w / 8, a) for w in roots_of_unity(8, bits)[:5] for a in params]
            for c, s, a in cases:
                raw = special._series_value(s, c, a._mpf_, bits)
                with mp.workprec(bits + 64):
                    target = mp.zeta(s, a)
                    assert abs(raw - target) <= mp.ldexp(max(1, abs(target)), -bits - guard), \
                        (c, s, a)


def reference_series_size(c, a_mpf, prec):
    """(N, M, wp) of ``special._series_size``'s bounds, evaluated directly in
    53-bit mpmath: the exact bounds up to ordinary rounding."""
    with mp.workprec(53):  # mpf exponents cannot underflow
        a, rho = mp.make_mpf(a_mpf), mp.mpf(special._SERIES_RADIUS)
        half_eps = mp.ldexp(1, -prec - special._SERIES_GUARD - 1)
        low = c - rho - 1
        big_j = max(1, int(-low) // 2 + 1)
        while 4 * mp.rf(abs(c) + rho, 2 * big_j) / (
            (2 * mp.pi) ** (2 * big_j) * (2 * big_j + low) * (2 * big_j + a) ** (2 * big_j + low)
        ) > half_eps:
            big_j += 1
        n, m = 2 * big_j, 2 * big_j - 1
        lam = max(abs(mp.log(a)), mp.log(n + a))
        head = mp.fsum((k + a) ** -c for k in range(n))
        head += (n + a) ** (1 - c) / (abs(c - 1) - rho if c != 1 else rho)  # the pole row
        weights = [abs(mp.bernoulli(2 * j)) / mp.factorial(2 * j) * (n + a) ** (1 - 2 * j)
                   for j in range(1, big_j + 1)]
        while (head + (n + a) ** -c * (0.5 + mp.fdot(weights, list(accumulate(
            (abs(c) + (m + 1) / lam + i for i in range(n - 1)), mul))[::2]
        ))) * (lam * rho) ** (m + 1) / mp.factorial(m + 1) * mp.exp(lam * rho) > half_eps:
            m += 1
        cancel = 0 if c > 1 else mp.log(mp.fsum((k + a) ** (rho - c) for k in range(n)), 2)
        wp = prec + special._SERIES_GUARD + (n * (m + 1)).bit_length() + int(mp.ceil(cancel))
    return n, m, wp


class TestSeriesSize:
    """The log-space float sizes against the same bounds in mpmath."""

    A_VALUES = sorted({Fraction(u, q) for q in range(1, 9) for u in range(1, q + 1)})

    @pytest.mark.parametrize("bits", (64, 128, 256, 1024))
    def test_never_below_the_mpmath_bounds_and_at_most_two_above(self, bits):
        if bits == 1024:
            # the target itself is below the normal floats there: only the
            # log-space route can compare against it
            target = mp.ldexp(1, -bits - special._SERIES_GUARD - 1)
            assert target < sys.float_info.min
        with mp.workprec(bits):
            params = [mp.mpmathify(a) for a in self.A_VALUES]
        for c in special._SERIES_CENTERS:
            for a in params:
                want = reference_series_size(c, a._mpf_, bits)
                got = special._series_size(c, float(a), bits)
                assert all(0 <= g - w <= 2 for g, w in zip(got, want)), (c, a, got, want)


class TestCharacters:
    def test_primitive_roots(self):
        assert primitive_root(3) == 2
        assert primitive_root(4) == 3
        assert primitive_root(5) == 2
        with pytest.raises(ValueError):
            primitive_root(8)

    def test_value_structure(self):
        for p in (3, 5, 7):
            for chi in characters_mod(p):
                # complete multiplicativity on units and roots of unity
                for a in range(1, p):
                    for b in range(1, p):
                        lhs = chi.value(a * b)
                        assert abs(lhs - chi.value(a) * chi.value(b)) < TIGHT
                    assert abs(abs(chi.value(a)) - 1) < TIGHT
                assert abs(chi.value(p)) == 0

    def test_nonprincipal_sum_vanishes(self):
        for p in (3, 5, 11):
            for chi in characters_mod(p, include_principal=False):
                total = mp.fsum(chi.value(a) for a in range(1, p + 1))
                assert abs(total) < TIGHT

    def test_orthogonality(self):
        for p in (3, 5, 7, 11, 13):
            for a in (1, 2, p - 1):
                for b in (1, p - 2 if p > 3 else 2):
                    total = mp.fsum(
                        chi.value(a) * mp.conj(chi.value(b))
                        for chi in characters_mod(p)
                    ) / (p - 1)
                    expected = 1 if a % p == b % p else 0
                    assert abs(total - expected) < TIGHT, (p, a, b)

    def test_conjugate_character(self):
        chi = DirichletCharacter(7, 2)
        for a in range(1, 7):
            assert abs(chi.conjugate().value(a) - mp.conj(chi.value(a))) < TIGHT


class TestGaussSums:
    def test_quadratic_mod_3(self):
        chi = DirichletCharacter(3, 1)  # the quadratic character mod 3
        assert abs(chi.value(2) + 1) < TIGHT
        assert abs(gauss_sum(chi) - mp.mpc(0, 1) * mp.sqrt(3)) < TIGHT

    def test_magnitude_sqrt_p(self):
        for p in (3, 5, 7, 11):
            for chi in characters_mod(p, include_principal=False):
                assert abs(abs(gauss_sum(chi)) - mp.sqrt(p)) < mp.mpf("1e-28")

    def test_principal_sum_is_minus_one(self):
        for p in (3, 5, 7):
            chi0 = DirichletCharacter(p, 0)
            assert abs(gauss_sum(chi0) + 1) < TIGHT


class TestDirichletL:
    def test_catalan_value_mod_4(self):
        chi = DirichletCharacter(4, 1)
        assert abs(dirichlet_l(2, chi) - mp.catalan) < mp.mpf("1e-28")

    def test_trivial_character_gives_zeta(self):
        chi = DirichletCharacter(1, 0)
        assert abs(dirichlet_l(2, chi) - mp.pi**2 / 6) < TIGHT

    def test_hurwitz_combination_vs_direct_series(self):
        # independent route: the Dirichlet series itself, summed in blocks of
        # one period (smooth power-law decay) and accelerated to convergence
        s = mp.mpc(3)
        for chi in characters_mod(5):
            p = chi.modulus

            def block(k, chi=chi, p=p):
                return mp.fsum(
                    chi.value(j) * mp.power(p * int(k) + j, -s) for j in range(1, p + 1)
                )

            direct = mp.nsum(block, [0, mp.inf])
            assert abs(dirichlet_l(s, chi) - direct) < mp.mpf("1e-25")

    def test_principal_pole(self):
        with pytest.raises(PoleError):
            dirichlet_l(1, DirichletCharacter(1, 0))

    def test_nonprincipal_value_at_one(self):
        # L(1, chi_4) = pi/4
        chi = DirichletCharacter(4, 1)
        assert abs(dirichlet_l(1, chi) - mp.pi / 4) < mp.mpf("1e-28")

    @pytest.mark.parametrize("prec", [64, 128, 256])
    def test_value_at_one_matches_digamma(self, prec):
        # L(1, chi) = -m^-1 sum_a chi(a) psi(a/m), by mpmath's digamma against
        # the Stieltjes constants read from the Hurwitz series at center 1
        with mp.workprec(prec):
            for m in (5, 7):
                for chi in characters_mod(m):
                    if chi.is_principal:
                        continue
                    via_psi = -mp.fsum(chi.value(a) * mp.psi(0, mp.mpf(a) / m)
                                       for a in range(1, m)) / m
                    assert abs(dirichlet_l(1, chi) - via_psi) < mp.ldexp(1, 4 - prec), (m, chi.index)


def test_unit_phase_exact_rational():
    assert abs(unit_phase(Fraction(1, 4)) - mp.mpc(0, 1)) < TIGHT
    assert abs(unit_phase(Fraction(1, 2)) + 1) < TIGHT
