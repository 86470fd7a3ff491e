import random
from fractions import Fraction

import mpmath as mp
import pytest

from twistlab.exactpoly import GaussianRational, Polynomial


class TestGaussianRational:
    def test_arithmetic(self):
        z = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
        w = GaussianRational(2, 5)
        assert z + w == GaussianRational(Fraction(5, 2), Fraction(17, 4))
        assert z * w == GaussianRational(Fraction(1) + Fraction(15, 4), Fraction(5, 2) - Fraction(3, 2))
        assert (z * w) / w == z
        assert -z + z == 0

    def test_mixing_with_rationals(self):
        z = GaussianRational(1, 1)
        assert 2 * z == GaussianRational(2, 2)
        assert z + Fraction(1, 2) == GaussianRational(Fraction(3, 2), 1)
        assert Fraction(1, 2) / GaussianRational(0, 1) == GaussianRational(0, Fraction(-1, 2))

    def test_powers(self):
        i = GaussianRational(0, 1)
        assert i**2 == -1
        assert i**-1 == GaussianRational(0, -1)
        assert (GaussianRational(1, 1)) ** 4 == -4

    def test_conjugate_norm(self):
        z = GaussianRational(3, -4)
        assert z.conjugate() == GaussianRational(3, 4)
        assert z.norm() == 25
        assert z * z.conjugate() == 25

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            GaussianRational(1) / GaussianRational(0)

    def test_to_mpc(self):
        z = GaussianRational(Fraction(1, 3), Fraction(2, 7))
        v = z.to_mpc()
        assert abs(v - mp.mpc(mp.mpf(1) / 3, mp.mpf(2) / 7)) < mp.mpf("1e-35")

    def test_hash_consistency(self):
        assert hash(GaussianRational(Fraction(1, 2))) == hash(Fraction(1, 2))
        assert GaussianRational(Fraction(1, 2)) == Fraction(1, 2)


class TestPolynomial:
    def test_trailing_zeros_trimmed(self):
        p = Polynomial((1, 2, 0, 0))
        assert p.degree == 1
        assert Polynomial((0, 0)).is_zero
        assert Polynomial().degree == -1

    def test_real_gaussian_coefficient_stored_as_fraction(self):
        p = Polynomial((GaussianRational(3, 0),))
        assert type(p.coeffs[0]) is Fraction
        assert p == Polynomial((3,)) and hash(p) == hash(Polynomial((3,)))
        # only real ones: a non-real coefficient keeps its Gaussian form
        mixed = Polynomial((GaussianRational(Fraction(-1, 2), 0), GaussianRational(0, 1)))
        assert type(mixed.coeffs[0]) is Fraction
        assert type(mixed.coeffs[1]) is GaussianRational
        assert mixed.pretty() == "(1i)*s - 1/2"

    def test_leading(self):
        assert Polynomial((Fraction(1, 6), -1, 1)).leading == 1
        with pytest.raises(ValueError):
            Polynomial().leading

    def test_ring_ops(self):
        p = Polynomial((1, 2))  # 1 + 2x
        q = Polynomial((0, 0, 1))  # x^2
        assert p + q == Polynomial((1, 2, 1))
        assert p * q == Polynomial((0, 0, 1, 2))
        assert p - p == Polynomial()
        assert (p**3).degree == 3
        assert 3 * p == Polynomial((3, 6))

    def test_divmod_roundtrip(self):
        rng = random.Random(7)
        for _ in range(25):
            a = Polynomial([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(1, 7))])
            b = Polynomial([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(1, 5))])
            if b.is_zero:
                continue
            quot, rem = divmod(a, b)
            assert quot * b + rem == a
            assert rem.is_zero or rem.degree < b.degree

    def test_divmod_of_int_polynomials_stays_exact(self):
        # int / int would go float; the quotient and remainder are Fractions
        quot, rem = divmod(Polynomial((1, 0, 1)), Polynomial((1, 2)))
        assert quot == Polynomial((Fraction(-1, 4), Fraction(1, 2)))
        assert rem == Polynomial((Fraction(5, 4),))
        assert all(type(c) is Fraction for c in quot.coeffs + rem.coeffs)

    def test_divides_exactly(self):
        base = Polynomial((Fraction(1, 3), 1))
        assert (base**2 * Polynomial((2, 0, 5))).divides_exactly(base)
        assert not Polynomial((1, 1)).divides_exactly(Polynomial((0, 1)))

    def test_compose(self):
        p = Polynomial((0, 0, 1))  # x^2
        inner = Polynomial((1, -2))  # 1 - 2x
        assert p.compose(inner) == Polynomial((1, -4, 4))
        assert Polynomial((3,)).compose(inner) == Polynomial((3,))

    def test_exact_and_numeric_eval_agree(self):
        p = Polynomial((Fraction(1, 6), Fraction(-1, 2), GaussianRational(0, 1)))
        x = Fraction(3, 7)
        exact = p(x)
        numeric = p.eval_mpc(mp.mpmathify(x))
        assert abs(exact.to_mpc() - numeric) < mp.mpf("1e-35")

    def test_eval_at_gaussian_point_stays_exact(self):
        p = Polynomial((1, 1))
        z = GaussianRational(0, 1)
        assert p(z) == GaussianRational(1, 1)

    def test_conjugate(self):
        p = Polynomial((GaussianRational(1, 2), Fraction(1, 3), 5))
        assert p.conjugate() == Polynomial((GaussianRational(1, -2), Fraction(1, 3), 5))

    def test_pretty(self):
        assert Polynomial((0, 0, -1)).pretty() == "-s^2"
        assert Polynomial((Fraction(1, 6), -1, 1)).pretty() == "s^2 - s + 1/6"
        assert Polynomial().pretty() == "0"
