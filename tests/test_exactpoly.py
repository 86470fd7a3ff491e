import copy
import pickle
import random
from fractions import Fraction
from math import gcd

import mpmath as mp
import pytest

from twistlab.exactpoly import GaussianRational, Polynomial

from paper_checks import eval_mpc, to_mpc
from scalar_polynomial import ScalarPolynomial


def _shifted_remainder(p: Polynomial, r, m: int) -> Polynomial:
    """The part of P(x + r) below x^m, the remainder of P mod (x - r)^m in
    powers of x - r, read from the rows of one composition as `polys` does."""
    shifted = p.compose(Polynomial((r, 1)))
    return Polynomial.from_rows(shifted.re[:m], shifted.im[:m], shifted.den)


class TestGaussianRational:
    def test_arithmetic(self):
        z = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
        w = GaussianRational(2, 5)
        assert z + w == GaussianRational(Fraction(5, 2), Fraction(17, 4))
        assert z * w == GaussianRational(Fraction(1) + Fraction(15, 4), Fraction(5, 2) - Fraction(3, 2))
        assert (z * w) / w == z
        assert (0 - z) + z == 0

    def test_mixing_with_rationals(self):
        z = GaussianRational(1, 1)
        assert 2 * z == GaussianRational(2, 2)
        assert z + Fraction(1, 2) == GaussianRational(Fraction(3, 2), 1)
        assert GaussianRational(Fraction(1, 2)) / GaussianRational(0, 1) == GaussianRational(0, Fraction(-1, 2))

    def test_powers(self):
        i = GaussianRational(0, 1)
        assert i * i == -1
        assert GaussianRational(1) / i == GaussianRational(0, -1)
        square = GaussianRational(1, 1) * GaussianRational(1, 1)
        assert square * square == -4

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
        v = to_mpc(z)
        assert abs(v - mp.mpc(mp.mpf(1) / 3, mp.mpf(2) / 7)) < mp.mpf("1e-35")

    def test_hash_consistency(self):
        assert hash(GaussianRational(Fraction(1, 2))) == hash(Fraction(1, 2))
        assert GaussianRational(Fraction(1, 2)) == Fraction(1, 2)

    def test_pickle_and_copy(self):
        z = GaussianRational(Fraction(1, 3), -2)
        for twin in (pickle.loads(pickle.dumps(z)), copy.copy(z), copy.deepcopy(z)):
            assert twin == z and type(twin) is GaussianRational


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

    def test_ring_ops(self):
        p = Polynomial((1, 2))  # 1 + 2x
        q = Polynomial((0, 0, 1))  # x^2
        assert p + q == Polynomial((1, 2, 1))
        assert p * q == Polynomial((0, 0, 1, 2))
        assert p - p == Polynomial()
        assert (p * p * p).degree == 3
        assert 3 * p == Polynomial((3, 6))

    def test_divmod_roundtrip(self):
        # the scalar long division, its quotient and remainder recombined in rows
        rng = random.Random(7)
        for _ in range(25):
            a = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(1, 7))]
            b = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(1, 5))]
            if Polynomial(b).is_zero:
                continue
            quot, rem = divmod(ScalarPolynomial(a), ScalarPolynomial(b))
            assert Polynomial(quot.coeffs) * Polynomial(b) + Polynomial(rem.coeffs) == Polynomial(a)
            assert len(rem.coeffs) < len(ScalarPolynomial(b).coeffs)

    def test_divmod_of_int_polynomials_stays_exact(self):
        # int / int would go float; the quotient and remainder are Fractions
        quot, rem = divmod(ScalarPolynomial((1, 0, 1)), ScalarPolynomial((1, 2)))
        assert quot.coeffs == (Fraction(-1, 4), Fraction(1, 2))
        assert rem.coeffs == (Fraction(5, 4),)
        assert all(type(c) is Fraction for c in quot.coeffs + rem.coeffs)

    def test_divides_exactly(self):
        base = Polynomial((Fraction(1, 3), 1))
        product = base * base * Polynomial((2, 0, 5))
        assert not divmod(ScalarPolynomial(product.coeffs), ScalarPolynomial(base.coeffs))[1].coeffs
        assert divmod(ScalarPolynomial((1, 1)), ScalarPolynomial((0, 1)))[1].coeffs
        # the same two answers from the rows, by one shift
        assert _shifted_remainder(product, Fraction(-1, 3), 2).is_zero
        assert not _shifted_remainder(Polynomial((1, 1)), 0, 1).is_zero

    def test_compose(self):
        p = Polynomial((0, 0, 1))  # x^2
        inner = Polynomial((1, -2))  # 1 - 2x
        assert p.compose(inner) == Polynomial((1, -4, 4))
        assert Polynomial((3,)).compose(inner) == Polynomial((3,))

    def test_exact_and_numeric_eval_agree(self):
        p = Polynomial((Fraction(1, 6), Fraction(-1, 2), GaussianRational(0, 1)))
        x = Fraction(3, 7)
        exact = p(x)
        numeric = eval_mpc(p, mp.mpmathify(x))
        assert abs(to_mpc(exact) - numeric) < mp.mpf("1e-35")

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

    def test_constant_hashes_as_its_scalar(self):
        # equal objects hash equal, so a constant and its scalar share a set slot
        assert Polynomial((3,)) == 3 and hash(Polynomial((3,))) == hash(3)
        assert len({Polynomial((3,)), 3}) == 1
        assert len({Polynomial(), 0}) == 1
        half, z = Fraction(1, 2), GaussianRational(Fraction(1, 2), -1)
        assert len({Polynomial((half,)), half}) == 1
        assert len({Polynomial((z,)), z}) == 1


def _random_scalar(rng, kind):
    """A small exact scalar of the given kind; zeros and negative
    denominators are drawn on purpose."""
    def rational():
        return Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, -4, 6, -7, 12]))

    if kind == "int":
        return rng.randint(-9, 9)
    if kind == "fraction":
        return rational()
    return GaussianRational(rational(), rational() if rng.random() < 0.8 else 0)


def _random_coeffs(rng, kind):
    coeffs = [_random_scalar(rng, kind) for _ in range(rng.randint(0, 6))]
    if coeffs and rng.random() < 0.3:
        coeffs += [0] * rng.randint(1, 2)  # trailing zeros to trim
    return coeffs


def _random_pair(rng):
    """Coefficient lists of two operands, each int, Fraction or Gaussian;
    mixed real and non-real pairs included."""
    kinds = ("int", "fraction", "gaussian")
    return _random_coeffs(rng, rng.choice(kinds)), _random_coeffs(rng, rng.choice(kinds))


def _same(rows: Polynomial, ref: ScalarPolynomial) -> bool:
    """Equal coefficients printing the same strings, in canonical rows."""
    assert rows.den > 0 and gcd(rows.den, *rows.re, *rows.im) == 1
    assert not rows.re or rows.re[-1] or rows.im[-1]
    assert not rows.im or (any(rows.im) and len(rows.im) == len(rows.re))
    return (rows.coeffs == ref.coeffs
            and [str(c) for c in rows.coeffs] == [str(c) for c in ref.coeffs])


class TestRowsAgainstScalarLoops:
    """Every row operation against the per-coefficient loops it replaced."""

    CASES = 300

    def _operands(self):
        rng = random.Random(2024)
        fixed = [([], []), ([], [1]), ([5], []), ([0, 0], [1, 0, 0]),
                 ([Fraction(1, -2), 3], [GaussianRational(0, 1)]),
                 ([GaussianRational(1, 1), 2], [GaussianRational(1, -1), -2])]
        return fixed + [_random_pair(rng) for _ in range(self.CASES)]

    def test_ring_operations(self):
        rng = random.Random(7)
        for a, b in self._operands():
            pa, pb, ra, rb = Polynomial(a), Polynomial(b), ScalarPolynomial(a), ScalarPolynomial(b)
            assert _same(pa, ra) and _same(pb, rb), (a, b)
            c = _random_scalar(rng, rng.choice(("int", "fraction", "gaussian")))
            assert _same(pa + pb, ra + rb), (a, b)
            assert _same(pa - pb, ra - rb), (a, b)
            assert _same(pa - pa, ra - ra), a
            assert _same(Polynomial() - pa, ScalarPolynomial() - ra), a
            assert _same(pa * pb, ra * rb), (a, b)
            assert _same(c * pa, c * ra) and _same(pa * c, ra * c), (a, c)
            assert _same(pa + c, ra + c) and _same(Polynomial((c,)) - pa, c - ra), (a, c)
            assert _same(pa * pa * pa, ra ** 3), a
            assert _same(pa.compose(pb), ra.compose(rb)), (a, b)
            assert _same(pa.conjugate(), ra.conjugate()), a

    def test_shift_reads_the_remainder(self):
        # (x - r)^k P mod (x - r)^m: the low rows of the shift, shifted back,
        # are the scalar long division's remainder, and zero when k >= m;
        # P = 0 is among the operands and m runs past the degree
        rng = random.Random(32)
        nonzero = 0
        for a, _ in self._operands()[:80]:
            pk, r = Polynomial(a), rng.randint(-4, 4)
            root = Polynomial((-r, 1))
            for k in range(4):
                for m in sorted({0, 1, 2, 3, pk.degree + 2}):
                    low = _shifted_remainder(pk, r, m)
                    _, rem = divmod(ScalarPolynomial(pk.coeffs), ScalarPolynomial((-r, 1)) ** m)
                    assert _same(low.compose(root), rem), (a, r, k, m)
                    assert low.is_zero or k < m, (a, r, k, m)
                    nonzero += not low.is_zero
                pk = pk * root
        assert nonzero > 100  # the failing side is reached too

    def test_evaluation(self):
        rng = random.Random(11)
        for a, _ in self._operands():
            for kind in ("int", "fraction", "gaussian"):
                x = _random_scalar(rng, kind)
                value, expected = Polynomial(a)(x), ScalarPolynomial(a)(x)
                assert value == expected, (a, x)
                complex_value = kind == "gaussian" or any(
                    isinstance(c, GaussianRational) and c.im for c in a)
                assert type(value) is (GaussianRational if complex_value else Fraction), (a, x)

    def test_equality_and_hash(self):
        for a, b in self._operands():
            pa, pb = Polynomial(a), Polynomial(b)
            same = ScalarPolynomial(a).coeffs == ScalarPolynomial(b).coeffs
            assert (pa == pb) is same, (a, b)
            assert pa == Polynomial(list(a) + [0]) and hash(pa) == hash(Polynomial(list(a) + [0]))
            if len(ScalarPolynomial(a).coeffs) <= 1:
                scalar = ScalarPolynomial(a).coefficient(0)
                assert pa == scalar and hash(pa) == hash(scalar), a

    def test_coefficients_keep_their_scalar_form(self):
        for a, _ in self._operands():
            for c in Polynomial(a).coeffs:
                if isinstance(c, GaussianRational):
                    assert c.im != 0
                else:
                    assert type(c) is Fraction

    def test_divmod(self):
        # the scalar long division, its quotient and remainder recombined in rows
        for a, b in self._operands():
            if ScalarPolynomial(b).coeffs:
                quot, rem = divmod(ScalarPolynomial(a), ScalarPolynomial(b))
                assert Polynomial(quot.coeffs) * Polynomial(b) + Polynomial(rem.coeffs) == Polynomial(a), (a, b)
                assert len(rem.coeffs) < len(ScalarPolynomial(b).coeffs), (a, b)
