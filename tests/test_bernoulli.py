import random
from fractions import Fraction
from math import comb, exp, factorial

import mpmath as mp
import pytest

from twistlab.bernoulli import (
    BernoulliTable,
    bernoulli_number,
    bernoulli_polynomial,
)
from twistlab.exactpoly import Polynomial


def test_frozen_number_values():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(2) == Fraction(1, 6)
    assert bernoulli_number(12) == Fraction(-691, 2730)
    assert bernoulli_number(13) == 0


def test_numbers_satisfy_defining_recursion():
    # sum_{k=0}^{n} C(n+1, k) B_k = 0 for n >= 1, restated independently
    for n in range(1, 31):
        acc = sum(comb(n + 1, k) * bernoulli_number(k) for k in range(n + 1))
        assert acc == 0, n


def test_frozen_polynomials():
    assert bernoulli_polynomial(0) == Polynomial((1,))
    assert bernoulli_polynomial(2) == Polynomial((Fraction(1, 6), -1, 1))
    assert bernoulli_polynomial(3) == Polynomial((0, Fraction(1, 2), Fraction(-3, 2), 1))


def test_monic_of_degree_n():
    for n in range(41):
        p = bernoulli_polynomial(n)
        assert p.degree == n
        assert p.leading == 1


def test_evaluation_examples():
    b2 = bernoulli_polynomial(2)
    assert b2(Fraction(0)) == Fraction(1, 6)
    assert b2(Fraction(1, 2)) == Fraction(-1, 12)
    assert bernoulli_polynomial(3)(Fraction(1)) == 0
    z = b2.eval_mpc(mp.mpc(0.5))
    assert abs(z - mp.mpf(-1) / 12) < mp.mpf("1e-35")


def test_reflection_identity_exact():
    # B_n(1 - x) = (-1)^n B_n(x) as exact polynomial identity
    one_minus_x = Polynomial((1, -1))
    for n in range(41):
        lhs = bernoulli_polynomial(n).compose(one_minus_x)
        rhs = (-1) ** n * bernoulli_polynomial(n)
        assert lhs == rhs, n


def test_addition_identity_spot_checks():
    # B_n(x + y) = sum_k C(n,k) B_k(x) y^(n-k) at random rational pairs
    rng = random.Random(20260810)
    pairs = [
        (Fraction(rng.randint(-20, 20), rng.randint(1, 12)),
         Fraction(rng.randint(-20, 20), rng.randint(1, 12)))
        for _ in range(50)
    ]
    for x, y in pairs:
        for n in range(0, 21, 4):
            lhs = bernoulli_polynomial(n)(x + y)
            rhs = sum(
                comb(n, k) * bernoulli_polynomial(k)(x) * y ** (n - k)
                for k in range(n + 1)
            )
            assert lhs == rhs, (n, x, y)


def test_value_at_one_equals_number_for_n_not_1():
    for n in (0, 2, 3, 5, 8, 13, 21):
        assert bernoulli_polynomial(n)(Fraction(1)) == bernoulli_number(n)


def test_growth_sanity_logged():
    # |B_nu(s)| / (e^|s| nu!) stays bounded on a coarse grid; the empirical
    # constant is logged rather than pinned to any specific value
    worst = 0.0
    for nu in range(1, 41):
        p = bernoulli_polynomial(nu)
        for radius in (0.5, 2.0, 5.0, 10.0):
            for k in range(8):
                s = mp.mpc(radius, 0) * mp.expjpi(mp.mpf(2 * k) / 8)
                ratio = float(abs(p.eval_mpc(s)) / (exp(radius) * factorial(nu)))
                worst = max(worst, ratio)
    print(f"\nBernoulli growth constant sup |B_nu(s)|/(e^|s| nu!) = {worst:.6f}")
    assert worst < 16  # sanity cap only; the real content is boundedness


def test_custom_table_bounds():
    table = BernoulliTable(max_degree=8)
    assert table.number(8) == Fraction(-1, 30)
    with pytest.raises(ValueError):
        table.number(9)
    with pytest.raises(ValueError):
        table.polynomial(-1)
