"""Exact rational Bernoulli numbers and Bernoulli polynomials.

Conventions: B_n denotes B_n(0), so B_1 = -1/2; B_n(x) is monic of degree n.
The table up to degree MAX_DEGREE is built once, on first use, from the
number recursion sum_{k=0}^{n} C(n+1,k) B_k = 0 and the addition formula
B_n(x) = sum_k C(n,k) B_k x^{n-k}, both on integer numerators over the
common denominator of B_0..B_n, and is immutable afterwards.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd

from .exactpoly import Polynomial

MAX_DEGREE = 64


@lru_cache(maxsize=None)
def default_table() -> tuple[tuple[Fraction, ...], tuple[Polynomial, ...]]:
    """(B_0..B_MAX_DEGREE, B_0(x)..B_MAX_DEGREE(x))."""
    numbers = [Fraction(1)]
    polynomials = [Polynomial((1,))]
    den, scaled = 1, [1]  # scaled[k] = B_k * den, den the lcm of their denominators
    for n in range(1, MAX_DEGREE + 1):
        acc = sum(comb(n + 1, k) * scaled[k] for k in range(n))
        b = Fraction(-acc, (n + 1) * den)
        numbers.append(b)
        step = b.denominator // gcd(den, b.denominator)
        if step != 1:
            den *= step
            scaled = [x * step for x in scaled]
        scaled.append(b.numerator * (den // b.denominator))
        polynomials.append(Polynomial.from_rows(
            [comb(n, j) * scaled[n - j] for j in range(n + 1)], (), den))
    return tuple(numbers), tuple(polynomials)


def bernoulli_number(n: int) -> Fraction:
    """Exact B_n = B_n(0); B_1 = -1/2."""
    if not 0 <= n <= MAX_DEGREE:
        raise ValueError(f"Bernoulli number index {n} outside table (0..{MAX_DEGREE})")
    return default_table()[0][n]


def bernoulli_polynomial(n: int) -> Polynomial:
    """Exact B_n(x) as a Polynomial with Fraction coefficients."""
    if not 0 <= n <= MAX_DEGREE:
        raise ValueError(f"Bernoulli polynomial degree {n} outside table (0..{MAX_DEGREE})")
    return default_table()[1][n]
