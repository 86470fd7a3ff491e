"""Exact rational Bernoulli numbers and Bernoulli polynomials.

Conventions: B_n denotes B_n(0), so B_1 = -1/2; B_n(x) is monic of degree n.
The table of polynomials is built once, eagerly, from the number recursion
sum_{k=0}^{n} C(n+1,k) B_k = 0 and the addition formula
B_n(x) = sum_k C(n,k) B_k x^{n-k}, and is immutable afterwards.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .exactpoly import Polynomial

DEFAULT_MAX_DEGREE = 64


class BernoulliTable:
    """Memoized Bernoulli numbers and polynomials up to a fixed degree."""

    def __init__(self, max_degree: int = DEFAULT_MAX_DEGREE):
        if max_degree < 0:
            raise ValueError("max_degree must be nonnegative")
        self.max_degree = max_degree
        numbers = [Fraction(1)]
        for n in range(1, max_degree + 1):
            acc = sum(comb(n + 1, k) * numbers[k] for k in range(n))
            numbers.append(Fraction(-acc, n + 1))
        self._numbers = tuple(numbers)
        self._polynomials = tuple(
            Polynomial(comb(n, j) * numbers[n - j] for j in range(n + 1))
            for n in range(max_degree + 1)
        )

    def number(self, n: int) -> Fraction:
        if not 0 <= n <= self.max_degree:
            raise ValueError(f"Bernoulli number index {n} outside table (0..{self.max_degree})")
        return self._numbers[n]

    def polynomial(self, n: int) -> Polynomial:
        if not 0 <= n <= self.max_degree:
            raise ValueError(f"Bernoulli polynomial degree {n} outside table (0..{self.max_degree})")
        return self._polynomials[n]


_default_table: BernoulliTable | None = None


def default_table() -> BernoulliTable:
    global _default_table
    if _default_table is None:
        _default_table = BernoulliTable()
    return _default_table


def bernoulli_number(n: int) -> Fraction:
    """Exact B_n = B_n(0); B_1 = -1/2."""
    return default_table().number(n)


def bernoulli_polynomial(n: int) -> Polynomial:
    """Exact B_n(x) as a Polynomial with Fraction coefficients."""
    return default_table().polynomial(n)
