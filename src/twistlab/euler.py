"""The local factor at s = 1, exactly.  F_p(1) reads the twists' leading
Laurent coefficients, which are counts (``leading_coefficient``), so the solve
and the local-degree bound run in rationals, with no floating-point library.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, isqrt

from .exactpoly import GaussianRational

PARTIAL_DEGREE_MAX = 2  # the degree of F caps every local partial degree


def is_prime(n: int) -> bool:
    """Whether the integer ``n`` is prime, by trial division."""
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def leading_coefficient(b: int, q: int) -> Fraction:
    """c_-2 of F(s, b/q) at s = 1, exactly: q^-2 sum_{u,v=1}^{q} e(-uvb/q) =
    gcd(b, q)/q, since sum_v e(-uvb/q) = q [q | ub] and gcd(b, q) of the u
    in 1..q have q | ub."""
    return Fraction(gcd(b, q), q)


class LocalFactor(namedtuple("LocalFactor", "prime partial_degree roots")):
    """Euler-factor data (partial degree and inverse roots) at a prime."""

    __slots__ = ()

    def __new__(cls, prime, partial_degree, roots):
        if partial_degree != len(roots):
            raise ValueError("partial degree must match the number of roots")
        for root in roots:
            if not isinstance(root, (int, Fraction, GaussianRational)):
                raise ValueError(f"inverse root {root!r} is not an exact int, Fraction or "
                                 "GaussianRational")
            if (root.norm() if isinstance(root, GaussianRational) else root * root) > 1:
                raise ValueError(f"inverse root {root} exceeds the unit disk")
        return super().__new__(cls, prime, partial_degree, roots)


def euler_factor_at_1(p: int) -> Fraction:
    """Solve the leading-coefficient relation for the local factor at s = 1
    of the double-pole reference series zeta(s)^2, exactly:
    F_p(1) = (p/(p-1)) / (1 - alpha_F(1/p) / alpha_F), with alpha_F = 1 and
    alpha_F(1/p) = 1/p the c_-2 at b = 0 and b = 1 (`leading_coefficient`)."""
    if not is_prime(p):
        raise ValueError(f"need a prime p, got {p}")
    return Fraction(p, p - 1) / (1 - leading_coefficient(1, p) / leading_coefficient(0, p))


#: status is "forced", "infeasible" or "underdetermined"; factor is a LocalFactor or None
LocalFactorSolution = namedtuple("LocalFactorSolution", "status factor detail")


def solve_local_factor(value_at_1, p: int) -> LocalFactorSolution:
    """Equality-forcing argument at s = 1, on an exact rational local value.

    The local value is capped by (1 - 1/p)^-PARTIAL_DEGREE_MAX when all
    inverse roots sit in the closed unit disk; meeting the cap exactly
    forces partial degree 2 with both roots equal to 1, exceeding it is
    infeasible, and anything strictly inside is under-determined.
    """
    measured, cap = abs(Fraction(value_at_1)), Fraction(p, p - 1) ** PARTIAL_DEGREE_MAX
    if measured > cap:
        return LocalFactorSolution("infeasible", None,
                                   f"|F_p(1)| = {measured} exceeds the cap {cap}")
    if measured == cap:
        factor = LocalFactor(p, PARTIAL_DEGREE_MAX, (1,) * PARTIAL_DEGREE_MAX)
        return LocalFactorSolution("forced", factor,
                                   "value meets the cap: all inverse roots forced to 1")
    return LocalFactorSolution("underdetermined", None,
                               "value sits strictly inside the cap; the root configuration is free")


def degree_bound(h, q_f, p: int) -> int:
    """floor(log(h/q_F)/log p) for rational h and q_F, by exact comparison;
    requires h >= q_F > 0 and p >= 2."""
    if p < 2:
        raise ValueError(f"need p >= 2, got {p}")
    if not all(isinstance(x, (int, Fraction)) for x in (h, q_f)):
        raise ValueError(f"h and q_F must be rationals (int or Fraction), got {h!r}, {q_f!r}")
    if q_f <= 0 or h < q_f:
        raise ValueError("need h >= q_F > 0")
    k, ratio = 0, Fraction(h, q_f)
    while p ** (k + 1) <= ratio:
        k += 1
    return k
