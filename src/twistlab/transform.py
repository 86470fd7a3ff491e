"""Main term of the twist transformation formula for zeta(s)^2, numerical Laurent
extraction, and the verification chain built on them: the Laurent-coefficient
laws of the continued twists, holomorphy of the character twists at s = 1,
the left-half-plane growth certificate, and the polar-consistency checks of
the transformation formula.  The exact Euler solve at s = 1 is ``euler``'s.

The Laurent data of the divisor twists F(s, b/q) at s = 1 are closed form
(``twist._laurent_at_1``): c_-2 is the exact count gcd(b, q)/q
(``euler.leading_coefficient``), and c_-1 the twists' one pair sum over the
Hurwitz series at s = 1 (the Stieltjes constants gamma_0(u/q)), rounded once
per group and per root sum.  They serve both Laurent laws, the character twists
(whose c_k are the character combination of those of F(s, b/p)) and the polar
parts of F(s, alpha) minus its main term, at s = 1 and at s = 1 - nu, where
only the term whose shifted twist meets its pole is singular and Q_nu's exact
Taylor rows there multiply the data at s = 1; no command samples a circle.
The contour core (a vector-valued trapezoid average over one circle, whose
node-halving disagreement flags insufficient analyticity) is the independent
route the tests hold those closed forms against.
The growth certificate reads Hurwitz's formula, with a stated error radius."""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import mul

import mpmath as mp
from mpmath.libmp import (from_rational, mpf_shift, round_ceiling, round_nearest, to_int,
                          to_rational)

from . import euler
from .expansion import q_poly, q_taylor
from .funceq import zeta2_datum
from .reports import Report
from .special import characters_mod, dirichlet_l, roots_of_unity
from .twist import (_laurent_at_1, _log_at, _stable_reflected_twists, character_twists,
                    reduce_mod_one, zeta2_twist_batch, zeta2_twist_oracle)


LAURENT_RADIUS = Fraction(1, 4)  # contour radius; laurent_extract also reads radius/2
LAURENT_NODES = 128
PAIR_TOL = mp.mpf("1e-10")  # agreement across numerators and reality of beta
MAX_SHIFT = 4  # polar consistency checks the shifted poles s = 0..1-MAX_SHIFT
SLOPE_TOL = mp.mpf("0.5")  # growth certificate: |fitted slope of Delta| bound
_Q_GUARD = 32  # bits below 2^-prec of the fixed-point powers of s that Q_nu(s) reads


class LaurentConvergenceError(ArithmeticError):
    """Node doubling did not converge: f is not analytic on the circle."""


class LaurentExpansion(namedtuple("LaurentExpansion", "coefficients errors")):
    """Coefficients c_k of f for k = -max_pole_order..k_max, with the
    cross-radius disagreement attached per coefficient."""

    __slots__ = ()

    def coefficient(self, k: int) -> mp.mpc:
        return self.coefficients[k]

    def error(self, k: int) -> mp.mpf:
        return self.errors[k]


def _circle_samples(f, center, radius, nodes):
    """f at the nodes center + radius w^j, j < nodes, w = e(1/nodes)."""
    center = mp.mpc(center)
    radius = mp.mpmathify(radius)
    return [f(center + radius * root) for root in roots_of_unity(nodes, mp.mp.prec)]


def _coeffs_from_samples(values, radius, ks) -> dict[int, mp.mpc]:
    """c_k = (1/N) sum_j f(s_j) (r w^j)^-k for the N-th roots of unity w."""
    n = len(values)
    roots = roots_of_unity(n, mp.mp.prec)
    radius = mp.mpmathify(radius)
    return {
        k: mp.fsum(v * roots[-j * k % n] for j, v in enumerate(values)) / n * radius ** (-k)
        for k in ks
    }


def _laurent_many(f, center, max_pole_order, radius, nodes, k_max) -> list[dict[int, mp.mpc]]:
    """Extract {k: c_k} for k = -m..K of every component of the vector-valued
    ``f`` from one circle of ``radius``.

    ``f(s)`` returns a list of values; it is called once per node, in node
    order.  Raises LaurentConvergenceError when halving the node count moves
    any coefficient of any component materially.
    """
    if nodes < 2 or nodes % 2:
        raise ValueError(f"need an even count of at least 2 contour nodes, got {nodes}")
    ks = range(-max_pole_order, k_max + 1)
    expansions = []
    for values in zip(*_circle_samples(f, center, radius, nodes)):
        coeffs = _coeffs_from_samples(values, radius, ks)
        halved = _coeffs_from_samples(values[::2], radius, ks)
        scale = max([mp.mpf(1)] + [abs(c) for c in coeffs.values()])
        for k in ks:
            if abs(coeffs[k] - halved[k]) > scale * mp.mpf("1e-6"):
                raise LaurentConvergenceError(
                    f"coefficient c_{k} moved by {abs(coeffs[k] - halved[k])} "
                    f"under node halving; f is not analytic on the contour"
                )
        expansions.append(coeffs)
    return expansions


def laurent_extract(f, center, max_pole_order: int = 2, radius=LAURENT_RADIUS,
                    nodes: int = LAURENT_NODES, k_max: int = 2) -> LaurentExpansion:
    """Extract c_-m..c_K of the scalar ``f`` by contour averaging at ``radius``
    (see ``_laurent_many``), with each coefficient's disagreement against the
    circle of radius/2 as its error; ``f`` must be analytic on both circles
    (poles only inside)."""
    outer, inner = (
        _laurent_many(lambda s: [f(s)], center, max_pole_order, r, nodes, k_max)[0]
        for r in (radius, radius / 2)
    )
    return LaurentExpansion(outer, {k: abs(c - inner[k]) for k, c in outer.items()})


def contour_integral(f, center, radius=LAURENT_RADIUS, nodes: int = 64) -> mp.mpc:
    """Trapezoidal closed contour integral (2 pi i c_-1) of the scalar f on a
    circle, with the node-halving check of ``_laurent_many``."""
    return 2j * mp.pi * _laurent_many(lambda s: [f(s)], center, 1, radius, nodes, -1)[0][-1]


# ---------------------------------------------------------------------------
# Transformation-formula main term
# ---------------------------------------------------------------------------

def transformation_prefactor(s, alpha) -> mp.mpc:
    """alpha^(2s - 1), the prefactor of ``transformation_main_term``, as
    exp((2s - 1) log alpha) with log alpha computed once per precision."""
    return mp.exp((2 * mp.mpc(s) - 1) * mp.make_mpf(_log_at(Fraction(alpha), mp.mp.prec)))


def _q_values(table, s) -> list[mp.mpc]:
    """Q_nu(s) for each real Q_nu (``exactpoly.Polynomial``) in ``table``: its integer
    rows over one table of the powers of s in fixed point at 2^-(prec+guard), summed
    exactly and rounded once.  With mu = max(1, |s|), s rounds within 2^-(prec+guard)
    /sqrt(2) and each product floors within sqrt(2) units, so s^j lies within 2.2 j
    mu^j units and Q_nu(s), of degree d, within 2^-prec |Q_nu(s)| + 2.2 d
    2^-(prec+guard) sum_j |q_j| mu^j (under 2^-(prec+guard-7) of it for K <= 16)."""
    prec, scale = mp.mp.prec, mp.mp.prec + _Q_GUARD
    x_re, x_im = (to_int(mpf_shift(part, scale), round_nearest) for part in s._mpc_)
    powers_re, powers_im = [1 << scale], [0]
    for _ in range(max(len(q.re) for q in table) - 1):
        re, im = powers_re[-1], powers_im[-1]
        powers_re.append(re * x_re - im * x_im >> scale)
        powers_im.append(re * x_im + im * x_re >> scale)
    return [mp.make_mpc(tuple(from_rational(sum(map(mul, q.re, powers)), q.den << scale, prec,
                                            round_nearest) for powers in (powers_re, powers_im)))
            for q in table]


def _checked(alpha, k_terms: int) -> Fraction:
    """alpha as a Fraction for a main term of order K; raises ValueError unless
    alpha > 0 and K >= 0."""
    if k_terms < 0:
        raise ValueError("K must be nonnegative")
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise ValueError("the transformation formula needs alpha > 0")
    return alpha


def _shifted(s, k_terms: int) -> list:
    """The arguments s + nu, nu = 0..K, at which the main term reads F(., beta): the
    one place the shift is written, read by the main term and by its polar parts."""
    return [s + nu for nu in range(k_terms + 1)]


def transformation_main_term(s, alpha, k_terms: int) -> mp.mpc:
    """Truncated main term of the transformation formula for zeta(s)^2:

    alpha^(2s - 1) * sum_{nu=0}^{K} (i alpha / 2 pi)^nu Q_nu(s) F(s + nu, -1/alpha).

    The paper's main term of a degree-2 F is -i omega* (sqrt(q_F) alpha)^(2s - 1 + i theta)
    * sum_nu (i q_F alpha / 2 pi)^nu Q_nu(s) Fbar(s + nu + i theta, -1/(q_F alpha)).
    The package has one coefficient sequence, d(n), whose conjugate twists
    Fbar = F come from the divisor-twist kernel; so the datum is zeta(s)^2's,
    q_F = 1, theta = 0 and -i omega* = 1, which gives the form above.  Every
    Q_nu(s) comes from one ``_q_values`` call.  Raises PoleError when a
    required twist value sits at its pole.
    """
    alpha = _checked(alpha, k_terms)
    s, beta = mp.mpc(s), reduce_mod_one(-1 / alpha)
    ratio = 1j * mp.mpmathify(alpha) / (2 * mp.pi)
    table = [q_poly(zeta2_datum(), nu) for nu in range(k_terms + 1)]
    terms = [q * zeta2_twist_oracle(x, beta)
             for q, x in zip(_q_values(table, s), _shifted(s, k_terms))]
    return transformation_prefactor(s, alpha) * mp.fdot(
        [ratio ** nu for nu in range(k_terms + 1)], terms)


# ---------------------------------------------------------------------------
# Laurent laws of the continued twists (reference instance)
# ---------------------------------------------------------------------------

def twist_laurent_table(q_max: int) -> dict[tuple[int, int], dict]:
    """Laurent coefficients {k: c_k}, k = -3..-1, at s = 1 of the continued
    divisor twists F(s, a/q) for every q <= q_max and a coprime to q (a = q
    meaning the untwisted series), from one ``_laurent_at_1`` call per q."""
    table = {}
    for q in range(1, q_max + 1):
        numerators = [a for a in range(1, q + 1) if gcd(a, q) == 1]
        table.update({(q, a): c for a, c in zip(numerators, _laurent_at_1(q, numerators))})
    return table


def _numerator_law(report, table, tol, label, claim, agree_claim, value, target):
    """Per q of the table, in increasing order: one record per numerator
    holding value(coefficients) to target(q) within tol, then one holding the
    values' spread to PAIR_TOL."""
    groups = {}
    for (q, a), coeffs in sorted(table.items()):
        groups.setdefault(q, []).append((a, value(coeffs)))
    for q, entries in groups.items():
        for a, v in entries:
            report.add_bound(f"{label}(a/q={a}/{q})", claim, abs(v - target(q)), tol)
        if len(entries) > 1:
            spread = max(abs(x - y) for _, x in entries for _, y in entries)
            report.add_bound(f"{label} a-independence (q={q})", agree_claim, spread, PAIR_TOL)


def verify_alpha_law(table: dict, tol=mp.mpf("1e-8")) -> Report:
    """Leading Laurent coefficient law on a ``twist_laurent_table``: c_-2 of
    F(s, a/q) equals alpha_F / q with alpha_F = 1, independently of a; both
    sides are exact rationals."""
    report = Report("leading Laurent coefficient law")
    _numerator_law(
        report, table, tol, "alpha",
        "leading coefficient equals 1/q",
        "extracted leading coefficients agree across numerators",
        lambda c: c[-2],
        lambda q: Fraction(1, q),
    )
    return report


def verify_beta_law(table: dict, tol=mp.mpf("1e-8")) -> Report:
    """Subleading law on a ``twist_laurent_table``: c_-1/c_-2 of F(s, a/q)
    equals beta - 2 log q where beta = c_-1/c_-2 of the untwisted series
    (= 2*gamma); beta is real."""
    report = Report("subleading Laurent coefficient law")
    untwisted = table[(1, 1)]
    beta = untwisted[-1] / untwisted[-2]
    report.add_bound(
        "beta(q=1)", "untwisted subleading ratio equals 2*gamma", abs(beta - 2 * mp.euler), tol
    )
    report.add_bound("Im(beta)", "the subleading ratio is real", abs(mp.im(beta)), PAIR_TOL)
    report.add_bound(
        "pole order <= 2",
        "no third-order polar coefficient",
        abs(untwisted[-3]),
        PAIR_TOL,
    )
    _numerator_law(
        report, table, tol, "beta",
        "subleading ratio equals beta - 2 log q",
        "subleading ratios agree across numerators",
        lambda c: c[-1] / c[-2],
        lambda q: beta - 2 * mp.log(q),
    )
    return report


def verify_chi_holomorphy(p: int, tol=mp.mpf("1e-15")) -> Report:
    """Character twists of zeta(s)^2 are holomorphic at s = 1: for every
    non-principal chi mod p, c_-2 and c_-1 of F(s, chi) there, the character
    combination of the closed-form Laurent data of F(s, b/p), vanish (c_-1 also
    at 64 more bits), and the assembled twist agrees with L(s, chi)^2 at 8
    nodes on each circle of radius 1/4 and 1/8 about s = 1."""
    report = Report(f"character-twist holomorphy at s=1 (mod {p})")
    chars = characters_mod(p, include_principal=False)
    laurent = _laurent_at_1(p, range(p))
    polar = [character_twists([c[k] for c in laurent], p) for k in (-2, -1)]
    with mp.workprec(mp.mp.prec + 64):
        shadow = character_twists([c[-1] for c in _laurent_at_1(p, range(p))], p)
    l_mismatch = [mp.mpf(0)] * len(chars)
    for r in (LAURENT_RADIUS, LAURENT_RADIUS / 2):
        for s in (mp.mpc(1) + mp.mpmathify(r) * w for w in roots_of_unity(8, mp.mp.prec)):
            for i, value in enumerate(character_twists(zeta2_twist_batch(s, p), p)):
                l_mismatch[i] = max(l_mismatch[i], abs(value - dirichlet_l(s, chars[i]) ** 2))
    for chi, c_m2, c_m1, c_m1_shadow, mismatch in zip(chars, *polar, shadow, l_mismatch):
        label = f"chi_{chi.index} mod {p}"
        for name, claim, measured in (
            (f"contour integral ({label})", "the residue 2 pi i c_-1 vanishes", 2 * mp.pi * c_m1),
            (f"c_-1 ({label})", "c_-1 vanishes", c_m1),
            (f"c_-2 ({label})", "c_-2 vanishes", c_m2),
            (f"c_-1 cross-radius ({label})", "c_-1 agrees with its value at 64 more bits",
             c_m1 - c_m1_shadow),
        ):
            report.add_bound(name, f"character twist has no pole at s=1: {claim}", abs(measured),
                             tol)
        report.add_bound(
            f"square law ({label})",
            "assembled twist equals the squared L-function on the circle",
            mismatch,
            tol,
        )
    return report


# perfbench's tracer times the Euler solve under this name (ROADMAP item 1
# rebinds it to the functions the commands run); `cli` calls `euler`'s own.
euler_factor_at_1 = euler.euler_factor_at_1


# ---------------------------------------------------------------------------
# Growth certificate
# ---------------------------------------------------------------------------

#: log_ratios holds |Delta(sigma)| / log|sigma|, trends Delta(sigma) / (|sigma| log|sigma|)
GrowthCertificate = namedtuple("GrowthCertificate", "alpha h t sigmas deltas log_ratios trends "
                                                    "c_star slope passed")


def growth_t_max(sigmas) -> mp.mpf:
    """sqrt(min|sigma| max|sigma|) / 2, the largest |t| the growth certificate takes: the
    envelope leaves out the -t^2/|sigma| of log|Gamma(1 - s)|^2, which tilts the fitted
    slope by about t^2 / (min|sigma| max|sigma|), here at most SLOPE_TOL / 2."""
    magnitudes = [abs(mp.mpf(sigma)) for sigma in sigmas]
    return mp.sqrt(min(magnitudes) * max(magnitudes)) / 2


@lru_cache(maxsize=64)
def growth_domain(alpha, t, sigmas) -> tuple:
    """(t, sigmas) as mpf where the growth envelope applies to F(s, alpha);
    raises ValueError elsewhere.  The slope fit needs two distinct sigmas, all
    negative, and the envelope is the |sigma| >> |t| asymptotic, so |t| <=
    `growth_t_max`.  Memoised (sigmas a tuple): `verify`'s config check and
    its certificates ask for the same domains.

    The envelope is the size of F's leading Fourier term.  By Hurwitz's formula (DLMF
    25.11.9), F(s, b/q) = q^-2s sum_{u,v} e(-uvb/q) zeta(s, u/q) zeta(s, v/q) is
    (2 Gamma(1 - s) (2 pi)^(s-1) q^-s)^2 (S + R), S(s) = sum_{u,v} e(-uvb/q) sin(pi s/2
    + 2 pi u/q) sin(pi s/2 + 2 pi v/q), |R| <= q^2 cosh^2(pi t/2) (zeta(1 - sigma)^2 - 1).
    A sigma where |S| is no larger is rejected (S = 0 at the trivial zeros and, for
    q = 4, at t = 0 and odd sigma), zeta(x) - 1 (x = 1 - sigma) taken at its exact upper
    bound 1/(x-1) for x < 2 (zeta(x) <= x/(x-1)), else 2^-m + 3^-m + 3^(1-m)/(m-1), m =
    min(floor(x), 256) (the n >= 4 under the integral from 3; zeta falls with x, and past
    m = 256 the bound is far below 2^-128), rounded up.  S is evaluated at 192 bits and
    counts as 0 below 2^-128 q^2 cosh^2(pi t/2), so exact zeros stay rejected and all
    callers agree.
    """
    alpha = Fraction(alpha)
    q, b = alpha.denominator, alpha.numerator
    t = mp.mpf(t)
    sigmas = tuple(mp.mpf(sigma) for sigma in sigmas)
    if any(sigma >= 0 for sigma in sigmas):
        raise ValueError(f"the growth certificate samples sigma < 0, got "
                         f"{[mp.nstr(x, 15) for x in sigmas]}")
    if len(set(sigmas)) < 2:
        raise ValueError(f"the growth certificate fits a slope: it needs two distinct sigmas, "
                         f"got {len(set(sigmas))}")
    if abs(t) > growth_t_max(sigmas):
        raise ValueError(f"the growth envelope is the |sigma| >> |t| asymptotic: need |t| <= "
                         f"sqrt(min|sigma| max|sigma|)/2 = {mp.nstr(growth_t_max(sigmas), 15)}, "
                         f"got t = {mp.nstr(t, 15)}")
    lost = []
    with mp.workprec(192):
        for sigma in sigmas:
            row = [mp.sinpi(mp.mpc(sigma, t) / 2 + mp.mpf(2 * u) / q) for u in range(q)]
            lead = mp.fsum(mp.expjpi(-2 * mp.mpf(u * v * b % q) / q) * row[u] * row[v]
                           for u in range(q) for v in range(q))
            x = 1 - Fraction(*to_rational(sigma._mpf_))
            m = min(int(x), 256)  # rest >= zeta(x) - 1, exactly (see above)
            rest = 1 / (x - 1) if x < 2 else Fraction(3 ** m * (m - 1) + 2 ** m * (m + 2),
                                                      6 ** m * (m - 1))
            bound = from_rational(*(rest * (rest + 2)).as_integer_ratio(), 192, round_ceiling)
            if abs(lead) <= q * q * mp.cosh(mp.pi * t / 2) ** 2 * max(mp.mpf(bound),
                                                                     mp.mpf(2) ** -128):
                lost.append(int(sigma) if sigma == int(sigma) else float(sigma))
    if lost:
        raise ValueError(f"F(s, {alpha}) loses its leading term S = sum_(u,v) e(-uvb/q) sin(pi s/2 "
                         f"+ 2 pi u/q) sin(pi s/2 + 2 pi v/q) at t = {mp.nstr(t, 15)} and sigma "
                         f"{lost}: |S| <= q^2 cosh^2(pi t/2) (zeta(1 - sigma)^2 - 1) bounds the "
                         f"other terms, so the growth envelope does not apply")
    return t, sigmas


def growth_certificate(
    alpha,
    h,
    t=5,
    sigmas=(-10, -20, -30, -40),
) -> GrowthCertificate:
    """Left-half-plane growth check of the continued divisor twist, of
    degree 2.

    Delta(sigma) = log|F(sigma+it, alpha)| - [2 |sigma| log|sigma|
    + |sigma| log(h/(2 pi e)^2)] must stay of size O(log|sigma|); the fitted
    per-|sigma| slope of Delta is the sensitivity statistic: it vanishes for
    the correct h and grows like log(h_true/h) when h is wrong.  Needs h > 0
    and (t, sigmas) in the `growth_domain` of alpha.  F comes from Hurwitz's
    formula, whose sums can cancel: a radius above 2^-(prec/4) |F| (fewer than
    prec/4 stable bits) raises PrecisionExhaustedError.
    """
    alpha = Fraction(alpha)
    t, sigmas = growth_domain(alpha, t, tuple(sigmas))
    h = Fraction(h)
    if h <= 0:
        raise ValueError(f"the certificate needs h > 0, got {h}")
    deltas = []
    for sigma in sigmas:
        (value,) = _stable_reflected_twists(mp.mpc(sigma, t), alpha.denominator,
                                            [alpha.numerator])
        envelope = 2 * abs(sigma) * mp.log(abs(sigma)) + abs(sigma) * mp.log(
            mp.mpmathify(h) / (2 * mp.pi * mp.e) ** 2)
        deltas.append(mp.log(abs(value)) - envelope)
    abs_sigmas = [abs(s) for s in sigmas]
    log_ratios = tuple(abs(d) / mp.log(a) for d, a in zip(deltas, abs_sigmas))
    trends = tuple(d / (a * mp.log(a)) for d, a in zip(deltas, abs_sigmas))
    # least-squares slope of Delta against |sigma|
    n = len(sigmas)
    mean_x = mp.fsum(abs_sigmas) / n
    mean_y = mp.fsum(deltas) / n
    slope = mp.fsum((x - mean_x) * (y - mean_y) for x, y in zip(abs_sigmas, deltas)) / mp.fsum(
        (x - mean_x) ** 2 for x in abs_sigmas)
    far, near = (trends[abs_sigmas.index(pick(abs_sigmas))] for pick in (max, min))
    passed = abs(slope) <= SLOPE_TOL and abs(far) <= max(mp.mpf("0.05"), abs(near))
    return GrowthCertificate(alpha, h, t, sigmas, tuple(deltas), log_ratios, trends,
                             max(log_ratios), slope, passed)


# ---------------------------------------------------------------------------
# Polar consistency of the transformation formula
# ---------------------------------------------------------------------------

def _polar_parts(alpha: Fraction, k_terms: int) -> dict:
    """{s0: [c_-2, c_-1]} of D(s) = F(s, alpha) - main_term(s) at s0 = 1 and at
    s0 = 1 - nu, nu = 1..min(K - 1, MAX_SHIFT), in closed form.  With x = s - s0,
    F(s, alpha) is singular there only at s0 = 1, with the c_k of ``_laurent_at_1``,
    and the main term only in the terms whose argument s + nu (``_shifted``) is 1 there:

      alpha^(2 s0 - 1) e^(2x log alpha) (i alpha / 2 pi)^nu Q_nu(s0 + x) F(1 + x, beta),

    with Q_nu(s0 + x) = q_0 + q_1 x + ... and F(1 + x, beta) = c_-2/x^2 + c_-1/x + ...
    So such a term's polar part is A (q_0 c_-2, q_0 c_-1 + (q_1 + 2 q_0 log alpha) c_-2),
    A = alpha^(2 s0 - 1) (i alpha / 2 pi)^nu.  q_0 and q_1 are Q_nu's exact Taylor rows at
    s0 (``expansion.q_taylor``, the shift ``polys`` reads), so a double zero of Q_nu at
    s0 gives exactly 0; at s0 = 1 (nu = 0, Q_0 = 1, A = alpha) c_-2 of both sides is an
    exact rational."""
    own, beta = reduce_mod_one(alpha), reduce_mod_one(-1 / alpha)
    (f,) = _laurent_at_1(own.denominator, [own.numerator])
    (c,) = _laurent_at_1(beta.denominator, [beta.numerator])
    log_alpha, datum, parts = mp.make_mpf(_log_at(alpha, mp.mp.prec)), zeta2_datum(), {}
    for center in [1, *range(0, -min(k_terms - 1, MAX_SHIFT), -1)]:
        polar = [f[-2], f[-1]] if center == 1 else [0, 0]
        for nu, x in enumerate(_shifted(center, k_terms)):
            if x != 1:
                continue
            taylor = q_taylor(datum, nu, center)
            q_0, q_1 = taylor.coefficient(0), taylor.coefficient(1)
            scale = alpha ** (2 * center - 1)
            if nu:  # A stays rational at nu = 0, so that c_-2 cancels exactly at s = 1
                scale *= (1j * mp.mpmathify(alpha) / (2 * mp.pi)) ** nu
            polar[0] -= scale * q_0 * c[-2]
            polar[1] -= scale * (q_0 * c[-1] + (q_1 + 2 * log_alpha * q_0) * c[-2])
        parts[center] = polar
    return parts


def transformation_polar_reports(alphas, k_terms: int, tol=mp.mpf("1e-8")) -> list[Report]:
    """One report per alpha, in order, on the closed-form polar parts (``_polar_parts``)
    of D(s) = F(s, alpha) - main_term(s): D has no residue 2 pi i c_-1 at s = 1 - nu,
    nu = 1..min(K - 1, MAX_SHIFT), where the shifted twist F(s + nu, beta) has its double
    pole and Q_nu its double zero (the records keep their name `contour at s=...`; no
    contour is sampled), and the principal parts of F(s, alpha) and of its main term
    cancel at s = 1."""
    reports = []
    for alpha in [_checked(alpha, k_terms) for alpha in alphas]:
        report = Report(f"transformation-formula polar consistency (alpha={alpha})")
        parts = _polar_parts(alpha, k_terms)
        principal = parts.pop(1)
        for center, (_, residue) in parts.items():
            report.add_bound(f"contour at s={center}", f"F(s, {alpha}) minus its main term has "
                             "no residue where the shifted twists blow up",
                             abs(2 * mp.pi * residue), tol)
        for k, c in zip((-2, -1), principal):
            report.add_bound(f"principal c_{k} at s=1", f"closed-form polar parts of F(s, "
                             f"{alpha}) and its main term cancel", abs(c), tol)
        reports.append(report)
    return reports


def transformation_polar_consistency(alpha, k_terms: int, tol=mp.mpf("1e-8")) -> Report:
    """The polar-consistency report of one alpha (see ``transformation_polar_reports``)."""
    return transformation_polar_reports([alpha], k_terms, tol)[0]


def identity_reduction_check(n_points: int = 20, tol=mp.mpf("1e-12")) -> Report:
    """At alpha = 1 and K = 0 the main term must reproduce the series
    identically (the residual transformation term vanishes for the
    reference instance); sampled on sigma > 1/2 points whose odd integer
    imaginary parts keep them off the pole at s = 1."""
    report = Report("alpha=1 exact reduction")
    worst = mp.mpf(0)
    for j in range(n_points):
        s = mp.mpc(mp.mpf("0.6") + mp.mpf(j % 5) * mp.mpf("0.35"),
                   mp.mpf(-3) + mp.mpf(6 * (j // 5)) / 3)
        diff = abs(zeta2_twist_oracle(s, Fraction(1)) - transformation_main_term(s, Fraction(1), 0))
        worst = max(worst, diff)
    report.add_bound(
        "alpha=1, K=0", "main term reproduces the untwisted series identically", worst, tol
    )
    return report
