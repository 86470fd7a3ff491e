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
(whose c_k are the character combination of those of F(s, b/p)) and the
principal parts of the polar check; no circle about s = 1 is sampled.  The
residue contours at s = 1 - nu average a vector-valued function over one circle
by the trapezoid rule, which converges geometrically for functions analytic in
an annulus, so node-halving disagreement flags insufficient analyticity.  The
nodes come in conjugate pairs about the real centers, and d(n) is real, so one
main-term pass per pair (every Q_nu(s) from one table of powers of s, each
conjugate twist pair once per distinct beta and argument) serves both nodes of
every alpha there.
The growth certificate reads Hurwitz's formula, with a stated error radius."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

import mpmath as mp
from mpmath.libmp import from_rational, fzero, round_down

from . import euler
from .expansion import q_poly
from .funceq import zeta2_datum
from .reports import Report
from .special import PoleError, characters_mod, dirichlet_l, roots_of_unity
from .twist import (_conjugate_pair, _laurent_at_1, _stable_reflected_twists,
                    character_twists, reduce_mod_one, zeta2_twist_batch, zeta2_twist_oracle)


LAURENT_RADIUS = Fraction(1, 4)  # contour radius; laurent_extract also reads radius/2
LAURENT_NODES = 128
PAIR_TOL = mp.mpf("1e-10")  # agreement across numerators and reality of beta
MAX_SHIFT = 4  # polar consistency checks the shifted poles s = 0..1-MAX_SHIFT
SLOPE_TOL = mp.mpf("0.5")  # growth certificate: |fitted slope of Delta| bound


class LaurentConvergenceError(ArithmeticError):
    """Node doubling did not converge: f is not analytic on the circle."""


@dataclass(frozen=True)
class LaurentExpansion:
    """Coefficients c_k of f for k = -max_pole_order..k_max, with the
    cross-radius disagreement attached per coefficient."""

    coefficients: dict[int, mp.mpc]
    errors: dict[int, mp.mpf]

    def coefficient(self, k: int) -> mp.mpc:
        return self.coefficients[k]

    def error(self, k: int) -> mp.mpf:
        return self.errors[k]


def _circle_samples(f, center, radius, nodes, mirrored=False):
    """f at the nodes center + radius w^j, j < nodes, w = e(1/nodes).  With
    ``mirrored`` (a real center, even nodes), f(s) returns the pair (f(s),
    f(conj s)) and is called at j <= nodes/2 only: node nodes - j is taken as
    the conjugate of node j, which it is bit for bit at 16 and 32 nodes."""
    center = mp.mpc(center)
    radius = mp.mpmathify(radius)
    points = [center + radius * root for root in roots_of_unity(nodes, mp.mp.prec)]
    if not mirrored:
        return [f(s) for s in points]
    pairs = [f(s) for s in points[:nodes // 2 + 1]]
    return [own for own, _ in pairs] + [twin for _, twin in pairs[nodes // 2 - 1:0:-1]]


def _coeffs_from_samples(values, radius, ks) -> dict[int, mp.mpc]:
    """c_k = (1/N) sum_j f(s_j) (r w^j)^-k for the N-th roots of unity w."""
    n = len(values)
    roots = roots_of_unity(n, mp.mp.prec)
    radius = mp.mpmathify(radius)
    return {
        k: mp.fsum(v * roots[-j * k % n] for j, v in enumerate(values)) / n * radius ** (-k)
        for k in ks
    }


def _laurent_many(f, center, max_pole_order, radius, nodes, k_max,
                  mirrored=False) -> list[dict[int, mp.mpc]]:
    """Extract {k: c_k} for k = -m..K of every component of the vector-valued
    ``f`` from one circle of ``radius``.

    ``f(s)`` returns a list of values; it is called once per node, in node
    order, or with ``mirrored`` once per conjugate node pair (see
    ``_circle_samples``).  Raises LaurentConvergenceError when halving the
    node count moves any coefficient of any component materially.
    """
    if nodes < 2 or nodes % 2:
        raise ValueError(f"need an even count of at least 2 contour nodes, got {nodes}")
    ks = range(-max_pole_order, k_max + 1)
    expansions = []
    for values in zip(*_circle_samples(f, center, radius, nodes, mirrored)):
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
    """alpha^(2s - 1), the prefactor of ``transformation_main_term``."""
    return mp.exp((2 * mp.mpc(s) - 1) * mp.log(mp.mpmathify(Fraction(alpha))))


@lru_cache(maxsize=None)
def _q_coeffs(nu: int, prec: int) -> tuple:
    """zeta(s)^2's Q_nu coefficients as mpc at ``prec`` bits, highest degree first:
    Q_nu's integer row over its denominator, rounded once toward zero (as
    mpmath rounds a Fraction).  The main term's mirror image needs them real,
    which is checked here exactly."""
    q = q_poly(zeta2_datum(), nu)
    if q.im:
        raise ValueError(f"Q_{nu} of zeta(s)^2 has an imaginary part: {q.pretty()}")
    return tuple(mp.make_mpc((from_rational(re, q.den, prec, round_down), fzero))
                 for re in reversed(q.re))


def _q_values(table, s) -> list[mp.mpc]:
    """Q_nu(s) for each ``_q_coeffs`` tuple in ``table`` from one table of
    powers of s, as exactly summed dot products rounded once: s^j errs by at
    most j 2^-prec relatively, so at degree d <= 32 (K <= 16) a value lies
    within (d + 2) 2^-prec <= 2^-(prec-6) of sum_j |q_j| |s|^j."""
    powers = [mp.mpc(1)]
    for _ in range(max(map(len, table)) - 1):
        powers.append(powers[-1] * s)
    return [mp.fdot(coeffs, powers[len(coeffs) - 1::-1]) for coeffs in table]


def _main_terms(alphas, k_terms: int):
    """The main terms of every alpha in ``alphas`` as one vector-valued
    function of s, with their mirror images: per alpha, main_terms(s) gives
    the pair (M(s), conj M(conj s)).  Q_nu has real coefficients, alpha > 0
    and d(n) is real, so F(conj x, beta) = conj F(x, -beta) and

      conj M(conj s) = alpha^(2s - 1) sum_nu conj((i alpha / 2 pi)^nu) Q_nu(s) F(s + nu, -beta).

    Per node, every Q_nu(s) comes from one ``_q_values`` call, and the pair
    T_nu(s) = Q_nu(s) (F(s + nu, beta), F(s + nu, -beta)) is built once per
    distinct beta = -1/alpha mod 1 from one ``_conjugate_pair``; each alpha
    reads its prefactor times the dot products of T with its powers of
    (i alpha / 2 pi) and their conjugates.  Each distinct pair at (x, beta) is
    evaluated once: the shifts of one circle's nodes are other circles' nodes."""
    if k_terms < 0:
        raise ValueError("K must be nonnegative")
    alphas = [Fraction(alpha) for alpha in alphas]
    if any(alpha <= 0 for alpha in alphas):
        raise ValueError("the transformation formula needs alpha > 0")
    betas = [reduce_mod_one(Fraction(-1) / alpha) for alpha in alphas]
    ratio_powers = [[(1j * mp.mpmathify(alpha) / (2 * mp.pi)) ** nu
                     for nu in range(k_terms + 1)] for alpha in alphas]
    mirrored_powers = [[mp.conj(power) for power in powers] for powers in ratio_powers]
    table = [_q_coeffs(nu, mp.mp.prec) for nu in range(k_terms + 1)]
    twists = {}  # (F(x, beta), F(x, -beta)), keyed by the exact x and beta

    def twist(x, beta):
        if (key := (x._mpc_, beta)) not in twists:
            twists[key] = _conjugate_pair(x, beta)
        return twists[key]

    def main_terms(s) -> list[tuple[mp.mpc, mp.mpc]]:
        s = mp.mpc(s)
        shifted = [s + nu for nu in range(k_terms + 1)]
        if 1 in shifted:
            raise PoleError(f"conjugate twist pole hit at nu={shifted.index(1)} (s+nu=1)")
        q_values = _q_values(table, s)
        terms = {beta: [[q * value for q, value in zip(q_values, column)]
                        for column in zip(*(twist(x, beta) for x in shifted))]
                 for beta in dict.fromkeys(betas)}
        pairs = []
        for alpha, beta, powers, mirrored in zip(alphas, betas, ratio_powers, mirrored_powers):
            prefactor, (own, twin) = transformation_prefactor(s, alpha), terms[beta]
            pairs.append((prefactor * mp.fdot(powers, own), prefactor * mp.fdot(mirrored, twin)))
        return pairs

    return main_terms


def transformation_main_term(s, alpha, k_terms: int) -> mp.mpc:
    """Truncated main term of the transformation formula for zeta(s)^2:

    alpha^(2s - 1) * sum_{nu=0}^{K} (i alpha / 2 pi)^nu Q_nu(s) F(s + nu, -1/alpha).

    The paper's main term of a degree-2 F is -i omega* (sqrt(q_F) alpha)^(2s - 1 + i theta)
    * sum_nu (i q_F alpha / 2 pi)^nu Q_nu(s) Fbar(s + nu + i theta, -1/(q_F alpha)).
    The package has one coefficient sequence, d(n), whose conjugate twists
    Fbar = F come from the divisor-twist kernel; so the datum is zeta(s)^2's,
    q_F = 1, theta = 0 and -i omega* = 1, which gives the form above.
    Raises PoleError when a required twist value sits at its pole.  The
    scalar view of ``_main_terms``.
    """
    return _main_terms([alpha], k_terms)(s)[0][0]


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

@dataclass(frozen=True)
class GrowthCertificate:
    alpha: Fraction
    h: Fraction
    t: mp.mpf
    sigmas: tuple
    deltas: tuple
    log_ratios: tuple  # |Delta(sigma)| / log|sigma|
    trends: tuple  # Delta(sigma) / (|sigma| log|sigma|)
    c_star: mp.mpf
    slope: mp.mpf
    passed: bool


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
    q = 4, at t = 0 and odd sigma).  S is evaluated at 192 bits and counts as 0 below
    2^-128 q^2 cosh^2(pi t/2), so exact zeros stay rejected and all callers agree.
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
            rest = mp.zeta(1 - sigma, 2)  # zeta(1 - sigma) - 1, free of cancellation
            if abs(lead) <= q * q * mp.cosh(mp.pi * t / 2) ** 2 * max(rest * (rest + 2),
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

def _differences(alphas, k_terms: int):
    """D(s) = F(s, alpha) - main_term(s) of every alpha in ``alphas`` with its
    mirror image: differences(s) gives the lists of D(s) and of D(conj s) =
    conj(F(s, -alpha) - conj M(conj s)), d(n) being real, from one
    ``_main_terms`` pass and one ``_conjugate_pair`` per alpha."""
    main_terms = _main_terms(alphas, k_terms)

    def differences(s):
        own, twin = [], []
        for alpha, (main, mirrored) in zip(alphas, main_terms(s)):
            value, conjugate = _conjugate_pair(s, alpha)
            own.append(value - main)
            twin.append(mp.conj(conjugate - mirrored))
        return own, twin

    return differences


def transformation_polar_reports(alphas, k_terms: int, tol=mp.mpf("1e-8"),
                                 nodes: int = 32) -> list[Report]:
    """One report per alpha, in order: D(s) = F(s, alpha) - main_term(s) must
    be holomorphic at s = 1 - nu (the divisibility of Q_nu kills the shifted
    twist poles), on one circle each, where one ``_main_terms`` pass per
    conjugate node pair serves every alpha: with d(n) real, D(conj s) =
    conj(F(s, -alpha) - conj M(conj s)), so the nodes j <= nodes/2 give all
    samples; and its principal parts at s = 1 must cancel.  There,
    with Q_0 = 1, only the nu = 0 term alpha^(2s - 1) F(s, beta) is singular,
    and alpha^(1 + 2x) = alpha (1 + 2x log alpha + ...), so c_-2 and c_-1 of D
    come from ``_laurent_at_1`` at alpha mod 1 and at beta = -1/alpha mod 1; c_-2
    of both sides is an exact rational."""
    alphas = [Fraction(alpha) for alpha in alphas]
    distinct = list(dict.fromkeys(alphas))
    differences = _differences(distinct, k_terms)
    reports = [Report(f"transformation-formula polar consistency (alpha={a})") for a in distinct]
    for nu in range(1, min(k_terms - 1, MAX_SHIFT) + 1):
        circle = _laurent_many(differences, 1 - nu, 1, LAURENT_RADIUS, nodes, -1, mirrored=True)
        for a, report, c in zip(distinct, reports, circle):
            report.add_bound(f"contour at s={1 - nu}", f"F(s, {a}) minus its main term has no "
                             "residue where the shifted twists blow up", abs(2j * mp.pi * c[-1]),
                             tol)
    for a, report in zip(distinct, reports):
        own, conj = (_laurent_at_1(b.denominator, [b.numerator])[0]
                     for b in (reduce_mod_one(a), reduce_mod_one(-1 / a)))
        x = mp.mpmathify(a)
        for k, main in ((-2, a * conj[-2]), (-1, x * (conj[-1] + 2 * mp.log(x) * conj[-2]))):
            report.add_bound(f"principal c_{k} at s=1", f"closed-form polar parts of F(s, {a}) "
                             "and its main term cancel", abs(own[k] - main), tol)
    return [reports[distinct.index(alpha)] for alpha in alphas]


def transformation_polar_consistency(alpha, k_terms: int, tol=mp.mpf("1e-8"),
                                     nodes: int = 32) -> Report:
    """The polar-consistency report of one alpha (see ``transformation_polar_reports``)."""
    return transformation_polar_reports([alpha], k_terms, tol, nodes)[0]


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
