from collections import Counter
from fractions import Fraction
from math import gcd

import mpmath as mp
import pytest

from twistlab import cli, euler, special, transform, twist
from twistlab.euler import LocalFactor, degree_bound, euler_factor_at_1, solve_local_factor
from twistlab.exactpoly import GaussianRational
from twistlab.expansion import q_poly
from twistlab.special import PoleError
from twistlab.transform import (
    GrowthCertificate,
    LaurentConvergenceError,
    contour_integral,
    growth_certificate,
    growth_t_max,
    identity_reduction_check,
    laurent_extract,
    transformation_polar_consistency,
    transformation_polar_reports,
    transformation_main_term,
    transformation_prefactor,
    twist_laurent_table,
    verify_alpha_law,
    verify_beta_law,
    verify_chi_holomorphy,
)
from twistlab.twist import character_twists, zeta2_twist_batch, zeta2_twist_oracle

from paper_checks import conductor, eval_mpc, lambda_invariant, root_number_star, to_mpc


class TestLaurentExtract:
    def test_simple_pole(self):
        exp = laurent_extract(lambda s: 1 / (s - 1), center=1, max_pole_order=2, nodes=64)
        assert abs(exp.coefficient(-1) - 1) < mp.mpf("1e-25")
        for k in (-2, 0, 1, 2):
            assert abs(exp.coefficient(k)) < mp.mpf("1e-25")

    def test_zeta_squared_stieltjes(self):
        exp = laurent_extract(
            lambda s: zeta2_twist_oracle(s, Fraction(0)),
            center=1,
            max_pole_order=2,
            nodes=128,
        )
        assert abs(exp.coefficient(-2) - 1) < mp.mpf("1e-20")
        assert abs(exp.coefficient(-1) - 2 * mp.euler) < mp.mpf("1e-20")
        assert exp.error(-1) < mp.mpf("1e-20")

    def test_half_twist_leading_coefficient(self):
        exp = laurent_extract(
            lambda s: zeta2_twist_oracle(s, Fraction(1, 2)),
            center=1,
            max_pole_order=2,
            nodes=128,
        )
        assert abs(exp.coefficient(-2) - mp.mpf("0.5")) < mp.mpf("1e-20")

    def test_taylor_side(self):
        exp = laurent_extract(lambda s: mp.exp(s), center=0, max_pole_order=1, k_max=2, nodes=64)
        assert abs(exp.coefficient(0) - 1) < mp.mpf("1e-25")
        assert abs(exp.coefficient(1) - 1) < mp.mpf("1e-25")
        assert abs(exp.coefficient(2) - mp.mpf("0.5")) < mp.mpf("1e-25")

    def test_branch_cut_detected(self):
        with pytest.raises(LaurentConvergenceError):
            laurent_extract(lambda s: mp.log(s - 1), center=1, max_pole_order=1, nodes=64)

    def test_branch_cut_in_one_component_detected(self):
        with pytest.raises(LaurentConvergenceError):
            transform._laurent_many(
                lambda s: [1 / (s - 1), mp.log(s - 1)], 1, 1, Fraction(1, 4), 64, 2
            )

    def test_vector_extraction_equals_scalar_extraction(self):
        components = [
            lambda s: 1 / (s - 1),
            lambda s: mp.exp(s) / (s - 1) ** 2,
            lambda s: zeta2_twist_oracle(s, Fraction(1, 3)),
        ]
        many = transform._laurent_many(
            lambda s: [g(s) for g in components], 1, 3, Fraction(1, 4), 64, 1
        )
        assert len(many) == len(components)
        for g, got in zip(components, many):
            want = laurent_extract(g, center=1, max_pole_order=3, nodes=64, k_max=1)
            assert got == want.coefficients

    def test_real_on_reals_gives_real_coefficients(self):
        # conjugate symmetry: the half-twist has real coefficients
        # ((-1)^n d(n)), so it is real on the real axis and its Laurent
        # coefficients around a real center must be real
        exp = laurent_extract(
            lambda s: zeta2_twist_oracle(s, Fraction(1, 2)),
            center=1,
            max_pole_order=2,
            k_max=1,
            nodes=64,
        )
        for k in range(-2, 2):
            assert abs(mp.im(exp.coefficient(k))) < mp.mpf("1e-25"), k

    def test_odd_node_count_rejected(self):
        with pytest.raises(ValueError):
            laurent_extract(lambda s: s, center=0, nodes=63)

    def test_contour_integral_residue(self):
        value = contour_integral(lambda s: 3 / (s - 1), center=1)
        assert abs(value - 6j * mp.pi) < mp.mpf("1e-25")

    @pytest.mark.parametrize("nodes", (0, -2))
    def test_too_few_nodes_rejected(self, nodes):
        with pytest.raises(ValueError, match="nodes"):
            laurent_extract(lambda s: 1 / (s - 1), center=1, nodes=nodes)

    @pytest.mark.parametrize("nodes", (0, 1, 63))  # node halving needs an even count
    def test_contour_integral_needs_two_nodes(self, nodes):
        with pytest.raises(ValueError, match="nodes"):
            contour_integral(lambda s: 1 / (s - 1), center=1, nodes=nodes)

    def test_contour_integral_branch_cut_detected(self):
        with pytest.raises(LaurentConvergenceError):
            contour_integral(lambda s: mp.log(s - 1), center=1)

    @pytest.mark.parametrize("bits", (64, 128, 256))
    def test_root_table_matches_per_node_phases(self, bits):
        # the reference route: one e^(-2 pi i j k / n) per (node, k)
        with mp.workprec(bits):
            for n, radius in ((128, Fraction(1, 4)), (64, Fraction(1, 8)), (6, Fraction(1, 3))):
                samples = transform._circle_samples(
                    lambda s: zeta2_twist_oracle(s, Fraction(1, 3)), 1, radius, n
                )
                ks = range(-3, 3)
                got = transform._coeffs_from_samples(samples, radius, ks)
                scale = max(abs(c) for c in got.values())
                for k in ks:
                    want = mp.fsum(
                        v * mp.expjpi(mp.mpf(-2 * j * k) / n) for j, v in enumerate(samples)
                    ) / n * mp.mpmathify(radius) ** (-k)
                    assert abs(got[k] - want) <= scale * mp.mpf(2) ** -(bits - 8), (n, k)


class TestMainTerm:
    @pytest.mark.parametrize("bits", (64, 128, 256))
    def test_cached_q_coefficients_equal_exact_evaluation(self, zeta2, bits):
        with mp.workprec(bits):
            points = [mp.mpc("-2.75", "0.25"), mp.mpc(1, "-0.25"), mp.mpc("0.5", 14)]
            for nu in range(9):
                coeffs = transform._q_coeffs(nu, bits)
                for s in points:
                    value = mp.polyval(coeffs, s)
                    assert value._mpc_ == eval_mpc(q_poly(zeta2, nu), s)._mpc_, (nu, s)

    def test_alpha_one_reduction(self):
        report = identity_reduction_check()
        assert report.passed

    @pytest.mark.parametrize("bits", (64, 128, 256))
    def test_cached_prefactor_equals_literal_formula(self, zeta2, bits):
        with mp.workprec(bits):
            for s in (mp.mpc("1.7", "0.4"), mp.mpc("-2.75", "0.25"), mp.mpc(3)):
                for alpha in (Fraction(1), Fraction(1, 2), Fraction(2, 3)):
                    omega_star = to_mpc(root_number_star(zeta2))
                    theta = mp.mpmathify(zeta2.theta)
                    base = mp.sqrt(mp.mpmathify(conductor(zeta2))) * mp.mpmathify(alpha)
                    want = -1j * omega_star * mp.exp((2 * s - 1 + 1j * theta) * mp.log(base))
                    got = transformation_prefactor(s, alpha)
                    assert got._mpc_ == want._mpc_, (s, alpha)

    def test_prefactor_homogeneity(self):
        s = mp.mpc("1.7", "0.4")
        a1, a2 = Fraction(1, 2), Fraction(3, 4)
        lhs = transformation_prefactor(s, a1) / transformation_prefactor(s, a2)
        rhs = mp.exp((2 * s - 1) * mp.log(mp.mpmathify(a1 / a2)))
        assert abs(lhs - rhs) < mp.mpf("1e-30")

    def test_increments_match_term_sizes(self, zeta2):
        # raising K by one adds exactly one term; its size is predicted
        # independently from the polynomial value and the shifted series
        from twistlab.expansion import q_poly

        s = mp.mpc(3)
        alpha = Fraction(1, 2)
        values = {k: transformation_main_term(s, alpha, k) for k in range(5, 13)}
        print("\nmain-term increment table (K -> K+1):")
        for k in range(5, 12):
            increment = abs(values[k + 1] - values[k])
            predicted = (
                abs(transformation_prefactor(s, alpha))
                * (mp.mpmathify(alpha) / (2 * mp.pi)) ** (k + 1)
                * abs(eval_mpc(q_poly(zeta2, k + 1), s))
                * abs(mp.zeta(s + k + 1) ** 2)
            )
            print(f"  K={k}: increment {mp.nstr(increment, 6)}")
            assert abs(increment - predicted) <= mp.mpf("1e-20") * max(1, predicted)

    def test_pole_signal(self):
        with pytest.raises(PoleError):
            transformation_main_term(mp.mpc(1), Fraction(1, 2), 2)
        with pytest.raises(PoleError):
            transformation_main_term(mp.mpc(-1), Fraction(1, 2), 4)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            transformation_main_term(mp.mpc(3), Fraction(-1, 2), 2)

    @pytest.mark.parametrize("bits", (64, 128, 256))
    def test_main_term_is_the_general_formula_at_zeta2(self, zeta2, bits):
        # the general formula at zeta2's own invariants (q_F = 1, theta = 0,
        # lambda = 1), within the bound of test_vector_main_terms_match_literal_formula
        with mp.workprec(bits):
            for center, radius in ((-3, Fraction(1, 4)), (1, Fraction(1, 8)), (3, 1)):
                for s in circle_nodes(center, radius, 4):
                    for alpha in (Fraction(1, 2), Fraction(2, 3), Fraction(3, 2)):
                        want, scale = literal_main_term(zeta2, s, alpha, 8)
                        got = transformation_main_term(s, alpha, 8)
                        assert abs(got - want) <= scale * mp.mpf(2) ** -(bits - 8), (s, alpha)


def scalar_polar_values(alpha, k_terms):
    """The per-alpha reference route of the s = 1 - nu records: one closure
    D(s) = F(s, alpha) - main_term(s) per alpha, through the scalar
    contour_integral; (record name, measured value) in report order."""

    def difference(s):
        return zeta2_twist_oracle(s, alpha) - transformation_main_term(s, alpha, k_terms)

    return [
        (f"contour at s={1 - nu}", abs(contour_integral(difference, center=1 - nu, nodes=32)))
        for nu in range(1, min(k_terms - 1, transform.MAX_SHIFT) + 1)
    ]


def literal_main_term(datum, s, alpha, k_terms):
    """The general main term lambda (sqrt(q_F) alpha)^(2s - 1 + i theta)
    * sum_nu (i q_F alpha / 2 pi)^nu Q_nu(s) Fbar(s + nu + i theta, -1/(q_F alpha))
    term by term, with the datum's invariants (lambda = -i omega*, exact q_F)
    and Horner's Q_nu; Fbar = F is the divisor-twist oracle.  Returns the
    value and its rounding scale, the same sum with |Q_nu(s)| replaced by
    sum_j |q_j| |s|^j and every other factor by its absolute value."""
    q_f, theta = conductor(datum), mp.mpmathify(datum.theta)
    base = mp.sqrt(mp.mpmathify(q_f)) * mp.mpmathify(alpha)
    prefactor = to_mpc(lambda_invariant(datum)) * mp.exp(
        (2 * s - 1 + 1j * theta) * mp.log(base))
    ratio = 1j * mp.mpmathify(q_f * alpha) / (2 * mp.pi)
    value = scale = 0
    for nu in range(k_terms + 1):
        q = q_poly(datum, nu)
        outer = prefactor * ratio**nu * zeta2_twist_oracle(s + nu + 1j * theta,
                                                           Fraction(-1) / (q_f * alpha))
        value += outer * eval_mpc(q, s)
        scale += abs(outer) * mp.fsum(abs(to_mpc(c)) * abs(s) ** j
                                      for j, c in enumerate(q.coeffs))
    return value, scale


def circle_nodes(center, radius, nodes):
    return [mp.mpc(center) + mp.mpmathify(radius) * mp.expjpi(mp.mpf(2 * j) / nodes)
            for j in range(nodes)]


class TestPolarConsistency:
    # mixes beta = -1/alpha mod 1 = 0 (1/2, 1/3) with beta = 1/2 (2/3), and a duplicate
    ALPHAS = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 2))

    def test_alpha_half_at_tight_tolerance(self):
        report = transformation_polar_consistency(
            Fraction(1, 2), 6, tol=mp.mpf("1e-10"), nodes=16
        )
        assert report.passed
        assert len(report.records) == 6  # four circles + two principal parts

    def test_vector_route_matches_per_alpha_scalar_route(self):
        # The s = 1 - nu records; the principal parts at s = 1 follow them and
        # are held against a contour in TestClosedFormLaurent.
        # The routes differ at most in how D(s) rounds.  On these circles the
        # main term's rounding scale (see literal_main_term) stays below 2^12
        # (at most about 3.9e3) and _main_terms rounds within 2^5 2^-prec of
        # it, so each route's D(s) lies within 2^-(prec-17) of the exact
        # value.  A record is 2 pi |c_-1| or |c_k|, c_k a node mean of D(s_j)
        # times (r w^j)^-k with r = 1/4, so two routes' records differ by
        # at most 2^-(prec-19).  The records print 6 digits: add 1e-5 of the
        # value.
        bound = mp.mpf(2) ** -(mp.mp.prec - 19)
        reports = transformation_polar_reports(self.ALPHAS, 8)
        assert len(reports) == len(self.ALPHAS)
        for alpha, report in zip(self.ALPHAS, reports):
            want = scalar_polar_values(alpha, 8)
            assert report.title == f"transformation-formula polar consistency (alpha={alpha})"
            assert [r.name for r in report.records] == [name for name, _ in want] + [
                "principal c_-2 at s=1", "principal c_-1 at s=1"]
            for record, (name, value) in zip(report.records, want):
                assert record.passed
                assert abs(mp.mpf(record.measured) - value) <= bound + value * mp.mpf("1e-5"), (
                    alpha, name)

    def test_vector_main_terms_match_literal_formula(self, zeta2):
        # every alpha reads its own main term.  At degree d <= 16 the vector
        # core's Q_nu errs by at most (d + 2) 2^-prec and Horner's by about
        # (2d + 1) 2^-prec of sum_j |q_j| |s|^j; the products and the 9-term
        # sums add about 12 roundings more, so the routes agree within
        # 2^-(prec-8) of the rounding scale (measured: below 4 2^-prec)
        main_terms = transform._main_terms(self.ALPHAS, 8)
        for center, radius in ((-3, Fraction(1, 4)), (0, Fraction(1, 4)), (1, Fraction(1, 8))):
            for s in circle_nodes(center, radius, 8):
                for alpha, got in zip(self.ALPHAS, main_terms(s)):
                    want, scale = literal_main_term(zeta2, s, alpha, 8)
                    assert abs(got - want) <= scale * mp.mpf(2) ** -(mp.mp.prec - 8), (s, alpha)

    @pytest.mark.parametrize("bits", (64, 128, 256))
    def test_power_table_q_values_match_horner(self, zeta2, bits):
        # _q_values lies within 2^-(prec-6) sum_j |q_j| |s|^j of Q_nu(s) for
        # degree <= 32; Horner in eval_mpc rounds 2d + 1 times, within
        # about (2d + 1) 2^-prec of the same sum, so the routes agree within
        # 2^-(prec-7) of it.  Nodes reach |s| = 3.25 on the circle at s = -3.
        with mp.workprec(bits):
            table = [transform._q_coeffs(nu, bits) for nu in range(17)]
            for center in (1, 0, -1, -2, -3):
                for s in circle_nodes(center, Fraction(1, 4), 8):
                    for nu, got in enumerate(transform._q_values(table, s)):
                        scale = mp.fsum(abs(c) * abs(s) ** j
                                        for j, c in enumerate(reversed(table[nu])))
                        want = eval_mpc(q_poly(zeta2, nu), s)
                        assert abs(got - want) <= scale * mp.mpf(2) ** -(bits - 7), (s, nu)

    def test_one_main_term_pass_per_node(self, monkeypatch):
        # alphas 1/2 and 1/3 share beta = 0: per node, Q_0..Q_8 come from one
        # _q_values call; each distinct shifted argument s + nu of the pass is
        # requested once as F(s + nu, 0), not once per alpha, node or circle
        # (the shifts of one circle's nodes are nodes of the others); F(s, alpha)
        # once per node and alpha.  A request is keyed by its exact argument.
        nodes, requests = [], Counter()
        q_values, oracle = transform._q_values, transform.zeta2_twist_oracle

        def counted_q_values(table, s):
            nodes.append(s)
            return q_values(table, s)

        def counted_oracle(s, alpha):
            requests[mp.mpc(s)._mpc_, Fraction(alpha)] += 1
            return oracle(s, alpha)

        monkeypatch.setattr(transform, "_q_values", counted_q_values)
        monkeypatch.setattr(transform, "zeta2_twist_oracle", counted_oracle)
        reports = transformation_polar_reports((Fraction(1, 2), Fraction(1, 3)), 8)
        assert all(report.passed for report in reports)
        assert len(nodes) == 4 * 32  # the principal parts at s = 1 are closed form
        assert set(requests.values()) == {1}
        shifted = {mp.mpc(s + nu)._mpc_ for s in nodes for nu in range(9)}
        assert {x for x, alpha in requests if alpha == 0} == shifted
        assert len(shifted) == 512  # of 128 nodes times 9 shifts
        alphas = Counter(alpha for _, alpha in requests)
        assert alphas == {0: 512, Fraction(1, 2): len(nodes), Fraction(1, 3): len(nodes)}


@pytest.fixture(scope="module")
def table():
    old = mp.mp.prec
    mp.mp.prec = 128
    try:
        return twist_laurent_table(3)
    finally:
        mp.mp.prec = old


def contour_bound(c):
    """Closed form against a 64- or 128-node contour of radius 1/4 at s = 1: F
    grows like 1/r^2 = 16 on the circle, so the contour's rounding alone
    reaches a few ulps of c_0; its aliasing is far smaller."""
    return mp.mpf(2) ** -(mp.mp.prec - 10) * max(1, abs(c))


def laurent_bound(c, bits):
    """``_laurent_at_1``'s stated bound on c_-1, 2^-prec |c| + 5 2^-(prec+20)."""
    return mp.ldexp(abs(c), -bits) + mp.ldexp(5, -bits - 20)


def coprime_numerators(q):
    return [a for a in range(1, q + 1) if gcd(a, q) == 1]


class TestClosedFormLaurent:
    """``_laurent_at_1`` against routes that share none of its arithmetic."""

    def test_matches_mp_zeta_contour(self, monkeypatch):
        # with no series center every Hurwitz value comes from mp.zeta; the
        # memo key does not record the route, so it is cleared on both sides
        special._hurwitz_memo.cache_clear()
        monkeypatch.setattr(special, "_SERIES_CENTERS", range(0))
        # the coprime numerators feed the laws, and every b = 0..q-1 the character twists
        try:
            for q in range(1, 5):
                for numerators in (coprime_numerators(q), range(q)):
                    contours = transform._laurent_many(
                        lambda s: [zeta2_twist_batch(s, q)[a % q] for a in numerators],
                        1, 3, Fraction(1, 4), 128, -1)
                    closed = transform._laurent_at_1(q, numerators)
                    for a, want, got in zip(numerators, contours, closed, strict=True):
                        assert sorted(got) == [-3, -2, -1]
                        for k in got:
                            assert abs(want[k] - got[k]) <= contour_bound(got[k]), (q, a, k)
        finally:
            special._hurwitz_memo.cache_clear()

    @pytest.mark.parametrize("bits", (64, 128, 256))
    def test_polar_coefficients_are_exact(self, bits):
        # c_-2 = 1/q exactly and c_-1 = (2 gamma - 2 log q)/q for a coprime to q,
        # within the kernel's stated bound: rounding u/q does not move it, as
        # each p_0(u/q) with u < q enters c_-1 through sum_v e(-uva/q) = 0
        with mp.workprec(bits):
            for q in range(1, 13):
                numerators = coprime_numerators(q)
                expansions = transform._laurent_at_1(q, numerators)
                with mp.workprec(bits + 40):
                    want = (2 * mp.euler - 2 * mp.log(q)) / q
                for a, c in zip(numerators, expansions):
                    assert c[-3] == 0 and c[-2] == Fraction(1, q), (bits, q, a)
                    assert abs(c[-1] - want) <= laurent_bound(want, bits), (bits, q, a)

    @pytest.mark.parametrize("bits", (64, 128, 256))
    def test_character_twists_match_contour(self, bits):
        # c_k of F(s, chi) as verify_chi_holomorphy reads them: the character
        # combination of the closed-form c_k of F(s, b/p)
        with mp.workprec(bits):
            for p in (3, 5, 7, 11, 13):
                contours = transform._laurent_many(
                    lambda s: character_twists(zeta2_twist_batch(s, p), p),
                    1, 2, Fraction(1, 4), 64, -1)
                laurent = transform._laurent_at_1(p, range(p))
                closed = {k: character_twists([c[k] for c in laurent], p) for k in (-2, -1)}
                for i, want in enumerate(contours):
                    for k, got in closed.items():
                        assert abs(got[i] - want[k]) <= contour_bound(got[i]), (bits, p, i, k)

    @pytest.mark.parametrize("bits", (64, 128, 256))
    def test_principal_parts_match_contour(self, bits):
        # both sides of D(s) = F(s, alpha) - main term at s = 1: F's c_k from
        # _laurent_at_1 at alpha, and the main term's from alpha^(2s - 1)
        # F(s, beta) (Q_0 = 1), alpha^(1 + 2x) = alpha (1 + 2x log alpha); the
        # principal records print |c_k(D)| to 6 digits
        alphas = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(3, 2)]
        with mp.workprec(bits):
            assert transform._q_coeffs(0, bits) == (1,)
            reports = transformation_polar_reports(alphas, 8)
            for alpha, report in zip(alphas, reports):
                main_terms = transform._main_terms([alpha], 8)
                twist_contour, main_contour = transform._laurent_many(
                    lambda s: [zeta2_twist_oracle(s, alpha), main_terms(s)[0]],
                    1, 2, Fraction(1, 4), 64, 0)
                (own,), (conj,) = (
                    transform._laurent_at_1(b.denominator, [b.numerator])
                    for b in (twist.reduce_mod_one(alpha), twist.reduce_mod_one(-1 / alpha)))
                x = mp.mpmathify(alpha)
                main = {-2: x * conj[-2], -1: x * (conj[-1] + 2 * mp.log(x) * conj[-2])}
                records = {r.name: mp.mpf(r.measured) for r in report.records}
                for k in (-2, -1):
                    assert abs(twist_contour[k] - own[k]) <= contour_bound(own[k]), (alpha, k)
                    assert abs(main[k] - main_contour[k]) <= contour_bound(main[k]), (alpha, k)
                    contour = abs(twist_contour[k] - main_contour[k])
                    assert abs(records[f"principal c_{k} at s=1"] - contour) <= (
                        contour_bound(own[k]) + contour * mp.mpf("1e-5")), (alpha, k)

    def test_second_table_builds_no_series(self):
        twist_laurent_table(24)
        misses = special._hurwitz_series.cache_info().misses
        twist_laurent_table(24)
        assert special._hurwitz_series.cache_info().misses == misses


class TestLaurentLaws:
    def test_batched_table_equals_per_numerator_extraction(self):
        # the reference route: one scalar contour extraction of the oracle per a/q
        table = twist_laurent_table(6)
        assert sorted(table) == [
            (1, 1), (2, 1), (3, 1), (3, 2), (4, 1), (4, 3),
            (5, 1), (5, 2), (5, 3), (5, 4), (6, 1), (6, 5),
        ]
        for (q, a), got in table.items():
            want = laurent_extract(
                lambda s: zeta2_twist_oracle(s, Fraction(a, q)),
                center=1,
                max_pole_order=3,
                radius=Fraction(1, 4),
                nodes=128,
                k_max=-1,
            )
            assert sorted(got) == sorted(want.coefficients) == [-3, -2, -1]
            for k, c in got.items():
                assert abs(want.coefficient(k) - c) <= contour_bound(c), (q, a, k)

    def test_alpha_law(self, table):
        report = verify_alpha_law(table)
        assert report.passed

    def test_beta_law(self, table):
        report = verify_beta_law(table)
        assert report.passed

    def test_lambda_reality_chain(self, zeta2, table):
        # alpha_F = lambda_F conj(alpha_F) with lambda_F = 1, exactly
        alpha_f = table[(1, 1)][-2]
        lam = lambda_invariant(zeta2)
        assert lam == 1
        assert alpha_f == lam * alpha_f.conjugate() == 1
        assert table[(1, 1)][-3] == 0


class TestExactLeadingCoefficient:
    def test_is_the_root_of_unity_sum(self):
        # q^-2 sum_{u,v} e(-uvb/q) summed at 256 bits, every b = 0..q-1
        with mp.workprec(256):
            for q in range(1, 13):
                for b in range(q):
                    total = mp.fsum(special.unit_phase(Fraction(-u * v * b, q))
                                    for u in range(q) for v in range(q)) / q ** 2
                    exact = twist.leading_coefficient(b, q)
                    assert abs(total - exact) <= mp.mpf(2) ** -240, (q, b)

    @pytest.mark.parametrize("bits", (64, 128, 256))
    def test_records_print_exact_zero(self, bits):
        # alpha, alpha a-independence (q <= 12) and principal c_-2 compare rationals
        alphas = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(3, 2)]
        with mp.workprec(bits):
            report = verify_alpha_law(twist_laurent_table(12))
            for polar in transformation_polar_reports(alphas, 1):
                report.extend(polar)
        records = [r for r in report.records if r.name.startswith(("alpha", "principal c_-2"))]
        assert len(records) == 46 + 10 + 4
        assert all(r.measured == "0.0" and r.passed for r in records), bits


class TestChiHolomorphy:
    def test_p3(self):
        report = verify_chi_holomorphy(3)
        assert report.passed
        assert any("square law" in r.name for r in report.records)


def refuse(*args):
    raise AssertionError("a contour was sampled")


def count_batches(monkeypatch):
    """Count zeta2_twist_batch calls, by q, from twist and from transform."""
    calls, batch = Counter(), twist.zeta2_twist_batch

    def counted(s, q):
        calls[q] += 1
        return batch(s, q)

    for module in (twist, transform):
        monkeypatch.setattr(module, "zeta2_twist_batch", counted)
    return calls


class TestOneCirclePerExtraction:
    # no command samples a circle about s = 1: the Laurent table, the Euler
    # solve, the character twists and the polar parts there read s = 1 in
    # closed form; only the square law samples 8 nodes on each of two circles

    def test_laurent_table(self, monkeypatch):
        calls = count_batches(monkeypatch)
        monkeypatch.setattr(transform, "_laurent_many", refuse)
        twist_laurent_table(3)
        assert calls == {}

    def test_euler_factor(self, monkeypatch):
        calls = count_batches(monkeypatch)
        monkeypatch.setattr(transform, "_laurent_many", refuse)
        euler_factor_at_1(3)
        assert calls == {}

    def test_chi_holomorphy_samples_two_circles(self, monkeypatch):
        calls = count_batches(monkeypatch)
        verify_chi_holomorphy(5)
        assert calls == {5: 2 * 8}

    def test_verify_samples_no_circle_at_1(self, monkeypatch, capsys):
        contour = transform._laurent_many

        def away_from_1(f, center, *args):
            assert center != 1, "a contour about s = 1 was sampled"
            return contour(f, center, *args)

        monkeypatch.setattr(transform, "_laurent_many", away_from_1)
        assert cli.main(["verify", "--qmax", "4", "--primes", "3,5", "--alphas", "1/2,1/3"]) == 0
        assert "-- 57 checks, 0 failed --" in capsys.readouterr().out


class TestEulerEndgame:
    def test_local_values(self, monkeypatch):
        # exact, from no root of unity, Hurwitz series or pair sum
        def refused(*args):
            raise AssertionError("a root of unity, Hurwitz series or pair sum was evaluated")

        for module in (special, twist, transform):
            for name in ("roots_of_unity", "_hurwitz_series", "_pair_sums"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refused)
        for p in (2, 3, 5, 7, 11, 13):
            assert euler_factor_at_1(p) == Fraction(p, p - 1) ** 2, p
            assert solve_local_factor(euler_factor_at_1(p), p).status == "forced", p

    def test_solver_cases(self):
        forced = solve_local_factor(4, 2)
        assert forced.status == "forced"
        assert forced.factor.partial_degree == 2
        assert forced.factor.roots == (1, 1)
        infeasible = solve_local_factor(5, 2)
        assert infeasible.status == "infeasible"
        assert infeasible.factor is None
        free = solve_local_factor(2, 2)
        assert free.status == "underdetermined"
        # the comparison with the cap (1 - 1/p)^-2 is exact
        cap = Fraction(9, 4)
        assert solve_local_factor(cap, 3).status == "forced"
        for near in (cap + Fraction(1, 10 ** 40), cap - Fraction(1, 10 ** 40)):
            assert solve_local_factor(near, 3).status != "forced", near

    def test_local_factor_invariant(self):
        with pytest.raises(ValueError):
            LocalFactor(2, 1, (mp.mpf("1.5"),))
        assert LocalFactor(2, 2, (1, 1)).roots == (1, 1)
        # the closed unit disk, tested exactly on exact roots
        for root in (Fraction(1, 2), -1, GaussianRational(0, -1),
                     GaussianRational(Fraction(3, 5), Fraction(4, 5))):
            assert LocalFactor(2, 1, (root,)).roots == (root,)
        for root in (1 + Fraction(1, 10**40), Fraction(-3, 2), mp.mpf("0.5"), 0.5, "1/2",
                     GaussianRational(Fraction(3, 5), Fraction(4, 5) + Fraction(1, 10**40))):
            with pytest.raises(ValueError):
                LocalFactor(2, 1, (root,))

    @pytest.mark.parametrize("p", (4, 9, 1, 0, -3))
    def test_non_prime_rejected_before_any_twist(self, p, monkeypatch):
        # "p = 9" would read the twists by 1/9 and report a wrong value
        def no_twist(*args):
            raise AssertionError("a twist was evaluated")

        monkeypatch.setattr(euler, "leading_coefficient", no_twist)
        monkeypatch.setattr(transform, "_laurent_at_1", no_twist)
        monkeypatch.setattr(special, "_hurwitz_series", no_twist)
        with pytest.raises(ValueError, match="need a prime p"):
            euler_factor_at_1(p)

    @pytest.mark.parametrize("p", (1, 0, -3))
    def test_degree_bound_rejects_p_below_two(self, p):
        with pytest.raises(ValueError, match="p >= 2"):
            degree_bound(4, 1, p)

    @pytest.mark.parametrize("q_f", (0, Fraction(0), -1))
    def test_degree_bound_rejects_nonpositive_conductor(self, q_f):
        with pytest.raises(ValueError, match="need h >= q_F > 0"):
            degree_bound(4, q_f, 2)

    @pytest.mark.parametrize("h, q_f", [
        pytest.param(mp.mpf(8.0), 1, id="mpf-h"),
        pytest.param(4, mp.mpf(0), id="mpf-q_f"),
        pytest.param(8, 1.0, id="float-q_f"),
        pytest.param("8", 1, id="str-h"),
    ])
    def test_degree_bound_rejects_non_rationals(self, h, q_f):
        with pytest.raises(ValueError, match="h and q_F must be rationals"):
            degree_bound(h, q_f, 2)

    def test_degree_bound(self):
        for p in (2, 3, 5, 7, 11, 13):
            assert degree_bound(p * p, 1, p) == 2
        assert degree_bound(7, 7, 3) == 0
        assert degree_bound(8, 1, 2) == 3
        assert degree_bound(Fraction(9, 2), Fraction(1, 2), 3) == 2
        with pytest.raises(ValueError):
            degree_bound(1, 2, 3)


class TestGrowthCertificate:
    def test_correct_h_passes(self):
        for q, h in ((1, 1), (3, 9)):
            cert = growth_certificate(Fraction(1, q), h, t=5)
            assert isinstance(cert, GrowthCertificate)
            assert cert.passed, (q, h)
            assert abs(cert.slope) < mp.mpf("0.2")

    def test_wrong_h_fails_with_log_q_squared_slope(self):
        cert = growth_certificate(Fraction(1, 3), 1, t=5)
        assert not cert.passed
        assert abs(cert.slope - mp.log(9)) <= mp.mpf("0.2") * mp.log(9)

    @pytest.mark.parametrize("q", (1, 4))
    @pytest.mark.parametrize("sign", (1, -1))
    @pytest.mark.parametrize("sigmas", ((-10, -20, -30, -40), (-10, -11), (-40, -50),
                                        (-20, -40, -60, -80)))
    def test_correct_h_passes_at_t_max(self, q, sign, sigmas):
        # t = +-10 on the default grid; on (-10, -11) and (-40, -50) the
        # looser bound |t| <= min|sigma| admitted slopes 0.70 and 0.60
        t = sign * growth_t_max(sigmas)
        assert growth_certificate(Fraction(1, q), q * q, t=t, sigmas=sigmas).passed

    @pytest.mark.parametrize("sigmas, t, t_max", (((-10, -20, -30, -40), 20, r"10\.0"),
                                                  ((-10, -20, -30, -40), -20, r"10\.0"),
                                                  ((-10, -20, -30, -40), 10 ** 6, r"10\.0"),
                                                  ((-10, -11), 10, r"5\.244"),
                                                  ((-40, -50), -40, r"22\.36")))
    def test_rejects_t_beyond_t_max(self, sigmas, t, t_max, monkeypatch):
        # the envelope is the |sigma| >> |t| asymptotic: on the default grid
        # t = +-20 failed at the correct h (slope 0.631), and t = 1e6 gave
        # slope 21.3
        def no_twist(s, alpha):
            raise AssertionError("a twist was evaluated")

        monkeypatch.setattr(transform, "zeta2_twist_oracle", no_twist)
        with pytest.raises(ValueError, match=r"need \|t\| <= sqrt\(min\|sigma\| max\|sigma\|\)"
                                             r"/2 = " + t_max):
            growth_certificate(Fraction(1, 2), 4, t=t, sigmas=sigmas)

    def test_rejects_nonnegative_sigma(self):
        with pytest.raises(ValueError):
            growth_certificate(Fraction(1, 2), 4, sigmas=(-10, 5))

    @pytest.mark.parametrize("sigmas", ((), (-10,), (-10, -10), (-10, -10.0)))
    def test_slope_fit_needs_two_distinct_sigmas(self, sigmas, monkeypatch):
        # a single distinct sigma made the slope fit divide by zero
        def no_twist(s, alpha):
            raise AssertionError("a twist was evaluated")

        monkeypatch.setattr(transform, "zeta2_twist_oracle", no_twist)
        with pytest.raises(ValueError, match="two distinct sigmas"):
            growth_certificate(Fraction(1, 2), 4, sigmas=sigmas)

    @pytest.mark.parametrize("sigmas, rejected", (
        ((-11, -15, -25), {Fraction(1, 4), Fraction(3, 4)}),
        ((-12, -16, -26), {Fraction(1), Fraction(1, 2)}),
    ))
    def test_t_zero_passes_or_is_rejected_never_fails(self, sigmas, rejected):
        # F(-n, b/q) leads with S = q cos(2 pi b'/q) at odd n and -i q sin(2 pi b'/q)
        # at even n; where S = 0 the envelope overshoots (1/4 at odd sigma failed
        # with slope -0.637), so each b/q with q <= 12 passes at the correct h or
        # is rejected, and exactly the b/q with S = 0 are rejected
        refused = set()
        for q in range(1, 13):
            for alpha in [Fraction(b, q) for b in range(1, q + 1) if gcd(b, q) == 1]:
                try:
                    cert = growth_certificate(alpha, q * q, t=0, sigmas=sigmas)
                except ValueError as exc:
                    assert "loses its leading term" in str(exc), alpha
                    refused.add(alpha)
                    continue
                assert cert.passed, (alpha, cert.slope)
        assert refused == rejected

    @pytest.mark.parametrize("t", (0, mp.mpf("1e-4"), mp.mpf("1e-2")))
    @pytest.mark.parametrize("sigmas", ((-11, -15, -25), (-12, -16, -26)))
    def test_near_a_lost_leading_term_passes_or_is_rejected(self, sigmas, t):
        # a rule for the exact zeros of S alone let t = 1e-4 through, where
        # F(s, 1/4) on the odd grid failed at the correct h with slope -0.616
        for q in range(1, 9):
            for alpha in [Fraction(b, q) for b in range(1, q + 1) if gcd(b, q) == 1]:
                try:
                    cert = growth_certificate(alpha, q * q, t=t, sigmas=sigmas)
                except ValueError as exc:
                    assert "loses its leading term" in str(exc), alpha
                    continue
                assert cert.passed, (alpha, t, cert.slope)

    @pytest.mark.parametrize("q", (1, 4))
    def test_verdict_does_not_depend_on_grid_order(self, q):
        # the trend check compared the last sigma's trend with the first's, so
        # (-40, -30, -20, -10) failed at the correct h with the passing slopes
        orders = ((-10, -20, -30, -40), (-40, -30, -20, -10), (-30, -10, -40, -20))
        certs = [growth_certificate(Fraction(1, q), q * q, t=5, sigmas=o) for o in orders]
        assert all(cert.passed for cert in certs)
        assert len({cert.slope for cert in certs}) == 1

    @pytest.mark.parametrize("h", (0, -4, Fraction(-1, 2)))
    def test_rejects_nonpositive_h(self, h):
        # h = 0 made the envelope infinite (slope nan), h < 0 made it complex
        with pytest.raises(ValueError, match="h > 0"):
            growth_certificate(Fraction(1, 2), h)

    def test_precision_exhaustion_signal(self, monkeypatch):
        # the reflected route's stated radius certifies the digits; inputs whose
        # Z-sums cancel must be refused.  At q = 2, b = 1 the u, v sum is
        # -Z_1^2 + 2 Z_1 Z_2 + Z_2^2, which vanishes at Z_2/Z_1 = sqrt(2) - 1;
        # zeta(1-s, 1/2) = 1 - sqrt(2) and zeta(1-s, 1) = 1 give that ratio.
        from twistlab.twist import PrecisionExhaustedError

        def cancelling(s, a):
            return 1 - mp.sqrt(2) if a < 1 else mp.mpc(1)

        assert growth_certificate(Fraction(1, 2), 4, t=5, sigmas=(-10, -20)).passed
        monkeypatch.setattr(twist, "hurwitz_zeta", cancelling)
        with pytest.raises(PrecisionExhaustedError, match="stable bits"):
            growth_certificate(Fraction(1, 2), 4, t=5, sigmas=(-10, -20))
