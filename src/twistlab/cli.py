"""Command-line driver for the verification chain and table generation.

Subcommands
-----------
polys       exact coefficient tables of the transformation polynomials
            Q_0..Q_K, R_1..R_K, V_1..V_K with degree/divisibility flags
verify      the full verification chain: Laurent laws, character-twist
            holomorphy, transformation-formula polar consistency, the
            additive/multiplicative conversion identity, and growth
            certificates; exit status is nonzero when any assertion fails
euler       Euler-factor reconstruction at s=1 per prime plus the forced
            local factor and the local degree bound
twist-grid  CSV of twist values over an s-grid and a list of rational twists

verify, euler and twist-grid evaluate zeta(s)^2 only (--instance zeta2); polys
takes any degree-2 datum.

Configuration comes from an optional JSON file (--config) with the same keys
as the flags; explicit flags win.  Reports are deterministic: a fixed config
and precision yields byte-identical output.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections import namedtuple
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from pathlib import Path

from . import expansion
from .euler import degree_bound, euler_factor_at_1, is_prime, solve_local_factor
from .funceq import FunctionalEquationDatum, load_datum
from .reports import Report, nstr, write_rows_csv

# polys and euler compute in rationals: only verify and twist-grid import
# mpmath and the analytic layer (special, twist, transform), where they run.


#: RunConfig's fields and their defaults
_DEFAULTS = {"precision": 128, "instance": "zeta2", "k_terms": 8, "q_max": 4, "primes": (2, 3, 5),
             "sigma_grid": (-10, -20, -30, -40), "t": "5", "tol": "1e-8",
             "alphas": ("1/2", "1/3"), "growth_h": None, "out": None}


class RunConfig(namedtuple("RunConfig", _DEFAULTS, defaults=_DEFAULTS.values())):
    """Validated run parameters; guard rails keep runs at desk scale."""

    def __setattr__(self, name, value=None):  # frozen; cached_property writes the dict itself
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def validate(self, command: str | None = None) -> "RunConfig":
        """Check every field, and what ``command`` (a subcommand name) needs
        beyond that; raises ValueError naming the first bad value."""
        # a config file can hold any JSON value; flags arrive with these types
        for name, kind, ok in (
            ("precision", "an integer", type(self.precision) is int),
            ("k_terms", "an integer", type(self.k_terms) is int),
            ("q_max", "an integer", type(self.q_max) is int),
            ("out", "a string", self.out is None or isinstance(self.out, str)),
            # a JSON true in any of these four would parse as 1
            ("alphas", "a list of rationals",
             isinstance(self.alphas, tuple) and bool not in map(type, self.alphas)),
            ("t", "a real number", type(self.t) is not bool),
            ("tol", "a real number", type(self.tol) is not bool),
            ("growth_h", "a rational", type(self.growth_h) is not bool),
            ("primes", "a list of integers",
             isinstance(self.primes, tuple) and all(type(p) is int for p in self.primes)),
            ("sigma_grid", "a list of finite real numbers",
             isinstance(self.sigma_grid, tuple) and all(
                 type(x) is int or type(x) is float and math.isfinite(x) for x in self.sigma_grid)),
        ):
            if not ok:
                raise ValueError(f"{name} must be {kind}, got {getattr(self, name)!r}")
        if self.precision < 64:
            raise ValueError("precision must be at least 64 bits")
        if not 0 <= self.k_terms <= 16:
            raise ValueError("K must be between 0 and 16")
        if not 1 <= self.q_max <= 24:
            raise ValueError("q_max must be between 1 and 24")
        if any(p < 2 or p > 13 for p in self.primes):
            raise ValueError("primes must lie in 2..13")
        if not all(map(is_prime, self.primes)) or len(set(self.primes)) < len(self.primes):
            raise ValueError(f"primes must be distinct primes, got {list(self.primes)}")
        # the twists, the Laurent laws and the Euler factors are those of zeta(s)^2
        if command in ("verify", "euler", "twist-grid") and self.instance != "zeta2":
            raise ValueError(f"{command} evaluates zeta(s)^2 only")
        # parsed here, exactly, so a malformed value is a config error; verify
        # and twist-grid parse t and tol again at the working precision
        self.alpha_fractions, self.tolerance, self.t_value, self.growth_h_fraction  # noqa: B018
        if not _finite(self.t_value):
            raise ValueError(f"t must be finite, got {self.t!r}")
        if not (_finite(self.tolerance) and self.tolerance > 0):
            raise ValueError(f"tol must be positive and finite, got {self.tol!r}")
        if command in ("twist-grid", "verify"):  # the analytic commands
            # the phases t log n keep about precision - log2|t| bits: t^2 <= 2^precision,
            # exactly, with a Decimal's exponent read before any expansion
            t, prec = self.t_value, self.precision
            if isinstance(t, Decimal) and t and not 0 <= t.adjusted() <= prec:
                fits = t.adjusted() < 0  # |t| < 1, or |t| >= 10^precision
            else:
                fits = Fraction(t) ** 2 <= 1 << prec
            if not fits:
                raise ValueError(f"|t| must be at most 2^(precision/2) = 2^{prec / 2:g} "
                                 f"at precision {prec}, got {self.t!r}")
        if command == "verify":  # the growth certificates of verify's alphas 1/q
            import mpmath as mp

            from .transform import growth_domain

            with mp.workprec(self.precision):  # t as the certificates read it
                for q in sorted({1, self.q_max}):
                    growth_domain(Fraction(1, q), mp.mpf(self.t), self.sigma_grid)
        if self.out:
            out = Path(self.out)
            existing = next(path for path in (out, *out.parents) if path.exists())
            if not existing.is_dir():
                raise ValueError(f"out must name a directory, but {str(existing)!r} is not one")
        if command == "verify" and any(alpha <= 0 for alpha in self.alpha_fractions):
            raise ValueError(f"alphas must be positive for verify, got {self.alphas!r}")
        # twists mod q take q Hurwitz values, and verify also reads beta = -1/alpha,
        # whose denominator is alpha's numerator
        terms = "numerator and denominator" if command == "verify" else "denominator"
        for raw, alpha in zip(self.alphas, self.alpha_fractions):
            if max(alpha.denominator, alpha.numerator if command == "verify" else 0) > 1000:
                raise ValueError(f"alphas must have {terms} at most 1000, got {raw!r}; "
                                 "write a decimal such as 0.1 as the fraction 1/10")
        if self.growth_h_fraction is not None and self.growth_h_fraction <= 0:
            raise ValueError(f"growth_h must be positive, got {self.growth_h!r}")
        if command == "twist-grid" and self.t_value == 0 and 1 in self.sigma_grid:
            raise ValueError("twist-grid cannot evaluate s = 1, the double pole of zeta(s)^2")
        # a missing or malformed instance reports its own error; Q/R/V are degree 2's
        if (degree := self.datum.degree()) != 2:
            raise ValueError(f"the transformation polynomials need a degree-2 datum, got "
                             f"degree {degree}")
        return self

    @cached_property
    def datum(self) -> FunctionalEquationDatum:
        """The --instance datum, loaded once per config."""
        return load_datum(self.instance)

    @property
    def tolerance(self) -> Fraction | Decimal:
        return _parse(_exact_real, self.tol, "tol must be a real number")

    @property
    def t_value(self) -> Fraction | Decimal:
        return _parse(_exact_real, self.t, "t must be a real number")

    @property
    def growth_h_fraction(self) -> Fraction | None:
        if self.growth_h is None:
            return None
        return _parse(Fraction, self.growth_h, "growth_h must be a rational such as 9/2")

    @cached_property
    def alpha_fractions(self) -> list[Fraction]:
        return [_parse(Fraction, a, "alphas must be rationals such as 1/3") for a in self.alphas]


def _parse(kind, value, message: str):
    """kind(value), with a malformed value raised as a ValueError naming it."""
    try:
        return kind(value)
    except (ValueError, ZeroDivisionError, TypeError):
        raise ValueError(f"{message}, got {value!r}") from None


def _exact_real(value) -> Fraction | Decimal:
    """The real number mp.mpf reads from ``value`` (a float literal or 'p/q'),
    exactly: a literal's exponent stays an exponent, never 10^e in full."""
    if isinstance(value, str) and "/" in value:
        p, q = value.split("/")
        return Fraction(int(p), int(q))
    if isinstance(value, str):
        float(value)  # mp.mpf's syntax, a Python float literal
    return Decimal(value)


def _finite(x: Fraction | Decimal) -> bool:
    return not isinstance(x, Decimal) or x.is_finite()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistlab",
        description=__doc__,
        epilog=(
            "CSV artifacts written under --out:\n"
            "  polynomials.csv   family,index,degree,pretty,coefficients,checks_pass\n"
            "  euler_factors.csv prime,value_re,value_im,status,degree_bound\n"
            "  twist_grid.csv    sigma,t,alpha,re,im,method\n"
            "  *_report.csv      name,claim,measured,target,status\n"
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--config", help="JSON config file; flags override its keys")
    parser.add_argument("--precision", type=int, help="working precision in bits (>= 64)")
    parser.add_argument(
        "--instance",
        help="functional-equation instance: 'zeta2' or a JSON datum path "
        "(polys: any degree-2 datum; verify, euler and twist-grid take zeta2 only)",
    )
    parser.add_argument("--K", dest="k_terms", type=int, help="truncation order (<= 16)")
    parser.add_argument("--qmax", dest="q_max", type=int, help="largest twist denominator (<= 24)")
    parser.add_argument(
        "--primes", help="comma-separated distinct primes in 2..13 for the local-factor sections"
    )
    parser.add_argument(
        "--sigma-grid",
        dest="sigma_grid",
        help="comma-separated real parts for growth/twist grids (e.g. -10,-20)",
    )
    parser.add_argument("--t", help="imaginary part used on grids")
    parser.add_argument("--tol", help="target of the alpha/beta law, polar-consistency, "
                        "conversion-identity and F_p(1) records (default 1e-8); the others "
                        "are fixed: character twists 1e-15, alpha=1 K=0 1e-12, agreement 1e-10")
    parser.add_argument(
        "--alphas", help="comma-separated rational twists (e.g. 1/2,1/3,2/3)"
    )
    parser.add_argument(
        "--growth-h",
        dest="growth_h",
        help="override the growth-certificate h > 0 (sensitivity runs; default q^2)",
    )
    parser.add_argument("--out", help="directory for report/CSV artifacts")
    parser.add_argument(
        "command",
        choices=["polys", "verify", "euler", "twist-grid"],
        help="which artifact to produce",
    )
    return parser


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        import json

        data = json.loads(Path(args.config).read_text())
        if not isinstance(data, dict):
            raise ValueError(f"the config file must hold a JSON object, got {data!r}")
        unknown = set(data) - set(RunConfig._fields)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key in ("primes", "sigma_grid", "alphas"):
            if key in data and isinstance(data[key], list):
                data[key] = tuple(data[key])
        cfg = cfg._replace(**data)
    overrides = {}
    for name in ("precision", "instance", "k_terms", "q_max", "t", "tol", "growth_h", "out"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    if args.primes is not None:
        overrides["primes"] = tuple(int(p) for p in str(args.primes).split(","))
    if args.sigma_grid is not None:
        overrides["sigma_grid"] = tuple(
            int(x) if x.is_integer() else x for x in map(float, str(args.sigma_grid).split(","))
        )
    if args.alphas is not None:
        overrides["alphas"] = tuple(str(args.alphas).split(","))
    return cfg._replace(**overrides).validate(args.command)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_polys(cfg: RunConfig) -> int:
    datum = cfg.datum
    report = Report(f"transformation polynomials (instance={cfg.instance}, K={cfg.k_terms})")
    rows = []
    m = datum.pole_order
    for family, index, degree, pretty, coeffs in expansion.polynomial_table(
        datum, cfg.k_terms
    ):
        want = {"Q": 2 * index, "R": index + 1, "V": 2 * index}[family]
        degree_ok = degree == want if (family != "Q" or index > 0) else degree == 0
        checks = [f"degree {degree} (expected {want}): {'PASS' if degree_ok else 'FAIL'}"]
        passed = degree_ok
        if family == "Q" and index >= 1 and m > 0:
            # the remainder of Q mod (s + index - 1)^m is the part of
            # Q(x + 1 - index) below x^m: divisible iff those rows are zero
            shifted = expansion.q_taylor(datum, index, 1 - index)
            divisible = not any(shifted.re[:m]) and not any(shifted.im[:m])
            checks.append(
                f"divisible by (s{index - 1:+d})^{m}: {'PASS' if divisible else 'FAIL'}"
            )
            passed = passed and divisible
        report.add(
            f"{family}_{index}",
            "; ".join(checks),
            pretty,
            f"degree {want}",
            passed,
        )
        rows.append((family, index, degree, pretty, " ".join(coeffs), passed))
    _emit(cfg, report, "polys")
    if cfg.out:
        write_rows_csv(
            Path(cfg.out) / "polynomials.csv",
            ["family", "index", "degree", "pretty", "coefficients", "checks_pass"],
            rows,
        )
    return 0 if report.passed else 1


def cmd_verify(cfg: RunConfig) -> int:
    import mpmath as mp

    from . import transform, twist
    tol = mp.mpf(cfg.tol)
    report = Report(
        f"verification chain (instance={cfg.instance}, precision={cfg.precision}, "
        f"qmax={cfg.q_max}, K={cfg.k_terms})"
    )

    table = transform.twist_laurent_table(cfg.q_max)
    report.extend(transform.verify_alpha_law(table, tol=tol))
    report.extend(transform.verify_beta_law(table, tol=tol))

    odd = [p for p in cfg.primes if p % 2 == 1]
    for p in odd:
        report.extend(transform.verify_chi_holomorphy(p))

    for polar in transform.transformation_polar_reports(cfg.alpha_fractions, cfg.k_terms, tol):
        report.extend(polar)
    report.extend(transform.identity_reduction_check())
    bad = twist.half_twist_coefficient_identity(10_000)
    report.add(
        "half-twist coefficients (p=2)",
        "conversion identity holds coefficientwise as exact integers",
        f"{len(bad)} mismatches",
        "0 mismatches",
        not bad,
    )
    checks = twist.additive_from_mult_identity_check(mp.mpc(3), 1, odd, n_max=20_000)
    for p, check in zip(odd, checks):  # one pass over the coefficients serves every prime
        report.add_bound(
            f"conversion identity (p={p}, s=3)",
            "additive twist reassembles from the multiplicative ones",
            check.difference,
            tol,
        )

    t, h_override = mp.mpf(cfg.t), cfg.growth_h_fraction
    for q in sorted({1, cfg.q_max}):
        h = Fraction(q * q) if h_override is None else h_override
        cert = transform.growth_certificate(
            Fraction(1, q), h, t=t, sigmas=cfg.sigma_grid
        )
        report.add(
            f"growth certificate (q={q}, h={h})",
            f"left-half-plane envelope with slope {mp.nstr(cert.slope, 5)}, "
            f"C*={mp.nstr(cert.c_star, 5)}",
            f"slope {mp.nstr(cert.slope, 5)}",
            f"slope within {mp.nstr(transform.SLOPE_TOL, 3)} of 0",
            cert.passed,
        )

    _emit(cfg, report, "verify")
    return 0 if report.passed else 1


def cmd_euler(cfg: RunConfig) -> int:
    tol = cfg.tolerance
    report = Report(f"Euler-factor reconstruction (primes={list(cfg.primes)})")
    rows = []
    for p in cfg.primes:
        value = euler_factor_at_1(p)
        solution = solve_local_factor(value, p)
        bound = degree_bound(p * p, 1, p)
        report.add_bound(
            f"F_{p}(1)", "reconstructed local value equals (1-1/p)^-2",
            abs(value - Fraction(p, p - 1) ** 2), tol, cfg.precision
        )
        report.add(
            f"local factor at {p}",
            solution.detail,
            solution.status,
            "forced",
            solution.status == "forced"
            and solution.factor.roots == (1,) * solution.factor.partial_degree,
        )
        report.add(
            f"degree bound at {p}",
            "partial degree bounded by log(p^2)/log(p)",
            str(bound),
            "2",
            bound == 2,
        )
        rows.append((p, nstr(value, 20, cfg.precision), nstr(0, 20), solution.status, bound))
    _emit(cfg, report, "euler")
    if cfg.out:
        write_rows_csv(
            Path(cfg.out) / "euler_factors.csv",
            ["prime", "value_re", "value_im", "status", "degree_bound"],
            rows,
        )
    return 0 if report.passed else 1


def cmd_twist_grid(cfg: RunConfig) -> int:
    import mpmath as mp

    from . import twist
    t = mp.mpf(cfg.t)
    s_values = [mp.mpc(sigma, t) for sigma in cfg.sigma_grid]
    rows = twist.twist_grid_rows(s_values, cfg.alpha_fractions)
    header = ["sigma", "t", "alpha", "re", "im", "method"]
    if cfg.out:
        write_rows_csv(Path(cfg.out) / "twist_grid.csv", header, rows)
    print(",".join(header))
    for row in rows:
        print(",".join(str(x) for x in row))
    return 0


def _emit(cfg: RunConfig, report: Report, stem: str) -> None:
    text = report.render_text()
    print(text, end="")
    if cfg.out:
        out = Path(cfg.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{stem}_report.txt").write_text(text)
        report.write_csv(out / f"{stem}_report.csv")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    commands = {"polys": cmd_polys, "verify": cmd_verify, "euler": cmd_euler,
                "twist-grid": cmd_twist_grid}
    if args.command in ("polys", "euler"):  # exact: no working precision
        return commands[args.command](cfg)
    import mpmath as mp

    from .twist import PrecisionExhaustedError
    with mp.workprec(cfg.precision):
        try:
            return commands[args.command](cfg)
        except PrecisionExhaustedError as exc:
            print(f"precision error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
