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

Configuration comes from an optional JSON file (--config) with the same keys
as the flags; explicit flags win.  Reports are deterministic: a fixed config
and precision yields byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import mpmath as mp

from . import expansion, transform, twist
from .exactpoly import Polynomial
from .funceq import FunctionalEquationDatum, load_datum
from .reports import Report, write_rows_csv


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters; guard rails keep runs at desk scale."""

    precision: int = 128
    instance: str = "zeta2"
    k_terms: int = 8
    q_max: int = 4
    primes: tuple = (2, 3, 5)
    sigma_grid: tuple = (-10, -20, -30, -40)
    t: str = "5"
    tol: str = "1e-8"
    alphas: tuple = ("1/2", "1/3")
    growth_h: str | None = None
    out: str | None = None

    def validate(self) -> "RunConfig":
        if self.precision < 64:
            raise ValueError("precision must be at least 64 bits")
        if not 0 <= self.k_terms <= 16:
            raise ValueError("K must be between 0 and 16")
        if not 1 <= self.q_max <= 24:
            raise ValueError("q_max must be between 1 and 24")
        if any(p < 2 or p > 13 for p in self.primes):
            raise ValueError("primes must lie in 2..13")
        return self

    @cached_property
    def datum(self) -> FunctionalEquationDatum:
        """The --instance datum, loaded once per config."""
        return load_datum(self.instance)

    @property
    def tolerance(self) -> mp.mpf:
        return mp.mpf(self.tol)

    @property
    def alpha_fractions(self) -> list[Fraction]:
        return [Fraction(a) for a in self.alphas]


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
        help="functional-equation instance: 'zeta2' or a JSON datum path",
    )
    parser.add_argument("--K", dest="k_terms", type=int, help="truncation order (<= 16)")
    parser.add_argument("--qmax", dest="q_max", type=int, help="largest twist denominator (<= 24)")
    parser.add_argument(
        "--primes", help="comma-separated primes for the local-factor sections"
    )
    parser.add_argument(
        "--sigma-grid",
        dest="sigma_grid",
        help="comma-separated real parts for growth/twist grids (e.g. -10,-20)",
    )
    parser.add_argument("--t", help="imaginary part used on grids")
    parser.add_argument("--tol", help="numeric tolerance for the PASS/FAIL records")
    parser.add_argument(
        "--alphas", help="comma-separated rational twists (e.g. 1/2,1/3,2/3)"
    )
    parser.add_argument(
        "--growth-h",
        dest="growth_h",
        help="override the growth-certificate h (sensitivity runs; default q^2)",
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
        data = json.loads(Path(args.config).read_text())
        known = {f.name for f in fields(RunConfig)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key in ("primes", "sigma_grid", "alphas"):
            if key in data and isinstance(data[key], list):
                data[key] = tuple(data[key])
        cfg = replace(cfg, **data)
    overrides = {}
    for name in ("precision", "instance", "k_terms", "q_max", "t", "tol", "growth_h", "out"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    if args.primes is not None:
        overrides["primes"] = tuple(int(p) for p in str(args.primes).split(","))
    if args.sigma_grid is not None:
        overrides["sigma_grid"] = tuple(
            int(x) if float(x) == int(float(x)) else float(x)
            for x in str(args.sigma_grid).split(",")
        )
    if args.alphas is not None:
        overrides["alphas"] = tuple(str(args.alphas).split(","))
    return replace(cfg, **overrides).validate()


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
            divisor = Polynomial((index - 1, 1)) ** m
            divisible = expansion.q_poly(datum, index).divides_exactly(divisor)
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
    datum = cfg.datum
    tol = cfg.tolerance
    report = Report(
        f"verification chain (instance={cfg.instance}, precision={cfg.precision}, "
        f"qmax={cfg.q_max}, K={cfg.k_terms})"
    )

    table = transform.twist_laurent_table(cfg.q_max)
    report.extend(transform.verify_alpha_law(datum, cfg.q_max, tol=tol, table=table))
    report.extend(transform.verify_beta_law(datum, cfg.q_max, tol=tol, table=table))

    for p in cfg.primes:
        if p % 2 == 1:
            report.extend(transform.verify_chi_holomorphy(p))

    for alpha in cfg.alpha_fractions:
        report.extend(
            transform.transformation_polar_consistency(datum, alpha, cfg.k_terms, tol=tol)
        )
    report.extend(transform.identity_reduction_check(datum))

    stream = twist.divisor_stream()
    bad = twist.half_twist_coefficient_identity(stream, 10_000)
    report.add(
        "half-twist coefficients (p=2)",
        "conversion identity holds coefficientwise as exact integers",
        f"{len(bad)} mismatches",
        "0 mismatches",
        not bad,
    )
    for p in cfg.primes:
        if p % 2 == 1:
            check = twist.additive_from_mult_identity_check(
                stream, mp.mpc(3), 1, p, n_max=20_000
            )
            report.add(
                f"conversion identity (p={p}, s=3)",
                "additive twist reassembles from the multiplicative ones",
                mp.nstr(check.difference, 6),
                f"<= {mp.nstr(tol, 3)}",
                check.difference <= tol,
            )

    t = mp.mpf(cfg.t)
    for q in sorted({1, cfg.q_max}):
        h = Fraction(cfg.growth_h) if cfg.growth_h else Fraction(q * q)
        cert = transform.growth_certificate(
            Fraction(1, q), h, t=t, sigmas=cfg.sigma_grid
        )
        report.add(
            f"growth certificate (q={q}, h={h})",
            f"left-half-plane envelope with slope {mp.nstr(cert.slope, 5)}, "
            f"C*={mp.nstr(cert.c_star, 5)}",
            f"slope {mp.nstr(cert.slope, 5)}",
            "slope within 0.5 of 0",
            cert.passed,
        )

    _emit(cfg, report, "verify")
    return 0 if report.passed else 1


def cmd_euler(cfg: RunConfig) -> int:
    datum = cfg.datum
    tol = cfg.tolerance
    report = Report(f"Euler-factor reconstruction (primes={list(cfg.primes)})")
    rows = []
    for p in cfg.primes:
        value = transform.euler_factor_at_1(datum, p)
        target = (1 - mp.mpf(1) / p) ** -2
        solution = transform.solve_local_factor(value, p, tol=tol)
        bound = transform.degree_bound(p * p, 1, p)
        report.add(
            f"F_{p}(1)",
            "reconstructed local value equals (1-1/p)^-2",
            mp.nstr(abs(value - target), 6),
            f"<= {mp.nstr(tol, 3)}",
            abs(value - target) <= tol,
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
        rows.append(
            (
                p,
                mp.nstr(mp.re(value), 20),
                mp.nstr(mp.im(value), 20),
                solution.status,
                bound,
            )
        )
    _emit(cfg, report, "euler")
    if cfg.out:
        write_rows_csv(
            Path(cfg.out) / "euler_factors.csv",
            ["prime", "value_re", "value_im", "status", "degree_bound"],
            rows,
        )
    return 0 if report.passed else 1


def cmd_twist_grid(cfg: RunConfig) -> int:
    stream = twist.divisor_stream()
    sigmas = cfg.sigma_grid
    t = mp.mpf(cfg.t)
    s_values = [mp.mpc(sigma, t) for sigma in sigmas]
    rows = twist.twist_grid_rows(stream, s_values, cfg.alpha_fractions)
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
        if args.command != "twist-grid":
            # a missing, malformed or invalid instance is a config error too
            cfg.datum  # noqa: B018
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    with mp.workprec(cfg.precision):
        if args.command == "polys":
            return cmd_polys(cfg)
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "euler":
            return cmd_euler(cfg)
        if args.command == "twist-grid":
            return cmd_twist_grid(cfg)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
