"""The benchmark's workloads: CLI arguments drawn from a seed, and the checks
that hold each invocation's output to what the seed commit printed.

A seed may only choose inputs that leave the work unchanged (an argument
order, or the numerator of a fixed denominator); the traced counts of two
seeds confirm it.  Every workload is a closed loop: one invocation at a
time, each in a fresh interpreter, because users pay the cold lru_cache
builds and the divisor sieve on every invocation.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from itertools import permutations
from pathlib import Path
from typing import Callable

REFERENCE = Path(__file__).resolve().parent / "reference"
RECORD = re.compile(r"^\[(PASS|FAIL)\] (.*?)\s+measured=")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argv: Callable[[int], list]
    #: argv -> whatever ``check`` needs; runs before any timing
    expect: Callable[[list], object]
    #: (captured stdout, expectation) -> (checks attempted, checks failed)
    check: Callable[[str, object], tuple]


def _records(text: str) -> list[tuple[str, str]]:
    return [m.groups() for m in map(RECORD.match, text.splitlines()) if m]


# -- polys: the exact coefficient table must equal the seed's, line by line --

def _polys_expect(argv):
    return [line for line in (REFERENCE / "polys.txt").read_text().splitlines()
            if line.startswith("[")]


def _polys_check(stdout, golden):
    lines = [line for line in stdout.splitlines() if line.startswith("[")]
    failed = sum(i >= len(lines) or lines[i] != want for i, want in enumerate(golden))
    return len(golden), failed


# -- verify / euler: the seed's checks, no more and no fewer, all passing --

def _names_expect(stem):
    def expect(argv):
        return Counter(name for _, name in _records((REFERENCE / stem).read_text()))
    return expect


def _names_check(stdout, golden):
    records = _records(stdout)
    passed = Counter(name for status, name in records if status == "PASS")
    # a record the seed did not print counts as one more check, failed
    extra = sum((Counter(name for _, name in records) - golden).values())
    failed = sum(max(0, n - passed[name]) for name, n in golden.items())
    return sum(golden.values()) + extra, failed + extra


# -- grid: values against the oracle within the tail budget and against the seed --

def _grid_expect(argv):
    from fractions import Fraction

    import mpmath as mp
    from twistlab.twist import divisor_stream, zeta2_twist_oracle

    seed_rows = {}
    for line in (REFERENCE / "grid.csv").read_text().splitlines()[1:]:
        sigma, t, alpha, re_, im_, _ = line.split(",")
        seed_rows[(sigma, alpha)] = (re_, im_)
    sigmas = argv[argv.index("--sigma-grid") + 1].split(",")
    alphas = argv[argv.index("--alphas") + 1].split(",")
    expected = {}
    with mp.workprec(128):
        stream = divisor_stream(shared=False)
        for sigma in sigmas:
            s = mp.mpc(sigma, argv[argv.index("--t") + 1])
            budget = 1.5 * stream.tail_bound(100_000, mp.re(s)) + mp.mpf("1e-12")
            for alpha in alphas:
                key = (str(mp.mpf(sigma)), alpha)
                oracle = zeta2_twist_oracle(s, Fraction(alpha))
                expected[key] = (oracle, budget, mp.mpc(*seed_rows[key]))
    return expected


def _grid_check(stdout, expected):
    import mpmath as mp

    rows = {}
    for line in stdout.splitlines()[1:]:
        sigma, t, alpha, re_, im_, method = line.split(",")
        rows[(sigma, alpha)] = (re_, im_, method)
    failed = 0
    with mp.workprec(128):
        for key, (oracle, budget, seed_value) in expected.items():
            if key not in rows or rows[key][2] != "direct":
                failed += 2
                continue
            value = mp.mpc(rows[key][0], rows[key][1])
            failed += abs(value - oracle) > budget
            failed += abs(value - seed_value) > mp.mpf("1e-20")
    return 2 * len(expected), failed


def _grid_argv(seed):
    alphas = ["1/2", f"{1 + seed % 2}/3"]
    sigmas = ["2", "3"]
    if seed // 2 % 2:
        alphas.reverse()
    if seed // 4 % 2:
        sigmas.reverse()
    return ["twist-grid", "--sigma-grid", ",".join(sigmas), "--t", "0",
            "--alphas", ",".join(alphas)]


def _verify_argv(seed):
    primes, alphas = ["3", "5"], ["1/2", "1/3"]
    if seed % 2:
        primes.reverse()
    if seed // 2 % 2:
        alphas.reverse()
    return ["verify", "--qmax", "4", "--primes", ",".join(primes),
            "--alphas", ",".join(alphas)]


def _euler_argv(seed):
    order = list(permutations(["2", "3", "5"]))[seed % 6]
    return ["euler", "--primes", ",".join(order)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "polys",
            "exact layer only: Q/R/V polynomials up to K=16, ~99% of the work in "
            "expansion, nothing numeric runs",
            lambda seed: ["polys", "--K", "16"],
            _polys_expect,
            _polys_check,
        ),
        Workload(
            "grid",
            "series layer only: four 1e5-term direct divisor sums, two alphas per "
            "s, ~100% in twist_direct",
            _grid_argv,
            _grid_expect,
            _grid_check,
        ),
        Workload(
            "verify",
            "full chain (README example): Hurwitz values ~80% of the work, one "
            "set shared by every numerator of each q",
            _verify_argv,
            _names_expect("verify.txt"),
            _names_check,
        ),
        Workload(
            "euler",
            "same analytic layer with one numerator per denominator: nothing to "
            "batch, catches slower single oracle calls",
            _euler_argv,
            _names_expect("euler.txt"),
            _names_check,
        ),
    )
}


#: Which end-to-end metric each per-layer metric should move, on which
#: workloads; written down before any change that claims a gain.
PREDICTIONS = [
    {"per_layer": ["expansion.v_poly.self_s", "expansion.v_poly.calls",
                   "expansion.a_coeff.self_s", "expansion.r_poly.self_s",
                   "expansion.q_poly.self_s"],
     "moves": ["wall_s"], "workloads": ["polys", "verify (under 2%)"]},
    {"per_layer": ["expansion.q_poly.cache_hit_ratio", "expansion.v_poly.cache_hit_ratio",
                   "expansion.r_poly.cache_hit_ratio"],
     "moves": ["wall_s"], "workloads": ["polys", "verify"]},
    {"per_layer": ["exactpoly.Polynomial.mul.calls", "exactpoly.GaussianRational.mul.calls"],
     "moves": ["wall_s"], "workloads": ["polys"]},
    {"per_layer": ["twist.twist_direct.calls", "twist.twist_direct.self_s",
                   "twist.twist_direct.terms", "twist.twist_direct.terms_per_s"],
     "moves": ["wall_s"], "workloads": ["grid"]},
    {"per_layer": ["twist.DivisorStream.ensure.self_s"],
     "moves": ["wall_s", "peak_rss_mb"], "workloads": ["grid", "verify"]},
    {"per_layer": ["twist.additive_from_mult_identity_check.self_s",
                   "twist.half_twist_coefficient_identity.self_s"],
     "moves": ["wall_s"], "workloads": ["verify"]},
    {"per_layer": ["special.hurwitz_zeta.calls", "special.hurwitz_zeta.self_s",
                   "special.hurwitz_zeta.distinct_ratio"],
     "moves": ["wall_s"], "workloads": ["verify", "euler"]},
    {"per_layer": ["twist.zeta2_twist_oracle.calls", "twist.zeta2_twist_oracle.self_s",
                   "twist.zeta2_twist_oracle.distinct_ratio", "twist.zeta2_twist_batch.calls",
                   "twist.zeta2_twist_batch.self_s", "special.unit_phase.calls"],
     "moves": ["wall_s"], "workloads": ["verify", "euler"]},
    {"per_layer": ["special.dirichlet_l.calls", "special.dirichlet_l.self_s",
                   "special.gauss_sum.calls"],
     "moves": ["wall_s"], "workloads": ["verify"]},
    {"per_layer": ["transform.laurent_extract.calls", "transform.laurent_extract.self_s",
                   "transform.laurent_extract.samples"],
     "moves": ["wall_s"], "workloads": ["verify", "euler"]},
    {"per_layer": ["transform.transformation_main_term.calls",
                   "transform.transformation_main_term.self_s",
                   "transform.contour_integral.self_s"],
     "moves": ["wall_s"], "workloads": ["verify"]},
    {"per_layer": ["transform.twist_laurent_table.total_s",
                   "transform.transformation_polar_consistency.total_s",
                   "transform.verify_chi_holomorphy.total_s",
                   "transform.growth_certificate.total_s",
                   "transform.identity_reduction_check.total_s",
                   "transform.euler_factor_at_1.total_s"],
     "moves": ["wall_s"], "workloads": ["verify", "euler"]},
    {"per_layer": ["funceq.load_datum.total_s", "bernoulli.default_table.total_s",
                   "reports.Report.render_text.self_s", "cli.command.self_s"],
     "moves": ["wall_s"], "workloads": ["polys", "grid", "verify", "euler"]},
    {"per_layer": ["trace.overhead_ratio"], "moves": [],
     "workloads": ["polys", "grid", "verify", "euler"]},
]
