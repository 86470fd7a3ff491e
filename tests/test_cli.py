import json
import os
import re
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest

from twistlab import special, transform, twist
from twistlab.cli import RunConfig, main
from twistlab.twist import PrecisionExhaustedError


ZETA2 = {"Q": "pi^-1", "omega": "1", "factors": [{"lambda": "1/2"}, {"lambda": "1/2"}],
         "pole_order": 2}
# polys reads an --instance datum; the other commands reject any path unread
ZETA2_ONLY = "config error: {} evaluates zeta(s)^2 only\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestRunConfig:
    def test_guard_rails(self):
        with pytest.raises(ValueError):
            RunConfig(precision=32).validate()
        with pytest.raises(ValueError):
            RunConfig(q_max=25).validate()
        with pytest.raises(ValueError):
            RunConfig(k_terms=17).validate()
        with pytest.raises(ValueError):
            RunConfig(primes=(17,)).validate()
        with pytest.raises(ValueError):
            RunConfig(alphas=("1/0",)).validate()
        with pytest.raises(ValueError, match="tol must be a real number, got True"):
            RunConfig(tol=True).validate()  # validated with tolerance 1
        assert RunConfig().validate() is not None


class TestPolys:
    def test_k_zero_single_row(self, capsys):
        code, out = run_cli(capsys, "--K", "0", "polys")
        assert code == 0
        assert "Q_0" in out and "R_1" not in out

    def test_k_one_contains_q1(self, capsys):
        code, out = run_cli(capsys, "--K", "1", "polys")
        assert code == 0
        assert "-s^2" in out
        assert "divisible by (s+0)^2: PASS" in out

    def test_k_eight_all_pass(self, capsys):
        code, out = run_cli(capsys, "--K", "8", "polys")
        assert code == 0
        assert out.count("FAIL") == 0
        assert "Q_8" in out

    def test_k_sixteen_matches_reference_table(self, capsys):
        # the benchmark's reference table, printed by the partition-sum build
        reference = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "polys.txt"
        want = [line for line in reference.read_text().splitlines() if line.startswith("[")]
        code, out = run_cli(capsys, "--K", "16", "polys")
        assert code == 0
        assert [line for line in out.splitlines() if line.startswith("[")] == want

    def test_csv_artifact(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "--K", "2", "--out", str(tmp_path), "polys")
        assert code == 0
        header = (tmp_path / "polynomials.csv").read_text().splitlines()[0]
        assert header == "family,index,degree,pretty,coefficients,checks_pass"
        assert (tmp_path / "polys_report.txt").exists()


class TestVerify:
    def test_qmax_one_trivial_pass(self, capsys):
        code, out = run_cli(
            capsys, "--qmax", "1", "--primes", "3", "--alphas", "1/2", "--K", "4",
            "verify",
        )
        assert code == 0
        assert "FAIL" not in out
        assert "alpha(a/q=1/1)" in out

    def test_sabotaged_growth_fails(self, capsys):
        code, out = run_cli(
            capsys, "--qmax", "2", "--primes", "3", "--alphas", "1/2", "--K", "4",
            "--growth-h", "1", "verify",
        )
        assert code == 1
        assert "[FAIL] growth certificate (q=2, h=1)" in out

    def test_deterministic_reports(self, capsys, tmp_path):
        argv = ["--qmax", "1", "--primes", "3", "--alphas", "1/2", "--K", "4", "verify"]
        code_a, out_a = run_cli(capsys, *argv, "--out", str(tmp_path / "a"))
        code_b, out_b = run_cli(capsys, *argv, "--out", str(tmp_path / "b"))
        assert code_a == code_b == 0
        assert out_a == out_b
        assert (tmp_path / "a" / "verify_report.txt").read_bytes() == (
            tmp_path / "b" / "verify_report.txt"
        ).read_bytes()


class TestEuler:
    def test_default_primes(self, capsys, tmp_path):
        code, out = run_cli(capsys, "--out", str(tmp_path), "euler")
        assert code == 0
        for p in (2, 3, 5):
            assert f"F_{p}(1)" in out
        lines = (tmp_path / "euler_factors.csv").read_text().splitlines()
        assert lines[0] == "prime,value_re,value_im,status,degree_bound"
        assert len(lines) == 4
        assert all(line.endswith(",forced,2") for line in lines[1:])

    def test_reads_no_hurwitz_series(self, capsys, monkeypatch):
        # F_p(1) reads c_-2 alone, an integer count of roots of unity
        def built(*args):
            raise AssertionError("a Hurwitz series was built")

        monkeypatch.setattr(special, "_hurwitz_series", built)
        code, out = run_cli(capsys, "euler", "--primes", "2,3,5,7,11,13")
        assert code == 0 and "FAIL" not in out


class TestTwistGrid:
    def test_grid_csv(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, "--sigma-grid", "3", "--t", "0", "--alphas", "1/2,1/3",
            "--out", str(tmp_path), "twist-grid",
        )
        assert code == 0
        lines = (tmp_path / "twist_grid.csv").read_text().splitlines()
        assert lines[0] == "sigma,t,alpha,re,im,method"
        assert len(lines) == 3
        assert out.splitlines()[0] == "sigma,t,alpha,re,im,method"

    @pytest.mark.parametrize("instance", ["missing.json", "datum.json"])
    def test_other_instance_is_config_error(self, capsys, tmp_path, instance):
        (tmp_path / "datum.json").write_text(json.dumps({"Q": "pi^-1"}))
        code = main(["--instance", str(tmp_path / instance), "twist-grid"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == "config error: twist-grid evaluates zeta(s)^2 only\n"

    def test_huge_sigma_finishes_with_the_first_term(self, checkout_env):
        # at sigma = 1e300 every term past n = 1 rounds to exactly 0, which
        # leaves d(1) e(-1/2) = -1; a fresh interpreter, so a hang times out
        result = subprocess.run(
            [sys.executable, "-m", "twistlab.cli", "--sigma-grid", "1e300", "--t", "0",
             "--alphas", "1/2", "twist-grid"],
            capture_output=True, text=True, timeout=5, env=checkout_env, check=True,
        )
        sigma, _, alpha, re_, im_, method = result.stdout.splitlines()[1].split(",")
        row = (float(sigma), alpha, float(re_), float(im_), method)
        assert row == (1e300, "1/2", -1, 0, "direct")

    @pytest.mark.parametrize("grid", ["1", "2,1.0"])
    def test_pole_at_s_one_is_config_error(self, capsys, grid):
        code = main([f"--sigma-grid={grid}", "--t", "0", "--alphas", "1/2", "twist-grid"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == "config error: twist-grid cannot evaluate s = 1, the double pole of zeta(s)^2\n"

    def test_t_within_the_precision_runs(self, capsys):
        # |t| <= 2^(precision/2): 1e19 < 2^64 runs at 128 bits, and 1e40 at 288
        for argv in (("--t", "1e19"), ("--t", "1e40", "--precision", "288")):
            code, out = run_cli(capsys, *argv, "--sigma-grid", "2", "--alphas", "1/2",
                                "twist-grid")
            assert code == 0 and out.count("\n") == 2 and out.endswith(",direct\n"), argv

    # 2^64 = 18446744073709551616 and 2^64.5 = 26087635650665564424.7
    @pytest.mark.parametrize("precision, inside, above", [
        (128, "18446744073709551616", "18446744073709551617"),
        (128, "-1.8446744073709551616e19", "1.8446744073709551617e19"),
        (128, "36893488147419103232/2", "36893488147419103233/2"),
        (129, "26087635650665564424", "26087635650665564425"),
        (129, "-2.6087635650665564424e19", "-2.6087635650665564425e19")])
    def test_t_bound_is_exact(self, capsys, precision, inside, above):
        # at 53 bits 2^64 + 1 rounds to 2^64
        RunConfig(precision=precision, t=inside).validate("twist-grid")
        code = main(["--precision", str(precision), "--sigma-grid", "2", f"--t={above}",
                     "--alphas", "1/2", "twist-grid"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == (f"config error: |t| must be at most 2^(precision/2) = 2^{precision / 2:g} "
                       f"at precision {precision}, got '{above}'\n")

    def test_t_bound_expands_no_exponent(self, capsys, checkout_env):
        for t in ("0e999999999", "1e-40000000"):
            RunConfig(t=t).validate("twist-grid")
        result = subprocess.run(
            [sys.executable, "-m", "twistlab.cli", "--t", "1e999999999", "twist-grid"],
            capture_output=True, text=True, env=checkout_env, timeout=10)
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr.startswith("config error: |t| must be at most 2^(precision/2)")

    def test_sigma_one_off_the_real_axis_runs(self, capsys):
        code, out = run_cli(capsys, "--sigma-grid", "1", "--t", "2", "--alphas", "1/2", "twist-grid")
        assert code == 0
        assert out.splitlines()[1].endswith(",oracle")

    def test_value_without_stable_bits_is_an_error(self, capsys):
        # F(s, 1/2) vanishes at s = -2, so near it 64 bits certify fewer than 16
        # bits of the value; 128 bits certify it
        argv = ["--sigma-grid=-2", "--t", "1e-10", "--alphas", "1/2", "twist-grid"]
        code = main(["--precision", "64", *argv])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("precision error: ") and "stable bits" in err
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert out.splitlines()[1].split(",")[3] == "1.576084513302592286907829e-22"

    @pytest.mark.parametrize("sigma, alphas", [(-2, "1/2"), (-4, "1"), (-6, "1,3/2")])
    def test_trivial_zero_prints_exact_zero(self, capsys, sigma, alphas):
        for precision in ("64", "128"):
            code, out = run_cli(capsys, "--precision", precision, f"--sigma-grid={sigma}",
                                "--t", "0", "--alphas", alphas, "twist-grid")
            rows = out.splitlines()[1:]
            assert code == 0 and len(rows) == alphas.count(",") + 1
            assert all(row.endswith(",0.0,0.0,oracle") for row in rows), rows

    def test_help_says_zeta2_only(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "zeta(s)^2 only" in capsys.readouterr().out


class TestBadAlphas:
    @pytest.mark.parametrize("command", ["twist-grid", "verify"])
    @pytest.mark.parametrize("alphas", ["1/0", "abc", "1/2,,1/3"])
    def test_bad_alpha_is_config_error(self, capsys, command, alphas):
        code = main(["--alphas", alphas, command])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("config error: alphas must be rationals")

    @pytest.mark.parametrize("alphas", ["0", "-1/2", "1/2,-1/3"])
    def test_nonpositive_alpha_is_config_error_for_verify(self, capsys, alphas):
        # rejected before the Laurent table or any other check runs
        code = main([f"--alphas={alphas}", "verify"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("config error: alphas must be positive for verify")

    def test_non_string_alpha_in_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"alphas": ["1/2", None]}))
        code = main(["--config", str(cfg), "twist-grid"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("config error: alphas must be rationals")


def test_alpha_denominators_up_to_1000_run(capsys):
    # only verify reads beta = -1/alpha, whose denominator is alpha's numerator
    code, out = run_cli(capsys, "--sigma-grid", "2", "--t", "0", "--alphas", "1/1000,1001/2",
                        "twist-grid")
    assert code == 0
    assert [row.split(",")[2] for row in out.splitlines()[1:]] == ["1/1000", "1/2"]


class TestBadNumbers:
    @pytest.mark.parametrize(
        "option, command, message",
        [
            ("--t", "twist-grid", "t must be a real number"),
            ("--tol", "euler", "tol must be a real number"),
            ("--growth-h", "verify", "growth_h must be a rational"),
        ],
    )
    def test_malformed_number_is_config_error(self, capsys, option, command, message):
        code = main([option, "abc", command])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith(f"config error: {message}")

    @pytest.mark.parametrize("command", ["verify", "euler", "twist-grid"])
    @pytest.mark.parametrize("option, name", [("--t", "t"), ("--tol", "tol")])
    def test_zero_denominator_names_the_value(self, capsys, command, option, name):
        # the message used to end in "()", the empty text of a ZeroDivisionError
        code = main([option, "1/0", command])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"config error: {name} must be a real number, got '1/0'\n"

    def test_huge_exponents_answer_at_once(self, capsys, checkout_env):
        # t and tol are read exactly, but their exponents stay exponents: the
        # parse Fraction('1e-4000000') alone takes seconds
        code, plain = run_cli(capsys, "euler")
        assert code == 0
        for argv, want in ((["--t", "1e999999999"], plain),
                           (["--tol", "1e-40000000"], plain.replace("<= 1.0e-8", "<= 1.0e-40000000"))):
            result = subprocess.run([sys.executable, "-m", "twistlab.cli", *argv, "euler"],
                                    capture_output=True, text=True, env=checkout_env, timeout=10)
            assert (result.returncode, result.stdout, result.stderr) == (0, want, "")

    @pytest.mark.parametrize("tol, target", [("1/3", "<= 0.333"), ("1e-5", "<= 1.0e-5"),
                                             ("0.0001", "<= 0.0001"),
                                             ("8.885e63", "<= 8.88e+63")])
    def test_exact_tolerance_prints_as_before(self, capsys, tol, target):
        code, out = run_cli(capsys, "--tol", tol, "euler", "--primes", "2")
        assert code == 0
        assert f"measured=0.0  target={target}  " in out


class TestCustomInstance:
    def test_polys_on_custom_datum(self, capsys, tmp_path):
        datum = tmp_path / "datum.json"
        datum.write_text(
            json.dumps(
                {
                    "Q": "pi^-1",
                    "omega": "1",
                    "factors": [
                        {"lambda": "1/2", "mu": "1/4"},
                        {"lambda": "1/2", "mu": "1/4"},
                    ],
                    "pole_order": 0,
                    "label": "shifted",
                }
            )
        )
        code, out = run_cli(capsys, "--instance", str(datum), "--K", "3", "polys")
        assert code == 0
        assert "instance=" in out and "FAIL" not in out

    def test_polys_fails_divisibility_it_cannot_meet(self, capsys, tmp_path):
        # mu = 1/4 moves the zeros of Q_nu off s = 1 - nu, so a claimed
        # double pole there is refused while every degree law holds
        datum = tmp_path / "datum.json"
        datum.write_text(json.dumps({
            "Q": "pi^-1", "omega": "1", "pole_order": 2,
            "factors": [{"lambda": "1/2", "mu": "1/4"}, {"lambda": "1/2", "mu": "1/4"}],
        }))
        code, out = run_cli(capsys, "--instance", str(datum), "--K", "4", "polys")
        assert code == 1
        for nu in range(1, 5):
            line = next(line for line in out.splitlines() if f" Q_{nu} " in line)
            assert line.startswith("[FAIL]"), line
            assert (f"degree {2 * nu} (expected {2 * nu}): PASS; "
                    f"divisible by (s+{nu - 1})^2: FAIL") in line
        assert out.count("FAIL") == 8  # the four Q_nu, each record and its check


class TestBadInstance:
    @pytest.mark.parametrize("command", ["polys", "verify", "euler"])
    def test_missing_path_is_config_error(self, capsys, tmp_path, command):
        code = main(["--instance", str(tmp_path / "missing.json"), command])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        if command == "polys":
            assert err.startswith("config error:") and "missing.json" in err
        else:
            assert err == ZETA2_ONLY.format(command)

    @pytest.mark.parametrize("command", ["polys", "verify", "euler"])
    def test_malformed_json_is_config_error(self, capsys, tmp_path, command):
        bad = tmp_path / "bad.json"
        bad.write_text('{"Q": "pi^-1", "factors": [')
        code = main(["--instance", str(bad), command])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("config error:" if command == "polys" else ZETA2_ONLY.format(command))

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"Q": "pi^-1"}, "missing field"),
            ({"Q": "pi^-1", "factors": [{"lambda": 0.5}]}, "malformed"),
            ([1, 2], "malformed"),
            # a zero denominator ended in a ZeroDivisionError traceback
            ({**ZETA2, "Q": "1/0"}, "malformed"),
            ({**ZETA2, "omega": "1/0"}, "malformed"),
            ({**ZETA2, "factors": [{"lambda": "1/0"}, {"lambda": "1/2"}]}, "malformed"),
            ({**ZETA2, "factors": [{"lambda": "1/2", "mu": "1/0"}, {"lambda": "1/2"}]}, "malformed"),
            # int() made 2.9 into 2 and true into 1
            ({**ZETA2, "pole_order": 2.9}, "pole_order must be a nonnegative integer, got 2.9"),
            ({**ZETA2, "pole_order": True}, "pole_order must be a nonnegative integer, got True"),
            # a misspelt "Mu" built mu = 0 silently
            ({**ZETA2, "factors": [{"lambda": "1/2", "Mu": "0,1/2"}, {"lambda": "1/2"}]},
             "datum config factor has unknown keys ['Mu']"),
            ({**ZETA2, "factors": ["1/2", {"lambda": "1/2"}]}, "malformed"),
        ],
    )
    def test_invalid_datum_is_config_error(self, capsys, tmp_path, data, message):
        bad = tmp_path / "datum.json"
        bad.write_text(json.dumps(data))
        code = main(["--instance", str(bad), "polys"])
        _, err = capsys.readouterr()
        assert code == 2
        assert err.startswith("config error:") and message in err

    @pytest.mark.parametrize("command", ["polys", "verify", "euler"])
    def test_precision_key_is_config_error(self, capsys, tmp_path, command):
        # the working precision is --precision alone; a datum carries none
        bad = tmp_path / "datum.json"
        bad.write_text(json.dumps({**ZETA2, "precision": 64}))
        code = main(["--instance", str(bad), command])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        want = "config error: datum config has unknown keys ['precision']"
        assert err.startswith(want if command == "polys" else ZETA2_ONLY.format(command))


class TestRejectedBeforeAnyTwist:
    """Inputs the verification chain cannot serve exit 2 with a config error
    and empty stdout before any continued twist is evaluated."""

    @pytest.fixture(autouse=True)
    def no_twist(self, monkeypatch):
        def evaluated(*args):
            raise AssertionError("a twist was evaluated")

        monkeypatch.setattr(twist, "_divisor_twist_kernel", evaluated)
        monkeypatch.setattr(twist, "_reflected_twist_kernel", evaluated)
        monkeypatch.setattr(transform, "_laurent_at_1", evaluated)

    def rejected(self, capsys, *argv):
        code = main(list(argv))
        out, err = capsys.readouterr()
        assert code == 2 and out == "", (argv, out)
        return err

    @pytest.mark.parametrize("argv", [
        ("--sigma-grid", "2", "--t", "0", "--alphas", "1e-300", "twist-grid"),
        ("--qmax", "1", "--primes", "2", "--alphas", "1/2,1e-300", "verify"),
        ("--alphas", "1001/2", "verify"),  # beta = -1/alpha has denominator 1001
    ])
    def test_huge_alpha_denominator(self, capsys, argv):
        # a twist mod q takes q Hurwitz values: the first two ran past 10 s
        err = self.rejected(capsys, *argv)
        assert err.startswith("config error: alphas must have") and "fraction 1/10" in err

    @pytest.mark.parametrize("command", ["twist-grid", "verify"])
    def test_float_alpha_in_config_file(self, capsys, tmp_path, command):
        # JSON's 0.1 is the binary fraction 3602879701896397/2^55
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"alphas": [0.1]}))
        err = self.rejected(capsys, "--config", str(cfg), command)
        terms = "numerator and denominator" if command == "verify" else "denominator"
        assert err == (f"config error: alphas must have {terms} at most 1000, got 0.1; "
                       "write a decimal such as 0.1 as the fraction 1/10\n")

    @pytest.mark.parametrize("factors", [1, 4])
    def test_datum_of_degree_other_than_2(self, capsys, tmp_path, factors):
        # the Q/R/V apparatus is the degree-2 formula: polys printed FAILs for these
        datum = tmp_path / "datum.json"
        datum.write_text(json.dumps({"Q": "pi^-1/2", "factors": [{"lambda": "1/2"}] * factors,
                                     "pole_order": factors}))
        err = self.rejected(capsys, "--instance", str(datum), "polys")
        assert err == ("config error: the transformation polynomials need a degree-2 datum, "
                       f"got degree {factors}\n")

    def test_wrong_instance_rejected(self, capsys, tmp_path):
        # the twists, the Laurent laws and the Euler factors are those of
        # zeta(s)^2 whatever the datum: a theta = 0 datum with mu = +-i/2 printed
        # 8 FAILs under verify, and euler passed with a datum it never read
        factors = [{"lambda": "1/2", "mu": "0,1/2"}, {"lambda": "1/2", "mu": "0,-1/2"}]
        other = tmp_path / "other.json"
        other.write_text(json.dumps({"Q": "pi^-1", "factors": factors, "pole_order": 2}))
        for instance in (str(other), str(tmp_path / "missing.json")):
            for command in ("verify", "euler"):
                err = self.rejected(capsys, "--instance", instance, command)
                assert err == ZETA2_ONLY.format(command)

    @pytest.mark.parametrize("command", ["verify", "euler"])
    @pytest.mark.parametrize("primes", ["4", "9", "2,2", "3,5,3"])
    def test_composite_or_repeated_primes(self, capsys, command, primes):
        err = self.rejected(capsys, "--primes", primes, command)
        assert err.startswith("config error: primes must be distinct primes")

    @pytest.mark.parametrize("h", ["0", "-4", "-1/2"])
    def test_nonpositive_growth_h(self, capsys, h):
        err = self.rejected(capsys, f"--growth-h={h}", "verify")
        assert err == f"config error: growth_h must be positive, got '{h}'\n"

    @pytest.mark.parametrize("grid", ["-10,-21", "-11,-20.0", "-3,-4", "-12,-16,-26",
                                      "-11,-15,-25"])
    def test_trivial_zero_at_t_zero(self, capsys, grid):
        # log|F| at a zero of zeta(s)^2 printed slope nan, C*=+inf and exit 1; on the
        # odd grid F(-n, 1/4) leads with S = q cos(2 pi b'/q) = 0, and the default
        # --qmax 4 printed [FAIL] growth certificate (q=4, h=16) and exit 1
        err = self.rejected(capsys, "--t", "0", f"--sigma-grid={grid}", "verify")
        alpha = "1/4" if grid == "-11,-15,-25" else "1"
        assert err.startswith(f"config error: F(s, {alpha}) loses its leading term S = ")

    @pytest.mark.parametrize("alpha", ["1", "1/2", "3/2"])
    def test_certificate_rejects_trivial_zero(self, alpha):
        with pytest.raises(ValueError, match=r"loses its leading term .* sigma \[-10\]"):
            transform.growth_certificate(alpha, 1, t=0, sigmas=(-10, -21))

    def test_certificate_samples_even_sigma_where_the_twist_is_nonzero(self):
        # F(-10, 1/3) is about -1.3e6 i: the certificate goes on to evaluate it,
        # by the reflected route
        with pytest.raises(AssertionError, match="a twist was evaluated"):
            transform.growth_certificate("1/3", 9, t=0, sigmas=(-10, -20))

    @pytest.mark.parametrize("grid", ["-10", "-10,-10", "-10,-10.0"])
    def test_fewer_than_two_distinct_sigmas(self, capsys, grid):
        # the growth certificate's slope fit divided by zero after the chain ran
        err = self.rejected(capsys, f"--sigma-grid={grid}", "verify")
        assert err == "config error: the growth certificate fits a slope: it needs two " \
                      "distinct sigmas, got 1\n"

    def test_empty_sigma_grid_in_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"sigma_grid": []}))
        err = self.rejected(capsys, "--config", str(cfg), "verify")
        assert err == "config error: the growth certificate fits a slope: it needs two " \
                      "distinct sigmas, got 0\n"

    @pytest.mark.parametrize("command", ["verify", "euler", "twist-grid"])
    @pytest.mark.parametrize("option, value, message", [
        ("--t", "nan", "t must be finite"),
        ("--t", "inf", "t must be finite"),
        ("--t", "-inf", "t must be finite"),
        ("--tol", "nan", "tol must be positive and finite"),
        ("--tol", "inf", "tol must be positive and finite"),
        ("--tol", "0", "tol must be positive and finite"),
        ("--tol", "-1", "tol must be positive and finite"),
    ])
    def test_non_finite_t_or_bad_tol(self, capsys, command, option, value, message):
        err = self.rejected(capsys, f"{option}={value}", command)
        assert err == f"config error: {message}, got '{value}'\n"

    @pytest.mark.parametrize("command", ["verify", "euler", "polys", "twist-grid"])
    @pytest.mark.parametrize("below", ["", "sub"])
    def test_out_naming_a_file(self, capsys, tmp_path, command, below):
        # the whole chain used to run and print before mkdir raised
        # FileExistsError (or NotADirectoryError below a file)
        existing = tmp_path / "report.txt"
        existing.write_text("kept\n")
        err = self.rejected(capsys, "--out", str(existing / below), command)
        assert err == f"config error: out must name a directory, but {str(existing)!r} is not one\n"
        assert existing.read_text() == "kept\n"

    @pytest.mark.parametrize("t", ["20", "-20", "1e6"])
    def test_t_beyond_the_sigma_grid(self, capsys, t):
        # the growth certificate's envelope is the |sigma| >> |t| asymptotic;
        # t = 1e6 failed at the correct h after a 148 s certificate at q = 4
        err = self.rejected(capsys, f"--t={t}", "verify")
        assert err == ("config error: the growth envelope is the |sigma| >> |t| asymptotic: "
                       "need |t| <= sqrt(min|sigma| max|sigma|)/2 = 10.0, "
                       f"got t = {float(t)}\n")

    @pytest.mark.parametrize("command", ["verify", "twist-grid"])
    @pytest.mark.parametrize("t", ["1e40", "-1e40", "2e19"])
    def test_t_beyond_the_precision(self, capsys, command, t):
        # at 128 bits --t 1e40 printed 25 digits of which about 14 were real
        err = self.rejected(capsys, f"--t={t}", command)
        assert err == ("config error: |t| must be at most 2^(precision/2) = 2^64 at "
                       f"precision 128, got '{t}'\n")


class TestConfigFile:
    def test_config_plus_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"k_terms": 2, "q_max": 1}))
        code, out = run_cli(capsys, "--config", str(cfg), "--K", "1", "polys")
        assert code == 0
        assert "Q_1" in out and "Q_2" not in out  # flag wins over file

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"nope": 1}))
        code, _ = run_cli(capsys, "--config", str(cfg), "polys")
        assert code == 2

    def test_invalid_precision_rejected(self, capsys):
        code, _ = run_cli(capsys, "--precision", "32", "polys")
        assert code == 2

    @pytest.mark.parametrize(
        "data, message",
        [
            ([], "the config file must hold a JSON object"),
            ({"precision": "abc"}, "precision must be an integer"),
            ({"primes": "3,5"}, "primes must be a list of integers"),
            # JSON true parsed as 1: tol 1 passed every record below 1
            ({"tol": True}, "tol must be a real number, got True"),
            ({"t": True}, "t must be a real number, got True"),
            ({"growth_h": True}, "growth_h must be a rational, got True"),
            ({"alphas": ["1/2", True]}, "alphas must be a list of rationals"),
        ],
    )
    def test_wrong_shape_or_type_is_config_error(self, capsys, tmp_path, data, message):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(data))
        code = main(["--config", str(cfg), "euler"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith(f"config error: {message}")

    @pytest.mark.parametrize(
        "growth_h, message",
        [
            (0, "growth_h must be positive, got 0"),
            ("", "growth_h must be a rational such as 9/2"),
        ],
    )
    def test_falsy_growth_h_is_a_value(self, capsys, tmp_path, growth_h, message):
        # 0 and "" were read as "no override" and the run used h = q^2
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"growth_h": growth_h}))
        code = main(["--config", str(cfg), "--qmax", "1", "--primes", "2", "verify"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith(f"config error: {message}")


class TestBadSigmaGrid:
    @pytest.mark.parametrize("grid", ["inf", "1e400", "-10,-inf", "nan"])
    def test_non_finite_sigma_is_config_error(self, capsys, grid):
        code = main([f"--sigma-grid={grid}", "twist-grid"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("config error: sigma_grid must be a list of finite real numbers")

    @pytest.mark.parametrize("grid", ["5", "0", "-10,5"])
    def test_nonnegative_sigma_is_config_error_for_verify(self, capsys, grid):
        code = main([f"--sigma-grid={grid}", "verify"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("config error: the growth certificate samples sigma < 0")


class TestBenchmarkRecords:
    """The benchmark's verify and euler invocations print the records of
    perfbench/reference in the same order, no more and no fewer, every one
    passing."""

    REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"
    RECORD = re.compile(r"^\[(PASS|FAIL)\] (.*?)\s+measured=")

    def records(self, text):
        return [m.groups() for m in map(self.RECORD.match, text.splitlines()) if m]

    @pytest.mark.parametrize(
        "argv, reference",
        [
            (["verify", "--qmax", "4", "--primes", "3,5", "--alphas", "1/2,1/3"], "verify.txt"),
            (["euler", "--primes", "2,3,5"], "euler.txt"),
        ],
    )
    def test_record_names_match_reference_and_pass(self, capsys, argv, reference):
        code, out = run_cli(capsys, *argv)
        records = self.records(out)
        golden = self.records((self.REFERENCE / reference).read_text())
        assert [name for _, name in records] == [name for _, name in golden]
        assert [name for status, name in records if status != "PASS"] == []
        assert code == 0

    @pytest.mark.parametrize("worker", [True, False])
    @pytest.mark.parametrize("argv, builds", [
        (["euler", "--primes", "2,3,5"], 0),
        (["verify", "--qmax", "4", "--primes", "3,5", "--alphas", "1/2,1/3"], 40),
    ])
    def test_series_builds_per_command(self, capsys, monkeypatch, tmp_path, argv, builds,
                                       worker):
        # a later change that builds more Hurwitz series per command shows here.
        # The polar reports' worker inherits the series built before the fork and
        # reports the builds it adds, so that none is built twice.
        use_worker(monkeypatch, worker)
        polar, added, parent = transform.transformation_polar_reports, tmp_path / "added", os.getpid()

        def counted(*args):
            before = special._hurwitz_series.cache_info().misses
            reports = polar(*args)
            if os.getpid() != parent:
                added.write_text(str(special._hurwitz_series.cache_info().misses - before))
            return reports

        monkeypatch.setattr(transform, "transformation_polar_reports", counted)
        special._hurwitz_memo.cache_clear()
        special._hurwitz_series.cache_clear()
        code, _ = run_cli(capsys, *argv)
        assert code == 0
        assert added.exists() == (worker and argv[0] == "verify")
        in_worker = int(added.read_text()) if added.exists() else 0
        assert special._hurwitz_series.cache_info().misses + in_worker == builds

    def test_growth_domain_computed_once_per_alpha(self, capsys):
        # q = 1 and 4: the config check computes each domain, the certificates reuse it
        transform.growth_domain.cache_clear()
        code, _ = run_cli(capsys, "verify", "--qmax", "4", "--primes", "3")
        info = transform.growth_domain.cache_info()
        assert (code, info.misses, info.hits) == (0, 2, 2)

    def test_verify_calls_mp_zeta_nowhere_in_the_left_half_plane(self, capsys, monkeypatch):
        # the growth certificate reads its Hurwitz values at 1 - s, and the
        # contours about s = 0..-3 sit on the series discs (in-process, so that
        # the contours' calls are seen)
        use_worker(monkeypatch, False)
        points, zeta = [], mp.zeta
        monkeypatch.setattr(mp, "zeta", lambda s, *args: points.append(mp.mpc(s)) or zeta(s, *args))
        special._hurwitz_memo.cache_clear()
        code, _ = run_cli(capsys, "verify")
        assert code == 0
        assert points and min(point.real for point in points) >= 0


def use_worker(monkeypatch, worker: bool) -> None:
    """Send verify's polar reports to a forked worker (as on two or more
    usable CPUs), or keep them in-process (as where os.fork is missing)."""
    if worker:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    else:
        monkeypatch.delattr(os, "fork", raising=False)


def assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the worker needs os.fork")
class TestPolarWorker:
    """verify computes its polar reports in a forked worker while the other
    sections run, and prints what the in-process path prints."""

    @pytest.mark.parametrize("argv", [
        ["verify", "--qmax", "4", "--primes", "3,5", "--alphas", "1/2,1/3"],
        ["verify", "--qmax", "4", "--primes", "5,3", "--alphas", "1/2,1/3"],
        ["verify", "--qmax", "4", "--primes", "3,5", "--alphas", "1/3,1/2"],
        ["verify", "--qmax", "4", "--primes", "5,3", "--alphas", "1/3,1/2"],
        ["verify", "--precision", "64"],
        ["verify", "--precision", "256"],
    ])
    def test_worker_prints_the_in_process_bytes(self, capsys, monkeypatch, argv):
        forks, fork = [], os.fork
        with monkeypatch.context() as patch:
            use_worker(patch, True)
            patch.setattr(os, "fork", lambda: forks.append(1) or fork())
            worker = run_cli(capsys, *argv)
        assert forks == [1]
        assert_no_child_process()
        with monkeypatch.context() as patch:
            use_worker(patch, False)
            in_process = run_cli(capsys, *argv)
        assert worker == in_process
        assert worker[0] == 0 and "-- 57 checks, 0 failed --" in worker[1]

    def test_no_fork_beside_another_thread(self, capsys, monkeypatch):
        import threading

        forks, fork, release = [], os.fork, threading.Event()
        use_worker(monkeypatch, True)
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        waiting = threading.Thread(target=release.wait, args=(60,))
        waiting.start()
        try:
            code, out = run_cli(capsys, "verify", "--qmax", "2", "--primes", "3")
        finally:
            release.set()
            waiting.join(60)
        assert not waiting.is_alive()
        assert (code, forks) == (0, [])
        assert "-- 29 checks, 0 failed --" in out

    @pytest.mark.parametrize("worker", [True, False])
    def test_precision_error_in_the_polar_reports(self, capsys, monkeypatch, worker):
        def exhausted(*args):
            raise PrecisionExhaustedError("raised by the polar reports")

        use_worker(monkeypatch, worker)
        monkeypatch.setattr(transform, "transformation_polar_reports", exhausted)
        code = main(["verify", "--qmax", "2", "--primes", "3"])
        out, err = capsys.readouterr()
        assert (code, out, err) == (2, "", "precision error: raised by the polar reports\n")
        assert_no_child_process()

    def test_error_beside_the_worker_kills_it(self, capsys, monkeypatch, tmp_path):
        # the parent raises while the worker still runs: the worker is killed and
        # reaped, and never finishes its reports
        polar, finished = transform.transformation_polar_reports, tmp_path / "finished"

        def slow(*args):
            import time

            time.sleep(5)
            reports = polar(*args)
            finished.touch()
            return reports

        def exhausted(*args, **kwargs):
            raise PrecisionExhaustedError("raised beside the worker")

        use_worker(monkeypatch, True)
        monkeypatch.setattr(transform, "transformation_polar_reports", slow)
        monkeypatch.setattr(transform, "growth_certificate", exhausted)
        code = main(["verify", "--qmax", "2", "--primes", "3"])
        out, err = capsys.readouterr()
        assert (code, out, err) == (2, "", "precision error: raised beside the worker\n")
        assert_no_child_process()
        assert not finished.exists()

    def test_a_worker_that_dies_is_an_error(self, capsys, monkeypatch):
        use_worker(monkeypatch, True)
        monkeypatch.setattr(transform, "transformation_polar_reports", lambda *args: os._exit(3))
        with pytest.raises(RuntimeError, match="exited with status 3"):
            main(["verify", "--qmax", "2", "--primes", "3"])
        assert_no_child_process()


def test_readme_commands_need_only_mpmath(checkout_env):
    # the runtime dependency is mpmath alone: numpy, scipy and sympy cannot be imported
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = [line.split("#")[0].split()[1:] for line in readme.splitlines()
                if line.startswith("twistlab ")]
    assert [argv[0] for argv in commands] == ["polys", "verify", "euler", "twist-grid"]
    code = ("import sys\n"
            "sys.modules.update(numpy=None, scipy=None, sympy=None)\n"
            "from twistlab.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    for argv in commands:
        result = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                                text=True, env=checkout_env)
        assert result.returncode == 0, (argv, result.stderr[-2000:])
