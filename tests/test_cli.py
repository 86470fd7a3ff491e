import json
from pathlib import Path

import pytest

from twistlab.cli import RunConfig, main


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


class TestBadInstance:
    @pytest.mark.parametrize("command", ["polys", "verify", "euler"])
    def test_missing_path_is_config_error(self, capsys, tmp_path, command):
        code = main(["--instance", str(tmp_path / "missing.json"), command])
        out, err = capsys.readouterr()
        assert code == 2
        assert err.startswith("config error:") and "missing.json" in err
        assert out == ""

    @pytest.mark.parametrize("command", ["polys", "verify", "euler"])
    def test_malformed_json_is_config_error(self, capsys, tmp_path, command):
        bad = tmp_path / "bad.json"
        bad.write_text('{"Q": "pi^-1", "factors": [')
        code = main(["--instance", str(bad), command])
        out, err = capsys.readouterr()
        assert code == 2
        assert err.startswith("config error:") and out == ""

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"Q": "pi^-1"}, "missing field"),
            ({"Q": "pi^-1", "factors": [{"lambda": 0.5}]}, "malformed"),
            ([1, 2], "malformed"),
        ],
    )
    def test_invalid_datum_is_config_error(self, capsys, tmp_path, data, message):
        bad = tmp_path / "datum.json"
        bad.write_text(json.dumps(data))
        code = main(["--instance", str(bad), "polys"])
        _, err = capsys.readouterr()
        assert code == 2
        assert err.startswith("config error:") and message in err


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
