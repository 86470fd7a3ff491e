import copy
import json
import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

from twistlab.exactpoly import GaussianRational
from twistlab.funceq import (
    DatumError,
    FunctionalEquationDatum,
    QParam,
    factor,
    load_datum,
    zeta2_datum,
)

from paper_checks import conductor, lambda_invariant, q_param_value, root_number_star, to_mpc

README = Path(__file__).resolve().parents[1] / "README.md"


def make_datum(factors, q="pi^-1", omega=GaussianRational(1), pole_order=0):
    return FunctionalEquationDatum(
        q_param=QParam.parse(q), omega=omega, factors=tuple(factors),
        pole_order=pole_order,
    )


class TestZeta2Invariants:
    def test_degree(self, zeta2):
        assert zeta2.degree() == 2
        assert isinstance(zeta2.degree(), Fraction)

    def test_conductor_exact_one(self, zeta2):
        assert conductor(zeta2) == 1
        assert isinstance(conductor(zeta2), Fraction)

    def test_xi(self, zeta2):
        assert zeta2.xi_invariant() == GaussianRational(-2, 0)
        assert zeta2.theta == 0

    def test_h_invariants(self, zeta2):
        assert zeta2.h_invariant(0) == 2            # equals the degree
        assert zeta2.h_invariant(1) == GaussianRational(-2)  # equals xi
        assert zeta2.h_invariant(2) == Fraction(4, 3)

    def test_root_number(self, zeta2):
        assert root_number_star(zeta2) == GaussianRational(0, 1)
        assert lambda_invariant(zeta2) == 1


class TestDatumHash:
    def test_equal_data_hash_equally_and_the_fields_are_hashed_once(self, monkeypatch):
        calls, field_hash = [], QParam.__hash__
        monkeypatch.setattr(QParam, "__hash__", lambda self: calls.append(self) or field_hash(self))
        first, second = zeta2_datum(), zeta2_datum()
        assert first == second and first is not second
        assert hash(first) == hash(second)
        assert len(calls) == 2  # once per instance
        assert hash(first) == hash(second) and {first: 1}[second] == 1
        assert len(calls) == 2
        other = load_datum({"Q": "pi^-1", "factors": [{"lambda": "1/2"}] * 2})  # pole order 0
        assert other != first and first not in {other: 1}


    def test_pickle_round_trip_in_another_process(self, checkout_env):
        # the label is a str, whose hash is salted per process: the child must
        # rebuild the cached hash, not copy the parent's
        code = (
            "import pickle, sys\n"
            "from twistlab.funceq import zeta2_datum\n"
            "datum, fresh = pickle.loads(sys.stdin.buffer.read()), zeta2_datum()\n"
            "print(datum == fresh, hash(datum) == hash(fresh), {fresh: 1}.get(datum))\n"
        )
        blob = pickle.dumps(zeta2_datum())
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        result = subprocess.run([sys.executable, "-c", code], input=blob, capture_output=True,
                                check=True, env={**checkout_env, "PYTHONHASHSEED": seed})
        assert result.stdout.decode().split() == ["True", "True", "1"]

    def test_deepcopy_is_an_equal_datum(self):
        datum = zeta2_datum()
        twin = copy.deepcopy(datum)
        assert twin == datum and twin is not datum and hash(twin) == hash(datum)
        assert twin.omega == datum.omega and twin.omega is not datum.omega


class TestOtherData:
    def test_zeta_datum_conductor_one(self):
        d = make_datum([factor(Fraction(1, 2))], q="pi^-1/2")
        assert d.degree() == 1
        assert conductor(d) == 1

    def test_empty_factors(self):
        d = make_datum([], q="1")
        assert d.degree() == 0
        assert conductor(d) == 1

    def test_single_factor_degree(self):
        assert make_datum([factor(1)]).degree() == 2

    def test_xi_examples(self):
        assert make_datum([factor(Fraction(1, 2), Fraction(1, 2))]).xi_invariant() == 0
        d = make_datum([factor(Fraction(1, 2), GaussianRational(0, 1))])
        assert d.xi_invariant() == GaussianRational(-1, 2)

    def test_root_number_rejects_wrong_degree(self):
        with pytest.raises(DatumError):
            root_number_star(make_datum([factor(Fraction(1, 2))], q="pi^-1/2"))

    def test_root_number_reduces_to_i_when_eta_is_minus_two(self):
        # theta = 0, real mu, omega = 1, eta = -2 for a non-reference datum
        d = make_datum([factor(Fraction(1, 4)), factor(Fraction(3, 4))])
        assert d.xi_invariant() == GaussianRational(-2)
        assert root_number_star(d) == GaussianRational(0, 1)

    def test_root_number_numeric_is_unimodular(self):
        d = make_datum(
            [
                factor(Fraction(1, 2), GaussianRational(Fraction(1, 4), Fraction(1, 3))),
                factor(Fraction(1, 2), GaussianRational(Fraction(1, 5), Fraction(-1, 6))),
            ]
        )
        with mp.workprec(256):
            w = root_number_star(d)
            assert abs(abs(w) - 1) < mp.mpf(2) ** (-200)

    @pytest.mark.parametrize("q", ["pi^-1", "5/2"])
    def test_root_number_follows_the_working_precision(self, q):
        # theta = 1; Q = 5/2 makes the conductor transcendental as well.  A
        # datum precision of 256 bits used to cap this near 2^-256.
        d = make_datum(
            [factor(Fraction(1, 2), GaussianRational(0, Fraction(1, 2))), factor(Fraction(1, 2))],
            q=q, omega=GaussianRational(Fraction(3, 5), Fraction(4, 5)),
        )
        assert d.theta == 1
        with mp.workprec(512):
            value = root_number_star(d)
        with mp.workprec(1024):
            q_f = (2 * mp.pi) ** 2 * q_param_value(QParam.parse(q)) ** 2 / 4
            closed = (
                to_mpc(d.omega)
                * mp.exp(-1j * mp.pi * (d.xi_invariant().re + 1) / 2)
                * mp.power(q_f / (2 * mp.pi) ** 2, 1j * d.theta / 2)
                * mp.power(mp.mpf(1) / 2, -2j * mp.mpf(1) / 2)
            )
            assert abs(value - closed) < mp.mpf(2) ** -500

    def test_h_matches_degree_and_xi_generally(self):
        data = [
            make_datum([factor(Fraction(1, 3), Fraction(1, 7)), factor(Fraction(5, 6))], q="2.5"),
            make_datum([factor(2, GaussianRational(1, 1))], q="pi^2"),
        ]
        for d in data:
            assert d.h_invariant(0) == d.degree()
            assert d.h_invariant(1) == d.xi_invariant()

    def test_permutation_invariance(self):
        f1 = factor(Fraction(1, 3), Fraction(1, 7))
        f2 = factor(Fraction(2, 3), GaussianRational(0, 1))
        a = make_datum([f1, f2])
        b = make_datum([f2, f1])
        assert a.degree() == b.degree()
        assert conductor(a) == conductor(b)

    def test_invalid_factors_rejected(self):
        with pytest.raises(DatumError):
            factor(Fraction(-1, 2))
        with pytest.raises(DatumError):
            factor(Fraction(1, 2), GaussianRational(-1, 0))

    def test_omega_must_be_unimodular(self):
        with pytest.raises(DatumError):
            make_datum([factor(1)], omega=GaussianRational(2))

    def test_unimodular_gaussian_omega_accepted(self):
        d = make_datum([factor(1)], omega=GaussianRational(Fraction(3, 5), Fraction(4, 5)))
        assert root_number_star(d) == GaussianRational(Fraction(3, 5), Fraction(4, 5))


class TestConfigLoading:
    def test_builtin_name(self):
        assert load_datum("zeta2").label == "zeta2"

    def test_dict_round_trip_matches_builtin(self, zeta2):
        cfg = {
            "Q": "pi^-1",
            "omega": "1",
            "factors": [
                {"lambda": "1/2", "mu": "0"},
                {"lambda": "1/2", "mu": "0"},
            ],
            "pole_order": 2,
        }
        d = load_datum(cfg)
        assert d.degree() == zeta2.degree()
        assert conductor(d) == conductor(zeta2)
        assert root_number_star(d) == root_number_star(zeta2)

    def test_json_file(self, tmp_path):
        path = tmp_path / "datum.json"
        path.write_text(
            json.dumps(
                {
                    "Q": "0.5",
                    "omega": "0,1",
                    "factors": [{"lambda": "1", "mu": "1/4,1/3"}],
                    "pole_order": 0,
                    "label": "custom",
                }
            )
        )
        d = load_datum(path)
        assert d.label == "custom"
        assert d.omega == GaussianRational(0, 1)
        assert d.factors[0].mu == GaussianRational(Fraction(1, 4), Fraction(1, 3))
        assert d.q_param.coef == Fraction(1, 2)

    def test_q_parse_forms(self):
        assert QParam.parse("pi^-1").pi_exp == -1
        assert QParam.parse("pi").pi_exp == 1
        assert QParam.parse("3/4").coef == Fraction(3, 4)
        assert abs(q_param_value(QParam.parse("pi^-1/2")) - 1 / mp.sqrt(mp.pi)) < mp.mpf("1e-30")

    def test_missing_field_raises(self):
        with pytest.raises(DatumError):
            load_datum({"Q": "1"})

    def test_unknown_factor_key_raises(self):
        # "Mu" was read as a missing mu: mu = 0 and theta = 0, silently
        cfg = {"Q": "pi^-1", "factors": [{"lambda": "1/2", "Mu": "0,1/2"}, {"lambda": "1/2"}]}
        with pytest.raises(DatumError, match=r"factor has unknown keys \['Mu'\]"):
            load_datum(cfg)

    def test_precision_override(self):
        # a datum carries no precision: the ambient mp.workprec is the only one
        assert not hasattr(zeta2_datum(), "precision")
        with pytest.raises(TypeError):
            load_datum("zeta2", precision=320)
        cfg = {"Q": "1", "factors": [{"lambda": "1", "mu": "0"}], "precision": 192}
        with pytest.raises(DatumError, match=r"unknown keys \['precision'\]"):
            load_datum(cfg)

    def test_readme_datum_block_is_zeta2(self):
        text = README.read_text().split("## Custom functional-equation data", 1)[1]
        block = re.search(r"```json\n(.*?)```", text, re.S).group(1)
        d, ref = load_datum(json.loads(block)), zeta2_datum()
        assert d.degree() == ref.degree()
        assert conductor(d) == conductor(ref)
        assert root_number_star(d) == root_number_star(ref)
        assert d.pole_order == ref.pole_order
