"""The exact layer stays exact: the exact scalars and polynomials, the datum,
the Bernoulli tables, the transformation polynomials, the Euler solve and the
reports import no floating-point library, and ``polys`` and ``euler`` run to
the end with mpmath unimportable, printing the bytes they printed with it.
The exact layer's records compare, hash and pickle by their fields and refuse
assignment."""

import ast
import hashlib
import pickle
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

import twistlab
from twistlab.cli import RunConfig
from twistlab.euler import LocalFactor, solve_local_factor
from twistlab.exactpoly import GaussianRational
from twistlab.funceq import FunctionalEquationDatum, GammaFactor, QParam, zeta2_datum
from twistlab.reports import Report, nstr

PACKAGE = Path(twistlab.__file__).resolve().parent
ANALYTIC = {"mpmath", "special", "twist", "transform"}


def _imported(nodes) -> set:
    """Top-level names of the modules the import statements among ``nodes``
    bring in; a relative import names the package's module."""
    imported = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            imported.update([node.module] if node.module else [a.name for a in node.names])
    return imported


def _module_level(tree):
    """Every node of ``tree`` outside function bodies."""
    todo = [tree]
    while todo:
        node = todo.pop()
        yield node
        todo.extend(child for child in ast.iter_child_nodes(node)
                    if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))


@pytest.mark.parametrize("module", ["exactpoly", "funceq", "expansion", "bernoulli", "euler",
                                    "reports"])
def test_exact_module_imports_no_mpmath(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    assert "mpmath" not in _imported(ast.walk(tree))


@pytest.mark.parametrize("module", ["cli", "__init__"])
def test_entry_points_load_the_analytic_layer_only_inside_commands(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    assert _imported(_module_level(tree)) & ANALYTIC == set()


#: sha256 of what ``polys`` and ``euler`` printed and wrote with mpmath loaded,
#: at the parent commit of the change that let them run without it.
HEAD_BYTES = {
    ("polys", "--K", "16"): {
        "stdout": "2f884a0ae5046f50a68e3516031680a8e90f508600b29fdaecb1ef24ff0488f6"},
    ("polys", "--K", "16", "--out"): {
        "stdout": "2f884a0ae5046f50a68e3516031680a8e90f508600b29fdaecb1ef24ff0488f6",
        "polys_report.txt": "2f884a0ae5046f50a68e3516031680a8e90f508600b29fdaecb1ef24ff0488f6",
        "polys_report.csv": "c8bcc07a0d4fd12bb97156b014061a8334151e40ae138aaceab4c00b28ebb931",
        "polynomials.csv": "02843b949747c9f27a3a55559808902b8ce18ecc5fa95bb91d4891a98dec9b7a"},
    ("euler", "--primes", "2,3,5"): {
        "stdout": "b79dc1daf1e58efdc9c5f7cf5b4af6ea71cc8569cd2a7c9159eeffa611ce68ce"},
    ("euler", "--primes", "2,3,5,7,11,13", "--out"): {
        "stdout": "e388d4602637c6c5c34d86ef6fb996a67815e6af7b9d03b17f972291992c249a",
        "euler_report.txt": "e388d4602637c6c5c34d86ef6fb996a67815e6af7b9d03b17f972291992c249a",
        "euler_report.csv": "31e4f095edb3acf736863a167a9f5d4bae01de5d53e9bfa17a446ad20a8e2082",
        "euler_factors.csv": "2536aed31615f068d4e74c9fccd203e2404dbdcfd2146406b701e4743d50ed5c"},
}

#: The exact commands load neither the analytic layer nor the standard library's
#: dataclasses, inspect and pickle, and csv only when they write a file.
WITHOUT_MPMATH = """
import sys
sys.modules["mpmath"] = None  # every import of mpmath now raises ImportError
from twistlab.cli import main
status = main(sys.argv[1:])
unwanted = {"twistlab.special", "twistlab.twist", "twistlab.transform", "pickle", "dataclasses",
            "inspect", *(() if "--out" in sys.argv else ("csv",))}
assert not unwanted & set(sys.modules), sorted(unwanted & set(sys.modules))
sys.exit(status)
"""


@pytest.mark.parametrize("argv", HEAD_BYTES, ids=" ".join)
def test_exact_commands_print_the_same_bytes_without_mpmath(argv, tmp_path, checkout_env):
    out = tmp_path / "out"
    args = [*argv, str(out)] if argv[-1] == "--out" else list(argv)
    result = subprocess.run([sys.executable, "-c", WITHOUT_MPMATH, *args], capture_output=True,
                            env=checkout_env, cwd=tmp_path, timeout=60)
    assert result.returncode == 0, result.stderr.decode()[-2000:]
    printed = {"stdout": result.stdout}
    printed.update((path.name, path.read_bytes()) for path in sorted(out.glob("*")))
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in printed.items()}
    assert digests == HEAD_BYTES[argv]


#: Exact values held against mp.nstr: the tolerances and records of euler,
#: the CSV values (p/(p-1))^2, a huge exponent, both sides of the switch
#: between fixed point (leading digit strictly between 10^min(-n//3, -5) and
#: 10^n) and exponent form, with the rounding carries across it, and a
#: decimal tie above 2^128 that mpmath's rounding to the precision decides.
VALUES = [0, 1, Fraction(1, 3), Fraction(-2, 3), 123456789, Decimal("1e-8"), Decimal("1e-5"),
          Decimal("1e-6"), Decimal("-2.5e-7"), Decimal("1e-40000000"), Decimal("1e999999999"),
          Decimal("0.0001"), Decimal("0.00009999"), Decimal("0.000099995"), Decimal("999.4"),
          Decimal("999.5"), Decimal("1e3"), Decimal("999999.5"), Decimal("1e19"),
          Decimal("99999999999999999999.5"), Decimal("1e20"), Decimal("1.005e-8"),
          Decimal("8.885e63"), Decimal("-8.885e63"),
          *(Fraction(p, p - 1) ** 2 for p in (2, 3, 5, 7, 11, 13))]


@pytest.mark.parametrize("n", [3, 6, 20])
@pytest.mark.parametrize("x", VALUES, ids=str)
def test_exact_values_print_as_mp_nstr_at_128_bits(x, n):
    assert mp.mp.prec == 128
    value = mp.mpf(str(x)) if isinstance(x, Decimal) else mp.mpmathify(x)
    assert nstr(x, n) == mp.nstr(value, n)
    assert nstr(value, n) == mp.nstr(value, n)


@pytest.mark.parametrize("prec", [64, 129, 256])
@pytest.mark.parametrize("x", VALUES, ids=str)
def test_exact_values_print_as_mp_nstr_at_the_run_precision(x, prec):
    # mp.mpf reads a decimal or p/q literal to nearest at the working precision
    with mp.workprec(prec):
        value = mp.mpf(str(x))
    for n in (3, 6, 20):
        assert nstr(x, n, prec) == mp.nstr(value, n), n


#: The exact layer's frozen values, each built twice by the same call.
FROZEN = {
    "LocalFactor": lambda: LocalFactor(prime=2, partial_degree=1, roots=(Fraction(1, 2),)),
    "LocalFactorSolution": lambda: solve_local_factor(Fraction(4), 2),
    "QParam": lambda: QParam(coef=Fraction(3)),
    "GammaFactor": lambda: GammaFactor(lam=Fraction(1, 2), mu=GaussianRational(0)),
    "FunctionalEquationDatum": zeta2_datum,
    "RunConfig": lambda: RunConfig(q_max=2),
}


@pytest.mark.parametrize("make", FROZEN.values(), ids=FROZEN)
def test_frozen_values_compare_hash_and_pickle_by_their_fields(make):
    value, twin = make(), make()
    assert value == twin and value is not twin and hash(value) == hash(twin)
    assert pickle.loads(pickle.dumps(value)) == value
    for name in (*value._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)


def test_defaults_fill_the_trailing_fields():
    assert QParam(Fraction(3)) == QParam(Fraction(3), Fraction(0))
    datum = zeta2_datum()
    bare = FunctionalEquationDatum(datum.q_param, datum.omega, list(datum.factors))
    assert (bare.factors, bare.pole_order, bare.label) == (datum.factors, 0, "")
    assert RunConfig(precision=64) == RunConfig()._replace(precision=64)
    assert RunConfig().precision == 128 and RunConfig().out is None


def test_reports_compare_by_value_and_do_not_hash():
    first, second = Report("title"), Report(title="title")
    assert first.records is not second.records
    for report in (first, second):
        report.add("name", "claim", 1, 2, True)
    assert first == second and first.records == second.records
    for value in (first, first.records[0]):
        with pytest.raises(TypeError):
            hash(value)
