"""Every function and method in the package runs under some command.

A fresh interpreter, so that no lru_cache filled earlier can hide a call,
traces every call while ``cli.main`` serves the traffic below: each benchmark
workload at seed 0, README's CLI examples, ``polys`` on a Gaussian-rational
datum with theta != 0, and ``--out`` runs.  A ``def`` in the package that
never ran is deleted or moved to the tests, unless the benchmark's tracer
names it or ``KEPT`` gives the reason it stays.  Check routes that only the
tests call live in the tests (``paper_checks``), not in the package.  Nor
does a module import a name it never reads."""

import ast
import importlib.util
import inspect
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import twistlab

PACKAGE = Path(twistlab.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

#: Definitions no command runs, each kept for a reason.  A name keeps every
#: definition nested in it.
KEPT = {
    "exactpoly.GaussianRational.__setattr__": "the immutability guard; __init__ writes past it",
    "exactpoly.Polynomial.__setattr__": "the immutability guard; _set writes past it",
    "exactpoly.GaussianRational.__reduce__": "pickle and copy rebuild a value through __init__",
    "funceq.FunctionalEquationDatum.__reduce__": "a datum pickles into another process without "
                                                 "its cached hash, which a salted str's hash "
                                                 "would make stale there",
    **dict.fromkeys(("funceq.FunctionalEquationDatum.__setattr__", "cli.RunConfig.__setattr__"),
                    "the immutability guard of a tuple whose dict holds a cache"),
    "exactpoly.GaussianRational.__bool__": "a zero value is false, as a zero int or Fraction is",
    "exactpoly.Polynomial.__hash__": "a value that defines __eq__ stays hashable",
    "special.DirichletCharacter.__eq__": "characters compare by modulus and index",
    "special.DirichletCharacter.__hash__": "a value that defines __eq__ stays hashable",
    "exactpoly.GaussianRational.__repr__": "pytest's failure messages read it",
    "exactpoly.Polynomial.__repr__": "pytest's failure messages read it",
    "special.DirichletCharacter.__repr__": "pytest's failure messages read it",
    "transform.LaurentExpansion": "the value the traced laurent_extract returns",
    **dict.fromkeys(("transform._laurent_many", "transform._circle_samples",
                     "transform._coeffs_from_samples"),
                    "the contour core: it runs under the traced laurent_extract and "
                    "contour_integral, which the tests use as the independent route"),
    "twist.DivisorStream.tail_bound": "the benchmark's grid check calls it",
    "bernoulli.bernoulli_number": "public API, exported by the package",
}

#: A datum with Gaussian-rational mu and omega and theta = 1.
COMPLEX_DATUM = {
    "Q": "pi^-1", "omega": "3/5,4/5", "pole_order": 0, "label": "complex",
    "factors": [{"lambda": "1/2", "mu": "0,1/2"}, {"lambda": "1/2", "mu": "1/4"}],
}

CHILD = r"""
import contextlib, io, json, sys

ran = set()


def trace(frame, event, arg):  # call events only: no line tracing is asked for
    ran.add(frame.f_code)


sys.settrace(trace)
from twistlab import cli

for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(argv)
    if status != 0:
        sys.exit(f"{argv} exited {status}")
sys.settrace(None)
print(json.dumps(sorted((code.co_filename, code.co_qualname, code.co_firstlineno)
                        for code in ran if code.co_filename.startswith(sys.argv[1]))))
"""


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def traced_names():
    """``module.attr`` of every name the benchmark's tracer wraps or reads."""
    tracer = _load("tracer")
    return {f"{module}.{attr}" for module, attr, *_ in tracer.SPANS + tracer.COUNTS + tracer.CACHED}


def traffic(tmp_path) -> list:
    """Every command line the check runs, in order."""
    workloads = _load("workloads").WORKLOADS.values()
    readme = re.findall(r"^twistlab (.*?)(?:#.*)?$", (ROOT / "README.md").read_text(), re.M)
    datum = tmp_path / "complex.json"
    datum.write_text(json.dumps(COMPLEX_DATUM))
    out = str(tmp_path / "out")
    return [
        *(w.argv(0) for w in workloads),
        *map(shlex.split, readme),
        ["polys", "--K", "16", "--instance", str(datum)],
        ["polys", "--K", "2", "--out", out],
        ["euler", "--primes", "2", "--out", out],
        ["twist-grid", "--sigma-grid", "2", "--t", "0", "--alphas", "1/2", "--out", out],
    ]


def definitions() -> dict:
    """{(file, qualname, first line): ``module.qualname``} of every def in the
    package, nested ones included; lambdas, comprehensions and class bodies
    are not defs."""
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        todo = [compile(path.read_text(), str(path), "exec")]
        while todo:
            code = todo.pop()
            todo.extend(c for c in code.co_consts if inspect.iscode(c))
            if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<"):
                defs[(str(path), code.co_qualname, code.co_firstlineno)] = (
                    f"{path.stem}.{code.co_qualname}")
    return defs


def _covers(names, name) -> bool:
    return any(name == n or name.startswith(n + ".") for n in names)


@pytest.fixture(scope="module")
def never_ran(tmp_path_factory, checkout_env) -> set:
    """``module.qualname`` of every def no command line of ``traffic`` ran."""
    tmp_path = tmp_path_factory.mktemp("traffic")
    argvs = traffic(tmp_path)
    assert {argv[0] for argv in argvs} == {"polys", "verify", "euler", "twist-grid"}
    result = subprocess.run(
        [sys.executable, "-c", CHILD, str(PACKAGE), json.dumps(argvs)],
        capture_output=True, text=True, env=checkout_env, cwd=ROOT, timeout=120)
    assert result.returncode == 0, result.stderr
    ran = {tuple(key) for key in json.loads(result.stdout)}
    return {name for key, name in definitions().items() if key not in ran}


def test_every_definition_runs_under_a_command_or_is_kept(never_ran):
    exempt = KEPT.keys() | traced_names()
    unexplained = sorted(name for name in never_ran if not _covers(exempt, name))
    assert unexplained == [], "no command runs these; delete them or move them to tests/"


def test_every_kept_name_exists_and_never_ran(never_ran):
    names = set(definitions().values())
    for name in KEPT:
        covered = {d for d in names if _covers({name}, d)}
        assert covered and covered <= never_ran, name


def test_every_module_reads_every_name_it_imports():
    # the package's __init__ imports only to re-export
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                unread += [f"{path.stem}.{name}" for name in
                           (alias.asname or alias.name.partition(".")[0] for alias in node.names)
                           if name not in read]
    assert unread == []
