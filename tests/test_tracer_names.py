"""The benchmark's tracer fetches package names by getattr and binds some of
their parameters by name, and its grid check calls the divisor stream
directly; a rename or a dropped parameter in the package must fail here
rather than only under the benchmark."""

import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp

from twistlab import twist
from twistlab.twist import divisor_stream

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _tracer()
    for module, attr, _ in tracer.SPANS + tracer.COUNTS:
        owner = importlib.import_module(f"twistlab.{module}")
        if "." in attr:
            cls_name, method = attr.split(".")
            # the tracer wraps the method found in the class's own namespace
            assert callable(vars(getattr(owner, cls_name))[method]), (module, attr)
        else:
            assert callable(getattr(owner, attr)), (module, attr)
    for module, attr in tracer.CACHED:
        getattr(importlib.import_module(f"twistlab.{module}"), attr).cache_info()


def test_grid_check_calls_resolve():
    bound = divisor_stream(shared=False).tail_bound(100_000, 2)
    assert 0 < bound < mp.mpf("1e-3")


def test_twist_direct_binds_n_max():
    # the tracer adds the bound n_max of every twist_direct call to its terms
    for args in ((3, Fraction(1, 2)), (3, Fraction(1, 2), 50)):
        bound = inspect.signature(twist.twist_direct).bind(*args)
        bound.apply_defaults()
        assert type(bound.arguments["n_max"]) is int


TRACED_CALLS = """
import importlib.util, json, sys
from fractions import Fraction
import mpmath as mp
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
t = tracer.Tracer("names")
t.install()
from twistlab import special, twist
mp.mp.prec = 128
s, a = mp.mpc(3, 1), Fraction(1, 3)
special.hurwitz_zeta(s, a)
special.hurwitz_zeta(s=s, a=a)
twist.zeta2_twist_oracle(s, Fraction(2, 5))
twist.zeta2_twist_oracle(s=s, alpha=Fraction(-3, 5))
twist.twist_direct(3, Fraction(1, 2))
twist.twist_direct(3, Fraction(1, 2), n_max=50)
print(json.dumps(t.dump()["counts"]))
"""


def test_key_lambdas_accept_the_call_shapes(checkout_env):
    # the tracer installs in a child, so its wrappers stay out of this process
    result = subprocess.run(
        [sys.executable, "-c", TRACED_CALLS, str(PERFBENCH / "tracer.py")],
        capture_output=True, text=True, check=True, env=checkout_env)
    counts = json.loads(result.stdout)
    assert counts["twist.twist_direct.terms"] == 100_000 + 50
    assert counts["twist.zeta2_twist_oracle.distinct"] == 1  # 2/5 = -3/5 mod 1
    assert counts["special.hurwitz_zeta.distinct"] >= 1


def test_traced_euler_times_every_euler_solve(checkout_env):
    # cli binds the Euler solve at module level, so the tracer's rebinding of
    # transform.euler_factor_at_1 reaches each call of the command
    result = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), "trace", "euler-spans", "--",
         "euler", "--primes", "2,3,5"],
        capture_output=True, text=True, check=True, env=checkout_env, timeout=60)
    run = json.loads(result.stdout.splitlines()[-1])
    assert run["status"] == 0
    names = [name for _, name, *_ in run["trace"]["spans"]]
    assert names.count("transform.euler_factor_at_1") == 3
