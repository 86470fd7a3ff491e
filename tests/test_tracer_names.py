"""The benchmark's tracer fetches package names by getattr, and its grid
check calls the divisor stream directly; a rename or a dropped parameter in
the package must fail here rather than only under the benchmark."""

import importlib
import importlib.util
from pathlib import Path

import mpmath as mp

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
