"""Outside-in tracing of the twistlab package.

The package has no tracing of its own, so this module wraps its public
functions from outside: every module attribute bound to a traced function is
replaced by a wrapper that records a span, and a few hot helpers get a
plain call counter instead.  Spans are kept in memory as
``(run_id, name, start, end, parent)`` and handed to the caller when the
traced process is done; ``analyse`` turns them into per-function and
per-layer self times in the benchmark's own process.
"""

from __future__ import annotations

import functools
import inspect
import importlib
import time
from collections import Counter, defaultdict
from fractions import Fraction

LAYERS = (
    "cli", "reports", "funceq", "bernoulli", "exactpoly",
    "expansion", "special", "twist", "transform",
)

#: (module, attribute, span name) of every function timed by a span.
SPANS = (
    ("cli", "cmd_polys", "cli.command"),
    ("cli", "cmd_verify", "cli.command"),
    ("cli", "cmd_euler", "cli.command"),
    ("cli", "cmd_twist_grid", "cli.command"),
    ("reports", "Report.render_text", None),
    ("funceq", "load_datum", None),
    ("bernoulli", "default_table", None),
    ("expansion", "q_poly", None),
    ("expansion", "v_poly", None),
    ("expansion", "r_poly", None),
    ("expansion", "a_coeff", None),
    ("twist", "twist_direct", None),
    ("twist", "DivisorStream.ensure", None),
    ("twist", "additive_from_mult_identity_check", None),
    ("twist", "half_twist_coefficient_identity", None),
    ("twist", "zeta2_twist_oracle", None),
    ("twist", "zeta2_twist_batch", None),
    ("special", "hurwitz_zeta", None),
    ("special", "dirichlet_l", None),
    ("transform", "laurent_extract", None),
    ("transform", "transformation_main_term", None),
    ("transform", "contour_integral", None),
    ("transform", "twist_laurent_table", None),
    ("transform", "transformation_polar_consistency", None),
    ("transform", "verify_chi_holomorphy", None),
    ("transform", "growth_certificate", None),
    ("transform", "identity_reduction_check", None),
    ("transform", "euler_factor_at_1", None),
)

#: (module, attribute, counter name) of helpers called too often for a span;
#: they are counted, and their time stays with the calling span.
COUNTS = (
    ("special", "unit_phase", "special.unit_phase"),
    ("special", "gauss_sum", "special.gauss_sum"),
    ("exactpoly", "Polynomial.__mul__", "exactpoly.Polynomial.mul"),
    ("exactpoly", "GaussianRational.__mul__", "exactpoly.GaussianRational.mul"),
    ("exactpoly", "GaussianRational.__rmul__", "exactpoly.GaussianRational.mul"),
)

#: lru_cache-wrapped functions whose cache_info() is reported.
CACHED = (("expansion", "q_poly"), ("expansion", "v_poly"), ("expansion", "r_poly"))


def _raw(x):
    """Exact hashable form of an mpmath/rational argument."""
    for attr in ("_mpc_", "_mpf_"):
        if hasattr(x, attr):
            return getattr(x, attr)
    return x


class Tracer:
    """Span recorder for one traced process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.keys: dict[str, set] = defaultdict(set)
        self.cached: dict[str, object] = {}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import mpmath as mp

        modules = [importlib.import_module("twistlab")] + [
            importlib.import_module(f"twistlab.{name}") for name in LAYERS
        ]
        prec = lambda precision: precision or mp.mp.prec  # noqa: E731
        keys = {
            "special.hurwitz_zeta": lambda s, a, precision=None: (
                _raw(mp.mpc(s)), _raw(a), prec(precision)),
            "twist.zeta2_twist_oracle": lambda s, alpha, precision=None: (
                _raw(mp.mpc(s)), Fraction(alpha) % 1, prec(precision)),
        }
        for module, attr in CACHED:
            self.cached[f"{module}.{attr}"] = getattr(
                importlib.import_module(f"twistlab.{module}"), attr)
        for module, attr, name in SPANS:
            name = name or f"{module}.{attr}"
            self._replace(modules, module, attr,
                          lambda fn, n=name: self._span(n, fn, keys.get(n)))
        for module, attr, name in COUNTS:
            self._replace(modules, module, attr,
                          lambda fn, n=name: self._counter(n, fn))

    @staticmethod
    def _replace(modules, module, attr, make) -> None:
        owner = importlib.import_module(f"twistlab.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, make(cls.__dict__[meth]))
            return
        original = getattr(owner, attr)
        wrapper = make(original)
        for mod in modules:
            for binding, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, binding, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, name, fn, key=None):
        spans, stack, counts = self.spans, self.stack, self.counts
        run_id = self.run_id
        seen = self.keys[name]
        signature = inspect.signature(fn)

        def argument(args, kwargs, param):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return bound.arguments[param]

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if key is not None:
                seen.add(key(*args, **kwargs))
            if name == "twist.twist_direct":
                counts[name + ".terms"] += argument(args, kwargs, "n_max")
            elif name == "transform.laurent_extract":
                f = args[0]

                def sampled(s):
                    counts[name + ".samples"] += 1
                    return f(s)

                args = (sampled,) + args[1:]
            record = [run_id, name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                stack.pop()

        return spanned

    # -- output -------------------------------------------------------------

    def dump(self) -> dict:
        counts = dict(self.counts)
        for name, seen in self.keys.items():
            if seen:
                counts[name + ".distinct"] = len(seen)
        for name, fn in self.cached.items():
            info = fn.cache_info()
            counts[name + ".cache_hits"] = info.hits
            counts[name + ".cache_misses"] = info.misses
        return {"run_id": self.run_id, "spans": self.spans, "counts": counts}


def analyse(spans) -> tuple[dict, dict, float]:
    """Per-name {calls, total_s, self_s}, per-layer self seconds, and the
    time covered by root spans.

    A span's self time is its duration minus the time its direct children
    cover; spans of one process nest strictly, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for _, _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    per_name: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    layers = {layer: 0.0 for layer in LAYERS}
    covered = 0.0
    for (_, name, start, end, parent), inner in zip(spans, child_time):
        entry = per_name[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - inner
        layers[name.split(".")[0]] += end - start - inner
        if parent < 0:
            covered += end - start
    return dict(per_name), layers, covered
