"""twistlab benchmark: CLI workloads timed end to end, and a traced run per layer.

One workload (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload verify --seed 3 --seconds 25 --trace 0

Every workload, with a table of each end-to-end metric (unit, sample count)
and the failed-check ratio; exits 1 when any output check fails.  With
``--trace 1`` it adds the traced per-layer run, and ``--write`` stores the
results with the run metadata:

    python3 perfbench/run.py --all --seconds 25 --trace 1 --write perfbench/BENCH_seed.json

End-to-end numbers come only from untraced invocations.  The traced run pairs
each traced invocation with an untraced one, so ``trace.overhead_ratio`` is
measured on the same host state.
"""

from __future__ import annotations

import argparse
import compileall
import functools
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import LAYERS, analyse
from workloads import PREDICTIONS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: setup-only launches per run, on top of one setup per full invocation
SETUP_LAUNCHES = 5
#: a run must end within 180 s whatever the workload does
DEADLINE_S = 170.0


@functools.cache
def units(kind: str) -> dict:
    """Metric name -> unit of the ``end_to_end`` or ``per_layer`` metrics, in
    the order BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


#: per-layer metrics that are counts: every traced invocation must repeat them
COUNT_SUFFIXES = (".calls", ".terms", ".samples", ".distinct", ".cache_hits", ".cache_misses")


@dataclass
class Invocation:
    ok: bool
    wall_s: float
    setup_s: float | None
    peak_rss_mb: float
    stdout: str
    trace: dict | None


def invoke(mode: str, argv: list, run_id: str, timeout: float) -> Invocation:
    """Run child.py once in a fresh interpreter and wait for it to end."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "child.py"), mode, run_id, "--", *argv]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            env=env, cwd=ROOT)
    timer = threading.Timer(max(timeout, 1.0), proc.kill)
    timer.start()
    try:
        output = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    wall = time.monotonic() - start
    lines = output.decode(errors="replace").rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    ok = proc.returncode == 0 and result is not None and result["status"] == 0
    if not ok:
        print(f"invocation failed ({mode} {' '.join(argv)}, exit {proc.returncode}):",
              *lines[-20:], sep="\n", file=sys.stderr)
    if result is None:
        return Invocation(False, wall, None, 0.0, "", None)
    ready = result["ready"]
    return Invocation(ok, wall, None if ready is None else ready - start,
                      result["peak_rss_mb"], result["stdout"], result["trace"])


def calibrate() -> float:
    """Median time of a fixed 128-bit mpmath loop in this process; shows host
    drift between sets of runs.  It is reported, never divided out."""
    import mpmath as mp

    times = []
    with mp.workprec(128):
        minus_s = mp.mpc(-2.5, 0)
        for _ in range(5):
            start = time.perf_counter()
            total = mp.mpc(0)
            for n in range(1, 3001):
                total += mp.power(n, minus_s)
            times.append(time.perf_counter() - start)
    return statistics.median(times)


def layer_metrics(inv: Invocation) -> tuple[dict, float]:
    """Per-layer metrics of one traced invocation, and the gap between the
    summed self times and the time the root spans cover (0 up to rounding)."""
    per_name, layers, covered = analyse(inv.trace["spans"])
    counts = inv.trace["counts"]
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    out = {}
    for metric in units("per_layer"):
        name, _, kind = metric.rpartition(".")
        span = per_name.get(name, empty)
        if name in layers and kind == "self_s":
            value = layers[name]
        elif kind in ("self_s", "total_s"):
            value = span[kind]
        elif kind == "calls":
            value = span["calls"] if name in per_name else counts.get(name, 0)
        elif kind == "distinct_ratio":
            value = counts.get(name + ".distinct", 0) / max(span["calls"], 1)
        elif kind == "cache_hit_ratio":
            hits, misses = counts[name + ".cache_hits"], counts[name + ".cache_misses"]
            value = hits / max(hits + misses, 1)
        elif kind == "terms_per_s":
            value = counts.get(name + ".terms", 0) / span["self_s"] if span["self_s"] else 0.0
        elif name.startswith(("trace", "host")):
            continue
        else:
            value = counts.get(metric, 0)
        out[metric] = value
    out["trace.wall_s"] = inv.wall_s
    out["trace.untraced_s"] = inv.wall_s - covered
    return out, abs(sum(layers.values()) - covered)


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of one workload; see the module docstring."""
    workload = WORKLOADS[name]
    argv = workload.argv(seed)
    expectation = workload.expect(argv)
    run_id = f"{name}-{seed}-{os.getpid()}"
    calibration = calibrate()
    print(f"{name} seed {seed}: twistlab {' '.join(argv)}; "
          f"calibration {calibration:.4f} s", file=sys.stderr)
    start = time.monotonic()
    remaining = lambda: start + DEADLINE_S - time.monotonic()  # noqa: E731
    attempted = failed = 0
    clean = True

    def run(mode):
        nonlocal attempted, failed, clean
        inv = invoke(mode, argv, run_id, remaining())
        if mode != "setup":
            n, bad = workload.check(inv.stdout, expectation)
            attempted += n
            failed += n if not inv.ok else bad
        clean = clean and inv.ok and inv.setup_s is not None
        print(f"{name} {mode}: wall {inv.wall_s:.4f} s, setup {inv.setup_s or 0:.4f} s, "
              f"peak rss {inv.peak_rss_mb:.2f} MB", file=sys.stderr)
        return inv

    def more(durations):
        # stop where the run's expected end lies closest to ``seconds``
        return time.monotonic() - start + statistics.median(durations) / 2 <= seconds

    if not trace:
        setups = [run("setup").setup_s for _ in range(SETUP_LAUNCHES)]
        runs = [run("run")]
        while clean and more([r.wall_s for r in runs]):
            runs.append(run("run"))
        metrics = {
            "wall_s": statistics.median(r.wall_s for r in runs),
            "setup_s": statistics.median(
                [s for s in setups + [r.setup_s for r in runs] if s is not None] or [0.0]),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
        }
        samples = {"wall_s": len(runs), "setup_s": len(setups) + len(runs),
                   "peak_rss_mb": len(runs)}
    else:
        pairs = []
        while clean and (not pairs or more([b.wall_s + t.wall_s for b, t in pairs])):
            pairs.append((run("run"), run("trace")))
        per_pair, counts_repeat, accounted = [], True, True
        for base, traced in pairs:
            if traced.trace is None:
                continue
            values, gap = layer_metrics(traced)
            values["trace.untraced_wall_s"] = base.wall_s
            values["trace.overhead_ratio"] = traced.wall_s / base.wall_s
            accounted = accounted and gap <= 1e-6 * max(values["trace.wall_s"], 1.0)
            per_pair.append(values)
        for metric in units("per_layer"):
            if metric.endswith(COUNT_SUFFIXES):
                counts_repeat = counts_repeat and len({v[metric] for v in per_pair}) == 1
        metrics = {m: statistics.median(v[m] for v in per_pair) if per_pair else 0.0
                   for m in units("per_layer") if m != "host.calibration_s"}
        metrics["host.calibration_s"] = calibration
        clean = clean and bool(per_pair) and counts_repeat and accounted
        samples = {m: len(per_pair) for m in metrics}
    unit = units("per_layer" if trace else "end_to_end")
    return {
        "workload": name,
        "seed": seed,
        "argv": argv,
        "correct": clean and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "calibration_s": calibration,
        "samples": samples,
        "metrics": {m: {"value": v, "unit": unit[m]} for m, v in metrics.items()},
    }


def metadata() -> dict:
    import mpmath
    import numpy
    from twistlab.cli import RunConfig

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": numpy.__version__,
        "precision_bits": RunConfig().precision,
    }


def run_all(seed: int, seconds: float, trace: bool, write: str | None) -> int:
    results, ok = {}, True
    print(f"{'workload':8} {'metric':12} {'median':>12} {'unit':5} {'n':>3}")
    for name in WORKLOADS:
        plain = measure(name, seed, seconds, trace=False)
        results[name] = {"untraced": plain}
        ok = ok and plain["correct"]
        for metric, entry in plain["metrics"].items():
            print(f"{name:8} {metric:12} {entry['value']:12.4f} {entry['unit']:5} "
                  f"{plain['samples'][metric]:3d}")
        ratio = plain["failed"] / max(plain["attempted"], 1)
        print(f"{name:8} {'failed_ratio':12} {ratio:12.4f} {'1':5} {plain['attempted']:3d}"
              f"  ({plain['failed']} of {plain['attempted']} checks failed)")
        print(f"{name:8} {'calibration':12} {plain['calibration_s']:12.4f} {'s':5}")
        if not trace:
            continue
        # the next seed picks other inputs of equal cost: its counts must match
        traced = [measure(name, s, seconds, trace=True) for s in (seed, seed + 1)]
        values = [{m: e["value"] for m, e in t["metrics"].items()} for t in traced]
        same = all(values[0][m] == values[1][m] for m in units("per_layer") if m.endswith(COUNT_SUFFIXES))
        results[name].update(traced=traced, counts_equal_across_seeds=same)
        ok = ok and same and all(t["correct"] for t in traced)
        v = values[0]
        spans = {m: x for m, x in v.items() if m.endswith(".self_s") and m.count(".") > 1}
        top = max(spans, key=spans.get)
        layers = sum(v.get(f"{layer}.self_s", 0.0) for layer in LAYERS)
        print(f"{name:8} traced wall {v['trace.wall_s']:.3f} s = layers {layers:.3f} s"
              f" + untraced {v['trace.untraced_s']:.3f} s; overhead"
              f" x{v['trace.overhead_ratio']:.3f}; top self time {top}"
              f" {spans[top] / v['trace.wall_s']:.1%}; counts equal for seeds"
              f" {seed} and {seed + 1}: {same}")
    if write:
        Path(write).write_text(json.dumps({
            "metadata": metadata(),
            "seed": seed,
            "seconds": seconds,
            "workloads": {name: w.why for name, w in WORKLOADS.items()},
            "predictions": PREDICTIONS,
            "results": results,
        }, indent=1) + "\n")
    print("all output checks passed" if ok else "OUTPUT CHECKS FAILED")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", help="with --all: store results as JSON here")
    args = parser.parse_args()
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    if not (SRC / "twistlab" / "cli.py").is_file():
        print(f"no twistlab sources under {SRC}", file=sys.stderr)
        return 2
    # Invocations read bytecode as an installed package would, whether or not
    # the environment lets imports write it; compiling happens outside timing.
    compileall.compile_dir(SRC / "twistlab", quiet=1)
    sys.path.insert(0, str(SRC))

    if args.all:
        return run_all(args.seed, args.seconds, bool(args.trace), args.write)
    print(json.dumps(metadata()), file=sys.stderr)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
