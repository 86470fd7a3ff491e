"""One twistlab CLI invocation in a fresh interpreter, for the benchmark.

usage: python3 perfbench/child.py MODE RUN_ID -- CLI-ARGS...

MODE is ``run`` (plain invocation), ``trace`` (every public function wrapped
by ``tracer.Tracer``) or ``setup`` (stop where the subcommand would start).
The CLI's standard output is captured, and the last line printed is one JSON
object: the exit status, the CLOCK_MONOTONIC time at which the subcommand
was about to run, the peak resident memory, the captured output and, in trace
mode, spans and counts.  The caller puts the package's ``src`` directory on
PYTHONPATH.
"""

import contextlib
import io
import json
import sys
import time


def peak_rss_mb() -> float:
    """Peak resident memory of this process image, from Linux's VmHWM.

    ``ru_maxrss`` is no substitute, in the parent's ``wait4`` or here: Linux
    carries the launching process's own high-water mark across fork and exec.
    """
    with open("/proc/self/status") as fh:
        kib = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    return int(kib) / 1024


def main() -> None:
    mode, run_id, sep, *argv = sys.argv[1:]
    if mode not in ("run", "trace", "setup") or sep != "--":
        raise SystemExit("usage: child.py run|trace|setup RUN_ID -- CLI-ARGS...")

    import twistlab.cli as cli

    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer(run_id)
        tracer.install()

    ready = []

    def stamped(command):
        def run(cfg):
            ready.append(time.monotonic())
            return 0 if mode == "setup" else command(cfg)

        return run

    for name in ("cmd_polys", "cmd_verify", "cmd_euler", "cmd_twist_grid"):
        setattr(cli, name, stamped(getattr(cli, name)))

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else 1
    result = {
        "status": status,
        "ready": ready[0] if ready else None,
        "peak_rss_mb": peak_rss_mb(),
        "stdout": out.getvalue(),
        "trace": tracer.dump() if tracer else None,
    }
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
