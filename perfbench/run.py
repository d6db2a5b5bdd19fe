"""Benchmark for the dsx command line.

Run from the root of a dsx checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 every timed command runs as a fresh `python -m dsx.cli`
process; the run sets up its inputs setup_repeats times, then repeats the
workload's commands until S seconds have passed (and at least min_reps
times), and reports the median repetition.  With --trace 1 each command
runs once as a process (for the untraced time and the interpreter
overhead: wall time minus the report's timings.total_s) and once
in-process under tracing.py's wrappers, and the run reports per-layer
metrics and writes its spans to perfbench/out/.  A traced run re-executes
itself with PYTHONHASHSEED=0, the hash seed of the process pass, so that
both passes iterate sets in the same order.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Exit status 2 means the
benchmark could not run at all (no dsx source, unknown workload).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

import workloads
from runner import InProcessRunner, ProcessRunner

HERE = os.path.dirname(os.path.abspath(__file__))


class Tally:
    """Operations attempted and failed; problems go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems[:5]:
                print(f"FAILED {what}: {p}", file=sys.stderr)


def _setup_problems(op):
    problems = [] if op.status == 0 else [f"exit status {op.status} {op.error}"]
    return problems + workloads.checks_pass(op.report, ())


def _setup(wl, runner, work, seed, tally):
    ctx, ops = wl.setup(runner, work, seed)
    for op in ops:
        tally.record(f"set-up {' '.join(op.argv[2:])}", _setup_problems(op))
    return ctx


def _problems(check, *args):
    """A checker's findings; a checker that raises on malformed program
    output is a finding too, not a crash of the benchmark."""
    try:
        return check(*args)
    except Exception as exc:
        return [f"checker raised {type(exc).__name__}: {exc}"]


def _check(wl, tally, label, op, ctx, how=""):
    problems = [op.error] if op.error else []
    problems += _problems(wl.check, label, op.status, op.report, ctx)
    tally.record(f"{label}{how}", problems)


def _run_s(op):
    """Time the command spent in dsx.cli.run after argument parsing, as
    its report gives it."""
    return op.report.get("timings", {}).get("total_s", 0.0)


def timed_run(wl, seed, seconds, root, work):
    runner = ProcessRunner(root, work)
    tally = Tally()
    setup_times = []
    for _ in range(wl.setup_repeats):
        start = time.perf_counter()
        ctx = _setup(wl, runner, work, seed, tally)
        setup_times.append(time.perf_counter() - start)
    tally.record("set-up output", _problems(wl.setup_check, ctx))
    commands = wl.commands(ctx)
    reps = []
    peak_mb = 0.0
    start = time.perf_counter()
    while len(reps) < wl.min_reps or time.perf_counter() - start < seconds:
        total = 0.0
        for label, argv in commands:
            op = runner.dsx(argv)
            total += op.wall_s
            peak_mb = max(peak_mb, op.rss_mb)
            _check(wl, tally, label, op, ctx)
        reps.append(total)
    print(f"{wl.name} seed {seed}: set-up {setup_times}, repetitions {reps}",
          file=sys.stderr)
    metrics = {
        "verdict_s": {"value": statistics.median(reps), "unit": "s"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }
    return tally, metrics


def traced_run(wl, seed, root, work):
    sys.path.insert(0, os.path.join(root, "src"))
    import tracing
    tracer = tracing.Tracer()
    tracer.install()
    tally = Tally()
    inproc = InProcessRunner(tracer)
    procs = ProcessRunner(root, work)
    try:
        ctx = _setup(wl, inproc, work, seed, tally)
        setup_ops = list(inproc.ops)
        tally.record("set-up output", _problems(wl.setup_check, ctx))
        commands = []
        for label, argv in wl.commands(ctx):
            plain = procs.dsx(argv)
            _check(wl, tally, label, plain, ctx, " (process)")
            traced = inproc.dsx(argv, label=label)
            _check(wl, tally, label, traced, ctx, " (traced)")
            commands.append({"label": label, "argv": argv,
                             "wall_s": plain.wall_s,
                             "run_s": _run_s(plain),
                             "traced_run_s": _run_s(traced)})
        tally.record("traced checks",
                     _problems(wl.traced_check, tracer.captures, ctx))
    finally:
        tracer.uninstall()
    overhead = sum(c["wall_s"] - c["run_s"] for c in commands)
    untraced = sum(c["wall_s"] for c in commands)
    traced = sum(c["traced_run_s"] for c in commands) + overhead
    metrics = tracing.layer_metrics(tracer, overhead)
    summary = {"workload": wl.name, "seed": seed, "verdict_s": untraced,
               "traced_verdict_s": traced,
               "tracing_overhead": traced / untraced - 1.0,
               "set_up_commands": setup_ops,
               "commands": commands, "self_times": tracer.self_times(),
               "counters": tracer.counters,
               "metrics": {k: v["value"] for k, v in metrics.items()}}
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{wl.name}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump(dict(summary, spans=tracer.dump()), fh)
    print(f"{wl.name} seed {seed}: verdict {untraced:.3f} s untraced, "
          f"{traced:.3f} s traced ({100 * summary['tracing_overhead']:+.1f}%); "
          f"spans in {os.path.relpath(path)}", file=sys.stderr)
    return tally, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    if ns.trace and argv is None and os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED="0"))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dsx", "cli.py")):
        print("perfbench: run from the root of a dsx checkout "
              "(src/dsx/cli.py not found)", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS.get(ns.workload)
    if wl is None:
        print(f"perfbench: unknown workload {ns.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = os.path.join(HERE, "work", f"{wl.name}-{ns.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        if ns.trace:
            tally, metrics = traced_run(wl, ns.seed, root, work)
        else:
            tally, metrics = timed_run(wl, ns.seed, ns.seconds, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
