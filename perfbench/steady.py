"""Steadiness check: do two sets of runs of the same code agree?

Run from the root of a dsx checkout:

    python3 perfbench/steady.py

It takes two sets of ten rounds, the second after the first ends.  A
round runs every workload of BENCHMARK.json once, each with its own
seed, in an order that rotates from round to round, so no workload runs
in a block.  For each workload and end-to-end metric the command prints
both sets' medians and quartiles and the quartile spread as a share of
the median.  It says the sets agree when the second median is within the
metric's bound of the first, in either direction, and when every spread
is within the bound.  The spread of setup_s is printed but not gated, as
in the benchmark's acceptance rule: a set-up is a few short process
launches, and its spread follows the machine's pace.  Any failed
operation makes the result not steady.  Between runs it times a fixed
pure-Python reference loop; if the reference loop's median moves between
the sets as much as a metric does, the machine changed pace, not the
program.  Exit status 0 means steady.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT_FILE = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
RUNS = 10
SETS = 2
# the benchmark's acceptance rule leaves this metric's spread ungated
SPREAD_UNGATED = ("setup_s",)


def reference_loop():
    """Seconds for a fixed pure-Python loop (about 0.07 s here)."""
    start = time.perf_counter()
    acc = 0
    for i in range(600_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def quartiles(values):
    return statistics.quantiles(values, n=4)


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def one_run(bench, workload, seed):
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr[-500:]}")
    result = json.loads(lines[-1])
    result["elapsed_s"] = elapsed
    return result


def run_set(bench, names, runs, first_seed, log):
    results = {w: [] for w in names}
    reference = []
    for i in range(runs):
        shift = i % len(names)
        for w in names[shift:] + names[:shift]:
            reference += [reference_loop() for _ in range(3)]
            r = one_run(bench, w, first_seed + i)
            results[w].append(r)
            log(f"  {w:17s} seed {first_seed + i:3d} "
                f"{r['elapsed_s']:6.1f} s  failed {r['failed']}/{r['attempted']}"
                f"  " + "  ".join(f"{k}={v['value']:.4g}"
                                  for k, v in r["metrics"].items()))
    return {"results": results, "reference_s": reference}


def summarize(bench, sets, log):
    ok = True
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ref = [s["reference_s"] for s in sets]
    log("reference loop: " + "; ".join(
        f"set {k + 1} median {statistics.median(r):.4f} s, spread "
        f"{100 * spread(r):.1f}%, min {min(r):.4f} s"
        for k, r in enumerate(ref)))
    log(f"reference loop median moved "
        f"{100 * (statistics.median(ref[1]) / statistics.median(ref[0]) - 1):+.1f}%"
        " between sets")
    for w in sets[0]["results"]:
        failed = [sum(r["failed"] for r in s["results"][w]) for s in sets]
        log(f"{w}: failed operations " + ", ".join(map(str, failed)))
        if any(failed):
            ok = False
        for m, bound in bounds.items():
            vals = [[r["metrics"][m]["value"] for r in s["results"][w]]
                    for s in sets]
            parts = []
            for v in vals:
                q1, q2, q3 = quartiles(v)
                sp = spread(v)
                parts.append(f"median {q2:.4f} [{q1:.4f}, {q3:.4f}] "
                             f"spread {100 * sp:.1f}%")
                if m not in SPREAD_UNGATED and sp > bound:
                    parts[-1] += " (over bound)"
                    ok = False
            line = f"  {m:12s} " + " | ".join(parts)
            move = statistics.median(vals[1]) / statistics.median(vals[0]) - 1
            agree = abs(move) <= bound
            ok = ok and agree
            line += (f" | moved {100 * move:+.1f}% (bound "
                     f"{100 * bound:.0f}%): {'agree' if agree else 'DISAGREE'}")
            log(line)
    return ok


def main():
    with open(ROOT_FILE) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]

    def log(msg):
        print(msg, flush=True)

    sets = []
    for k in range(SETS):
        log(f"set {k + 1} started {time.strftime('%H:%M:%S')}")
        sets.append(run_set(bench, names, RUNS, 1 + 100 * k, log))
    ok = summarize(bench, sets, log)
    log("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
