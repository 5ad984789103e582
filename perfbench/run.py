#!/usr/bin/env python3
"""End-to-end benchmark of flor's hindsight-logging service.

    python3 perfbench/run.py --workload ingest|lookup|replay --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout. Builds flor_perfbench from the
checkout's own sources (CMake, into .bench_build/perfbench), runs one
workload on a fresh root under .bench_build/work, checks every answer, and
prints the metrics: a table for people, then as the last line one JSON
object {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics; --trace 1 runs the same workload untraced and then
traced, and reports the per-layer metrics (the untraced run is the base of
trace.overhead_frac). Exits 1 on any wrong answer, 2 when it cannot run.

--seconds sizes each client's fixed operation list (calibrated so the
measured phase takes about that long on a 4-core host); the run itself
ends when the lists are done, never on a timer.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ingest", "lookup", "replay")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(build_root):
    """Configures (once) and builds flor_perfbench; returns its path."""
    if not os.path.exists(os.path.join(ROOT, "src", "service", "server.h")):
        fail("flor sources not found next to perfbench/; run from a checkout")
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_root, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(build_dir, ignore_errors=True)
                fail("cmake configure failed")
        cmd = ["cmake", "--build", build_dir, "-j",
               str(min(4, os.cpu_count() or 1))]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed")
    return os.path.join(build_dir, "flor_perfbench")


def run_once(binary, args, traced, work_root, tag):
    """Runs flor_perfbench once on a fresh work dir; returns (raw, code)."""
    work = os.path.join(work_root, "%s-%d-%s-%d" % (args.workload, args.seed,
                                                    tag, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "tmp"))
    out = os.path.join(work, "raw.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if traced else "0",
           "--workdir", work, "--out", out]
    if traced:
        spans = os.path.join(work_root, "spans-%s-seed%d.tsv"
                             % (args.workload, args.seed))
        cmd += ["--spans", spans]
    env = dict(os.environ, TMPDIR=os.path.join(work, "tmp"))
    proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
        fail("flor_perfbench timed out after %d s" % RUN_TIMEOUT_S)
    raw = None
    if os.path.exists(out):
        with open(out) as f:
            raw = json.load(f)
    shutil.rmtree(work, ignore_errors=True)
    if raw is None:
        fail("flor_perfbench exited %d without a result" % code)
    return raw, code


def fmt(value):
    if value is None:
        return "n/a"
    return "%.6g" % value


def print_table(title, rows):
    print(title)
    for name, value, unit, note in rows:
        print("  %-42s %14s %-6s %s" % (name, fmt(value), unit, note))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    build_root = os.path.join(os.getcwd(), ".bench_build")
    binary = build(build_root)
    work_root = os.path.join(build_root, "work")
    os.makedirs(work_root, exist_ok=True)

    base, code = run_once(binary, args, False, work_root, "plain")
    raws = [base]
    if args.trace:
        traced, traced_code = run_once(binary, args, True, work_root,
                                         "traced")
        raws.append(traced)
        code = code or traced_code
    shown = raws[-1]

    attempted = len(shown["ops"])
    bad = [f for raw in raws for f in raw["failures"]]
    failed_ops = sum(1 for o in shown["ops"] if not o["ok"])
    correct = code == 0 and not bad

    print("perfbench %s seed=%d seconds=%g clients=%d trace=%d"
          % (args.workload, args.seed, args.seconds, shown["clients"],
             args.trace))
    print("  measured on PosixFileSystem under .bench_build/work, WallClock, "
          "device time zeroed; nothing modeled")
    if not base.get("rss_reset", False):
        print("  note: the kernel refused to reset the peak-RSS mark, so "
              "peak_rss_mb includes set-up")
    e2e = metrics.end_to_end(base)
    units = dict(metrics.END_TO_END)
    print_table("end to end (untraced run):",
                [(k, e2e[k], units[k], "") for k, _ in metrics.END_TO_END] +
                [(k, v, "ms", "n=%d" % n)
                 for k, v, n in metrics.per_op_latency(base)] +
                [("failed_frac", metrics.failed_frac(base), "ratio",
                  "of %d ops" % len(base["ops"]))])
    result = e2e
    units_out = units
    if args.trace:
        layer = metrics.per_layer(shown, e2e["ops_per_s"])
        units_out = dict(metrics.PER_LAYER)
        print_table("per layer (traced run):",
                    [(k, layer[k], units_out[k], "")
                     for k, _ in metrics.PER_LAYER])
        print("env.fs calls by op.path_class.thread_class (traced run):")
        for cell, (calls, nbytes, nanos, entries) in sorted(
                shown["fs"].items()):
            print("  %-38s %8d calls %12d B %10.3f ms %8d entries"
                  % (cell, calls, nbytes, nanos / 1e6, entries))
        print("  note: reads and writes inside forked procs-engine workers "
              "are not visible from outside the process; env.fs.* and "
              "workloads.* count the parent only, and no metric of the "
              "children is reported")
        result = layer
    for f in bad[:10]:
        print("  FAILED: " + f)
    sys.stdout.flush()
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": max(failed_ops, len(bad)) if not correct else 0,
        "metrics": {k: {"value": result[k], "unit": units_out[k]}
                    for k in units_out},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
