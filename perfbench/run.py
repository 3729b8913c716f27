#!/usr/bin/env python3
"""The simulator's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--tiny] [--corrupt]

Run from the repository root. Builds perfbench/ (which compiles the
simulator from ../src) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs the workload in a fresh process.

--trace 0 reports the end-to-end metrics of an untraced process.
--trace 1 reports the per-layer metrics of a separate traced process,
which makes one untraced and one traced pass (their wall times give
trace.overhead_frac) and then replays each layer.

Metric names and units come from BENCHMARK.json; a metric the workload
process does not emit, or emits with another unit, fails the run. The
workload process's own result line (with the seed) is echoed first;
the last stdout line is {"correct", "attempted", "failed", "metrics"}.
The exit status is 0 only when every check held.
"""

import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
# Workload processes must end well inside the driver's 180 s limit.
PROCESS_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build():
    """Configure once, then (re)build; returns the binary's path."""
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
        "perfbench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return build_dir, os.path.join(build_dir, "qgpu_perfbench")


def run_workload(binary, args, spans_out):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt:
        cmd.append("--corrupt")
    if spans_out:
        cmd += ["--spans-out", spans_out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=PROCESS_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in {PROCESS_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{args.workload} printed no result (exit {proc.returncode})")
    print(lines[-1])
    result["exit"] = proc.returncode
    return result


def select(result, wanted):
    """The metrics named in @p wanted, unit-checked; and the problems."""
    metrics, problems = {}, []
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        got = result["metrics"].get(name)
        if got is None:
            problems.append(f"metric {name} missing")
        elif got["unit"] != unit:
            problems.append(f"metric {name} has unit {got['unit']}, "
                            f"want {unit}")
        elif not math.isfinite(got["value"]):
            problems.append(f"metric {name} is not finite")
        else:
            metrics[name] = {"value": got["value"], "unit": unit}
    return metrics, problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="scaled-down inputs (self-test)")
    parser.add_argument("--corrupt", action="store_true",
                        help="damage one result (self-test of the gate)")
    args = parser.parse_args()

    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    build_dir, binary = build()

    spans = os.path.join(build_dir,
                         f"spans-{args.workload}-{args.seed}.json")
    result = run_workload(binary, args, spans if args.trace else None)
    metrics, problems = select(
        result, spec["per_layer" if args.trace else "end_to_end"])

    for p in problems:
        print(f"run.py: {p}", file=sys.stderr)
    correct = not problems and result["correct"] and result["exit"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
