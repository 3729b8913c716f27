#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json, at the scaled-down --tiny size:
  1. an untraced run and a traced run both pass, and each emits every
     end-to-end (respectively per-layer) metric with its unit, as a
     finite number; end-to-end metrics are never 0;
  2. a run with one result deliberately corrupted (--corrupt) exits
     non-zero with correct=false and at least one failed op.
Finally, a copy holding only BENCHMARK.json and perfbench/ (no
simulator sources) must fail to run. Exit status 0 when all hold.
"""

import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join("perfbench", "run.py")]


def run(args, cwd=ROOT):
    proc = subprocess.run(RUN + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, cwd=cwd,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        base = ["--workload", workload, "--seed", "7", "--seconds", "1",
                "--tiny"]
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run(base + ["--trace", str(trace)])
            expect(code == 0 and result is not None and
                   result["correct"] and result["failed"] == 0 and
                   result["attempted"] >= 1,
                   f"{workload} trace={trace} passes")
            if result is None:
                continue
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"},
                   f"{workload} trace={trace} result keys")
            for m in spec[section]:
                got = result["metrics"].get(m["name"])
                expect(got is not None and got["unit"] == m["unit"] and
                       math.isfinite(got["value"]) and
                       (trace == 1 or got["value"] != 0),
                       f"{workload} emits {m['name']} [{m['unit']}]")
        code, result = run(base + ["--trace", "0", "--corrupt"])
        expect(code != 0 and result is not None and
               not result["correct"] and result["failed"] >= 1,
               f"{workload} corrupted result fails the gate")

    # Without the simulator sources the benchmark must refuse to run.
    isolated = os.path.join(ROOT, ".bench_build", "selftest-isolated")
    shutil.rmtree(isolated, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(isolated, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), isolated)
    env_free = ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(RUN + env_free, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, cwd=isolated,
                          timeout=180,
                          env={**os.environ, "CARGO_TARGET_DIR": "build"})
    expect(proc.returncode != 0, "copy without sources fails to run")
    shutil.rmtree(isolated, ignore_errors=True)

    print(f"{len(problems)} problem(s)")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
