#!/usr/bin/env python3
"""OverGen benchmark runner.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the perfbench binary (the repository's libraries plus the
benchmark's own sources, CMake, into .bench_build/) when needed, runs
the workload in its own process, checks that the process succeeded and
that its output line is well formed and holds exactly the metrics
BENCHMARK.json lists for the mode, and relays that line as the last
line of stdout. Build output goes to stderr. Exits non-zero, printing
no result, if the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(root):
    """Configure and build perfbench; return the binary's path."""
    source = os.path.join(root, "perfbench")
    out = os.path.join(root, BUILD_DIR, "perfbench-cmake")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no OverGen sources (src/) next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", BUILD_JOBS,
                  "--target", "perfbench"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return os.path.join(out, "perfbench")


def manifest_metrics(root, trace):
    """Name -> unit of the metrics BENCHMARK.json lists for this mode."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    root = os.getcwd()
    binary = build(root)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            root, BUILD_DIR,
            f"spans-{args.workload}-{args.seed}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} exceeded {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"{args.workload} exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("no output")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"malformed result line: {lines[-1]!r}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys: {sorted(result)}")
    want = manifest_metrics(root, args.trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(want) - set(got))}, extra "
             f"{sorted(set(got) - set(want))}, units "
             f"{sorted(n for n in set(got) & set(want) if got[n] != want[n])}")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
