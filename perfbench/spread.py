#!/usr/bin/env python3
"""Run-to-run spread and exact-count self-check for the benchmark.

Run from the root of a source checkout:

    python3 perfbench/spread.py [--runs 10] [--workloads a,b] [--first-seed 1]
                                [--same-seed] [--exact]

Spread mode (default): runs each workload --runs times, each with its
own seed (all on --first-seed with --same-seed, which leaves only host
noise), through perfbench/run.py with --trace 0, and prints for every
end-to-end metric its median and the interquartile range as a share of
the median next to the metric's bound in BENCHMARK.json. Exits non-zero
if a run fails, reports correct=false or failures, or a spread exceeds
its bound.

--exact mode: runs every workload twice with --trace 1 on the same seed
and checks that the machine-independent counts (the "exact:" line and
every per-layer metric that is not a host time) are identical.
"""

import argparse
import json
import statistics
import subprocess
import sys

# Units of the metrics derived from host time; the rest must repeat.
HOST_TIME_UNITS = {"s", "ms", "ns", "%", "1/s", "Mcycles/s"}


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: run failed")
    exact = next((l for l in lines if l.startswith("exact: ")), "")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: correct={result['correct']} "
                 f"failed={result['failed']}")
    return result, exact


def spread(bench, workloads, runs, first_seed, same_seed):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in workloads:
        values = {}
        for i in range(runs):
            seed = first_seed if same_seed else first_seed + i
            result, _ = run(workload, seed, bench["run_seconds"], 0)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med if med else 0.0
            bound = bounds[name]
            flag = ""
            if share > bound:
                flag = "  OVER BOUND"
                ok = False
            elif share > bound / 3:
                flag = "  over a third of bound"
            print(f"{workload:13s} {name:16s} median {med:14.6g} "
                  f"IQR/median {share:7.4f} bound {bound:5.3f}{flag}")
            print("    values " + " ".join(f"{v:.5g}" for v in vals))
        sys.stdout.flush()
    return ok


def exact(bench, workloads, seed):
    ok = True
    for workload in workloads:
        seen = []
        for _ in range(2):
            result, line = run(workload, seed, bench["run_seconds"], 1)
            counts = {name: m["value"]
                      for name, m in result["metrics"].items()
                      if m["unit"] not in HOST_TIME_UNITS}
            seen.append((line, counts))
        same = seen[0] == seen[1]
        ok = ok and same
        print(f"{workload:13s} exact counts "
              f"{'identical' if same else 'DIFFER'} across two runs "
              f"({len(seen[0][1])} counts + exact line)")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true")
    parser.add_argument("--exact", action="store_true")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    if args.exact:
        return 0 if exact(bench, workloads, args.first_seed) else 1
    return 0 if spread(bench, workloads, args.runs, args.first_seed,
                       args.same_seed) else 1


if __name__ == "__main__":
    sys.exit(main())
