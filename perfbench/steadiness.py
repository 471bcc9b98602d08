#!/usr/bin/env python3
"""Runs the benchmark ten times per workload, on seeds 1 to 10, and reports each
end-to-end metric's median, quartiles and spread (interquartile range over median).

    python3 perfbench/steadiness.py [--traced] [--out FILE]

Run it from the repository root.  It uses the command, workloads, metrics and
`run_seconds` of BENCHMARK.json, and builds into $CARGO_TARGET_DIR (default
`.bench_build`).  `--traced` adds one traced run per workload and reports its
`tracing.overhead_share`.  `--out` writes the figures as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

RUNS = 10


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"), "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    command = spec["command"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = range(1, RUNS + 1)

    report = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = [run_once(command, workload, seed, spec["run_seconds"], 0) for seed in seeds]
        figures = {name: summary([r[name] for r in runs]) for name in bounds}
        if args.traced:
            traced = run_once(command, workload, seeds[0], spec["run_seconds"], 1)
            figures["tracing.overhead_share"] = traced["tracing.overhead_share"]
        report[workload] = figures
        print(f"{workload} ({RUNS} runs, seeds {seeds[0]}..{seeds[-1]})")
        for name, bound in bounds.items():
            s = figures[name]
            flag = "" if name == "setup_s" or s["spread"] <= bound / 3 else "  <-- spread > bound/3"
            print(f"  {name:18} median {s['median']:12.5g}  q1 {s['q1']:12.5g}  "
                  f"q3 {s['q3']:12.5g}  spread {s['spread']:7.4f}  bound {bound}{flag}")
        if args.traced:
            print(f"  tracing.overhead_share {figures['tracing.overhead_share']:.4f}")
        sys.stdout.flush()
    if args.out:
        record = {
            "run_seconds": spec["run_seconds"],
            "seeds": list(seeds),
            "host_cpus": os.cpu_count(),
            "bounds": bounds,
            "workloads": report,
        }
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)


if __name__ == "__main__":
    main()
