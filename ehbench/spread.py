#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each end-to-end
metric's spread: the distance between the first and third quartile of
its values, as a share of their median, next to the metric's bound.

    python3 ehbench/spread.py [--workloads a,b] [--seeds 10] [--first-seed 1]

Run it from the root of the repository; it reads BENCHMARK.json and
runs its command once per (workload, seed) with --trace 0.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect result {result}")
                ok = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={result['metrics'][n]['value']:.6g}" for n in bounds), flush=True)
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "" if name == "setup_s" or spread < bounds[name] / 3 else "  <-- above bound/3"
            print(f"{workload:22s} {name:16s} median {med:.6g} spread {spread:.4f} bound {bounds[name]}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
