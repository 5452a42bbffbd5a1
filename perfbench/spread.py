#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads plan simulate --seeds 1 2 3 4 5
    python3 perfbench/spread.py --workloads observe --seeds 7 --trace 1 --repeat 2
    python3 perfbench/spread.py --seeds 1 2 3 --values   # every run's value too

For every workload, runs the command in BENCHMARK.json once per seed and
prints each metric's median, first and third quartiles (as
statistics.quantiles(values, n=4) gives them) and the quartile distance as
a share of the median, next to the metric's bound. With --repeat N, each
seed runs N times, and in a traced run every count metric (unit count, B or
MB) must read the same on each run of the same seed.
"""

import argparse
import json
import statistics
import subprocess
import sys

COUNT_UNITS = {"count", "B", "MB"}


def run(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stdout}\n{done.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result\n{done.stdout}")
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+")
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--values", action="store_true", help="also print every run's value")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for workload in workloads:
        values, counts = {}, {}
        for seed in args.seeds:
            for _ in range(args.repeat):
                result = run(bench["command"], workload, seed, seconds, args.trace)
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                    if args.trace and m["unit"] in COUNT_UNITS:
                        counts.setdefault((name, seed), set()).add(m["value"])
        print(f"== {workload} ({len(args.seeds)} seeds x {args.repeat}, {seconds} s)")
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = f"bound {bound:.2f} {'ok' if spread < bound / 3 else 'WIDE'}"
                worst = max(worst, spread / bound)
            print(f"  {name:<32} median {med:<14.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:7.4f} {flag}")
            if args.values:
                print("    " + " ".join(f"{v:.6g}" for v in vs))
        for (name, seed), seen in sorted(counts.items()):
            if len(seen) > 1:
                sys.exit(f"{workload}: count {name} differs across runs of seed {seed}: {sorted(seen)}")
    print(f"widest spread / bound: {worst:.3f}")


if __name__ == "__main__":
    main()
