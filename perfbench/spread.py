#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload paper-grid --seeds 1-10

For every end-to-end metric it prints the median of the runs and the
distance between the first and third quartile as a share of the median
(statistics.quantiles(values, n=4)), next to the metric's bound from
BENCHMARK.json. A spread at or above a third of the bound is flagged:
two sets of runs of the same code could then disagree by more than the
bound. Run from the root of a source checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]

    values = {}
    for seed in seed_list(args.seeds):
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=True).stdout
        lines = out.strip().splitlines()
        result = json.loads(lines[-1])
        info = json.loads(lines[-2])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: incorrect or failed: {result}")
            return 1
        row = []
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            row.append(f"{name}={metric['value']:.6g}")
        values.setdefault("raw_uops_per_s", []).append(info["raw_uops_per_s"])
        row.append(f"raw_uops_per_s={info['raw_uops_per_s']:.6g}")
        print(f"seed {seed}: " + " ".join(row), flush=True)

    worst = 0.0
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            worst = max(worst, spread / bound)
            flag = "  <-- above bound/3" if spread >= bound / 3 else ""
        print(f"{name:22s} median={med:<14.6g} spread={spread:.4f} "
              f"bound={bound}{flag}")
    print(f"worst spread / bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
