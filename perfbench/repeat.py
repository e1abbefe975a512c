#!/usr/bin/env python3
"""Repeat untraced runs over several seeds and report each metric's spread.

    python3 perfbench/repeat.py --runs 10 [--workload NAME ...] [--first-seed 1]

For every workload and end-to-end metric it prints the median, the first
and third quartiles (statistics.quantiles(values, n=4)) and the quartile
distance as a share of the median, next to the metric's bound from
BENCHMARK.json. A spread above a third of its bound (setup_s excepted) is
flagged. All raw results go to <build dir>/repeat.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    raw = {}
    steady = True
    for workload in workloads:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            done = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: INCORRECT", file=sys.stderr)
                steady = False
            results.append(result)
        raw[workload] = results
        print(f"{workload} ({args.runs} runs)")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if m["name"] != "setup_s" and spread > m["bound"] / 3:
                flag = "  > bound/3"
                steady = False
            print(f"  {m['name']:<14} median {med:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:7.2%} bound {m['bound']:.0%}"
                  f"{flag}")
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                       ".bench_build", "repeat.json")
    with open(out, "w", encoding="utf-8") as f:
        json.dump(raw, f)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
