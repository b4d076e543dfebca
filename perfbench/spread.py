#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Run from the repository root:

    python3 perfbench/spread.py [--workloads paper-grid,dist-jobs] [--seeds 10] [--first-seed 1]

Runs the benchmark once per seed on each workload (untraced, at
BENCHMARK.json's run_seconds) and prints, for every end-to-end metric,
the median and the spread — the distance between the first and third
quartiles (statistics.quantiles, n=4) as a share of the median — next to
the metric's bound. Spreads at or above a third of the bound are flagged.
The raw results go to .bench_build/perfbench/spread-<workload>.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    out_dir = os.path.join(".bench_build", "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            t0 = time.time()
            out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                                  "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                                 capture_output=True, text=True)
            wall = time.time() - t0
            if out.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
            res = json.loads(out.stdout.strip().splitlines()[-1])
            res["wall_s"] = wall
            runs.append(res)
            print(f"{workload} seed {seed}: {wall:.1f}s correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}", flush=True)
        with open(os.path.join(out_dir, f"spread-{workload}.json"), "w") as f:
            json.dump(runs, f, indent=1)
        print(f"\n{workload}: {len(runs)} runs, wall median {statistics.median(r['wall_s'] for r in runs):.1f}s")
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med
            flag = "" if spread < m["bound"] / 3 else "  <-- above bound/3"
            if m["name"] != "setup_s":
                worst = max(worst, spread / m["bound"])
            print(f"  {m['name']:12s} median {med:12.6g} {m['unit']:8s} spread {spread:7.2%} "
                  f"bound {m['bound']:.0%}{flag}")
        print()
    print(f"worst spread/bound (setup_s excluded): {worst:.2f}")


if __name__ == "__main__":
    main()
