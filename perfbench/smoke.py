#!/usr/bin/env python3
"""Smoke test for the benchmark: every workload once, at tiny size.

Run from the repository root:

    python3 perfbench/smoke.py

For each workload of BENCHMARK.json and both --trace modes, it runs the
benchmark with --tiny on two seeds and checks that the result line is
correct with no failed job, that it prints exactly the metric names that
BENCHMARK.json declares for that mode, each with its declared unit, and
that both seeds print the same set of names. Exits non-zero on the first
mismatch.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.exit(f"FAIL {workload} trace={trace} seed={seed}: exit {out.returncode}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    declared = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for w in bench["workloads"]:
        for trace in (0, 1):
            names = None
            for seed in (1, 2):
                res = run(w["name"], seed, trace)
                where = f"{w['name']} trace={trace} seed={seed}"
                if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                    sys.exit(f"FAIL {where}: correct={res['correct']} attempted={res['attempted']} "
                             f"failed={res['failed']} (failed_frac must be 0)")
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                if got != declared[trace]:
                    missing = sorted(set(declared[trace]) - set(got))
                    extra = sorted(set(got) - set(declared[trace]))
                    units = sorted(k for k in got if k in declared[trace] and got[k] != declared[trace][k])
                    sys.exit(f"FAIL {where}: missing {missing}, undeclared {extra}, wrong unit {units}")
                if names is not None and set(got) != names:
                    sys.exit(f"FAIL {where}: metric names differ between seeds")
                names = set(got)
            print(f"ok   {w['name']:13s} trace={trace}: {len(names)} metrics, failed_frac 0, two seeds agree")


if __name__ == "__main__":
    main()
