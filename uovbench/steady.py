#!/usr/bin/env python3
"""Steadiness check: two sets of benchmark runs of one build, alternating.

Run from the repository root:

    python3 uovbench/steady.py [--runs 10] [--workloads plan_cold,serve_warm]

Each round runs every workload once for set A and once for set B, with a
fresh seed for every run. For each workload and end-to-end metric it
prints each set's median and quartiles, the spread (interquartile range
over median), and whether the two sets agree within the metric's bound
from BENCHMARK.json: the second median is not worse than the first by
more than the bound, and, except for setup_s, each spread is within the
bound. It also checks that failed ops are the same share of attempted
ops in both sets. Exits 1 if anything disagrees.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(lines[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    workloads = args.workloads.split(",")

    results = {w: {"A": [], "B": []} for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            for s, seed in (("A", 1 + i), ("B", 1001 + i)):
                start = time.monotonic()
                r = run_once(bench["command"], w, seed, args.seconds)
                wall = time.monotonic() - start
                results[w][s].append(r)
                vals = " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items())
                print(f"# {w} {s} seed={seed} wall_s={wall:.1f} correct={r['correct']} "
                      f"attempted={r['attempted']} failed={r['failed']} {vals}", flush=True)

    ok = True
    print(f"{'workload':<13} {'metric':<12} {'set':<3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for w in workloads:
        for m in bench["end_to_end"]:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            meds = {}
            for s in ("A", "B"):
                vals = [r["metrics"][name]["value"] for r in results[w][s]]
                q1, q2, q3, spread = summary(vals)
                meds[s] = q2
                steady = name == "setup_s" or spread <= bound
                ok &= steady
                print(f"{w:<13} {name:<12} {s:<3} {q2:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                      f"{spread:>7.3f} {bound:>6.2f}  {'steady' if steady else 'SPREAD > BOUND'}")
            worse = (meds["B"] - meds["A"]) / meds["A"] if lower else (meds["A"] - meds["B"]) / meds["A"]
            agree = worse <= bound
            ok &= agree
            print(f"{w:<13} {name:<12} B/A {'':>12} {'':>12} {'':>12} {worse:>7.3f} {bound:>6.2f}  "
                  f"{'agree' if agree else 'DISAGREE'}")
        shares = {s: {r["failed"] / r["attempted"] for r in results[w][s]} for s in ("A", "B")}
        same = len(shares["A"] | shares["B"]) == 1
        correct = all(r["correct"] for s in ("A", "B") for r in results[w][s])
        ok &= same and correct
        print(f"{w:<13} failed share {sorted(shares['A'] | shares['B'])} "
              f"{'same' if same else 'DIFFERS'}; all correct: {correct}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
