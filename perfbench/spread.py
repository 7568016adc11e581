#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads session_churn --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --out .bench_out/spread.json

Runs perfbench/run.py once per (workload, seed) with the BENCHMARK.json
run length, then prints per metric: the median, the quartile spread
(Q3 - Q1) / median as statistics.quantiles(n=4) gives it, and the metric's
bound. A spread at or above a third of the bound is flagged; setup_s is
held only to its median.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_arg(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values):
    """(median, (Q3 - Q1) / median) of a list of at least two values."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, ((q3 - q1) / med if med else float("inf"))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-5"))
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--out", help="write every run's metrics here (JSON)")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = {}
    worst = 0.0
    for wl in args.workloads.split(","):
        runs[wl] = []
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                   "--workload", wl, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else ""
            if p.returncode != 0 or not last.startswith("{"):
                print("%s seed %d: run failed (exit %d)" % (wl, seed, p.returncode))
                continue
            res = json.loads(last)
            runs[wl].append({"seed": seed, **res})
            print("%s seed %d: correct=%s failed=%d" % (wl, seed, res["correct"],
                                                       res["failed"]), flush=True)
        if len(runs[wl]) < 2:
            continue
        print("\n%-20s %14s %8s %6s" % (wl, "median", "spread", "bound"))
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs[wl]
                    if name in r["metrics"]]
            if len(vals) < 2:
                continue
            med, s = spread(vals)
            flag = "" if name == "setup_s" or s < bound / 3 else "  <-- over bound/3"
            if name != "setup_s":
                worst = max(worst, s / bound)
            print("%-20s %14.6g %8.4f %6.3f%s" % (name, med, s, bound, flag))
        print(flush=True)
    print("worst spread / bound (excluding setup_s): %.3f" % worst)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)


if __name__ == "__main__":
    main()
