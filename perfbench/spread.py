#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 perfbench/spread.py --runs 10 [--workloads a,b] [--trace 0|1]
        [--first-seed 1] [--out FILE]

For each workload and metric it prints the median over the runs and the
distance between the first and third quartiles as a share of the median
(statistics.quantiles(values, n=4)), which is how a metric's bound is judged.
With --out it also writes every value as JSON.  Runs go one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default="")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    for w in names:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=True, timeout=180).stdout
            res = json.loads(out.decode().strip().splitlines()[-1])
            if not res["correct"] or res["failed"]:
                print(f"error: {w} seed {seed} is not correct: {res}", file=sys.stderr)
                return 1
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
                units[k] = v["unit"]
        report[w] = {}
        for k, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            report[w][k] = {"unit": units[k], "median": med, "q1": q1, "q3": q3, "spread": spread,
                            "values": vs}
            bound = bounds.get(k)
            flag = "" if bound is None else f" bound={bound} {'ok' if spread <= bound else 'OVER'}"
            print(f"{w:14} {k:44} median={med:<12.6g} {units[k]:6} spread={spread:.3f}{flag}",
                  flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
