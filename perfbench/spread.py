#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload serve_spill --seeds 1-5

Runs perfbench/run.py once per seed (sequentially, untraced, with
BENCHMARK.json's run_seconds) and prints, per end-to-end metric, the
median and the quartile spread (Q3 - Q1) / median next to a third of the
metric's bound, the target a steady benchmark stays under.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in seeds_of(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
        result = json.loads(out.strip().split("\n")[-1])
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print("seed %d correct=%s failed=%d/%d %s" % (
            seed, result["correct"], result["failed"], result["attempted"],
            " ".join("%s=%.5g" % kv for kv in row.items())), flush=True)
        for name in values:
            values[name].append(row[name])
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else float("inf")
        print("%-18s median %-12.6g spread %.4f  (bound %.2f, target < %.4f)%s" % (
            m["name"], med, spread, m["bound"], m["bound"] / 3,
            "" if spread < m["bound"] / 3 else "  ABOVE TARGET"))


if __name__ == "__main__":
    main()
