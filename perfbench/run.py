#!/usr/bin/env python3
"""Build and run the nestwx benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload serve_spill --seed 1 --seconds 30 --trace 0

Workloads: serve_spill and nested_swm, the two BENCHMARK.json gates, and
serve_steady, which runs the same way but is not gated (see
perfbench/README.md).
The script configures and builds perfbench/CMakeLists.txt (the nestwx
libraries from src/ plus the harness) into .bench_build/, runs the
harness with a scratch directory under .bench_work/, and relays its
output. The last line of standard output is the result JSON. Build logs
go to standard error. It checks the result's metric names and units
against BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("serve_steady", "serve_spill", "nested_swm")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", "nestwx-perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "nestwx-perfbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("nestwx sources not found next to perfbench/; run from a full checkout")
    binary = build()

    tag = "%s-seed%d-trace%d-%d" % (args.workload, args.seed, args.trace, os.getpid())
    work = os.path.join(ROOT, ".bench_work", tag)
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
           "--work-dir=" + work,
           "--trace-out=" + os.path.join(out_dir, "trace-%s-seed%d.json" % (args.workload, args.seed))]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        output, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("harness exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        sys.stdout.write(output)
        fail("harness exited with %d" % proc.returncode)

    lines = output.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    # Self-test: every declared metric is reported, with its declared unit.
    declared = declared_metrics(args.trace)
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    if reported != declared:
        missing = sorted(set(declared.items()) ^ set(reported.items()))
        lines.insert(-1, "CHECK FAILED: metrics differ from BENCHMARK.json: %s" % missing)
        result["correct"] = False
    lines[-1] = json.dumps(result)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
