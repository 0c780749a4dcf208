#!/usr/bin/env python3
"""Build the host-cost benchmark and run one workload.

    python3 perfbench/run.py --workload validation --seed 1 \
        --seconds 25 --trace 0

Run from the repository root.  The first run configures and builds
perfbench/ (the library sources under src/ plus the benchmark
program) into .bench_build/perfbench; later runs only rebuild what
changed.  Build output goes to stderr, so the program's JSON result
stays the last line of stdout.  `--write-reference` regenerates
perfbench/reference.json from the current code instead.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ["validation", "fleet", "overload", "model_solve"]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "kernel",
                                       "ipc_sim.hh")):
        sys.exit("perfbench: library sources (src/) not found under "
                 + ROOT)
    steps = [["cmake", "-S", HERE, "-B", BUILD],
             ["cmake", "--build", BUILD, "-j3"]]
    if os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args()
    if not args.write_reference and args.workload is None:
        ap.error("--workload is required")

    binary = build()
    if args.write_reference:
        cmd = [binary, "--write-reference", REFERENCE]
    else:
        cmd = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--reference", REFERENCE]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
