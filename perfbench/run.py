#!/usr/bin/env python3
"""Builds the measured benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --all --seed <n> --seconds <s>

With --all every workload runs twice, untraced (end-to-end metrics) then
traced (per-layer metrics), and each run's output is printed in turn.

Run from the root of a checkout. The benchmark program (perfbench/bench.ml)
links the repository's libraries, so it is built with dune from the
checkout's sources first. The last line of standard output is the result
object; BENCHMARK.json names the workloads and metrics. Everything the run
writes stays in the checkout: dune's shared cache is off, and temporary
files (the C compiler's included) go to perfbench/out/tmp.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["warm-tpch", "cold-shapes", "service-mix"]

# Sources the benchmark is built from. Without them there is nothing to
# measure, so the run fails before building.
REQUIRED = [
    "dune-project",
    "lib/core/provider.ml",
    "lib/service/service.ml",
    "bench/bench_lib/suite.ml",
    "perfbench/dune",
    "perfbench/bench.ml",
]

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=WORKLOADS)
    mode.add_argument("--all", action="store_true")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    missing = [p for p in REQUIRED if not os.path.isfile(p)]
    if missing:
        print("perfbench: not a checkout of the repository; missing "
              + ", ".join(missing), file=sys.stderr)
        return 2

    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--cache=disabled",
             "--display", "quiet", "./perfbench/bench.exe"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    if build.returncode != 0:
        sys.stderr.write(build.stderr.decode(errors="replace"))
        print("perfbench: build failed", file=sys.stderr)
        return 2

    tmp = os.path.abspath(os.path.join("perfbench", "out", "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    runs = ([(w, t) for w in WORKLOADS for t in (0, 1)] if args.all
            else [(args.workload, args.trace)])
    status = 0
    for workload, trace in runs:
        if args.all:
            print("== %s, trace %d" % (workload, trace), flush=True)
        cmd = [EXE, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace)]
        try:
            run = subprocess.run(cmd, env=env, timeout=170)
        except subprocess.TimeoutExpired:
            print("perfbench: run exceeded 170 s", file=sys.stderr)
            return 3
        status = status or run.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
