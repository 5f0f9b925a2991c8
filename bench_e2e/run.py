#!/usr/bin/env python3
"""Builds bench_e2e from this checkout, then runs one workload.

  python3 bench_e2e/run.py --workload client-x2 --seed 1 --seconds 16 --trace 0

Run from the repository root. The build goes to .bench_build/ (configured on
first use, incrementally rebuilt after that); build output goes to stderr so
the last line of stdout is the benchmark's JSON result. Any other flag
(e.g. --json out.json) is passed through to the bench_e2e binary. With
--trace 1 the Chrome trace lands in .bench_build/work/trace-<workload>.json.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(BUILD, "work")
# One run measures --seconds plus set-up; stop a hung run well before the
# 180 s a run may take.
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    # Configure until a build system has been generated; a failed configure
    # leaves a cache behind but no Makefile / build.ninja.
    if not any(os.path.exists(os.path.join(BUILD, f))
               for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "bench_e2e"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "bench_e2e",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("run.py: build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args, passthrough = parser.parse_known_args()

    build()
    os.makedirs(WORK, exist_ok=True)
    cmd = [os.path.join(BUILD, "bench_e2e"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--workdir", WORK]
    if args.trace == "1":
        cmd += ["--trace-json",
                os.path.join(WORK, "trace-%s.json" % args.workload)]
    try:
        code = subprocess.run(cmd + passthrough,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit("run.py: %s did not finish in %d s"
                 % (args.workload, RUN_TIMEOUT_S))
    sys.exit(code)


if __name__ == "__main__":
    main()
