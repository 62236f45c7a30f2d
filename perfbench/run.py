#!/usr/bin/env python3
"""Build and run the served-path benchmark (fc_perfbench).

Run from the root of a FractalCloud checkout:

    python3 perfbench/run.py --workload scene-seg --seed 1 --seconds 20 --trace 0

Workloads: scene-seg and scene-ingest (see perfbench/workloads.h). The first run configures and builds the library
and the benchmark into .bench_build/ (Release); later runs rebuild only
what changed. The benchmark's own output passes through; its last line
is one JSON object with the keys correct, attempted, failed and metrics.

Exit status: the benchmark's (0 = ran and every output was correct,
1 = an output mismatched its reference), or 2 when the checkout cannot
be built (for example, when it holds only the benchmark's files).
"""

import argparse
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 2


def build(root, build_dir):
    """Configure (once) and build fc_perfbench; output goes to stderr."""
    source = os.path.join(root, "perfbench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "--target", "fc_perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=root, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            return "build step failed: %s" % e
        if done.returncode != 0:
            return "build step failed: " + " ".join(step)
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["scene-seg", "scene-ingest"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(root, needed)):
            return fail("%s not found: run from the root of a FractalCloud "
                        "checkout" % needed)
    build_dir = os.path.join(root, BUILD_DIR)
    error = build(root, build_dir)
    if error:
        return fail(error)

    workdir = os.path.join(build_dir, "work")
    os.makedirs(workdir, exist_ok=True)
    command = [os.path.join(build_dir, "fc_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
    sys.stdout.flush()
    try:
        done = subprocess.run(command, cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
