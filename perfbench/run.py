#!/usr/bin/env python3
"""Entry point of the rdfref benchmark: builds the driver, runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lubm-strategies --seed 1 \
        --seconds 10 --trace 0

The driver and the rdfref libraries it links are compiled from src/ with
CMake (Release) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later runs rebuild incrementally. Build output goes
to stderr. The last line of stdout is the driver's JSON result. The exit
code is non-zero, with no result printed, when the sources are missing or
the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lubm-strategies", "sp2b-cached", "sp2b-churn")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: rdfref sources (src/) not found next to perfbench/",
              file=sys.stderr)
        sys.exit(2)
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target_dir, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "perfbench_driver", "-j", "4"],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench_driver")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args()

    try:
        driver = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    try:
        run = subprocess.run(
            [driver, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", args.trace,
             "--scale", args.scale],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: driver timed out", file=sys.stderr)
        return 3
    if run.returncode != 0:
        print(f"perfbench: driver exited with {run.returncode}",
              file=sys.stderr)
        return run.returncode
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
