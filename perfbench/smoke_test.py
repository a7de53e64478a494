#!/usr/bin/env python3
"""Smoke test of the benchmark at its smallest scale.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json for one second at --scale smoke, once
untraced and once traced, and checks that each run passes its correctness
checks, reports error rate 0, and prints every end-to-end (untraced) or
per-layer (traced) metric of BENCHMARK.json by name with its unit.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--scale", "smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = run(workload, trace)
            where = f"{workload} trace={trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: unexpected keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{where}: correct={result['correct']} "
                                f"failed={result['failed']}")
            if result["attempted"] < 1:
                problems.append(f"{where}: nothing attempted")
            metrics = result["metrics"]
            wanted = {m["name"]: m["unit"] for m in spec[section]}
            if set(metrics) != set(wanted):
                problems.append(f"{where}: metric names differ: "
                                f"{sorted(set(metrics) ^ set(wanted))}")
            for name, unit in wanted.items():
                got = metrics.get(name, {}).get("unit")
                if got != unit:
                    problems.append(f"{where}: {name} unit {got} != {unit}")
            if trace == 1 and metrics["bench.error_rate"]["value"] != 0:
                problems.append(f"{where}: error_rate "
                                f"{metrics['bench.error_rate']['value']}")
            print(f"checked {where}: {len(metrics)} metrics", file=sys.stderr)
    for p in problems:
        print("FAIL", p)
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
