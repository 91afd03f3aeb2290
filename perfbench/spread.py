#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 perfbench/spread.py --workload cli-aot --seeds 1-10 --seconds 15

Runs ``perfbench/run.py`` once per seed (sequentially, one process at
a time), then prints each metric's median and its interquartile
distance as a share of the median — the figure the end-to-end bounds
in ``BENCHMARK.json`` are checked against.  ``--record`` merges the
medians and spreads into ``perfbench/baseline.json`` (the recorded
baseline).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from kbench.stats import relative_spread  # noqa: E402


def seeds_from(text: str):
    if "-" in text:
        low, high = text.split("-", 1)
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="merge the result into perfbench/baseline.json")
    args = parser.parse_args()
    root = os.path.dirname(HERE)
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            seconds = json.load(fh)["run_seconds"]
    runs = []
    for seed in seeds_from(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=root, capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              file=sys.stderr)
    summary = {}
    print(f"{'metric':34} {'median':>12} {'spread':>8}")
    for name, metric in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        summary[name] = {"median": median(values),
                         "spread": relative_spread(values),
                         "unit": metric["unit"]}
        print(f"{name:34} {summary[name]['median']:12.6g} "
              f"{summary[name]['spread']:8.4f}")
    if args.record:
        record(args, seconds, runs, summary)
    return 0


def record(args, seconds, runs, summary) -> None:
    path = os.path.join(HERE, "baseline.json")
    try:
        with open(path, encoding="utf-8") as fh:
            baseline = json.load(fh)
    except FileNotFoundError:
        baseline = {}
    section = "per_layer" if args.trace else "end_to_end"
    baseline.setdefault(args.workload, {})[section] = {
        "recorded": time.strftime("%Y-%m-%d"),
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                f"Python {platform.python_version()}",
        "seconds": seconds,
        "seeds": [r["seed"] for r in runs],
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": summary,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
