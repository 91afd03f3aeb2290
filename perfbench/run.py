#!/usr/bin/env python3
"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload doe-warm --seed 1 --seconds 15 --trace 0

Runs the named workload (see ``BENCHMARK.json`` and
``perfbench/README.md``) for ``--seconds`` of timed operations after
its set-up, checks every operation's simulated results against
``perfbench/reference.json``, prints a human summary on stderr and, as
the last line of stdout, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
same workload with spans around the simulator's public functions and
reports the per-layer metrics instead.  Run from the root of a
checkout: the simulator is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from kbench import common  # noqa: E402

WORKLOADS = ("doe-warm", "cli-aot", "serve-mix")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    common.require_sources()

    if args.workload == "doe-warm":
        from kbench import doe_warm as workload
    elif args.workload == "cli-aot":
        from kbench import cli_aot as workload
    else:
        from kbench import serve_mix as workload
    outcome = workload.run(args.seed, args.seconds, bool(args.trace))

    log = outcome["log"]
    print(f"{args.workload}: attempted {log.attempted}, failed "
          f"{log.failed}, error_rate {log.error_rate:.4f}", file=sys.stderr)
    for reason in log.reasons:
        print(f"  failed: {reason}", file=sys.stderr)
    for name, metric in outcome["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}",
              file=sys.stderr)
    print(json.dumps({
        "correct": log.correct,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": outcome["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
