#!/usr/bin/env python3
"""Regenerate ``perfbench/reference.json``, the correctness gate's pins.

Every configuration the benchmark simulates is run once in the
repository's bitwise reference configuration — the superblock engine
with ``fuse_cycles=False`` (per-instruction ``observe`` timing, no
plan cache) — and its guest output digest, exit code, executed
instructions and DOE cycles are written out.  The mixed-ISA probe is
pinned with the DOE model sized for its widest ISA, which is the
correct result a fixed caller must reproduce.

Run from the repository root (takes about half a minute):

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from kbench import common  # noqa: E402


def reference_configs():
    """(key, program, isa, isa_map, model) for every gated run."""
    seen = set()
    rows = []

    def add(program, isa, model, isa_map=None):
        key = common.build_key(program, isa, isa_map, model)
        if key not in seen:
            seen.add(key)
            rows.append((key, program, isa, isa_map, model))

    for program, isa in common.DOE_WARM_PROGRAMS:
        add(program, isa, "doe")
    add(common.CLI_PROGRAM, "risc", "doe")
    for job in common.SERVE_MIX:
        add(job["program"], job["isa"], job["model"])
    probe = common.MIXED_PROBE
    add(probe["program"], probe["isa"], probe["model"], probe["isa_map"])
    return rows


def main() -> int:
    common.require_sources()
    from repro.adl.kahrisma import KAHRISMA
    from repro.framework import pipeline

    configs = {}
    for key, program, isa, isa_map, model_name in reference_configs():
        built = pipeline.build_benchmark(program, isa=isa, isa_map=isa_map)
        width = max(
            KAHRISMA.isa_named(fn_isa).issue_width
            for fn_isa, _sym in built.compile_result.functions.values()
        )
        model = common.make_model(model_name, width)
        result = pipeline.run(
            built, engine="superblock", cycle_model=model,
            fuse_cycles=False,
        )
        configs[key] = {
            "output_digest": common.output_digest(result.output),
            "exit_code": result.exit_code,
            "instructions": result.stats.executed_instructions,
            "cycles": result.cycles,
            "isa_switches": result.stats.isa_switches,
        }
        print(f"{key}: {configs[key]}", file=sys.stderr)
    doc = {
        "about": (
            "Pinned results of the superblock engine with "
            "fuse_cycles=False (the bitwise reference configuration); "
            "regenerate with perfbench/make_reference.py"
        ),
        "configs": configs,
    }
    with open(common.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
