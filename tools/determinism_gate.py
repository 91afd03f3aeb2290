#!/usr/bin/env python3
"""CI determinism gate for the checkpoint and cycle-fusion subsystems.

Three checks over one workload (default dct4x4), exit non-zero on any
mismatch:

1. **Fusion determinism** — run with fused cycle accounting (the
   default superblock fast path) and again with ``fuse_cycles=False``
   (per-instruction ``observe``), and require bitwise-identical DOE
   cycle counts, architectural statistics and slot-drift model state.
2. **Resume determinism** — run straight to completion, then run again
   with periodic checkpointing, resume from a mid-run checkpoint, and
   require bitwise-identical architectural state: registers, memory
   digest, program output, exit code, the architectural statistics
   (``SimStats.ARCHITECTURAL_FIELDS``) and — because the resumed run
   restores the cycle-model state — the exact DOE cycle count.  The
   straight run is *fused*, so this also gates fusion × checkpointing.
3. **Shard merge determinism** — run ``repro.framework.parallel`` with
   N shards and require the merged architectural statistics and output
   to match the straight run bitwise (cycle counts are approximate by
   design and are only reported, not gated).

4. **AOT cross-engine determinism** — run each workload in
   ``--aot-benchmarks`` (default: the main workload; ``all`` = every
   bundled benchmark; ``program@isa`` builds for that ISA, e.g.
   ``dct4x4@vliw4``) under ``engine="aot"`` — functional and fused
   DOE — and require bitwise-identical registers, memory digest,
   output, exit code, architectural statistics and cycle counts
   against the superblock engine.  On a mismatch the gate reruns the
   pair in lockstep (:func:`repro.telemetry.run_lockstep`) and prints
   a forensic report: first divergent PC, register delta and the
   last-N blocks both engines executed.

5. **Sampled determinism** — run the statistical sampling tier twice
   with a fixed ``(U, k, W, seed)`` schedule (``--sampling-spec``) and
   require bitwise-identical measured intervals and estimate, then
   require the sampled run's architectural end-state (registers,
   memory digest, output, exit code, architectural statistics) to
   equal a pure functional run bitwise.

6. **Forensics self-test** (``--forensics-selftest``) — inject a
   register fault mid-run on one lockstep side and require the
   forensics pipeline to localize it: a non-empty report naming the
   first divergent PC, the corrupted register and both block trails.
   This proves the divergence tooling end-to-end before CI has to
   trust it on a real mismatch.

``--perf-smoke`` adds wall-clock checks: with a warm persistent plan
cache, the fused DOE run must be at least ``--min-speedup`` (default
1.5x) faster than the per-instruction observe path, and the warm AOT
functional run of ``--aot-perf-workload`` (default cjpeg, a
high-table-coverage workload) must be at least ``--min-aot-speedup``
(default 1.3x) faster than the warm-cache superblock run.

Run from the repository root:

    PYTHONPATH=src python tools/determinism_gate.py [--workload dct4x4]
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.cycles.doe import DoeModel  # noqa: E402
from repro.framework.parallel import run_parallel  # noqa: E402
from repro.framework.pipeline import build_benchmark, run  # noqa: E402
from repro.snapshot import memory_digest  # noqa: E402
from repro.telemetry import format_forensics, run_lockstep  # noqa: E402

FAILURES = []


def check(label, straight_value, other_value):
    if straight_value == other_value:
        print(f"  ok: {label}")
    else:
        FAILURES.append(label)
        print(f"  MISMATCH: {label}\n"
              f"    straight: {straight_value!r}\n"
              f"    other:    {other_value!r}")


def doe_drift_state(model):
    return {
        "slot_last_start": list(model.slot_last_start),
        "fetch_floor": model.fetch_floor,
        "max_completion": model.max_completion,
        "reg_write_cycle": list(model.reg_write_cycle),
    }


def perf_smoke(built, width, engine, min_speedup):
    """Warm-plan-cache fused DOE must beat per-instruction observe."""
    import time

    from repro.framework.pipeline import open_plan_cache

    with tempfile.TemporaryDirectory() as cache_dir:
        # Prime the cache so the timed fused run starts warm — the
        # steady state every run after the first sees.
        run(built, engine=engine, cycle_model=DoeModel(issue_width=width),
            plan_cache=open_plan_cache(built, directory=cache_dir))
        best_fused = best_ref = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            run(built, engine=engine,
                cycle_model=DoeModel(issue_width=width),
                plan_cache=open_plan_cache(built, directory=cache_dir))
            best_fused = min(best_fused, time.perf_counter() - t0)
            t0 = time.perf_counter()
            run(built, engine=engine,
                cycle_model=DoeModel(issue_width=width),
                fuse_cycles=False)
            best_ref = min(best_ref, time.perf_counter() - t0)
    speedup = best_ref / best_fused
    print(f"  fused {best_fused * 1000:.1f} ms, per-instruction "
          f"{best_ref * 1000:.1f} ms -> {speedup:.2f}x "
          f"(required {min_speedup:.2f}x)")
    if speedup < min_speedup:
        FAILURES.append("fused DOE perf smoke")
        print("  MISMATCH: fused DOE is not fast enough")


def aot_forensics(built, name):
    """Rerun a mismatching superblock/aot pair in lockstep and report."""
    print(f"  rerunning {name} in lockstep for forensics ...")
    report = run_lockstep(
        built,
        {"engine": "superblock", "label": "superblock"},
        {"engine": "aot", "label": "aot"},
    )
    if report is None:
        print("  lockstep rerun agreed to completion (flaky host state?)")
        return
    print(format_forensics(report, getattr(built, "debug_info", None)))


def aot_cross_engine(name):
    """aot vs superblock: functional and fused DOE, bitwise."""
    program, _, isa = name.partition("@")
    built = build_benchmark(program, isa=isa or "risc")
    width = built.issue_width
    failures_before = len(FAILURES)

    sb = run(built, engine="superblock")
    via_aot = run(built, engine="aot")
    binding = via_aot.interpreter.aot
    bound = f"{binding.entries_bound}/{binding.entries_total}" \
        if binding is not None else "none"
    print(f"  {name}: functional aot module bound {bound}, "
          f"{binding.dispatches if binding else 0} dispatches")
    check(f"{name} aot functional architectural stats",
          sb.stats.architectural_dict(),
          via_aot.stats.architectural_dict())
    check(f"{name} aot functional registers",
          list(sb.program.state.regs), list(via_aot.program.state.regs))
    check(f"{name} aot functional memory digest",
          memory_digest(sb.program.state.mem),
          memory_digest(via_aot.program.state.mem))
    check(f"{name} aot functional output", sb.output, via_aot.output)
    check(f"{name} aot functional exit code",
          sb.exit_code, via_aot.exit_code)

    sb_model = DoeModel(issue_width=width)
    sb_doe = run(built, engine="superblock", cycle_model=sb_model)
    aot_model = DoeModel(issue_width=width)
    aot_doe = run(built, engine="aot", cycle_model=aot_model)
    check(f"{name} aot doe cycles", sb_model.cycles, aot_model.cycles)
    check(f"{name} aot doe drift state",
          doe_drift_state(sb_model), doe_drift_state(aot_model))
    check(f"{name} aot doe architectural stats",
          sb_doe.stats.architectural_dict(),
          aot_doe.stats.architectural_dict())
    check(f"{name} aot doe output", sb_doe.output, aot_doe.output)

    if len(FAILURES) > failures_before:
        aot_forensics(built, name)


def sampled_determinism(built, width, spec):
    """Sampling tier: fixed (U,k,W,seed) is bitwise reproducible.

    Two sampled runs must agree on every measured interval and the
    extrapolated estimate, and the architectural end-state must equal
    a pure functional run bitwise — the schedule only decides *when*
    the cycle model watches, never what the program computes.
    """
    first = run(built, engine="superblock",
                cycle_model=DoeModel(issue_width=width), sampling=spec)
    second = run(built, engine="superblock",
                 cycle_model=DoeModel(issue_width=width), sampling=spec)
    check("sampled intervals reproducible",
          first.sampling.intervals, second.sampling.intervals)
    check("sampled estimate reproducible",
          (first.sampling.cycles_estimated, first.sampling.cycles_ci95),
          (second.sampling.cycles_estimated, second.sampling.cycles_ci95))

    functional = run(built, engine="superblock")
    check("sampled architectural stats vs functional",
          functional.stats.architectural_dict(),
          first.stats.architectural_dict())
    check("sampled registers vs functional",
          list(functional.program.state.regs),
          list(first.program.state.regs))
    check("sampled memory digest vs functional",
          memory_digest(functional.program.state.mem),
          memory_digest(first.program.state.mem))
    check("sampled output vs functional", functional.output, first.output)
    check("sampled exit code vs functional",
          functional.exit_code, first.exit_code)


def aot_perf_smoke(name, min_speedup):
    """Warm AOT must beat the warm-cache superblock engine.

    Measured on a high-coverage workload (default cjpeg): blocks
    ending in simops or ISA switches run on the interactive fallback
    path by design, so simop-dense microbenchmarks measure the
    fallback, not the table.
    """
    import time

    from repro.framework.pipeline import open_plan_cache

    built = build_benchmark(name)
    with tempfile.TemporaryDirectory() as cache_dir:
        # Cold pass: compile the module and populate the plan cache.
        run(built, engine="aot",
            plan_cache=open_plan_cache(built, directory=cache_dir))
        run(built, engine="superblock",
            plan_cache=open_plan_cache(built, directory=cache_dir))
        best_sb = best_aot = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            run(built, engine="superblock",
                plan_cache=open_plan_cache(built, directory=cache_dir))
            best_sb = min(best_sb, time.perf_counter() - t0)
            t0 = time.perf_counter()
            run(built, engine="aot",
                plan_cache=open_plan_cache(built, directory=cache_dir))
            best_aot = min(best_aot, time.perf_counter() - t0)
    speedup = best_sb / best_aot
    print(f"  {name}: superblock {best_sb * 1000:.1f} ms, aot "
          f"{best_aot * 1000:.1f} ms -> {speedup:.2f}x "
          f"(required {min_speedup:.2f}x)")
    if speedup < min_speedup:
        FAILURES.append("aot perf smoke")
        print("  MISMATCH: warm aot is not fast enough")


def forensics_selftest(built):
    """Injected fault must yield a localized forensic report.

    Flips one bit of the stack pointer on the lockstep B side at a
    fixed instruction boundary and requires :func:`run_lockstep` to
    come back with a report that (a) exists, (b) names the first
    divergent PC at exactly the injection boundary, (c) blames a
    register, and (d) carries non-empty block trails from both
    engines — everything CI relies on when a *real* divergence hits.
    """
    sp = built.arch.register_file.by_role("sp")[0].name
    inject = {"at": 50_000, "reg": sp, "xor": 8}
    report = run_lockstep(
        built,
        {"engine": "superblock", "label": "superblock"},
        {"engine": "aot", "label": "aot"},
        inject=inject,
    )
    if report is None:
        FAILURES.append("forensics selftest: no divergence detected")
        print("  MISMATCH: injected fault produced no report")
        return
    problems = []
    if report.get("first_divergent_pc") is None:
        problems.append("no first_divergent_pc")
    if report.get("first_divergent_instruction") != inject["at"]:
        problems.append(
            f"localized instruction "
            f"{report.get('first_divergent_instruction')} != {inject['at']}"
        )
    delta = (report.get("replay_register_delta")
             or report.get("register_delta") or [])
    if not any(entry.get("name") == sp for entry in delta):
        problems.append(f"register delta does not name {sp}")
    for key in ("recent_blocks_a", "recent_blocks_b"):
        if not (report.get(key) or {}).get("blocks"):
            problems.append(f"{key} trail empty")
    if problems:
        FAILURES.append("forensics selftest")
        for problem in problems:
            print(f"  MISMATCH: forensics selftest: {problem}")
        return
    pc = report["first_divergent_pc"]
    print(f"  ok: injected {sp}^=8 at #{inject['at']} localized to "
          f"pc={pc:#x}, {len(report['recent_blocks_a']['blocks'])}+"
          f"{len(report['recent_blocks_b']['blocks'])} trail entries")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="dct4x4")
    parser.add_argument("--engine", default="superblock")
    parser.add_argument("--checkpoint-every", type=int, default=40_000)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--perf-smoke", action="store_true",
                        help="also gate fused-DOE and aot wall-clock "
                             "speedups")
    parser.add_argument("--min-speedup", type=float, default=1.5)
    parser.add_argument("--min-aot-speedup", type=float, default=1.3)
    parser.add_argument("--aot-perf-workload", default="cjpeg",
                        help="workload for the aot perf smoke (default "
                             "cjpeg: high table coverage — simop-dense "
                             "workloads measure the fallback path)")
    parser.add_argument("--forensics-selftest", action="store_true",
                        help="inject a register fault into a lockstep "
                             "run and require the forensics report to "
                             "localize it (first divergent PC, register "
                             "delta, block trails)")
    parser.add_argument("--sampling-spec", default="2000:10:200",
                        help="U:k[:W[:seed]] schedule for the sampled "
                             "determinism section")
    parser.add_argument("--aot-benchmarks", default=None,
                        help="comma list of workloads for the aot "
                             "cross-engine section, each a program or "
                             "program@isa; 'all' = every bundled "
                             "benchmark (default: --workload)")
    args = parser.parse_args(argv)

    built = build_benchmark(args.workload)
    width = built.issue_width

    print(f"straight run ({args.workload}, {args.engine}, doe, fused) ...")
    straight_model = DoeModel(issue_width=width)
    straight = run(built, engine=args.engine, cycle_model=straight_model)
    straight_arch = straight.stats.architectural_dict()
    straight_mem = memory_digest(straight.program.state.mem)

    print("per-instruction reference (fuse_cycles=False) ...")
    ref_model = DoeModel(issue_width=width)
    ref = run(built, engine=args.engine, cycle_model=ref_model,
              fuse_cycles=False)
    check("fused doe cycles", straight_model.cycles, ref_model.cycles)
    check("fused architectural stats",
          straight_arch, ref.stats.architectural_dict())
    check("fused doe drift state",
          doe_drift_state(straight_model), doe_drift_state(ref_model))
    check("fused output", straight.output, ref.output)

    print(f"checkpoint + resume (every {args.checkpoint_every}) ...")
    with tempfile.TemporaryDirectory() as directory:
        part_model = DoeModel(issue_width=width)
        part = run(
            built, engine=args.engine, cycle_model=part_model,
            checkpoint_every=args.checkpoint_every,
            checkpoint_dir=directory,
        )
        if not part.checkpoints:
            print(f"  MISMATCH: no checkpoints written — workload too "
                  f"short for --checkpoint-every {args.checkpoint_every}")
            return 1
        check("checkpointed run architectural stats",
              straight_arch, part.stats.architectural_dict())
        middle = part.checkpoints[len(part.checkpoints) // 2]
        print(f"resuming from {os.path.basename(middle)} ...")
        resume_model = DoeModel(issue_width=width)
        resumed = run(
            built, engine=args.engine, cycle_model=resume_model,
            resume_from=middle,
        )
        check("resumed architectural stats",
              straight_arch, resumed.stats.architectural_dict())
        check("resumed registers",
              list(straight.program.state.regs),
              list(resumed.program.state.regs))
        check("resumed memory digest",
              straight_mem, memory_digest(resumed.program.state.mem))
        check("resumed output", straight.output, resumed.output)
        check("resumed exit code", straight.exit_code, resumed.exit_code)
        check("resumed doe cycles", straight_model.cycles,
              resume_model.cycles)

    print(f"parallel shard merge ({args.shards} shards) ...")
    par = run_parallel(built, shards=args.shards, model="doe",
                       engine=args.engine, workload=args.workload)
    check("merged architectural stats",
          straight_arch, par.stats.architectural_dict())
    check("merged output", straight.output, par.output)
    check("merged exit code", straight.exit_code, par.exit_code)
    drift = (abs(par.cycles - straight_model.cycles)
             / max(straight_model.cycles, 1))
    print(f"  info: shard cycle drift {drift * 100:.3f}% "
          f"({par.cycles} vs {straight_model.cycles}; approximate by "
          f"design, not gated)")

    aot_names = []
    for item in (args.aot_benchmarks or args.workload).split(","):
        if item.strip() == "all":
            from repro.programs import program_names

            aot_names.extend(sorted(program_names()))
        else:
            aot_names.append(item.strip())
    print(f"aot cross-engine ({', '.join(aot_names)}) ...")
    for name in aot_names:
        aot_cross_engine(name)

    print(f"sampled determinism ({args.sampling_spec}) ...")
    sampled_determinism(built, width, args.sampling_spec)

    if args.forensics_selftest:
        print("forensics self-test (injected sp fault) ...")
        forensics_selftest(built)

    if args.perf_smoke:
        print(f"perf smoke (warm plan cache, min {args.min_speedup}x) ...")
        perf_smoke(built, width, args.engine, args.min_speedup)
        print(f"aot perf smoke (warm module, min "
              f"{args.min_aot_speedup}x) ...")
        aot_perf_smoke(args.aot_perf_workload, args.min_aot_speedup)

    if FAILURES:
        print(f"\ndeterminism gate FAILED: {len(FAILURES)} mismatch(es)")
        return 1
    print("\ndeterminism gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
