"""Differential suite: fused cycle accounting vs the observe path.

Cycle fusion (``docs/performance.md``) compiles AIE/DOE accounting
into translated superblock plans.  The contract is *bitwise* equality
with the per-instruction ``observe`` path — not approximation — so
every test here runs the same workload twice, once with
``fuse_cycles=True`` and once with ``fuse_cycles=False``, and compares
exact integers: cycle counts, architectural statistics, and the cycle
model's full drift state.
"""

from __future__ import annotations

import pytest

from repro.cycles.aie import AieModel
from repro.cycles.doe import DoeModel
from repro.cycles.memmodel import HierarchyConfig, build_hierarchy
from repro.framework.pipeline import build_benchmark, run
from repro.programs import program_names
from repro.telemetry import HotspotProfiler

BENCHMARKS = ("cjpeg", "djpeg", "fft", "qsort", "aes", "dct4x4", "crc32")

#: The matrix's workloads: every benchmark on RISC (plain name) and as
#: a vliw4 build (``name@vliw4``), whose bundles fuse slot by slot.
WORKLOADS = BENCHMARKS + tuple(f"{name}@vliw4" for name in BENCHMARKS)

#: Cap per differential run — enough to cross HOT_THRESHOLD on every
#: hot loop and exercise the memory hierarchy, small enough that the
#: full matrix stays in tier-1 time.
CAP = 60_000

#: Two hierarchy shapes: the paper's default and a deliberately tiny,
#: blocking-port variant that forces misses, writebacks and port
#: stalls through the fused ``_yacc`` calls.
HIERARCHIES = {
    "default": HierarchyConfig(),
    "tiny": HierarchyConfig(
        l1_size=256, l1_assoc=1, l2_size=2 * 1024, l2_assoc=2,
        main_delay=40, l1_blocking_port=True,
    ),
}

_BUILDS = {}


def built_benchmark(name):
    """Build a workload: a benchmark name, or ``name@isa``."""
    if name not in _BUILDS:
        program, _, isa = name.partition("@")
        _BUILDS[name] = build_benchmark(program, isa=isa or "risc")
    return _BUILDS[name]


def make_model(kind, width, config):
    memory = build_hierarchy(config)
    if kind == "aie":
        return AieModel(memory=memory)
    return DoeModel(issue_width=width, memory=memory)


def doe_drift_state(model):
    """The slot-drift state the fused flush must reproduce exactly."""
    return {
        "slot_last_start": list(model.slot_last_start),
        "fetch_floor": model.fetch_floor,
        "max_completion": model.max_completion,
        "reg_write_cycle": list(model.reg_write_cycle),
    }


def differential_pair(name, kind, config):
    built = built_benchmark(name)
    fused_model = make_model(kind, built.issue_width, config)
    fused = run(built, engine="superblock", cycle_model=fused_model,
                max_instructions=CAP)
    ref_model = make_model(kind, built.issue_width, config)
    ref = run(built, engine="superblock", cycle_model=ref_model,
              max_instructions=CAP, fuse_cycles=False)
    return fused, fused_model, ref, ref_model


class TestFusedMatchesObserve:
    def test_benchmark_list_is_current(self):
        # The matrix below must cover every bundled benchmark.
        assert set(BENCHMARKS) == set(program_names())

    @pytest.mark.parametrize("hierarchy", sorted(HIERARCHIES))
    @pytest.mark.parametrize("kind", ["aie", "doe"])
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_cycles_bitwise_identical(self, name, kind, hierarchy):
        fused, fused_model, ref, ref_model = differential_pair(
            name, kind, HIERARCHIES[hierarchy]
        )
        assert fused_model.cycles == ref_model.cycles
        assert fused_model.instructions == ref_model.instructions
        assert fused_model.ops == ref_model.ops
        assert (fused.stats.architectural_dict()
                == ref.stats.architectural_dict())
        assert fused.output == ref.output
        # The fused engine actually took the fused path (otherwise
        # this differential is vacuous).
        engine = fused.interpreter.superblock
        assert engine.translations > 0
        assert any(plan.fused_full_fn or plan.fused_body_fn
                   for plan in engine.plans.values())

    @pytest.mark.parametrize("name", ["dct4x4", "qsort", "dct4x4@vliw4"])
    def test_doe_drift_state_identical(self, name):
        _fused, fused_model, _ref, ref_model = differential_pair(
            name, "doe", HIERARCHIES["tiny"]
        )
        assert doe_drift_state(fused_model) == doe_drift_state(ref_model)

    def test_aie_pending_state_identical(self):
        _fused, fused_model, _ref, ref_model = differential_pair(
            "fft", "aie", HIERARCHIES["default"]
        )
        assert fused_model.current_cycle == ref_model.current_cycle

    def test_memory_hierarchy_counters_identical(self):
        from repro.cycles.memmodel import find_cache

        _fused, fused_model, _ref, ref_model = differential_pair(
            "dct4x4", "doe", HIERARCHIES["tiny"]
        )
        for level in ("L1", "L2"):
            a = find_cache(fused_model.memory, level)
            b = find_cache(ref_model.memory, level)
            assert (a.hits, a.misses, a.writebacks) == (
                b.hits, b.misses, b.writebacks)


class TestProfilerInteraction:
    def test_profiled_run_attribution_still_sums(self):
        """A profiler forces the observe path; totals stay exact."""
        built = built_benchmark("dct4x4")
        profiler = HotspotProfiler(mode="block")
        model = DoeModel(issue_width=built.issue_width)
        result = run(built, engine="superblock", cycle_model=model,
                     profiler=profiler, max_instructions=CAP)
        assert (profiler.total_instructions
                == result.stats.executed_instructions)
        assert sum(profiler.pc_cycles.values()) == model.cycles

    def test_profiled_cycles_match_fused_cycles(self):
        """Profiling must not change the simulated cycle count."""
        built = built_benchmark("dct4x4")
        fused_model = DoeModel(issue_width=built.issue_width)
        run(built, engine="superblock", cycle_model=fused_model,
            max_instructions=CAP)
        prof_model = DoeModel(issue_width=built.issue_width)
        run(built, engine="superblock", cycle_model=prof_model,
            profiler=HotspotProfiler(mode="block"),
            max_instructions=CAP)
        assert fused_model.cycles == prof_model.cycles


class TestSnapshotInteraction:
    def test_checkpoint_resume_under_fused_engine(self, tmp_path):
        built = built_benchmark("dct4x4")
        straight_model = DoeModel(issue_width=built.issue_width)
        straight = run(built, engine="superblock",
                       cycle_model=straight_model)
        part_model = DoeModel(issue_width=built.issue_width)
        part = run(built, engine="superblock", cycle_model=part_model,
                   checkpoint_every=40_000, checkpoint_dir=str(tmp_path))
        assert part.checkpoints
        middle = part.checkpoints[len(part.checkpoints) // 2]
        resume_model = DoeModel(issue_width=built.issue_width)
        resumed = run(built, engine="superblock",
                      cycle_model=resume_model, resume_from=middle)
        assert resume_model.cycles == straight_model.cycles
        assert doe_drift_state(resume_model) == doe_drift_state(
            straight_model)
        assert (resumed.stats.architectural_dict()
                == straight.stats.architectural_dict())
        assert resumed.output == straight.output
