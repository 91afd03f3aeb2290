"""Persistent superblock plan cache (``repro.sim.plancache``).

Unit tests for the cache file contract (keying, digests, atomic
merge-writes) plus end-to-end warm-start behaviour: a second run of
the same executable must reload every hot-plan translation instead of
recompiling it, with bitwise-identical simulation results.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.cycles.doe import DoeModel
from repro.framework.pipeline import (
    build_benchmark,
    open_plan_cache,
    run,
)
from repro.sim.plancache import FORMAT_VERSION, PlanCache, default_cache_dir

_BUILDS = {}


def built_benchmark(name, isa="risc"):
    if (name, isa) not in _BUILDS:
        _BUILDS[name, isa] = build_benchmark(name, isa=isa)
    return _BUILDS[name, isa]


def fresh_cache(tmp_path, built):
    """A new PlanCache object over the same on-disk file."""
    return open_plan_cache(built, directory=str(tmp_path))


SRC = "def _superblock_body(state, inv, m):\n    return 7\n"
CODE = compile(SRC, "<test>", "exec")


class TestCacheFile:
    def test_open_keys_on_program_and_arch(self, tmp_path):
        a = PlanCache.open(elf_digest="aa", arch_digest="xx",
                           directory=str(tmp_path))
        b = PlanCache.open(elf_digest="bb", arch_digest="xx",
                           directory=str(tmp_path))
        c = PlanCache.open(elf_digest="aa", arch_digest="yy",
                           directory=str(tmp_path))
        assert len({a.path, b.path, c.path}) == 3

    def test_roundtrip_through_new_object(self, tmp_path):
        cache = PlanCache.open(elf_digest="aa", arch_digest="xx",
                               directory=str(tmp_path))
        cache.record(0, 0x1000, (0x1000, 0x1010), "d1", "DOE:test",
                     {"fused_full": (SRC, CODE)})
        cache.save()
        warm = PlanCache(cache.path)
        fns = warm.lookup(0, 0x1000, "DOE:test", "d1")
        assert fns is not None
        assert fns["fused_full"](None, None, None) == 7

    def test_digest_mismatch_misses(self, tmp_path):
        cache = PlanCache.open(elf_digest="aa", arch_digest="xx",
                               directory=str(tmp_path))
        cache.record(0, 0x1000, (0x1000, 0x1010), "d1", "",
                     {"full": (SRC, CODE)})
        assert cache.lookup(0, 0x1000, "", "d2") is None
        assert cache.lookup(0, 0x1000, "", "d1") is not None

    def test_namespace_isolation(self, tmp_path):
        cache = PlanCache.open(elf_digest="aa", arch_digest="xx",
                               directory=str(tmp_path))
        cache.record(0, 0x1000, (0x1000, 0x1010), "d1", "AIE:mem=x",
                     {"fused_body": (SRC, CODE)})
        assert cache.lookup(0, 0x1000, "DOE:mem=x", "d1") is None

    def test_empty_variants_hit_without_retry(self, tmp_path):
        """A recorded failed translation still answers warm lookups."""
        cache = PlanCache.open(elf_digest="aa", arch_digest="xx",
                               directory=str(tmp_path))
        cache.record(0, 0x1000, (0x1000, 0x1010), "d1", "DOE:test", {})
        cache.save()
        warm = PlanCache(cache.path)
        assert warm.lookup(0, 0x1000, "DOE:test", "d1") == {}

    def test_version_mismatch_ignored(self, tmp_path):
        cache = PlanCache.open(elf_digest="aa", arch_digest="xx",
                               directory=str(tmp_path))
        cache.record(0, 0x1000, (0x1000, 0x1010), "d1", "",
                     {"full": (SRC, CODE)})
        cache.save()
        with open(cache.path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        data["version"] = FORMAT_VERSION + 1
        with open(cache.path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        assert len(PlanCache(cache.path)) == 0

    def test_corrupt_file_ignored(self, tmp_path):
        path = str(tmp_path / "plans-bad.json")
        with open(path, "w") as fh:
            fh.write("{not json")
        cache = PlanCache(path)
        assert len(cache) == 0
        cache.record(0, 0x1000, (0x1000, 0x1010), "d1", "", {})
        cache.save()  # must overwrite the corrupt file, not crash
        assert len(PlanCache(path)) == 1

    def test_save_merges_concurrent_writers(self, tmp_path):
        first = PlanCache.open(elf_digest="aa", arch_digest="xx",
                               directory=str(tmp_path))
        second = PlanCache(first.path)
        first.record(0, 0x1000, (0x1000, 0x1010), "d1", "A",
                     {"full": (SRC, CODE)})
        second.record(0, 0x2000, (0x2000, 0x2010), "d2", "B",
                      {"full": (SRC, CODE)})
        first.save()
        second.save()
        merged = PlanCache(first.path)
        assert merged.lookup(0, 0x1000, "A", "d1") is not None
        assert merged.lookup(0, 0x2000, "B", "d2") is not None

    def test_save_merges_namespaces_of_one_entry(self, tmp_path):
        """AIE and DOE runs of one program share entries in one file."""
        first = PlanCache.open(elf_digest="aa", arch_digest="xx",
                               directory=str(tmp_path))
        second = PlanCache(first.path)
        first.record(0, 0x1000, (0x1000, 0x1010), "d1", "A",
                     {"fused_full": (SRC, CODE)})
        second.record(0, 0x1000, (0x1000, 0x1010), "d1", "B",
                      {"fused_full": (SRC, CODE)})
        first.save()
        second.save()
        merged = PlanCache(first.path)
        assert merged.lookup(0, 0x1000, "A", "d1") is not None
        assert merged.lookup(0, 0x1000, "B", "d1") is not None

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        cache = PlanCache.open(elf_digest="aa", arch_digest="xx",
                               directory=str(tmp_path))
        cache.record(0, 0x1000, (0x1000, 0x1010), "d1", "", {})
        cache.save()
        names = os.listdir(str(tmp_path))
        assert [n for n in names if n.endswith(".tmp")] == []

    def test_save_is_noop_when_clean(self, tmp_path):
        cache = PlanCache.open(elf_digest="aa", arch_digest="xx",
                               directory=str(tmp_path))
        cache.save()
        assert not os.path.exists(cache.path)

    def test_default_dir_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("KAHRISMA_CACHE_DIR", str(tmp_path))
        assert default_cache_dir() == str(tmp_path)


class TestEntryLimit:
    def _record_n(self, cache, n):
        for i in range(n):
            cache.record(0, 0x1000 + 16 * i,
                         (0x1000 + 16 * i, 0x1010 + 16 * i),
                         f"d{i}", "", {"full": (SRC, CODE)})

    def test_lru_eviction_at_save(self, tmp_path):
        cache = PlanCache.open(elf_digest="aa", arch_digest="xx",
                               directory=str(tmp_path), limit=3)
        self._record_n(cache, 5)
        # Touch the two oldest so the *middle* entries become stale.
        assert cache.lookup(0, 0x1000, "", "d0") is not None
        assert cache.lookup(0, 0x1010, "", "d1") is not None
        cache.save()
        assert cache.evictions == 2
        warm = PlanCache(cache.path)
        assert len(warm) == 3
        assert warm.lookup(0, 0x1000, "", "d0") is not None
        assert warm.lookup(0, 0x1010, "", "d1") is not None
        assert warm.lookup(0, 0x1020, "", "d2") is None

    def test_no_limit_keeps_everything(self, tmp_path):
        cache = PlanCache.open(elf_digest="aa", arch_digest="xx",
                               directory=str(tmp_path))
        self._record_n(cache, 5)
        cache.save()
        assert cache.evictions == 0
        assert len(PlanCache(cache.path)) == 5

    def test_under_limit_no_eviction(self, tmp_path):
        cache = PlanCache.open(elf_digest="aa", arch_digest="xx",
                               directory=str(tmp_path), limit=8)
        self._record_n(cache, 5)
        cache.save()
        assert cache.evictions == 0
        assert len(PlanCache(cache.path)) == 5

    def test_limit_via_open_plan_cache(self, tmp_path):
        built = built_benchmark("dct4x4")
        cache = open_plan_cache(built, directory=str(tmp_path), limit=7)
        assert cache.limit == 7

    def test_eviction_counter_reaches_telemetry(self, tmp_path):
        from repro.telemetry.collect import collect_interpreter_metrics

        built = built_benchmark("dct4x4")
        cache = open_plan_cache(built, directory=str(tmp_path), limit=4)
        result = run(built, engine="superblock", plan_cache=cache)
        metrics = collect_interpreter_metrics(result.interpreter)
        assert metrics["sim.plancache.evictions"] == cache.evictions
        assert metrics["sim.plancache.evictions"] > 0
        assert metrics["sim.plancache.entries"] == len(cache)


def _hammer_writer(path, writer_id, rounds):
    """One writer process: record+save ``rounds`` distinct entries."""
    cache = PlanCache(path)
    for i in range(rounds):
        addr = 0x1000 + 0x100 * (writer_id * rounds + i)
        cache.record(0, addr, (addr, addr + 16),
                     f"w{writer_id}-{i}", "", {"full": (SRC, CODE)})
        cache.save()
    return cache.lock_timeouts


class TestConcurrentWriters:
    def test_eight_process_hammer_loses_no_entries(self, tmp_path):
        """8 worker processes × 25 save cycles on one cache file.

        This is the serve deployment shape: every worker of a
        ``kahrisma serve`` pool shares one plan-cache directory and
        saves after each job.  The flock-guarded read-merge-write in
        :meth:`PlanCache.save` must not lose any concurrent entry.
        """
        import multiprocessing

        ctx = (multiprocessing.get_context("fork")
               if "fork" in multiprocessing.get_all_start_methods()
               else multiprocessing.get_context("spawn"))
        writers, rounds = 8, 25
        path = str(tmp_path / "plans-hammer.json")
        with ctx.Pool(writers) as pool:
            timeouts = pool.starmap(
                _hammer_writer,
                [(path, w, rounds) for w in range(writers)],
            )
        assert sum(timeouts) == 0  # nobody gave up on the lock
        merged = PlanCache(path)
        assert len(merged) == writers * rounds
        for w in range(writers):
            for i in range(rounds):
                addr = 0x1000 + 0x100 * (w * rounds + i)
                assert merged.lookup(0, addr, "", f"w{w}-{i}") is not None

    def test_lock_wait_counters_reach_telemetry(self, tmp_path):
        from repro.telemetry.collect import collect_interpreter_metrics

        built = built_benchmark("dct4x4")
        cache = fresh_cache(tmp_path, built)
        result = run(built, engine="superblock", plan_cache=cache)
        metrics = collect_interpreter_metrics(result.interpreter)
        assert metrics["sim.plancache.lock_waits"] == cache.lock_waits
        assert metrics["sim.plancache.lock_timeouts"] == cache.lock_timeouts
        assert metrics["sim.plancache.lock_timeouts"] == 0


class TestLockCleanup:
    """``save()`` must not litter ``*.lock`` sidecars in the cache dir.

    The holder unlinks the sidecar while still holding the flock;
    waiters verify the inode they locked is still the one on disk and
    reopen otherwise, so cleanup cannot hand two writers the lock.
    """

    def test_save_leaves_no_lock_sidecar(self, tmp_path):
        cache = PlanCache.open(elf_digest="aa", arch_digest="xx",
                               directory=str(tmp_path))
        cache.record(0, 0x1000, (0x1000, 0x1010), "d1", "",
                     {"full": (SRC, CODE)})
        cache.save()
        names = os.listdir(str(tmp_path))
        assert [n for n in names if n.endswith(".lock")] == [], names

    def test_reacquire_after_cleanup(self, tmp_path):
        """Fresh saves keep working after the sidecar was removed."""
        path = str(tmp_path / "plans.json")
        for i in range(3):
            cache = PlanCache(path)
            addr = 0x1000 + 0x100 * i
            cache.record(0, addr, (addr, addr + 16), f"d{i}", "",
                         {"full": (SRC, CODE)})
            cache.save()
            assert not os.path.exists(path + ".lock")
        merged = PlanCache(path)
        assert len(merged) == 3

    def test_hammer_leaves_no_lock_files(self, tmp_path):
        """Contended writers clean up too (the orphaned-inode path)."""
        import multiprocessing

        ctx = (multiprocessing.get_context("fork")
               if "fork" in multiprocessing.get_all_start_methods()
               else multiprocessing.get_context("spawn"))
        writers, rounds = 4, 10
        path = str(tmp_path / "plans-cleanup.json")
        with ctx.Pool(writers) as pool:
            timeouts = pool.starmap(
                _hammer_writer,
                [(path, w, rounds) for w in range(writers)],
            )
        assert sum(timeouts) == 0
        merged = PlanCache(path)
        assert len(merged) == writers * rounds  # contention lost nothing
        names = os.listdir(str(tmp_path))
        assert [n for n in names if n.endswith(".lock")] == [], names


class TestModuleSideFiles:
    PAYLOAD = {"format": 1, "namespace": "", "code": b"\x00\x01",
               "entries": []}

    def test_roundtrip(self, tmp_path):
        cache = PlanCache.open(elf_digest="aa", arch_digest="xx",
                               directory=str(tmp_path))
        assert cache.lookup_module("") is None
        assert cache.module_stamp("") is None
        cache.record_module("", self.PAYLOAD)
        assert cache.lookup_module("") == self.PAYLOAD
        assert cache.module_stamp("") is not None
        # A fresh object over the same path sees the module without
        # any save() — side files are written immediately.
        assert PlanCache(cache.path).lookup_module("") == self.PAYLOAD

    def test_namespaces_get_separate_files(self, tmp_path):
        cache = PlanCache.open(elf_digest="aa", arch_digest="xx",
                               directory=str(tmp_path))
        cache.record_module("", self.PAYLOAD)
        cache.record_module("DOE:w1", dict(self.PAYLOAD, namespace="DOE:w1"))
        assert cache.lookup_module("")["namespace"] == ""
        assert cache.lookup_module("DOE:w1")["namespace"] == "DOE:w1"
        # Lock sidecars (.bin.lock) ride along; count the modules only.
        mods = [n for n in os.listdir(str(tmp_path))
                if ".mod-" in n and n.endswith(".bin")]
        assert len(mods) == 2

    def test_stamp_changes_on_rewrite(self, tmp_path):
        cache = PlanCache.open(elf_digest="aa", arch_digest="xx",
                               directory=str(tmp_path))
        cache.record_module("", self.PAYLOAD)
        before = cache.module_stamp("")
        cache.record_module("", dict(self.PAYLOAD, code=b"\x00\x01\x02"))
        assert cache.module_stamp("") != before

    def test_corrupt_module_file_is_a_miss(self, tmp_path):
        cache = PlanCache.open(elf_digest="aa", arch_digest="xx",
                               directory=str(tmp_path))
        cache.record_module("", self.PAYLOAD)
        with open(cache._module_path(""), "wb") as fh:
            fh.write(b"garbage")
        assert cache.lookup_module("") is None


class TestWarmRuns:
    def test_warm_run_skips_translation(self, tmp_path):
        built = built_benchmark("dct4x4")
        cold_model = DoeModel(issue_width=built.issue_width)
        cold = run(built, engine="superblock", cycle_model=cold_model,
                   plan_cache=fresh_cache(tmp_path, built))
        cold_engine = cold.interpreter.superblock
        assert cold_engine.translations > 0
        assert os.path.exists(cold.interpreter.plan_cache.path)

        warm_model = DoeModel(issue_width=built.issue_width)
        warm = run(built, engine="superblock", cycle_model=warm_model,
                   plan_cache=fresh_cache(tmp_path, built))
        warm_engine = warm.interpreter.superblock
        assert warm_engine.translations == 0
        assert warm_engine.plan_cache_hits > 0
        assert warm_model.cycles == cold_model.cycles
        assert (warm.stats.architectural_dict()
                == cold.stats.architectural_dict())
        assert warm.output == cold.output

    def test_warm_vliw4_bundles_reload_bitwise(self, tmp_path):
        """Bundle plans persist like single-issue ones: a warm fused
        DOE run reloads them and reproduces the cold run bitwise."""
        built = built_benchmark("dct4x4", isa="vliw4")
        runs = []
        for _ in range(2):
            model = DoeModel(issue_width=built.issue_width)
            result = run(built, engine="superblock", cycle_model=model,
                         plan_cache=fresh_cache(tmp_path, built))
            runs.append((result, model))
        (cold, cold_model), (warm, warm_model) = runs
        assert cold.interpreter.superblock.translations > 0
        warm_engine = warm.interpreter.superblock
        assert warm_engine.translations == 0
        assert warm_engine.plan_cache_hits > 0
        # The reloaded variants are bundle translations, not misses.
        assert any(
            plan.fused_full_fn or plan.fused_body_fn
            for plan in warm_engine.plans.values()
            if any(dec.single is None for dec in plan.decs)
        )
        assert warm_model.cycles == cold_model.cycles
        assert (list(warm_model.slot_last_start)
                == list(cold_model.slot_last_start))
        assert (warm.stats.architectural_dict()
                == cold.stats.architectural_dict())
        assert warm.output == cold.output

    def test_functional_and_fused_share_a_file(self, tmp_path):
        built = built_benchmark("qsort")
        run(built, engine="superblock",
            plan_cache=fresh_cache(tmp_path, built))
        fused = run(built, engine="superblock",
                    cycle_model=DoeModel(issue_width=built.issue_width),
                    plan_cache=fresh_cache(tmp_path, built))
        # Functional entries don't serve the fused namespace ...
        assert fused.interpreter.superblock.translations > 0
        warm = run(built, engine="superblock",
                   cycle_model=DoeModel(issue_width=built.issue_width),
                   plan_cache=fresh_cache(tmp_path, built))
        # ... but both namespaces persist side by side.
        assert warm.interpreter.superblock.translations == 0
        assert warm.interpreter.superblock.plan_cache_hits > 0
        files = [n for n in os.listdir(str(tmp_path))
                 if n.startswith("plans-") and n.endswith(".json")]
        assert len(files) == 1

    def test_per_instruction_configs_bypass_the_cache(self, tmp_path):
        """A profiled run neither reads nor records plan entries."""
        from repro.telemetry import HotspotProfiler

        built = built_benchmark("qsort")
        cache = fresh_cache(tmp_path, built)
        result = run(built, engine="superblock",
                     cycle_model=DoeModel(issue_width=built.issue_width),
                     profiler=HotspotProfiler(mode="block"),
                     plan_cache=cache)
        assert result.interpreter.superblock.plan_cache is None
        assert len(cache) == 0

    def test_no_fusion_reference_config_is_uncached(self, tmp_path):
        """fuse_cycles=False observes per-instruction: nothing cached."""
        built = built_benchmark("qsort")
        cache = fresh_cache(tmp_path, built)
        result = run(built, engine="superblock",
                     cycle_model=DoeModel(issue_width=built.issue_width),
                     plan_cache=cache, fuse_cycles=False)
        assert result.interpreter.superblock.translations == 0
        assert len(cache) == 0
