"""``doe-warm``: detailed DOE simulation through the library API.

Set-up builds the nine configurations of
:data:`kbench.common.DOE_WARM_PROGRAMS` and primes a private plan
cache with one fused DOE run of each.  The timed loop then runs whole
passes over the nine — ``pipeline.run(engine="superblock",
cycle_model=DoeModel)`` with the default memory hierarchy, in an
order drawn from the seed — until the run time is used up.  Each run
is one operation, checked against its pinned reference; the loop ends
only between passes, so every run times each configuration equally
often and the latency distribution is that of a fixed mix.
"""

from __future__ import annotations

import random
import sys
import time
from statistics import median
from typing import Dict, List, Tuple

from . import common
from .layers import LayerLog
from .oplog import OpLog, e2e_metrics
from .spans import SpanRecorder

SETUP_REPEATS = 3


def setup(scratch: common.Scratch) -> Dict[Tuple[str, str], tuple]:
    """Build every configuration and prime its plan cache."""
    from repro.framework import pipeline

    cache_dir = scratch.fresh("plans-")
    prepared = {}
    for program, isa in common.DOE_WARM_PROGRAMS:
        built = pipeline.build_benchmark(program, isa=isa)
        plan_cache = pipeline.open_plan_cache(built, directory=cache_dir)
        pipeline.run(
            built, engine="superblock", plan_cache=plan_cache,
            cycle_model=common.make_model("doe", built.issue_width),
        )
        plan_cache.save()
        prepared[(program, isa)] = (built, plan_cache)
    return prepared


def _sim_run_s(recorder: SpanRecorder, since: int) -> float:
    return sum(
        s.duration_ns for s in recorder.spans[since:] if s.name == "sim.run"
    ) / 1e9


def _run_one(cfg, prepared, model, gate: common.Gate, trace: bool):
    """One gated ``pipeline.run``: ``(seconds, result)``."""
    from repro.framework import pipeline

    built, plan_cache = prepared[cfg]
    start = time.perf_counter()
    result = pipeline.run(
        built, engine="superblock", cycle_model=model,
        plan_cache=plan_cache, collect_metrics=trace,
    )
    elapsed = time.perf_counter() - start
    wrong = gate.check(
        common.build_key(*cfg), output=result.output,
        exit_code=result.exit_code,
        instructions=result.stats.executed_instructions,
        cycles=result.cycles,
    )
    if wrong:
        raise _Mismatch(wrong)
    return elapsed, result


class _Mismatch(Exception):
    pass


def run(seed: int, seconds: float, trace: bool) -> dict:
    """Whole passes over the nine configurations until time is up.

    An operation is one ``pipeline.run``; it fails when it faults or
    differs from the pinned reference.  The untraced run interleaves
    its three set-ups with the timed passes (a third of the run time
    after each), so the passes sample the host across the whole run
    rather than only its last stretch: the host's speed drifts from
    one minute to the next.
    """
    from repro.cycles.memmodel import find_cache

    gate = common.Gate()
    log = OpLog()
    layers = LayerLog()
    recorder = SpanRecorder()
    if trace:
        recorder.install()
    fused_s: Dict[tuple, List[float]] = {
        cfg: [] for cfg in common.DOE_WARM_PROGRAMS}
    order = list(common.DOE_WARM_PROGRAMS)
    rng = random.Random(seed)
    setups: List[float] = []
    segments = 1 if trace else SETUP_REPEATS
    loop_s = 0.0
    with common.Scratch("doe-warm") as scratch:
        for segment in range(1, segments + 1):
            start = time.perf_counter()
            prepared = setup(scratch)
            setups.append(time.perf_counter() - start)
            setup_marks = len(recorder.spans)
            segment_start = time.perf_counter()
            while (loop_s + time.perf_counter() - segment_start
                   < seconds * segment / segments):
                rng.shuffle(order)
                for cfg in order:
                    model = common.make_model(
                        "doe", prepared[cfg][0].issue_width)
                    mark = len(recorder.spans)
                    try:
                        elapsed, result = _run_one(cfg, prepared, model,
                                                   gate, trace)
                    except _Mismatch as exc:
                        log.fail(str(exc))
                        continue
                    except Exception as exc:  # a faulting run fails
                        log.fail(f"{cfg}: {type(exc).__name__}: {exc}")
                        continue
                    log.ok(elapsed, result.stats.executed_instructions)
                    if trace:
                        layers.add_run_metrics(result.metrics)
                        fused_s[cfg].append(_sim_run_s(recorder, mark))
                        l1 = find_cache(model.memory, "L1")
                        tag = f"{cfg[0]}.{cfg[1]}"
                        layers.set(f"mem.l1.accesses.{tag}", l1.accesses)
                        layers.set(f"mem.l1.miss_rate.{tag}", l1.miss_rate)
            loop_s += time.perf_counter() - segment_start
        if trace:
            layers.setups = len(setups)
            layers.add_spans(recorder.spans[:setup_marks], setup=True)
            layers.ops = len(log.latencies)
            layers.add_spans(recorder.spans[setup_marks:])
            layers.set_latency(log)
            _probes(prepared, recorder, layers, fused_s, gate)
            if log.latencies and not log.failed:
                print("doe-warm: modelled caches started empty on every "
                      "run: each run had a fresh DoeModel, and its cycles "
                      "matched the pins taken from fresh models",
                      file=sys.stderr)
        recorder.uninstall()
    if trace:
        metrics = layers.metrics()
    else:
        metrics = e2e_metrics(
            log, setup_s=median(setups), sim_seconds=sum(log.latencies),
            wall_s=loop_s, peak_rss_mb=common.peak_rss_mb(),
        )
    return {"log": log, "metrics": metrics}


def _probes(prepared, recorder: SpanRecorder, layers: LayerLog,
            fused_s: Dict[tuple, List[float]], gate: common.Gate) -> None:
    """Differential runs behind the cycle-model and memory metrics.

    Per configuration: the functional run (no cycle model), the fused
    DOE run over a flat one-cycle memory, and the per-instruction
    ``observe`` DOE run.  Each warm-up run fills that namespace's
    plan-cache entries before the measured run.
    """
    from repro.cycles.memmodel import MainMemory
    from repro.framework import pipeline

    def measured(built, plan_cache, make, *, fuse=True, warm=True) -> float:
        if warm:
            pipeline.run(built, engine="superblock", plan_cache=plan_cache,
                         cycle_model=make(), fuse_cycles=fuse)
        mark = len(recorder.spans)
        pipeline.run(built, engine="superblock", plan_cache=plan_cache,
                     cycle_model=make(), fuse_cycles=fuse)
        return _sim_run_s(recorder, mark)

    functional = {"risc": 0.0, "vliw4": 0.0}
    fused = {"risc": 0.0, "vliw4": 0.0}
    observe = {"risc": 0.0, "vliw4": 0.0}
    memmodel = 0.0
    for cfg, (built, plan_cache) in prepared.items():
        isa = cfg[1]
        width = built.issue_width
        fused_cfg = median(fused_s[cfg]) if fused_s[cfg] else 0.0
        fused[isa] += fused_cfg
        functional[isa] += measured(built, plan_cache, lambda: None)
        flat = measured(built, plan_cache, lambda: common.make_model(
            "doe", width, memory=MainMemory(delay=1)))
        memmodel += fused_cfg - flat
        observe[isa] += measured(
            built, plan_cache, lambda: common.make_model("doe", width),
            fuse=False, warm=False,
        )
    for isa in ("risc", "vliw4"):
        layers.set(f"sim.execute_s.{isa}", functional[isa])
        layers.set(f"cycles.doe_s.{isa}", fused[isa] - functional[isa])
        if fused[isa]:
            layers.set(f"cycles.fusion_speedup.{isa}",
                       observe[isa] / fused[isa])
    layers.set("memmodel_s", memmodel)
    for isa in ("risc", "vliw4"):
        built, _plan_cache = prepared[("dct4x4", isa)]
        rtl = common.make_model("rtl", built.issue_width)
        pipeline.run(built, engine="superblock", cycle_model=rtl)
        doe = gate.reference[common.build_key("dct4x4", isa)]["cycles"]
        error_pct = (doe - rtl.cycles) / rtl.cycles * 100.0
        layers.set(f"accuracy.doe_vs_rtl_pct.{isa}", abs(error_pct))
        print(f"doe-warm: DOE vs RTL on dct4x4/{isa}: {error_pct:+.4f} % "
              f"({doe} vs {rtl.cycles} cycles)", file=sys.stderr)
