"""``cli-aot``: ``kahrisma`` as fresh processes on aes.

Set-up is the cold path: in a fresh directory with an empty plan
cache, ``kahrisma compile aes -o aes.elf`` and then ``kahrisma run
aes.elf --engine aot --model doe`` (import, KC toolchain, load, AOT
compile, plan-cache write, execute).  Its median over the three
set-ups of a run is the cold ``kahrisma run`` time.  Each timed operation is the same
``kahrisma run`` again in a fresh process, on the plan cache that now
holds the AOT module (import, load, module revival, execute): the
warm ``kahrisma run``.

Fresh processes are required: ``repro.sim.aot`` memoises optimised
modules process-wide, so a repeated cold run inside one process
would silently read warm.
"""

from __future__ import annotations

import json
import os
import time
from statistics import median
from typing import List, Optional

from . import cliproc, common
from .layers import LayerLog
from .oplog import OpLog, e2e_metrics
from .spans import load_spans

SETUP_REPEATS = 3
#: Bound on any one command; an expiry fails the operation.
COMMAND_TIMEOUT_S = 60.0
#: Warm runs paired with and without the flight recorder (traced run).
FLIGHT_PAIRS = 5


class SetupError(RuntimeError):
    pass


class _Commands:
    """Builds the command lines of one workload run (traced or not)."""

    def __init__(self, layers: Optional[LayerLog]) -> None:
        self.layers = layers
        self.count = 0

    def _spans(self, cwd: str) -> Optional[str]:
        if self.layers is None:
            return None
        self.count += 1
        return os.path.join(cwd, f"spans-{self.count}.json")

    def run(self, args: List[str], cwd: str, *,
            setup: bool = False) -> cliproc.CmdResult:
        spans_path = self._spans(cwd)
        result = cliproc.run(cliproc.kahrisma(args, spans_path), cwd=cwd,
                             timeout=COMMAND_TIMEOUT_S)
        if spans_path is not None and os.path.exists(spans_path):
            with open(spans_path, "r", encoding="utf-8") as fh:
                spans, kept = load_spans(fh.read())
            for coverage in kept.get("aot.compile", []):
                self.layers.set("aot.static_coverage", coverage)
            self.layers.add_spans(spans, setup=setup)
        return result

    def compile(self, cwd: str, *, setup: bool = False) -> cliproc.CmdResult:
        return self.run(["compile", common.CLI_PROGRAM, "-o", "aes.elf"],
                        cwd, setup=setup)

    def simulate(self, cwd: str, *, setup: bool = False) -> cliproc.CmdResult:
        args = ["run", "aes.elf", "--engine", "aot", "--model", "doe",
                "--plan-cache-dir", "plans"]
        if self.layers is not None:
            args += ["--metrics", "report.json"]
        result = self.run(args, cwd, setup=setup)
        report = os.path.join(cwd, "report.json")
        if os.path.exists(report):
            if not setup:
                with open(report, "r", encoding="utf-8") as fh:
                    self.layers.add_run_metrics(json.load(fh).get("metrics"))
            os.remove(report)
        return result


def _failure(cmd: cliproc.CmdResult) -> Optional[str]:
    if cmd.timed_out:
        return f"{cmd.argv[-1]}: timed out after {COMMAND_TIMEOUT_S}s"
    if cmd.returncode != 0:
        tail = cmd.stderr.strip().splitlines()[-1:] or [""]
        return f"exit {cmd.returncode}: {tail[0]}"
    return None


def _gate(gate: common.Gate, cmd: cliproc.CmdResult) -> Optional[str]:
    parsed = cliproc.parse_run_stdout(cmd.stdout)
    if parsed is None:
        return "run printed no statistics"
    return gate.check(common.build_key(common.CLI_PROGRAM, "risc"), **parsed)


def _instructions(cmd: cliproc.CmdResult) -> int:
    return cliproc.parse_run_stdout(cmd.stdout)["instructions"]


def _cold_path(commands: _Commands, cwd: str) -> None:
    """compile + cold run: leaves aes.elf and a filled plan cache."""
    for step in (commands.compile, commands.simulate):
        cmd = step(cwd, setup=True)
        reason = _failure(cmd)
        if reason is not None:
            raise SetupError(f"cli-aot set-up: {reason}")


def run(seed: int, seconds: float, trace: bool) -> dict:
    """Cold set-ups, each followed by warm ``kahrisma run`` commands.

    The untraced run interleaves its three set-ups with the timed
    runs (a third of the run time after each, on that set-up's plan
    cache), so that both sample the host across the whole run: the
    host's speed drifts from one minute to the next.
    """
    del seed  # one program, one command sequence: nothing to draw
    gate = common.Gate()
    log = OpLog()
    layers = LayerLog() if trace else None
    commands = _Commands(layers)
    rss: List[float] = []
    segments = 1 if trace else SETUP_REPEATS
    wall = 0.0
    with common.Scratch("cli-aot") as scratch:
        setups = []
        for segment in range(1, segments + 1):
            cwd = scratch.fresh("op-")
            start = time.perf_counter()
            _cold_path(commands, cwd)
            setups.append(time.perf_counter() - start)
            segment_start = time.perf_counter()
            while (wall + time.perf_counter() - segment_start
                   < seconds * segment / segments):
                ran = commands.simulate(cwd)
                reason = _failure(ran) or _gate(gate, ran)
                if reason is not None:
                    log.fail(reason)
                    continue
                log.ok(ran.wall_s, _instructions(ran))
                rss.append(ran.maxrss_mb)
            wall += time.perf_counter() - segment_start
        if layers is not None:
            layers.setups = len(setups)
            layers.ops = len(log.latencies)
            layers.set_latency(log)
            layers.set("telemetry.flight_s", _flight_cost(cwd))
    if layers is not None:
        return {"log": log, "metrics": layers.metrics()}
    return {"log": log, "metrics": e2e_metrics(
        log, setup_s=median(setups), sim_seconds=sum(log.latencies),
        wall_s=wall, peak_rss_mb=max(rss, default=0.0),
    )}


def _flight_cost(cwd: str) -> float:
    """Median extra time of a warm AOT run with the flight recorder armed.

    In-process, on the plan cache the set-up primed: alternating runs
    with ``flight=FlightRecorder()`` (the CLI default on aot) and
    ``flight=None``.
    """
    from repro.adl.kahrisma import KAHRISMA
    from repro.binutils.elf import ElfFile
    from repro.framework import pipeline
    from repro.telemetry.flight import FlightRecorder

    with open(os.path.join(cwd, "aes.elf"), "rb") as fh:
        elf = ElfFile.read(fh.read())
    built = pipeline.BuildResult(elf=elf, link_info=None,
                                 compile_result=None, arch=KAHRISMA)
    plan_cache = pipeline.open_plan_cache(
        built, directory=os.path.join(cwd, "plans"))
    width = KAHRISMA.isa(elf.flags).issue_width

    def timed(flight) -> float:
        start = time.perf_counter()
        pipeline.run(built, engine="aot", plan_cache=plan_cache,
                     cycle_model=common.make_model("doe", width),
                     flight=flight)
        return time.perf_counter() - start

    timed(None)  # revive the module once before timing
    deltas = [timed(FlightRecorder()) - timed(None)
              for _ in range(FLIGHT_PAIRS)]
    return median(deltas)
