"""Per-layer metrics of a traced run.

Every traced run reports the same metric set.  Layer times are self
times per operation of the timed loop, except the cold-path layers of
:data:`SETUP_SPANS`, which are charged per set-up.  A workload reports 0
for a layer it never calls (for example ``serve.*`` on ``doe-warm``);
``README.md`` names the workload each metric belongs to.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from . import common
from .spans import Span, self_times
from .stats import percentile

#: Span name -> per-layer metric (mean self seconds per operation).
SPAN_METRICS = {
    "cli.import": "cli.import_s",
    "lang.compile": "lang.compile_s",
    "binutils.assemble": "binutils.assemble_s",
    "binutils.link": "binutils.link_s",
    "binutils.load": "binutils.load_s",
    "plancache.open": "plancache.open_s",
    "plancache.save": "plancache.save_s",
    "aot.compile": "aot.compile_s",
    "aot.prepare": "aot.revive_s",
    "sim.run": "sim.run_s",
    "telemetry.report": "telemetry.report_s",
}

#: Layers on the cold path (build, AOT compile, plan-cache write): they
#: run during set-up, so they are charged per set-up, not per operation.
SETUP_SPANS = frozenset({
    "lang.compile", "binutils.assemble", "binutils.link",
    "plancache.save", "aot.compile",
})


def _units() -> Dict[str, str]:
    units = {name: "s" for name in SPAN_METRICS.values()}
    units.update({
        "plancache.hit_ratio": "ratio",
        "plancache.lock_waits": "count",
        "aot.static_coverage": "ratio",
        "aot.table_blocks_fraction": "ratio",
        "sim.execute_s.risc": "s",
        "sim.execute_s.vliw4": "s",
        "superblock.translations": "count",
        "superblock.chain_hit_rate": "ratio",
        "cycles.doe_s.risc": "s",
        "cycles.doe_s.vliw4": "s",
        "cycles.fusion_speedup.risc": "x",
        "cycles.fusion_speedup.vliw4": "x",
        "memmodel_s": "s",
        "telemetry.flight_s": "s",
        "serve.submit_s": "s",
        "serve.queue_wait_s": "s",
        "serve.run_s": "s",
        "serve.result_s": "s",
        "accuracy.doe_vs_rtl_pct.risc": "%",
        "accuracy.doe_vs_rtl_pct.vliw4": "%",
        "latency.samples": "count",
        "latency.p90_tail_samples": "count",
        "defect.mixed_isa_doe_faults": "count",
    })
    for program, isa in common.DOE_WARM_PROGRAMS:
        units[f"mem.l1.accesses.{program}.{isa}"] = "count"
        units[f"mem.l1.miss_rate.{program}.{isa}"] = "ratio"
    return units


#: Every per-layer metric, in report order, with its unit.
UNITS = _units()


class LayerLog:
    """What a traced run learns about each layer."""

    def __init__(self) -> None:
        self.ops = 0
        self.setups = 0
        self.self_ns: Dict[str, int] = {}
        self.setup_ns: Dict[str, int] = {}
        self.counters: Dict[str, float] = {}
        self.values: Dict[str, float] = {}

    def add_spans(self, spans: Iterable[Span], *, setup: bool = False) -> None:
        """Charge spans to the timed loop, or to set-up."""
        totals = self.setup_ns if setup else self.self_ns
        for name, ns in self_times(spans).items():
            totals[name] = totals.get(name, 0) + ns

    #: Run-report counters (``--metrics``) the per-layer metrics use.
    RUN_COUNTERS = (
        "sim.superblock.plan_cache_hits", "sim.superblock.translations",
        "sim.superblock.chain_hits", "sim.superblock.blocks_executed",
        "sim.aot.blocks_executed",
    )

    def add_run_metrics(self, metrics: Optional[dict]) -> None:
        """Sum the counters a run report exports (``--metrics``)."""
        if not metrics:
            return
        for key in self.RUN_COUNTERS:
            self.counters[key] = self.counters.get(key, 0) + \
                metrics.get(key, 0)

    def set_latency(self, log) -> None:
        """Sample count behind the run's latency median and p90."""
        if log.latencies:
            self.set("latency.samples", len(log.latencies))
            self.set("latency.p90_tail_samples",
                     percentile(log.latencies, 0.9)[1])

    def set(self, name: str, value: float) -> None:
        if name not in UNITS:
            raise KeyError(f"undeclared per-layer metric {name!r}")
        self.values[name] = value

    def metrics(self) -> Dict[str, dict]:
        out: Dict[str, float] = {name: 0 for name in UNITS}
        ops = max(self.ops, 1)
        for span_name, metric in SPAN_METRICS.items():
            if span_name in SETUP_SPANS:
                total, count = self.setup_ns, max(self.setups, 1)
            else:
                total, count = self.self_ns, ops
            out[metric] = total.get(span_name, 0) / 1e9 / count
        c = self.counters
        hits = c.get("sim.superblock.plan_cache_hits", 0)
        translations = c.get("sim.superblock.translations", 0)
        if hits + translations:
            out["plancache.hit_ratio"] = hits / (hits + translations)
        out["superblock.translations"] = translations / ops
        blocks = c.get("sim.superblock.blocks_executed", 0)
        if blocks:
            out["superblock.chain_hit_rate"] = \
                c.get("sim.superblock.chain_hits", 0) / blocks
        aot_blocks = c.get("sim.aot.blocks_executed", 0)
        if aot_blocks + blocks and aot_blocks:
            out["aot.table_blocks_fraction"] = aot_blocks / (aot_blocks + blocks)
        out.update(self.values)
        return {
            name: {"value": out[name], "unit": UNITS[name]} for name in UNITS
        }
