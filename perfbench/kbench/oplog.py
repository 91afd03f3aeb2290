"""Operation outcomes and the end-to-end metrics derived from them."""

from __future__ import annotations

import threading
from statistics import median
from typing import Dict, List, Optional

from .stats import percentile

#: End-to-end metric -> unit; every workload reports all of them.
E2E_UNITS = {
    "setup_s": "s",
    "sim_mips": "MIPS",
    "jobs_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "peak_rss_mb": "MB",
}


class OpLog:
    """Thread-safe record of every timed operation of one run."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.attempted = 0
        self.failed = 0
        self.latencies: List[float] = []
        self.instructions = 0
        self.reasons: List[str] = []

    def ok(self, latency: float, instructions: int) -> None:
        with self._lock:
            self.attempted += 1
            self.latencies.append(latency)
            self.instructions += instructions

    def fail(self, reason: str) -> None:
        """A failed operation: error, timeout or gate mismatch."""
        with self._lock:
            self.attempted += 1
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)

    @property
    def correct(self) -> bool:
        """Some operation completed and none failed.

        The timed mixes hold only operations the simulator completes,
        so any failure — a wrong result, a fault, a non-zero exit or
        an expired wait — is new breakage.
        """
        return bool(self.latencies) and self.failed == 0

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def e2e_metrics(log: OpLog, *, setup_s: float, sim_seconds: float,
                wall_s: float, peak_rss_mb: float) -> Dict[str, dict]:
    """The end-to-end metric set of a run.

    ``sim_seconds`` is the host time the simulated instructions are
    divided by (the timed simulation calls, or the loop's wall time
    for concurrent clients); ``wall_s`` is the timed loop's length.
    """
    values: Dict[str, Optional[float]] = {
        "setup_s": setup_s,
        "sim_mips": log.instructions / sim_seconds / 1e6
        if sim_seconds > 0 else 0.0,
        "jobs_per_s": len(log.latencies) / wall_s if wall_s > 0 else 0.0,
        "latency_p50_s": median(log.latencies) if log.latencies else 0.0,
        "latency_p90_s": percentile(log.latencies, 0.9)[0]
        if log.latencies else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit in E2E_UNITS.items()
    }
