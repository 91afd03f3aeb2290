"""``serve-mix``: ``kahrisma serve`` under a closed loop of two clients.

Set-up starts the server in a thread (``start_in_thread``) with two
worker processes and private plan-cache and checkpoint directories,
then submits every job of :data:`kbench.common.SERVE_MIX` twice at
once, so both workers hold a build of each program and the shared
plan cache is warm.  In the timed loop two client threads each cycle
through the mix, from an offset and in an order drawn from the seed,
submitting the next job only when the previous result has arrived.

No worker is ever terminated by the benchmark: a kill can orphan the
pool's shared queue lock and hang the server.  Every wait is bounded;
an expired wait fails the operation and stops that client.
"""

from __future__ import annotations

import functools
import os
import random
import resource
import sys
import threading
import time
from statistics import median
from typing import List, Optional

from . import common
from .layers import LayerLog
from .oplog import OpLog, e2e_metrics

SETUP_REPEATS = 3
WORKERS = 2
CLIENTS = 2
#: Bound on one job's submit→result wait.
JOB_TIMEOUT_S = 30.0
#: Bound on joining a client thread after the run time is up.
JOIN_TIMEOUT_S = 60.0


def job_spec(job: dict, tenant: str) -> dict:
    """The JobSpec document of one mix entry."""
    return dict(job, tenant=tenant)


def job_key(job: dict) -> str:
    return common.build_key(job["program"], job["isa"], job.get("isa_map"),
                            job["model"])


def submit_and_wait(client, job: dict, tenant: str,
                    timeout: float = JOB_TIMEOUT_S) -> dict:
    """One closed-loop operation; never raises.

    Returns ``{"doc", "submit_s", "latency_s", "error", "timed_out"}``;
    ``error`` is set when the submit failed, the wait expired (then
    ``timed_out`` too) or the job did not finish ``done``.
    """
    from repro.serve.client import ServeError

    start = time.perf_counter()
    try:
        job_id = client.submit(job_spec(job, tenant))["id"]
        submitted = time.perf_counter()
        doc = client.wait(job_id, timeout=timeout)
    except ServeError as exc:
        kind = "timed out" if exc.status == 408 else f"HTTP {exc.status}"
        return {"doc": None, "submit_s": None, "latency_s": None,
                "error": f"{job_key(job)}: {kind}: {exc}",
                "timed_out": exc.status == 408}
    end = time.perf_counter()
    error = None
    if doc.get("state") != "done":
        error = f"{job_key(job)}: job {doc.get('state')}: " \
                f"{doc.get('error', '')}".strip()
    return {"doc": doc, "submit_s": submitted - start,
            "latency_s": end - start, "error": error, "timed_out": False}


def gate_doc(gate: common.Gate, job: dict, doc: dict) -> Optional[str]:
    return gate.check(
        job_key(job), output=doc.get("output") or "",
        exit_code=doc.get("exit_code"),
        instructions=doc.get("instructions"), cycles=doc.get("cycles"),
    )


def setup(scratch: common.Scratch):
    """Start a server and warm both workers on every job of the mix."""
    from repro.serve import ServerConfig, start_in_thread
    from repro.serve.client import KahrismaClient

    handle = start_in_thread(ServerConfig(
        host="127.0.0.1", port=0, workers=WORKERS,
        checkpoint_dir=scratch.fresh("checkpoints-"),
        plan_cache_dir=scratch.fresh("plans-"),
    ))
    try:
        client = KahrismaClient(handle.base_url, timeout=JOB_TIMEOUT_S)
        for job in common.SERVE_MIX:
            ids = [client.submit(job_spec(job, "setup"))["id"]
                   for _ in range(WORKERS)]
            for job_id in ids:
                doc = client.wait(job_id, timeout=JOB_TIMEOUT_S)
                if doc.get("state") != "done":
                    raise RuntimeError(
                        f"serve-mix set-up: {job_key(job)} "
                        f"{doc.get('state')}: {doc.get('error')}")
    except BaseException:
        handle.stop()
        raise
    return handle


def count_lock_waits(path: str):
    """Append one byte to ``path`` for every plan-cache lock wait.

    ``PlanCache.lock_waits`` counts the writes that found another
    writer holding the cache file's lock.  A serve job's run report is
    built before its plan cache is saved, so the report never carries
    them; instead ``PlanCache.save`` and ``PlanCache.record_module``
    are wrapped here, before the server forks its workers, which
    inherit the wrappers.  Returns a function restoring the originals.
    """
    from repro.sim.plancache import PlanCache

    originals = {name: PlanCache.__dict__[name]
                 for name in ("save", "record_module")}

    def counting(fn):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            before = self.lock_waits
            try:
                return fn(self, *args, **kwargs)
            finally:
                waits = self.lock_waits - before
                if waits > 0:
                    fd = os.open(path, os.O_WRONLY | os.O_CREAT
                                 | os.O_APPEND, 0o644)
                    try:
                        os.write(fd, b"w" * waits)
                    finally:
                        os.close(fd)
        return wrapper

    for name, fn in originals.items():
        setattr(PlanCache, name, counting(fn))

    def restore() -> None:
        for name, fn in originals.items():
            setattr(PlanCache, name, fn)

    return restore


class _Client(threading.Thread):
    def __init__(self, index: int, base_url: str, seed: int,
                 deadline: float, gate: common.Gate, log: OpLog,
                 samples: list) -> None:
        super().__init__(name=f"perfbench-client-{index}", daemon=True)
        from repro.serve.client import KahrismaClient

        self.client = KahrismaClient(base_url, timeout=JOB_TIMEOUT_S)
        rng = random.Random(seed * 1000 + index)
        self.order = rng.sample(list(common.SERVE_MIX),
                                len(common.SERVE_MIX))
        self.offset = rng.randrange(len(self.order))
        self.tenant = f"client-{index}"
        self.deadline = deadline
        self.gate, self.log, self.samples = gate, log, samples
        self.last_end = 0.0

    def run(self) -> None:
        step = self.offset
        while time.perf_counter() < self.deadline:
            job = self.order[step % len(self.order)]
            step += 1
            outcome = submit_and_wait(self.client, job, self.tenant)
            self.last_end = time.perf_counter()
            reason = outcome["error"]
            if reason is None:
                reason = gate_doc(self.gate, job, outcome["doc"])
                if reason is not None:
                    self.log.fail(reason)
                    continue
                doc = outcome["doc"]
                counters = (doc.get("report") or {}).get("metrics") or {}
                self.log.ok(outcome["latency_s"], doc["instructions"])
                # Keep only what the traced run reports: whole result
                # documents would grow this process with the job count.
                self.samples.append({
                    "submit_s": outcome["submit_s"],
                    "latency_s": outcome["latency_s"],
                    "submitted_at": doc["submitted_at"],
                    "started_at": doc["started_at"],
                    "finished_at": doc["finished_at"],
                    "metrics": {key: counters.get(key, 0)
                                for key in LayerLog.RUN_COUNTERS},
                })
                continue
            self.log.fail(reason)
            if outcome["timed_out"]:
                return  # the server may be wedged: stop loading it


def run(seed: int, seconds: float, trace: bool) -> dict:
    """Server set-ups, each followed by a stretch of closed-loop load.

    The untraced run starts three servers in turn and drives each for
    a third of the run time, so that set-ups and jobs sample the host
    across the whole run: the host's speed drifts from one minute to
    the next.
    """
    gate = common.Gate()
    log = OpLog()
    samples: List[dict] = []
    layers = LayerLog() if trace else None
    segments = 1 if trace else SETUP_REPEATS
    with common.Scratch("serve-mix") as scratch:
        setups = []
        wall = 0.0
        handle = None
        lock_log = os.path.join(scratch.path, "lock-waits")
        restore = count_lock_waits(lock_log) if trace else None
        try:
            for _ in range(segments):
                if handle is not None:
                    handle.stop()
                start = time.perf_counter()
                handle = setup(scratch)
                setups.append(time.perf_counter() - start)
                loop_start = time.perf_counter()
                clients = [
                    _Client(i, handle.base_url, seed,
                            loop_start + seconds / segments,
                            gate, log, samples)
                    for i in range(CLIENTS)
                ]
                for client in clients:
                    client.start()
                for client in clients:
                    client.join(JOIN_TIMEOUT_S)
                    if client.is_alive():
                        log.fail(f"{client.name}: still waiting after "
                                 f"the run ended")
                wall += max(c.last_end for c in clients) - loop_start
            if layers is not None:
                _trace_layers(layers, log, samples)
                layers.set("defect.mixed_isa_doe_faults",
                           _mixed_isa_probe(handle.base_url, gate))
                layers.set("plancache.lock_waits",
                           os.path.getsize(lock_log)
                           if os.path.exists(lock_log) else 0)
        finally:
            if handle is not None:
                handle.stop()
            if restore is not None:
                restore()
    if layers is not None:
        return {"log": log, "metrics": layers.metrics()}
    return {"log": log, "metrics": e2e_metrics(
        log, setup_s=median(setups), sim_seconds=wall, wall_s=wall,
        # The workers, reaped by the last stop: this process also holds
        # the server's retained results, which grow with the job count.
        peak_rss_mb=common.peak_rss_mb(resource.RUSAGE_CHILDREN),
    )}


def _trace_layers(layers: LayerLog, log: OpLog, samples: List[dict]) -> None:
    """Per-job timestamps from the server, counters from the reports."""
    layers.ops = len(samples)
    layers.set_latency(log)
    if not samples:
        return
    queue, running, result = [], [], []
    for sample in samples:
        queue.append(sample["started_at"] - sample["submitted_at"])
        running.append(sample["finished_at"] - sample["started_at"])
        result.append(sample["latency_s"]
                      - (sample["finished_at"] - sample["submitted_at"]))
        layers.add_run_metrics(sample["metrics"])
    layers.set("serve.submit_s", median([s["submit_s"] for s in samples]))
    layers.set("serve.queue_wait_s", median(queue))
    layers.set("serve.run_s", median(running))
    layers.set("serve.result_s", median(result))


def _mixed_isa_probe(base_url: str, gate: common.Gate) -> int:
    """1 when the mixed-ISA DOE job fails or differs, 0 when it is right."""
    from repro.serve.client import KahrismaClient

    client = KahrismaClient(base_url, timeout=JOB_TIMEOUT_S)
    outcome = submit_and_wait(client, common.MIXED_PROBE, "probe")
    reason = outcome["error"] or gate_doc(gate, common.MIXED_PROBE,
                                          outcome["doc"])
    if reason is None:
        return 0
    print(f"serve-mix: known defect still present: {reason}",
          file=sys.stderr)
    return 1
