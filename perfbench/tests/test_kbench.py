"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from kbench import cliproc, common, layers, oplog, serve_mix  # noqa: E402
from kbench.spans import Span, SpanRecorder, self_times  # noqa: E402
from kbench.stats import percentile, relative_spread  # noqa: E402

common.require_sources()


# -- percentiles -------------------------------------------------------------


def test_percentile_reports_samples_beyond_it():
    assert percentile(list(range(1, 11)), 0.9) == (9, 1)
    assert percentile(list(range(25, 0, -1)), 0.9) == (23, 2)
    assert percentile([4.0], 0.9) == (4.0, 0)
    assert percentile([3, 1, 2], 0.5) == (2, 1)


def test_percentile_rejects_empty_and_bad_fraction():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1], 0.0)


def test_relative_spread_is_iqr_over_median():
    values = [10.0] * 5 + [11.0] * 5
    # statistics.quantiles (exclusive): q1 = 10, q3 = 11, median 10.5
    assert relative_spread(values) == pytest.approx(1.0 / 10.5)
    assert relative_spread([5.0]) == 0.0


# -- spans -------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(1, None, "a", 0, 100),
        Span(2, 1, "b", 10, 40),
        Span(3, 1, "c", 50, 70),
        Span(4, 2, "d", 15, 25),
        Span(5, None, "b", 200, 205),
    ]
    assert self_times(spans) == {"a": 50, "b": 25, "c": 20, "d": 10}


def test_recorder_nests_wrapped_calls_and_restores_originals():
    ticks = iter(range(0, 1000, 10))
    recorder = SpanRecorder(clock=lambda: next(ticks))
    module = type(sys)("fake_layer_module")
    module.inner = lambda: "inner"
    module.outer = lambda: module.inner() + "+outer"
    sys.modules["fake_layer_module"] = module
    original = module.inner
    try:
        recorder.install({
            "outer": [("fake_layer_module", "outer")],
            "inner": [("fake_layer_module", "inner")],
        }, keep={"inner": len})
        assert module.outer() == "inner+outer"
        recorder.uninstall()
    finally:
        del sys.modules["fake_layer_module"]
    assert module.inner is original
    inner, outer = recorder.spans
    assert inner.parent == outer.id and outer.parent is None
    # outer: 0..30, inner: 10..20 -> 20 ns self each side of the child.
    assert self_times(recorder.spans) == {"outer": 20, "inner": 10}
    assert recorder.kept == {"inner": [5]}


def test_recorder_wraps_classmethods():
    class Owner:
        @classmethod
        def make(cls, value):
            return (cls, value)

    module = type(sys)("fake_cls_module")
    module.Owner = Owner
    sys.modules["fake_cls_module"] = module
    recorder = SpanRecorder()
    try:
        recorder.install({"make": [("fake_cls_module", "Owner.make")]})
        assert Owner.make(3) == (Owner, 3)
        recorder.uninstall()
    finally:
        del sys.modules["fake_cls_module"]
    assert [s.name for s in recorder.spans] == ["make"]
    assert isinstance(Owner.__dict__["make"], classmethod)


# -- correctness gate --------------------------------------------------------


def test_gate_trips_on_injected_wrong_cycle_count():
    # The pinned aes statistics, with the digest of a known output.
    ref = common.Gate().reference[common.build_key("aes", "risc")]
    gate = common.Gate({"aes": dict(
        ref, output_digest=common.output_digest("guest output"))})
    run = dict(output="guest output", exit_code=ref["exit_code"],
               instructions=ref["instructions"], cycles=ref["cycles"])
    assert gate.check("aes", **run) is None
    reason = gate.check("aes", **dict(run, cycles=ref["cycles"] + 1))
    assert reason is not None and "cycles" in reason
    log = oplog.OpLog()
    log.ok(0.1, 100)
    log.fail(reason)
    assert (log.attempted, log.failed, log.correct) == (2, 1, False)


def test_faulting_operation_makes_the_run_incorrect():
    log = oplog.OpLog()
    log.ok(0.1, 100)
    assert log.correct
    log.fail("aes/vliw4/doe: job failed: IndexError: list index out of range")
    assert (log.attempted, log.failed, log.correct) == (2, 1, False)
    assert log.error_rate == 0.5


def test_gate_rejects_unknown_configuration():
    assert "no pinned reference" in common.Gate({}).check(
        "x/risc/doe", output="", exit_code=0, instructions=1, cycles=1)


# -- hang guards -------------------------------------------------------------


class _StuckClient:
    """A client whose jobs never finish: every wait expires."""

    def __init__(self) -> None:
        self.submitted = 0

    def submit(self, spec):
        self.submitted += 1
        return {"id": f"job-{self.submitted}"}

    def wait(self, job_id, *, timeout):
        from repro.serve.client import ServeError

        raise ServeError(408, f"job {job_id} not terminal after {timeout}s")


def test_timed_out_job_is_counted_as_failed_and_stops_the_client():
    log = oplog.OpLog()
    client = serve_mix._Client(0, "http://127.0.0.1:9", seed=1,
                               deadline=time.perf_counter() + 60,
                               gate=common.Gate(), log=log, samples=[])
    client.client = _StuckClient()
    client.run()  # returns after the first expiry instead of looping
    assert (log.attempted, log.failed, log.correct) == (1, 1, False)
    assert "timed out" in log.reasons[0]
    assert client.client.submitted == 1


def test_timed_out_command_is_killed_and_reported(tmp_path):
    start = time.perf_counter()
    result = cliproc.run([sys.executable, "-c", "import time; time.sleep(30)"],
                         cwd=str(tmp_path), timeout=0.5)
    assert result.timed_out and not result.ok
    assert time.perf_counter() - start < 10


def test_command_reports_its_own_peak_rss(tmp_path):
    result = cliproc.run([sys.executable, "-c", "print('hi')"],
                         cwd=str(tmp_path), timeout=30)
    assert result.ok and result.stdout == "hi\n"
    assert result.maxrss_mb > 1


def test_parse_run_stdout():
    text = ("guest says hi\n---\ninstructions: 42\nexit code:    0\n"
            "mips:         1.000\ndoe cycles:   77\n")
    assert cliproc.parse_run_stdout(text) == {
        "output": "guest says hi\n", "instructions": 42, "exit_code": 0,
        "cycles": 77,
    }
    assert cliproc.parse_run_stdout("no statistics") is None


# -- declared metrics --------------------------------------------------------


def test_benchmark_json_declares_exactly_the_reported_metrics():
    root = os.path.dirname(os.path.dirname(HERE))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["end_to_end"]] == list(oplog.E2E_UNITS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        oplog.E2E_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        layers.UNITS
    reported = layers.LayerLog().metrics()
    assert list(reported) == list(layers.UNITS)


# -- plan-cache lock waits ---------------------------------------------------


def test_lock_waits_are_counted_outside_the_run_report(tmp_path, monkeypatch):
    from repro.sim.plancache import PlanCache

    def contended_save(self):
        self.lock_waits += 2

    monkeypatch.setattr(PlanCache, "save", contended_save)
    path = str(tmp_path / "lock-waits")
    restore = serve_mix.count_lock_waits(path)
    try:
        cache = PlanCache(str(tmp_path / "plans.json"))
        cache.save()
        cache.save()
    finally:
        restore()
    assert os.path.getsize(path) == 4
    assert PlanCache.save is contended_save
