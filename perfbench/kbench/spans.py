"""In-memory spans around calls into the simulator's public functions.

A :class:`SpanRecorder` patches a layer's public function (module
attribute or class attribute) with a wrapper that records a span —
name, start, end, parent span — and restores the
original on :meth:`SpanRecorder.uninstall`.  Spans stay in memory
until the run ends; :func:`self_times` then charges each layer the
part of its spans that no child span covers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional


class Span(NamedTuple):
    id: int
    parent: Optional[int]
    name: str
    start_ns: int
    end_ns: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


#: Layer name -> the public functions timed for it, as
#: ``(module, attribute)`` for functions or ``(module, "Class.method")``.
#: A function imported by name into another module is patched there
#: too, since callers look it up in their own namespace.
LAYER_FUNCTIONS = {
    "lang.compile": [
        ("repro.lang.driver", "compile_mixed"),
        ("repro.framework.pipeline", "compile_mixed"),
        ("repro.cli", "compile_mixed"),
    ],
    "binutils.assemble": [
        ("repro.binutils.assembler", "Assembler.assemble"),
    ],
    "binutils.link": [
        ("repro.binutils.linker", "link"),
        ("repro.framework.pipeline", "link"),
        ("repro.cli", "link"),
    ],
    "binutils.load": [
        ("repro.binutils.loader", "load_executable"),
        ("repro.framework.pipeline", "load_executable"),
        ("repro.cli", "load_executable"),
        ("repro.sim.aot", "load_executable"),
    ],
    "plancache.open": [("repro.sim.plancache", "PlanCache.open")],
    "plancache.save": [("repro.sim.plancache", "PlanCache.save")],
    "aot.compile": [("repro.sim.aot", "compile_module")],
    "aot.prepare": [("repro.sim.aot", "prepare")],
    "sim.run": [("repro.sim.interpreter", "Interpreter.run")],
    "telemetry.report": [
        ("repro.telemetry", "build_run_report"),
        ("repro.cli", "build_run_report"),
    ],
}


class SpanRecorder:
    """Collects spans from any thread; nesting is tracked per thread."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.spans: List[Span] = []
        #: Return values kept per layer by :meth:`wrap` ``keep=`` hooks.
        self.kept: Dict[str, list] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: List[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> tuple:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return span_id, parent, name, self.clock()

    def end(self, token: tuple) -> Span:
        end = self.clock()
        span_id, parent, name, start = token
        self._stack().pop()
        span = Span(span_id, parent, name, start, end)
        self.spans.append(span)
        return span

    def wrap(self, fn: Callable, name: str,
             keep: Optional[Callable[[object], object]] = None) -> Callable:
        """``fn`` recording one span per call (also when it raises)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(token)
            if keep is not None:
                self.kept.setdefault(name, []).append(keep(result))
            return result

        return wrapper

    def install(self, layers: Dict[str, list] = LAYER_FUNCTIONS,
                keep: Optional[Dict[str, Callable]] = None) -> None:
        """Patch every listed function (importing its module first)."""
        keep = keep or {}
        for name, targets in layers.items():
            for module_name, attr in targets:
                module = importlib.import_module(module_name)
                owner = module
                if "." in attr:
                    cls_name, attr = attr.split(".", 1)
                    owner = getattr(module, cls_name)
                # The raw attribute: a classmethod stays a classmethod.
                raw = inspect.getattr_static(owner, attr)
                if isinstance(raw, classmethod):
                    inner = self.wrap(raw.__func__, name, keep.get(name))
                    replacement = classmethod(inner)
                else:
                    replacement = self.wrap(raw, name, keep.get(name))
                self._patched.append((owner, attr, raw))
                setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    def to_json(self) -> str:
        return json.dumps({
            "spans": [list(s) for s in self.spans],
            "kept": self.kept,
        })


def load_spans(text: str) -> tuple:
    """Inverse of :meth:`SpanRecorder.to_json`: ``(spans, kept)``."""
    doc = json.loads(text)
    return [Span(*row) for row in doc["spans"]], doc.get("kept", {})


def self_times(spans: Iterable[Span]) -> Dict[str, int]:
    """Total self time per span name, in nanoseconds.

    A span's self time is its duration minus the durations of its
    direct children (children nest inside their parent on one thread,
    so they never overlap each other).
    """
    spans = list(spans)
    child_ns: Dict[int, int] = {}
    for span in spans:
        if span.parent is not None:
            child_ns[span.parent] = child_ns.get(span.parent, 0) + \
                span.duration_ns
    totals: Dict[str, int] = {}
    for span in spans:
        own = span.duration_ns - child_ns.get(span.id, 0)
        totals[span.name] = totals.get(span.name, 0) + own
    return totals
