"""Paths, program sets, cycle-model factories and the correctness gate."""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
from typing import Dict, Optional

#: ``perfbench/`` — the benchmark's own directory.
BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Root of the checkout the benchmark runs in.
ROOT = os.path.dirname(BENCH_DIR)
#: The simulator's sources (the package under test).
SRC = os.path.join(ROOT, "src")
#: Pinned reference results of every simulated configuration.
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")
#: Private scratch space inside the checkout (ignored by git).
SCRATCH_ROOT = os.path.join(ROOT, ".perfbench-tmp")

#: doe-warm: the seven bundled programs on RISC plus two on vliw4.
DOE_WARM_PROGRAMS = (
    ("cjpeg", "risc"), ("djpeg", "risc"), ("fft", "risc"),
    ("qsort", "risc"), ("aes", "risc"), ("dct4x4", "risc"),
    ("crc32", "risc"), ("cjpeg", "vliw4"), ("dct4x4", "vliw4"),
)

#: cli-aot: the program compiled and run by subprocesses.
CLI_PROGRAM = "aes"

#: serve-mix: the fixed traffic mix, as JobSpec fields.  The fifth
#: job stands in for the mixed-ISA dct4x4 build, which faults today
#: (see :data:`MIXED_PROBE`): the same program and model on vliw4.
SERVE_MIX = (
    {"program": "crc32", "isa": "risc", "model": "doe"},
    {"program": "fft", "isa": "risc", "model": "none"},
    {"program": "qsort", "isa": "risc", "model": "doe"},
    {"program": "aes", "isa": "vliw4", "model": "doe"},
    {"program": "dct4x4", "isa": "vliw4", "model": "doe"},
)

#: The mixed-ISA job that every DOE caller currently sizes from the
#: entry ISA's issue width, so it faults at the first vliw4 bundle.
#: The timed loops hold only jobs the simulator completes, so it is
#: submitted as a separate probe in the traced serve-mix run (see
#: README.md, "Known defect").
MIXED_PROBE = {
    "program": "dct4x4", "isa": "risc", "isa_map": {"dct4x4": "vliw4"},
    "model": "doe",
}


def require_sources() -> None:
    """Put ``src/`` on the import path, or fail when it is missing."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(
            f"perfbench: no simulator sources at {SRC}; run the "
            f"benchmark from the root of a full checkout"
        )
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def subprocess_env() -> Dict[str, str]:
    """Environment for simulator subprocesses (sources on the path)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    # Belt and braces: every command also passes --plan-cache-dir.
    env["KAHRISMA_CACHE_DIR"] = os.path.join(SCRATCH_ROOT, "never-used")
    return env


class Scratch:
    """A private directory under ``.perfbench-tmp/``, removed on exit."""

    def __init__(self, label: str) -> None:
        os.makedirs(SCRATCH_ROOT, exist_ok=True)
        self.path = tempfile.mkdtemp(prefix=f"{label}-", dir=SCRATCH_ROOT)

    def fresh(self, prefix: str) -> str:
        return tempfile.mkdtemp(prefix=prefix, dir=self.path)

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(SCRATCH_ROOT)
        except OSError:
            pass  # another run still uses it

    def __enter__(self) -> "Scratch":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def build_key(program: str, isa: str, isa_map: Optional[dict] = None,
              model: str = "doe") -> str:
    """Reference-table key of one simulated configuration."""
    mixed = ""
    if isa_map:
        mixed = "+" + ",".join(f"{k}={v}" for k, v in sorted(isa_map.items()))
    return f"{program}/{isa}{mixed}/{model}"


def output_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def make_model(name: str, width: int, memory=None):
    """Cycle model as the CLI and serve build it (default hierarchy)."""
    if name == "none":
        return None
    if name == "doe":
        from repro.cycles.doe import DoeModel

        return DoeModel(issue_width=width, memory=memory)
    if name == "rtl":
        from repro.rtl.pipeline import RtlPipeline

        return RtlPipeline(issue_width=width)
    raise ValueError(f"unknown model {name!r}")


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak RSS in MB of this process, or of its largest reaped child."""
    return resource.getrusage(who).ru_maxrss / 1024.0


class Gate:
    """Compares each operation's simulated results with the pinned ones.

    A speed-only change must leave every simulated statistic
    identical, so any difference — guest output, exit code, executed
    instructions or simulated cycles — fails the operation.
    """

    FIELDS = ("output_digest", "exit_code", "instructions", "cycles")

    def __init__(self, reference: Optional[Dict[str, dict]] = None) -> None:
        if reference is None:
            with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
                reference = json.load(fh)["configs"]
        self.reference = reference

    def check(self, key: str, *, output: str, exit_code: int,
              instructions: int, cycles: Optional[int]) -> Optional[str]:
        """None when the run matches its reference, else a reason."""
        expected = self.reference.get(key)
        if expected is None:
            return f"{key}: no pinned reference"
        got = {
            "output_digest": output_digest(output),
            "exit_code": exit_code,
            "instructions": instructions,
            "cycles": cycles,
        }
        wrong = [
            f"{name} {got[name]!r} != {expected[name]!r}"
            for name in self.FIELDS if got[name] != expected[name]
        ]
        return f"{key}: " + "; ".join(wrong) if wrong else None
