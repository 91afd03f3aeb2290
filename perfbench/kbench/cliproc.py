"""Run ``kahrisma`` commands as child processes, each bounded in time.

Every child is reaped with ``os.wait4`` on a helper thread, which
gives the child's own peak RSS and an end time taken the moment it
exits.  A child that outlives its timeout is killed and reported as
timed out; the caller counts that as a failed operation.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import List, Optional

from . import common

#: The traced runner: imports ``repro.cli`` under spans (cli_traced.py).
CLI_TRACED = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "cli_traced.py")


@dataclass
class CmdResult:
    argv: List[str]
    returncode: Optional[int]
    stdout: str
    stderr: str
    wall_s: float
    maxrss_mb: float
    timed_out: bool

    @property
    def ok(self) -> bool:
        return not self.timed_out and self.returncode == 0


def kahrisma(args: List[str], spans_path: Optional[str] = None) -> List[str]:
    """argv for ``kahrisma <args>``; traced when ``spans_path`` is set."""
    if spans_path is None:
        return [sys.executable, "-m", "repro.cli", *args]
    return [sys.executable, CLI_TRACED, spans_path, "--", *args]


def run(argv: List[str], *, cwd: str, timeout: float) -> CmdResult:
    """Run one child to completion or until ``timeout`` seconds pass."""
    out_path = os.path.join(cwd, ".stdout")
    err_path = os.path.join(cwd, ".stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, stdout=out, stderr=err,
            stdin=subprocess.DEVNULL, env=common.subprocess_env(),
        )
        box = {}

        def reap() -> None:
            _pid, status, usage = os.wait4(proc.pid, 0)
            box["end"] = time.perf_counter()
            box["status"] = status
            box["usage"] = usage

        reaper = threading.Thread(target=reap, daemon=True)
        reaper.start()
        reaper.join(timeout)
        timed_out = reaper.is_alive()
        if timed_out:
            proc.kill()
            reaper.join()
    # The child was reaped by wait4, not by Popen: record the status
    # so Popen does not try (and warn) to reap it again.
    proc.returncode = os.waitstatus_to_exitcode(box["status"])
    with open(out_path, "r", encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, "r", encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return CmdResult(
        argv=argv,
        returncode=None if timed_out else proc.returncode,
        stdout=stdout,
        stderr=stderr,
        wall_s=box["end"] - start,
        maxrss_mb=box["usage"].ru_maxrss / 1024.0,
        timed_out=timed_out,
    )


_STAT = re.compile(r"^(instructions|exit code|doe cycles):\s+(-?\d+)\s*$",
                   re.MULTILINE)


def parse_run_stdout(text: str) -> Optional[dict]:
    """Guest output and statistics printed by ``kahrisma run``.

    The guest's own output comes first, then a ``---`` line, then the
    statistics block; returns None when the block is missing.
    """
    marker = text.rfind("---\ninstructions:")
    if marker < 0:
        return None
    stats = {name: int(value) for name, value in _STAT.findall(text[marker:])}
    if "instructions" not in stats or "exit code" not in stats:
        return None
    return {
        "output": text[:marker],
        "instructions": stats["instructions"],
        "exit_code": stats["exit code"],
        "cycles": stats.get("doe cycles"),
    }
