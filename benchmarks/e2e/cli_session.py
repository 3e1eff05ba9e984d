"""The ``cli_session`` workload: the commands a user types, each a cold
``python -m repro ...`` process, in the pass's private directory.

This module never imports ``repro`` before the verify stage: what it
measures is the interpreter start, the imports and the work of every
command, as the user pays them.  The CLI exposes no seed, so the seed is
ignored here.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from time import perf_counter

import verify
from common import Ops, Sizes
from spans import Recorder

_COMMAND_TIMEOUT_S = 60
_SETUP_IMPORT = "import repro.core, repro.obs, repro.experiments"


def _python(*args: str) -> subprocess.CompletedProcess:
    done = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        timeout=_COMMAND_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"exit status {done.returncode}: {done.stderr[-500:]}")
    return done


def _option(command: tuple[str, ...], flag: str) -> str | None:
    return command[command.index(flag) + 1] if flag in command else None


class CliSession:
    def __init__(self, seed: int, sizes: Sizes, rec: Recorder, ops: Ops):
        self.commands = sizes.cli_commands
        self.rec = rec
        self.ops = ops
        self.stdout: dict[str, str] = {}

    def setup(self) -> None:
        """There are no inputs to build; set-up is what every heavy
        command pays before it starts: the imports."""
        _python("-c", _SETUP_IMPORT)

    def body(self) -> None:
        for command in self.commands:
            label = " ".join(command)
            kind = command[0].replace("-", "_")
            with self.rec.span(f"cli.{kind}"):
                done = self.ops.run([label], _python, "-m", "repro", *command)
            if done is not None:
                self.stdout[label] = done.stdout

    def _traces(self) -> list[str]:
        return [p for c in self.commands if (p := _option(c, "--trace-out"))]

    def verify(self) -> None:
        self.records = 0
        self.html_bytes = 0
        for command in self.commands:
            label = " ".join(command)
            if label not in self.stdout:
                continue
            self.ops.check(label, bool(self.stdout[label].strip()), "empty stdout")
            trace = _option(command, "--trace-out")
            if trace:
                self.records += verify.check_trace(self.ops, label, trace)
            if command[0] == "report" and _option(command, "--format") == "both":
                html = os.path.splitext(command[1])[0] + ".html"
                size = os.path.getsize(html) if os.path.exists(html) else 0
                self.ops.check(label, size > 0, f"{html} is missing or empty")
                self.html_bytes += size

    def quality(self) -> dict:
        return verify.trace_quality(self._traces())

    def counts(self) -> dict:
        out = {
            "obs.trace_records": self.records,
            "obs.trace_bytes": sum(os.path.getsize(p) for p in self._traces()),
            "obs.html_bytes": self.html_bytes,
        }
        if self.rec.enabled:
            walls = []
            for _ in range(3):
                t0 = perf_counter()
                _python("-c", "import repro.core")
                walls.append(perf_counter() - t0)
            out["cli.import_s"] = statistics.median(walls)
        return out
