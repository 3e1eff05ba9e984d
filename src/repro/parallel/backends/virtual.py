"""The deterministic LogGP virtual machine behind the backend interface."""

from __future__ import annotations

import time

from ..machine import SP2_1997, MachineModel
from ..runtime import RunResult, VirtualMachine

__all__ = ["VirtualBackend"]


class VirtualBackend:
    """Backend adapter over :class:`~repro.parallel.runtime.VirtualMachine`.

    Clocks are modelled virtual seconds; results are bit-identical to
    driving the machine directly.  The adapter additionally stamps the
    host wall time the (single-process) run took, so calibration reports
    can show the simulator's own overhead next to real-execution
    backends.
    """

    name = "virtual"
    #: Clocks are modelled, not measured.
    measured = False

    def __init__(self, nranks: int, machine: MachineModel = SP2_1997,
                 tracer=None, **_ignored):
        self.nranks = nranks
        self.machine = machine
        self._vm = VirtualMachine(nranks, machine, tracer=tracer)

    def run(self, program, *args, **kwargs) -> RunResult:
        t0 = time.perf_counter()
        res = self._vm.run(program, *args, **kwargs)
        res.wall_seconds = time.perf_counter() - t0
        res.backend = self.name
        return res
