"""Virtual message-passing machine substrate.

The paper's system ran on an IBM SP2 under MPI.  This package provides the
deterministic stand-in used throughout the reproduction:

* :class:`~repro.parallel.machine.MachineModel` — LogGP-flavoured cost model
  (message startup, per-word transfer, per-unit compute), with the
  :data:`~repro.parallel.machine.SP2_1997` preset;
* :class:`~repro.parallel.runtime.VirtualMachine` — event-driven scheduler
  for SPMD generator rank programs, written against the
  :class:`~repro.parallel.simcomm.Comm` API (``compute``, ``send``,
  ``recv``, ``barrier``, ``allreduce``) every backend runs;
* :class:`~repro.parallel.ledger.CostLedger` — bulk-synchronous cost
  accounting for NumPy-vectorized partition-wise phases.
"""

from .ledger import CostLedger
from .machine import IDEAL, SP2_1997, MachineModel, word_count
from .runtime import (
    ANY,
    DeadlockError,
    RunResult,
    VirtualMachine,
    per_rank,
)
from .simcomm import Comm
from .backends import (
    available_backends,
    backend_factory,
    create_communicator,
)

__all__ = [
    "ANY",
    "Comm",
    "CostLedger",
    "DeadlockError",
    "IDEAL",
    "MachineModel",
    "RunResult",
    "SP2_1997",
    "VirtualMachine",
    "available_backends",
    "backend_factory",
    "create_communicator",
    "per_rank",
    "word_count",
]
