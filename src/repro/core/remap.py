"""The data remapper (paper §4.6): physically migrate elements and measure
the cost on the virtual machine.

Every initial-mesh element moves with its whole refinement tree (that is
why ``Wremap`` counts all tree nodes).  The migration is the rank program
of :func:`repro.dist.migrate.exchange_elements`; its makespan is the
measured remapping time reported in Figs. 5 and 6.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dist.migrate import build_move_matrix, exchange_elements
from repro.parallel.machine import MachineModel, SP2_1997

__all__ = ["RemapExecution", "build_move_matrix", "execute_remap"]


@dataclass(frozen=True)
class RemapExecution:
    """Result of physically executing a remap on the virtual machine."""

    time_seconds: float  #: VM makespan of the migration program
    elements_moved: int
    messages: int
    words_moved: int
    new_owner: np.ndarray  #: (n_initial_elements,) processor after the move


def execute_remap(
    old_proc: np.ndarray,
    new_proc: np.ndarray,
    wremap: np.ndarray,
    nproc: int,
    storage_words: int = 24,
    machine: MachineModel = SP2_1997,
    tracer=None,
    backend="virtual",
) -> RemapExecution:
    """Migrate ownership from ``old_proc`` to ``new_proc`` on the VM.

    Conservation is asserted: every element is owned by exactly one
    processor before and after.  ``tracer`` (a :class:`repro.obs.Tracer`,
    or the ambient one) mirrors every send/recv of the migration program,
    so the exported trace shows the full communication schedule of the
    remap.  ``backend`` selects the communicator backend executing it.
    """
    move = build_move_matrix(old_proc, new_proc, wremap, nproc)
    res = exchange_elements(
        move, storage_words,
        phase="remap", machine=machine, tracer=tracer, backend=backend,
    )
    assert np.array_equal(res.returns, move.sum(axis=0)), "element conservation"

    return RemapExecution(
        time_seconds=res.makespan,
        elements_moved=int(move.sum()),
        messages=int((move > 0).sum()),  # element sets, excl. barrier traffic
        words_moved=int(move.sum()) * storage_words,
        new_owner=np.array(new_proc, dtype=np.int64),
    )
