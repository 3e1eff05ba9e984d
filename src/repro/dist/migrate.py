"""Element migration (paper §4.6's remapper), for the cycle and for the
data-structure level alike.

"When an element is moved from one processor to another, a communication
cost as well as a computational overhead are incurred ... The
computational overhead is the time necessary to rebuild the internal and
shared data structures."

:func:`exchange_elements` is the one migration rank program: each rank
packs one message per destination (per-element packing work plus the
transfer), receives and unpacks its incoming sets, and rebuilds its local
data structures (per-received-element work).  Its makespan is the
remapping time of Figs. 5 and 6 (through
:func:`repro.core.remap.execute_remap`, where every initial-mesh element
moves with its whole refinement tree) and of :func:`migrate`, which also
rebuilds every per-rank structure (local numbering, l2g maps, shared
flags, SPLs) — bit-identical to decomposing the global mesh under the new
partition, asserted in tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mesh.tetmesh import TetMesh
from repro.parallel.machine import SP2_1997

from ._launch import launch
from .decompose import decompose
from .localmesh import LocalMesh

__all__ = ["MigrateResult", "build_move_matrix", "exchange_elements", "migrate"]

#: Work units to pack or unpack one element's payload.
PACK_WORK_PER_ELEM = 2.0
#: Work units to rebuild internal/shared structures per received element.
REBUILD_WORK_PER_ELEM = 4.0


def build_move_matrix(
    old_proc: np.ndarray,
    new_proc: np.ndarray,
    wremap: np.ndarray,
    nproc: int,
) -> np.ndarray:
    """``(P, P)`` element counts moving from each processor to each other."""
    old_proc = np.asarray(old_proc, dtype=np.int64)
    new_proc = np.asarray(new_proc, dtype=np.int64)
    wremap = np.asarray(wremap, dtype=np.int64)
    if not (old_proc.shape == new_proc.shape == wremap.shape):
        raise ValueError("old_proc, new_proc, wremap must align")
    move = np.zeros((nproc, nproc), dtype=np.int64)
    np.add.at(move, (old_proc, new_proc), wremap)
    np.fill_diagonal(move, 0)  # staying put is free
    return move


def exchange_elements(
    move: np.ndarray, storage_words: int, *, phase: str, machine, backend
):
    """Run the migration of ``move[src, dst]`` elements as a rank program.

    One message per non-empty ``(src, dst)`` set, ``storage_words`` words
    per element.  Returns the backend's run result, whose ``returns`` are
    the element counts each rank received.
    """
    nproc = move.shape[0]
    send_plans = [
        [(d, int(move[r, d])) for d in range(nproc) if move[r, d] > 0]
        for r in range(nproc)
    ]
    recv_counts = [int((move[:, r] > 0).sum()) for r in range(nproc)]

    def program(comm, real_wire, sends, n_in):
        # pack and ship one message per destination
        for dest, elems in sends:
            yield from comm.compute(PACK_WORK_PER_ELEM * elems)
            words = elems * storage_words
            payload = np.zeros(words, dtype=np.float64) if real_wire else elems
            yield from comm.send(payload, dest=dest, tag=1, nwords=words)
        got = 0
        for _ in range(n_in):
            payload = yield from comm.recv(tag=1)
            elems = payload.size // storage_words if real_wire else payload
            yield from comm.compute(PACK_WORK_PER_ELEM * elems)  # unpack
            got += elems
        # rebuild internal and shared data structures
        yield from comm.compute(REBUILD_WORK_PER_ELEM * got)
        yield from comm.barrier()
        return got

    return launch(
        program, send_plans, recv_counts,
        phase=phase, machine=machine, backend=backend,
    )


@dataclass(frozen=True)
class MigrateResult:
    locals: list[LocalMesh]  #: rebuilt per-rank meshes under the new partition
    seconds: float  #: VM-measured migration time (transfer + rebuild)
    elements_moved: int
    messages: int


def migrate(
    global_mesh: TetMesh,
    locals_: list[LocalMesh],
    new_part: np.ndarray,
    storage_words_per_elem: int = 24,
    backend="virtual",
) -> MigrateResult:
    """Move elements so rank ``r`` ends up owning ``new_part == r``.

    ``new_part`` indexes *global* elements.  Transfer sizes follow the
    per-element storage model, clocks the SP2 model.  The ambient tracer
    records the migration's events and causal message DAG.  ``backend``
    selects the communicator backend; ``seconds`` is that backend's
    makespan (modelled on ``virtual``, measured wall on real-execution
    backends).
    """
    nproc = len(locals_)
    new_part = np.asarray(new_part, dtype=np.int64)
    if new_part.shape != (global_mesh.ne,):
        raise ValueError(
            f"new_part must have shape ({global_mesh.ne},), got {new_part.shape}"
        )

    old_part = np.empty(global_mesh.ne, dtype=np.int64)
    for lm in locals_:
        old_part[lm.elem_l2g] = lm.rank

    move = build_move_matrix(old_part, new_part, np.ones_like(new_part), nproc)
    res = exchange_elements(
        move, storage_words_per_elem,
        phase="migrate", machine=SP2_1997, backend=backend,
    )

    new_locals = decompose(global_mesh, new_part, nproc)
    return MigrateResult(
        locals=new_locals,
        seconds=res.makespan,
        elements_moved=int(move.sum()),
        messages=int((move > 0).sum()),
    )
