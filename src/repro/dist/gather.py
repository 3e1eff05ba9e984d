"""Finalization phase: connect the subgrids back into one global mesh.

Paper §3: "It is sometimes necessary to create a single global mesh after
one or more adaption steps ... Each local object is first assigned a
unique global number.  All processors then update their local data
structures accordingly.  Finally, a gather operation is performed by a
host processor to concatenate the local data structures into a global
mesh."

:func:`finalize` performs exactly that: shared objects are deduplicated by
ownership (lowest sharing rank owns), fresh global numbers are assigned,
and the host concatenates.  The gather's communication is optionally
executed on the virtual machine to measure its cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mesh.tetmesh import TetMesh
from repro.parallel.machine import SP2_1997

from ._launch import launch
from .localmesh import LocalMesh

__all__ = ["finalize", "FinalizeResult"]

#: The rank the subgrids are gathered to.
HOST = 0


@dataclass(frozen=True)
class FinalizeResult:
    """Outcome of the finalization gather."""

    mesh: TetMesh  #: the reconnected global mesh
    vert_new_global: list[np.ndarray]  #: per-rank local vertex -> new global id
    elem_new_global: list[np.ndarray]  #: per-rank local element -> new global id
    gather_seconds: float  #: VM-measured host-gather time


def finalize(
    locals_: list[LocalMesh],
    backend="virtual",
) -> FinalizeResult:
    """Assemble the per-rank subgrids into one global mesh.

    Shared vertices are identified through the SPLs: the lowest rank in a
    vertex's sharing set *owns* it and assigns its new global number;
    non-owners translate their local ids through the shared match.  The
    concatenated element list preserves per-rank order (rank-major), so
    the result is deterministic.
    """
    nproc = len(locals_)
    if nproc == 0:
        raise ValueError("need at least one local mesh")

    # --- assign new global vertex numbers, owners first ----------------------
    # ownership: owner(v) = min(rank, *SPL); owners number their vertices
    owned_counts = []
    owner_masks = []
    for lm in locals_:
        spl_sizes = np.diff(lm.vert_spl_ptr)
        first_other = np.full(lm.nv, np.iinfo(np.int64).max, dtype=np.int64)
        has = spl_sizes > 0
        # SPLs are sorted, so the first entry is the minimum other rank
        first_other[has] = lm.vert_spl_dat[lm.vert_spl_ptr[:-1][has]]
        owner_masks.append(~has | (lm.rank < first_other))
        owned_counts.append(int(owner_masks[-1].sum()))
    offsets = np.concatenate([[0], np.cumsum(owned_counts)])[:-1]

    # owners assign numbers; shared copies resolve through the *old* global
    # ids (the match that the SPL bookkeeping encodes)
    old_to_new: dict[int, int] = {}
    vert_new_global: list[np.ndarray] = []
    for lm, own, off in zip(locals_, owner_masks, offsets):
        new_ids = np.full(lm.nv, -1, dtype=np.int64)
        new_ids[own] = off + np.arange(int(own.sum()))
        for lv in np.flatnonzero(own & lm.vert_shared):
            old_to_new[int(lm.vert_l2g[lv])] = int(new_ids[lv])
        vert_new_global.append(new_ids)
    for lm, new_ids in zip(locals_, vert_new_global):
        for lv in np.flatnonzero(new_ids < 0):
            new_ids[lv] = old_to_new[int(lm.vert_l2g[lv])]

    # --- host gather of coordinates and elements --------------------------------
    total_verts = int(sum(owned_counts))
    coords = np.zeros((total_verts, 3))
    elem_chunks = []
    elem_new_global = []
    next_elem = 0
    for lm, own, new_ids in zip(locals_, owner_masks, vert_new_global):
        coords[new_ids[own]] = lm.mesh.coords[own]
        elem_chunks.append(new_ids[lm.mesh.elems])
        elem_new_global.append(next_elem + np.arange(lm.ne))
        next_elem += lm.ne
    elems = np.vstack(elem_chunks)
    mesh = TetMesh.from_elems(coords, elems, orient=False)

    # --- VM-timed gather to the host -----------------------------------------
    payload_words = [
        3 * int(own.sum()) + 4 * lm.ne
        for lm, own in zip(locals_, owner_masks)
    ]

    def program(comm, real_wire, words):
        if comm.rank == HOST:
            for _ in range(comm.size - 1):
                _ = yield from comm.recv(tag=9)
            yield from comm.compute(sum(payload_words))  # concatenation
        else:
            payload = np.zeros(words, dtype=np.float64) if real_wire else None
            yield from comm.send(payload, dest=HOST, tag=9, nwords=words)
        yield from comm.barrier()

    res = launch(
        program, payload_words,
        phase="gather", machine=SP2_1997, backend=backend,
    )

    return FinalizeResult(
        mesh=mesh,
        vert_new_global=vert_new_global,
        elem_new_global=elem_new_global,
        gather_seconds=res.makespan,
    )
