"""The execution phase of parallel mesh adaption on distributed data.

Paper §3: "The execution phase runs a copy of 3D_TAG on each processor
that adapts its local region, while maintaining a globally-consistent grid
along partition boundaries ... elements have to be continuously upgraded
to one of the three allowed subdivision patterns.  This causes some
propagation of edges targeted for refinement that could mark local copies
of shared edges inconsistently ... Communication is therefore required
after each iteration of the propagation process.  Every processor sends a
list of all the newly-marked local copies of shared edges to all the
other processors in their SPLs.  The process may continue for several
iterations, and edge markings could propagate back and forth across
partitions."

:func:`parallel_mark` is that loop as real SPMD rank programs on the
virtual machine, operating on :class:`~repro.dist.LocalMesh` data.  The
merged result provably equals the serial fixpoint of
:func:`repro.adapt.marking.propagate_markings` — asserted in tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.adapt.marking import element_patterns
from repro.adapt.patterns import UPGRADE, pattern_bits
from repro.mesh.tetmesh import TetMesh
from repro.parallel.machine import MachineModel, SP2_1997

from ._launch import launch
from .localmesh import LocalMesh

__all__ = ["parallel_mark", "ParallelMarkResult"]


@dataclass(frozen=True)
class ParallelMarkResult:
    """Outcome of the distributed marking loop."""

    edge_marked: np.ndarray  #: global edge mask at the fixpoint
    iterations: int  #: propagation rounds until global stability
    time_seconds: float  #: VM makespan of the loop
    messages: int  #: SPL-exchange messages sent
    words: int  #: words carried by those messages


def parallel_mark(
    global_mesh: TetMesh,
    locals_: list[LocalMesh],
    initial_marks: np.ndarray,
    machine: MachineModel = SP2_1997,
    tracer=None,
    backend="virtual",
) -> ParallelMarkResult:
    """Run the marking-propagation loop as SPMD programs over local meshes.

    ``initial_marks`` is a boolean mask over the *global* mesh's edges
    (the error-indicator targeting, which is symmetric across shared edges
    "because shared edges have the same flow and geometry information
    regardless of their processor number").  ``tracer`` (or the ambient
    one) records the loop's events and causal message DAG.  ``backend``
    selects the communicator backend (a registered name or a ready-made
    backend object); ``time_seconds`` is then that backend's makespan —
    modelled virtual seconds on ``virtual``, measured wall seconds on the
    real-execution backends.
    """
    initial_marks = np.asarray(initial_marks, dtype=bool)
    if initial_marks.shape != (global_mesh.nedges,):
        raise ValueError(
            f"initial marks must cover the {global_mesh.nedges} global edges"
        )

    # per-rank immutable context
    local_marks0 = [initial_marks[lm.edge_l2g].copy() for lm in locals_]
    # SPL neighbour lists per rank (ranks sharing at least one edge)
    neighbours = [
        sorted(set(lm.edge_spl_dat.tolist())) for lm in locals_
    ]
    # per-rank: for each neighbour, the local shared edges they co-own
    shared_with = []
    for lm in locals_:
        by_nbr: dict[int, list[int]] = {}
        for le in np.flatnonzero(lm.edge_shared):
            for r in lm.edge_spl(le):
                by_nbr.setdefault(int(r), []).append(int(le))
        shared_with.append(by_nbr)

    def program(comm, _real_wire, lm: LocalMesh, marks, nbrs, shared):
        marked = marks.copy()
        g2l_keys = lm.edge_l2g  # ascending, so searchsorted resolves g->l
        rounds = 0
        while True:
            rounds += 1
            # one local 3D_TAG upgrade sweep (vectorized over local elements)
            patterns = element_patterns(lm.mesh, marked)
            bits = pattern_bits(UPGRADE[patterns])
            new_marked = marked.copy()
            if lm.ne:
                new_marked[lm.mesh.elem2edge[bits]] = True
            yield from comm.compute(lm.ne)

            newly = new_marked & ~marked
            marked = new_marked
            # exchange newly-marked local copies of shared edges with every
            # processor in their SPLs (global ids travel on the wire)
            incoming_any = False
            for r in nbrs:
                mine = [le for le in shared[r] if newly[le]]
                payload = lm.edge_l2g[mine] if mine else np.empty(0, np.int64)
                yield from comm.send(payload, dest=r, tag=11,
                                     nwords=max(1, payload.shape[0]))
            for _ in nbrs:
                payload = yield from comm.recv(tag=11)
                if payload.shape[0]:
                    loc = np.searchsorted(g2l_keys, payload)
                    fresh = ~marked[loc]
                    if fresh.any():
                        incoming_any = True
                        marked[loc] = True
            changed = bool(newly.any()) or incoming_any
            any_change = yield from comm.allreduce(changed, op=lambda a, b: a or b)
            if not any_change:
                break
        return marked, rounds

    res = launch(
        program, locals_, local_marks0, neighbours, shared_with,
        phase="mark", machine=machine, tracer=tracer, backend=backend,
    )

    merged = np.zeros(global_mesh.nedges, dtype=bool)
    rounds = 0
    for lm, (marked, r) in zip(locals_, res.returns):
        merged[lm.edge_l2g[marked]] = True
        rounds = max(rounds, r)
        # consistency along partition boundaries: every shared copy agrees
    for lm, (marked, _r) in zip(locals_, res.returns):
        assert np.array_equal(marked, merged[lm.edge_l2g]), (
            "shared edge markings diverged across partitions"
        )

    return ParallelMarkResult(
        edge_marked=merged,
        iterations=rounds,
        time_seconds=res.makespan,
        messages=res.total_messages,
        words=res.total_words,
    )
