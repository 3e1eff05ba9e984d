"""Distributed subdivision: each rank refines its local region (paper §3).

"Once all edge markings are complete, each processor executes the mesh
adaption code without the need for further communication, since all edges
are consistently marked.  The only task remaining is to update the shared
edge and vertex information as the mesh is adapted ...  If a shared edge
is bisected, its two children and the center vertex inherit its SPL.
However, if a new edge is created that lies across an element face,
communication is sometimes required to determine whether it is shared or
internal."

:func:`parallel_refine` runs exactly that: every rank subdivides its local
mesh independently (real subdivision of real local data inside the rank
program), inherits SPLs for bisected shared edges locally, and exchanges
one message per neighbour for the face-crossing new edges.  The merged
result is geometrically identical to the global subdivision — asserted via
canonical element signatures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.adapt.marking import MarkingResult, element_patterns
from repro.adapt.patterns import UPGRADE
from repro.adapt.refine import SUBDIV_WORK_PER_CHILD, subdivide
from repro.mesh.tetmesh import TetMesh
from repro.mesh.topology import FACE_EDGE_MASKS
from repro.parallel.machine import MachineModel, SP2_1997

from ._launch import launch
from .localmesh import LocalMesh

__all__ = ["parallel_refine", "ParallelRefineResult", "canonical_signature"]


def canonical_signature(mesh: TetMesh) -> np.ndarray:
    """Order-independent geometric signature: sorted per-element coordinate
    multisets, lexicographically ordered."""
    pts = np.sort(mesh.coords[mesh.elems].reshape(mesh.ne, -1), axis=1)
    return pts[np.lexsort(pts.T)]


@dataclass(frozen=True)
class ParallelRefineResult:
    """Outcome of distributed subdivision."""

    local_meshes: list[TetMesh]  #: refined subgrid per rank
    time_seconds: float  #: VM makespan (subdivision + SPL updates)
    messages: int  #: face-edge classification messages
    total_children: int

    def merged_signature(self) -> np.ndarray:
        """Canonical signature of the union of all local refined meshes."""
        sigs = [canonical_signature(m) for m in self.local_meshes if m.ne]
        allsig = np.vstack(sigs)
        return allsig[np.lexsort(allsig.T)]


def parallel_refine(
    global_mesh: TetMesh,
    locals_: list[LocalMesh],
    marking: MarkingResult,
    machine: MachineModel = SP2_1997,
    tracer=None,
    backend="virtual",
) -> ParallelRefineResult:
    """Subdivide every local mesh under a globally-consistent marking.

    ``tracer`` (or the ambient one) records the virtual machine's events
    and causal message DAG.  ``backend`` selects the communicator backend
    executing the rank programs; the subdivision work is real on every
    backend, so payloads (the refined local meshes) are identical across
    backends while ``time_seconds`` switches from modelled to measured.
    """
    edge_marked = np.asarray(marking.edge_marked, dtype=bool)
    if edge_marked.shape != (global_mesh.nedges,):
        raise ValueError(
            f"marking must cover the {global_mesh.nedges} global edges"
        )

    local_inputs = []
    for lm in locals_:
        lmask = edge_marked[lm.edge_l2g]
        patterns = element_patterns(lm.mesh, lmask)
        if not np.array_equal(UPGRADE[patterns], patterns):
            raise ValueError(
                "marking is not a propagation fixpoint on the local mesh"
            )
        lmarking = MarkingResult(
            edge_marked=lmask, patterns=patterns, iterations=0
        )
        # shared faces: local boundary faces that are interior globally,
        # i.e. faces whose three edges are all shared.  New edges created
        # across such faces need a classification round-trip per SPL rank.
        n_face_checks = _count_shared_face_new_edges(lm, lmask, patterns)
        nbrs = sorted(set(lm.edge_spl_dat.tolist()))
        local_inputs.append((lm, lmarking, n_face_checks, nbrs))

    def program(comm, _real_wire, lm: LocalMesh, lmarking, n_checks, nbrs):
        # independent local subdivision (the real data structure work)
        result = subdivide(lm.mesh, lmarking)
        yield from comm.compute(SUBDIV_WORK_PER_CHILD * result.mesh.ne)
        # bisected shared edges: children + midpoint inherit the SPL — a
        # purely local update (one unit per shared bisected edge)
        shared_bisected = int((lmarking.edge_marked & lm.edge_shared).sum())
        yield from comm.compute(2.0 * shared_bisected)
        # face-crossing new edges: ask each SPL neighbour whether its copy
        # exists (shared) or not (internal)
        for r in nbrs:
            yield from comm.send(n_checks, dest=r, tag=21,
                                 nwords=max(1, n_checks))
        replies = 0
        for _ in nbrs:
            _ = yield from comm.recv(tag=21)
            replies += 1
        yield from comm.barrier()
        return result.mesh, result.mesh.ne

    res = launch(
        program, *zip(*local_inputs),
        phase="refine", machine=machine, tracer=tracer, backend=backend,
    )

    meshes = [ret[0] for ret in res.returns]
    total_children = sum(ret[1] for ret in res.returns)
    return ParallelRefineResult(
        local_meshes=meshes,
        time_seconds=res.makespan,
        messages=res.total_messages,
        total_children=total_children,
    )


def _count_shared_face_new_edges(
    lm: LocalMesh, lmask: np.ndarray, patterns: np.ndarray
) -> int:
    """Count new edges that will lie across *shared* faces.

    A 1:4 (or 1:8) subdivision creates three medial edges on each fully
    marked face; when that face lies on the partition boundary, the medial
    edges' shared/internal status needs the paper's communication step.
    """
    if lm.ne == 0:
        return 0
    face_masks = [int(m) for m in FACE_EDGE_MASKS]
    count = 0
    shared = lm.edge_shared
    for f, mask in enumerate(face_masks):
        full = (patterns & mask) == mask
        if not full.any():
            continue
        from repro.mesh.topology import FACE_EDGES

        fe = lm.mesh.elem2edge[:, FACE_EDGES[f]]
        face_shared = shared[fe].all(axis=1)
        count += int((full & face_shared).sum()) * 3
    return count
