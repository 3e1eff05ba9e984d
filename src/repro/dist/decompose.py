"""Initialization phase: distribute the global mesh across processors.

Builds one :class:`~repro.dist.localmesh.LocalMesh` per rank from a
partition vector, deriving local numbering, local→global maps, shared
flags, and shared-processor lists — the paper §3 initialization executed
"only once for each problem outside the main
solution→adaption→load-balancing cycle".
"""

from __future__ import annotations

import numpy as np

from repro.mesh.tetmesh import TetMesh

from .localmesh import LocalMesh

__all__ = ["decompose", "rank_incidence"]


def rank_incidence(
    ids_per_rank: list[np.ndarray], n_global: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For global objects touched by several ranks, build a CSR map
    global id → sorted ranks, plus the per-object touch count."""
    all_ids = np.concatenate(ids_per_rank) if ids_per_rank else np.empty(0, np.int64)
    all_ranks = np.concatenate(
        [np.full(ids.shape[0], r, dtype=np.int64) for r, ids in enumerate(ids_per_rank)]
    ) if ids_per_rank else np.empty(0, np.int64)
    order = np.lexsort((all_ranks, all_ids))
    sids, sranks = all_ids[order], all_ranks[order]
    ptr = np.zeros(n_global + 1, dtype=np.int64)
    np.add.at(ptr, sids + 1, 1)
    np.cumsum(ptr, out=ptr)
    counts = np.diff(ptr)
    return ptr, sranks, counts


def decompose(mesh: TetMesh, part: np.ndarray, nproc: int) -> list[LocalMesh]:
    """Split ``mesh`` into per-rank local meshes according to ``part``.

    Every element belongs to exactly one rank; vertices and edges on
    partition boundaries are replicated with consistent SPLs.
    """
    part = np.asarray(part, dtype=np.int64)
    if part.shape != (mesh.ne,):
        raise ValueError(f"part must have shape ({mesh.ne},), got {part.shape}")
    if part.size and (part.min() < 0 or part.max() >= nproc):
        raise ValueError(f"part labels must be in [0, {nproc})")

    # global vertex/edge sets per rank
    vert_ids = []
    edge_ids = []
    elem_ids = []
    for r in range(nproc):
        els = np.flatnonzero(part == r)
        elem_ids.append(els)
        vert_ids.append(np.unique(mesh.elems[els]))
        edge_ids.append(np.unique(mesh.elem2edge[els]))

    v_ptr, v_ranks, v_counts = rank_incidence(vert_ids, mesh.nv)
    e_ptr, e_ranks, e_counts = rank_incidence(edge_ids, mesh.nedges)

    gkeys = mesh.edges[:, 0] * mesh.nv + mesh.edges[:, 1]
    locals_: list[LocalMesh] = []
    for r in range(nproc):
        els = elem_ids[r]
        gverts = vert_ids[r]
        gedges = edge_ids[r]
        # local numbering: position in the sorted unique global id list
        lelems = np.searchsorted(gverts, mesh.elems[els])
        lmesh = TetMesh.from_elems(mesh.coords[gverts], lelems, orient=False)
        # map local edges (from the local mesh build) back to global ids
        lpairs = gverts[lmesh.edges]  # global endpoint pairs, lo<hi holds
        lkeys = lpairs[:, 0] * mesh.nv + lpairs[:, 1]
        edge_l2g = np.searchsorted(gkeys, lkeys)
        assert np.array_equal(gkeys[edge_l2g], lkeys), "local edge must exist globally"
        assert np.array_equal(np.sort(edge_l2g), gedges), "edge sets agree"

        v_shared = v_counts[gverts] > 1
        e_shared = e_counts[edge_l2g] > 1

        vs_ptr, vs_dat = _spl_csr(gverts, v_ptr, v_ranks, r)
        es_ptr, es_dat = _spl_csr(edge_l2g, e_ptr, e_ranks, r)

        locals_.append(
            LocalMesh(
                rank=r,
                mesh=lmesh,
                elem_l2g=els,
                vert_l2g=gverts,
                edge_l2g=edge_l2g,
                vert_shared=v_shared,
                edge_shared=e_shared,
                vert_spl_ptr=vs_ptr,
                vert_spl_dat=vs_dat,
                edge_spl_ptr=es_ptr,
                edge_spl_dat=es_dat,
            )
        )
    return locals_


def _spl_csr(gids, ptr, ranks, own_rank):
    """CSR of other-ranks per local object from the global incidence."""
    starts = ptr[gids]
    lens = ptr[gids + 1] - starts
    # gather the concatenated ranges ranks[starts[i]:starts[i]+lens[i]]
    # in one index vector, tagging each entry with its segment i
    seg = np.repeat(np.arange(len(gids)), lens)
    first = np.cumsum(lens) - lens
    spl = ranks[np.arange(int(lens.sum())) + (starts - first)[seg]]
    other = spl != own_rank
    out_ptr = np.zeros(len(gids) + 1, dtype=np.int64)
    np.cumsum(np.bincount(seg[other], minlength=len(gids)), out=out_ptr[1:])
    return out_ptr, spl[other]
