"""Rank-local view of a distributed tetrahedral mesh (paper §3).

The parallel 3D_TAG "initialization phase takes as input the global
initial grid and the corresponding partition information ... It then
distributes the global data across the processors, defining a local number
for each mesh object, and creating the mapping for objects that are shared
by multiple processors.  Shared vertices and edges are identified by
searching for elements that lie on partition boundaries.  A bit flag is
set to distinguish between shared and internal objects.  A list of shared
processors (SPL) is also generated for each shared object."

:class:`LocalMesh` is exactly that per-rank state: a local
:class:`~repro.mesh.TetMesh`, local→global maps for vertices/edges/
elements, shared flags, and CSR shared-processor lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.mesh.tetmesh import TetMesh

__all__ = ["LocalMesh"]


@dataclass
class LocalMesh:
    """One processor's subgrid with shared-object bookkeeping.

    Attributes
    ----------
    rank:
        Owning processor.
    mesh:
        The local :class:`TetMesh` in local numbering.
    elem_l2g / vert_l2g / edge_l2g:
        Local id → global id for elements, vertices, edges.
    vert_shared / edge_shared:
        Bit flags distinguishing shared from internal objects.
    vert_spl_ptr / vert_spl_dat (and edge counterparts):
        CSR shared-processor lists: for local object ``i``,
        ``dat[ptr[i]:ptr[i+1]]`` are the *other* ranks sharing it (empty
        for internal objects).
    """

    rank: int
    mesh: TetMesh
    elem_l2g: np.ndarray
    vert_l2g: np.ndarray
    edge_l2g: np.ndarray
    vert_shared: np.ndarray
    edge_shared: np.ndarray
    vert_spl_ptr: np.ndarray = field(repr=False)
    vert_spl_dat: np.ndarray = field(repr=False)
    edge_spl_ptr: np.ndarray = field(repr=False)
    edge_spl_dat: np.ndarray = field(repr=False)

    @property
    def ne(self) -> int:
        return self.mesh.ne

    @property
    def nv(self) -> int:
        return self.mesh.nv

    def edge_spl(self, e: int) -> np.ndarray:
        """Other ranks sharing local edge ``e`` (empty if internal)."""
        return self.edge_spl_dat[self.edge_spl_ptr[e] : self.edge_spl_ptr[e + 1]]

    def shared_fraction(self) -> float:
        """Fraction of local objects that are shared — the paper reports
        the parallel code's extra storage is proportional to this (< 10%
        of serial memory for their cases)."""
        total = self.nv + self.mesh.nedges
        if total == 0:
            return 0.0
        return float(self.vert_shared.sum() + self.edge_shared.sum()) / total
