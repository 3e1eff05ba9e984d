"""Dual graph of the initial computational mesh (paper §4.1).

The tetrahedra of the *initial* mesh are the dual vertices; an edge joins
two dual vertices when the elements share a face.  Partitioning the dual
assigns tetrahedra — and, through the refinement trees, all their
descendants — to processors.  Because adaption only changes the two vertex
weights (``Wcomp`` = leaves, ``Wremap`` = total tree nodes) and never the
topology, "the repartitioning time depends only on the initial problem size
and the number of partitions, but not on the size of the adapted mesh."
"""

from __future__ import annotations

import numpy as np

from repro.mesh.tetmesh import TetMesh
from repro.partition.graph import Graph

__all__ = ["DualGraph"]


class DualGraph:
    """The dual graph with the two adaption-driven weight vectors."""

    def __init__(self, mesh: TetMesh):
        self.mesh = mesh
        self.graph = Graph.from_pairs(mesh.dual_pairs, mesh.ne)
        self.wcomp = np.ones(mesh.ne, dtype=np.int64)
        self.wremap = np.ones(mesh.ne, dtype=np.int64)

    @property
    def n(self) -> int:
        return self.graph.n

    def update_weights(self, wcomp: np.ndarray, wremap: np.ndarray) -> None:
        """Install new weights (from the refinement forest, actual or
        predicted)."""
        wcomp = np.asarray(wcomp, dtype=np.int64)
        wremap = np.asarray(wremap, dtype=np.int64)
        if wcomp.shape != (self.n,) or wremap.shape != (self.n,):
            raise ValueError(f"weights must have shape ({self.n},)")
        if np.any(wcomp < 1) or np.any(wremap < wcomp):
            raise ValueError(
                "need wcomp >= 1 and wremap >= wcomp (a tree has at least "
                "as many nodes as leaves)"
            )
        self.wcomp = wcomp
        self.wremap = wremap

    def comp_graph(self) -> Graph:
        """Graph weighted by Wcomp — what the repartitioner balances."""
        return self.graph.with_vwgt(self.wcomp)
