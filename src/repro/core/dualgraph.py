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

from repro.mesh.tetmesh import TetMesh
from repro.partition.graph import Graph

__all__ = ["DualGraph"]


class DualGraph:
    """The dual graph of the initial mesh, unit-weighted.

    The weights live in the refinement forest
    (:meth:`~repro.adapt.adaptor.AdaptiveMesh.wcomp` / ``wremap``); a
    caller weights :attr:`graph` with them through ``Graph.with_vwgt``.
    """

    def __init__(self, mesh: TetMesh):
        self.graph = Graph.from_pairs(mesh.dual_pairs, mesh.ne)

    @property
    def n(self) -> int:
        return self.graph.n
