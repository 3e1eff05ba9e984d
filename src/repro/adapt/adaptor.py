"""The mesh adaptor driver: mark → (balance hook) → subdivide → coarsen.

:class:`AdaptiveMesh` owns the current computational mesh, the per-initial-
element refinement forest, the optional vertex solution, and the step
history the reverse-order coarsening rule needs: each level's marking and
the solution it refined.  The load-balancing framework (paper Fig. 1)
interposes between :meth:`mark` and :meth:`refine`:
after marking, the predicted dual-graph weights are known, so the mesh can
be repartitioned and remapped *before* it grows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.mesh.tetmesh import TetMesh

from .coarsen import CoarsenReport, peel_last_level
from .marking import MarkingResult, propagate_markings, target_by_fraction
from .refine import RefineResult, subdivide
from .tree import RefinementForest

__all__ = ["AdaptiveMesh"]


@dataclass
class _Step:
    marking: MarkingResult
    solution_before: np.ndarray | None


def _kept(marking: MarkingResult) -> MarkingResult:
    """What a level keeps of its marking: the ``edge_marked`` and
    ``patterns`` coarsening reads, the patterns as ``uint8`` (a pattern is
    six bits), and no ``edge_round``, which only the marking phase's
    pricing reads.  The caller's object keeps every field."""
    return replace(marking, patterns=marking.patterns.astype(np.uint8),
                   edge_round=None)


class AdaptiveMesh:
    """An adaptively refined tetrahedral mesh and its refinement history.

    ``steps`` holds one entry per refinement level: the marking fixpoint
    the level subdivided by (its edge mask and ``uint8`` patterns) and
    the solution it refined.  A level's
    meshes are not kept: ``subdivide`` is deterministic, so
    :meth:`coarsen` rebuilds the mesh beneath the newest level by
    replaying the kept markings from ``initial_mesh``.

    Parameters
    ----------
    mesh:
        The *initial* computational mesh; its elements are the vertices of
        the dual graph for the whole adaptive computation (paper §4.1).
    solution:
        Optional ``(nv, k)`` vertex solution, interpolated on refinement.
    """

    def __init__(self, mesh: TetMesh, solution: np.ndarray | None = None):
        if solution is not None:
            solution = np.asarray(solution, dtype=np.float64)
            if solution.ndim == 1:
                solution = solution[:, None]
            if solution.shape[0] != mesh.nv:
                raise ValueError(
                    f"solution has {solution.shape[0]} rows for {mesh.nv} vertices"
                )
        self.initial_mesh = mesh
        self.mesh = mesh
        self.solution = solution
        self.forest = RefinementForest(mesh.ne)
        self.steps: list[_Step] = []

    # --- marking -----------------------------------------------------------

    def mark(
        self,
        edge_error: np.ndarray | None = None,
        refine_frac: float | None = None,
        edge_mask: np.ndarray | None = None,
    ) -> MarkingResult:
        """Target edges and propagate patterns to a valid fixpoint.

        Provide either an explicit ``edge_mask``, or ``edge_error`` together
        with ``refine_frac`` (mark the top fraction of edges by error — how
        the paper builds Real_1/2/3).
        """
        if edge_mask is None:
            if edge_error is None or refine_frac is None:
                raise ValueError(
                    "provide edge_mask, or edge_error with refine_frac"
                )
            edge_mask = target_by_fraction(edge_error, refine_frac)
        return propagate_markings(self.mesh, edge_mask)

    # --- subdivision ---------------------------------------------------------

    def refine(self, marking: MarkingResult) -> RefineResult:
        """Subdivide the current mesh according to ``marking``."""
        result = subdivide(self.mesh, marking, solution=self.solution)
        self.steps.append(_Step(_kept(marking), self.solution))
        self.forest.record_refinement(result.child_count)
        self.mesh = result.mesh
        self.solution = result.solution
        return result

    # --- coarsening ------------------------------------------------------------

    def coarsen(self, coarsen_mask: np.ndarray) -> CoarsenReport:
        """Coarsen targeted edges of the most recent refinement level.

        A no-op (``changed=False``) when the mesh is the initial mesh —
        edges cannot be coarsened beyond it.
        """
        if not self.steps:
            return CoarsenReport(
                changed=False,
                n_targeted_edges=int(np.asarray(coarsen_mask).sum()),
                n_candidates=0,
                n_undone=0,
                elements_removed=0,
            )
        last = self.steps[-1]
        mesh_before = self.initial_mesh  # replayed: subdivide is deterministic
        for step in self.steps[:-1]:
            mesh_before = subdivide(mesh_before, step.marking).mesh
        report = peel_last_level(
            mesh_before,
            last.marking,
            self.mesh,
            coarsen_mask,
            solution_before=last.solution_before,
        )
        if report.changed:
            assert report.new_marking is not None and report.new_result is not None
            self.forest.pop_level()
            if report.new_marking.edge_marked.any():
                self.steps[-1] = _Step(_kept(report.new_marking),
                                       last.solution_before)
                self.forest.record_refinement(report.new_result.child_count)
                self.mesh = report.new_result.mesh
                self.solution = report.new_result.solution
            else:
                # the whole level was undone: drop it from the history so a
                # later coarsen can reach the level beneath (reverse order)
                self.steps.pop()
                self.mesh = mesh_before
                self.solution = last.solution_before
        return report

    # --- weights for the dual graph -----------------------------------------

    def wcomp(self) -> np.ndarray:
        """Current computational weight per initial element."""
        return self.forest.wcomp()

    def wremap(self) -> np.ndarray:
        """Current remapping weight per initial element."""
        return self.forest.wremap()

    def predicted_weights(self, marking: MarkingResult):
        """(Wcomp, Wremap) as if ``marking`` had already been subdivided."""
        return self.forest.predicted_weights(marking.patterns)

    def elem_partition(self, part_initial: np.ndarray) -> np.ndarray:
        """Map a partition over *initial* elements to current elements:
        every descendant lives where its refinement-tree root lives."""
        part_initial = np.asarray(part_initial)
        if part_initial.shape != (self.initial_mesh.ne,):
            raise ValueError(
                f"partition must cover the {self.initial_mesh.ne} initial elements"
            )
        return part_initial[self.forest.root_of_elem]
