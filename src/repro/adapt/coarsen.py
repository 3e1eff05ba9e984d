"""Mesh coarsening (paper §3): constraint-checked undo of refinement.

The paper's coarsening rules:

* edges cannot be coarsened beyond the initial mesh;
* edges must be coarsened in the reverse of the order they were refined;
* an edge can coarsen if and only if its *sibling* (the other half of the
  bisected parent edge) is also targeted;
* reinstated parents get adjusted patterns and are re-subdivided by
  invoking the refinement procedure, which restores a valid mesh.

We realise these rules by peeling the most recent refinement level: a
parent-edge bisection is undone iff *both* of its half-edges are targeted
for coarsening (the sibling rule); the previous mesh is then re-marked with
the surviving bisections and re-subdivided.  Pattern propagation during the
re-marking may legitimately resurrect some undone bisections — that is the
paper's "parents are then subdivided based on their new patterns" step.
Peeling repeatedly coarsens deeper levels in reverse order, and stops at
the initial mesh.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .marking import MarkingResult, propagate_markings
from .refine import RefineResult, subdivide

__all__ = ["CoarsenReport", "peel_last_level"]


@dataclass(frozen=True)
class CoarsenReport:
    """Outcome of one coarsening pass.

    ``n_undone`` counts bisections actually removed after re-propagation
    (``n_candidates`` were eligible under the sibling rule); ``changed`` is
    False when the pass was a no-op (nothing eligible, or propagation
    reinstated everything).
    """

    changed: bool
    n_targeted_edges: int
    n_candidates: int
    n_undone: int
    elements_removed: int
    new_marking: MarkingResult | None = None
    new_result: RefineResult | None = None


def peel_last_level(
    mesh_before,
    last_marking: MarkingResult,
    cur_mesh,
    coarsen_mask: np.ndarray,
    solution_before: np.ndarray | None = None,
) -> CoarsenReport:
    """Undo eligible bisections of the most recent refinement step.

    Parameters
    ----------
    mesh_before:
        The mesh *before* the last refinement step.
    last_marking:
        The marking fixpoint that step subdivided ``mesh_before`` by.
    cur_mesh:
        The mesh that step made (``subdivide(mesh_before, last_marking)``).
    coarsen_mask:
        Boolean mask over the *current* (refined) mesh's edges targeting
        edges for removal.

    The halves of a bisected edge ``(a, b)`` are ``(a, m)`` and ``(b, m)``
    (midpoints are numbered after the old vertices, in edge order): one
    search of ``cur_mesh``'s sorted edge keys finds them.
    """
    coarsen_mask = np.asarray(coarsen_mask, dtype=bool)
    if coarsen_mask.shape != (cur_mesh.nedges,):
        raise ValueError(
            f"coarsen mask must have shape ({cur_mesh.nedges},), got "
            f"{coarsen_mask.shape}"
        )

    bisected = np.flatnonzero(last_marking.edge_marked)
    nv = cur_mesh.nv
    mid = mesh_before.nv + np.arange(bisected.size)
    keys = cur_mesh.edges[:, 0] * nv + cur_mesh.edges[:, 1]
    # (nb, 2) current-mesh edge ids of the halves (a, m) and (b, m)
    halves = np.searchsorted(keys, mesh_before.edges[bisected] * nv + mid[:, None])
    # sibling rule: undo only if both half-edges are targeted
    undo = coarsen_mask[halves[:, 0]] & coarsen_mask[halves[:, 1]]
    n_candidates = int(undo.sum())
    if n_candidates == 0:
        return CoarsenReport(
            changed=False,
            n_targeted_edges=int(coarsen_mask.sum()),
            n_candidates=0,
            n_undone=0,
            elements_removed=0,
        )

    new_mark = last_marking.edge_marked.copy()
    new_mark[bisected[undo]] = False
    marking2 = propagate_markings(mesh_before, new_mark)
    undone_final = last_marking.edge_marked & ~marking2.edge_marked
    n_undone = int(undone_final.sum())
    if n_undone == 0:
        return CoarsenReport(
            changed=False,
            n_targeted_edges=int(coarsen_mask.sum()),
            n_candidates=n_candidates,
            n_undone=0,
            elements_removed=0,
        )

    result2 = subdivide(mesh_before, marking2, solution=solution_before)
    return CoarsenReport(
        changed=True,
        n_targeted_edges=int(coarsen_mask.sum()),
        n_candidates=n_candidates,
        n_undone=n_undone,
        elements_removed=cur_mesh.ne - result2.mesh.ne,
        new_marking=marking2,
        new_result=result2,
    )
