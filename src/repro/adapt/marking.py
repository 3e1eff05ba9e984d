"""Edge targeting and the iterative marking-propagation loop (paper §3).

Refinement is split into two phases: *marking* (this module — a pure
bookkeeping step during which the grid is unchanged) and *subdivision*
(:mod:`repro.adapt.refine`).  The split is what enables the paper's key
optimisation: remapping data after marking but before subdivision (§4.6).

Marking starts from an error indicator per edge, then iteratively upgrades
every element's 6-bit pattern to a valid subdivision type; upgrades mark
additional edges, which may invalidate neighbouring elements' patterns, so
the process repeats until a fixpoint.  In the distributed setting the same
loop runs per partition with an exchange of newly-marked shared edges after
every iteration; the result is identical to the serial fixpoint.
:func:`propagate_markings` records the round in which each edge was first
marked, from which :mod:`repro.core.phases` derives every round's
per-partition work and exchange without the adaptor knowing about ranks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mesh.tetmesh import TetMesh

from .patterns import UPGRADE, pattern_bits

__all__ = [
    "target_by_fraction",
    "target_elements_by_fraction",
    "propagate_markings",
    "MarkingResult",
    "element_patterns",
]

_POW2 = (1 << np.arange(6)).astype(np.int64)


def target_by_fraction(error: np.ndarray, refine_frac: float) -> np.ndarray:
    """Mark the ``refine_frac`` highest-error edges for subdivision.

    This is how the paper constructs its Real_1/2/3 strategies, which
    subdivide 5%, 33%, and 60% of the initial mesh's edges.
    """
    error = np.asarray(error, dtype=np.float64)
    if not 0.0 <= refine_frac <= 1.0:
        raise ValueError(f"refine_frac must be in [0, 1], got {refine_frac}")
    n = error.shape[0]
    k = int(round(refine_frac * n))
    mask = np.zeros(n, dtype=bool)
    if k > 0:
        # ties broken by edge id for determinism
        order = np.lexsort((np.arange(n), -error))
        mask[order[:k]] = True
    return mask


def target_elements_by_fraction(
    mesh: TetMesh, elem_error: np.ndarray, edge_frac: float
) -> np.ndarray:
    """Mark all six edges of the highest-error elements until the marked
    set reaches ``edge_frac`` of the mesh's edges.

    Element-coherent targeting reproduces the tightly clustered markings of
    the paper's solution-based indicator: fully-marked elements subdivide
    1:8 while their face neighbours upgrade to clean 1:4 patterns, so
    pattern propagation adds almost nothing and the growth factor stays
    near the ideal ``7·f + 1``.
    """
    elem_error = np.asarray(elem_error, dtype=np.float64)
    if elem_error.shape != (mesh.ne,):
        raise ValueError(f"expected one error per element ({mesh.ne},)")
    if not 0.0 <= edge_frac <= 1.0:
        raise ValueError(f"edge_frac must be in [0, 1], got {edge_frac}")
    target = int(round(edge_frac * mesh.nedges))
    mask = np.zeros(mesh.nedges, dtype=bool)
    if target == 0:
        return mask
    order = np.lexsort((np.arange(mesh.ne), -elem_error))
    # rank of each element in priority order
    rank = np.empty(mesh.ne, dtype=np.int64)
    rank[order] = np.arange(mesh.ne)
    # each edge is first claimed by its highest-priority element
    first_rank = np.full(mesh.nedges, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(
        first_rank, mesh.elem2edge.ravel(), np.repeat(rank, 6)
    )
    # cumulative count of distinct edges after taking the top-k elements
    claimed = np.sort(first_rank[first_rank < np.iinfo(np.int64).max])
    # k* = smallest rank cutoff whose claimed-edge count reaches the target
    kstar = int(claimed[target - 1])  # claimed is sorted by claiming rank
    mask[first_rank <= kstar] = True
    return mask


def element_patterns(mesh: TetMesh, edge_marked: np.ndarray) -> np.ndarray:
    """6-bit pattern of each element given a global edge mask."""
    return (edge_marked[mesh.elem2edge].astype(np.int64) * _POW2).sum(axis=1)


@dataclass(frozen=True)
class MarkingResult:
    """Fixpoint of the marking propagation.

    Attributes
    ----------
    edge_marked:
        Final boolean mask over edges (closed under pattern upgrades).
    patterns:
        Valid 6-bit pattern per element.
    iterations:
        Number of propagation rounds until the fixpoint.
    edge_round:
        Round in which each edge was first marked: 0 for the initial
        targets, ``k`` for propagation round ``k`` (``1 <= k <
        iterations``; the last round marks nothing), −1 for unmarked
        edges.  None for a marking that was not propagated here (a
        rank's local view, a hand-built mask).
    """

    edge_marked: np.ndarray
    patterns: np.ndarray
    iterations: int
    edge_round: np.ndarray | None = None


def propagate_markings(mesh: TetMesh, edge_marked: np.ndarray) -> MarkingResult:
    """Upgrade element patterns to valid subdivision types until stable.

    ``edge_marked`` is the initial boolean mask of edges targeted for
    subdivision on the current computational mesh.  The result is
    independent of any partitioning; it records the round in which each
    edge was first marked (:attr:`MarkingResult.edge_round`).
    """
    edge_marked = np.array(edge_marked, dtype=bool)
    if edge_marked.shape != (mesh.nedges,):
        raise ValueError(
            f"edge mask must have shape ({mesh.nedges},), got {edge_marked.shape}"
        )
    edge_round = np.full(mesh.nedges, -1, dtype=np.int32)
    edge_round[edge_marked] = 0
    patterns = element_patterns(mesh, edge_marked)
    iterations = 0
    while True:
        iterations += 1
        upgraded = UPGRADE[patterns]
        bits = pattern_bits(upgraded)
        new_marked = edge_marked.copy()
        new_marked[mesh.elem2edge[bits]] = True
        if np.array_equal(new_marked, edge_marked) and np.array_equal(
            upgraded, patterns
        ):
            break
        edge_round[new_marked & ~edge_marked] = iterations
        edge_marked = new_marked
        patterns = element_patterns(mesh, edge_marked)

    assert np.array_equal(UPGRADE[patterns], patterns), "fixpoint not valid"
    return MarkingResult(edge_marked=edge_marked, patterns=patterns,
                         iterations=iterations, edge_round=edge_round)
