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
every iteration; the result is identical to the serial fixpoint, and
:func:`propagate_markings` models the parallel execution time through an
optional :class:`~repro.parallel.CostLedger`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mesh.tetmesh import TetMesh
from repro.parallel.ledger import CostLedger

from .patterns import UPGRADE, pattern_bits

__all__ = [
    "target_by_fraction",
    "target_elements_by_fraction",
    "propagate_markings",
    "MarkingResult",
    "element_patterns",
    "shared_edge_mask",
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


def shared_edge_mask(mesh: TetMesh, part: np.ndarray) -> np.ndarray:
    """Edges incident to elements of more than one partition.

    These are the edges whose markings must be communicated (each shared
    edge's SPL in the paper's terminology).
    """
    owner = part[np.repeat(np.arange(mesh.ne), 6)]
    eids = mesh.elem2edge.ravel()
    lo = np.full(mesh.nedges, np.iinfo(np.int64).max, dtype=np.int64)
    hi = np.full(mesh.nedges, -1, dtype=np.int64)
    np.minimum.at(lo, eids, owner)
    np.maximum.at(hi, eids, owner)
    return (hi >= 0) & (lo != hi)


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
    """

    edge_marked: np.ndarray
    patterns: np.ndarray
    iterations: int


def propagate_markings(
    mesh: TetMesh,
    edge_marked: np.ndarray,
    part: np.ndarray | None = None,
    ledger: CostLedger | None = None,
) -> MarkingResult:
    """Upgrade element patterns to valid subdivision types until stable.

    Parameters
    ----------
    mesh:
        The current computational mesh.
    edge_marked:
        Initial boolean mask of edges targeted for subdivision.
    part, ledger:
        When both are given, the parallel execution of the loop is modelled:
        each round charges every rank the pattern-recomputation work of its
        own elements and one message per neighbouring partition carrying the
        newly-marked shared edges (paper §3's SPL exchange).  The marking
        *result* is independent of the partitioning.
    """
    edge_marked = np.array(edge_marked, dtype=bool)
    if edge_marked.shape != (mesh.nedges,):
        raise ValueError(
            f"edge mask must have shape ({mesh.nedges},), got {edge_marked.shape}"
        )
    model_parallel = part is not None and ledger is not None
    if model_parallel:
        shared = shared_edge_mask(mesh, part)
        elems_per_rank = np.bincount(part, minlength=ledger.nranks)
        # which partitions touch each shared edge (for message accounting);
        # the ordered rank-pair table is hoisted here so each round's charge
        # is a bincount instead of a Python loop over edges × SPL pairs
        edge_ranks = _edge_rank_incidence(mesh, part)
        edge_rank_pairs = _edge_rank_pairs(edge_ranks)

    patterns = element_patterns(mesh, edge_marked)
    iterations = 0
    touched_per_rank = elems_per_rank if model_parallel else None
    while True:
        iterations += 1
        upgraded = UPGRADE[patterns]
        bits = pattern_bits(upgraded)
        new_marked = edge_marked.copy()
        new_marked[mesh.elem2edge[bits]] = True
        if model_parallel:
            # round 1 examines every local element; later rounds only the
            # elements adjacent to edges newly marked in the previous round
            # (3D_TAG's incident-edge lists make that lookup O(1))
            ledger.add_work_all(touched_per_rank)
            newly = new_marked & ~edge_marked & shared
            _charge_shared_exchange(ledger, edge_ranks, newly, edge_rank_pairs)
            ledger.barrier()
            newly_any = new_marked & ~edge_marked
            touch = newly_any[mesh.elem2edge].any(axis=1)
            touched_per_rank = np.bincount(
                part[touch], minlength=ledger.nranks
            )
        if np.array_equal(new_marked, edge_marked) and np.array_equal(
            UPGRADE[patterns], patterns
        ):
            break
        edge_marked = new_marked
        patterns = element_patterns(mesh, edge_marked)

    assert np.array_equal(UPGRADE[patterns], patterns), "fixpoint not valid"
    return MarkingResult(edge_marked=edge_marked, patterns=patterns, iterations=iterations)


def _edge_rank_incidence(mesh: TetMesh, part: np.ndarray):
    """CSR-ish map: for each edge, the sorted unique ranks touching it.

    One value sort of the packed keys ``edge·nranks + rank`` over the
    ``6·ne`` element-edge incidences; the distinct keys, unpacked, are the
    (edge, rank) pairs in edge-then-rank order.
    """
    part = np.asarray(part, dtype=np.int64)
    nranks = int(part.max()) + 1 if mesh.ne else 1
    keys = mesh.elem2edge * nranks
    keys += part[:, None]
    keys = np.sort(keys, axis=None)
    keep = np.ones(keys.shape[0], dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    keys = keys[keep]
    return keys // nranks, keys % nranks


def _edge_rank_pairs(edge_ranks):
    """Ordered distinct rank pairs (src, dst, edge) of every edge's SPL.

    Built once per :func:`propagate_markings` call; each round's exchange
    charge then reduces to one ``bincount`` over the newly-marked subset.
    """
    e_ids, r_ids = edge_ranks
    n = e_ids.shape[0]
    empty = np.empty(0, dtype=np.int64)
    if n == 0:
        return empty, empty, empty
    starts = np.flatnonzero(np.r_[True, e_ids[1:] != e_ids[:-1]])
    counts = np.diff(np.r_[starts, n])
    npair = counts * (counts - 1)
    total = int(npair.sum())
    if total == 0:
        return empty, empty, empty
    seg = np.repeat(np.arange(starts.shape[0]), npair)
    offsets = np.cumsum(npair) - npair
    p = np.arange(total) - offsets[seg]
    km1 = (counts - 1)[seg]
    a = p // km1
    b = p % km1
    b = b + (b >= a)  # skip the diagonal: b ranges over positions != a
    src = r_ids[starts[seg] + a]
    dst = r_ids[starts[seg] + b]
    pair_edge = e_ids[starts[seg]]
    return src, dst, pair_edge


def _charge_shared_exchange(
    ledger: CostLedger, edge_ranks, newly: np.ndarray, pairs
):
    """Charge one message per (owner, neighbour) partition pair carrying the
    newly-marked shared edges between them (1 word per edge id): every rank
    touching an edge sends its local copy's id to every other rank in the
    edge's SPL.  ``pairs`` is :func:`_edge_rank_pairs` of ``edge_ranks``."""
    e_ids, _r_ids = edge_ranks
    if not newly[e_ids].any():
        return
    nr = ledger.nranks
    src, dst, pair_edge = pairs
    psel = newly[pair_edge]
    volume = np.bincount(
        src[psel] * nr + dst[psel], minlength=nr * nr
    ).reshape(nr, nr)
    ledger.add_exchange(volume)
