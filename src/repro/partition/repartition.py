"""Seeded repartitioning — the parallel-MeTiS mode the paper relies on.

Paper §4.2: "An additional benefit of the algorithm is the potential
reduction in remapping cost since parallel MeTiS, unlike the serial
version, uses the previous partition as the initial guess for the
repartitioning."

We reproduce that behaviour: coarsen with heavy-edge matching *restricted
to vertices of the same old partition* (so the old partition projects
exactly onto every coarse level), install the old partition on the coarsest
graph, rebalance it there with k-way greedy refinement, and refine on the
way back up.  The result is balanced under the new weights while staying
close to the old partition, which is what keeps the similarity matrix
diagonal-heavy and the remap volume low.
"""

from __future__ import annotations

import numpy as np

from repro.obs import current_tracer, maybe_phase

from .fm_refine import kway_greedy_refine
from .graph import Graph
from .multilevel import _COARSE_PER_PART, _COARSEN_TO, coarsen, multilevel_kway
from .quality import imbalance

__all__ = ["repartition"]


def repartition(
    graph: Graph,
    k: int,
    old_part: np.ndarray,
    seed: int = 0,
    ub: float = 1.05,
    tracer=None,
) -> np.ndarray:
    """k-way partition balanced under ``graph.vwgt``, biased toward
    ``old_part`` to reduce data movement.  No part of the result is empty,
    whether or not ``old_part`` used all ``k`` labels.

    With a :class:`repro.obs.Tracer` (passed or ambient), the coarsen /
    rebalance / uncoarsen stages are recorded as wall-clock spans (the
    *virtual* partitioning time is modelled separately, by
    :func:`repro.partition.parallel_model.partition_time`).
    """
    tracer = tracer if tracer is not None else current_tracer()
    old_part = np.asarray(old_part, dtype=np.int64)
    if old_part.shape != (graph.n,):
        raise ValueError(f"old_part must have shape ({graph.n},)")
    if old_part.size and (old_part.min() < 0 or old_part.max() >= k):
        raise ValueError("old_part labels must be in [0, k)")
    if k > graph.n:
        raise ValueError(f"cannot cut {graph.n} vertices into k = {k} parts")
    if k == 1:
        return np.zeros(graph.n, dtype=np.int64)
    if _acceptable(graph, old_part, k, ub):
        # already balanced under the new weights: moving nothing is the
        # cheapest remap of all (the framework's evaluation step would not
        # normally even call us in this case)
        return old_part.copy()

    rng = np.random.default_rng(seed)
    # stop four times earlier than a from-scratch partition does: there is
    # no initial partitioner below, only balancing moves of whole vertices
    floor = max(4 * _COARSEN_TO, _COARSE_PER_PART * k)
    with maybe_phase(tracer, "repartition.coarsen", n_fine=graph.n) as sp:
        levels, g, part = coarsen(graph, rng, floor, part=old_part)
        if sp is not None:
            sp.attrs.update(levels=len(levels), n_coarse=g.n)

    # rebalance on the coarsest graph, then refine on the way back up;
    # balance_only keeps cut-improving (but data-moving) churn out
    old_coarse = part
    with maybe_phase(tracer, "repartition.rebalance") as sp:
        part = kway_greedy_refine(g, part, k, ub=ub, max_passes=8,
                                  balance_only=True)
        fallback = not _acceptable(g, part, k, ub)
        if fallback:
            # the old partition is too skewed for local moves to fix (or
            # left a label unused, which no boundary move can repair): fall
            # back to a fresh partition of the coarse graph (loses some
            # locality but stays cheap — the coarse graph is small), then
            # relabel its parts for maximum weighted agreement with the old
            # partition so the fallback still moves as little data as
            # possible
            part = multilevel_kway(g, k, seed=seed, ub=ub)
            part = _relabel_for_agreement(g, old_coarse, part, k)
        if sp is not None:
            sp.attrs["fallback"] = fallback
    with maybe_phase(tracer, "repartition.uncoarsen", levels=len(levels)):
        for fine, cmap in reversed(levels):
            part = part[cmap]
            part = kway_greedy_refine(fine, part, k, ub=ub, balance_only=True)
    return part


def _acceptable(g: Graph, part: np.ndarray, k: int, ub: float) -> bool:
    """Balanced within ``ub`` under ``g.vwgt``, and no part empty."""
    return bool(
        imbalance(g, part, k) <= ub + 1e-9
        and np.bincount(part, minlength=k).all()
    )


def _relabel_for_agreement(
    g: Graph, old: np.ndarray, new: np.ndarray, k: int
) -> np.ndarray:
    """Permute ``new``'s labels to maximise weight staying on its old label
    (a k×k assignment problem — the same MWBG structure the processor
    reassignment solves downstream, applied here at the label level)."""
    from scipy.optimize import linear_sum_assignment

    overlap = np.zeros((k, k), dtype=np.int64)
    np.add.at(overlap, (new, old), g.vwgt)
    rows, cols = linear_sum_assignment(overlap, maximize=True)
    perm = np.empty(k, dtype=np.int64)
    perm[rows] = cols
    return perm[new]
