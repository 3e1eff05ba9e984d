"""Processor reassignment (paper §4.4).

Given the similarity matrix, map the ``npart = F·P`` new partitions onto
the ``P`` processors so the redistribution cost is minimised:

* :func:`optimal_mwbg` — maximally weighted bipartite graph matching,
  optimal for the **TotalV** metric (maximise retained weight ⇔ minimise
  total elements moved).  F > 1 is handled by duplicating each processor
  (and its incident edges) F times, exactly as in the paper.
* :func:`heuristic_mwbg` — the paper's greedy algorithm: sort all entries
  in descending order (they use a radix sort; we use NumPy's O(E log E)
  sort — same output, deterministic tie-breaks) and assign greedily.
  Theorem 1 guarantees objective ≥ ½ · optimal; the corollary bounds data
  movement at ≤ 2× optimal.  O(E) assignment after the sort.
* :func:`optimal_bmcm` — bottleneck maximum cardinality matching, optimal
  for the **MaxV** metric (minimise the most-loaded processor's
  max(α·sent, β·received)).  The paper uses Gabow–Tarjan; we obtain the
  same optimum by binary-searching the bottleneck threshold over a
  Hopcroft–Karp feasibility test.  Implemented for F = 1, like the paper.

The two exact solves (shortest augmenting path and Hopcroft–Karp) are
:mod:`repro.partition.assignment`'s.
"""

from __future__ import annotations

import math

import numpy as np

from repro.parallel.machine import MachineModel, SP2_1997
from repro.partition.assignment import bipartite_matching, max_weight_assignment

__all__ = [
    "optimal_mwbg",
    "heuristic_mwbg",
    "optimal_bmcm",
    "objective_value",
    "reassignment_time",
]

#: Work units per similarity entry in the O(E log E) sort (§4.4).
C_SORT = 1.0
#: Work units per entry/partition of the linear greedy-assignment pass.
C_ASSIGN = 1.0


def reassignment_time(
    n_entries: int, npart: int, machine: MachineModel = SP2_1997
) -> float:
    """Modelled host seconds for the §4.4 processor reassignment.

    The paper sizes the reassignment as a sort of the ``E`` nonzero
    similarity-matrix entries (``E ≤ P·(P·F)``; they use radix sort, we
    use an O(E log E) comparison sort — same asymptotics at these sizes)
    followed by a linear greedy assignment over entries and partitions.
    It runs serially on the gathered rows at the host, so the whole cost
    is charged as local work under the machine model — the same virtual
    clock every other :class:`~repro.core.framework.StepReport` phase is
    measured in.
    """
    if n_entries < 0:
        raise ValueError(f"negative entry count: {n_entries}")
    if npart < 1:
        raise ValueError(f"need at least one partition, got {npart}")
    e = max(int(n_entries), 1)
    units = C_SORT * e * math.log2(e + 1) + C_ASSIGN * (e + npart)
    return machine.work_time(units)


def _check_S(S: np.ndarray, F: int) -> tuple[np.ndarray, int, int]:
    S = np.asarray(S, dtype=np.int64)
    if S.ndim != 2:
        raise ValueError(f"S must be 2-D, got shape {S.shape}")
    nproc, npart = S.shape
    if npart != F * nproc:
        raise ValueError(
            f"S has {npart} partitions for {nproc} processors; expected F·P "
            f"= {F * nproc}"
        )
    if np.any(S < 0):
        raise ValueError("similarity weights must be non-negative")
    return S, nproc, npart


def objective_value(S: np.ndarray, proc_of_part: np.ndarray) -> int:
    """The TotalV objective F = Σ_j S[proc_of_part[j], j] (retained weight)."""
    S = np.asarray(S)
    proc_of_part = np.asarray(proc_of_part, dtype=np.int64)
    return int(S[proc_of_part, np.arange(S.shape[1])].sum())


def optimal_mwbg(S: np.ndarray, F: int = 1) -> np.ndarray:
    """Optimal TotalV assignment; returns ``proc_of_part`` of length F·P."""
    S, nproc, npart = _check_S(S, F)
    big = np.repeat(S, F, axis=0)  # duplicate each processor F times
    proc_of_part = np.empty(npart, dtype=np.int64)
    # row r of ``big`` is a copy of processor r // F: fold the copies back
    proc_of_part[max_weight_assignment(big)] = np.arange(npart) // F
    return proc_of_part


def heuristic_mwbg(S: np.ndarray, F: int = 1) -> np.ndarray:
    """The paper's greedy heuristic (pseudocode in §4.4), O(E log E + E).

    Entries are visited in descending weight; ties broken by (processor,
    partition) index so the result is deterministic.  Zero entries are used
    if needed, exactly as the paper allows.
    """
    S, nproc, npart = _check_S(S, F)
    i_idx, j_idx = np.nonzero(S)
    w = S[i_idx, j_idx]
    order = np.lexsort((j_idx, i_idx, -w))
    part_map = np.full(npart, -1, dtype=np.int64)
    proc_unmap = np.full(nproc, F, dtype=np.int64)
    count = 0
    for t in order:
        i, j = i_idx[t], j_idx[t]
        if proc_unmap[i] > 0 and part_map[j] < 0:
            proc_unmap[i] -= 1
            part_map[j] = i
            count += 1
            if count == npart:
                break
    if count < npart:  # fall back to zero entries, in index order
        free_parts = np.flatnonzero(part_map < 0)
        free_slots = np.repeat(np.arange(nproc), proc_unmap)
        part_map[free_parts] = free_slots[: free_parts.shape[0]]
    return part_map


def optimal_bmcm(S: np.ndarray, alpha: float = 1.0, beta: float = 1.0) -> np.ndarray:
    """Optimal MaxV assignment (F = 1): minimise over perfect matchings the
    maximum per-edge cost max(α·sent_i, β·recv_j) where
    sent = rowsum_i − S[i,j] and recv = colsum_j − S[i,j].

    Exact bottleneck assignment: binary search the threshold over the sorted
    distinct edge costs, testing perfect-matching feasibility with
    Hopcroft–Karp.
    """
    S, nproc, npart = _check_S(S, F=1)
    row = S.sum(axis=1, keepdims=True)
    col = S.sum(axis=0, keepdims=True)
    cost = np.maximum(alpha * (row - S), beta * (col - S))
    levels = np.unique(cost)
    lo, hi = 0, levels.shape[0] - 1
    # a perfect matching always exists at the max threshold (complete graph)
    while lo < hi:
        mid = (lo + hi) // 2
        if _has_perfect_matching(cost <= levels[mid]):
            hi = mid
        else:
            lo = mid + 1
    feasible = cost <= levels[lo]
    match = _perfect_matching(feasible)
    proc_of_part = np.empty(npart, dtype=np.int64)
    proc_of_part[match] = np.arange(nproc)
    return proc_of_part


def _has_perfect_matching(mask: np.ndarray) -> bool:
    return bool(np.all(bipartite_matching(mask) >= 0))


def _perfect_matching(mask: np.ndarray) -> np.ndarray:
    """Row -> matched column under ``mask`` (must be perfect)."""
    m = bipartite_matching(mask)
    if np.any(m < 0):
        raise RuntimeError("expected a perfect matching")
    return m
