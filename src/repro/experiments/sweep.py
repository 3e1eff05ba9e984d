"""Shared experiment sweep: one adapt/balance step per (case, mode, P).

All of Figs. 4, 5, 6, and 8 are views of the same sweep — the paper runs
one refinement step of each Real strategy across processor counts, with
data remapping either after or before the subdivision phase.

Two layers memoise, per process: :func:`run_step` here keeps whole
``StepReport`` objects by its arguments, so the figure functions don't
redo each other's cycles; below it ``repro.partition.multilevel_kway``
and ``repartition`` keep finished partitions by the content of the call,
in one store, so cycles that differ only in strategy or remap order share
the one initial partition per processor count (the paper's Fig. 1
"initialization" box), the two remap orders of one (strategy, P) share
their repartition, and Table 2 reuses Real_2's.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.core.cost import CostModel
from repro.core.framework import LoadBalancedAdaptiveSolver, StepReport
from repro.parallel.machine import SP2_1997

from .cases import PROC_COUNTS, case_for

__all__ = ["run_step", "PROC_COUNTS", "SWEEP_PROCS"]

#: Processor counts for figure sweeps (paper plots 1..64).
SWEEP_PROCS = (1,) + PROC_COUNTS


@lru_cache(maxsize=256)
def run_step(
    resolution: int,
    case_name: str,
    mode: str,
    nproc: int,
) -> StepReport:
    """One Fig.-1 cycle for the given strategy/mode/processor count.

    The imbalance threshold is set just above 1 so the balancer always
    engages (as in the paper's experiments), and the solver-centric cost
    model makes the gain comfortably exceed the redistribution cost.
    """
    case = case_for(resolution)
    solver = LoadBalancedAdaptiveSolver(
        case.mesh,
        nproc,
        machine=SP2_1997,
        cost_model=CostModel(machine=SP2_1997),
        remap_when=mode,
        imbalance_threshold=1.0,
    )
    return solver.adapt_step(edge_mask=case.marking_mask(case_name))


def speedup_series(
    resolution: int, case_name: str, mode: str
) -> dict[int, float]:
    """Parallel mesh-adaption speedup T(1)/T(P) over the processor sweep."""
    t1 = run_step(resolution, case_name, mode, 1).adaption_time
    return {
        p: t1 / run_step(resolution, case_name, mode, p).adaption_time
        for p in SWEEP_PROCS
    }


def remap_series(resolution: int, case_name: str, mode: str) -> dict[int, float]:
    """Measured remapping seconds over the processor sweep (P >= 2)."""
    return {
        p: run_step(resolution, case_name, mode, p).remap_time
        for p in PROC_COUNTS
    }


def actual_improvement(resolution: int, case_name: str) -> dict[int, float]:
    """Fig. 8: flow-solver time without balancing over with balancing.

    Both quantities use the *actual* post-refinement weights; the
    unbalanced mapping is the pre-adaption partition, the balanced one is
    what the framework produced.
    """
    case = case_for(resolution)
    out: dict[int, float] = {}
    for p in SWEEP_PROCS:
        solver = LoadBalancedAdaptiveSolver(
            case.mesh,
            p,
            machine=SP2_1997,
            cost_model=CostModel(machine=SP2_1997),
            imbalance_threshold=1.0,
        )
        part_before = solver.part.copy()
        solver.adapt_step(edge_mask=case.marking_mask(case_name))
        w = solver.adaptive.wcomp().astype(np.float64)
        load_unbal = np.bincount(part_before, weights=w, minlength=p).max()
        load_bal = np.bincount(solver.part, weights=w, minlength=p).max()
        out[p] = float(load_unbal / load_bal)
    return out
