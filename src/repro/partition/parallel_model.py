"""Execution-time model of the *parallel* multilevel repartitioner.

The paper runs an alpha version of parallel MeTiS and observes (§5, Fig. 6)
that repartitioning time depends essentially on the initial problem size
(the dual graph never grows), is nearly flat in P, and has a shallow
minimum around P ≈ 16 for their 60,968-vertex dual graph: with few
processors each holds a large share of the work; with many, communication
(graph-coloring rounds, boundary exchanges) dominates.

We run our multilevel partitioner serially for *quality* and charge its
parallel *time* through this model:

    T(P) = t_work · C_work · n / P          (local multilevel work)
         + t_setup · C_msg · P              (per-round neighbour/gather traffic)
         + t_setup · C_log · log2(P)        (reduction/synchronisation tree)

The minimum sits at P* = sqrt(C_work·n·t_work / (C_msg·t_setup)); the
default constants put P* ≈ 16 for n ≈ 61k on the SP2 model, matching the
paper's observation.
"""

from __future__ import annotations

import math

from repro.parallel.machine import MachineModel, SP2_1997

__all__ = ["partition_time"]

#: Multilevel work per dual-graph vertex (≈ levels × passes per level).
C_WORK = 30.0
#: Per-processor communication rounds coefficient.
C_MSG = 172.0
#: Synchronisation-tree coefficient.
C_LOG = 40.0


def partition_time(
    n: int,
    p: int,
    machine: MachineModel = SP2_1997,
) -> float:
    """Modelled wall-clock seconds for a parallel k-way (re)partitioning
    of an ``n``-vertex dual graph on ``p`` processors."""
    if n < 0 or p < 1:
        raise ValueError(f"need n >= 0 and p >= 1, got n={n}, p={p}")
    local = machine.t_work * C_WORK * n / p
    rounds = machine.t_setup * C_MSG * p
    tree = machine.t_setup * C_LOG * math.log2(p) if p > 1 else 0.0
    return local + rounds + tree
