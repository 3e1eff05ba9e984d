"""Table 2: mapper comparison on the Real_2 strategy.

For each processor count, the similarity matrix of the repartitioning is
handed to the three mappers — optimal MWBG and heuristic MWBG (TotalV
metric) and optimal BMCM (MaxV metric) — and we report the paper's columns:
max(sent, received), total elements moved, and the reassignment wall time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.adapt.adaptor import AdaptiveMesh
from repro.core.dualgraph import DualGraph
from repro.core.metrics import remap_stats
from repro.core.reassign import heuristic_mwbg, optimal_bmcm, optimal_mwbg
from repro.core.similarity import similarity_matrix
from repro.partition.multilevel import multilevel_kway
from repro.partition.repartition import repartition

from .cases import PROC_COUNTS, RotorCase

__all__ = ["MapperRow", "mapper_comparison"]

_METHODS = {"OptMWBG": optimal_mwbg, "HeuMWBG": heuristic_mwbg, "OptBMCM": optimal_bmcm}


@dataclass(frozen=True)
class MapperRow:
    nproc: int
    method: str
    max_sent_recv: int
    total_elems: int
    reassign_seconds: float


def mapper_comparison(
    case: RotorCase,
    strategy: str = "Real_2",
    procs: tuple[int, ...] = PROC_COUNTS,
) -> list[MapperRow]:
    """One row per (P, method), as in the paper's Table 2."""
    am = AdaptiveMesh(case.mesh, solution=case.solution)
    marking = am.mark(edge_mask=case.marking_mask(strategy))
    wcomp_pred, _ = am.predicted_weights(marking)
    wremap_now = am.wremap()  # remap before subdivision moves these
    dual = DualGraph(case.mesh)

    rows: list[MapperRow] = []
    for p in procs:
        old = multilevel_kway(dual.graph, p, seed=0)
        new = repartition(dual.graph.with_vwgt(wcomp_pred), p, old, seed=0)
        S = similarity_matrix(old, new, wremap_now, p)
        for name, solve in _METHODS.items():
            t0 = time.perf_counter()
            assignment = solve(S)
            t = time.perf_counter() - t0
            st = remap_stats(S, assignment)
            rows.append(
                MapperRow(
                    nproc=p,
                    method=name,
                    max_sent_recv=max(st.max_sent, st.max_received),
                    total_elems=st.c_total,
                    reassign_seconds=t,
                )
            )
    return rows
