"""The paper's primary contribution: global-view dynamic load balancing.

Dual graph of the initial mesh (§4.1), similarity-matrix construction
(§4.3), processor reassignment by optimal/heuristic MWBG and optimal BMCM
(§4.4), the TotalV/MaxV cost metrics and gain/cost acceptance test
(§4.5), the efficient remap-before-subdivision data mover (§4.6), and the
framework driver tying them to the mesh adaptor and partitioner (Fig. 1).
"""

from .combined import combined_reassign
from .cost import CostModel, Decision
from .dualgraph import DualGraph
from .evaluate import load_imbalance, needs_repartition
from .framework import LoadBalancedAdaptiveSolver, StepReport
from .metrics import RemapStats, remap_stats
from .reassign import (
    heuristic_mwbg,
    objective_value,
    optimal_bmcm,
    optimal_mwbg,
)
from .remap import RemapExecution, build_move_matrix, execute_remap
from .similarity import similarity_matrix

__all__ = [
    "CostModel",
    "Decision",
    "DualGraph",
    "LoadBalancedAdaptiveSolver",
    "RemapExecution",
    "RemapStats",
    "StepReport",
    "build_move_matrix",
    "combined_reassign",
    "execute_remap",
    "heuristic_mwbg",
    "load_imbalance",
    "needs_repartition",
    "objective_value",
    "optimal_bmcm",
    "optimal_mwbg",
    "remap_stats",
    "similarity_matrix",
]
