#!/usr/bin/env python3
"""Compare the three processor-reassignment algorithms (paper Table 2).

Runs the Real_2 refinement strategy, repartitions, and hands the same
similarity matrix to the optimal MWBG, heuristic MWBG, and optimal BMCM
mappers, reporting movement volumes, bottleneck loads, and solve times —
plus a verification of Theorem 1's guarantee on this instance.

Run:  python examples/mapper_comparison.py [resolution]
"""

import sys

from repro.core import objective_value, remap_stats
from repro.experiments import make_case, mapper_comparison
from repro.experiments.report import format_table2


def main(resolution: int = 8) -> None:
    case = make_case(resolution)
    print(f"Rotor case: {case.mesh.ne} elements, {case.mesh.nedges} edges\n")

    rows = mapper_comparison(case, strategy="Real_2")
    print(format_table2(rows))

    # Theorem 1 spot check on the largest instance
    from repro.core.dualgraph import DualGraph
    from repro.core.reassign import heuristic_mwbg, optimal_mwbg
    from repro.core.similarity import similarity_matrix
    from repro.adapt.adaptor import AdaptiveMesh
    from repro.partition.multilevel import multilevel_kway
    from repro.partition.repartition import repartition

    am = AdaptiveMesh(case.mesh)
    marking = am.mark(edge_mask=case.marking_mask("Real_2"))
    wcomp_pred, _ = am.predicted_weights(marking)
    dual = DualGraph(case.mesh)
    old = multilevel_kway(dual.graph, 64, seed=0)
    new = repartition(dual.graph.with_vwgt(wcomp_pred), 64, old, seed=0)
    S = similarity_matrix(old, new, am.wremap(), 64)
    f_opt = objective_value(S, optimal_mwbg(S))
    f_heu = objective_value(S, heuristic_mwbg(S))
    print(f"\nTheorem 1 at P=64: heuristic retains {f_heu}, optimal {f_opt} "
          f"-> ratio {f_heu / max(f_opt, 1):.3f} (guaranteed > 0.5)")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 8)
