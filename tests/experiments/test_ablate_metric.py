"""Ablation — TotalV vs MaxV as the remapping cost metric (paper §4.4–4.5).

"Note that TotalV does not consider the execution times of bottleneck
processors while MaxV ignores bandwidth contention."  The test quantifies
the trade on the Real_2 similarity matrix: the TotalV-optimal mapper gives
the smallest total movement, the MaxV-optimal mapper the smallest
bottleneck, and each loses on the other's objective.
"""

from repro.core.cost import CostModel
from repro.core.metrics import remap_stats
from repro.core.reassign import optimal_bmcm, optimal_mwbg
from repro.parallel.machine import SP2_1997


def _similarity(case, p=32):
    from repro.adapt.adaptor import AdaptiveMesh
    from repro.core.dualgraph import DualGraph
    from repro.core.similarity import similarity_matrix
    from repro.partition.multilevel import multilevel_kway
    from repro.partition.repartition import repartition

    am = AdaptiveMesh(case.mesh)
    marking = am.mark(edge_mask=case.marking_mask("Real_2"))
    wcomp_pred, _ = am.predicted_weights(marking)
    dual = DualGraph(case.mesh)
    old = multilevel_kway(dual.graph, p, seed=0)
    new = repartition(dual.graph.with_vwgt(wcomp_pred), p, old, seed=0)
    return similarity_matrix(old, new, am.wremap(), p)


def test_metric_tradeoff(case):
    S = _similarity(case)

    st_tot = remap_stats(S, optimal_mwbg(S))
    st_max = remap_stats(S, optimal_bmcm(S))
    print(
        f"\n  TotalV-opt: C_total={st_tot.c_total:6d}  C_max={st_tot.c_max:6d}"
        f"\n  MaxV-opt  : C_total={st_max.c_total:6d}  C_max={st_max.c_max:6d}"
    )

    assert st_tot.c_total <= st_max.c_total  # TotalV wins its own metric
    assert st_max.c_max <= st_tot.c_max  # MaxV wins its own metric

    # both metrics price the remap consistently in the cost model
    for metric, st in (("totalv", st_tot), ("maxv", st_max)):
        cm = CostModel(machine=SP2_1997, metric=metric)
        assert cm.redistribution_cost(st) > 0
    # MaxV's bottleneck price never exceeds the TotalV total price for the
    # same assignment (C_max <= C_total, N_max <= N_total)
    cm_tot = CostModel(machine=SP2_1997, metric="totalv")
    cm_max = CostModel(machine=SP2_1997, metric="maxv")
    assert cm_max.redistribution_cost(st_tot) <= cm_tot.redistribution_cost(st_tot)
