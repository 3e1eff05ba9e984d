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

    # MaxV's bottleneck pair never exceeds TotalV's for the same
    # assignment, so the cost model's TotalV price bounds a MaxV one
    for st in (st_tot, st_max):
        assert st.c_max <= st.c_total
        assert st.n_max <= st.n_total
    assert CostModel(machine=SP2_1997).redistribution_cost(st_tot) > 0
