"""Table 2 — processor reassignment: optimal MWBG vs heuristic MWBG vs
optimal BMCM on the Real_2 strategy.

Paper findings the test asserts:
* the heuristic's total movement is within a few % of optimal MWBG
  ("the reduction in the amount of total data movement is insignificant");
* BMCM's *total* movement is larger (it optimises the bottleneck instead);
* BMCM's bottleneck (MaxV) is no worse than either MWBG solution's.

The paper's third finding — the heuristic solves faster than optimal
MWBG, which solves faster than BMCM — is about host seconds, which a
test cannot hold: the measured times are printed here and by
``repro report``, not asserted.
"""

import numpy as np

from repro.core.reassign import heuristic_mwbg, optimal_bmcm, optimal_mwbg
from repro.core.metrics import remap_stats
from repro.experiments.report import format_table2
from repro.experiments.table2 import mapper_comparison


def _similarity_at_64(case):
    from repro.adapt.adaptor import AdaptiveMesh
    from repro.core.dualgraph import DualGraph
    from repro.core.similarity import similarity_matrix
    from repro.partition.multilevel import multilevel_kway
    from repro.partition.repartition import repartition

    am = AdaptiveMesh(case.mesh)
    marking = am.mark(edge_mask=case.marking_mask("Real_2"))
    wcomp_pred, _ = am.predicted_weights(marking)
    dual = DualGraph(case.mesh)
    old = multilevel_kway(dual.graph, 64, seed=0)
    new = repartition(dual.graph.with_vwgt(wcomp_pred), 64, old, seed=0)
    return similarity_matrix(old, new, am.wremap(), 64)


def test_table2_rows(case):
    rows = mapper_comparison(case)
    print("\n" + format_table2(rows))

    by = {(r.nproc, r.method): r for r in rows}
    procs = sorted({r.nproc for r in rows})
    for p in procs:
        opt, heu, bmc = by[p, "OptMWBG"], by[p, "HeuMWBG"], by[p, "OptBMCM"]
        # TotalV optimality ordering, heuristic within 2x (Corollary)
        assert opt.total_elems <= heu.total_elems
        if opt.total_elems > 0:
            assert heu.total_elems <= 2 * opt.total_elems
            # in practice, nearly identical (paper: "insignificant")
            assert heu.total_elems <= 1.15 * opt.total_elems
        # BMCM trades total volume for the bottleneck
        assert bmc.total_elems >= opt.total_elems
        # MaxV optimality: BMCM's bottleneck no worse than the others'
        assert bmc.max_sent_recv <= opt.max_sent_recv
        assert bmc.max_sent_recv <= heu.max_sent_recv


def test_bmcm_bottleneck_optimality_on_instance(case):
    """The BMCM solve is exact: no permutation has a smaller bottleneck."""
    S = _similarity_at_64(case)
    assignment = optimal_bmcm(S)
    st = remap_stats(S, assignment)
    # spot-check optimality against the MWBG assignments
    for other in (optimal_mwbg(S), heuristic_mwbg(S)):
        assert st.c_max <= remap_stats(S, other).c_max
    # bottleneck cost is bounded by the heaviest row/col sums
    assert st.c_max <= max(int(S.sum(axis=1).max()), int(S.sum(axis=0).max()))
    assert np.array_equal(np.sort(assignment), np.arange(S.shape[0]))
