"""Extension — the combined TotalV+MaxV objective (paper §4.4 future work).

"In general, the objective function may need to use a combination of both
metrics to effectively incorporate all related costs.  This issue will be
addressed in future work."

The test sweeps the mixing weight λ and checks the trade-off is real and
monotone at the ends: λ=0 recovers the TotalV optimum, λ=1 the MaxV
optimum, and intermediate λ interpolate (C_total non-decreasing in λ,
C_max non-increasing), with the combined cost never worse than either
endpoint assignment.
"""

import numpy as np

from repro.core.combined import combined_cost, combined_reassign
from repro.core.metrics import remap_stats
from repro.core.reassign import optimal_bmcm, optimal_mwbg


def _similarity(case, p=24):
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


def test_lambda_sweep(case):
    S = _similarity(case)

    lams = [0.0, 0.25, 0.5, 0.75, 1.0]
    rows = []
    for lam in lams:
        m = combined_reassign(S, lam=lam)
        st = remap_stats(S, m)
        rows.append((lam, st.c_total, st.c_max))
    print("\n  lambda  C_total   C_max")
    for lam, ct, cm in rows:
        print(f"  {lam:6.2f}  {ct:7d}  {cm:6d}")

    # endpoints match the exact single-metric optima
    st0 = remap_stats(S, optimal_mwbg(S))
    st1 = remap_stats(S, optimal_bmcm(S))
    assert rows[0][1] == st0.c_total
    assert rows[-1][2] == st1.c_max
    # the combined solution is never worse than either endpoint under J
    for lam in (0.25, 0.5, 0.75):
        m = combined_reassign(S, lam=lam)
        j = combined_cost(S, m, lam)
        assert j <= combined_cost(S, optimal_mwbg(S), lam) + 1e-9
        assert j <= combined_cost(S, optimal_bmcm(S), lam) + 1e-9
    # trade-off direction across the sweep
    assert rows[0][1] <= rows[-1][1]  # C_total grows toward the MaxV end
    assert rows[-1][2] <= rows[0][2]  # C_max shrinks toward the MaxV end


def test_tradeoff_on_adversarial_instance():
    """The seeded repartitioner keeps S diagonal-heavy, which often makes
    one assignment optimal for both metrics; a scattered S (e.g. after a
    fresh partition with no seeding) exposes the genuine trade."""
    rng = np.random.default_rng(5)
    S = rng.integers(0, 60, size=(10, 10)).astype(np.int64)
    st_tot = remap_stats(S, combined_reassign(S, lam=0.0))
    st_max = remap_stats(S, combined_reassign(S, lam=1.0))
    print(f"\n  adversarial: TotalV-opt (C_total={st_tot.c_total}, "
          f"C_max={st_tot.c_max})  MaxV-opt (C_total={st_max.c_total}, "
          f"C_max={st_max.c_max})")
    assert st_tot.c_total <= st_max.c_total
    assert st_max.c_max <= st_tot.c_max
    # the two metrics genuinely disagree on this instance
    assert st_tot.c_total < st_max.c_total or st_max.c_max < st_tot.c_max
