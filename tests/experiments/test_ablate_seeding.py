"""Ablation — seeded repartitioning vs partitioning from scratch.

Paper §4.2: parallel MeTiS "uses the previous partition as the initial
guess for the repartitioning", reducing remapping cost.  The test
measures exactly that: with the same new weights, the seeded repartitioner
must move far fewer dual-graph vertices than a fresh partition, while
achieving comparable balance.

Movement is counted after the label agreement the framework applies to
every new partition (the processor reassignment: here the assignment
that keeps the most vertices in place).  Comparing raw labels would
charge the fresh partition for naming its parts differently — most of
what it "moves" — and make the result hinge on how two unrelated
bisection trees happen to number their leaves.  Three processor counts,
so that the verdict does not hinge on one of them; at P = 16 and 32 the
seeded repartition diffuses on the fine graph.
"""

import numpy as np
from scipy.optimize import linear_sum_assignment

from repro.partition.multilevel import multilevel_kway
from repro.partition.quality import imbalance
from repro.partition.repartition import repartition


def _weighted_dual(case):
    from repro.adapt.adaptor import AdaptiveMesh
    from repro.core.dualgraph import DualGraph

    am = AdaptiveMesh(case.mesh)
    marking = am.mark(edge_mask=case.marking_mask("Real_2"))
    wcomp_pred, _ = am.predicted_weights(marking)
    dual = DualGraph(case.mesh)
    return dual.graph.with_vwgt(wcomp_pred), dual


def _moved(old, new, p):
    """Vertices that change processor once ``new``'s parts are assigned
    to processors for maximum agreement with ``old``."""
    overlap = np.zeros((p, p), dtype=np.int64)
    np.add.at(overlap, (new, old), 1)
    rows, cols = linear_sum_assignment(overlap, maximize=True)
    return int(old.size - overlap[rows, cols].sum())


def test_seeding_reduces_movement(case):
    g, dual = _weighted_dual(case)
    total_seeded = total_fresh = 0
    for p in (8, 16, 32):
        old = multilevel_kway(dual.graph, p, seed=0)

        seeded = repartition(g, p, old, seed=1)
        fresh = multilevel_kway(g, p, seed=1)

        moved_seeded = _moved(old, seeded, p)
        moved_fresh = _moved(old, fresh, p)
        print(
            f"\n  P = {p}: moved (seeded) = {moved_seeded}/{g.n}, "
            f"moved (fresh) = {moved_fresh}/{g.n}; "
            f"imbalance: old={imbalance(g, old, p):.3f} "
            f"seeded={imbalance(g, seeded, p):.3f} fresh={imbalance(g, fresh, p):.3f}"
        )

        assert moved_seeded < moved_fresh
        # seeded balance comparable to fresh (within the refiner's tolerance)
        assert imbalance(g, seeded, p) <= max(1.10, 1.3 * imbalance(g, fresh, p))
        # and better than doing nothing
        assert imbalance(g, seeded, p) < imbalance(g, old, p)
        total_seeded += moved_seeded
        total_fresh += moved_fresh
    # the saving is substantial: a quarter of the movement at least
    assert total_seeded < 0.75 * total_fresh
