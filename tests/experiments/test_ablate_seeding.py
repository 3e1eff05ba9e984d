"""Ablation — seeded repartitioning vs partitioning from scratch.

Paper §4.2: parallel MeTiS "uses the previous partition as the initial
guess for the repartitioning", reducing remapping cost.  The test
measures exactly that: with the same new weights, the seeded repartitioner
must move far fewer dual-graph vertices than a fresh partition, while
achieving comparable balance.
"""

import numpy as np

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


def test_seeding_reduces_movement(case):
    g, dual = _weighted_dual(case)
    p = 16
    old = multilevel_kway(dual.comp_graph(), p, seed=0)

    seeded = repartition(g, p, old, seed=1)
    fresh = multilevel_kway(g, p, seed=1)

    moved_seeded = int((seeded != old).sum())
    moved_fresh = int((fresh != old).sum())
    print(
        f"\n  moved (seeded) = {moved_seeded}/{g.n}"
        f"\n  moved (fresh)  = {moved_fresh}/{g.n}"
        f"\n  imbalance: old={imbalance(g, old, p):.3f} "
        f"seeded={imbalance(g, seeded, p):.3f} fresh={imbalance(g, fresh, p):.3f}"
    )

    assert moved_seeded < moved_fresh
    assert moved_seeded < 0.5 * moved_fresh  # the saving is substantial
    # seeded balance comparable to fresh (within the refiner's tolerance)
    assert imbalance(g, seeded, p) <= max(1.10, 1.3 * imbalance(g, fresh, p))
    # and better than doing nothing
    assert imbalance(g, seeded, p) < imbalance(g, old, p)
