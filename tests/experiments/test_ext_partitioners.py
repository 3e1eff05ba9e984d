"""Extension — partitioner comparison on the rotor dual graph.

Paper §4.2: "A good partitioner should minimize the total execution time
by balancing the computational loads and reducing the interprocessor
communication time ... any partitioning algorithm could be used, as long
as it is fast, and delivers reasonably balanced partitions."

The test compares the multilevel method against the classic alternatives
(RCB, random, index blocks) on edge cut, communication
volume, and balance — multilevel must dominate random/blocks on cut while
staying balanced, matching why the paper reaches for a MeTiS-family
partitioner.
"""

import numpy as np

from repro.core.dualgraph import DualGraph
from repro.partition import (
    block_partition,
    comm_volume,
    edgecut,
    imbalance,
    multilevel_kway,
    random_partition,
    rcb_partition,
)


def test_partitioner_comparison(case):
    dual = DualGraph(case.mesh)
    g = dual.comp_graph()
    cent = case.mesh.coords[case.mesh.elems].mean(axis=1)
    k = 8

    results = {}
    results["multilevel"] = multilevel_kway(g, k, seed=0)
    results["rcb"] = rcb_partition(cent, g.vwgt.astype(float), k)
    results["random"] = random_partition(g, k, seed=0)
    results["blocks"] = block_partition(g, k)

    print("\n  method      edgecut  commvol  imbalance")
    rows = {}
    for name, part in results.items():
        rows[name] = (edgecut(g, part), comm_volume(g, part, k),
                      imbalance(g, part, k))
        print(f"  {name:10s} {rows[name][0]:8d} {rows[name][1]:8d} "
              f"{rows[name][2]:10.3f}")

    # multilevel: balanced, and competitive with the best method on this
    # graph (on a structured box domain RCB's axis-aligned cuts are
    # near-optimal, so "within a small factor" is the honest claim; the
    # graph method's real edge — low-movement seeded repartitioning under
    # adapted weights — is measured in test_ablate_seeding)
    assert rows["multilevel"][2] <= 1.1
    assert rows["rcb"][2] <= 1.1
    assert rows["multilevel"][0] <= 1.4 * rows["rcb"][0]
    assert rows["multilevel"][0] < rows["blocks"][0]
    # random: terrible cut (the locality penalty the paper avoids)
    assert rows["random"][0] > 3 * rows["multilevel"][0]
    # comm volume tracks the cut ordering for multilevel vs random
    assert rows["multilevel"][1] < rows["random"][1]
