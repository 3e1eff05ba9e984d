"""Extension — cross-validation of the two ways the adaption phases run.

The cycle prices marking and subdivision with rank programs derived from
the global mesh (:mod:`repro.core.phases`: a round's work and SPL
exchange from the round each edge was first marked in, the children per
rank), while ``repro.dist`` executes the same phases on distributed local
meshes, doing the real upgrade sweeps and subdivisions inside the rank
programs.  Both run on the one virtual machine, so they must tell the
same story: same machine model, same work, times that agree in trend and
stay within a small factor of each other (``repro.dist`` pads every SPL
message to at least one word and ends each subdivision with a barrier
and a face-classification exchange).
"""

import numpy as np

from repro.adapt.marking import propagate_markings
from repro.core.phases import price_marking, price_subdivision
from repro.dist import decompose, parallel_mark
from repro.dist.refine_exec import parallel_refine
from repro.parallel import SP2_1997
from repro.partition import Graph, multilevel_kway


def _setup(case, nproc):
    mesh = case.mesh
    g = Graph.from_pairs(mesh.dual_pairs, mesh.ne)
    part = multilevel_kway(g, nproc, seed=0)
    locals_ = decompose(mesh, part, nproc)
    marks = case.marking_mask("Real_2")
    return mesh, part, locals_, marks


def test_marking_times_agree(case):
    mesh, part, locals_, marks = _setup(case, 8)

    serial = propagate_markings(mesh, marks)
    t_cycle = price_marking(mesh, part, serial, 8, SP2_1997).makespan

    dist_result = parallel_mark(mesh, locals_, marks)
    t_dist = dist_result.time_seconds

    print(f"\n  marking: cycle {t_cycle * 1e3:.2f} ms, "
          f"dist {t_dist * 1e3:.2f} ms (ratio {t_dist / t_cycle:.2f})")
    assert np.array_equal(dist_result.edge_marked, serial.edge_marked)
    assert dist_result.iterations == serial.iterations
    # the two paths agree within an order of magnitude
    assert 0.1 < t_dist / t_cycle < 10.0


def test_both_paths_show_subdivision_imbalance(case):
    """The skewed-vs-balanced subdivision-time gap must appear in both
    paths, with a comparable magnitude ratio."""
    mesh = case.mesh
    marking = propagate_markings(mesh, case.marking_mask("Real_1"))
    cent = mesh.coords[mesh.elems].mean(axis=1)

    from repro.adapt.refine import subdivide
    from repro.core.evaluate import load_imbalance

    # balanced-by-count partition (multilevel, unit weights) vs one aligned
    # with the feature
    part_bal = multilevel_kway(Graph.from_pairs(mesh.dual_pairs, mesh.ne), 4, seed=0)
    d = case.blade.distance(cent)
    part_skew = np.clip((d * 4 / d.max()).astype(np.int64), 0, 3)

    ratios = {}
    # the cycle's program
    child_count = subdivide(mesh, marking).child_count
    t = {}
    for label, part in (("balanced", part_bal), ("skewed", part_skew)):
        t[label] = price_subdivision(part, child_count, 4, SP2_1997).makespan
    ratios["cycle"] = t["skewed"] / t["balanced"]
    # the distributed subdivision
    t = {}
    for label, part in (("balanced", part_bal), ("skewed", part_skew)):
        locals_ = decompose(mesh, part, 4)
        t[label] = parallel_refine(mesh, locals_, marking).time_seconds
    ratios["dist"] = t["skewed"] / t["balanced"]

    print(f"\n  skew/balance subdivision-time ratio: "
          f"cycle {ratios['cycle']:.2f}, dist {ratios['dist']:.2f}")
    # the skewed mapping concentrates children on few ranks -> slower
    # on BOTH paths; sanity-check the skew premise first
    from repro.adapt.patterns import NUM_CHILDREN

    w = NUM_CHILDREN[marking.patterns].astype(np.float64)
    assert load_imbalance(w, part_skew, 4) > load_imbalance(w, part_bal, 4)
    assert ratios["cycle"] > 1.1
    assert ratios["dist"] > 1.1
    # and the two paths agree on the size of the effect within 3x
    assert 1 / 3 < ratios["dist"] / ratios["cycle"] < 3.0
