"""Extension — cross-validation of the two virtual-timing paths.

The framework times the marking/subdivision phases with the BSP cost
ledger (vectorized accounting), while ``repro.dist`` executes the same
phases as event-driven SPMD rank programs on the virtual machine.  Both
must tell the same story: same machine model, same work, so the measured
times should agree in trend and stay within a small factor of each other
(the VM resolves message timing exactly; the ledger batches per
superstep).
"""

import numpy as np

from repro.adapt.marking import propagate_markings
from repro.dist import decompose, parallel_mark
from repro.dist.refine_exec import parallel_refine
from repro.parallel import CostLedger, SP2_1997
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

    ledger = CostLedger(8, SP2_1997)
    serial = propagate_markings(mesh, marks, part=part, ledger=ledger)
    t_ledger = ledger.elapsed

    vm_result = parallel_mark(mesh, locals_, marks)
    t_vm = vm_result.time_seconds

    print(f"\n  marking: ledger {t_ledger * 1e3:.2f} ms, "
          f"VM {t_vm * 1e3:.2f} ms (ratio {t_vm / t_ledger:.2f})")
    assert np.array_equal(vm_result.edge_marked, serial.edge_marked)
    # the two paths agree within an order of magnitude
    assert 0.1 < t_vm / t_ledger < 10.0


def test_both_paths_show_subdivision_imbalance(case):
    """The skewed-vs-balanced subdivision-time gap must appear in both
    timing paths, with a comparable magnitude ratio."""
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
    # ledger path
    t = {}
    for label, part in (("balanced", part_bal), ("skewed", part_skew)):
        ledger = CostLedger(4, SP2_1997)
        subdivide(mesh, marking, part=part, ledger=ledger)
        t[label] = ledger.elapsed
    ratios["ledger"] = t["skewed"] / t["balanced"]
    # VM path
    t = {}
    for label, part in (("balanced", part_bal), ("skewed", part_skew)):
        locals_ = decompose(mesh, part, 4)
        t[label] = parallel_refine(mesh, locals_, marking).time_seconds
    ratios["vm"] = t["skewed"] / t["balanced"]

    print(f"\n  skew/balance subdivision-time ratio: "
          f"ledger {ratios['ledger']:.2f}, VM {ratios['vm']:.2f}")
    # the skewed mapping concentrates children on few ranks -> slower
    # under BOTH timing paths; sanity-check the skew premise first
    from repro.adapt.patterns import NUM_CHILDREN

    w = NUM_CHILDREN[marking.patterns].astype(np.float64)
    assert load_imbalance(w, part_skew, 4) > load_imbalance(w, part_bal, 4)
    assert ratios["ledger"] > 1.1
    assert ratios["vm"] > 1.1
    # and the two paths agree on the size of the effect within 3x
    assert 1 / 3 < ratios["vm"] / ratios["ledger"] < 3.0
