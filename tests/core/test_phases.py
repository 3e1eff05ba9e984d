"""The cycle's phase programs at their edge cases.

Each case runs one traced ``adapt_step``: nothing may deadlock, and every
VM run of the step must pass ``verify_makespans`` (critical path ==
makespan, bit for bit).
"""

import numpy as np

from repro.core import LoadBalancedAdaptiveSolver
from repro.mesh import box_mesh
from repro.obs import Tracer, runs_from_tracer, use_tracer, verify_makespans

from tests.fixtures import COLLECTIVE_TAGS, payload


def traced_step(solver, mask):
    tracer = Tracer()
    with use_tracer(tracer):
        report = solver.adapt_step(edge_mask=mask)
    assert verify_makespans(tracer) == len(runs_from_tracer(tracer))
    return report, tracer


def test_one_rank_sends_no_payload():
    mesh = box_mesh(3, 3, 3)
    mask = np.random.default_rng(0).random(mesh.nedges) < 0.1
    report, tracer = traced_step(LoadBalancedAdaptiveSolver(mesh, 1), mask)
    assert report.marking.iterations > 1  # propagation had rounds to price
    assert payload(tracer, "marking") == (0, 0)
    assert {run.phase for run in runs_from_tracer(tracer)} == {
        "marking", "subdivision"}
    assert report.marking_time > 0 and report.subdivision_time > 0


def test_a_rank_that_owns_no_element():
    mesh = box_mesh(3, 3, 3)
    solver = LoadBalancedAdaptiveSolver(mesh, 4, imbalance_threshold=1.0)
    solver.part[solver.part == 3] = 0  # rank 3 owns nothing
    mask = np.random.default_rng(1).random(mesh.nedges) < 0.15
    report, tracer = traced_step(solver, mask)
    marking = next(run for run in runs_from_tracer(tracer)
                   if run.phase == "marking")
    # the empty rank only joins each round's allreduce
    assert not [m for m in marking.msgs
                if 3 in (m.src, m.dst) and m.tag < COLLECTIVE_TAGS]
    assert payload(tracer, "marking")[0] > 0
    assert report.accepted


def test_shared_edges_never_newly_marked():
    mesh = box_mesh(3, 3, 3)
    mask = np.ones(mesh.nedges, dtype=bool)  # every edge marked at round 0
    report, tracer = traced_step(LoadBalancedAdaptiveSolver(mesh, 4), mask)
    assert report.marking.iterations == 1
    assert payload(tracer, "marking") == (0, 0)
