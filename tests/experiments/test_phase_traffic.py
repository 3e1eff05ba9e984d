"""The traffic of the cycle's marking and §4.3 gather/scatter, pinned.

For every resolution-6 sweep cell: the payload messages and words of
the marking phase's SPL exchange and of the host gather/scatter.  The
table was recorded from the bulk-synchronous per-round charging these
phases were priced with before they ran as rank programs; the rank
programs must carry exactly the same traffic, so only their clocks
moved.  Payload is the traffic on the programs' own tags: the
``allreduce`` that ends each marking round travels on the collective
tags and is synchronisation, not data.

The cells run once more under a tracer here (``run_step``'s memo keeps
no causal record); regenerate, only when the traffic is meant to move,
with

    PYTHONPATH=src python -m tests.experiments.test_phase_traffic
"""

from functools import lru_cache

from repro.core import CostModel, LoadBalancedAdaptiveSolver
from repro.experiments import CASE_NAMES, SWEEP_PROCS, case_for, run_step
from repro.obs import Tracer, runs_from_tracer, use_tracer, verify_makespans
from repro.parallel import SP2_1997

from tests.fixtures import payload

RESOLUTION = 6

#: (strategy, remap order, P) -> (marking messages, marking words,
#: gather/scatter messages, gather/scatter words)
PINNED = {
    ('Real_1', 'after', 1): (0, 0, 0, 0),
    ('Real_1', 'after', 2): (6, 24, 2, 4),
    ('Real_1', 'after', 4): (24, 68, 6, 24),
    ('Real_1', 'after', 8): (36, 92, 14, 112),
    ('Real_1', 'after', 16): (74, 154, 30, 480),
    ('Real_1', 'after', 32): (110, 204, 62, 1984),
    ('Real_1', 'after', 64): (208, 306, 126, 8064),
    ('Real_1', 'before', 1): (0, 0, 0, 0),
    ('Real_1', 'before', 2): (6, 24, 2, 4),
    ('Real_1', 'before', 4): (24, 68, 6, 24),
    ('Real_1', 'before', 8): (36, 92, 14, 112),
    ('Real_1', 'before', 16): (74, 154, 30, 480),
    ('Real_1', 'before', 32): (110, 204, 62, 1984),
    ('Real_1', 'before', 64): (208, 306, 126, 8064),
    ('Real_2', 'after', 1): (0, 0, 0, 0),
    ('Real_2', 'after', 2): (0, 0, 2, 4),
    ('Real_2', 'after', 4): (2, 2, 6, 24),
    ('Real_2', 'after', 8): (4, 4, 14, 112),
    ('Real_2', 'after', 16): (12, 14, 30, 480),
    ('Real_2', 'after', 32): (18, 22, 62, 1984),
    ('Real_2', 'after', 64): (18, 24, 126, 8064),
    ('Real_2', 'before', 1): (0, 0, 0, 0),
    ('Real_2', 'before', 2): (0, 0, 2, 4),
    ('Real_2', 'before', 4): (2, 2, 6, 24),
    ('Real_2', 'before', 8): (4, 4, 14, 112),
    ('Real_2', 'before', 16): (12, 14, 30, 480),
    ('Real_2', 'before', 32): (18, 22, 62, 1984),
    ('Real_2', 'before', 64): (18, 24, 126, 8064),
    ('Real_3', 'after', 1): (0, 0, 0, 0),
    ('Real_3', 'after', 2): (0, 0, 2, 4),
    ('Real_3', 'after', 4): (2, 2, 6, 24),
    ('Real_3', 'after', 8): (2, 4, 14, 112),
    ('Real_3', 'after', 16): (6, 12, 30, 480),
    ('Real_3', 'after', 32): (10, 12, 62, 1984),
    ('Real_3', 'after', 64): (26, 28, 126, 8064),
    ('Real_3', 'before', 1): (0, 0, 0, 0),
    ('Real_3', 'before', 2): (0, 0, 2, 4),
    ('Real_3', 'before', 4): (2, 2, 6, 24),
    ('Real_3', 'before', 8): (2, 4, 14, 112),
    ('Real_3', 'before', 16): (6, 12, 30, 480),
    ('Real_3', 'before', 32): (10, 12, 62, 1984),
    ('Real_3', 'before', 64): (26, 28, 126, 8064),
}


@lru_cache(maxsize=None)
def _traced_cell(name, mode, p):
    case = case_for(RESOLUTION)
    solver = LoadBalancedAdaptiveSolver(
        case.mesh, p, machine=SP2_1997, cost_model=CostModel(machine=SP2_1997),
        remap_when=mode, imbalance_threshold=1.0,
    )
    tracer = Tracer()
    with use_tracer(tracer):
        solver.adapt_step(edge_mask=case.marking_mask(name))
    return tracer


@lru_cache(maxsize=None)
def _computed():
    rows = {}
    for name in CASE_NAMES:
        for mode in ("after", "before"):
            for p in SWEEP_PROCS:
                tracer = _traced_cell(name, mode, p)
                rows[name, mode, p] = (*payload(tracer, "marking"),
                                       *payload(tracer, "gather_scatter"))
    return rows


def test_phase_traffic_matches_the_pinned_table():
    got = _computed()
    assert set(got) == set(PINNED)
    moved = [f"{key}: got {got[key]}, pinned {PINNED[key]}"
             for key in sorted(PINNED) if got[key] != PINNED[key]]
    assert not moved, f"{len(moved)} cells moved, first {moved[0]}"



def test_every_vm_run_of_a_traced_cycle_verifies():
    """Each cycle's marking, gather/scatter, remap and subdivision runs:
    critical path == makespan bit for bit, a zero-slack rank, at P = 1,
    2, 16 and 64."""
    for p in (1, 2, 16, 64):
        for mode in ("after", "before"):
            tracer = _traced_cell("Real_2", mode, p)
            phases = [run.phase for run in runs_from_tracer(tracer)]
            assert verify_makespans(tracer) == len(phases)
            accepted = run_step(RESOLUTION, "Real_2", mode, p).accepted
            expect = ["marking", "gather_scatter", "remap", "subdivision"]
            if p == 1:
                expect.remove("gather_scatter")
            if not accepted:
                expect.remove("remap")
            assert sorted(phases) == sorted(expect), (p, mode, phases)


if __name__ == "__main__":
    print("PINNED = {")
    for key, row in sorted(_computed().items()):
        print(f"    {key!r}: {row!r},")
    print("}")
