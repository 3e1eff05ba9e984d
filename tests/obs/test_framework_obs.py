"""Framework integration: span anatomy, unit-mixing regressions, metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CostModel, LoadBalancedAdaptiveSolver
from repro.core.reassign import reassignment_time
from repro.mesh import box_mesh, edge_midpoints
from repro.obs import Tracer, phase_virtual_times, use_tracer
from repro.parallel import MachineModel

from tests.fixtures import causal_nodes, metric_value

CHEAP_MACHINE = MachineModel(t_setup=1e-5, t_word=1e-7, t_work=1e-6)

LEAF_PHASES = ("marking", "repartition", "gather_scatter", "reassign",
               "remap", "subdivision")


def corner_error(mesh):
    mid = edge_midpoints(mesh.coords, mesh.edges)
    return 1.0 / (0.05 + np.linalg.norm(mid, axis=1))


def make_solver(nproc=4, **kw):
    m = box_mesh(3, 3, 3)
    return LoadBalancedAdaptiveSolver(
        m, nproc, machine=CHEAP_MACHINE,
        cost_model=CostModel(machine=CHEAP_MACHINE), **kw
    )


def run_one(nproc=4, refine_frac=0.15, **kw):
    s = make_solver(nproc, **kw)
    return s, s.adapt_step(edge_error=corner_error(s.adaptive.mesh),
                           refine_frac=refine_frac)


# --- span anatomy ------------------------------------------------------------


def test_step_records_span_tree():
    _, rep = run_one()
    assert rep.accepted
    root = rep.spans[0]
    assert root.name == "adapt_step" and root.parent is None
    names = {s.name for s in rep.spans}
    assert {"marking", "balance", "evaluate", "repartition", "gather_scatter",
            "reassign", "decide", "remap", "subdivision"} <= names
    # balance children hang off the balance span
    balance = next(s for s in rep.spans if s.name == "balance")
    remap = next(s for s in rep.spans if s.name == "remap")
    assert remap.parent == balance.index
    assert balance.depth == remap.depth - 1


def test_phase_times_match_report_fields():
    _, rep = run_one()
    phases = rep.phase_times()
    assert phases["marking"] == pytest.approx(rep.marking_time)
    assert phases["subdivision"] == pytest.approx(rep.subdivision_time)
    assert phases["repartition"] == pytest.approx(rep.partition_time)
    assert phases["gather_scatter"] == pytest.approx(rep.gather_scatter_time)
    assert phases["reassign"] == pytest.approx(rep.reassign_time)
    assert phases["remap"] == pytest.approx(rep.remap_time)


def test_explicit_tracer_receives_step_spans_and_counters():
    tr = Tracer()
    s = make_solver(4)
    with use_tracer(tr):
        rep = s.adapt_step(edge_error=corner_error(s.adaptive.mesh),
                           refine_frac=0.15)
    assert rep.spans and rep.spans[0] in tr.spans
    reg = tr.metrics
    assert metric_value(reg, "repro.adapt.marked_edges", cycle=0) > 0
    # repartitioning was triggered: its quality was sampled before/after
    assert metric_value(reg, "repro.partition.imbalance", {"when": "before"},
                        cycle=0) is not None
    assert metric_value(reg, "repro.cycle.imbalance", {"when": "after"},
                        cycle=0) == rep.imbalance_after
    assert metric_value(reg, "repro.cycle.accepted", cycle=0) == float(rep.accepted)
    if rep.accepted:
        assert reg.total("repro.remap.elements_moved") == \
            rep.remap.elements_moved
        assert reg.total("repro.remap.words_moved") == rep.remap.words_moved
        # the remap's VM schedule is the causal record, under one marker
        assert {"send", "recv"} <= {n.kind for n in causal_nodes(tr)}
        assert [e.name for e in tr.events].count("vm.run") == 1
        assert reg.total("repro.vm.words_sent") == rep.remap.words_moved


def test_ambient_tracer_used_when_none_passed():
    tr = Tracer()
    with use_tracer(tr):
        _, rep = run_one()
    assert rep.spans[0] in tr.spans


def test_consecutive_steps_share_one_virtual_timeline():
    tr = Tracer()
    s = make_solver(4)
    with use_tracer(tr):
        for _ in range(2):
            s.adapt_step(edge_error=corner_error(s.adaptive.mesh),
                         refine_frac=0.1)
    roots = [sp for sp in tr.spans if sp.name == "adapt_step"]
    assert len(roots) == 2
    assert roots[1].v_start == pytest.approx(roots[0].v_end)


# --- regression: no wall-clock/virtual-time mixing ---------------------------


def test_reassign_time_is_modelled_not_wall_clock():
    """Two identical runs must report bit-identical reassignment time —
    impossible if the field still held host ``perf_counter`` deltas."""
    _, rep_a = run_one(seed=0)
    _, rep_b = run_one(seed=0)
    assert rep_a.repartition_triggered
    assert rep_a.reassign_time == rep_b.reassign_time
    assert rep_a.total_time == rep_b.total_time
    # and the value is exactly what the §4.4 model prices
    gs = next(s for s in rep_a.spans if s.name == "gather_scatter")
    expected = reassignment_time(gs.attrs["entries"], 4, CHEAP_MACHINE)
    assert rep_a.reassign_time == pytest.approx(expected)


def test_measured_wall_time_kept_in_separate_field():
    _, rep = run_one()
    assert rep.repartition_triggered
    assert rep.reassign_wall_seconds > 0.0
    # the wall measurement must not be a component of the virtual total
    components = (rep.marking_time + rep.subdivision_time
                  + rep.partition_time + rep.gather_scatter_time
                  + rep.reassign_time + rep.remap_time)
    assert rep.total_time == pytest.approx(components)


def test_total_time_includes_gather_scatter():
    _, rep = run_one()
    assert rep.accepted
    assert rep.gather_scatter_time > 0.0
    without = (rep.adaption_time + rep.partition_time + rep.reassign_time
               + rep.remap_time)
    assert rep.total_time == pytest.approx(without + rep.gather_scatter_time)


def test_skipped_balance_reports_zero_balance_phases():
    s = make_solver(4)
    rep = s.adapt_step(edge_mask=np.ones(s.adaptive.mesh.nedges, dtype=bool))
    assert not rep.repartition_triggered
    assert rep.reassign_time == 0.0
    assert rep.reassign_wall_seconds == 0.0
    assert rep.total_time == pytest.approx(rep.adaption_time)


# --- property: spans are the authoritative anatomy ---------------------------


@given(
    nproc=st.sampled_from([1, 2, 4, 6]),
    refine_frac=st.floats(0.05, 0.4),
    remap_when=st.sampled_from(["before", "after"]),
    seed=st.integers(0, 5),
)
@settings(max_examples=12, deadline=None)
def test_leaf_span_durations_sum_to_total_time(
    nproc, refine_frac, remap_when, seed
):
    s = make_solver(nproc, remap_when=remap_when, seed=seed)
    rep = s.adapt_step(edge_error=corner_error(s.adaptive.mesh),
                       refine_frac=refine_frac)
    phases = phase_virtual_times(rep.spans)
    leaf_sum = sum(phases.get(name, 0.0) for name in LEAF_PHASES)
    assert leaf_sum == pytest.approx(rep.total_time, rel=1e-12, abs=1e-15)
    root = rep.spans[0]
    assert root.v_duration == pytest.approx(rep.total_time, rel=1e-12,
                                            abs=1e-15)
    # wall clocks are plausible too: no span runs backwards, and the root
    # covers the sum of its direct children
    for sp in rep.spans:
        assert sp.wall_end >= sp.wall_start
    child_wall = sum(
        sp.wall_duration for sp in rep.spans if sp.parent == root.index
    )
    assert child_wall <= root.wall_duration + 1e-9
