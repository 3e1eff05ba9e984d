"""Run reports render the recorded metrics without recomputing them."""

import math
import re

import numpy as np
import pytest

from repro.core import CostModel, LoadBalancedAdaptiveSolver
from repro.mesh import box_mesh, edge_midpoints
from repro.obs import (
    Tracer,
    export_jsonl,
    read_jsonl,
    render_ascii,
    render_html,
    use_tracer,
)
from repro.obs.report import _fmt
from repro.parallel import MachineModel
from repro.partition import quality as pq

from tests.fixtures import metric_value

CHEAP = MachineModel(t_setup=1e-5, t_word=1e-7, t_work=1e-6)
NPROC = 4
REFINE_FRAC = 0.15


def corner_error(mesh):
    mid = edge_midpoints(mesh.coords, mesh.edges)
    return 1.0 / (0.05 + np.linalg.norm(mid, axis=1))


def make_solver(**kw):
    return LoadBalancedAdaptiveSolver(
        box_mesh(3, 3, 3), NPROC, machine=CHEAP,
        cost_model=CostModel(machine=CHEAP), **kw
    )


@pytest.fixture(scope="module")
def traced_step():
    tracer = Tracer()
    solver = make_solver()
    with use_tracer(tracer):
        report = solver.adapt_step(
            edge_error=corner_error(solver.adaptive.mesh),
            refine_frac=REFINE_FRAC,
        )
    assert report.accepted  # the workload must exercise the whole cycle
    return solver, report, tracer


def test_partition_quality_metrics_match_direct_computation(traced_step):
    """The dashboard's 'before' quality row is exactly what
    repro.partition.quality reports on the pre-balance graph."""
    _, _, tracer = traced_step
    # replicate the pre-balance state on an identical twin solver: same
    # deterministic mesh, marking, and predicted weights
    twin = make_solver()
    part0 = twin.part.copy()
    marking = twin.adaptive.mark(
        edge_error=corner_error(twin.adaptive.mesh),
        refine_frac=REFINE_FRAC,
    )
    wcomp_pred, _ = twin.adaptive.predicted_weights(marking)
    graph = twin.dual.graph.with_vwgt(np.asarray(wcomp_pred, dtype=np.int64))

    reg = tracer.metrics
    assert metric_value(reg, "repro.partition.imbalance", {"when": "before"},
                        cycle=0) == pq.imbalance(graph, part0, NPROC)
    assert metric_value(reg, "repro.partition.edgecut", {"when": "before"},
                        cycle=0) == float(pq.edgecut(graph, part0))


def test_phase_seconds_metrics_equal_report_exactly(traced_step):
    _, report, tracer = traced_step
    reg = tracer.metrics
    for phase, seconds in report.phase_times().items():
        assert metric_value(reg, "repro.cycle.phase_seconds", {"phase": phase},
                            cycle=0) == seconds  # exact: no virtual drift allowed
    assert metric_value(reg, "repro.cycle.total_seconds", cycle=0) == report.total_time
    assert metric_value(reg, "repro.cycle.imbalance", {"when": "before"},
                        cycle=0) == report.imbalance_before
    assert metric_value(reg, "repro.cycle.imbalance", {"when": "after"},
                        cycle=0) == report.imbalance_after


def test_remap_and_reassign_metrics_match_execution(traced_step):
    _, report, tracer = traced_step
    reg = tracer.metrics
    assert metric_value(reg, "repro.remap.elements_moved",
                        cycle=0) == report.remap.elements_moved
    assert metric_value(reg, "repro.remap.words_moved",
                        cycle=0) == report.remap.words_moved
    assert metric_value(reg, "repro.remap.messages", cycle=0) == report.remap.messages
    # both reassignment methods are recorded, Table-1 style
    for metric in ("repro.reassign.total_v", "repro.reassign.max_v",
                   "repro.reassign.max_sr"):
        for method in ("greedy", "mwbg"):
            value = metric_value(reg, metric, {"method": method}, cycle=0)
            assert value is not None and value >= 0
    # the active reassigner's TotalV is the decision's stats
    assert metric_value(reg, "repro.reassign.total_v", {"method": "greedy"},
                        cycle=0) == report.stats.c_total


def test_ascii_report_renders_the_recorded_values(traced_step):
    _, report, tracer = traced_step
    text = render_ascii(tracer, source="test")
    for heading in ("Balance quality per cycle",
                    "Reassignment cost (TotalV / MaxV / MaxSR)",
                    "Remap traffic per cycle", "Cycle anatomy",
                    "Per-rank traffic (virtual machine, summed over cycles)"):
        assert heading in text
    # the single cycle appears as a table row
    assert re.search(r"^\s*0\b", text, re.MULTILINE)
    reg = tracer.metrics
    # formatted metric values appear verbatim — rendered, not recomputed
    for value in (
        metric_value(reg, "repro.partition.imbalance", {"when": "after"}, cycle=0),
        metric_value(reg, "repro.reassign.total_v", {"method": "mwbg"}, cycle=0),
        report.remap.elements_moved,
    ):
        assert _fmt(value) in text


def test_html_report_is_self_contained_and_complete(traced_step):
    _, report, tracer = traced_step
    html = render_html(tracer, title="test report", source="test")
    assert html.startswith("<!DOCTYPE html>") and html.rstrip().endswith(
        "</html>"
    )
    assert "<svg" in html and "viz-root" in html
    assert "test report" in html
    # no external assets: everything inline
    assert "http://" not in html and "https://" not in html
    assert 'src="' not in html and "@import" not in html
    # per-rank traffic and the recorded values are present
    assert _fmt(report.remap.elements_moved) in html
    for rank in range(NPROC):
        assert f"rank {rank}" in html


def test_non_finite_metrics_render_by_name_in_both_writers(tmp_path):
    """The trace reader accepts NaN and Infinity; a report prints them by
    name, and a chart skips them."""
    assert [_fmt(v) for v in (math.nan, math.inf, -math.inf)] == [
        "nan", "inf", "-inf"]
    tracer = Tracer()
    for when, values in (("before", [math.nan, 1.6, 1.3]),
                         ("after", [math.inf, 1.1, 1.0])):
        for cycle, value in enumerate(values):
            tracer.metrics.record("repro.partition.imbalance", value,
                                 labels={"when": when}, cycle=cycle)
    path = tmp_path / "nan.jsonl"
    export_jsonl(tracer, path)
    tracer = read_jsonl(path)

    text = render_ascii(tracer)
    assert re.search(r"^\s*0\s+nan\s+inf\s", text, re.MULTILINE)
    assert "Imbalance factor by cycle" in text and "cycle = 1 2" in text
    page = render_html(tracer)
    assert "<td>0</td><td>nan</td><td>inf</td>" in page
    charts = re.findall(r"<svg.*?</svg>", page)
    assert charts and not any("nan" in c or "inf" in c for c in charts)
