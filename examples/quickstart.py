#!/usr/bin/env python3
"""Quickstart: one load-balanced mesh-adaption cycle in ~40 lines.

Builds a small tetrahedral box mesh, marks a corner region for refinement,
and runs the paper's full Fig.-1 cycle — marking, evaluation, parallel
repartitioning, processor reassignment, gain/cost decision, data remapping
before subdivision, and the subdivision itself — on 8 virtual processors.

Run:  python examples/quickstart.py [--trace-out run.jsonl] [--chrome-out run.json]

With ``--trace-out``/``--chrome-out`` the run's phase spans, metrics, and
virtual-machine causal record are exported (see ``repro.obs``); the Chrome trace
opens directly in chrome://tracing or https://ui.perfetto.dev.
"""

import argparse

import numpy as np

from repro.core import CostModel, LoadBalancedAdaptiveSolver
from repro.mesh import box_mesh, edge_midpoints
from repro.obs import (
    Tracer,
    export_chrome_trace,
    export_jsonl,
    use_tracer,
    validate_jsonl,
)
from repro.parallel import SP2_1997


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trace-out", default=None, metavar="PATH")
    ap.add_argument("--chrome-out", default=None, metavar="PATH")
    args = ap.parse_args()
    tracer = Tracer()
    mesh = box_mesh(4, 4, 4)
    print(f"Initial mesh: {mesh.ne} tetrahedra, {mesh.nedges} edges")

    solver = LoadBalancedAdaptiveSolver(
        mesh,
        nproc=8,
        machine=SP2_1997,
        cost_model=CostModel(machine=SP2_1997),
        reassigner="heuristic_mwbg",
        remap_when="before",  # the paper's key optimisation (§4.6)
    )
    print(f"Initial solver imbalance: {solver.solver_imbalance():.3f}")

    # an error indicator concentrated near the origin corner
    mid = edge_midpoints(mesh.coords, mesh.edges)
    error = 1.0 / (0.05 + np.linalg.norm(mid, axis=1))

    with use_tracer(tracer):  # the step records into the ambient tracer
        report = solver.adapt_step(edge_error=error, refine_frac=0.15)

    print(f"\nAfter one adapt/balance step:")
    print(f"  mesh grew {report.growth_factor:.2f}x "
          f"to {solver.adaptive.mesh.ne} elements")
    print(f"  predicted imbalance without balancing: "
          f"{report.imbalance_before:.2f}")
    print(f"  imbalance after balancing:             "
          f"{report.imbalance_after:.2f}")
    if report.accepted:
        d = report.decision
        print(f"  remap accepted: gain {d.gain * 1e3:.2f} ms "
              f"> cost {d.cost * 1e3:.2f} ms")
        print(f"  moved {report.remap.elements_moved} elements in "
              f"{report.remap.messages} messages "
              f"({report.remap_time * 1e3:.2f} ms on the virtual SP2)")
    phases = report.phase_times()  # per-phase anatomy from tracer spans
    print("  phase times (virtual seconds): "
          + ", ".join(f"{k} {v:.4f}" for k, v in phases.items()))

    if args.trace_out:
        n = export_jsonl(tracer, args.trace_out)
        validate_jsonl(args.trace_out)
        print(f"  wrote {n} JSONL trace records to {args.trace_out}")
    if args.chrome_out:
        n = export_chrome_trace(tracer, args.chrome_out)
        print(f"  wrote {n} Chrome-trace events to {args.chrome_out}")


if __name__ == "__main__":
    main()
