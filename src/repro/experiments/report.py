"""Render experiment results as paper-style text tables and series.

``python -m repro.experiments.report [resolution]`` prints every table and
figure of the evaluation section; ``tests/experiments/`` prints the same
rows under ``-s``.
"""

from __future__ import annotations

import sys

from repro.obs import MetricsRegistry, current_tracer
from repro.obs.ascii_plot import ascii_chart

from .cases import CASE_NAMES, REAL_FRACTIONS, growth_factor, make_case
from .figures import (
    PAPER_G,
    fig4_speedup,
    fig5_remap_times,
    fig6_anatomy,
    fig7_max_improvement,
    fig8_actual_improvement,
)
from .table1 import grid_sizes
from .table2 import mapper_comparison

__all__ = ["format_table2", "format_counters", "run_all"]


def format_table1(rows: dict[str, dict[str, int]]) -> str:
    hdr = f"{'':10s} {'Vertices':>10s} {'Elements':>10s} {'Edges':>10s} {'BdyFaces':>10s}"
    lines = [hdr]
    for name, sz in rows.items():
        lines.append(
            f"{name:10s} {sz['vertices']:10d} {sz['elements']:10d} "
            f"{sz['edges']:10d} {sz['bdy_faces']:10d}"
        )
    return "\n".join(lines)


def format_table2(rows) -> str:
    hdr = (
        f"{'P':>4s} {'Method':>8s} {'Max(S,R)':>9s} {'TotElems':>9s} "
        f"{'Reass.Time':>11s}"
    )
    lines = [hdr]
    for r in rows:
        lines.append(
            f"{r.nproc:4d} {r.method:>8s} {r.max_sent_recv:9d} "
            f"{r.total_elems:9d} {r.reassign_seconds:11.6f}"
        )
    return "\n".join(lines)


def format_series(series: dict[int, float], fmt: str = "8.3f") -> str:
    return "  ".join(f"P={p}:{v:{fmt}}" for p, v in sorted(series.items()))


def format_counters(metrics: MetricsRegistry) -> str:
    """Render the whole-run totals of a registry's counter metrics as a
    small two-column table."""
    lines = [f"{'counter':32s} {'total':>14s}"]
    for name, value in metrics.totals().items():
        lines.append(f"{name:32s} {value:14g}")
    return "\n".join(lines)


def run_all(resolution: int = 8) -> str:
    """Run every experiment and return the full text report.

    All reported times are *virtual* machine-model seconds (see
    :mod:`repro.obs`).  Under an ambient tracer
    (:func:`~repro.obs.use_tracer`) every solver step records its phase
    spans and counters there, and a counter summary is appended to the
    report.
    """
    tracer = current_tracer()
    out: list[str] = []
    case = make_case(resolution)
    out.append(f"=== Rotor case at resolution {resolution} "
               f"({case.mesh.ne} elements, {case.mesh.nedges} edges) ===\n")

    out.append("--- Table 1: grid sizes after one refinement level ---")
    out.append(format_table1(grid_sizes(case)))
    out.append("")

    out.append("--- Growth factors G (paper: "
               + ", ".join(f"{n}={g}" for n, g in PAPER_G.items()) + ") ---")
    for n in CASE_NAMES:
        out.append(f"  {n}: G = {growth_factor(resolution, n):.3f} "
                   f"(marks {REAL_FRACTIONS[n]:.0%} of edges)")
    out.append("")

    out.append("--- Table 2: mapper comparison (Real_2) ---")
    out.append(format_table2(mapper_comparison(case)))
    out.append("")

    out.append("--- Fig 4: adaptor speedup, remap after vs before ---")
    fig4 = fig4_speedup(resolution)
    for name, modes in fig4.items():
        for mode, series in modes.items():
            out.append(f"  {name:7s} {mode:6s}: {format_series(series, '6.1f')}")
    out.append("")
    out.append(ascii_chart(
        {f"{n}/{m}": s for n, ms in fig4.items() for m, s in ms.items()},
        title="  speedup vs P (all strategies)", height=12,
    ))
    out.append("")

    out.append("--- Fig 5: remap seconds, after vs before ---")
    for name, modes in fig5_remap_times(resolution).items():
        for mode, series in modes.items():
            out.append(f"  {name:7s} {mode:6s}: {format_series(series, '8.4f')}")
    out.append("")

    out.append("--- Fig 6: anatomy (virtual seconds, from tracer spans) ---")
    for name, phases in fig6_anatomy(resolution).items():
        for phase, series in phases.items():
            out.append(f"  {name:7s} {phase:12s}: {format_series(series, '8.4f')}")
    out.append("")

    out.append("--- Fig 7: max impact of load balancing (paper G values) ---")
    for name, series in fig7_max_improvement(None).items():
        out.append(f"  {name:7s}: {format_series(series, '6.2f')}")
    out.append("")

    out.append("--- Fig 8: actual impact of load balancing ---")
    for name, series in fig8_actual_improvement(resolution).items():
        out.append(f"  {name:7s}: {format_series(series, '6.2f')}")
    out.append("")

    if tracer is not None:
        out.append("--- Observability counters (whole report run) ---")
        out.append(format_counters(tracer.metrics))
        out.append("")

    return "\n".join(out)


if __name__ == "__main__":
    res = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    print(run_all(res))
