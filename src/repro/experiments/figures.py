"""The paper's figures as data series (4, 5, 6, 7, 8)."""

from __future__ import annotations

from .cases import CASE_NAMES, PROC_COUNTS, growth_factor
from .sweep import (
    SWEEP_PROCS,
    actual_improvement,
    remap_series,
    run_step,
    speedup_series,
)

__all__ = [
    "fig4_speedup",
    "fig5_remap_times",
    "fig6_anatomy",
    "fig7_max_improvement",
    "fig8_actual_improvement",
]

#: Mesh growth factors of the paper's three strategies (§5).
PAPER_G = {"Real_1": 1.353, "Real_2": 3.310, "Real_3": 5.279}


def fig4_speedup(resolution: int = 8) -> dict[str, dict[str, dict[int, float]]]:
    """Speedup of the parallel mesh adaptor, remap after vs before
    refinement, per strategy: ``{case: {mode: {P: speedup}}}``."""
    return {
        name: {
            mode: speedup_series(resolution, name, mode)
            for mode in ("after", "before")
        }
        for name in CASE_NAMES
    }


def fig5_remap_times(resolution: int = 8) -> dict[str, dict[str, dict[int, float]]]:
    """Remapping seconds, after vs before refinement, per strategy."""
    return {
        name: {
            mode: remap_series(resolution, name, mode)
            for mode in ("after", "before")
        }
        for name in CASE_NAMES
    }


def fig6_anatomy(resolution: int = 8) -> dict[str, dict[str, dict[int, float]]]:
    """Adaption / partitioning / reassignment / remapping virtual seconds
    per strategy and P (remap-before mode, TotalV metric, heuristic MWBG —
    as in the paper).

    The anatomy is each step's ``StepReport.phase_times()``: adaption =
    marking + subdivision, reassignment = the §4.3 gather/scatter plus
    the §4.4 reassign phase.
    """
    out: dict[str, dict[str, dict[int, float]]] = {}
    for name in CASE_NAMES:
        series: dict[str, dict[int, float]] = {
            "adaption": {}, "partitioning": {}, "reassignment": {},
            "remapping": {},
        }
        for p in PROC_COUNTS:
            rep = run_step(resolution, name, "before", p)
            phases = rep.phase_times()
            series["adaption"][p] = phases["marking"] + phases["subdivision"]
            series["partitioning"][p] = phases["repartition"]
            series["reassignment"][p] = (
                phases["gather_scatter"] + phases["reassign"]
            )
            series["remapping"][p] = phases["remap"]
        out[name] = series
    return out


def max_improvement(p: int, g: float) -> float:
    """Closed-form maximum impact of load balancing (paper §5).

    With growth factor G, the worst case puts all 1:8 refinement on a
    subset of processors; the most-loaded one then holds
    min(8N/P, GN − (P−1)N/P) elements against GN/P balanced, giving an
    improvement factor of min(8, P(G−1)+1)/G.
    """
    if g < 1.0 or g > 8.0:
        raise ValueError(f"growth factor must be in [1, 8], got {g}")
    if p < 1:
        raise ValueError(f"P must be >= 1, got {p}")
    return min(8.0, p * (g - 1.0) + 1.0) / g


def fig7_max_improvement(
    resolution: int | None = None,
) -> dict[str, dict[int, float]]:
    """Maximum load-balancing impact curves.

    With ``resolution`` given, uses the *measured* growth factors of our
    meshes; otherwise the paper's G values (1.353 / 3.310 / 5.279).
    """
    gs = (
        {n: growth_factor(resolution, n) for n in CASE_NAMES}
        if resolution is not None
        else dict(PAPER_G)
    )
    return {
        name: {p: max_improvement(p, g) for p in SWEEP_PROCS}
        for name, g in gs.items()
    }


def fig8_actual_improvement(resolution: int = 8) -> dict[str, dict[int, float]]:
    """Measured impact of load balancing on flow-solver max loads."""
    return {name: actual_improvement(resolution, name) for name in CASE_NAMES}
