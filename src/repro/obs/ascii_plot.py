"""Plain-text charts for the run and experiment reports.

The paper's figures are log/linear line plots over processor counts; in a
terminal-only reproduction we render the same series as aligned ASCII
charts so shapes (crossovers, saturation, U-curves) are visible at a
glance in ``python -m repro report`` output and in EXPERIMENTS.md.  The
module is standard library only and lives in :mod:`repro.obs`, the lower
layer: the run report here and the experiment harness's report one layer
up both draw with it.
"""

from __future__ import annotations

import math

__all__ = ["ascii_chart"]


def ascii_chart(
    series: dict[str, dict[int, float]],
    height: int = 10,
    width: int = 60,
    log_y: bool = False,
    title: str = "",
    xlabel: str = "P",
) -> str:
    """Multi-series line chart over a shared (sorted) integer x-axis.

    Each series is drawn with its own marker; y is linear or log10.
    ``xlabel`` names the x-axis (processor counts by default; run reports
    pass ``"cycle"``).
    """
    if not series:
        return ""
    markers = "ox+*#@%&"
    xs = sorted({x for s in series.values() for x in s})
    ys_all = [v for s in series.values() for v in s.values()]
    if log_y:
        transform = lambda v: math.log10(max(v, 1e-12))  # noqa: E731
    else:
        transform = float
    lo = min(transform(v) for v in ys_all)
    hi = max(transform(v) for v in ys_all)
    if hi - lo <= 0:
        hi = lo + 1.0

    grid = [[" "] * width for _ in range(height)]
    xpos = {x: int(i / max(len(xs) - 1, 1) * (width - 1)) for i, x in enumerate(xs)}
    for (name, s), mark in zip(series.items(), markers):
        for x, v in s.items():
            col = xpos[x]
            row = height - 1 - int(
                (transform(v) - lo) / (hi - lo) * (height - 1)
            )
            grid[row][col] = mark

    lines = []
    if title:
        lines.append(title)
    ymax = f"{10**hi:.3g}" if log_y else f"{hi:.3g}"
    ymin = f"{10**lo:.3g}" if log_y else f"{lo:.3g}"
    lines.append(f"{ymax:>9s} ┤" + "".join(grid[0]))
    for row in grid[1:-1]:
        lines.append(" " * 9 + " │" + "".join(row))
    lines.append(f"{ymin:>9s} ┤" + "".join(grid[-1]))
    lines.append(" " * 9 + " └" + "─" * width)
    xlabels = " ".join(str(x) for x in xs)
    lines.append(" " * 11 + f"{xlabel} = {xlabels}")
    legend = "   ".join(
        f"{mark}={name}" for (name, _s), mark in zip(series.items(), markers)
    )
    lines.append(" " * 11 + legend)
    return "\n".join(lines)
