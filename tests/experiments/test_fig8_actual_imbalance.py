"""Figure 8 — actual impact of load balancing on flow-solver times.

Paper claims the test asserts:
* the measured curves have the same basic shape as the Fig. 7 bounds but
  sit below them (real adaptions aren't worst cases);
* at P = 64 the improvement factors order Real_1 > Real_2 > Real_3
  (paper: 3.46, 2.03, 1.52);
* Real_3 essentially attains its theoretical maximum;
* the improvement grows with P for every strategy.
"""

import pytest

from repro.experiments.cases import growth_factor
from repro.experiments.figures import (
    fig7_max_improvement,
    fig8_actual_improvement,
)
from repro.experiments.report import format_series


def test_fig8_series(resolution):
    actual = fig8_actual_improvement(resolution)
    bound = fig7_max_improvement(resolution)  # bounds at OUR growth factors
    print()
    for name, series in actual.items():
        print(f"  {name:7s} actual: {format_series(series, '6.2f')}")
        print(f"  {name:7s} bound : {format_series(bound[name], '6.2f')}")

    for name, series in actual.items():
        # bounded by the theoretical maximum (small tolerance: the bound
        # assumes exact balance, the partitioner allows a few % slack)
        for p, v in series.items():
            assert v <= bound[name][p] * 1.10, (name, p)
        # improvement grows from few to many processors
        assert series[64] >= series[4] >= series[1] - 1e-9
        assert series[1] == pytest.approx(1.0)

    # ordering at P=64 (paper: 3.46 > 2.03 > 1.52)
    assert actual["Real_1"][64] > actual["Real_2"][64] > actual["Real_3"][64]
    # Real_3 gets close to its maximum (paper: attains it)
    g3 = growth_factor(resolution, "Real_3")
    sat3 = min(8.0, 64 * (g3 - 1.0) + 1.0) / g3
    assert actual["Real_3"][64] > 0.75 * sat3
