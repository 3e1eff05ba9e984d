"""Figure 7 — maximum impact of load balancing on flow-solver times.

The closed form: improvement = min(8, P(G-1)+1)/G for growth factor G.
Paper curves (G = 1.353, 3.310, 5.279):
* Real_1 saturates at 5.91 for P >= 20;
* Real_2 saturates at 2.42 for P >= 4;
* Real_3 saturates at 1.52 for P >= 2;
* maximum imbalance is attained faster as G increases, but the saturated
  value decreases;
* no improvement at G = 1 or G = 8.

The test verifies the formula against an explicit worst-case load
construction and regenerates the curves.
"""

import numpy as np
import pytest

from repro.experiments.figures import PAPER_G, fig7_max_improvement, max_improvement
from repro.experiments.report import format_series


def _worst_case_ratio(p: int, g: float, n: int = 10_000) -> float:
    """Build the §5 worst case explicitly: all refinement 1:8 on a subset
    of processors, the rest untouched; return max-load / balanced-load."""
    per = n // p
    n = per * p
    refined = round(n * (g - 1.0) / 7.0)  # elements that went 1-to-8
    loads = np.full(p, per, dtype=np.float64)
    remaining = refined
    for i in range(p):
        take = min(per, remaining)
        loads[i] += 7 * take
        remaining -= take
    balanced = n * g / p
    return float(loads.max() / balanced)


def test_fig7_curves():
    data = fig7_max_improvement(None)
    print()
    for name, series in data.items():
        print(f"  {name:7s}: {format_series(series, '6.2f')}")

    # saturation levels and onsets from the paper
    assert data["Real_1"][64] == pytest.approx(5.91, abs=0.01)
    assert data["Real_2"][64] == pytest.approx(2.42, abs=0.01)
    assert data["Real_3"][64] == pytest.approx(1.52, abs=0.01)
    assert data["Real_1"][16] < data["Real_1"][32]  # saturates at P>=20
    assert data["Real_2"][4] == pytest.approx(data["Real_2"][64])  # P>=4
    assert data["Real_3"][2] == pytest.approx(data["Real_3"][64])  # P>=2

    # higher G saturates sooner but lower
    g1, g3 = PAPER_G["Real_1"], PAPER_G["Real_3"]
    sat1 = 7.0 / (g1 - 1.0)
    sat3 = 7.0 / (g3 - 1.0)
    assert sat3 < sat1
    assert max(data["Real_3"].values()) < max(data["Real_1"].values())

    # boundary cases: no improvement at G=1 or G=8
    for p in (2, 16, 64):
        assert max_improvement(p, 1.0) == pytest.approx(1.0)
        assert max_improvement(p, 8.0) == pytest.approx(1.0)


@pytest.mark.parametrize("g", sorted(PAPER_G.values()))
@pytest.mark.parametrize("p", [2, 4, 8, 16, 32, 64])
def test_formula_matches_worst_case_construction(p, g):
    analytic = max_improvement(p, g)
    constructed = _worst_case_ratio(p, g)
    assert constructed == pytest.approx(analytic, rel=0.02)
