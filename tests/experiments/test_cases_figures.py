"""Unit tests for the experiment harness (cases, closed forms, report
formatting) — the sweep-level behaviour is covered by the ``test_fig*`` /
``test_table*`` files next to this one and pinned by
``test_golden_series.py``."""

import numpy as np
import pytest

from repro.experiments import (
    CASE_NAMES,
    REAL_FRACTIONS,
    make_case,
    max_improvement,
)
from repro.experiments.report import format_series, format_table1


def test_case_is_deterministic():
    a = make_case(resolution=4)
    b = make_case(resolution=4)
    assert np.array_equal(a.mesh.elems, b.mesh.elems)
    assert np.array_equal(a.elem_error, b.elem_error)
    for name in CASE_NAMES:
        assert np.array_equal(a.marking_mask(name), b.marking_mask(name))


def test_marking_masks_hit_their_fractions():
    case = make_case(resolution=5)
    for name, frac in REAL_FRACTIONS.items():
        got = case.marking_mask(name).mean()
        assert got == pytest.approx(frac, abs=0.02), name


def test_marking_masks_nest():
    """More aggressive strategies are supersets of milder ones (same
    element priority order, bigger budget)."""
    case = make_case(resolution=5)
    m1 = case.marking_mask("Real_1")
    m2 = case.marking_mask("Real_2")
    m3 = case.marking_mask("Real_3")
    assert np.all(m2[m1])
    assert np.all(m3[m2])


def test_unknown_strategy_rejected():
    case = make_case(resolution=4)
    with pytest.raises(KeyError, match="Real_9"):
        case.marking_mask("Real_9")


class TestMaxImprovement:
    def test_paper_saturation_values(self):
        # paper reports 5.91 / 2.42 / 1.52
        assert max_improvement(64, 1.353) == pytest.approx(5.91, abs=5e-3)
        assert max_improvement(64, 3.310) == pytest.approx(2.42, abs=5e-3)
        assert max_improvement(64, 5.279) == pytest.approx(1.52, abs=5e-3)

    def test_saturation_onset(self):
        g = 1.353
        p_sat = 7.0 / (g - 1.0)  # ≈ 19.8 -> paper says P >= 20
        assert max_improvement(19, g) < max_improvement(20, g) == pytest.approx(
            8.0 / g
        )

    def test_boundaries(self):
        assert max_improvement(16, 1.0) == 1.0
        assert max_improvement(16, 8.0) == 1.0
        with pytest.raises(ValueError):
            max_improvement(16, 9.0)
        with pytest.raises(ValueError):
            max_improvement(0, 2.0)

    def test_monotone_in_p_until_saturation(self):
        vals = [max_improvement(p, 3.31) for p in range(1, 65)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_format_helpers():
    t = format_table1({"X": {"vertices": 1, "elements": 2, "edges": 3,
                             "bdy_faces": 4}})
    assert "X" in t and "Vertices" in t
    s = format_series({2: 1.5, 4: 3.25}, "5.2f")
    assert "P=2: 1.50" in s and "P=4: 3.25" in s
