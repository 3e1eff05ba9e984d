"""Adaption statistics: subdivision-type histograms, amplification, quality."""

import numpy as np
import pytest

from repro.adapt import AdaptiveMesh, propagate_markings, subdivide
from repro.adapt.stats import marking_stats
from repro.mesh import box_mesh

from tests.fixtures import aspect_ratios, single_tet


def test_stats_single_1to2():
    m = single_tet()
    mask = np.zeros(m.nedges, dtype=bool)
    mask[0] = True
    st = marking_stats(propagate_markings(m, mask), seed_mask=mask)
    assert st.n_1to2 == 1
    assert st.n_1to4 == st.n_1to8 == st.n_unchanged == 0
    assert st.amplification == 1.0
    assert st.predicted_children == 2
    assert st.predicted_growth == pytest.approx(2.0)


def test_stats_full_isotropic():
    m = single_tet()
    st = marking_stats(propagate_markings(m, np.ones(m.nedges, dtype=bool)))
    assert st.n_1to8 == 1
    assert st.n_1to2 == st.n_1to4 == 0
    assert st.predicted_growth == pytest.approx(8.0)


def test_mixed_marking_has_anisotropic_types():
    """Random partial markings must exercise the anisotropic 1:2/1:4 types
    (the 3D_TAG feature the paper highlights)."""
    m = box_mesh(3, 3, 3)
    rng = np.random.default_rng(0)
    mask = rng.random(m.nedges) < 0.1
    st = marking_stats(propagate_markings(m, mask), seed_mask=mask)
    assert st.n_1to2 > 0
    assert st.n_1to4 > 0
    assert st.amplification >= 1.0
    assert st.n_unchanged + st.n_1to2 + st.n_1to4 + st.n_1to8 == m.ne


def test_predicted_growth_matches_actual():
    m = box_mesh(2, 2, 2)
    rng = np.random.default_rng(4)
    mask = rng.random(m.nedges) < 0.2
    marking = propagate_markings(m, mask)
    st = marking_stats(marking)
    res = subdivide(m, marking)
    assert st.predicted_children == res.mesh.ne
    assert st.predicted_growth == pytest.approx(res.growth_factor)


def test_quality_change_reports_finite():
    m = box_mesh(2, 2, 2)
    am = AdaptiveMesh(m)
    rng = np.random.default_rng(1)
    am.refine(am.mark(edge_mask=rng.random(m.nedges) < 0.3))
    before = aspect_ratios(m.coords, m.elems)
    after = aspect_ratios(am.mesh.coords, am.mesh.elems)
    assert np.all(np.isfinite(after))
    # bisection can degrade quality, but not unboundedly at one level
    assert after.max() < 20 * before.max()
