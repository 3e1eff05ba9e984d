"""§4.3 — "the gather/scatter of the similarity matrix is minuscule".

The host gathers one row of S from every processor and scatters the
mapping back: 2·(P − 1) messages through rank 0, so its time grows with
P while the remap's shrinks with the data each processor moves.  At
resolution 6 (2 592 elements) the claim holds where parts are large and
turns over by P = 16–32; EXPERIMENTS.md gives the measured ratios.

Shape asserted for every case and both remap orders: gather/scatter time
below the remap time at P = 4 and 8 (≥ 324 elements per part), above it
at P = 64 (≈ 40 elements per part).
"""

import pytest

from repro.experiments.sweep import run_step


@pytest.mark.parametrize("mode", ["before", "after"])
@pytest.mark.parametrize("case_name", ["Real_1", "Real_2", "Real_3"])
def test_gather_scatter_is_minuscule_only_at_small_p(resolution, case_name,
                                                     mode):
    ratio = {}
    for p in (4, 8, 64):
        rep = run_step(resolution, case_name, mode, p)
        assert rep.accepted and rep.remap_time > 0, p
        ratio[p] = rep.gather_scatter_time / rep.remap_time
    assert ratio[4] < 1.0 and ratio[8] < 1.0, ratio
    assert ratio[64] > 1.0, ratio
