"""Figure 4 — speedup of the parallel mesh adaptor when data is remapped
either after or before mesh refinement.

Paper claims the test asserts:
* remapping *before* refinement gives a higher speedup for every strategy
  at large P (an improvement of up to 2.6x in refinement speedup);
* the relative benefit is largest for Real_1 (smallest refinement region:
  9.3x -> 23.9x on 64 processors in the paper);
* Real_3 with remap-before shows the best absolute speedup (52.5x on 64
  processors in the paper);
* speedups grow monotonically at small-to-moderate P.
"""

from repro.experiments.figures import fig4_speedup
from repro.experiments.report import format_series


def test_fig4_series(resolution):
    data = fig4_speedup(resolution)
    print()
    for name, modes in data.items():
        for mode, series in modes.items():
            print(f"  {name:7s} {mode:6s}: {format_series(series, '6.1f')}")

    for name, modes in data.items():
        # before beats after at the largest processor counts
        for p in (32, 64):
            assert modes["before"][p] > modes["after"][p], (name, p)
        # speedup rises through moderate P
        s = modes["before"]
        assert s[2] < s[8] < s[32]

    # biggest relative improvement for the most localized strategy
    gain = {
        name: modes["before"][64] / modes["after"][64]
        for name, modes in data.items()
    }
    assert gain["Real_1"] >= gain["Real_3"]
    assert gain["Real_1"] > 1.5  # paper: ~2.6x
    # best absolute speedup: Real_3 with remap-before
    best = data["Real_3"]["before"][64]
    assert best >= data["Real_1"]["before"][64]
    assert best > 10.0
