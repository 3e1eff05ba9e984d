"""ASCII chart rendering."""

from repro.obs.ascii_plot import ascii_chart


def test_ascii_chart_structure():
    series = {
        "after": {1: 1.0, 2: 1.8, 4: 3.0, 8: 4.5},
        "before": {1: 1.0, 2: 1.9, 4: 3.6, 8: 7.0},
    }
    chart = ascii_chart(series, height=6, width=30, title="speedup")
    lines = chart.splitlines()
    assert lines[0] == "speedup"
    assert len(lines) == 6 + 4  # grid + axis + xlabel + legend + title
    assert "o=after" in chart and "x=before" in chart
    assert "P = 1 2 4 8" in chart
    # both markers appear in the grid
    body = "\n".join(lines[1:-3])
    assert "o" in body and "x" in body


def test_ascii_chart_log_axis():
    chart = ascii_chart({"t": {2: 0.01, 64: 1.0}}, log_y=True, height=4)
    assert "1" in chart  # decoded top label back to linear
    assert chart.count("t") >= 1


def test_ascii_chart_empty():
    assert ascii_chart({}) == ""
