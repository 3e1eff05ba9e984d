"""The run report's two writers on committed traces: byte-exact ASCII,
and the same sections, in the same order, in the HTML.

``tests/obs/data/`` holds three small traces, each beside the ``repro
report <trace>`` stdout recorded for it (run from the repository root):

- ``step4.jsonl``: ``repro step 4 --nproc 4 --trace-out ...``;
- ``step4_shm.jsonl``: ``repro step 4 --nproc 3 --backend shm
  --trace-out ...`` — measured runs and transport counters (at two
  ranks the step does not remap, so nothing runs on the backend);
- ``two_cycles.jsonl``: two ``LoadBalancedAdaptiveSolver.adapt_step``
  cycles on ``box_mesh(2, 2, 2)`` over two ranks, written by
  ``export_jsonl`` — the cycle-over-cycle charts.  Machine and cost
  model are ``test_report.py``'s ``CHEAP``; each cycle passes
  ``edge_error=test_report.corner_error(mesh)`` and ``refine_frac=0.15``.

A change meant to alter the ASCII view rewrites the ``.txt`` files with

    PYTHONPATH=src python tests/obs/test_report_golden.py

and says so in its CHANGES.md entry.
"""

import html
import re
from pathlib import Path

import pytest

from repro.obs import build_report, read_jsonl, render_ascii, render_html

DATA = Path(__file__).parent / "data"
FIXTURES = ("step4", "step4_shm", "two_cycles")
#: Every section title the ASCII view can print ("Top N spans ..." ends
#: in its row count, so it is matched by its start).
ASCII_TITLES = (
    "Balance quality per cycle",
    "Reassignment cost (TotalV / MaxV / MaxSR)",
    "Remap traffic per cycle",
    "Cycle anatomy (virtual seconds per phase)",
    "Imbalance factor by cycle",
    "TotalV by cycle",
    "Per-rank traffic (virtual machine, summed over cycles)",
    "Per-rank traffic (measured, wall clock)",
    "Transport counters (shm)",
    "Resource usage (per process)",
    "Critical path (from the causal record)",
    "Measured critical path (wall clock)",
    "Top ",
)
#: The one section only the HTML view has: it is graphics throughout.
GRAPHICS_ONLY = "Per-rank timeline (virtual clock)"


def source(name: str) -> str:
    return f"tests/obs/data/{name}.jsonl"


def ascii_titles(text: str) -> list[str]:
    """The section titles of an ASCII report: a known title after a blank
    line (the critical-path text has blank lines of its own)."""
    lines = text.splitlines()
    return [line for prev, line in zip(lines, lines[1:])
            if not prev and line.startswith(ASCII_TITLES)]


@pytest.fixture(scope="module", params=FIXTURES)
def trace(request):
    return request.param, read_jsonl(DATA / f"{request.param}.jsonl")


def test_ascii_is_byte_identical_to_the_recorded_report(trace):
    name, tracer = trace
    golden = (DATA / f"{name}.txt").read_bytes()
    assert render_ascii(build_report(tracer), source=source(name)).encode() == golden


def test_html_shows_the_ascii_sections_in_order(trace):
    name, tracer = trace
    report = build_report(tracer)
    text = render_ascii(report, source=source(name))
    headings = [html.unescape(h) for h in re.findall(
        r"<h2>(.*?)</h2>", render_html(report, source=source(name)))]
    assert GRAPHICS_ONLY in headings
    assert [h for h in headings if h != GRAPHICS_ONLY] == ascii_titles(text)


def test_every_ascii_section_is_in_a_golden_file():
    seen = [title for name in FIXTURES
            for title in ascii_titles((DATA / f"{name}.txt").read_text())]
    for title in ASCII_TITLES:
        assert any(s.startswith(title) for s in seen), title


@pytest.mark.parametrize("fmt", ["ascii", "html", "both"])
def test_a_report_runs_the_causal_analysis_once_per_clock(
        fmt, monkeypatch, tmp_path, capsys):
    """``report --format both`` builds one report for its two writers, so
    the trace is analysed once per clock, as for either format alone."""
    from repro.__main__ import main
    from repro.obs import causal

    clocks = []
    analyze = causal.analyze

    def counted(*args, **kwargs):
        clocks.append(kwargs["clock"])
        return analyze(*args, **kwargs)

    monkeypatch.setattr(causal, "analyze", counted)
    trace = str(DATA / "step4_shm.jsonl")
    assert main(["report", trace, "--format", fmt,
                 "--out", str(tmp_path / "r.html")]) == 0
    assert clocks == ["virtual", "wall"]
    out = capsys.readouterr().out
    assert ("repro run report" in out) == (fmt != "html")
    assert (tmp_path / "r.html").exists() == (fmt != "ascii")


if __name__ == "__main__":
    for name in FIXTURES:
        text = render_ascii(build_report(read_jsonl(DATA / f"{name}.jsonl")),
                            source=source(name))
        (DATA / f"{name}.txt").write_bytes(text.encode())
        print(f"wrote {DATA / name}.txt")
