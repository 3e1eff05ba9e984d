"""Run reports: turn an exported trace into an ASCII or HTML dashboard.

A trace produced by ``repro step --trace-out`` (or any instrumented run)
carries the full labelled metric registry — per-cycle partition quality,
reassignment cost, remap traffic — and the causal record of every VM
run, which the per-rank traffic tables and the critical path are read
from.
:func:`build_report` decides once which sections the report has, with
their titles, columns and formatted rows — running the trace's causal
analysis once; :func:`render_ascii` and :func:`render_html` are two
writers over that one :class:`Report`.  The ASCII
writer draws the tables, the cycle-over-cycle charts
(:func:`repro.obs.ascii_plot.ascii_chart`) and the critical-path text;
the HTML writer draws the same sections into a single self-contained
file, adding stat tiles, SVG line charts, per-rank bars, a critical-path
lane per clock and a per-rank timeline.  Both read only the trace —
``repro report <trace.jsonl>`` needs no access to the original mesh.
"""

from __future__ import annotations

import html as _html
import math
from typing import NamedTuple

from .ascii_plot import ascii_chart
from .tracer import Tracer

__all__ = ["build_report", "render_ascii", "render_html"]


# --- the report model --------------------------------------------------------


def _fmt(v, nd: int = 4) -> str:
    """Format a metric value: ints plainly, floats with %.*g (so nan, inf
    and -inf by name), None as '-'."""
    if v is None:
        return "-"
    f = float(v)
    if abs(f) < 1e15 and f == int(f):
        return str(int(f))
    return f"{f:.{nd}g}"


def _series(tracer: Tracer, name: str, **labels) -> dict[int, float]:
    return tracer.metrics.series(name, labels=labels or None)


_PHASES = ("marking", "repartition", "gather_scatter", "reassign",
           "remap", "subdivision")


def _cycle_rows(tracer: Tracer) -> list[dict]:
    """One dict per cycle with every per-cycle quantity (None = absent)."""
    fields = {
        "imb_before": _series(tracer, "repro.partition.imbalance", when="before"),
        "imb_after": _series(tracer, "repro.partition.imbalance", when="after"),
        "cut_before": _series(tracer, "repro.partition.edgecut", when="before"),
        "cut_after": _series(tracer, "repro.partition.edgecut", when="after"),
        "diag_fraction": _series(tracer, "repro.partition.diag_fraction"),
        "accepted": _series(tracer, "repro.cycle.accepted"),
        "total_seconds": _series(tracer, "repro.cycle.total_seconds"),
        "elements_moved": _series(tracer, "repro.remap.elements_moved"),
        "words_moved": _series(tracer, "repro.remap.words_moved"),
        "remap_messages": _series(tracer, "repro.remap.messages"),
    }
    for method in ("greedy", "mwbg"):
        for quant in ("total_v", "max_v", "max_sr"):
            fields[f"{quant}_{method}"] = _series(
                tracer, f"repro.reassign.{quant}", method=method
            )
    for phase in _PHASES:
        fields[phase] = _series(tracer, "repro.cycle.phase_seconds",
                                phase=phase)
    rows = []
    for c in tracer.metrics.cycles():
        row = {"cycle": c}
        for key, series in fields.items():
            row[key] = series.get(c)
        rows.append(row)
    return rows


_TRANSPORT_COLS = (
    ("0-copy bytes", "repro.transport.bytes_zero_copy"),
    ("pickled bytes", "repro.transport.bytes_pickled"),
    ("0-copy msgs", "repro.transport.msgs_zero_copy"),
    ("pickled msgs", "repro.transport.msgs_pickled"),
    ("slab reuse", "repro.transport.slab_reuse"),
    ("spills", "repro.transport.spills"),
)


def _rank_blocks(per: dict[str, dict[int, float]], bar_col: str,
                 totals: bool = False) -> list[tuple]:
    """Per-rank table of ``per`` (``{column: {rank: value}}``), after
    bars of its ``bar_col`` column; ``[]`` when no rank has a value.
    ``totals`` appends a column-sum row."""
    ranks = sorted({r for d in per.values() for r in d})
    if not ranks:
        return []
    headers = ["rank", *per]
    rows = [[r] + [d.get(r) for d in per.values()] for r in ranks]
    cells = [[_fmt(c) for c in row] for row in rows]
    if totals:
        cells.append(["total"] + [
            _fmt(sum(row[i] or 0 for row in rows))
            for i in range(1, len(headers))
        ])
    return [("bars", bar_col, per[bar_col]), ("table", headers, cells)]


def _rank_sums(analysis, row) -> dict[str, dict[int, float]]:
    """``{column: {rank: sum over the analysis's runs}}`` of ``row(st)``,
    a ``{column: value}`` dict of one run's
    :class:`~repro.obs.causal.RankStats`."""
    per: dict[str, dict[int, float]] = {}
    for stats in analysis.stats.values():
        for st in stats:
            for label, v in row(st).items():
                d = per.setdefault(label, {})
                d[st.rank] = d.get(st.rank, 0) + v
    return per


def _traffic_row(st) -> dict:
    """A rank's columns in the virtual traffic table, read from its causal
    record: zero-word (sync) messages counted apart."""
    return {"msgs sent": st.msgs_sent - st.sync_sent,
            "msgs recv": st.msgs_recv - st.sync_recv,
            "sync msgs": st.sync_sent, "words sent": st.words_sent,
            "words recv": st.words_recv, "busy s": st.busy, "idle s": st.idle}


def _wall_traffic_row(st) -> dict:
    """A rank's columns in the measured traffic table: every message
    counted, and the waits."""
    return {"msgs sent": st.msgs_sent, "msgs recv": st.msgs_recv,
            "words sent": st.words_sent, "words recv": st.words_recv,
            "busy s": st.busy, "idle s": st.idle, "wait s": st.wait}


def _transport_backends(tracer: Tracer) -> list[str]:
    """Distinct ``backend`` label values carrying transport counters."""
    out = set()
    for s in tracer.metrics.samples():
        if s.name.startswith("repro.transport."):
            out.add(dict(s.labels).get("backend", ""))
    return sorted(out)


def _resource_blocks(tracer: Tracer) -> list[tuple]:
    """Per-rank peak-RSS bars and the per-process table from the
    ``repro.resource.*`` gauges (``[]`` when the run was not traced).  A
    rank read in several runs shows its largest reading."""
    peaks: dict[int | None, dict[str, float]] = {}
    for s in tracer.metrics.samples():
        if s.name.startswith("repro.resource."):
            row = peaks.setdefault(s.rank, {})
            key = s.name.rpartition(".")[2]
            row[key] = max(row.get(key, 0.0), s.value)
    if not peaks:
        return []
    keys = sorted(peaks, key=lambda k: (k is not None, k))
    rss = {k: peaks[k].get("peak_rss_bytes", 0.0) / (1 << 20) for k in keys}
    rows = [[
        "host" if k is None else f"rank {k}", f"{rss[k]:.1f}",
        _fmt(peaks[k].get("cpu_seconds")),
        _fmt(peaks[k].get("gc_collections")),
    ] for k in keys]
    headers = ["process", "peak rss (MiB)", "cpu (s)", "gc collections"]
    return [("bars", "peak rss (MiB)",
             {k: v for k, v in rss.items() if k is not None}),
            ("table", headers, rows)]


def _top_spans(tracer: Tracer, n: int) -> list:
    closed = [s for s in tracer.spans if not s.open]
    return sorted(closed, key=lambda s: s.v_duration, reverse=True)[:n]


def _makespan(tracer: Tracer) -> float:
    return max([s.v_end for s in tracer.spans if not s.open] or [0.0])


def _measured_runs(tracer: Tracer) -> int:
    return sum(1 for e in tracer.events
               if e.name == "vm.run" and e.attrs.get("clock") == "wall")


def _analysis(tracer: Tracer, clock: str):
    """The trace's :class:`~repro.obs.causal.TraceAnalysis` on ``clock``,
    or ``None`` when the trace carries no run on it."""
    if clock == "wall" and not _measured_runs(tracer):
        return None
    from .causal import analyze

    analysis = analyze(tracer, clock=clock)
    return analysis if analysis.runs else None


def _summary(tracer: Tracer) -> list[tuple[str, str]]:
    """The run's headline ``(key, value)`` pairs: the ASCII head line and
    the HTML tiles."""
    reg = tracer.metrics
    pairs = [
        ("spans", str(sum(1 for s in tracer.spans if not s.open))),
        ("events", str(len(tracer.events))),
        ("metric samples", str(len(reg))),
        ("cycles", str(len(reg.cycles()))),
        ("virtual makespan", f"{_fmt(_makespan(tracer))} s"),
    ]
    measured = _measured_runs(tracer)
    if measured:
        pairs.append(("measured runs", str(measured)))
    return pairs


def _sections(tracer: Tracer, top: int) -> list[tuple[str, list[tuple]]]:
    """Every section of the report, in order, as ``(title, blocks)``.

    The one place that decides which sections exist, their titles,
    column headers and cell formatting.  A block is one of
    ``("table", headers, rows)`` with formatted cells,
    ``("chart", {series name: {cycle: value}})``, ``("text", str)``,
    ``("bars", what, {rank: value})``, ``("lane", analysis, label)`` or
    ``("timeline", tracer)``.  Each writer draws the blocks its medium
    can and skips a section left empty.
    """
    rows = _cycle_rows(tracer)
    out: list[tuple[str, list[tuple]]] = []

    def table(title, headers, cells):
        out.append((title, [("table", headers, cells)]))

    if rows:
        table("Balance quality per cycle",
              ["cycle", "imb before", "imb after", "cut before", "cut after",
               "diag %", "accepted"],
              [[
                  str(r["cycle"]), _fmt(r["imb_before"]), _fmt(r["imb_after"]),
                  _fmt(r["cut_before"]), _fmt(r["cut_after"]),
                  "-" if r["diag_fraction"] is None
                  else f"{100 * r['diag_fraction']:.1f}",
                  "-" if r["accepted"] is None
                  else ("yes" if r["accepted"] else "no"),
              ] for r in rows])
        if any(r["total_v_greedy"] is not None or r["total_v_mwbg"] is not None
               for r in rows):
            table("Reassignment cost (TotalV / MaxV / MaxSR)",
                  ["cycle", "TotalV greedy", "TotalV mwbg", "MaxV greedy",
                   "MaxV mwbg", "MaxSR greedy", "MaxSR mwbg"],
                  [[str(r["cycle"])] + [
                      _fmt(r[f"{quant}_{method}"])
                      for quant in ("total_v", "max_v", "max_sr")
                      for method in ("greedy", "mwbg")
                  ] for r in rows])
        if any(r["elements_moved"] is not None for r in rows):
            table("Remap traffic per cycle",
                  ["cycle", "elements moved", "words moved", "messages"],
                  [[
                      str(r["cycle"]), _fmt(r["elements_moved"]),
                      _fmt(r["words_moved"]), _fmt(r["remap_messages"]),
                  ] for r in rows])
        table("Cycle anatomy (virtual seconds per phase)",
              ["cycle", *_PHASES, "total"],
              [[str(r["cycle"])] + [_fmt(r[p]) for p in _PHASES]
               + [_fmt(r["total_seconds"])] for r in rows])

    if len(rows) >= 2:
        for title, names in (
                ("Imbalance factor by cycle",
                 {"before": "imb_before", "after": "imb_after"}),
                ("TotalV by cycle",
                 {"greedy": "total_v_greedy", "mwbg": "total_v_mwbg"})):
            # a chart has no place for a non-finite point: it is skipped
            series = {
                name: {r["cycle"]: r[key] for r in rows
                       if r[key] is not None and math.isfinite(r[key])}
                for name, key in names.items()
            }
            series = {k: s for k, s in series.items() if s}
            out.append((title, [("chart", series)] if series else []))

    analysis = _analysis(tracer, "virtual")
    wall = _analysis(tracer, "wall")
    for label, path, row in (
            ("virtual machine, summed over cycles", analysis, _traffic_row),
            ("measured, wall clock", wall, _wall_traffic_row)):
        out.append((f"Per-rank traffic ({label})", [] if path is None else
                    _rank_blocks(_rank_sums(path, row), "words sent")))
    for backend in _transport_backends(tracer):
        labels = {"backend": backend} if backend else {}
        per = {label: tracer.metrics.per_rank(name, labels=labels)
               for label, name in _TRANSPORT_COLS}
        out.append((f"Transport counters ({backend or 'backend'})",
                    _rank_blocks(per, "0-copy bytes", totals=True)))
    out.append(("Resource usage (per process)", _resource_blocks(tracer)))
    out.append(("Per-rank timeline (virtual clock)", [("timeline", tracer)]))

    from .causal import format_critical_path

    for title, path, label in (
            ("Critical path (from the causal record)", analysis, "modelled"),
            ("Measured critical path (wall clock)", wall, "measured")):
        if path is None:
            continue
        sums = _rank_sums(path, lambda st: {"on": st.on_path,
                                            "slack": st.slack})
        on_path, slack = sums["on"], sums["slack"]
        out.append((title, [
            ("lane", path, label),
            ("text", format_critical_path(path, top=top)),
            ("bars", "seconds on the critical path", on_path),
            ("bars", "slack seconds (summed over vm runs)",
             slack if any(v > 0 for v in slack.values()) else {}),
        ]))
    if wall is not None and analysis is not None and analysis.makespan > 0:
        out[-1][1].append(("text", (
            f"measured vs modelled: {_fmt(wall.makespan)} wall s "
            f"vs {_fmt(analysis.makespan)} virtual s")))

    spans = _top_spans(tracer, top)
    if spans:
        table(f"Top {len(spans)} spans by virtual duration",
              ["name", "depth", "v_start", "v_seconds", "wall_seconds"],
              [[
                  s.name, str(s.depth), _fmt(s.v_start),
                  _fmt(s.v_duration), _fmt(s.wall_duration, 3),
              ] for s in spans])
    return out


class Report(NamedTuple):
    """A trace's report, built once for any number of writers."""

    summary: list[tuple[str, str]]  #: :func:`_summary`'s headline pairs
    sections: list[tuple[str, list[tuple]]]  #: :func:`_sections`' list


def build_report(tracer: Tracer, top: int = 10) -> Report:
    """The report of ``tracer``, with ``top`` rows in its ranked lists."""
    return Report(_summary(tracer), _sections(tracer, top))


# --- ASCII writer ------------------------------------------------------------


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells):
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in rows)
    return "\n".join(out)


#: What the ASCII writer draws; every other block kind is graphics only.
_ASCII = {
    "table": _table,
    "chart": lambda series: ascii_chart(series, xlabel="cycle"),
    "text": str,
}


def render_ascii(report: Report, source: str = "") -> str:
    """Render the report as an ASCII dashboard (tables + charts)."""
    head = "repro run report"
    if source:
        head += f" — {source}"
    parts = [head, "=" * len(head),
             "   ".join(f"{k}: {v}" for k, v in report.summary)]
    for title, blocks in report.sections:
        drawn = [_ASCII[kind](*args) for kind, *args in blocks
                 if kind in _ASCII]
        if drawn:
            parts += ["", title, "\n\n".join(drawn)]
    return "\n".join(parts) + "\n"


# --- HTML writer -------------------------------------------------------------

_CSS = """
.viz-root {
  color-scheme: light;
  --page:           #f9f9f7;
  --surface-1:      #fcfcfb;
  --text-primary:   #0b0b0b;
  --text-secondary: #52514e;
  --text-muted:     #898781;
  --gridline:       #e1e0d9;
  --baseline:       #c3c2b7;
  --border:         rgba(11,11,11,0.10);
  --series-1:       #2a78d6;
  --series-2:       #eb6834;
  --series-3:       #1baf7a;
  background: var(--page);
  color: var(--text-primary);
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  margin: 0; padding: 24px;
}
@media (prefers-color-scheme: dark) {
  .viz-root {
    color-scheme: dark;
    --page:           #0d0d0d;
    --surface-1:      #1a1a19;
    --text-primary:   #ffffff;
    --text-secondary: #c3c2b7;
    --text-muted:     #898781;
    --gridline:       #2c2c2a;
    --baseline:       #383835;
    --border:         rgba(255,255,255,0.10);
    --series-1:       #3987e5;
    --series-2:       #d95926;
    --series-3:       #199e70;
  }
}
.viz-root h1 { font-size: 20px; margin: 0 0 4px; }
.viz-root .sub { color: var(--text-secondary); font-size: 13px; margin: 0 0 20px; }
.viz-root section {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px 20px; margin: 0 0 16px;
}
.viz-root h2 { font-size: 14px; margin: 0 0 12px; color: var(--text-primary); }
.viz-root .tiles { display: flex; flex-wrap: wrap; gap: 24px; }
.viz-root .tile .v { font-size: 24px; }
.viz-root .tile .k { font-size: 12px; color: var(--text-secondary); }
.viz-root table {
  border-collapse: collapse; font-size: 12px;
  font-variant-numeric: tabular-nums;
}
.viz-root th, .viz-root td {
  padding: 3px 10px; text-align: right;
  border-bottom: 1px solid var(--gridline);
}
.viz-root th { color: var(--text-secondary); font-weight: 600; }
.viz-root td:first-child, .viz-root th:first-child { text-align: left; }
.viz-root pre { font-size: 12px; margin: 8px 0; }
.viz-root .legend { font-size: 12px; color: var(--text-secondary); margin: 4px 0 8px; }
.viz-root .legend .chip {
  display: inline-block; width: 10px; height: 10px; border-radius: 2px;
  margin: 0 4px 0 12px; vertical-align: -1px;
}
.viz-root .caption { font-size: 11px; color: var(--text-muted); margin-top: 6px; }
.viz-root svg text { fill: var(--text-muted); font-size: 10px; }
"""

_SERIES_VARS = ("var(--series-1)", "var(--series-2)", "var(--series-3)")


def _legend(names: list[str]) -> str:
    chips = "".join(
        f'<span class="chip" style="background:{color}"></span>'
        f"{_html.escape(name)}"
        for name, color in zip(names, _SERIES_VARS)
    )
    return f'<div class="legend">{chips}</div>'


def _svg_line_chart(series: dict[str, dict[int, float]],
                    width: int = 560, height: int = 200,
                    xlabel: str = "cycle") -> str:
    """Legend plus a multi-series SVG line chart (≤3 series; 2px lines,
    8px markers)."""
    xs = sorted({x for s in series.values() for x in s})
    vals = [v for s in series.values() for v in s.values()]
    lo, hi = min(vals), max(vals)
    if hi - lo <= 0:
        lo, hi = lo - 0.5, hi + 0.5
    pad_l, pad_r, pad_t, pad_b = 48, 12, 8, 22
    pw, ph = width - pad_l - pad_r, height - pad_t - pad_b

    def px(x):
        i = xs.index(x)
        return pad_l + (i / max(len(xs) - 1, 1)) * pw

    def py(v):
        return pad_t + (1 - (v - lo) / (hi - lo)) * ph

    out = [_legend(list(series)),
           f'<svg viewBox="0 0 {width} {height}" width="{width}" '
           f'height="{height}" role="img">']
    for frac in (0.0, 0.5, 1.0):
        y = pad_t + frac * ph
        out.append(
            f'<line x1="{pad_l}" y1="{y:.1f}" x2="{width - pad_r}" '
            f'y2="{y:.1f}" stroke="var(--gridline)" stroke-width="1"/>'
        )
    out.append(
        f'<line x1="{pad_l}" y1="{pad_t + ph}" x2="{width - pad_r}" '
        f'y2="{pad_t + ph}" stroke="var(--baseline)" stroke-width="1"/>'
    )
    out.append(f'<text x="{pad_l - 6}" y="{pad_t + 4}" '
               f'text-anchor="end">{_fmt(hi, 3)}</text>')
    out.append(f'<text x="{pad_l - 6}" y="{pad_t + ph + 4}" '
               f'text-anchor="end">{_fmt(lo, 3)}</text>')
    for x in xs:
        out.append(f'<text x="{px(x):.1f}" y="{height - 6}" '
                   f'text-anchor="middle">{x}</text>')
    out.append(f'<text x="{width - pad_r}" y="{height - 6}" '
               f'text-anchor="end">{_html.escape(xlabel)}</text>')
    for (name, s), color in zip(series.items(), _SERIES_VARS):
        pts = " ".join(f"{px(x):.1f},{py(v):.1f}"
                       for x, v in sorted(s.items()))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="2"/>')
        for x, v in sorted(s.items()):
            out.append(
                f'<circle cx="{px(x):.1f}" cy="{py(v):.1f}" r="4" '
                f'fill="{color}"><title>{_html.escape(str(name))}, '
                f'{xlabel} {x}: {_fmt(v)}</title></circle>'
            )
    out.append("</svg>")
    return "".join(out)


def _svg_rank_bars(what: str, per_rank: dict[int, float], width: int = 560,
                   height: int = 160) -> str:
    """Horizontal per-rank bar chart of ``what`` (single series, slot-1
    hue), under a caption naming it."""
    if not per_rank:
        return ""
    ranks = sorted(per_rank)
    hi = max(per_rank.values()) or 1.0
    pad_l, pad_r = 48, 12
    pw = width - pad_l - pad_r
    bar_h, gap = 14, 4
    height = max(height, len(ranks) * (bar_h + gap) + 10)
    what = _html.escape(what)
    out = [f'<div class="caption">{what}, per rank</div>'
           f'<svg viewBox="0 0 {width} {height}" width="{width}" '
           f'height="{height}" role="img">']
    for i, r in enumerate(ranks):
        y = 4 + i * (bar_h + gap)
        w = (per_rank[r] / hi) * pw if hi else 0
        out.append(f'<text x="{pad_l - 6}" y="{y + bar_h - 3}" '
                   f'text-anchor="end">r{r}</text>')
        out.append(
            f'<rect x="{pad_l}" y="{y}" width="{max(w, 1):.1f}" '
            f'height="{bar_h}" rx="2" fill="var(--series-1)">'
            f'<title>rank {r}: {_fmt(per_rank[r])} {what}</title></rect>'
        )
    out.append("</svg>")
    return "".join(out)


_KIND_COLORS = {
    "work": "var(--series-1)",
    "comm": "var(--series-2)",
    "idle": "var(--series-3)",
}


def _svg_critical_lane(analysis, label: str, width: int = 940,
                       height: int = 44) -> str:
    """Legend plus one horizontal lane tiling [0, makespan] with the path
    segments.

    Each segment is coloured by its kind (work / comm / idle); the tooltip
    carries the phase, the rank on the path, and the segment's seconds.
    The lane's clock (virtual or wall) comes from the analysis itself.
    """
    if analysis.makespan <= 0 or not analysis.segments:
        return ""
    unit = "wall" if analysis.clock == "wall" else "virtual"
    pad_l, pad_r, pad_t = 72, 12, 4
    pw = width - pad_l - pad_r

    def px(t):
        return pad_l + (t / analysis.makespan) * pw

    out = [_legend(list(_KIND_COLORS)),
           f'<svg viewBox="0 0 {width} {height}" width="{width}" '
           f'height="{height}" role="img">']
    out.append(f'<text x="{pad_l - 6}" y="{pad_t + 14}" '
               f'text-anchor="end">{_html.escape(label)}</text>')
    for seg in analysis.segments:
        w = max(px(seg.t1) - px(seg.t0), 0.5)
        who = "framework" if seg.rank is None else f"rank {seg.rank}"
        color = _KIND_COLORS.get(seg.kind, "var(--baseline)")
        out.append(
            f'<rect x="{px(seg.t0):.1f}" y="{pad_t}" width="{w:.1f}" '
            f'height="18" fill="{color}">'
            f"<title>{_html.escape(seg.phase)} — {_html.escape(who)} "
            f"{_html.escape(seg.kind)}: {_fmt(seg.seconds)} s "
            f"({_fmt(seg.t0)} .. {_fmt(seg.t1)})</title></rect>"
        )
    out.append(f'<text x="{pad_l}" y="{height - 4}">0 s</text>')
    out.append(f'<text x="{width - pad_r}" y="{height - 4}" '
               f'text-anchor="end">{_fmt(analysis.makespan)} s ({unit})'
               f"</text>")
    out.append("</svg>")
    return "".join(out)


_MAX_TIMELINE_SPANS = 600
_MAX_TIMELINE_OPS = 1500


def _svg_timeline(tracer: Tracer, width: int = 940) -> str:
    """Per-rank timeline: span bands on the framework lane plus one tick
    per VM op on its rank's lane.

    The ticks are the causal nodes of the modelled (virtual-clock) runs,
    placed at the run's ``base`` plus the node's start.  A caption under
    the SVG notes any downsampling.
    """
    makespan = _makespan(tracer)
    if makespan <= 0:
        return ""
    from .causal import runs_from_tracer

    spans = [s for s in tracer.spans if not s.open]
    ops = [(run.base + n.t_start, n)
           for run in runs_from_tracer(tracer) for n in run.nodes]
    notes = []
    if len(spans) > _MAX_TIMELINE_SPANS:
        notes.append(f"showing {_MAX_TIMELINE_SPANS} of {len(spans)} spans "
                     "(longest kept)")
        spans = sorted(spans, key=lambda s: s.v_duration,
                       reverse=True)[:_MAX_TIMELINE_SPANS]
    if len(ops) > _MAX_TIMELINE_OPS:
        stride = -(-len(ops) // _MAX_TIMELINE_OPS)
        notes.append(f"showing every {stride}th of {len(ops)} VM ops")
        ops = ops[::stride]

    lanes = [None] + sorted({n.rank for _t, n in ops})  # lane 0: spans
    lane_of = {r: i for i, r in enumerate(lanes)}
    max_depth = max([s.depth for s in spans] or [0])
    lane_h = 14 * (max_depth + 1) + 6
    pad_l, pad_r, pad_t = 72, 12, 6
    pw = width - pad_l - pad_r
    height = pad_t + len(lanes) * lane_h + 20

    def px(t):
        return pad_l + (t / makespan) * pw

    out = [f'<svg viewBox="0 0 {width} {height}" width="{width}" '
           f'height="{height}" role="img">']
    for i, lane in enumerate(lanes):
        y = pad_t + i * lane_h
        label = "framework" if lane is None else f"rank {lane}"
        out.append(f'<text x="{pad_l - 6}" y="{y + 12}" '
                   f'text-anchor="end">{label}</text>')
        out.append(f'<line x1="{pad_l}" y1="{y + lane_h - 2}" '
                   f'x2="{width - pad_r}" y2="{y + lane_h - 2}" '
                   f'stroke="var(--gridline)" stroke-width="1"/>')
    for s in spans:
        y = pad_t + 2 + s.depth * 14
        w = max((s.v_duration / makespan) * pw, 1.0)
        out.append(
            f'<rect x="{px(s.v_start):.1f}" y="{y}" width="{w:.1f}" '
            f'height="10" rx="2" fill="var(--series-1)" '
            f'fill-opacity="{max(0.25, 0.9 - 0.18 * s.depth):.2f}">'
            f'<title>{_html.escape(s.name)}: {_fmt(s.v_duration)} s virtual '
            f'(start {_fmt(s.v_start)})</title></rect>'
        )
    for t, n in ops:
        y = pad_t + lane_of[n.rank] * lane_h + lane_h - 8
        out.append(
            f'<line x1="{px(t):.1f}" y1="{y}" '
            f'x2="{px(t):.1f}" y2="{y + 5}" '
            f'stroke="var(--series-2)" stroke-width="1">'
            f'<title>vm.{n.kind} @ {_fmt(t)} s</title>'
            f"</line>"
        )
    out.append(f'<text x="{pad_l}" y="{height - 6}">0 s</text>')
    out.append(f'<text x="{width - pad_r}" y="{height - 6}" '
               f'text-anchor="end">{_fmt(makespan)} s (virtual)</text>')
    out.append("</svg>")
    if notes:
        out.append(f'<div class="caption">{_html.escape("; ".join(notes))}'
                   "</div>")
    return "".join(out)


def _html_table(headers: list[str], rows: list[list[str]]) -> str:
    out = ["<table><thead><tr>"]
    out.extend(f"<th>{_html.escape(h)}</th>" for h in headers)
    out.append("</tr></thead><tbody>")
    for row in rows:
        out.append("<tr>" + "".join(
            f"<td>{_html.escape(c)}</td>" for c in row) + "</tr>")
    out.append("</tbody></table>")
    return "".join(out)


#: How the HTML writer draws each block kind.
_HTML = {
    "table": _html_table,
    "chart": _svg_line_chart,
    "text": lambda text: f"<pre>{_html.escape(text)}</pre>",
    "bars": _svg_rank_bars,
    "lane": _svg_critical_lane,
    "timeline": _svg_timeline,
}


def render_html(report: Report, title: str = "repro run report",
                source: str = "") -> str:
    """Render the report as a single self-contained HTML page."""
    tiles = "".join(
        f'<div class="tile"><div class="v">{_html.escape(v)}</div>'
        f'<div class="k">{_html.escape(k)}</div></div>'
        for k, v in report.summary
    )
    sections = [f'<section><div class="tiles">{tiles}</div></section>']
    for heading, blocks in report.sections:
        body = "".join(_HTML[kind](*args) for kind, *args in blocks)
        if body:
            sections.append(f"<section><h2>{_html.escape(heading)}</h2>"
                            f"{body}</section>")
    sub = _html.escape(source) if source else ""
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        f"<title>{_html.escape(title)}</title>\n"
        f"<style>{_CSS}</style></head>\n"
        '<body class="viz-root">\n'
        f"<h1>{_html.escape(title)}</h1>\n"
        f'<p class="sub">{sub}</p>\n'
        + "\n".join(sections)
        + "\n</body></html>\n"
    )
