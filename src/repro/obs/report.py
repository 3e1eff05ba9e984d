"""Run reports: turn an exported trace into an ASCII or HTML dashboard.

A trace produced by ``repro step --trace-out`` (or any instrumented run)
carries the full labelled metric registry — per-cycle partition quality,
reassignment cost, remap traffic, and per-rank virtual-machine traffic.
:func:`render_ascii` prints the paper's quality-of-balance quantities as
aligned tables plus cycle-over-cycle charts
(:func:`repro.obs.ascii_plot.ascii_chart`); :func:`render_html`
emits a single self-contained HTML file with stat tiles, SVG line charts,
a per-rank timeline, a critical-path lane with per-rank slack bars
(from the causal record, when the trace carries one), and a top-span
table.  Both read only the tracer — ``repro report <trace.jsonl>``
needs no access to the original mesh.
"""

from __future__ import annotations

import html as _html

from .ascii_plot import ascii_chart
from .tracer import Tracer

__all__ = ["render_ascii", "render_html"]


# --- shared data extraction --------------------------------------------------


def _fmt(v, nd: int = 4) -> str:
    """Format a metric value: ints plainly, floats with %.*g, None as '-'."""
    if v is None:
        return "-"
    f = float(v)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return f"{f:.{nd}g}"


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


def _series(tracer: Tracer, name: str, **labels) -> dict[int, float]:
    return tracer.metrics.series(name, labels=labels or None)


def _cycle_rows(tracer: Tracer) -> list[dict]:
    """One dict per cycle with every per-cycle quantity (None = absent)."""
    reg = tracer.metrics
    fields = {
        "imb_before": _series(tracer, "repro.partition.imbalance", when="before"),
        "imb_after": _series(tracer, "repro.partition.imbalance", when="after"),
        "cut_before": _series(tracer, "repro.partition.edgecut", when="before"),
        "cut_after": _series(tracer, "repro.partition.edgecut", when="after"),
        "diag_fraction": _series(tracer, "repro.partition.diag_fraction"),
        "accepted": _series(tracer, "repro.cycle.accepted"),
        "growth": _series(tracer, "repro.cycle.growth_factor"),
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
    rows = []
    for c in reg.cycles():
        row = {"cycle": c}
        for key, series in fields.items():
            row[key] = series.get(c)
        rows.append(row)
    return rows


_PHASES = ("marking", "repartition", "gather_scatter", "reassign",
           "remap", "subdivision")


def _phase_rows(tracer: Tracer) -> list[dict]:
    per_phase = {
        p: _series(tracer, "repro.cycle.phase_seconds", phase=p)
        for p in _PHASES
    }
    total = _series(tracer, "repro.cycle.total_seconds")
    rows = []
    for c in tracer.metrics.cycles():
        row = {"cycle": c, "total": total.get(c)}
        for p in _PHASES:
            row[p] = per_phase[p].get(c)
        rows.append(row)
    return rows


_VM_COLS = (
    ("msgs sent", "repro.vm.messages_sent"),
    ("msgs recv", "repro.vm.messages_recv"),
    ("sync msgs", "repro.vm.sync_messages"),
    ("words sent", "repro.vm.words_sent"),
    ("words recv", "repro.vm.words_recv"),
    ("busy s", "repro.vm.busy_seconds"),
    ("idle s", "repro.vm.idle_seconds"),
)
_LEDGER_COLS = (
    ("msgs sent", "repro.ledger.messages_sent"),
    ("msgs recv", "repro.ledger.messages_recv"),
    ("words sent", "repro.ledger.words_sent"),
    ("words recv", "repro.ledger.words_recv"),
)
#: Measured (clock="wall") mirrors of the VM series, from real backends.
_VM_WALL_COLS = (
    ("msgs sent", "repro.vm.messages_sent"),
    ("msgs recv", "repro.vm.messages_recv"),
    ("words sent", "repro.vm.words_sent"),
    ("words recv", "repro.vm.words_recv"),
    ("busy s", "repro.vm.busy_seconds"),
    ("idle s", "repro.vm.idle_seconds"),
    ("wait s", "repro.vm.wait_seconds"),
)
_TRANSPORT_COLS = (
    ("0-copy bytes", "repro.transport.bytes_zero_copy"),
    ("pickled bytes", "repro.transport.bytes_pickled"),
    ("0-copy msgs", "repro.transport.msgs_zero_copy"),
    ("pickled msgs", "repro.transport.msgs_pickled"),
    ("slab reuse", "repro.transport.slab_reuse"),
    ("spills", "repro.transport.spills"),
)


def _rank_rows(tracer: Tracer, cols,
               labels: dict | None = None) -> tuple[list[str], list[list]]:
    """Per-rank table (summed over cycles) for a metric family.

    ``labels`` pins the label set exactly (``{}`` = unlabelled samples
    only) — necessary for the ``repro.vm.*`` family, which exists both
    modelled (no labels) and measured (``clock="wall"``).
    """
    reg = tracer.metrics
    per = {label: reg.per_rank(name, labels=labels) for label, name in cols}
    ranks = sorted({r for d in per.values() for r in d})
    headers = ["rank"] + [label for label, _ in cols]
    rows = [
        [r] + [per[label].get(r) for label, _ in cols] for r in ranks
    ]
    return headers, rows


def _transport_backends(tracer: Tracer) -> list[str]:
    """Distinct ``backend`` label values carrying transport counters."""
    out = set()
    for s in tracer.metrics.samples():
        if s.name.startswith("repro.transport."):
            out.add(dict(s.labels).get("backend", ""))
    return sorted(out)


def _top_spans(tracer: Tracer, n: int) -> list:
    closed = [s for s in tracer.spans if not s.open]
    return sorted(closed, key=lambda s: s.v_duration, reverse=True)[:n]


def _makespan(tracer: Tracer) -> float:
    return max([s.v_end for s in tracer.spans if not s.open] or [0.0])


def _causal_analysis(tracer: Tracer):
    """The trace's :class:`~repro.obs.causal.TraceAnalysis`, or ``None``
    when the trace carries no causal record."""
    from .causal import analyze

    analysis = analyze(tracer)
    if not analysis.runs and not analysis.supersteps:
        return None
    return analysis


def _wall_analysis(tracer: Tracer):
    """The measured (``clock="wall"``) analysis, or ``None`` when the
    trace carries no measured runs (virtual-only traces)."""
    if not any(e.name == "vm.run" and e.attrs.get("clock") == "wall"
               for e in tracer.events):
        return None
    from .causal import analyze

    analysis = analyze(tracer, clock="wall")
    return analysis if analysis.runs else None


def _resource_rows(tracer: Tracer) -> tuple[list[str], list[list[str]]]:
    """Per-process resource-peak table from the trace's ``resource``
    records (empty when the run was not sampled)."""
    from .resource import resource_peaks

    peaks = resource_peaks(tracer.resource_samples)
    if not peaks:
        return [], []
    headers = ["process", "peak rss (MiB)", "cpu (s)", "gc collections",
               "samples"]
    rows = []
    for key in sorted(peaks, key=lambda k: (k is not None, k)):
        d = peaks[key]
        rows.append([
            "host" if key is None else f"rank {key}",
            f"{d['peak_rss_bytes'] / (1 << 20):.1f}",
            _fmt(d["cpu_seconds"]),
            _fmt(d["gc_collections"]),
            _fmt(d["samples"]),
        ])
    return headers, rows


def _rank_path_stats(analysis) -> tuple[dict[int, float], dict[int, float]]:
    """Per-rank (on-path seconds, summed slack) across all VM runs."""
    on_path: dict[int, float] = {}
    slack: dict[int, float] = {}
    for stats in analysis.stats.values():
        for st in stats:
            on_path[st.rank] = on_path.get(st.rank, 0.0) + st.on_path
            slack[st.rank] = slack.get(st.rank, 0.0) + st.slack
    return on_path, slack


# --- ASCII dashboard ---------------------------------------------------------


def render_ascii(tracer: Tracer, source: str = "", top: int = 10) -> str:
    """Render the trace as an ASCII dashboard (tables + charts)."""
    reg = tracer.metrics
    cycles = reg.cycles()
    rows = _cycle_rows(tracer)
    parts: list[str] = []

    head = "repro run report"
    if source:
        head += f" — {source}"
    parts.append(head)
    parts.append("=" * len(head))
    head_line = (
        f"spans: {sum(1 for s in tracer.spans if not s.open)}   "
        f"events: {len(tracer.events)}   metric samples: {len(reg)}   "
        f"cycles: {len(cycles)}   "
        f"virtual makespan: {_fmt(_makespan(tracer))} s"
    )
    measured_runs = sum(
        1 for e in tracer.events
        if e.name == "vm.run" and e.attrs.get("clock") == "wall"
    )
    if measured_runs:
        head_line += f"   measured runs: {measured_runs}"
    parts.append(head_line)

    if rows:
        parts.append("")
        parts.append("Balance quality per cycle")
        parts.append(_table(
            ["cycle", "imb before", "imb after", "cut before", "cut after",
             "diag %", "accepted"],
            [[
                str(r["cycle"]), _fmt(r["imb_before"]), _fmt(r["imb_after"]),
                _fmt(r["cut_before"]), _fmt(r["cut_after"]),
                "-" if r["diag_fraction"] is None
                else f"{100 * r['diag_fraction']:.1f}",
                "-" if r["accepted"] is None
                else ("yes" if r["accepted"] else "no"),
            ] for r in rows],
        ))

        if any(r["total_v_greedy"] is not None or r["total_v_mwbg"] is not None
               for r in rows):
            parts.append("")
            parts.append("Reassignment cost (TotalV / MaxV / MaxSR)")
            parts.append(_table(
                ["cycle", "TotalV greedy", "TotalV mwbg", "MaxV greedy",
                 "MaxV mwbg", "MaxSR greedy", "MaxSR mwbg"],
                [[
                    str(r["cycle"]),
                    _fmt(r["total_v_greedy"]), _fmt(r["total_v_mwbg"]),
                    _fmt(r["max_v_greedy"]), _fmt(r["max_v_mwbg"]),
                    _fmt(r["max_sr_greedy"]), _fmt(r["max_sr_mwbg"]),
                ] for r in rows],
            ))

        if any(r["elements_moved"] is not None for r in rows):
            parts.append("")
            parts.append("Remap traffic per cycle")
            parts.append(_table(
                ["cycle", "elements moved", "words moved", "messages"],
                [[
                    str(r["cycle"]), _fmt(r["elements_moved"]),
                    _fmt(r["words_moved"]), _fmt(r["remap_messages"]),
                ] for r in rows],
            ))

        phase_rows = _phase_rows(tracer)
        parts.append("")
        parts.append("Cycle anatomy (virtual seconds per phase)")
        parts.append(_table(
            ["cycle"] + list(_PHASES) + ["total"],
            [[str(r["cycle"])] + [_fmt(r[p]) for p in _PHASES]
             + [_fmt(r["total"])] for r in phase_rows],
        ))

    if len(cycles) >= 2:
        imb = {
            "before": {c: v for c, v in
                       _series(tracer, "repro.partition.imbalance",
                               when="before").items()},
            "after": {c: v for c, v in
                      _series(tracer, "repro.partition.imbalance",
                              when="after").items()},
        }
        imb = {k: s for k, s in imb.items() if s}
        if imb:
            parts.append("")
            parts.append(ascii_chart(
                imb, title="Imbalance factor by cycle", xlabel="cycle"
            ))
        tv = {
            m: _series(tracer, "repro.reassign.total_v", method=m)
            for m in ("greedy", "mwbg")
        }
        tv = {k: s for k, s in tv.items() if s}
        if tv:
            parts.append("")
            parts.append(ascii_chart(
                tv, title="TotalV by cycle", xlabel="cycle"
            ))

    for label, cols in (("virtual machine", _VM_COLS),
                        ("cost ledger", _LEDGER_COLS)):
        headers, rank_rows = _rank_rows(tracer, cols, labels={})
        if rank_rows:
            parts.append("")
            parts.append(f"Per-rank traffic ({label}, summed over cycles)")
            parts.append(_table(
                headers, [[_fmt(c) for c in row] for row in rank_rows]
            ))

    headers, rank_rows = _rank_rows(tracer, _VM_WALL_COLS,
                                    labels={"clock": "wall"})
    if rank_rows:
        parts.append("")
        parts.append("Per-rank traffic (measured, wall clock)")
        parts.append(_table(
            headers, [[_fmt(c) for c in row] for row in rank_rows]
        ))

    for backend in _transport_backends(tracer):
        labels = {"backend": backend} if backend else {}
        headers, rank_rows = _rank_rows(tracer, _TRANSPORT_COLS,
                                        labels=labels)
        if not rank_rows:
            continue
        totals = ["total"] + [
            sum(row[i + 1] or 0 for row in rank_rows)
            for i in range(len(_TRANSPORT_COLS))
        ]
        parts.append("")
        parts.append(f"Transport counters ({backend or 'backend'})")
        parts.append(_table(
            headers,
            [[_fmt(c) for c in row] for row in rank_rows]
            + [[str(totals[0])] + [_fmt(c) for c in totals[1:]]],
        ))

    res_headers, res_rows = _resource_rows(tracer)
    if res_rows:
        parts.append("")
        parts.append("Resource usage (per process)")
        parts.append(_table(res_headers, res_rows))

    analysis = _causal_analysis(tracer)
    if analysis is not None:
        from .causal import format_critical_path

        parts.append("")
        parts.append("Critical path (from the causal record)")
        parts.append(format_critical_path(analysis, top=top))

    wall = _wall_analysis(tracer)
    if wall is not None:
        from .causal import format_critical_path

        parts.append("")
        parts.append("Measured critical path (wall clock)")
        parts.append(format_critical_path(wall, top=top))
        if analysis is not None and analysis.makespan > 0:
            parts.append("")
            parts.append(
                f"measured vs modelled: {_fmt(wall.makespan)} wall s "
                f"vs {_fmt(analysis.makespan)} virtual s"
            )

    spans = _top_spans(tracer, top)
    if spans:
        parts.append("")
        parts.append(f"Top {len(spans)} spans by virtual duration")
        parts.append(_table(
            ["name", "depth", "v_start", "v_seconds", "wall_seconds"],
            [[
                s.name, str(s.depth), _fmt(s.v_start),
                _fmt(s.v_duration), _fmt(s.wall_duration, 3),
            ] for s in spans],
        ))

    return "\n".join(parts) + "\n"


# --- HTML report -------------------------------------------------------------

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
  :root:where(:not([data-theme="light"])) .viz-root {
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
:root[data-theme="dark"] .viz-root {
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
.viz-root .legend { font-size: 12px; color: var(--text-secondary); margin: 4px 0 8px; }
.viz-root .legend .chip {
  display: inline-block; width: 10px; height: 10px; border-radius: 2px;
  margin: 0 4px 0 12px; vertical-align: -1px;
}
.viz-root .caption { font-size: 11px; color: var(--text-muted); margin-top: 6px; }
.viz-root svg text { fill: var(--text-muted); font-size: 10px; }
"""

_SERIES_VARS = ("var(--series-1)", "var(--series-2)", "var(--series-3)")


def _svg_line_chart(series: dict[str, dict[int, float]],
                    width: int = 560, height: int = 200,
                    xlabel: str = "cycle") -> str:
    """Multi-series SVG line chart (≤3 series; 2px lines, 8px markers)."""
    series = {k: s for k, s in list(series.items())[:3] if s}
    if not series:
        return ""
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

    out = [f'<svg viewBox="0 0 {width} {height}" width="{width}" '
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


def _svg_rank_bars(per_rank: dict[int, float], width: int = 560,
                   height: int = 160, unit: str = "") -> str:
    """Horizontal per-rank bar chart (single series, slot-1 hue)."""
    if not per_rank:
        return ""
    ranks = sorted(per_rank)
    hi = max(per_rank.values()) or 1.0
    pad_l, pad_r = 48, 12
    pw = width - pad_l - pad_r
    bar_h, gap = 14, 4
    height = max(height, len(ranks) * (bar_h + gap) + 10)
    out = [f'<svg viewBox="0 0 {width} {height}" width="{width}" '
           f'height="{height}" role="img">']
    for i, r in enumerate(ranks):
        y = 4 + i * (bar_h + gap)
        w = (per_rank[r] / hi) * pw if hi else 0
        out.append(f'<text x="{pad_l - 6}" y="{y + bar_h - 3}" '
                   f'text-anchor="end">r{r}</text>')
        out.append(
            f'<rect x="{pad_l}" y="{y}" width="{max(w, 1):.1f}" '
            f'height="{bar_h}" rx="2" fill="var(--series-1)">'
            f'<title>rank {r}: {_fmt(per_rank[r])}{unit}</title></rect>'
        )
    out.append("</svg>")
    return "".join(out)


_KIND_COLORS = {
    "work": "var(--series-1)",
    "comm": "var(--series-2)",
    "idle": "var(--series-3)",
}


def _svg_critical_lane(analysis, width: int = 940, height: int = 44,
                       label: str = "path") -> str:
    """One horizontal lane tiling [0, makespan] with the path segments.

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

    out = [f'<svg viewBox="0 0 {width} {height}" width="{width}" '
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


def _html_table(headers: list[str], rows: list[list[str]]) -> str:
    out = ["<table><thead><tr>"]
    out.extend(f"<th>{_html.escape(h)}</th>" for h in headers)
    out.append("</tr></thead><tbody>")
    for row in rows:
        out.append("<tr>" + "".join(
            f"<td>{_html.escape(str(c))}</td>" for c in row) + "</tr>")
    out.append("</tbody></table>")
    return "".join(out)


def _legend(names: list[str]) -> str:
    chips = "".join(
        f'<span class="chip" style="background:{color}"></span>'
        f"{_html.escape(name)}"
        for name, color in zip(names, _SERIES_VARS)
    )
    return f'<div class="legend">{chips}</div>'


_MAX_TIMELINE_SPANS = 600
_MAX_TIMELINE_OPS = 1500


def _svg_timeline(tracer: Tracer, width: int = 940) -> tuple[str, str]:
    """Per-rank timeline: span bands per lane plus one tick per VM op.

    The ticks are the causal nodes of the modelled (virtual-clock) runs,
    placed at the run's ``base`` plus the node's start.  Returns ``(svg,
    caption)``; the caption notes any downsampling.
    """
    makespan = _makespan(tracer)
    if makespan <= 0:
        return "", ""
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

    ranks = sorted({s.rank for s in spans if s.rank is not None}
                   | {n.rank for _t, n in ops})
    lanes = [None] + ranks  # lane 0 = framework (un-ranked spans)
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
        lane = lane_of.get(s.rank, 0)
        y = pad_t + lane * lane_h + 2 + s.depth * 14
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
    return "".join(out), "; ".join(notes)


def render_html(tracer: Tracer, title: str = "repro run report",
                source: str = "", top: int = 10) -> str:
    """Render the trace as a single self-contained HTML report."""
    reg = tracer.metrics
    rows = _cycle_rows(tracer)
    cycles = reg.cycles()
    makespan = _makespan(tracer)
    sections: list[str] = []

    tiles = [
        ("cycles", str(len(cycles))),
        ("virtual makespan", f"{_fmt(makespan)} s"),
        ("metric samples", str(len(reg))),
        ("max imbalance (before)",
         _fmt(reg.max_value("repro.partition.imbalance", {"when": "before"}))),
        ("max imbalance (after)",
         _fmt(reg.max_value("repro.partition.imbalance", {"when": "after"}))),
        ("total remap words",
         _fmt(reg.total("repro.remap.words_moved"))),
    ]
    tile_html = "".join(
        f'<div class="tile"><div class="v">{_html.escape(v)}</div>'
        f'<div class="k">{_html.escape(k)}</div></div>'
        for k, v in tiles
    )
    sections.append(f'<section><div class="tiles">{tile_html}</div></section>')

    imb = {
        "before": _series(tracer, "repro.partition.imbalance", when="before"),
        "after": _series(tracer, "repro.partition.imbalance", when="after"),
    }
    imb = {k: s for k, s in imb.items() if s}
    if imb:
        chart = _svg_line_chart(imb)
        table = _html_table(
            ["cycle", "imbalance before", "imbalance after", "edge cut before",
             "edge cut after", "diag %", "accepted"],
            [[
                r["cycle"], _fmt(r["imb_before"]), _fmt(r["imb_after"]),
                _fmt(r["cut_before"]), _fmt(r["cut_after"]),
                "-" if r["diag_fraction"] is None
                else f"{100 * r['diag_fraction']:.1f}",
                "-" if r["accepted"] is None
                else ("yes" if r["accepted"] else "no"),
            ] for r in rows],
        )
        sections.append(
            "<section><h2>Partition quality by cycle</h2>"
            + _legend(list(imb)) + chart + table + "</section>"
        )

    tv = {m: _series(tracer, "repro.reassign.total_v", method=m)
          for m in ("greedy", "mwbg")}
    tv = {k: s for k, s in tv.items() if s}
    if tv:
        chart = _svg_line_chart(tv)
        table = _html_table(
            ["cycle", "TotalV greedy", "TotalV mwbg", "MaxV greedy",
             "MaxV mwbg", "MaxSR greedy", "MaxSR mwbg"],
            [[
                r["cycle"],
                _fmt(r["total_v_greedy"]), _fmt(r["total_v_mwbg"]),
                _fmt(r["max_v_greedy"]), _fmt(r["max_v_mwbg"]),
                _fmt(r["max_sr_greedy"]), _fmt(r["max_sr_mwbg"]),
            ] for r in rows],
        )
        sections.append(
            "<section><h2>Reassignment cost (TotalV / MaxV / MaxSR)</h2>"
            + _legend(list(tv)) + chart + table + "</section>"
        )

    timeline, note = _svg_timeline(tracer)
    if timeline:
        caption = f'<div class="caption">{_html.escape(note)}</div>' if note else ""
        sections.append(
            "<section><h2>Per-rank timeline (virtual clock)</h2>"
            + timeline + caption + "</section>"
        )

    analysis = _causal_analysis(tracer)
    wall = _wall_analysis(tracer)
    if analysis is not None or wall is not None:
        primary = analysis if analysis is not None else wall
        lane = ""
        if analysis is not None:
            lane += _svg_critical_lane(analysis, label="modelled")
        if wall is not None:
            # measured-vs-modelled overlay: the wall lane right under the
            # virtual one, each normalized to its own makespan
            lane += _svg_critical_lane(wall, label="measured")
        if analysis is not None and wall is not None:
            lane += (
                '<div class="caption">each lane spans its own makespan: '
                f"modelled {_fmt(analysis.makespan)} virtual s, measured "
                f"{_fmt(wall.makespan)} wall s</div>"
            )
        attribution = _html_table(
            ["phase", "kind", "seconds", "share %"],
            [[
                phase, kind, _fmt(sec),
                f"{100.0 * sec / (primary.makespan or 1.0):.1f}",
            ] for (phase, kind), sec in sorted(
                primary.by_phase_kind.items(), key=lambda kv: -kv[1]
            )],
        )
        body = _legend(list(_KIND_COLORS)) + lane + attribution
        on_path, slack = _rank_path_stats(primary)
        if on_path:
            body += (
                "<h2>Seconds on the critical path, per rank</h2>"
                + _svg_rank_bars(on_path, unit=" s on path")
            )
        if slack and any(v > 0 for v in slack.values()):
            body += (
                "<h2>Slack per rank (summed over vm runs)</h2>"
                + _svg_rank_bars(slack, unit=" s slack")
                + '<div class="caption">a rank with zero slack is on the '
                "critical path of every run it appears in</div>"
            )
        sections.append(
            "<section><h2>Critical path (causal record)</h2>"
            + body + "</section>"
        )

    for label, cols, labels in (
            ("virtual machine", _VM_COLS, {}),
            ("cost ledger", _LEDGER_COLS, {}),
            ("measured, wall clock", _VM_WALL_COLS, {"clock": "wall"})):
        headers, rank_rows = _rank_rows(tracer, cols, labels=labels)
        if not rank_rows:
            continue
        words = reg.per_rank(
            "repro.ledger.words_sent" if label == "cost ledger"
            else "repro.vm.words_sent",
            labels=labels,
        )
        bars = _svg_rank_bars(words, unit=" words sent")
        table = _html_table(
            headers, [[_fmt(c) for c in row] for row in rank_rows]
        )
        sections.append(
            f"<section><h2>Per-rank traffic — {label}</h2>"
            + bars + table + "</section>"
        )

    for backend in _transport_backends(tracer):
        labels = {"backend": backend} if backend else {}
        headers, rank_rows = _rank_rows(tracer, _TRANSPORT_COLS,
                                        labels=labels)
        if not rank_rows:
            continue
        bars = _svg_rank_bars(
            reg.per_rank("repro.transport.bytes_zero_copy", labels=labels),
            unit=" zero-copy bytes",
        )
        table = _html_table(
            headers, [[_fmt(c) for c in row] for row in rank_rows]
        )
        sections.append(
            f"<section><h2>Transport counters — {_html.escape(backend or 'backend')}</h2>"
            + bars + table + "</section>"
        )

    res_headers, res_rows = _resource_rows(tracer)
    if res_rows:
        from .resource import resource_peaks

        peaks = resource_peaks(tracer.resource_samples)
        rss_by_rank = {
            k: d["peak_rss_bytes"] / (1 << 20)
            for k, d in peaks.items() if k is not None
        }
        bars = _svg_rank_bars(rss_by_rank, unit=" MiB peak RSS") \
            if rss_by_rank else ""
        sections.append(
            "<section><h2>Resource usage (per process)</h2>"
            + bars + _html_table(res_headers, res_rows) + "</section>"
        )

    spans = _top_spans(tracer, top)
    if spans:
        table = _html_table(
            ["name", "depth", "v_start (s)", "virtual (s)", "wall (s)"],
            [[s.name, s.depth, _fmt(s.v_start), _fmt(s.v_duration),
              _fmt(s.wall_duration, 3)] for s in spans],
        )
        sections.append(
            f"<section><h2>Top {len(spans)} spans by virtual duration</h2>"
            + table + "</section>"
        )

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
