"""Unified observability layer: phase spans, metrics, trace export, reports.

Every phase of the solve → adapt → balance cycle is double-clocked:

* **virtual seconds** — the modelled machine time accumulated by the
  :class:`~repro.parallel.ledger.CostLedger`/
  :class:`~repro.parallel.runtime.VirtualMachine` under the active
  :class:`~repro.parallel.machine.MachineModel`; this is the clock every
  paper figure is plotted in, and
* **wall seconds** — host ``time.perf_counter()`` time, i.e. what the
  reproduction itself costs to run.

A :class:`Tracer` records nestable :class:`Span` phases carrying both
clocks, :class:`PointEvent` markers (``vm.run``, ``ledger.superstep``,
``transport.spill``), and a labelled :class:`MetricsRegistry` of
time-series samples keyed by ``(name, labels, cycle, rank)`` — the one
place every quantity is stored.  Traced virtual-machine runs additionally
record their happens-before DAG (:mod:`repro.obs.causal`): every operation
becomes a :class:`~repro.obs.causal.CausalNode` and every message a
:class:`~repro.obs.causal.CausalMsg`, from which :func:`analyze`
reconstructs the virtual-time critical path, per-rank slack, and
straggler rankings (``repro critical-path`` / ``repro diff``).
Measured backends (``multiprocessing``/``shm``/``mpi4py``) record the
same DAG in *wall* seconds: a per-rank :class:`WallRecorder` logs every
send/recv/probe/work segment on ``perf_counter``, a clock handshake
estimates per-rank offsets (:class:`ClockRecord`), and
:func:`merge_streams` aligns the streams onto one timeline so
``analyze(tracer, clock="wall")`` yields a measured critical path next
to the modelled one.
:mod:`repro.obs.export` serialises a tracer to JSONL (one record per
line, schema ``repro.obs/v6``, its record types defined once in
:data:`repro.obs.export.RECORDS`) and to the Chrome trace-event format that ``chrome://tracing`` / Perfetto can open
directly — including flow-event arrows for every delivered message.
:mod:`repro.obs.report` turns a trace file into an ASCII dashboard or a
self-contained HTML run report (``repro report <trace.jsonl>``).

A run reports through its :class:`Tracer` and the exported trace file,
and through nothing else: there is no live side channel.  Two companions
round the layer out.  :mod:`repro.obs.resource` samples per-process RSS,
CPU seconds, and GC collections into the trace (``resource`` records +
``repro.resource.*`` metrics) whenever a tracer is attached.
:mod:`repro.obs.runs` is the ``.repro_runs/`` cross-run history store
(``repro runs list|show|compare|index``): one headline-metric document
per traced run.

Instrumented code takes an optional ``tracer`` argument and falls back to
the ambient tracer installed with :func:`use_tracer`, so experiment
drivers opt in with one ``with`` block and zero plumbing.
"""

from .causal import (
    CausalMsg,
    CausalNode,
    CausalRun,
    CriticalPath,
    TraceAnalysis,
    TraceDiff,
    analyze,
    critical_path,
    diff,
    format_critical_path,
    format_diff,
    rank_stats,
    run_from_result,
    runs_from_tracer,
    verify_makespans,
)
from .metrics import KINDS, MetricSample, MetricsRegistry
from .wallclock import ClockRecord, WallRecorder, merge_streams
from .tracer import (
    PointEvent,
    Span,
    Tracer,
    current_tracer,
    maybe_phase,
    phase_virtual_times,
    use_tracer,
)
from .export import (
    SCHEMA_VERSION,
    SchemaError,
    export_chrome_trace,
    export_jsonl,
    read_jsonl,
    validate_jsonl,
)
from .report import render_ascii, render_html
from .resource import (
    ResourceSample,
    ResourceSampler,
    record_resource_samples,
    resource_peaks,
    sample_resources,
)
from .runs import (
    RunRecord,
    RunStore,
    hash_config,
    index_trace,
    summarize_trace,
)

__all__ = [
    "CausalMsg",
    "CausalNode",
    "CausalRun",
    "ClockRecord",
    "CriticalPath",
    "KINDS",
    "MetricSample",
    "MetricsRegistry",
    "PointEvent",
    "ResourceSample",
    "ResourceSampler",
    "RunRecord",
    "RunStore",
    "SCHEMA_VERSION",
    "SchemaError",
    "Span",
    "TraceAnalysis",
    "TraceDiff",
    "Tracer",
    "WallRecorder",
    "analyze",
    "critical_path",
    "current_tracer",
    "diff",
    "export_chrome_trace",
    "export_jsonl",
    "format_critical_path",
    "format_diff",
    "hash_config",
    "index_trace",
    "maybe_phase",
    "merge_streams",
    "phase_virtual_times",
    "rank_stats",
    "read_jsonl",
    "record_resource_samples",
    "render_ascii",
    "render_html",
    "resource_peaks",
    "run_from_result",
    "runs_from_tracer",
    "sample_resources",
    "summarize_trace",
    "use_tracer",
    "validate_jsonl",
    "verify_makespans",
]
