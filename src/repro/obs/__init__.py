"""Unified observability layer: phase spans, metrics, trace export, reports.

Every phase of the solve → adapt → balance cycle is double-clocked:

* **virtual seconds** — the modelled machine time accumulated by the
  :class:`~repro.parallel.runtime.VirtualMachine` under the active
  :class:`~repro.parallel.machine.MachineModel`; this is the clock every
  paper figure is plotted in, and
* **wall seconds** — host ``time.perf_counter()`` time, i.e. what the
  reproduction itself costs to run.

A :class:`Tracer` records nestable :class:`Span` phases carrying both
clocks, :class:`PointEvent` markers (``vm.run``, ``transport.spill``),
and a labelled :class:`MetricsRegistry` of time-series samples keyed by
``(name, labels, cycle, rank)``.  Traced virtual-machine runs also
record their happens-before DAG (:mod:`repro.obs.causal`) as the rows
of one :class:`~repro.obs.causal.CausalRecord` per run; each operation's
:class:`~repro.obs.causal.CausalNode` and each message's
:class:`~repro.obs.causal.CausalMsg` are derived from it, and
:func:`analyze` reconstructs the virtual-time critical path, per-rank slack
and traffic, and straggler rankings (``repro critical-path`` / ``repro diff``).
Measured backends (``multiprocessing``/``shm``) record the
same DAG in *wall* seconds: a per-rank :class:`WallRecorder` logs every
send/recv/work segment on ``perf_counter`` — one clock, since the ranks
are forked on one host — and
:func:`~repro.obs.wallclock.merge_streams` merges the streams onto one
timeline so ``analyze(tracer, clock="wall")`` yields a measured critical
path next to the modelled one.
:mod:`repro.obs.export` serialises a tracer to JSONL (one record per
line, schema ``repro.obs/v9``, its record types defined once in
:data:`repro.obs.export.RECORDS`) and to the Chrome trace-event format that ``chrome://tracing`` / Perfetto can open
directly — including flow-event arrows for every delivered message.
:mod:`repro.obs.report` turns a trace file into an ASCII dashboard or a
self-contained HTML run report (``repro report <trace.jsonl>``).

A run reports through its :class:`Tracer` and the exported trace file,
and through nothing else: there is no live side channel.  Two companions
round the layer out.  :mod:`repro.obs.resource` reads each traced
process's peak RSS, CPU seconds, and GC collections once, at the end of
its run, into the ``repro.resource.*`` gauges.
:mod:`repro.obs.runs` is the ``.repro_runs/`` cross-run history store
(``repro runs list|show|compare|index``): one headline-metric document
per traced run.

An entry point (the solver, the repartitioner, the remapper, every
distributed phase, the experiment drivers) has one way to receive a
tracer: it reads the ambient one, :func:`current_tracer`, which a caller
installs with one ``with use_tracer(tracer):`` block.  Only the machines
take a tracer as an argument, from their one launcher
(``repro.dist._launch.launch``): the
:class:`~repro.parallel.runtime.VirtualMachine` and the communicator
backends.
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
    runs_from_tracer,
    verify_makespans,
)
from .metrics import KINDS, MetricSample, MetricsRegistry
from .wallclock import WallRecorder
from .tracer import (
    PointEvent,
    Span,
    Tracer,
    current_tracer,
    maybe_phase,
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
from .resource import read_resources, record_resources
from .runs import (
    RunRecord,
    RunStore,
    index_trace,
)

__all__ = [
    "CausalMsg",
    "CausalNode",
    "CausalRun",
    "CriticalPath",
    "KINDS",
    "MetricSample",
    "MetricsRegistry",
    "PointEvent",
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
    "index_trace",
    "maybe_phase",
    "rank_stats",
    "read_jsonl",
    "read_resources",
    "record_resources",
    "render_ascii",
    "render_html",
    "runs_from_tracer",
    "use_tracer",
    "validate_jsonl",
    "verify_makespans",
]
