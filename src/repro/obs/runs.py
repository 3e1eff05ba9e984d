"""Cross-run history store (``.repro_runs/``).

A traced run on its own is an island: a JSONL file with nothing to
compare it against.  This module gives a user's traced runs a durable,
queryable history — the substrate the ROADMAP's trace-driven adaptive
control reads its policy evidence from.  It gates nothing: virtual
seconds are pinned exactly by ``tests/experiments/test_golden_series.py``
and host time PR over PR is ``benchmarks/e2e`` + ``scripts/ab_pairs.py``
(``BENCH_history.jsonl``).

:class:`RunStore`
    A directory (default ``.repro_runs/``, override with the
    ``REPRO_RUNS_DIR`` environment variable) holding one small JSON
    document per indexed run (schema ``repro.runs/v1``): creation time,
    kind (``trace``), label, a hash of the run
    configuration, the backends involved, and a flat map of headline
    metrics (makespan, wall seconds, per-phase virtual seconds, balance
    quality, transport totals, resource peaks).  One-file-per-run keeps
    concurrent writers (CI shards, parallel local runs) conflict-free.
    Anyone can drop a file into the directory, so every document is
    shape-checked on read (:meth:`RunRecord.from_json`): listings skip
    what is not a run record, ``show``/``compare`` name it and exit 2.

:func:`summarize_trace`
    Extract the headline-metric map from a trace file or in-memory
    tracer — phase virtual seconds, critical-path makespan, measured
    wall makespans, partition quality, remap volume, transport counters,
    and the ``repro.resource.*`` gauges.

:func:`compare_records`
    Metric-by-metric deltas between two runs.

Surfaced as ``repro runs list|show|compare|index``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field

__all__ = [
    "RunRecord",
    "RunStore",
    "format_compare",
    "format_record",
    "format_runs_list",
]

RUNS_SCHEMA = "repro.runs/v1"

def default_store_dir() -> str:
    """The store root: ``$REPRO_RUNS_DIR`` or ``.repro_runs`` in the cwd."""
    return os.environ.get("REPRO_RUNS_DIR") or os.path.join(
        os.getcwd(), ".repro_runs"
    )


def hash_config(config: dict | None) -> str:
    """Stable short hash of a run-configuration mapping."""
    text = json.dumps(config or {}, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _finite_number(v) -> bool:
    """A real, finite number: no bool, NaN, infinity, or int too large
    for a float (JSON can carry all of them)."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


@dataclass
class RunRecord:
    """One indexed run (document schema ``repro.runs/v1``)."""

    id: str
    created: str  #: ISO-8601 UTC
    kind: str  #: "trace"
    label: str
    config: dict = field(default_factory=dict)
    config_hash: str = ""
    source: str = ""  #: trace path the record came from
    backends: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)  #: flat name -> number

    def __post_init__(self):
        if not self.config_hash:
            self.config_hash = hash_config(self.config)

    def to_json(self) -> dict:
        return {
            "schema": RUNS_SCHEMA,
            "id": self.id,
            "created": self.created,
            "kind": self.kind,
            "label": self.label,
            "config": self.config,
            "config_hash": self.config_hash,
            "source": self.source,
            "backends": list(self.backends),
            "metrics": dict(self.metrics),
        }

    @classmethod
    def from_json(cls, doc) -> "RunRecord":
        """Build a record from a parsed store document.

        The store directory is outside input, so the shape every reader
        relies on is checked here; anything else is a ``ValueError``.
        """
        if not isinstance(doc, dict):
            raise ValueError(
                f"run record must be a JSON object, got {type(doc).__name__}"
            )
        if doc.get("schema") != RUNS_SCHEMA:
            raise ValueError(
                f"unsupported run-record schema {doc.get('schema')!r} "
                f"(expected {RUNS_SCHEMA!r})"
            )
        for key in ("id", "created", "kind", "label"):
            if not isinstance(doc.get(key), str):
                raise ValueError(f"run record field {key!r} must be a string")
        backends = doc.get("backends", [])
        if not isinstance(backends, list) or not all(
            isinstance(b, str) for b in backends
        ):
            raise ValueError(
                "run record field 'backends' must be a list of strings"
            )
        metrics = doc.get("metrics", {})
        if not isinstance(metrics, dict) or not all(
            _finite_number(v) for v in metrics.values()
        ):
            raise ValueError(
                "run record field 'metrics' must map names to finite numbers"
            )
        return cls(
            id=doc["id"],
            created=doc["created"],
            kind=doc["kind"],
            label=doc["label"],
            config=doc.get("config", {}),
            config_hash=doc.get("config_hash", ""),
            source=doc.get("source", ""),
            backends=backends,
            metrics={k: float(v) for k, v in metrics.items()},
        )


class RunStore:
    """One-JSON-file-per-run store under ``root`` (created lazily)."""

    def __init__(self, root: str | None = None):
        self.root = root or default_store_dir()

    def _path(self, run_id: str) -> str:
        return os.path.join(self.root, f"{run_id}.json")

    def add(self, kind: str, label: str, metrics: dict,
            config: dict | None = None, source: str = "",
            backends=()) -> RunRecord:
        """Index one run; returns the stored record (id: time + salt)."""
        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
        salt = hashlib.sha256(os.urandom(16)).hexdigest()[:8]
        run_id = f"{stamp}-{salt}"
        rec = RunRecord(
            id=run_id,
            created=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            kind=kind,
            label=label,
            config=dict(config or {}),
            config_hash="",
            source=source,
            backends=sorted(backends),
            metrics={k: float(v) for k, v in metrics.items()
                     if _finite_number(v)},
        )
        os.makedirs(self.root, exist_ok=True)
        tmp = self._path(run_id) + f".tmp.{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(rec.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, self._path(run_id))
        return rec

    def get(self, run_id: str) -> RunRecord:
        """Load one record by exact id or unique prefix."""
        path = self._path(run_id)
        if not os.path.exists(path):
            matches = [r for r in self.ids() if r.startswith(run_id)]
            if len(matches) == 1:
                path = self._path(matches[0])
            elif matches:
                raise KeyError(
                    f"run id prefix {run_id!r} is ambiguous: {matches}"
                )
            else:
                raise KeyError(f"no run {run_id!r} in {self.root}")
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except RecursionError:
                raise ValueError("run record nests too deeply") from None
        return RunRecord.from_json(doc)

    def ids(self) -> list[str]:
        try:
            names = os.listdir(self.root)
        except OSError:
            return []
        return sorted(
            n[:-5] for n in names
            if n.endswith(".json") and not n.startswith(".")
        )

    def records(self) -> list[RunRecord]:
        """Every readable record, oldest first (id order == time order)."""
        out = []
        for run_id in self.ids():
            try:
                out.append(self.get(run_id))
            except (OSError, ValueError, KeyError):
                continue  # skip foreign/corrupt files, never fail a listing
        return out


# --- trace summarization -----------------------------------------------------


def summarize_trace(tracer) -> tuple[dict, list[str]]:
    """Headline ``(metrics, backends)`` for one tracer (or trace path).

    The metric map is flat name -> float: total/per-phase virtual
    seconds, host wall seconds, virtual and measured critical-path
    makespans, partition quality, remap volume, transport totals, and
    resource peaks — exactly the columns cross-run comparison needs.
    """
    from .causal import analyze

    if isinstance(tracer, (str, os.PathLike)):
        from .export import read_jsonl

        tracer = read_jsonl(tracer)

    metrics: dict[str, float] = {}
    roots = [s for s in tracer.spans if s.parent is None and not s.open]
    if roots:
        metrics["wall_seconds"] = sum(s.wall_duration for s in roots)
        metrics["virtual_seconds"] = sum(s.v_duration for s in roots)
    phase_v: dict[str, float] = {}
    for s in tracer.spans:
        if s.parent is not None and not s.open:
            phase_v[s.name] = phase_v.get(s.name, 0.0) + s.v_duration
    for name, v in sorted(phase_v.items()):
        metrics[f"phase.{name}.virtual_seconds"] = v

    analysis = analyze(tracer)
    if analysis.runs or analysis.supersteps:
        metrics["makespan"] = analysis.makespan
    wall = analyze(tracer, clock="wall")
    if wall.runs:
        metrics["wall_makespan"] = wall.makespan

    reg = tracer.metrics
    for name, labels, key in (
        ("repro.partition.imbalance", {"when": "before"}, "imbalance_before"),
        ("repro.partition.imbalance", {"when": "after"}, "imbalance_after"),
    ):
        v = reg.max_value(name, labels)
        if v is not None:
            metrics[key] = v
    for name, key in (
        ("repro.remap.elements_moved", "remap_elements_moved"),
        ("repro.remap.words_moved", "remap_words_moved"),
        ("repro.transport.bytes_zero_copy", "transport_bytes_zero_copy"),
        ("repro.transport.bytes_pickled", "transport_bytes_pickled"),
        ("repro.transport.spills", "transport_spills"),
    ):
        if reg.max_value(name) is not None:
            # rank-labelled transport series double the unlabelled totals,
            # so only sum the rank-free samples when both exist
            total = sum(
                float(s.value) for s in reg.samples()
                if s.name == name and s.rank is None
            ) or reg.total(name)
            metrics[key] = total

    # one gauge per process: the peak is the largest reading, CPU seconds
    # and collections add up over processes
    for key, combine in (("peak_rss_bytes", reg.max_value),
                         ("cpu_seconds", reg.total),
                         ("gc_collections", reg.total)):
        name = f"repro.resource.{key}"
        if reg.max_value(name) is not None:
            metrics[key] = combine(name)

    backends = sorted({
        s.labels_dict["backend"]
        for s in reg.samples()
        if s.name.startswith("repro.backend.") and "backend" in s.labels_dict
    })
    return metrics, backends


def index_trace(store: RunStore, trace_path, label: str = "",
                config: dict | None = None, tracer=None) -> RunRecord:
    """Summarize ``trace_path`` (or its already-loaded ``tracer``) and add
    it to ``store`` as a trace run."""
    metrics, backends = summarize_trace(
        trace_path if tracer is None else tracer
    )
    return store.add(
        kind="trace",
        label=label or os.path.basename(str(trace_path)),
        metrics=metrics,
        config=config,
        source=str(trace_path),
        backends=backends,
    )


# --- analytics ---------------------------------------------------------------


def compare_records(a: RunRecord, b: RunRecord) -> list[tuple]:
    """``(metric, a_value, b_value, delta, pct)`` rows over both metric maps.

    ``delta = b - a``; ``pct`` is the relative change vs ``a`` (None for
    a zero/missing base).  Metrics present on only one side get a None
    on the missing side.
    """
    rows = []
    for name in sorted(set(a.metrics) | set(b.metrics)):
        va, vb = a.metrics.get(name), b.metrics.get(name)
        if va is None or vb is None:
            rows.append((name, va, vb, None, None))
            continue
        delta = vb - va
        pct = (delta / abs(va) * 100.0) if va else None
        rows.append((name, va, vb, delta, pct))
    return rows


# --- formatting --------------------------------------------------------------


def _fmt_v(v) -> str:
    if v is None:
        return "-"
    a = abs(v)
    if a >= 1e6 or (a > 0 and a < 1e-4):
        return f"{v:.4g}"
    return f"{v:.6g}"


def format_runs_list(records: list[RunRecord]) -> str:
    """One row per stored run, newest last."""
    if not records:
        return "no runs stored (index one with `repro runs index <trace>`)"
    lines = [
        f"{'id':<24s} {'kind':<6s} {'label':<28s} {'backends':<16s} "
        f"{'makespan':>10s} {'wall s':>9s}"
    ]
    for r in records:
        makespan = r.metrics.get("makespan")
        wall = r.metrics.get("wall_seconds")
        lines.append(
            f"{r.id:<24.24s} {r.kind:<6.6s} {r.label:<28.28s} "
            f"{','.join(r.backends) or '-':<16.16s} "
            f"{_fmt_v(makespan):>10s} {_fmt_v(wall):>9s}"
        )
    lines.append(f"{len(records)} run(s)")
    return "\n".join(lines)


def format_record(rec: RunRecord) -> str:
    lines = [
        f"run {rec.id}",
        f"  created:  {rec.created}",
        f"  kind:     {rec.kind}",
        f"  label:    {rec.label}",
        f"  source:   {rec.source or '-'}",
        f"  backends: {', '.join(rec.backends) or '-'}",
        f"  config:   {json.dumps(rec.config, sort_keys=True)} "
        f"(hash {rec.config_hash})",
        "  metrics:",
    ]
    for name, v in sorted(rec.metrics.items()):
        lines.append(f"    {name:<40s} {_fmt_v(v):>14s}")
    return "\n".join(lines)


def format_compare(a: RunRecord, b: RunRecord) -> str:
    rows = compare_records(a, b)
    lines = [
        f"comparing {a.id} (A) vs {b.id} (B):",
        f"  {'metric':<40s} {'A':>14s} {'B':>14s} {'delta':>14s} {'pct':>8s}",
    ]
    for name, va, vb, delta, pct in rows:
        pct_s = f"{pct:+7.1f}%" if pct is not None else "       -"
        lines.append(
            f"  {name:<40.40s} {_fmt_v(va):>14s} {_fmt_v(vb):>14s} "
            f"{_fmt_v(delta):>14s} {pct_s:>8s}"
        )
    return "\n".join(lines)
