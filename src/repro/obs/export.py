"""Serialise a :class:`~repro.obs.tracer.Tracer` to JSONL and Chrome trace.

JSONL schema (``repro.obs/v6``)
-------------------------------
One JSON object per line.  The first line is the meta record,
``{"type": "meta", "schema": "repro.obs/v6", "spans": N, "events": N,
"metrics": N, "nodes": N, "msgs": N, "clocks": N, "resources": N}``,
whose counts must match the records that follow.  Every other line is one
of the seven record types of :data:`RECORDS` — the single definition
:func:`export_jsonl`, :func:`read_jsonl` and :func:`validate_jsonl` all
walk.  A record carries ``"type"`` plus exactly the keys its table entry
declares, each present (``null`` only where the entry marks it ``?``):

``span``
    A closed phase span on both clocks; ``parent`` names an earlier
    span's ``index``, indices are unique.
``event``
    A marker on the virtual timeline (``vm.run``, ``ledger.superstep``,
    ``transport.spill``, decisions); its free-form ``attrs`` are checked
    for the markers the analysis reads (:data:`MARKER_ATTRS`).
``metric``
    One labelled time-series sample keyed by ``(name, labels, cycle,
    rank)`` (:mod:`repro.obs.metrics`); histogram values are lists.
``node``
    One operation one rank executed during virtual-machine run ``run``,
    on that run's local clock (the matching ``vm.run`` event carries the
    run's ``base`` offset into the trace timeline); ``msg`` names the
    message it produced/consumed.  See :mod:`repro.obs.causal`.
``msg``
    One message, linking its send node to the recv/probe node that
    consumed it (``recv_node`` is null if never consumed).
``clock``
    How one rank's wall clock was aligned for one *measured* run
    (:mod:`repro.obs.wallclock`).
``resource``
    One periodic process-resource sample (:mod:`repro.obs.resource`);
    ``rank`` null is the host/driver process.

A file declaring any other schema string is a :class:`SchemaError`: there
is one format, written and read by the same checkout — re-export the run.

Chrome trace export writes the ``chrome://tracing`` / Perfetto JSON object
format: spans become complete ``"X"`` slices on the *virtual* timeline
(microsecond ``ts``/``dur``), marker events become thread-scoped instants,
and each counter metric's whole-run total becomes one final ``"C"``
sample.  Ranked records render on a per-rank virtual thread; un-ranked
spans render on tid 0 ("framework").  Causal nodes render as ``cat:
"vm"`` slices on their rank's thread — one slice per operation — and
every delivered message emits a flow-event pair (``ph: "s"`` at the send,
``ph: "f"`` at the consuming recv/probe, matching ``id``) so message
arrows draw between the two threads in chrome://tracing / Perfetto.
Measured runs (``clock="wall"``) render in a second process ("measured
wall", pid 1) so their wall timeline never mixes with the virtual one;
their timestamps are re-zeroed on the earliest measured run base.
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Callable, NamedTuple

from .causal import NODE_KINDS, CausalMsg, CausalNode
from .metrics import KINDS
from .resource import ResourceSample
from .tracer import PointEvent, Span, Tracer
from .wallclock import ClockRecord

__all__ = [
    "MARKER_ATTRS",
    "RECORDS",
    "SCHEMA_VERSION",
    "SchemaError",
    "export_chrome_trace",
    "export_jsonl",
    "read_jsonl",
    "validate_jsonl",
]

SCHEMA_VERSION = "repro.obs/v6"


class SchemaError(ValueError):
    """An exported trace file violates the documented JSONL schema."""


# --- the record table --------------------------------------------------------

#: Field type codes: accepted JSON types, whether negatives are refused,
#: and how an error names the type.  A trailing ``?`` on a code in
#: :data:`RECORDS` additionally allows null; ``nums`` (a list of numbers)
#: and ``any`` (left to the type's semantic rule) are handled apart.
_TYPES = {
    "int": ((int,), False, "an int"),
    "uint": ((int,), True, "an int"),
    "num": ((int, float), False, "a number"),
    "unum": ((int, float), True, "a number"),
    "str": ((str,), False, "a string"),
    "obj": ((dict,), False, "an object"),
}


def _type_error(where: str, v, code: str) -> str | None:
    """Why ``v`` (found at ``where``) does not satisfy type ``code``, or
    None if it does."""
    if code == "any":
        return None
    if code == "nums":
        if isinstance(v, list) and not any(_type_error("", x, "num") for x in v):
            return None
        return f"{where} must be a list of numbers"
    suffix = ""
    if code.endswith("?"):
        if v is None:
            return None
        code, suffix = code[:-1], " or null"
    types, nonneg, label = _TYPES[code]
    if not isinstance(v, types) or isinstance(v, bool):
        return f"{where} must be {label}{suffix}, got {type(v).__name__}"
    if nonneg and v < 0:
        return f"negative {where}"
    return None


class _Seen:
    """Ids met so far in one file, and the references still to resolve."""

    def __init__(self):
        self.lineno = 0
        self.ids: dict[str, set] = {"span": set(), "node": set(), "msg": set()}
        self.refs: list[tuple] = []

    def add(self, kind: str, key) -> str | None:
        """Register an id; the error text if it was already taken."""
        if key in self.ids[kind]:
            return f"duplicate {kind} id {key}"
        self.ids[kind].add(key)
        return None

    def ref(self, what: str, kind: str, run: int, ident) -> None:
        """Note that this line's ``what`` names ``kind`` ``ident`` of ``run``."""
        if ident is not None:
            self.refs.append((self.lineno, what, kind, (run, ident)))


def _check_span(rec, seen):
    if rec["v_end"] < rec["v_start"]:
        return "span ends before it starts"
    if rec["wall_end"] < rec["wall_start"]:
        return "span wall clock runs backwards"
    parent = rec["parent"]
    if parent is not None and parent not in seen.ids["span"]:
        return f"parent {parent} not seen before span {rec['index']}"
    return seen.add("span", rec["index"])


#: Attrs the analysis reads from marker events, by event name (same type
#: codes as :data:`RECORDS`).
MARKER_ATTRS = {
    "vm.run": {"run": "uint", "nranks": "uint", "base": "num",
               "makespan": "num"},
    "ledger.superstep": {"start": "num", "duration": "num", "work": "nums",
                         "comm": "nums"},
}


def _check_event(rec, seen):
    for key, code in MARKER_ATTRS.get(rec["name"], {}).items():
        err = _type_error(f"{rec['name']} event attrs.{key}",
                          rec["attrs"].get(key), code)
        if err:
            return err
    return None


def _check_metric(rec, seen):
    kind = rec["kind"]
    if kind not in KINDS:
        return f"metric.kind {kind!r} not in {KINDS}"
    err = _type_error(f"{kind} metric value", rec["value"],
                      "nums" if kind == "histogram" else "num")
    if err:
        return err
    if not all(isinstance(v, str) for v in rec["labels"].values()):
        return "metric labels must map str to str"
    return None


def _check_node(rec, seen):
    if rec["kind"] not in NODE_KINDS:
        return f"node.kind {rec['kind']!r} not in {NODE_KINDS}"
    if rec["t_end"] < rec["t_start"]:
        return "node ends before it starts"
    seen.ref("node msg", "msg", rec["run"], rec["msg"])
    return seen.add("node", (rec["run"], rec["id"]))


def _check_msg(rec, seen):
    seen.ref("msg send_node", "node", rec["run"], rec["send_node"])
    seen.ref("msg recv_node", "node", rec["run"], rec["recv_node"])
    return seen.add("msg", (rec["run"], rec["id"]))


class _Record(NamedTuple):
    fields: dict[str, str]  #: key -> type code, in the order keys are written
    rows: Callable  #: tracer -> the objects export writes (attrs == keys)
    load: Callable  #: (tracer, {key: value}) files one record read back
    check: Callable | None = None  #: (rec, seen) -> error text | None


def _listed(cls, attr: str, keep=None):
    """rows/load of a type kept as a list of ``cls`` on ``Tracer.<attr>``."""

    def rows(tracer):
        items = getattr(tracer, attr)
        return items if keep is None else [x for x in items if keep(x)]

    def load(tracer, rec):
        getattr(tracer, attr).append(cls(**rec))

    return rows, load


def _metric_rows(tracer):
    # MetricSample keeps labels as sorted pairs (hashable); the file
    # keeps them as an object
    return [replace(s, labels=s.labels_dict) for s in tracer.metrics.samples()]


#: THE trace format: record type -> (fields, where the Tracer keeps it and
#: how a read record is filed there, the type's semantic rule).  Types are
#: written in this order; dataclass attribute names equal the keys.
RECORDS: dict[str, _Record] = {
    "span": _Record(
        {"index": "uint", "parent": "uint?", "depth": "uint", "name": "str",
         "rank": "uint?", "v_start": "num", "v_end": "num",
         "wall_start": "num", "wall_end": "num", "attrs": "obj"},
        *_listed(Span, "spans", keep=lambda s: not s.open), _check_span),
    "event": _Record(
        {"name": "str", "v_time": "num", "rank": "uint?", "span": "uint?",
         "attrs": "obj"},
        *_listed(PointEvent, "events"), _check_event),
    "metric": _Record(
        {"name": "str", "kind": "str", "value": "any", "labels": "obj",
         "cycle": "uint?", "rank": "uint?", "v_time": "num"},
        _metric_rows, lambda tracer, rec: tracer.metrics.record(**rec),
        _check_metric),
    "node": _Record(
        {"run": "uint", "id": "uint", "rank": "uint", "kind": "str",
         "t_start": "num", "t_end": "num", "wait": "unum", "msg": "uint?"},
        *_listed(CausalNode, "causal_nodes"), _check_node),
    "msg": _Record(
        {"run": "uint", "id": "uint", "src": "uint", "dst": "uint",
         "tag": "int", "nwords": "uint", "send_node": "uint",
         "recv_node": "uint?"},
        *_listed(CausalMsg, "causal_msgs"), _check_msg),
    "clock": _Record(
        {"run": "uint", "rank": "uint", "offset": "num", "skew": "unum"},
        *_listed(ClockRecord, "clock_records")),
    "resource": _Record(
        {"rank": "uint?", "t": "unum", "rss_bytes": "unum",
         "cpu_seconds": "unum", "gc_collections": "uint"},
        *_listed(ResourceSample, "resource_samples")),
}

_META_FIELDS = {"schema": "str", **{kind + "s": "uint" for kind in RECORDS}}


def _check_fields(kind: str, rec: dict, fields: dict[str, str]) -> str | None:
    """Every declared key present and well-typed, no undeclared key."""
    for key, code in fields.items():
        if key not in rec:
            return f"{kind} missing {key!r}"
        err = _type_error(f"{kind} {key}", rec[key], code)
        if err:
            return err
    if len(rec) != len(fields):
        extra = sorted(rec.keys() - fields.keys())[0]
        return f"{kind} has undeclared key {extra!r}"
    return None


# --- JSONL -------------------------------------------------------------------


def export_jsonl(tracer: Tracer, path) -> int:
    """Write the tracer to ``path`` in the ``repro.obs/v6`` JSONL schema.

    Open spans are skipped (a trace is exported after the run).  Returns
    the number of records written, including the meta line.
    """
    rows = {kind: entry.rows(tracer) for kind, entry in RECORDS.items()}
    meta = {"type": "meta", "schema": SCHEMA_VERSION,
            **{kind + "s": len(objs) for kind, objs in rows.items()}}
    with open(path, "w") as fh:
        fh.write(json.dumps(meta) + "\n")
        for kind, objs in rows.items():
            keys = tuple(RECORDS[kind].fields)
            for obj in objs:
                rec = {"type": kind, **{k: getattr(obj, k) for k in keys}}
                fh.write(json.dumps(rec) + "\n")
    return 1 + sum(len(objs) for objs in rows.values())


def _walk(path, tracer: Tracer | None) -> dict[str, int]:
    """Validate ``path`` line by line, filing each record into ``tracer``
    (when given) as soon as it has passed; returns the per-type counts."""
    counts = {kind + "s": 0 for kind in RECORDS}
    meta = None
    seen = _Seen()

    def fail(message: str):
        raise SchemaError(f"line {seen.lineno}: {message}")

    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            seen.lineno = lineno
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                fail(f"invalid JSON: {exc}" if line.strip() else "blank line")
            if not isinstance(rec, dict):
                fail("record must be an object")
            kind = rec.pop("type", None)
            if lineno == 1:
                if kind != "meta":
                    fail("first record must be the meta line")
                if rec.get("schema") != SCHEMA_VERSION:
                    fail(f"unsupported schema {rec.get('schema')!r}: this "
                         f"checkout reads and writes {SCHEMA_VERSION!r} only "
                         "— re-export the run")
                err = _check_fields("meta", rec, _META_FIELDS)
                meta = rec
            elif kind == "meta":
                fail("duplicate meta record")
            elif not isinstance(kind, str) or kind not in RECORDS:
                fail(f"unknown record type {kind!r}")
            else:
                entry = RECORDS[kind]
                err = _check_fields(kind, rec, entry.fields)
                if err is None and entry.check is not None:
                    err = entry.check(rec, seen)
                if err is None:
                    counts[kind + "s"] += 1
                    if tracer is not None:
                        entry.load(tracer, rec)
            if err:
                fail(err)
    if meta is None:
        raise SchemaError("empty trace file (no meta record)")
    for key, found in counts.items():
        if found != meta[key]:
            raise SchemaError(f"meta declares {meta[key]} {key}, found {found}")
    for lineno, what, kind, (run, ident) in seen.refs:
        if (run, ident) not in seen.ids[kind]:
            raise SchemaError(
                f"line {lineno}: {what} names {kind} {ident}, which run "
                f"{run} does not contain")
    return counts


def validate_jsonl(path) -> dict[str, int]:
    """Validate a JSONL trace against the ``repro.obs/v6`` schema.

    Raises :class:`SchemaError` (naming the line) on the first violation;
    returns the per-type record counts ``{"spans": N, "events": N,
    "metrics": N, "nodes": N, "msgs": N, "clocks": N, "resources": N}``.
    """
    return _walk(path, None)


def read_jsonl(path) -> Tracer:
    """Reconstruct a tracer from a JSONL file, validating as it decodes
    (one pass; raises :class:`SchemaError` like :func:`validate_jsonl`)."""
    tracer = Tracer()
    _walk(path, tracer)
    cycles = tracer.metrics.cycles()
    if cycles:
        tracer._next_cycle = max(cycles) + 1
    if tracer.causal_nodes:
        tracer._next_run = max(n.run for n in tracer.causal_nodes) + 1
    if tracer.spans:
        tracer._vclock = max(s.v_end for s in tracer.spans)
    return tracer


# --- Chrome trace ------------------------------------------------------------

_US = 1e6  # Chrome trace timestamps are microseconds


def _tid(rank: int | None) -> int:
    return 0 if rank is None else rank + 1


def export_chrome_trace(tracer: Tracer, path) -> int:
    """Write a ``chrome://tracing``-loadable JSON file on the virtual clock.

    Returns the number of trace events written (excluding metadata).
    """
    events: list[dict] = [
        {"ph": "M", "pid": 0, "tid": 0, "name": "process_name",
         "args": {"name": "repro virtual machine"}},
        {"ph": "M", "pid": 0, "tid": 0, "name": "thread_name",
         "args": {"name": "framework"}},
    ]
    # measured runs (clock="wall") render in their own process so the
    # wall timeline never mixes with the virtual one
    wall_runs = {
        e.attrs["run"]
        for e in tracer.events
        if e.name == "vm.run" and e.attrs.get("clock") == "wall"
    }
    ranks = sorted(
        {s.rank for s in tracer.spans if s.rank is not None}
        | {e.rank for e in tracer.events if e.rank is not None}
        | {n.rank for n in tracer.causal_nodes if n.run not in wall_runs}
    )
    for r in ranks:
        events.append(
            {"ph": "M", "pid": 0, "tid": _tid(r), "name": "thread_name",
             "args": {"name": f"rank {r}"}}
        )
    wall_ranks = sorted(
        {n.rank for n in tracer.causal_nodes if n.run in wall_runs}
    )
    if wall_ranks:
        events.append(
            {"ph": "M", "pid": 1, "tid": 0, "name": "process_name",
             "args": {"name": "repro measured wall"}}
        )
        for r in wall_ranks:
            events.append(
                {"ph": "M", "pid": 1, "tid": _tid(r), "name": "thread_name",
                 "args": {"name": f"rank {r}"}}
            )
    n = 0
    for s in tracer.spans:
        if s.open:
            continue
        events.append(
            {
                "ph": "X",
                "pid": 0,
                "tid": _tid(s.rank),
                "name": s.name,
                "cat": "phase",
                "ts": s.v_start * _US,
                "dur": s.v_duration * _US,
                "args": {"wall_seconds": s.wall_duration, **s.attrs},
            }
        )
        n += 1
    for e in tracer.events:
        events.append(
            {
                "ph": "i",
                "s": "t",
                "pid": 0,
                "tid": _tid(e.rank),
                "name": e.name,
                "cat": "event",
                "ts": e.v_time * _US,
                "args": dict(e.attrs),
            }
        )
        n += 1
    # causal record: per-op slices on each rank's thread, plus a flow-event
    # pair per delivered message so the send->recv arrow renders
    base_of = {
        e.attrs["run"]: e.attrs.get("base", e.v_time)
        for e in tracer.events
        if e.name == "vm.run"
    }
    # wall-run bases are raw parent perf_counter epochs; re-zero them on
    # the earliest one so the measured process starts near ts=0
    wall_epoch = min(
        (base_of[r] for r in wall_runs if r in base_of), default=0.0
    )

    def _placement(run: int) -> tuple[int, float]:
        """(pid, base) placing a run's nodes on its process timeline."""
        if run in wall_runs:
            return 1, base_of.get(run, wall_epoch) - wall_epoch
        return 0, base_of.get(run, 0.0)

    nodes_by_run: dict[tuple[int, int], object] = {}
    for nd in tracer.causal_nodes:
        nodes_by_run[(nd.run, nd.id)] = nd
        pid, base = _placement(nd.run)
        events.append(
            {
                "ph": "X",
                "pid": pid,
                "tid": _tid(nd.rank),
                "name": f"vm.{nd.kind}",
                "cat": "vm",
                "ts": (base + nd.t_start) * _US,
                "dur": (nd.t_end - nd.t_start) * _US,
                "args": {"run": nd.run, "node": nd.id, "wait": nd.wait},
            }
        )
        n += 1
    flow = 0
    for m in tracer.causal_msgs:
        if m.recv_node is None:
            continue
        send = nodes_by_run.get((m.run, m.send_node))
        recv = nodes_by_run.get((m.run, m.recv_node))
        if send is None or recv is None:
            continue
        pid, base = _placement(m.run)
        common = {"pid": pid, "cat": "vm.msg", "name": "msg", "id": flow}
        events.append(
            {**common, "ph": "s", "tid": _tid(send.rank),
             "ts": (base + send.t_end) * _US,
             "args": {"tag": m.tag, "nwords": m.nwords}}
        )
        events.append(
            {**common, "ph": "f", "bp": "e", "tid": _tid(recv.rank),
             "ts": (base + recv.t_end) * _US,
             "args": {"tag": m.tag, "nwords": m.nwords}}
        )
        flow += 1
        n += 2
    t_end = max([s.v_end for s in tracer.spans if not s.open] or [0.0])
    for name, value in tracer.metrics.totals().items():
        events.append(
            {"ph": "C", "pid": 0, "tid": 0, "name": name,
             "ts": t_end * _US, "args": {"value": value}}
        )
        n += 1
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
    return n
