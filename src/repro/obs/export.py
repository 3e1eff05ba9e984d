"""Serialise a :class:`~repro.obs.tracer.Tracer` to JSONL and Chrome trace.

JSONL schema (``repro.obs/v9``)
-------------------------------
One JSON object per line.  The first line is the meta record,
``{"type": "meta", "schema": "repro.obs/v9", "spans": N, "events": N,
"metrics": N, "nodes": N, "msgs": N}``, whose counts must
match the records that follow.  Every other line is one of the five
record types of :data:`RECORDS` — the single definition
:func:`export_jsonl`, :func:`read_jsonl` and :func:`validate_jsonl` all
walk.  A record carries ``"type"`` plus exactly the keys its table entry
declares, each present (``null`` only where the entry marks it ``?``):
a closed ``span`` on both clocks; an ``event`` marker on the virtual
timeline, whose free-form ``attrs`` are checked for the markers the
analysis reads (:data:`MARKER_ATTRS`); a labelled ``metric`` sample
(:mod:`repro.obs.metrics`; a process's resource reading is its
``repro.resource.*`` gauges); and per virtual-machine run one ``nodes``
and one ``msgs`` record, the equal-length columns of its
:class:`~repro.obs.causal.CausalRecord` — what the run cannot derive —
checked as columns (types, lengths, ranks, message numbers, every recv
after its send) on read and by the writer before it writes.  The run's
``vm.run`` event comes first, with its rank count and its ``base``
offset into the trace timeline.  A file declaring any other schema
string is a :class:`SchemaError`: there is one format, written and read
by the same checkout — re-export the run.

Chrome trace export writes the ``chrome://tracing`` / Perfetto JSON object
format on the *virtual* timeline (microsecond ``ts``/``dur``): spans are
``"X"`` slices on tid 0 ("framework"), marker events thread-scoped
instants (ranked ones on the rank's thread), each counter metric's total
one final ``"C"`` sample, each causal node a ``cat: "vm"`` slice on its
rank's thread, and each delivered message a flow-event pair (``ph: "s"``
at the send, ``ph: "f"`` at the consuming recv) so its arrow draws
between the two threads.  Measured runs (``clock="wall"``) render in a
second process (pid 1), re-zeroed on the earliest measured run base.
"""

from __future__ import annotations

import json
import warnings
from typing import Callable, NamedTuple

from .causal import RECV, SEND, WORK, CausalRecord
from .metrics import KINDS
from .tracer import PointEvent, Span, Tracer

__all__ = [
    "SCHEMA_VERSION",
    "SchemaError",
    "export_chrome_trace",
    "export_jsonl",
    "read_jsonl",
    "validate_jsonl",
]

SCHEMA_VERSION = "repro.obs/v9"


class SchemaError(ValueError):
    """An exported trace file violates the documented JSONL schema."""


# --- the record table --------------------------------------------------------

#: Field type codes: accepted JSON types, whether negatives are refused,
#: and how an error names the type; ``ints`` and ``nums`` are lists of
#: those elements.  A trailing ``?`` on a code in :data:`RECORDS`
#: additionally allows null; ``any`` is left to the type's semantic rule.
_TYPES = {
    "int": ((int,), False, "an int"),
    "uint": ((int,), True, "an int"),
    "num": ((int, float), False, "a number"),
    "unum": ((int, float), True, "a number"),
    "str": ((str,), False, "a string"),
    "obj": ((dict,), False, "an object"),
    "ints": ((int,), False, "a list of ints"),
    "nums": ((int, float), False, "a list of numbers"),
}


def _type_error(where: str, v, code: str) -> str | None:
    """Why ``v`` (found at ``where``) does not satisfy type ``code``, or
    None if it does."""
    if code == "any":
        return None
    suffix = ""
    if code.endswith("?"):
        if v is None:
            return None
        code, suffix = code[:-1], " or null"
    types, nonneg, label = _TYPES[code]
    if code in ("ints", "nums"):  # one test per distinct element type
        if isinstance(v, list) and all(issubclass(t, types) and t is not bool
                                       for t in set(map(type, v))):
            return None
        return f"{where} must be {label}{suffix}"
    if not isinstance(v, types) or isinstance(v, bool):
        return f"{where} must be {label}{suffix}, got {type(v).__name__}"
    if nonneg and v < 0:
        return f"negative {where}"
    return None


class _Seen:
    """What a file (or an export) has declared so far: the line, span ids,
    and per run what its ``nodes`` / ``msgs`` record will need."""

    def __init__(self):
        self.lineno = 0
        self.spans: set[int] = set()
        self.nranks: dict[int, int] = {}
        self.sends: dict[int, tuple[int, bool, int]] = {}


def _span_rule(rec, seen):
    if rec["v_end"] < rec["v_start"]:
        return "span ends before it starts"
    if rec["wall_end"] < rec["wall_start"]:
        return "span wall clock runs backwards"
    parent = rec["parent"]
    if parent is not None and parent not in seen.spans:
        return f"parent {parent} not seen before span {rec['index']}"
    if rec["index"] in seen.spans:
        return f"duplicate span id {rec['index']}"
    seen.spans.add(rec["index"])
    return None


#: Attrs the analysis reads from marker events, by event name (same type
#: codes as :data:`RECORDS`).
MARKER_ATTRS = {
    "vm.run": {"run": "uint", "nranks": "uint", "base": "num",
               "makespan": "num"},
}

#: Attrs only a measured run's ``vm.run`` carries, which its makespan
#: check and clock table read: checked wherever they are present.
MEASURED_ATTRS = {"clock": "str", "rank_makespan": "unum", "skew": "unum"}


def _event_rule(rec, seen):
    attrs = rec["attrs"]
    checks = list(MARKER_ATTRS.get(rec["name"], {}).items())
    if rec["name"] == "vm.run":
        checks += [(k, c) for k, c in MEASURED_ATTRS.items() if k in attrs]
    for key, code in checks:
        err = _type_error(f"{rec['name']} event attrs.{key}",
                          attrs.get(key), code)
        if err:
            return err
    if rec["name"] == "vm.run":
        seen.nranks[attrs["run"]] = attrs["nranks"]
    return None


def _metric_rule(rec, seen):
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


def _column_error(kind: str, rec: dict, n: int, ranks: tuple, nranks: int):
    """Every column of ``rec`` (a ``nodes`` or ``msgs`` record) that is
    not null holds ``n`` entries, and the ``ranks`` columns hold ranks of
    the run's ``nranks``."""
    for col, v in rec.items():
        if isinstance(v, list) and len(v) != n:
            return f"{kind} {col} holds {len(v)} entries, not {n}"
    for col in ranks:
        bad = [r for r in rec[col] if not 0 <= r < nranks]
        if bad:
            return f"{kind} {col} {bad[0]} is not a rank of the run's {nranks}"
    return None


def _nodes_rule(rec, seen):
    run, kind = rec["run"], rec["kind"]
    nranks = seen.nranks.pop(run, None)
    if nranks is None:
        return f"nodes record for run {run} has no unclaimed vm.run before it"
    measured = rec["t_setup"] is None
    if (rec["t_start"] is None or rec["wait"] is None) == measured:
        return "nodes record holds t_setup (a virtual run) or t_start and " \
               "wait (a measured run)"
    err = _column_error("nodes", rec, len(kind), ("rank",), nranks)
    if err:
        return err
    bad = set(kind) - {WORK, SEND, RECV}
    if bad:
        return f"nodes kind {min(bad)} not in ({WORK}, {SEND}, {RECV})"
    if measured and min(rec["wait"], default=0.0) < 0:
        return "nodes wait holds a negative node wait"
    # messages are numbered in send order, so a recv names one no later
    # than the sends before it: every edge goes from a lower node id
    starts, last = rec["t_start"], {}
    nsends, sent, taken = kind.count(SEND), 0, set()
    for i, (k, r, m, end) in enumerate(
            zip(kind, rec["rank"], rec["msg"], rec["t_end"])):
        start = starts[i] if measured else last.get(r, 0.0)
        last[r] = end
        if end < start:
            return f"nodes t_end at node {i}: it ends before it starts"
        if k != RECV:
            sent += k == SEND
            if m != -1:
                return f"nodes msg at node {i} is {m}: only a recv names one"
        elif not 0 < m <= nsends:
            return f"nodes msg at node {i} names message {m} of {nsends}"
        elif m > sent or m in taken:
            return f"nodes msg at node {i}: message {m} is received " \
                   + ("twice" if m in taken else "before it is sent")
        else:
            taken.add(m)
    seen.sends[run] = (nsends, measured, nranks)
    return None


def _msgs_rule(rec, seen):
    run = rec["run"]
    if run not in seen.sends:
        return f"msgs record for run {run} has no unclaimed nodes before it"
    nsends, measured, nranks = seen.sends.pop(run)
    if (rec["id"] is None) == measured:
        return "msgs id must be a list on a measured run, null on a virtual one"
    err = _column_error("msgs", rec, nsends, ("dst",), nranks)
    if err:
        return err
    if nsends and min(rec["nwords"]) < 0:
        return "negative msgs nwords"
    if measured and len(set(rec["id"])) != nsends:
        return "msgs id repeats a message id"
    return None


class _Record(NamedTuple):
    fields: dict[str, str]  #: key -> type code, in the order keys are written
    rows: Callable  #: (tracer, keys) -> the records export writes, as dicts
    load: Callable  #: (tracer, {key: value}) files one record read back
    check: Callable  #: (rec, seen) -> error text | None


def _listed(cls, attr: str, keep=None):
    """rows/load of a type kept as a list of ``cls`` on ``Tracer.<attr>``."""

    def rows(tracer, keys):
        items = getattr(tracer, attr)
        return [{k: getattr(x, k) for k in keys}
                for x in (items if keep is None else filter(keep, items))]

    def load(tracer, rec):
        getattr(tracer, attr).append(cls(**rec))

    return rows, load


def _metric_rows(tracer, keys):
    # MetricSample keeps labels as sorted pairs (hashable); the file
    # keeps them as an object
    return [{**{k: getattr(s, k) for k in keys}, "labels": s.labels_dict}
            for s in tracer.metrics.samples()]


def _load_nodes(tracer, rec):
    record = CausalRecord(rec["t_setup"], rec["run"])
    record.load_columns(nodes=rec)
    tracer.causal_records.append(record)


def _load_msgs(tracer, rec):
    [record] = [r for r in tracer.causal_records if r.run == rec["run"]]
    record.load_columns(msgs=rec)


#: THE trace format: record type -> (fields, where the Tracer keeps it and
#: how a read record is filed there, the type's semantic rule).  Types are
#: written in this order; attribute and column names equal the keys.
RECORDS: dict[str, _Record] = {
    "span": _Record(
        {"index": "uint", "parent": "uint?", "depth": "uint", "name": "str",
         "v_start": "num", "v_end": "num", "wall_start": "num",
         "wall_end": "num", "attrs": "obj"},
        *_listed(Span, "spans", keep=lambda s: not s.open), _span_rule),
    "event": _Record(
        {"name": "str", "v_time": "num", "rank": "uint?", "span": "uint?",
         "attrs": "obj"},
        *_listed(PointEvent, "events"), _event_rule),
    "metric": _Record(
        {"name": "str", "kind": "str", "value": "any", "labels": "obj",
         "cycle": "uint?", "rank": "uint?", "v_time": "num"},
        _metric_rows, lambda tracer, rec: tracer.metrics.record(**rec),
        _metric_rule),
    "nodes": _Record(
        {"run": "uint", "t_setup": "unum?", "kind": "ints", "rank": "ints",
         "msg": "ints", "t_end": "nums", "t_start": "nums?", "wait": "nums?"},
        lambda tracer, keys: [
            {"run": r.run, "t_setup": r.t_setup, **r.columns()[0]}
            for r in tracer.causal_records],
        _load_nodes, _nodes_rule),
    "msgs": _Record(
        {"run": "uint", "dst": "ints", "tag": "ints", "nwords": "ints",
         "id": "ints?"},
        lambda tracer, keys: [{"run": r.run, **r.columns()[1]}
                              for r in tracer.causal_records],
        _load_msgs, _msgs_rule),
}

#: The meta record's count key per record type.
COUNT_KEYS = {kind: kind.rstrip("s") + "s" for kind in RECORDS}
_META_FIELDS = {"schema": "str", **dict.fromkeys(COUNT_KEYS.values(), "uint")}


def _check(seen: _Seen, kind: str, rec: dict) -> None:
    """Raise :class:`SchemaError`, naming the line, unless ``rec`` is a
    valid ``kind`` record given what ``seen`` has declared: every declared
    key present and well-typed, no undeclared key, the type's rule."""
    fields = _META_FIELDS if kind == "meta" else RECORDS[kind].fields
    errors = (f"{kind} missing {key!r}" if key not in rec
              else _type_error(f"{kind} {key}", rec[key], code)
              for key, code in fields.items())
    err = next(filter(None, errors), None)
    if err is None and len(rec) != len(fields):
        err = f"{kind} has undeclared key {sorted(rec.keys() - fields)[0]!r}"
    if err is None and kind != "meta":
        err = RECORDS[kind].check(rec, seen)
    if err:
        raise SchemaError(f"line {seen.lineno}: {err}")


def _check_totals(seen: _Seen, meta: dict, counts: dict) -> None:
    """The file-level rules: the meta counts, and a msgs record per run."""
    for key, found in counts.items():
        if found != meta[key]:
            raise SchemaError(f"meta declares {meta[key]} {key}, found {found}")
    for run in seen.sends:
        raise SchemaError(f"run {run} has a nodes record but no msgs record")


# --- JSONL -------------------------------------------------------------------


def export_jsonl(tracer: Tracer, path) -> int:
    """Write the tracer to ``path`` in the ``repro.obs/v9`` JSONL schema.

    Every record is checked first, exactly as :func:`read_jsonl` will
    check it, so a trace that would not read back is never written (a
    :class:`SchemaError` names the line it would have taken).  Open spans
    are skipped (a trace is exported after the run).  Returns the number
    of records written, including the meta line.
    """
    seen = _Seen()
    counts: dict[str, int] = {}
    lines = []
    for kind, entry in RECORDS.items():
        rows = entry.rows(tracer, tuple(entry.fields))
        counts[COUNT_KEYS[kind]] = len(rows)
        for rec in rows:
            seen.lineno = len(lines) + 2  # after the meta line
            _check(seen, kind, rec)
            lines.append(json.dumps({"type": kind, **rec}))
    _check_totals(seen, counts, counts)
    meta = json.dumps({"type": "meta", "schema": SCHEMA_VERSION, **counts})
    with open(path, "w") as fh:
        fh.writelines(line + "\n" for line in (meta, *lines))
    return 1 + len(lines)


def _walk(path, tracer: Tracer | None) -> dict[str, int]:
    """Validate ``path`` line by line, filing each record into ``tracer``
    (when given) as soon as it has passed; returns the per-type counts."""
    counts = dict.fromkeys(COUNT_KEYS.values(), 0)
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
                _check(seen, "meta", rec)
                meta = rec
            elif kind == "meta":
                fail("duplicate meta record")
            elif not isinstance(kind, str) or kind not in RECORDS:
                fail(f"unknown record type {kind!r}")
            else:
                _check(seen, kind, rec)
                counts[COUNT_KEYS[kind]] += 1
                if tracer is not None:
                    RECORDS[kind].load(tracer, rec)
    if meta is None:
        raise SchemaError("empty trace file (no meta record)")
    _check_totals(seen, meta, counts)
    return counts


def validate_jsonl(path) -> dict[str, int]:
    """Validate a JSONL trace against the ``repro.obs/v9`` schema.

    Raises :class:`SchemaError` (naming the line) on the first violation;
    returns the per-type record counts ``{"spans": N, "events": N,
    "metrics": N, "nodes": N, "msgs": N}`` (one ``nodes`` and one
    ``msgs`` record per VM run).
    """
    return _walk(path, None)


def read_jsonl(path) -> Tracer:
    """Reconstruct a tracer from a JSONL file, validating as it decodes
    (one pass; raises :class:`SchemaError` like :func:`validate_jsonl`)."""
    tracer = Tracer()
    # label keysets are the writer's to warn about: an older v9 trace
    # mixes ``clock``-labelled and unlabelled samples under one name
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        _walk(path, tracer)
    # the counters resume after what the file holds
    tracer._next_cycle = max(tracer.metrics.cycles(), default=-1) + 1
    tracer._next_run = max((r.run for r in tracer.causal_records),
                           default=-1) + 1
    tracer._vclock = max((s.v_end for s in tracer.spans), default=0.0)
    return tracer


# --- Chrome trace ------------------------------------------------------------

_US = 1e6  # Chrome trace timestamps are microseconds


def _tid(rank: int | None) -> int:
    return 0 if rank is None else rank + 1


def export_chrome_trace(tracer: Tracer, path) -> int:
    """Write a ``chrome://tracing``-loadable JSON file on the virtual clock.

    Returns the number of trace events written (excluding metadata).
    """
    runs = {e.attrs["run"]: e for e in tracer.events if e.name == "vm.run"}
    # measured runs (clock="wall") render in their own process so the wall
    # timeline never mixes with the virtual one; their bases are raw
    # perf_counter epochs, re-zeroed on the earliest so pid 1 starts near 0
    wall = {r for r, e in runs.items() if e.attrs.get("clock") == "wall"}
    base_of = {r: e.attrs.get("base", e.v_time) for r, e in runs.items()}
    wall_epoch = min((base_of[r] for r in wall), default=0.0)
    derived = [(rec.run, *rec.objects()) for rec in tracer.causal_records]
    ranks = {e.rank for e in tracer.events if e.rank is not None}
    wall_ranks: set[int] = set()
    for run, nodes, _msgs in derived:
        (wall_ranks if run in wall else ranks).update(n.rank for n in nodes)

    def thread(pid: int, r: int) -> dict:
        return {"ph": "M", "pid": pid, "tid": _tid(r), "name": "thread_name",
                "args": {"name": f"rank {r}"}}

    meta = [{"ph": "M", "pid": 0, "tid": 0, "name": "process_name",
             "args": {"name": "repro virtual machine"}},
            {"ph": "M", "pid": 0, "tid": 0, "name": "thread_name",
             "args": {"name": "framework"}}]
    meta += [thread(0, r) for r in sorted(ranks)]
    if wall_ranks:
        meta.append({"ph": "M", "pid": 1, "tid": 0, "name": "process_name",
                     "args": {"name": "repro measured wall"}})
        meta += [thread(1, r) for r in sorted(wall_ranks)]
    events = [
        {"ph": "X", "pid": 0, "tid": 0, "name": s.name, "cat": "phase",
         "ts": s.v_start * _US, "dur": s.v_duration * _US,
         "args": {"wall_seconds": s.wall_duration, **s.attrs}}
        for s in tracer.spans if not s.open
    ]
    events += [
        {"ph": "i", "s": "t", "pid": 0, "tid": _tid(e.rank), "name": e.name,
         "cat": "event", "ts": e.v_time * _US, "args": dict(e.attrs)}
        for e in tracer.events
    ]
    # causal record: per-op slices on each rank's thread, plus a flow-event
    # pair per delivered message so the send->recv arrow renders
    flows: list[dict] = []
    for run, nodes, msgs in derived:
        pid, base = ((1, base_of[run] - wall_epoch) if run in wall
                     else (0, base_of.get(run, 0.0)))
        events += [
            {"ph": "X", "pid": pid, "tid": _tid(nd.rank),
             "name": f"vm.{nd.kind}", "cat": "vm",
             "ts": (base + nd.t_start) * _US,
             "dur": (nd.t_end - nd.t_start) * _US,
             "args": {"run": nd.run, "node": nd.id, "wait": nd.wait}}
            for nd in nodes
        ]
        for m in msgs:
            if m.recv_node is None:
                continue
            common = {"pid": pid, "cat": "vm.msg", "name": "msg",
                      "id": len(flows) // 2}
            args = {"tag": m.tag, "nwords": m.nwords}
            send, recv = nodes[m.send_node], nodes[m.recv_node]
            flows.append({**common, "ph": "s", "tid": _tid(send.rank),
                          "ts": (base + send.t_end) * _US, "args": args})
            flows.append({**common, "ph": "f", "bp": "e",
                          "tid": _tid(recv.rank),
                          "ts": (base + recv.t_end) * _US, "args": args})
    events += flows
    t_end = max([s.v_end for s in tracer.spans if not s.open] or [0.0])
    events += [
        {"ph": "C", "pid": 0, "tid": 0, "name": name, "ts": t_end * _US,
         "args": {"value": value}}
        for name, value in tracer.metrics.totals().items()
    ]
    with open(path, "w") as fh:
        json.dump({"traceEvents": meta + events, "displayTimeUnit": "ms"}, fh)
    return len(events)
