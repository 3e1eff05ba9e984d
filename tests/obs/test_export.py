"""Exporter round-trips and schema validation, driven by the record table."""

import json
import re
from pathlib import Path

import pytest

from repro.obs import (
    SCHEMA_VERSION,
    SchemaError,
    Tracer,
    export_chrome_trace,
    export_jsonl,
    read_jsonl,
    validate_jsonl,
)
from repro.obs.export import MARKER_ATTRS, RECORDS
from repro.obs.resource import ResourceSample
from repro.obs.wallclock import ClockRecord


def sample_tracer() -> Tracer:
    ticks = iter(range(1000))
    tr = Tracer(wall_clock=lambda: float(next(ticks)))
    with tr.phase("step", nproc=4):
        with tr.phase("marking") as sp:
            tr.advance(0.25)
            sp.attrs["edges"] = 7
        with tr.phase("remap", rank=None):
            tr.event("decision", rank=0, accept=True)
            tr.advance(0.5)
    return tr


def metric_tracer() -> Tracer:
    tr = sample_tracer()
    tr.begin_cycle()
    tr.metric("repro.partition.imbalance", 1.12, when="before")
    tr.metric("repro.partition.imbalance", 1.03, when="after")
    tr.metric("repro.vm.words_sent", 128, kind="counter", rank=0)
    tr.metric("repro.vm.words_sent", 64, kind="counter", rank=1)
    tr.metric("repro.solver.residual_norm", 0.5, kind="histogram")
    tr.metric("repro.solver.residual_norm", 0.25, kind="histogram")
    return tr


def causal_tracer() -> Tracer:
    """Tracer holding one traced two-rank VM run (ping + reply)."""
    from repro.parallel import VirtualMachine

    def prog(comm):
        if comm.rank == 0:
            yield from comm.compute(100)
            yield from comm.send("ping", dest=1, tag=1, nwords=8)
            _ = yield from comm.recv(source=1, tag=2)
        else:
            _ = yield from comm.recv(source=0, tag=1)
            yield from comm.send("pong", dest=0, tag=2, nwords=8)

    tr = metric_tracer()
    with tr.phase("remap"):
        res = VirtualMachine(2, tracer=tr).run(prog)
        tr.advance(res.makespan)
    return tr


def full_tracer() -> Tracer:
    """Every record type of the table, at least once."""
    tr = causal_tracer()
    tr.clock_records.append(ClockRecord(run=0, rank=1, offset=1e-3, skew=2e-4))
    tr.resource_samples.append(ResourceSample(
        rank=None, t=0.5, rss_bytes=1 << 20, cpu_seconds=0.25,
        gc_collections=4,
    ))
    return tr


def _lines(tracer, tmp_path) -> list[dict]:
    path = tmp_path / "src.jsonl"
    export_jsonl(tracer, path)
    return [json.loads(line) for line in path.read_text().splitlines()]


def _write(tmp_path, records) -> Path:
    path = tmp_path / "case.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


def _meta(**counts) -> dict:
    base = {"type": "meta", "schema": SCHEMA_VERSION,
            **{kind + "s": 0 for kind in RECORDS}}
    base.update(counts)
    return base


# --- the table: write, read, validate ----------------------------------------


def test_export_read_export_is_byte_identical(tmp_path):
    tr = full_tracer()
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    n = export_jsonl(tr, first)
    summary = validate_jsonl(first)
    assert set(summary) == {kind + "s" for kind in RECORDS}
    assert all(count >= 1 for count in summary.values())  # every type held
    assert n == 1 + sum(summary.values())
    assert export_jsonl(read_jsonl(first), second) == n
    assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("kind, key", [
    (kind, key)
    for kind, fields in [("meta", ("schema", *(k + "s" for k in RECORDS))),
                         *((k, tuple(e.fields)) for k, e in RECORDS.items())]
    for key in fields
])
def test_dropping_any_declared_key_is_rejected(tmp_path, kind, key):
    records = _lines(full_tracer(), tmp_path)
    victim = next(r for r in records if r["type"] == kind)
    del victim[key]
    path = _write(tmp_path, records)
    for consume in (validate_jsonl, read_jsonl):
        with pytest.raises(SchemaError, match=r"^line \d+: "):
            consume(path)


@pytest.mark.parametrize("schema", [f"repro.obs/v{n}" for n in range(1, 6)])
def test_older_schema_rejected_by_name(tmp_path, schema):
    records = _lines(sample_tracer(), tmp_path)
    records[0]["schema"] = schema
    with pytest.raises(SchemaError, match=re.escape(repr(schema))) as exc:
        read_jsonl(_write(tmp_path, records))
    assert "re-export" in str(exc.value)


def test_design_doc_lists_the_table():
    """DESIGN.md's "Trace format" section names every record type with
    exactly the table's keys (``?`` marks nullable), in order."""
    text = (Path(__file__).parents[2] / "DESIGN.md").read_text()
    section = re.split(r"^## (?:\d+\. )?Trace format$", text, flags=re.M)[1]
    section = section.split("\n## ", 1)[0]
    documented = {
        m[1]: re.findall(r"`([a-z_]+\??)`", m[2])
        for m in re.finditer(r"^\| `(\w+)` \| (.*?) \|", section, re.M)
    }
    assert documented == {
        kind: [key + ("?" if code.endswith("?") else "")
               for key, code in entry.fields.items()]
        for kind, entry in RECORDS.items()
    }
    assert SCHEMA_VERSION in section
    for marker in MARKER_ATTRS:
        assert f"`{marker}`" in section


# --- round trips --------------------------------------------------------------


def test_jsonl_roundtrip(tmp_path):
    tr = sample_tracer()
    path = tmp_path / "trace.jsonl"
    n = export_jsonl(tr, path)
    assert n == 1 + len(tr.spans) + len(tr.events)

    back = read_jsonl(path)
    assert back.spans == tr.spans
    assert back.events == tr.events
    assert back.virtual_now == pytest.approx(tr.virtual_now)


def test_validate_accepts_fresh_export(tmp_path):
    path = tmp_path / "trace.jsonl"
    export_jsonl(sample_tracer(), path)
    assert validate_jsonl(path) == {
        "spans": 3, "events": 1, "metrics": 0, "nodes": 0, "msgs": 0,
        "clocks": 0, "resources": 0,
    }


def test_metric_roundtrip(tmp_path):
    tr = metric_tracer()
    path = tmp_path / "trace.jsonl"
    export_jsonl(tr, path)
    assert validate_jsonl(path)["metrics"] == len(tr.metrics)

    back = read_jsonl(path)
    assert back.metrics.samples() == tr.metrics.samples()
    # counters keep their per-rank keys, histograms their full value lists
    assert back.metrics.per_rank("repro.vm.words_sent") == {0: 128.0, 1: 64.0}
    assert back.metrics.get("repro.solver.residual_norm",
                            cycle=0) == [0.5, 0.25]
    # the cycle counter resumes after the last recorded cycle
    assert back.begin_cycle() == 1


def test_causal_roundtrip(tmp_path):
    tr = causal_tracer()
    assert tr.causal_nodes and tr.causal_msgs
    path = tmp_path / "trace.jsonl"
    export_jsonl(tr, path)
    summary = validate_jsonl(path)
    assert summary["nodes"] == len(tr.causal_nodes)
    assert summary["msgs"] == len(tr.causal_msgs)
    assert summary["events"] == 2  # the decision and one vm.run marker

    back = read_jsonl(path)
    assert back.causal_nodes == tr.causal_nodes
    assert back.causal_msgs == tr.causal_msgs
    # the run counter resumes after the last recorded run
    assert back.next_causal_run() == tr._next_run


def test_open_spans_are_skipped(tmp_path):
    tr = Tracer()
    cm = tr.phase("never-closed")
    cm.__enter__()
    path = tmp_path / "trace.jsonl"
    export_jsonl(tr, path)
    assert validate_jsonl(path)["spans"] == 0


# --- file-level violations ----------------------------------------------------


def test_validate_rejects_missing_meta(tmp_path):
    path = _write(tmp_path, [{"type": "clock", "run": 0, "rank": 0,
                              "offset": 0.0, "skew": 0.0}])
    with pytest.raises(SchemaError, match="meta"):
        validate_jsonl(path)


def test_validate_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(SchemaError, match="empty"):
        validate_jsonl(path)


def test_validate_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"type": "meta"\n')
    with pytest.raises(SchemaError, match="invalid JSON"):
        validate_jsonl(path)


def test_validate_rejects_wrong_schema_version(tmp_path):
    path = _write(tmp_path, [_meta(schema="repro.obs/v0")])
    with pytest.raises(SchemaError, match="schema"):
        validate_jsonl(path)


def test_validate_rejects_count_mismatch(tmp_path):
    path = _write(tmp_path, [_meta(spans=2)])
    with pytest.raises(SchemaError, match="declares 2 spans"):
        validate_jsonl(path)


def test_validate_rejects_unknown_type_and_undeclared_key(tmp_path):
    with pytest.raises(SchemaError, match="unknown record type 'counter'"):
        validate_jsonl(_write(
            tmp_path, [_meta(), {"type": "counter", "name": "x", "value": 1}]
        ))
    with pytest.raises(SchemaError, match="unknown record type"):
        validate_jsonl(_write(tmp_path, [_meta(), {"type": ["span"]}]))
    clock = {"type": "clock", "run": 0, "rank": 0, "offset": 0.0,
             "skew": 0.0, "drift": 1.0}
    with pytest.raises(SchemaError, match="undeclared key 'drift'"):
        validate_jsonl(_write(tmp_path, [_meta(clocks=1), clock]))


# --- per-type rules -----------------------------------------------------------

_SPAN = {"type": "span", "index": 0, "parent": None, "depth": 0,
         "name": "x", "rank": None, "v_start": 0.0, "v_end": 1.0,
         "wall_start": 0.0, "wall_end": 1.0, "attrs": {}}


def test_validate_rejects_backwards_span(tmp_path):
    span = {**_SPAN, "v_start": 5.0}
    with pytest.raises(SchemaError, match="ends before it starts"):
        validate_jsonl(_write(tmp_path, [_meta(spans=1), span]))


def test_validate_rejects_dangling_parent(tmp_path):
    span = {**_SPAN, "index": 3, "parent": 99, "depth": 1}
    with pytest.raises(SchemaError, match="parent 99"):
        validate_jsonl(_write(tmp_path, [_meta(spans=1), span]))


def test_validate_rejects_duplicate_span_index(tmp_path):
    with pytest.raises(SchemaError, match="line 3: duplicate span id 0"):
        validate_jsonl(_write(tmp_path, [_meta(spans=2), _SPAN, _SPAN]))


@pytest.mark.parametrize("rec", [
    {**_SPAN, "rank": -1},
    {"type": "event", "name": "x", "v_time": 0.0, "rank": -2, "span": None,
     "attrs": {}},
    {"type": "clock", "run": 0, "rank": -1, "offset": 0.0, "skew": 0.0},
])
def test_validate_rejects_negative_rank(tmp_path, rec):
    meta = _meta(**{rec["type"] + "s": 1})
    with pytest.raises(SchemaError, match="negative .* rank"):
        validate_jsonl(_write(tmp_path, [meta, rec]))


def test_validate_rejects_missing_field(tmp_path):
    event = {"type": "event", "v_time": 0.0, "rank": None, "span": None,
             "attrs": {}}  # no name
    with pytest.raises(SchemaError, match="missing 'name'"):
        validate_jsonl(_write(tmp_path, [_meta(events=1), event]))


@pytest.mark.parametrize("attrs, match", [
    ({"nranks": 2, "base": 0.0, "makespan": 1.0}, "attrs.run"),
    ({"run": "0", "nranks": 2, "base": 0.0, "makespan": 1.0}, "attrs.run"),
    ({"run": 0, "nranks": 2, "makespan": 1.0}, "attrs.base"),
    ({"run": 0, "nranks": 2.5, "base": 0.0, "makespan": 1.0}, "attrs.nranks"),
])
def test_vm_run_marker_needs_its_attrs(tmp_path, attrs, match):
    """``repro critical-path`` reads these without looking: a ``vm.run``
    lacking one is a schema error, not a KeyError in the analysis."""
    event = {"type": "event", "name": "vm.run", "v_time": 0.0, "rank": None,
             "span": None, "attrs": attrs}
    path = _write(tmp_path, [_meta(events=1), event])
    for consume in (validate_jsonl, read_jsonl):
        with pytest.raises(SchemaError, match=match):
            consume(path)


@pytest.mark.parametrize("bad, match", [
    ({"kind": "sampler"}, "not in"),
    ({"value": "high"}, "must be a number"),
    ({"kind": "histogram", "value": 3.0}, "list of numbers"),
    ({"labels": {"method": 2}}, "str to str"),
    ({"cycle": 1.5}, "int or null"),
])
def test_validate_rejects_bad_metric(tmp_path, bad, match):
    rec = {"type": "metric", "name": "x", "kind": "gauge", "value": 1.0,
           "labels": {}, "cycle": None, "rank": None, "v_time": 0.0}
    rec.update(bad)
    with pytest.raises(SchemaError, match=match):
        validate_jsonl(_write(tmp_path, [_meta(metrics=1), rec]))


@pytest.mark.parametrize("bad, match", [
    ({"kind": "think"}, "not in"),
    ({"t_end": -1.0}, "ends before it starts"),
    ({"wait": -0.5}, "negative node wait"),
    ({"msg": 1.5}, "int or null"),
])
def test_validate_rejects_bad_node(tmp_path, bad, match):
    rec = {"type": "node", "run": 0, "id": 0, "rank": 0, "kind": "work",
           "t_start": 0.0, "t_end": 1.0, "wait": 0.0, "msg": None}
    rec.update(bad)
    with pytest.raises(SchemaError, match=match):
        validate_jsonl(_write(tmp_path, [_meta(nodes=1), rec]))


@pytest.mark.parametrize("kind, key, target", [
    ("node", "msg", "msg"),
    ("msg", "send_node", "node"),
    ("msg", "recv_node", "node"),
])
def test_causal_ids_resolve_within_their_run(tmp_path, kind, key, target):
    records = _lines(causal_tracer(), tmp_path)
    victim = next(r for r in records
                  if r["type"] == kind and r[key] is not None)
    good, victim[key] = victim[key], 99
    lineno = records.index(victim) + 1
    match = f"line {lineno}: {kind} {key} names {target} 99, which run 0"
    with pytest.raises(SchemaError, match=match):
        validate_jsonl(_write(tmp_path, records))
    # the same id in another run does not satisfy the reference
    victim[key], victim["run"] = good, 7
    with pytest.raises(SchemaError, match="does not contain"):
        validate_jsonl(_write(tmp_path, records))


# --- Chrome trace -------------------------------------------------------------


def test_chrome_trace_flow_events(tmp_path):
    tr = causal_tracer()
    path = tmp_path / "trace.json"
    export_chrome_trace(tr, path)
    events = json.loads(path.read_text())["traceEvents"]
    starts = [e for e in events if e["ph"] == "s"]
    finishes = [e for e in events if e["ph"] == "f"]
    # one flow pair per *delivered* message, ids matching pairwise
    delivered = [m for m in tr.causal_msgs if m.recv_node is not None]
    assert len(starts) == len(finishes) == len(delivered)
    assert {e["id"] for e in starts} == {e["id"] for e in finishes}
    by_id = {e["id"]: e for e in starts}
    for fin in finishes:
        start = by_id[fin["id"]]
        assert fin["bp"] == "e"
        assert start["tid"] != fin["tid"]  # crosses rank threads
        assert start["ts"] <= fin["ts"]
    # each op is drawn once: a vm-category slice on its rank's thread,
    # and no instant beside it
    vm_slices = [e for e in events
                 if e["ph"] == "X" and e.get("cat") == "vm"]
    assert len(vm_slices) == len(tr.causal_nodes)
    assert all(s["tid"] >= 1 for s in vm_slices)
    instants = [e["name"] for e in events if e["ph"] == "i"]
    assert instants == ["decision", "vm.run"]


def test_chrome_flow_events_survive_jsonl_round_trip(tmp_path):
    """Virtual causal records keep their flow pairs through JSONL."""
    tr = causal_tracer()
    jsonl = tmp_path / "trace.jsonl"
    export_jsonl(tr, jsonl)
    back = read_jsonl(jsonl)
    path = tmp_path / "trace.json"
    export_chrome_trace(back, path)
    events = json.loads(path.read_text())["traceEvents"]
    starts = {e["id"]: e for e in events if e["ph"] == "s"}
    finishes = {e["id"]: e for e in events if e["ph"] == "f"}
    delivered = [m for m in tr.causal_msgs if m.recv_node is not None]
    assert len(starts) == len(finishes) == len(delivered) == 2
    assert set(starts) == set(finishes)
    nodes = {n.id: n for n in tr.causal_nodes}
    for msg, fid in zip(sorted(delivered, key=lambda m: m.id),
                        sorted(starts)):
        s, f = starts[fid], finishes[fid]
        # virtual flows stay on the modelled-timeline process (pid 0)
        # and bind the sender's rank thread to the receiver's
        assert s["pid"] == f["pid"] == 0
        assert s["tid"] == nodes[msg.send_node].rank + 1
        assert f["tid"] == nodes[msg.recv_node].rank + 1
        assert s["ts"] <= f["ts"]
        assert s["args"]["nwords"] == msg.nwords == f["args"]["nwords"]


def test_chrome_trace_structure(tmp_path):
    tr = metric_tracer()
    path = tmp_path / "trace.json"
    n = export_chrome_trace(tr, path)
    doc = json.loads(path.read_text())
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
    events = doc["traceEvents"]
    slices = [e for e in events if e["ph"] == "X"]
    instants = [e for e in events if e["ph"] == "i"]
    counters = [e for e in events if e["ph"] == "C"]
    metas = [e for e in events if e["ph"] == "M"]
    assert n == len(slices) + len(instants) + len(counters)
    assert {s["name"] for s in slices} == {"step", "marking", "remap"}
    # timestamps are on the virtual clock in microseconds
    marking = next(s for s in slices if s["name"] == "marking")
    assert marking["dur"] == pytest.approx(0.25e6)
    assert marking["args"]["edges"] == 7
    # the ranked instant lands on the rank's virtual thread
    assert instants[0]["tid"] == 1  # rank 0 -> tid 1
    # thread names declared for framework + every rank seen
    names = {m["args"]["name"] for m in metas if m["name"] == "thread_name"}
    assert {"framework", "rank 0"} <= names
    # one "C" row per counter metric, carrying its whole-run total
    assert [(c["name"], c["args"]["value"]) for c in counters] == [
        ("repro.vm.words_sent", 192.0),
    ]
