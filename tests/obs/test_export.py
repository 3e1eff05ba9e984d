"""Exporter round-trips and schema validation, driven by the record table."""

import contextlib
import io
import json
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from repro.__main__ import main
from repro.obs import (
    SCHEMA_VERSION,
    SchemaError,
    Tracer,
    export_chrome_trace,
    export_jsonl,
    read_jsonl,
    render_ascii,
    validate_jsonl,
)
from repro.obs.causal import KIND_CODES, verify_makespans
from repro.obs.export import COUNT_KEYS, MARKER_ATTRS, RECORDS
from repro.parallel import VirtualMachine

from tests.fixtures import causal_msgs, causal_nodes, metric_value
from tests.kernels.oracles import reference_kernels
from tests.parallel.test_scheduler_edges import (
    WORK_SECONDS,
    _op_scripts,
    script_program,
)


def sample_tracer() -> Tracer:
    ticks = iter(range(1000))
    tr = Tracer(wall_clock=lambda: float(next(ticks)))
    with tr.phase("step", nproc=4):
        with tr.phase("marking") as sp:
            tr.advance(0.25)
            sp.attrs["edges"] = 7
        with tr.phase("remap"):
            tr.event("decision", rank=0, accept=True)
            tr.advance(0.5)
    return tr


def metric_tracer() -> Tracer:
    tr = sample_tracer()
    tr.begin_cycle()
    tr.metric("repro.partition.imbalance", 1.12, when="before")
    tr.metric("repro.partition.imbalance", 1.03, when="after")
    tr.metric("repro.transport.spills", 128, kind="counter", rank=0)
    tr.metric("repro.transport.spills", 64, kind="counter", rank=1)
    tr.metric("repro.solver.residual_norm", 0.5, kind="histogram")
    tr.metric("repro.solver.residual_norm", 0.25, kind="histogram")
    return tr


def causal_tracer() -> Tracer:
    """Tracer holding one traced two-rank VM run (ping + reply): every
    record type of the table, at least once."""

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
            **dict.fromkeys(COUNT_KEYS.values(), 0)}
    base.update(counts)
    return base


# --- the table: write, read, validate ----------------------------------------


def test_export_read_export_is_byte_identical(tmp_path):
    tr = causal_tracer()
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    n = export_jsonl(tr, first)
    summary = validate_jsonl(first)
    assert set(summary) == set(COUNT_KEYS.values())
    assert all(count >= 1 for count in summary.values())  # every type held
    assert n == 1 + sum(summary.values())
    assert export_jsonl(read_jsonl(first), second) == n
    assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("kind, key", [
    (kind, key)
    for kind, fields in [("meta", ("schema", *COUNT_KEYS.values())),
                         *((k, tuple(e.fields)) for k, e in RECORDS.items())]
    for key in fields
])
def test_dropping_any_declared_key_is_rejected(tmp_path, kind, key):
    records = _lines(causal_tracer(), tmp_path)
    victim = next(r for r in records if r["type"] == kind)
    del victim[key]
    path = _write(tmp_path, records)
    for consume in (validate_jsonl, read_jsonl):
        with pytest.raises(SchemaError, match=r"^line \d+: "):
            consume(path)


@pytest.mark.parametrize("schema", [f"repro.obs/v{n}" for n in range(1, 9)])
def test_older_schema_rejected_by_name(tmp_path, schema):
    records = _lines(sample_tracer(), tmp_path)
    records[0]["schema"] = schema
    with pytest.raises(SchemaError, match=re.escape(repr(schema))) as exc:
        read_jsonl(_write(tmp_path, records))
    assert "re-export" in str(exc.value)


def test_design_doc_lists_the_table():
    """DESIGN.md's "Trace format" section names every record type with
    exactly the table's keys (``?`` marks nullable), in order, and the
    ``nodes`` row lists exactly the kind codes the writers emit."""
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
    [node_row] = re.findall(r"^\| `nodes` \|.*$", section, re.M)
    [(codes, kinds)] = re.findall(r"`kind` codes ([\d/]+) = ([\w/]+)",
                                  node_row)
    assert dict(zip(map(int, codes.split("/")), kinds.split("/"))) == {
        code: kind for code, kind in enumerate(KIND_CODES) if kind}


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
    }


def test_metric_roundtrip(tmp_path):
    tr = metric_tracer()
    path = tmp_path / "trace.jsonl"
    export_jsonl(tr, path)
    assert validate_jsonl(path)["metrics"] == len(tr.metrics)

    back = read_jsonl(path)
    assert back.metrics.samples() == tr.metrics.samples()
    # counters keep their per-rank keys, histograms their full value lists
    assert back.metrics.per_rank("repro.transport.spills") == {
        0: 128.0, 1: 64.0}
    assert metric_value(back.metrics, "repro.solver.residual_norm",
                        cycle=0) == [0.5, 0.25]
    # the cycle counter resumes after the last recorded cycle
    assert back.begin_cycle() == 1


def _roundtrip(tracer: Tracer, path: Path) -> Tracer:
    export_jsonl(tracer, path)
    return read_jsonl(path)


def test_causal_roundtrip(tmp_path):
    tr = causal_tracer()
    assert causal_nodes(tr) and causal_msgs(tr)
    path = tmp_path / "trace.jsonl"
    export_jsonl(tr, path)
    summary = validate_jsonl(path)
    assert summary["nodes"] == summary["msgs"] == 1  # one of each per run
    assert summary["events"] == 2  # the decision and one vm.run marker

    back = read_jsonl(path)
    assert causal_nodes(back) == causal_nodes(tr)
    assert causal_msgs(back) == causal_msgs(tr)
    # the file holds the columns the scheduler stored, nothing derived
    [(rec, rec_back)] = zip(tr.causal_records, back.causal_records)
    assert (rec_back.rows, rec_back.msg_rows) == (rec.rows, rec.msg_rows)
    # the run counter resumes after the last recorded run
    assert back.next_causal_run() == tr._next_run


@given(_op_scripts())
@settings(max_examples=25, deadline=None)
def test_causal_roundtrip_matches_the_oracle_record(script):
    """A random program's record, written and read back, derives exactly
    the reference scheduler's eagerly built objects; so does the
    oracle's own record, written as the columns its objects encode."""
    p, plan = script
    traced = []
    for reference in (False, True):
        tracer = Tracer()
        with reference_kernels(reference):
            VirtualMachine(p, WORK_SECONDS, tracer=tracer).run(
                script_program(plan))
        traced.append(tracer)
    [oracle] = traced[1].causal_records
    nodes, msgs = oracle.eager
    with tempfile.TemporaryDirectory() as tmp:
        for tracer in traced:
            back = _roundtrip(tracer, Path(tmp) / "t.jsonl")
            assert causal_nodes(back) == nodes
            assert causal_msgs(back) == msgs
            assert verify_makespans(back) == 1


def test_measured_causal_roundtrip(tmp_path):
    """A measured run stores its measured ``t_start``, ``wait`` and
    message ids, and reads back to the same objects."""
    from repro.parallel import create_communicator

    def ring(comm):
        right, left = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
        yield from comm.send(np.arange(256.0), dest=right, tag=3, nwords=256)
        data = yield from comm.recv(source=left, tag=3)
        return data.shape[0]

    tr = Tracer()
    with tr.phase("ring"):
        create_communicator("shm", 2, tracer=tr).run(ring)
    [record] = tr.causal_records
    assert record.t_setup is None and record.columns()[1]["id"] is not None
    back = _roundtrip(tr, tmp_path / "shm.jsonl")
    assert causal_nodes(back) == causal_nodes(tr)
    assert causal_msgs(back) == causal_msgs(tr)
    assert {m.recv_node is not None for m in causal_msgs(back)} == {True}
    assert verify_makespans(back) == 1


def test_trace_stores_few_bytes_per_causal_node(tmp_path):
    """A traced ``repro step 6 --nproc 16``: the causal records take at
    most 40 bytes per causal node (the one-row-per-node form took ~148
    for its node rows alone)."""
    path = tmp_path / "step6.jsonl"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["step", "6", "--nproc", "16", "--no-history",
                     "--trace-out", str(path)]) == 0
    causal_bytes = nnodes = 0
    for line in path.read_text().splitlines(keepends=True):
        rec = json.loads(line)
        if rec["type"] in ("node", "msg", "nodes", "msgs"):
            causal_bytes += len(line.encode())
        elif rec["type"] == "event" and rec["name"] == "vm.run":
            nnodes += rec["attrs"]["nodes"]
    assert nnodes > 100
    assert causal_bytes / nnodes <= 40


def test_step_trace_records_per_rank_traffic_once(tmp_path):
    """A traced ``repro step 8 --nproc 64`` keeps its per-rank traffic in
    the causal record alone: no ``repro.vm.*`` metric, no
    ``repro.adapt.marked_edges`` beside the marking span's attribute,
    and the report's traffic table is still there, read off the record."""
    path = tmp_path / "step8.jsonl"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["step", "8", "--nproc", "64", "--no-history",
                     "--trace-out", str(path)]) == 0
    back = read_jsonl(path)
    names = {s.name for s in back.metrics.samples()}
    assert "repro.cycle.total_seconds" in names
    assert [n for n in names if n.startswith("repro.vm.")] == []
    assert "repro.adapt.marked_edges" not in names
    assert "Per-rank traffic (virtual machine, summed over cycles)" \
        in render_ascii(back)


def test_older_traces_per_rank_series_read_as_plain_metrics(tmp_path):
    """A v9 trace written while the VM still recorded ``repro.vm.*``
    series, measured copies under a ``clock`` label, reads back without
    a label-keyset warning, every sample as it was written."""
    tr = Tracer()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        tr.metric("repro.vm.words_sent", 64, kind="counter", rank=0)
        tr.metric("repro.vm.words_sent", 32, kind="counter", rank=0,
                  clock="wall")
    path = tmp_path / "old.jsonl"
    export_jsonl(tr, path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = read_jsonl(path)
    assert back.metrics.samples() == tr.metrics.samples()


def test_open_spans_are_skipped(tmp_path):
    tr = Tracer()
    cm = tr.phase("never-closed")
    cm.__enter__()
    path = tmp_path / "trace.jsonl"
    export_jsonl(tr, path)
    assert validate_jsonl(path)["spans"] == 0


# --- file-level violations ----------------------------------------------------

_SPAN = {"type": "span", "index": 0, "parent": None, "depth": 0,
         "name": "x", "v_start": 0.0, "v_end": 1.0,
         "wall_start": 0.0, "wall_end": 1.0, "attrs": {}}



def test_validate_rejects_missing_meta(tmp_path):
    path = _write(tmp_path, [{"type": "event", "name": "x", "v_time": 0.0,
                              "rank": None, "span": None, "attrs": {}}])
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
    ranked_span = {**_SPAN, "rank": None}  # a span record before v8
    with pytest.raises(SchemaError, match="undeclared key 'rank'"):
        validate_jsonl(_write(tmp_path, [_meta(spans=1), ranked_span]))


# --- per-type rules -----------------------------------------------------------


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


#: One measured two-rank run with one message, as its three records.
_RUN = {"type": "event", "name": "vm.run", "v_time": 0.0, "rank": None,
        "span": None, "attrs": {"run": 0, "nranks": 2, "base": 0.0,
                                "makespan": 2.0, "clock": "wall"}}
_NODES = {"type": "nodes", "run": 0, "t_setup": None, "kind": [2, 3],
          "rank": [0, 1], "msg": [-1, 1], "t_end": [1.0, 2.0],
          "t_start": [0.0, 0.5], "wait": [0.0, 0.5]}
_MSGS = {"type": "msgs", "run": 0, "dst": [1], "tag": [0], "nwords": [8],
         "id": [7]}


def _run_records(**bad) -> list[dict]:
    """Meta plus :data:`_RUN`, :data:`_NODES` and :data:`_MSGS`, with
    ``bad`` replacing columns of the record its keys belong to."""
    nodes = {**_NODES, **{k: v for k, v in bad.items() if k in _NODES}}
    msgs = {**_MSGS, **{k: v for k, v in bad.items() if k not in _NODES}}
    return [_meta(events=1, nodes=1, msgs=1), _RUN, nodes, msgs]


def test_validate_accepts_a_measured_run():
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(Path(tmp), _run_records())
        assert validate_jsonl(path)["nodes"] == 1
        [node_send, node_recv] = causal_nodes(read_jsonl(path))
    assert (node_send.msg, node_recv.msg, node_recv.wait) == (7, 7, 0.5)


@pytest.mark.parametrize("rec", [
    {"type": "event", "name": "x", "v_time": 0.0, "rank": -2, "span": None,
     "attrs": {}},
    {"type": "metric", "name": "x", "kind": "gauge", "value": 1.0,
     "labels": {}, "cycle": None, "rank": -1, "v_time": 0.0},
    {**_NODES, "rank": [0, -1]},
])
def test_validate_rejects_negative_rank(tmp_path, rec):
    records = ([_meta(**{COUNT_KEYS[rec["type"]]: 1}), rec]
               if rec["type"] != "nodes" else _run_records(rank=rec["rank"]))
    with pytest.raises(SchemaError, match="negative .* rank|rank -1 is not"):
        validate_jsonl(_write(tmp_path, records))


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
    ({"kind": [2, 1]}, "not in"),
    ({"t_end": [1.0, 0.25]}, "ends before it starts"),
    ({"wait": [0.0, -0.5]}, "negative node wait"),
    ({"msg": [-1, 1.5]}, "list of ints"),
])
def test_validate_rejects_bad_node(tmp_path, bad, match):
    records = _run_records(**bad)
    with pytest.raises(SchemaError, match=f"line 3: nodes .*{match}"):
        validate_jsonl(_write(tmp_path, records))


#: Per reference the one-row-per-operation form resolved between rows, the
#: columns that break it now: (the bad columns, the line, the error).
_REFERENCES = {
    # a recv's message is one its run sent
    ("node", "msg", "msg"): ({"msg": [-1, 2]}, 3,
                             "nodes msg at node 1 names message 2 of 1"),
    # a message is one entry per send node of its run
    ("msg", "send_node", "node"): ({"dst": [1, 0], "tag": [0, 0]}, 4,
                                   "msgs dst holds 2 entries, not 1"),
    # a message's recv node comes after its send node
    ("msg", "recv_node", "node"): (
        {"kind": [3, 2], "rank": [1, 0], "msg": [1, -1]}, 3,
        "nodes msg at node 0: message 1 is received before it is sent"),
}


@pytest.mark.parametrize("kind, key, target", list(_REFERENCES))
def test_causal_ids_resolve_within_their_run(tmp_path, kind, key, target):
    """What a ``kind``'s ``key`` named — a ``target`` of the same run — is
    implied by the columns' order, and a column that breaks it fails on
    read, naming the line and the column."""
    bad, line, match = _REFERENCES[kind, key, target]
    path = _write(tmp_path, _run_records(**bad))
    for consume in (validate_jsonl, read_jsonl):
        with pytest.raises(SchemaError, match=f"^line {line}: {match}"):
            consume(path)


@pytest.mark.parametrize("bad, match", [
    ({"msg": [1, 1]}, "nodes msg at node 0 is 1: only a recv"),
    ({"id": None}, "msgs id must be a list on a measured run"),
    ({"rank": [0]}, "nodes rank holds 1 entries, not 2"),
    ({"kind": [2.0, 3]}, "nodes kind must be a list of ints"),
    ({"rank": [0, True]}, "nodes rank must be a list of ints"),
    ({"t_end": [1.0, "2"]}, "nodes t_end must be a list of numbers"),
    ({"rank": [0, 2]}, "nodes rank 2 is not a rank of the run's 2"),
    ({"t_setup": 5e-5}, "nodes record holds t_setup .* or t_start"),
    ({"nwords": [-8]}, "negative msgs nwords"),
    ({"dst": [2]}, "msgs dst 2 is not a rank of the run's 2"),
])
def test_malformed_column_is_rejected_naming_it(tmp_path, bad, match):
    path = _write(tmp_path, _run_records(**bad))
    with pytest.raises(SchemaError, match=rf"^line \d: .*{match}"):
        read_jsonl(path)


def test_run_records_must_follow_their_marker_and_pair_up(tmp_path):
    meta, run, nodes, msgs = _run_records()
    with pytest.raises(SchemaError, match="line 2: nodes record for run 0 has "
                                          "no unclaimed vm.run"):
        validate_jsonl(_write(tmp_path, [meta, nodes, run, msgs]))
    with pytest.raises(SchemaError, match="line 3: msgs record for run 0 has no"):
        validate_jsonl(_write(tmp_path, [meta, run, msgs, nodes]))
    with pytest.raises(SchemaError, match="no msgs record"):
        validate_jsonl(_write(tmp_path, [{**meta, "msgs": 0}, run, nodes]))
    with pytest.raises(SchemaError, match="line 4: nodes record for run 0 has no unclaimed"):
        validate_jsonl(_write(tmp_path, [{**meta, "nodes": 2}, run, nodes,
                                         nodes, msgs]))


def test_export_refuses_a_record_it_could_not_read_back(tmp_path):
    tr = causal_tracer()
    [record] = tr.causal_records
    record.rows[1] = 5  # node 0's rank: not one of the run's two
    path = tmp_path / "never.jsonl"
    with pytest.raises(SchemaError, match="nodes rank 5"):
        export_jsonl(tr, path)
    assert not path.exists()


# --- Chrome trace -------------------------------------------------------------


def test_chrome_trace_flow_events(tmp_path):
    tr = causal_tracer()
    path = tmp_path / "trace.json"
    export_chrome_trace(tr, path)
    events = json.loads(path.read_text())["traceEvents"]
    starts = [e for e in events if e["ph"] == "s"]
    finishes = [e for e in events if e["ph"] == "f"]
    # one flow pair per *delivered* message, ids matching pairwise
    delivered = [m for m in causal_msgs(tr) if m.recv_node is not None]
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
    assert len(vm_slices) == len(causal_nodes(tr))
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
    delivered = [m for m in causal_msgs(tr) if m.recv_node is not None]
    assert len(starts) == len(finishes) == len(delivered) == 2
    assert set(starts) == set(finishes)
    nodes = {n.id: n for n in causal_nodes(tr)}
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
        ("repro.transport.spills", 192.0),
    ]
