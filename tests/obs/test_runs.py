"""Run-history store: records, trace summarization, comparison."""

import json
from pathlib import Path

import pytest

from repro.obs.resource import record_resources
from repro.obs.runs import (
    RUNS_SCHEMA,
    RunRecord,
    RunStore,
    compare_records,
    format_compare,
    format_record,
    format_runs_list,
    hash_config,
    index_trace,
    summarize_trace,
)
from repro.obs.export import export_jsonl
from repro.obs.tracer import Tracer


# --- RunStore ----------------------------------------------------------------


def test_store_add_get_roundtrip(tmp_path):
    store = RunStore(str(tmp_path / "runs"))
    rec = store.add(
        kind="trace", label="step/r4",
        metrics={"makespan": 1.5, "skipme": "text", "flag": True},
        config={"resolution": 4}, source="a.jsonl", backends=["shm"],
    )
    assert len(store.ids()) == 1
    back = store.get(rec.id)
    assert (back.kind, back.label, back.config_hash) == (
        "trace", "step/r4", hash_config({"resolution": 4}))
    # non-numeric and boolean metric values are dropped on ingest
    assert back.metrics == {"makespan": 1.5}
    assert back.backends == ["shm"]


def _add_as(store, run_id, **kw):
    """``store.add``, then the record moved under a chosen id."""
    rec = store.add(metrics={}, **kw)
    old = Path(store.root) / f"{rec.id}.json"
    doc = {**json.loads(old.read_text()), "id": run_id}
    (Path(store.root) / f"{run_id}.json").write_text(json.dumps(doc))
    old.unlink()
    return store.get(run_id)


def test_store_get_by_unique_prefix(tmp_path):
    store = RunStore(str(tmp_path))
    a = _add_as(store, "20260101-aaaa", kind="trace", label="x")
    _add_as(store, "20260101-bbbb", kind="trace", label="x")
    assert store.get("20260101-a").id == a.id
    with pytest.raises(KeyError, match="ambiguous"):
        store.get("20260101")
    with pytest.raises(KeyError, match="no run"):
        store.get("19990101")


def test_store_records_skip_foreign_files(tmp_path):
    store = RunStore(str(tmp_path))
    _add_as(store, "r1", kind="bench", label="b")
    (tmp_path / "junk.json").write_text("{not json")
    (tmp_path / "other.json").write_text(json.dumps({"schema": "other/v9"}))
    # right schema, wrong shape (tests/obs/test_cli_runs.py has the three
    # documents that used to crash `runs list`)
    good = store.get("r1").to_json()
    for name, doc in {
        "nan": {**good, "metrics": {"makespan": float("nan")}},
        "huge": {**good, "metrics": {"makespan": 10**400}},
        "label": {**good, "label": None},
    }.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="run record"):
            store.get(name)
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(ValueError, match="nests too deeply"):
        store.get("deep")
    recs = store.records()
    assert [r.id for r in recs] == ["r1"]
    assert "1 run(s)" in format_runs_list(recs)


def test_record_schema_guard():
    with pytest.raises(ValueError, match="unsupported run-record schema"):
        RunRecord.from_json({"schema": "repro.runs/v999", "id": "x"})
    doc = RunRecord(id="x", created="now", kind="trace", label="l").to_json()
    assert doc["schema"] == RUNS_SCHEMA
    assert RunRecord.from_json(doc).id == "x"


def test_hash_config_is_order_stable():
    assert hash_config({"a": 1, "b": 2}) == hash_config({"b": 2, "a": 1})
    assert hash_config({"a": 1}) != hash_config({"a": 2})
    assert hash_config(None) == hash_config({})


# --- trace summarization -----------------------------------------------------


def _traced_run():
    tr = Tracer()
    with tr.phase("cycle", cycle=tr.begin_cycle()):
        with tr.phase("exec"):
            tr.advance(2.0)
        with tr.phase("partition"):
            tr.advance(0.5)
    record_resources(tr, (200.0, 0.3, 2), None, "host")
    record_resources(tr, (150.0, 0.1, 1), 0, "shm")
    return tr


def test_summarize_trace_headline_metrics(tmp_path):
    metrics, backends = summarize_trace(_traced_run())
    assert metrics["virtual_seconds"] == pytest.approx(2.5)
    assert metrics["phase.exec.virtual_seconds"] == pytest.approx(2.0)
    assert metrics["phase.partition.virtual_seconds"] == pytest.approx(0.5)
    assert metrics["peak_rss_bytes"] == 200.0  # the largest process
    assert metrics["cpu_seconds"] == pytest.approx(0.4)  # summed
    assert metrics["gc_collections"] == 3.0
    assert backends == []  # no measured backend ran


def test_summarize_trace_accepts_path(tmp_path):
    path = tmp_path / "t.jsonl"
    export_jsonl(_traced_run(), path)
    metrics, _ = summarize_trace(str(path))
    assert metrics["virtual_seconds"] == pytest.approx(2.5)


def test_index_trace_stores_summary(tmp_path):
    path = tmp_path / "t.jsonl"
    export_jsonl(_traced_run(), path)
    store = RunStore(str(tmp_path / "runs"))
    rec = index_trace(store, str(path), label="step/r4",
                      config={"resolution": 4})
    back = store.get(rec.id)
    assert back.kind == "trace" and back.label == "step/r4"
    assert back.source == str(path)
    assert back.metrics["virtual_seconds"] == pytest.approx(2.5)


# --- analytics ---------------------------------------------------------------


def _rec(run_id, makespan, label="step/r4", created="2026-01-01T00:00:00Z",
         **extra):
    return RunRecord(
        id=run_id, created=created, kind="trace", label=label,
        config={"resolution": 4},
        metrics={"makespan": makespan, **extra},
    )


def test_compare_records_deltas():
    a = _rec("a", 2.0, wall_seconds=1.0)
    b = _rec("b", 3.0, peak_rss_bytes=100.0)
    rows = {r[0]: r for r in compare_records(a, b)}
    assert rows["makespan"] == ("makespan", 2.0, 3.0, 1.0, 50.0)
    assert rows["wall_seconds"][2] is None  # missing on B
    assert rows["peak_rss_bytes"][1] is None  # missing on A


# --- formatting --------------------------------------------------------------


def test_format_runs_list():
    out = format_runs_list([_rec("r0", 1.5)])
    assert "step/r4" in out and "1 run(s)" in out
    assert "no runs stored" in format_runs_list([])


def test_format_record_and_compare():
    a, b = _rec("a", 2.0), _rec("b", 3.0)
    assert "makespan" in format_record(a)
    out = format_compare(a, b)
    assert "comparing a (A) vs b (B):" in out and "+50.0%" in out
