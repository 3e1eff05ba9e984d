"""Run-history store: records, trace summarization, regression analytics."""

import json

import pytest

from repro.obs.resource import record_resource_samples
from repro.obs.runs import (
    DEFAULT_THRESHOLD,
    RUNS_SCHEMA,
    Regression,
    RunRecord,
    RunStore,
    compare_records,
    find_regressions,
    format_compare,
    format_record,
    format_regressions,
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
    assert len(store) == 1
    back = store.get(rec.id)
    assert back.baseline_key == ("trace", "step/r4", hash_config(
        {"resolution": 4}))
    # non-numeric and boolean metric values are dropped on ingest
    assert back.metrics == {"makespan": 1.5}
    assert back.backends == ["shm"]


def test_store_get_by_unique_prefix(tmp_path):
    store = RunStore(str(tmp_path))
    a = store.add(kind="trace", label="x", metrics={}, run_id="20260101-aaaa")
    store.add(kind="trace", label="x", metrics={}, run_id="20260101-bbbb")
    assert store.get("20260101-a").id == a.id
    with pytest.raises(KeyError, match="ambiguous"):
        store.get("20260101")
    with pytest.raises(KeyError, match="no run"):
        store.get("19990101")


def test_store_records_skip_foreign_files(tmp_path):
    store = RunStore(str(tmp_path))
    store.add(kind="bench", label="b", metrics={}, run_id="r1")
    (tmp_path / "junk.json").write_text("{not json")
    (tmp_path / "other.json").write_text(json.dumps({"schema": "other/v9"}))
    recs = store.records()
    assert [r.id for r in recs] == ["r1"]


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
    record_resource_samples(
        tr,
        {"times": [0.0, 0.1], "rss": [100.0, 200.0], "cpu": [0.0, 0.3],
         "gcs": [0, 2]},
        rank=None, backend="host",
    )
    return tr


def test_summarize_trace_headline_metrics(tmp_path):
    metrics, backends = summarize_trace(_traced_run())
    assert metrics["virtual_seconds"] == pytest.approx(2.5)
    assert metrics["phase.exec.virtual_seconds"] == pytest.approx(2.0)
    assert metrics["phase.partition.virtual_seconds"] == pytest.approx(0.5)
    assert metrics["peak_rss_bytes"] == 200.0
    assert metrics["resource_samples"] == 2
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
                      config={"resolution": 4},
                      extra_metrics={"speedup": 3.0})
    back = store.get(rec.id)
    assert back.kind == "trace" and back.label == "step/r4"
    assert back.source == str(path)
    assert back.metrics["virtual_seconds"] == pytest.approx(2.5)
    assert back.metrics["speedup"] == 3.0


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


def test_regress_flags_synthetic_slowdown():
    # acceptance criterion: a synthetically slowed run must be flagged
    # against the rolling baseline of its prior matching runs
    history = [_rec(f"r{i}", 1.0 + 0.01 * i,
                    created=f"2026-01-0{i + 1}T00:00:00Z")
               for i in range(5)]
    slowed = _rec("cand", 2.0, created="2026-01-06T00:00:00Z")
    flags, pool = find_regressions(history, slowed)
    assert pool == 5
    (flag,) = flags
    assert flag.metric == "makespan"
    assert flag.factor == pytest.approx(2.0 / 1.02)
    assert flag.window == 5


def test_regress_clean_run_passes():
    history = [_rec(f"r{i}", 1.0, created=f"2026-01-0{i + 1}T00:00:00Z")
               for i in range(3)]
    cand = _rec("cand", 1.05, created="2026-01-05T00:00:00Z")
    flags, pool = find_regressions(history, cand)
    assert pool == 3 and flags == []


def test_regress_needs_matching_baseline_key():
    history = [_rec("r0", 1.0, label="step/r8")]
    cand = _rec("cand", 99.0)  # label step/r4: different baseline series
    flags, pool = find_regressions(history, cand)
    assert (flags, pool) == ([], 0)


def test_regress_window_takes_most_recent():
    history = [_rec(f"r{i}", 10.0 if i < 5 else 1.0,
                    created=f"2026-01-{i + 1:02d}T00:00:00Z")
               for i in range(10)]
    cand = _rec("cand", 1.5, created="2026-02-01T00:00:00Z")
    flags, pool = find_regressions(history, cand, window=5)
    # baseline is the recent five 1.0s, not the stale 10.0s
    assert pool == 5
    assert flags and flags[0].baseline == 1.0


def test_regress_higher_is_better_inverted():
    history = [_rec(f"r{i}", 1.0, speedup=4.0,
                    created=f"2026-01-0{i + 1}T00:00:00Z")
               for i in range(3)]
    cand = _rec("cand", 1.0, speedup=2.0, created="2026-01-05T00:00:00Z")
    flags, _pool = find_regressions(history, cand)
    (flag,) = flags
    assert flag.metric == "speedup"
    assert flag.factor == pytest.approx(2.0)  # baseline/candidate


def test_regress_abs_slack_tolerates_tiny_costs():
    history = [_rec("r0", 1.0, tiny_cost=0.0)]
    cand = _rec("cand", 1.0, tiny_cost=1e-12,
                created="2026-01-02T00:00:00Z")
    flags, _ = find_regressions(history, cand, abs_slack=1e-9)
    assert flags == []


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


def test_format_regressions_messages():
    cand = _rec("cand", 2.0)
    flag = Regression(metric="makespan", candidate=2.0, baseline=1.0,
                      factor=2.0, window=5)
    flagged = format_regressions(cand, [flag], pool=5,
                                 threshold=DEFAULT_THRESHOLD)
    assert "REGRESSION makespan" in flagged and "2.00x worse" in flagged
    clean = format_regressions(cand, [], pool=5, threshold=DEFAULT_THRESHOLD)
    assert "OK: no metric regressed" in clean
    empty = format_regressions(cand, [], pool=0, threshold=DEFAULT_THRESHOLD)
    assert "no matching prior runs" in empty
