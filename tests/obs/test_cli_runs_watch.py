"""CLI surface of the live/run-history layer: ``repro watch`` / ``repro runs``.

Drives ``repro.__main__.main`` in-process (no subprocesses) against
temporary stores and status dirs, pinning exit codes and the headline
lines scripts grep for.
"""

import pytest

from repro.__main__ import main
from repro.obs.export import export_jsonl
from repro.obs.live import publish_status
from repro.obs.resource import record_resource_samples
from repro.obs.runs import RunStore
from repro.obs.tracer import Tracer


@pytest.fixture(autouse=True)
def _isolated_store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
    return tmp_path


def _trace_file(tmp_path, name="t.jsonl", seconds=2.0):
    # deterministic wall clock: host-wall noise on these micro-traces
    # would otherwise trip the regress gate on wall_seconds
    ticks = iter(range(1000))
    tr = Tracer(wall_clock=lambda: float(next(ticks)))
    with tr.phase("cycle", cycle=tr.begin_cycle()):
        with tr.phase("exec"):
            tr.advance(seconds)
    record_resource_samples(
        tr, {"times": [0.0], "rss": [1.0], "cpu": [0.0], "gcs": [0]}
    )
    path = tmp_path / name
    export_jsonl(tr, path)
    return str(path)


def test_runs_list_empty_store(capsys):
    assert main(["runs", "list"]) == 0
    assert "no runs stored" in capsys.readouterr().out


def test_runs_index_show_compare(tmp_path, capsys):
    a = _trace_file(tmp_path, "a.jsonl", seconds=2.0)
    b = _trace_file(tmp_path, "b.jsonl", seconds=3.0)
    assert main(["runs", "index", a, "--label", "demo"]) == 0
    assert main(["runs", "index", b, "--label", "demo"]) == 0
    store = RunStore()
    id_a, id_b = store.ids()
    assert main(["runs", "show", id_a]) == 0
    out = capsys.readouterr().out
    assert "label:    demo" in out and "virtual_seconds" in out
    assert main(["runs", "compare", id_a, id_b]) == 0
    assert "virtual_seconds" in capsys.readouterr().out


def test_runs_index_missing_trace_errors(capsys):
    assert main(["runs", "index", "/nonexistent/trace.jsonl"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: /nonexistent/trace.jsonl: No such")
    assert captured.out == ""


def test_runs_unknown_id_errors(tmp_path, capsys):
    assert main(["runs", "show", "zzz"]) == 2
    assert "no run 'zzz'" in capsys.readouterr().err


def test_runs_regress_flags_slowed_run(tmp_path, capsys):
    # acceptance criterion end to end: a synthetically slowed trace is
    # flagged by `repro runs regress` against the stored baseline
    for i in range(3):
        path = _trace_file(tmp_path, f"base{i}.jsonl", seconds=1.0)
        assert main(["runs", "index", path, "--label", "series"]) == 0
    slowed = _trace_file(tmp_path, "slow.jsonl", seconds=2.0)
    assert main(["runs", "index", slowed, "--label", "series"]) == 0
    slowed_id = capsys.readouterr().out.rsplit(
        "indexed run ", 1)[1].split()[0]
    assert main(["runs", "regress", slowed_id]) == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out and "virtual_seconds" in out
    # a clean baseline run itself passes
    clean = next(r for r in RunStore().records()
                 if r.metrics["virtual_seconds"] < 1.5)
    assert main(["runs", "regress", clean.id]) == 0
    assert "OK: no metric regressed" in capsys.readouterr().out


def test_runs_regress_empty_store_errors(capsys):
    assert main(["runs", "regress"]) == 2
    assert "no runs stored" in capsys.readouterr().err


def test_watch_once_no_live_run(tmp_path, capsys):
    assert main(["watch", "--once"]) == 1
    assert "no live run found" in capsys.readouterr().err


def test_watch_once_renders_published_status(tmp_path, capsys):
    status = str(tmp_path / "runs" / "live" / "s.json")
    publish_status(
        {"title": "watched run", "status": "running", "elapsed": 1.0,
         "cycle": 2, "phase_stack": ["exec"]},
        status,
    )
    assert main(["watch", "--once"]) == 0
    out = capsys.readouterr().out
    assert "watched run  [running]" in out
    assert "cycle 2 | phase: exec" in out
    # an explicit path wins over directory discovery
    assert main(["watch", status, "--once"]) == 0
