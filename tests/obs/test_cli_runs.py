"""CLI surface of the run-history store: ``repro runs``.

Drives ``repro.__main__.main`` in-process (no subprocesses) against
temporary stores, pinning exit codes and the headline lines scripts
grep for.
"""

import json

import pytest

from repro.__main__ import main
from repro.obs.export import export_jsonl
from repro.obs.resource import record_resources
from repro.obs.runs import RunStore
from repro.obs.tracer import Tracer


@pytest.fixture(autouse=True)
def _isolated_store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
    return tmp_path


def _trace_file(tmp_path, name="t.jsonl", seconds=2.0):
    tr = Tracer()
    with tr.phase("cycle", cycle=tr.begin_cycle()):
        with tr.phase("exec"):
            tr.advance(seconds)
    record_resources(tr, (1.0, 0.0, 0), None, "host")
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


def test_runs_survive_foreign_documents_in_the_store(tmp_path, capsys):
    assert main(["runs", "index", _trace_file(tmp_path), "--label", "ok"]) == 0
    store = RunStore()
    (good,) = store.records()
    doc = good.to_json()
    bad = {
        "a-list": [],
        "b-backends": {**doc, "backends": 5},
        "c-metrics": {**doc, "metrics": {"makespan": "abc"}},
    }
    for name, content in bad.items():
        (tmp_path / "runs" / f"{name}.json").write_text(json.dumps(content))
    capsys.readouterr()
    assert main(["runs", "list"]) == 0
    out = capsys.readouterr().out
    assert good.id in out and "1 run(s)" in out
    for name in bad:
        for argv in (["runs", "show", name],
                     ["runs", "compare", good.id, name]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: run record ")
            assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["watch"],
    ["runs", "regress"],
    ["step", "4", "--live"],
    ["step", "4", "--runs-dir", "x"],
])
def test_removed_commands_and_flags_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "usage:" in capsys.readouterr().err
