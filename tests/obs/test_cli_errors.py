"""Bad values on the command line: one ``error:`` line, exit 2, no traceback.

Drives ``repro.__main__.main`` in-process, like ``test_cli_runs.py``.  A
size that cannot be (zero ranks, a resolution of -3, a negative ``--top``
or ``--rounds``) is refused by the argument parser; an output path that
cannot be written is refused before the run starts, so nothing has been
printed and no work is thrown away; so is a backend name that is not
registered, and more processors than the mesh has elements.
"""

from pathlib import Path

import pytest

from repro.__main__ import main
from repro.obs.export import export_jsonl
from repro.obs.tracer import Tracer


@pytest.fixture(autouse=True)
def _isolated_store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))


@pytest.fixture
def trace(tmp_path):
    tr = Tracer()
    with tr.phase("cycle", cycle=tr.begin_cycle()):
        tr.advance(1.0)
    path = tmp_path / "t.jsonl"
    export_jsonl(tr, path)
    return str(path)


@pytest.mark.parametrize("argv, argument", [
    (["scale", "--ranks", "0"], "--ranks"),
    (["scale", "--ranks", "16", "--work-units", "-5"], "--work-units"),
    (["case", "0"], "resolution"),
    (["case", "-3"], "resolution"),
    (["step", "6", "--nproc", "0"], "--nproc"),
    (["step", "0"], "resolution"),
    (["calibrate", "4", "--nproc", "0"], "--nproc"),
    (["calibrate", "x"], "resolution"),
    (["report", "{trace}", "--top", "-2"], "--top"),
    (["critical-path", "{trace}", "--top", "-3"], "--top"),
    (["diff", "{trace}", "{trace}", "--top", "-1"], "--top"),
    (["scale", "--ranks", "4", "--rounds", "-3"], "--rounds"),
    (["scale", "--ranks", "4", "--rounds", "0"], "--rounds"),
    (["scale", "--ranks", "4", "--halo-words", "-5"], "--halo-words"),
])
def test_impossible_sizes_are_refused_by_the_parser(argv, argument, trace,
                                                    capsys):
    with pytest.raises(SystemExit) as exc:
        main([a.format(trace=trace) for a in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {argument}: expected a " in captured.err
    assert "Traceback" not in captured.err


def test_top_zero_prints_no_rows(capsys):
    step = str(Path(__file__).parent / "data" / "step4.jsonl")
    assert main(["report", step, "--top", "0"]) == 0
    out = capsys.readouterr().out
    assert "Balance quality per cycle" in out
    assert "spans by virtual duration" not in out and "path segments" not in out
    assert main(["critical-path", step, "--top", "0"]) == 0
    out = capsys.readouterr().out
    assert "makespan:" in out and "path segments" not in out


def test_step_refuses_more_processors_than_elements(capsys):
    # the resolution-1 rotor mesh has 12 elements: 64 parts cannot be cut
    assert main(["step", "1", "--nproc", "64"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: --nproc 64 exceeds the 12 elements of the resolution-1 mesh\n"
    )


@pytest.mark.parametrize("target", ["0", "-1"])
def test_report_refuses_a_resolution_below_one(target, capsys):
    assert main(["report", target]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["step", "4", "--nproc", "4", "--trace-out", "{missing}/x.jsonl"],
    ["step", "4", "--nproc", "4", "--chrome-out", "{missing}/x.json"],
    ["calibrate", "4", "--nproc", "2", "--trace-out", "{missing}/x.jsonl"],
    ["report", "4", "--trace-out", "{missing}/x.jsonl"],
    ["report", "{trace}", "--format", "html", "--out", "{missing}/x.html"],
    ["report", "{trace}", "--format", "both", "--out", "{missing}/x.html"],
    ["report", "{trace}", "--format", "html", "--out", "{folder}"],
])
def test_unwritable_output_path_is_one_error_line_before_any_work(
        argv, trace, tmp_path, capsys):
    missing = tmp_path / "no-such-directory"
    argv = [a.format(missing=missing, trace=trace, folder=tmp_path) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # the run prints its tables before it exports
    assert captured.err.startswith(f"error: {argv[-1]}: ")
    assert captured.err.count("\n") == 1
    assert not missing.exists()


@pytest.mark.parametrize("backend", ["bogus", "mpi"])
def test_step_refuses_an_unknown_backend_before_any_work(backend, capsys, monkeypatch):
    from repro import experiments

    def no_work(resolution):
        pytest.fail("the case was built before the backend name was checked")

    monkeypatch.setattr(experiments, "make_case", no_work)
    assert main(["step", "4", "--nproc", "4", "--backend", backend]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"error: unknown communicator backend {backend!r}; available: "
    )
    assert "virtual" in captured.err and captured.err.count("\n") == 1


def test_writable_output_paths_still_work(trace, tmp_path, capsys):
    out = tmp_path / "r.html"
    assert main(["report", trace, "--format", "both", "--out", str(out)]) == 0
    assert out.read_text().startswith("<!DOCTYPE html>")
    assert "repro run report" in capsys.readouterr().out
