"""Corrupting a real trace never gets past the reader as a Python error.

A ``repro step 4 --nproc 4`` trace is truncated at a random byte, loses a
random line, has a random value replaced by one of the wrong type, or has
one of its causal columns cut short or one entry replaced (by a wrong
type, a negative number or one past any rank or message).
``read_jsonl`` must then either succeed or raise :class:`SchemaError` —
never ``KeyError`` / ``TypeError`` / ``IndexError`` — and the CLI
commands that load traces must turn every such failure into one
``error:`` line on stderr, exit status 2, and an empty stdout.
"""

import contextlib
import functools
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import main
from repro.obs import SchemaError, read_jsonl

from tests.fixtures import causal_nodes

_WRONG = st.sampled_from([None, True, "x", -1, 1.5, [], {}, [None], {"a": 1}])


@functools.cache
def _trace() -> bytes:
    """The pristine trace (a plain function, not a fixture: hypothesis
    would print the whole file as a failing example's argument)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "step.jsonl"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["step", "4", "--nproc", "4", "--no-history",
                         "--trace-out", str(path)]) == 0
        return path.read_bytes()


def _truncate(data: bytes, draw) -> bytes:
    return data[:draw(st.integers(0, len(data) - 1))]


def _delete_line(data: bytes, draw) -> bytes:
    lines = data.splitlines(keepends=True)
    del lines[draw(st.integers(0, len(lines) - 1))]
    return b"".join(lines)


def _retype_value(data: bytes, draw) -> bytes:
    lines = data.splitlines(keepends=True)
    i = draw(st.integers(0, len(lines) - 1))
    rec = json.loads(lines[i])
    # descend into a random key, at random depth, and swap what is there
    holder = rec
    key = draw(st.sampled_from(sorted(holder)))
    while isinstance(holder[key], dict) and holder[key] and draw(st.booleans()):
        holder = holder[key]
        key = draw(st.sampled_from(sorted(holder)))
    holder[key] = draw(_WRONG.filter(lambda v: type(v) is not type(holder[key])))
    lines[i] = json.dumps(rec).encode() + b"\n"
    return b"".join(lines)


def _corrupt_column(data: bytes, draw) -> bytes:
    lines = data.splitlines(keepends=True)
    # a run that sent no message has a ``msgs`` record of empty columns:
    # nothing in it to cut or replace
    causal = [i for i, line in enumerate(lines)
              if (rec := json.loads(line))["type"] in ("nodes", "msgs")
              and any(isinstance(v, list) and v for v in rec.values())]
    i = draw(st.sampled_from(causal))
    rec = json.loads(lines[i])
    col = draw(st.sampled_from(sorted(k for k, v in rec.items()
                                      if isinstance(v, list) and v)))
    j = draw(st.integers(0, len(rec[col]) - 1))
    if draw(st.booleans()):
        del rec[col][j]
    else:
        rec[col][j] = draw(_WRONG | st.sampled_from([-2, 10**6]))
    lines[i] = json.dumps(rec).encode() + b"\n"
    return b"".join(lines)


def _cli(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return status, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("corrupt", [_truncate, _delete_line, _retype_value,
                                     _corrupt_column])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_corrupt_trace_reads_or_raises_schema_error(
    tmp_path_factory, corrupt, data
):
    path = tmp_path_factory.mktemp("case") / "bad.jsonl"
    path.write_bytes(corrupt(_trace(), data.draw))
    try:
        read_jsonl(path)
    except SchemaError as exc:
        message = str(exc)
    else:
        return  # e.g. a swapped free-form attr: still a valid trace
    for argv in (["report", str(path)], ["critical-path", str(path)],
                 ["diff", str(path), str(path)]):
        status, out, err = _cli(argv)
        assert (status, out) == (2, ""), argv
        assert err.startswith(f"error: {path}: {message}")
        assert err.count("\n") <= 2  # one line per trace argument


#: A measured run's trace (``step 4 --nproc 3 --backend shm``): its
#: ``vm.run`` markers carry the attrs only a measured run has.
MEASURED = Path(__file__).parent / "data" / "step4_shm.jsonl"


@pytest.mark.parametrize("key", ["skew", "rank_makespan", "clock"])
@pytest.mark.parametrize("value", [None, True, "x", -1, 1.5, [], {"a": 1}])
def test_measured_run_attrs_are_type_checked(tmp_path, key, value):
    """A wrong ``skew`` / ``rank_makespan`` / ``clock`` on a measured
    ``vm.run`` is a :class:`SchemaError` naming its line, not a Python
    error later in the makespan check or the clock table."""
    lines = MEASURED.read_bytes().splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines)
             if b'"clock": "wall"' in line and b'"vm.run"' in line)
    rec = json.loads(lines[i])
    if type(value) is type(rec["attrs"][key]) and value != -1:
        return  # the right type: nothing to refuse
    rec["attrs"][key] = value
    lines[i] = json.dumps(rec).encode() + b"\n"
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b"".join(lines))
    with pytest.raises(SchemaError, match=rf"^line {i + 1}: .*attrs\.{key}"):
        read_jsonl(path)
    status, out, err = _cli(["report", str(path)])
    assert (status, out) == (2, "")
    assert err.startswith(f"error: {path}: line {i + 1}: ")


def test_pristine_trace_reads_and_runs_index_refuses_a_corrupt_one(tmp_path):
    path = tmp_path / "ok.jsonl"
    path.write_bytes(_trace())
    assert causal_nodes(read_jsonl(path))
    assert _cli(["critical-path", str(path)])[0] == 0
    path.write_bytes(_trace()[:-40])
    status, out, err = _cli(["runs", "--dir", str(tmp_path), "index", str(path)])
    assert (status, out) == (2, "")
    assert err.startswith(f"error: {path}: line ") and err.count("\n") == 1
    assert not list(tmp_path.glob("*/*.json"))  # nothing was indexed
