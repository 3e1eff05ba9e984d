"""Corrupting a real trace never gets past the reader as a Python error.

A ``repro step 4 --nproc 4`` trace is truncated at a random byte, loses a
random line, or has a random value replaced by one of the wrong type.
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


def _cli(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return status, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("corrupt", [_truncate, _delete_line, _retype_value])
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


def test_pristine_trace_reads_and_runs_index_refuses_a_corrupt_one(tmp_path):
    path = tmp_path / "ok.jsonl"
    path.write_bytes(_trace())
    assert read_jsonl(path).causal_nodes
    assert _cli(["critical-path", str(path)])[0] == 0
    path.write_bytes(_trace()[:-40])
    status, out, err = _cli(["runs", "--dir", str(tmp_path), "index", str(path)])
    assert (status, out) == (2, "")
    assert err.startswith(f"error: {path}: line ") and err.count("\n") == 1
    assert not list(tmp_path.glob("*/*.json"))  # nothing was indexed
