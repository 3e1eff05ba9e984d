"""A foreign or damaged file in ``.repro_runs/`` never escapes as a Python error.

The store is a directory anyone can write into.  Arbitrary JSON values,
and valid run documents with one value swapped for the wrong type, are
dropped beside a good record: ``RunStore.records()`` must skip them (or
read them, when the swap left a valid record) and ``repro runs list``
must exit 0 with the good run listed — never a ``TypeError`` /
``AttributeError`` / traceback.  ``runs show`` on the same file either
prints the record or one ``error:`` line with exit status 2.
"""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import main
from repro.obs.runs import RunRecord, RunStore

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)

_GOOD = RunRecord(
    id="good", created="2026-01-01T00:00:00Z", kind="trace", label="step/r4",
    config={"resolution": 4}, source="a.jsonl", backends=["shm"],
    metrics={"makespan": 1.5, "wall_seconds": 0.25},
).to_json()


@st.composite
def _mutated(draw) -> dict:
    """The good document with one value, at random depth, replaced."""
    doc = json.loads(json.dumps(_GOOD))
    holder = doc
    key = draw(st.sampled_from(sorted(holder)))
    while isinstance(holder[key], dict) and holder[key] and draw(st.booleans()):
        holder = holder[key]
        key = draw(st.sampled_from(sorted(holder)))
    holder[key] = draw(_JSON)
    return doc


def _cli(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return status, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(doc=_JSON | _mutated())
def test_any_document_in_the_store_is_skipped_or_read(tmp_path_factory, doc):
    root = tmp_path_factory.mktemp("store")
    (root / "good.json").write_text(json.dumps(_GOOD))
    (root / "fuzz.json").write_text(json.dumps(doc))

    ids = [r.id for r in RunStore(str(root)).records()]
    assert "good" in ids and len(ids) <= 2

    status, out, err = _cli(["runs", "--dir", str(root), "list"])
    assert (status, err) == (0, "")
    assert "good" in out and f"{len(ids)} run(s)" in out

    status, out, err = _cli(["runs", "--dir", str(root), "show", "fuzz"])
    if len(ids) == 2:
        assert (status, err) == (0, "")
    else:
        assert (status, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
