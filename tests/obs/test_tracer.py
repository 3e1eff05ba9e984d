"""Unit tests for the span tracer: nesting, clocks, markers, ambience."""

import pytest

from repro.obs import (
    Tracer,
    current_tracer,
    maybe_phase,
    use_tracer,
)

from tests.fixtures import metric_value


def make_tracer():
    """Tracer with a deterministic wall clock (one tick per call)."""
    ticks = iter(range(10_000))
    return Tracer(wall_clock=lambda: float(next(ticks)))


def test_span_nesting_parent_depth_indices():
    tr = make_tracer()
    with tr.phase("outer") as outer:
        with tr.phase("inner") as inner:
            with tr.phase("leaf") as leaf:
                pass
        with tr.phase("inner2") as inner2:
            pass
    assert outer.parent is None and outer.depth == 0 and outer.index == 0
    assert inner.parent == 0 and inner.depth == 1
    assert leaf.parent == inner.index and leaf.depth == 2
    assert inner2.parent == 0 and inner2.depth == 1
    assert [s.index for s in tr.spans] == [0, 1, 2, 3]
    assert all(not s.open for s in tr.spans)


def test_virtual_clock_advances_only_on_charge():
    tr = make_tracer()
    with tr.phase("a") as a:
        tr.advance(2.0)
        with tr.phase("b") as b:
            tr.advance(3.0)
        tr.advance(1.0)
    assert a.v_start == 0.0 and a.v_end == 6.0
    assert b.v_start == 2.0 and b.v_end == 5.0
    assert a.v_duration == pytest.approx(6.0)
    assert b.v_duration == pytest.approx(3.0)
    assert tr.virtual_now == pytest.approx(6.0)


def test_wall_clock_independent_of_virtual():
    tr = make_tracer()
    with tr.phase("a") as a:
        pass  # no virtual charge at all
    assert a.v_duration == 0.0
    assert a.wall_duration > 0.0  # ticks advanced


def test_negative_advance_rejected():
    tr = make_tracer()
    with pytest.raises(ValueError, match="advance"):
        tr.advance(-1.0)


def test_child_durations_bounded_by_parent():
    tr = make_tracer()
    with tr.phase("p"):
        tr.advance(1.0)
        with tr.phase("c1"):
            tr.advance(2.0)
        with tr.phase("c2"):
            tr.advance(0.5)
    [p] = [s for s in tr.spans if s.name == "p"]
    kids = [s for s in tr.spans if s.parent == p.index]
    assert sum(k.v_duration for k in kids) <= p.v_duration


def test_events_counters_gauges():
    tr = make_tracer()
    with tr.phase("run") as run:
        tr.advance(1.5)
        ev = tr.event("tick", rank=3, detail=[1, 2])
        tr.metric("things", 1, kind="counter", rank=0)
        tr.metric("things", 4, kind="counter", rank=1)
        tr.metric("level", 0.25)
        tr.metric("level", 0.75)
    assert ev.v_time == pytest.approx(1.5)
    assert ev.span == run.index and ev.rank == 3
    assert tr.events == [ev]
    # quantities live in the registry only: counters sum over their
    # samples, gauges keep the last write and are not totalled
    assert tr.metrics.totals() == {"things": 5.0}
    assert metric_value(tr.metrics, "level") == 0.75
    assert not hasattr(tr, "counters") and not hasattr(tr, "count")


def test_event_with_explicit_time():
    tr = make_tracer()
    ev = tr.event("later", v_time=9.0)
    assert ev.v_time == 9.0 and ev.span is None


def test_ambient_tracer_install_and_reset():
    assert current_tracer() is None
    tr = Tracer()
    with use_tracer(tr) as installed:
        assert installed is tr
        assert current_tracer() is tr
    assert current_tracer() is None


def test_maybe_phase_none_is_noop():
    with maybe_phase(None, "anything") as sp:
        assert sp is None


def test_maybe_phase_records_with_tracer():
    tr = make_tracer()
    with maybe_phase(tr, "real", key="v") as sp:
        assert sp is not None
    assert tr.spans[0].name == "real"
    assert tr.spans[0].attrs == {"key": "v"}
