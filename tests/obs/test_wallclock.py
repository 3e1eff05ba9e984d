"""Unit tests for per-rank wall-clock recording and stream merging."""

import pytest

from repro.obs import Tracer
from repro.obs.causal import critical_path, runs_from_tracer, verify_makespans
from repro.obs.wallclock import (
    RECV,
    SEND,
    WORK,
    WallRecorder,
    format_clock_skew,
    merge_streams,
    record_measured_run,
)


def test_recorder_tiles_the_rank_interval():
    rec = WallRecorder()
    rec.start(10.0)
    rec.note_op(SEND, 10.5, 10.7)          # gap [10.0, 10.5] becomes work
    rec.note_op(RECV, 10.7, 11.0, wait=0.2)  # adjacent: no synthetic gap
    rec.finish(11.4)                        # trailing work [11.0, 11.4]
    cols = rec.columns()
    assert cols["t0"] == 10.0
    assert cols["kinds"] == [WORK, SEND, RECV, WORK]
    assert cols["starts"] == [10.0, 10.5, 10.7, 11.0]
    assert cols["ends"] == [10.5, 10.7, 11.0, 11.4]
    assert cols["waits"] == [0.0, 0.0, 0.2, 0.0]
    # nodes tile [t0, t_end] with no gaps or overlaps
    assert cols["starts"][0] == cols["t0"]
    for prev_end, start in zip(cols["ends"], cols["starts"][1:]):
        assert prev_end == start


def test_recorder_finish_without_trailing_gap_adds_nothing():
    rec = WallRecorder()
    rec.start(0.0)
    rec.note_op(SEND, 0.0, 1.0)
    rec.finish(1.0)
    assert rec.columns()["kinds"] == [SEND]


def test_recorder_send_and_spill_bookkeeping():
    rec = WallRecorder()
    rec.start(0.0)
    rec.note_send(7, 2, 5, 64, 0.1, 0.2)
    rec.note_spill(0.15, 7)
    cols = rec.columns()
    assert cols["sends"] == [(7, 2, 5, 64)]
    assert cols["spills"] == [(0.15, 7)]
    assert cols["kinds"] == [WORK, SEND]
    assert cols["msgs"] == [-1, 7]


def _two_rank_streams(stagger=0.0):
    """Rank 0 sends one message; rank 1 receives it after a wait.

    ``stagger`` delays rank 1's recorder start (its process booted
    later); both ranks read the one ``perf_counter`` clock.
    """
    r0 = WallRecorder()
    r0.start(100.0)
    r0.note_send(0, 1, 5, 64, 100.001, 100.002)
    r0.finish(100.003)
    r1 = WallRecorder()
    r1.start(100.0 + stagger)
    r1.note_op(RECV, 100.001, 100.004, wait=0.002, msg=0)
    r1.finish(100.005)
    return {0: r0.columns(), 1: r1.columns()}


def test_merge_streams_builds_an_aligned_causal_run():
    merged = merge_streams(_two_rank_streams())
    nodes, msgs = merged.record.objects()
    assert merged.makespan == pytest.approx(0.005)
    assert merged.rank_makespan == pytest.approx(0.005)
    assert merged.start_spread == 0.0
    assert merged.epoch == pytest.approx(100.0)
    [msg] = msgs
    assert (msg.src, msg.dst, msg.tag, msg.nwords) == (0, 1, 5, 64)
    assert msg.recv_node is not None
    # every DAG edge must go low id -> high id (consumer invariant)
    assert msg.send_node < msg.recv_node
    by_rank = {}
    for node in nodes:
        if node.rank in by_rank:
            assert by_rank[node.rank] < node.id
        by_rank[node.rank] = node.id
    # nodes still tile each rank's interval on the merged timeline
    recv = next(n for n in nodes if n.kind == "recv")
    assert recv.wait == pytest.approx(0.002)
    assert recv.t_start == pytest.approx(0.001)


def test_merge_streams_clamps_bogus_waits():
    streams = _two_rank_streams()
    streams[1]["waits"] = [1e9] * len(streams[1]["waits"])
    merged = merge_streams(streams)
    for node in merged.record.objects()[0]:
        assert 0.0 <= node.wait <= (node.t_end - node.t_start) + 1e-12


def test_merge_streams_aligns_spills():
    streams = _two_rank_streams(stagger=0.0005)
    streams[1]["spills"] = [(100.0035, 0)]
    merged = merge_streams(streams)
    [(t, rank, mid)] = merged.spills
    assert (rank, mid) == (1, 0)
    # run-local time counts from the earliest rank start, not rank 1's
    assert t == pytest.approx(0.0035)


def _recorded_tracer():
    tracer = Tracer()
    with tracer.phase("exchange", kind="compute"):
        record = record_measured_run(
            tracer, _two_rank_streams(stagger=0.0005),
            nranks=2, backend="multiprocessing",
            waited=[0.0, 0.002], msgs_sent=[1, 0], msgs_recv=[0, 1],
            words_sent=[64, 0], words_recv=[0, 64],
        )
    return tracer, record


def test_record_measured_run_writes_the_trace():
    tracer, record = _recorded_tracer()
    assert tracer.causal_records == [record]
    assert record.run == 0 and record.t_setup is None  # measured: stored
    [run] = runs_from_tracer(tracer, clock="wall")
    assert run.clock == "wall"
    assert run.phase == "exchange"
    assert run.nranks == 2
    # rank 1 started 0.5 ms late: the merged makespan lies exactly the
    # start spread beyond its interval, the longest of the two
    assert run.makespan == pytest.approx(0.005)
    assert run.rank_makespan == pytest.approx(0.0045)
    assert run.skew == pytest.approx(0.0005 + 1e-9)
    assert runs_from_tracer(tracer) == []  # never visible as virtual
    path = critical_path(run)
    assert path.length == run.makespan
    verify_makespans(tracer)
    # per-rank mirrors carry the clock="wall" label
    sent = tracer.metrics.per_rank(
        "repro.vm.messages_sent", labels={"clock": "wall"}
    )
    assert sent == {0: 1.0, 1: 0.0}
    assert tracer.metrics.per_rank("repro.vm.messages_sent", labels={}) == {}


def test_format_clock_skew_renders_one_row_per_run():
    tracer, _ = _recorded_tracer()
    text = format_clock_skew(tracer)
    assert "wall clock per measured run" in text
    assert "exchange" in text
    assert "multiproc" in text
    assert format_clock_skew(Tracer()) == ""
