"""Unit tests for per-rank wall-clock recording and clock alignment."""

import threading
import time

import pytest

from repro.obs import Tracer
from repro.obs.causal import critical_path, runs_from_tracer, verify_makespans
from repro.obs.wallclock import (
    RECV,
    SEND,
    WORK,
    ClockRecord,
    WallRecorder,
    estimate_offsets,
    format_clock_skew,
    merge_streams,
    record_measured_run,
    serve_clock_probes,
)


def test_clock_record_rejects_negative_skew():
    ClockRecord(run=0, rank=0, offset=-1.5, skew=0.0)  # offsets may be <0
    with pytest.raises(ValueError, match="negative clock skew"):
        ClockRecord(run=0, rank=0, offset=0.0, skew=-1e-9)


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


def test_handshake_over_a_pipe():
    import multiprocessing as mp

    parent, child = mp.Pipe()
    server = threading.Thread(target=serve_clock_probes, args=(child,))
    server.start()
    offsets, skews = estimate_offsets({0: parent})
    offset, skew = offsets[0], skews[0]
    server.join()
    parent.close()
    child.close()
    assert skew > 0.0
    # same process, same clock: the offset must fall within its own bound
    assert abs(offset) <= skew


def test_handshake_detects_a_shifted_peer_clock():
    class SkewedConn:
        """Fake pipe endpoint whose peer clock runs ``delta`` ahead."""

        def __init__(self, delta):
            self.delta = delta
            self._pending = False

        def send(self, _):
            self._pending = True

        def poll(self, timeout=None):
            return self._pending

        def recv(self):
            self._pending = False
            return time.perf_counter() + self.delta

    offsets, skews = estimate_offsets({0: SkewedConn(3.0)})
    offset, skew = offsets[0], skews[0]
    assert offset == pytest.approx(3.0, abs=max(skew, 1e-3))


def test_handshake_times_out_without_a_peer():
    import multiprocessing as mp

    parent, child = mp.Pipe()
    try:
        with pytest.raises(RuntimeError, match="timed out"):
            estimate_offsets({0: parent}, timeout=0.05)
        with pytest.raises(RuntimeError, match="timed out"):
            serve_clock_probes(child, timeout=0.05)
    finally:
        parent.close()
        child.close()


def _two_rank_streams(shift=0.0):
    """Rank 0 sends one message; rank 1 receives it after a wait.

    ``shift`` moves rank 1's clock forward; the matching offset entry
    must cancel it exactly.
    """
    r0 = WallRecorder()
    r0.start(100.0)
    r0.note_send(0, 1, 5, 64, 100.001, 100.002)
    r0.finish(100.003)
    r1 = WallRecorder()
    r1.start(100.0 + shift)
    r1.note_op(RECV, 100.001 + shift, 100.004 + shift, wait=0.002, msg=0)
    r1.finish(100.005 + shift)
    return {0: r0.columns(), 1: r1.columns()}, {0: 0.0, 1: shift}


def test_merge_streams_builds_an_aligned_causal_run():
    streams, offsets = _two_rank_streams()
    merged = merge_streams(streams, offsets)
    assert merged.makespan == pytest.approx(0.005)
    assert merged.rank_makespan == pytest.approx(0.005)
    assert merged.start_spread == 0.0
    assert merged.epoch == pytest.approx(100.0)
    [msg] = merged.msgs
    assert (msg.src, msg.dst, msg.tag, msg.nwords) == (0, 1, 5, 64)
    assert msg.recv_node is not None
    # every DAG edge must go low id -> high id (consumer invariant)
    assert msg.send_node < msg.recv_node
    by_rank = {}
    for node in merged.nodes:
        if node.rank in by_rank:
            assert by_rank[node.rank] < node.id
        by_rank[node.rank] = node.id
    # nodes still tile each rank's interval after alignment
    recv = next(n for n in merged.nodes if n.kind == "recv")
    assert recv.wait == pytest.approx(0.002)
    assert recv.t_start == pytest.approx(0.001)


def test_merge_streams_cancels_clock_offset():
    plain = merge_streams(*_two_rank_streams())
    shifted = merge_streams(*_two_rank_streams(shift=5.0))
    assert shifted.makespan == pytest.approx(plain.makespan)
    assert shifted.start_spread == pytest.approx(0.0)
    for a, b in zip(plain.nodes, shifted.nodes):
        assert (a.rank, a.kind, a.id) == (b.rank, b.kind, b.id)
        assert a.t_start == pytest.approx(b.t_start)
        assert a.t_end == pytest.approx(b.t_end)


def test_merge_streams_clamps_bogus_waits():
    streams, offsets = _two_rank_streams()
    streams[1]["waits"] = [1e9] * len(streams[1]["waits"])
    merged = merge_streams(streams, offsets)
    for node in merged.nodes:
        assert 0.0 <= node.wait <= (node.t_end - node.t_start) + 1e-12


def test_merge_streams_aligns_spills():
    streams, offsets = _two_rank_streams(shift=2.0)
    streams[1]["spills"] = [(102.0035, 0)]
    merged = merge_streams(streams, offsets)
    [(t, rank, mid)] = merged.spills
    assert (rank, mid) == (1, 0)
    assert t == pytest.approx(0.0035)


def _recorded_tracer():
    tracer = Tracer()
    streams, offsets = _two_rank_streams()
    with tracer.phase("exchange", kind="compute"):
        nodes, msgs = record_measured_run(
            tracer, streams, offsets, {0: 0.0, 1: 1e-6},
            nranks=2, backend="multiprocessing",
            waited=[0.0, 0.002], msgs_sent=[1, 0], msgs_recv=[0, 1],
            words_sent=[64, 0], words_recv=[0, 64],
        )
    return tracer, nodes, msgs


def test_record_measured_run_writes_the_trace():
    tracer, nodes, msgs = _recorded_tracer()
    assert tracer.causal_nodes == nodes
    assert tracer.causal_msgs == msgs
    [run] = runs_from_tracer(tracer, clock="wall")
    assert run.clock == "wall"
    assert run.phase == "exchange"
    assert run.nranks == 2
    assert run.rank_makespan == pytest.approx(0.005)
    assert run.skew >= 2e-6  # 2 x worst handshake skew, plus slack
    assert runs_from_tracer(tracer) == []  # never visible as virtual
    assert [(c.rank, c.skew) for c in tracer.clock_records] == \
        [(0, 0.0), (1, 1e-6)]
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
    tracer, _, _ = _recorded_tracer()
    text = format_clock_skew(tracer)
    assert "clock alignment per measured run" in text
    assert "exchange" in text
    assert "multiproc" in text
    assert format_clock_skew(Tracer()) == ""
