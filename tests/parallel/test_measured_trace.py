"""Measured-backend tracing: real mp/shm runs exporting wall-clock traces.

Each real-process run here costs a few forks, so the tests batch their
assertions: one traced run per backend feeds schema, causal, metric, and
export checks together.
"""

import json
import threading
import time

import numpy as np
import pytest

from repro.obs import (
    Tracer,
    analyze,
    diff,
    export_chrome_trace,
    export_jsonl,
    format_critical_path,
    read_jsonl,
    use_tracer,
    validate_jsonl,
)
from repro.obs.causal import critical_path, runs_from_tracer, verify_makespans
from repro.parallel import create_communicator
from repro.parallel.runtime import RecvOp, SendOp, WorkOp

from tests.fixtures import causal_nodes, msgs_of, nodes_of


def _ring(comm, rounds, nwords=64, payload=None):
    nxt = (comm.rank + 1) % comm.size
    prv = (comm.rank - 1) % comm.size
    body = payload if payload is not None else ("tok", comm.rank)
    for i in range(rounds):
        yield WorkOp(100.0)
        yield SendOp(nxt, 5, body, nwords)
        yield RecvOp(prv, 5)
    return comm.rank


@pytest.fixture(scope="module")
def mp_trace(tmp_path_factory):
    """One traced 3-rank multiprocessing run, exported and read back."""
    tracer = Tracer()
    with tracer.phase("mp-ring", kind="compute"):
        comm = create_communicator("multiprocessing", 3, tracer=tracer)
        result = comm.run(_ring, 2)
    path = tmp_path_factory.mktemp("mp") / "mp.jsonl"
    export_jsonl(tracer, path)
    return tracer, result, path


def test_mp_run_produces_a_measured_causal_run(mp_trace):
    tracer, result, _ = mp_trace
    assert result.returns == [0, 1, 2]
    [run] = runs_from_tracer(tracer, clock="wall")
    assert run.clock == "wall"
    assert run.phase == "mp-ring"
    assert run.nranks == 3
    assert run.skew > 0.0
    # nodes tile every rank's interval; 6 messages went around the ring
    assert sum(1 for m in run.msgs if m.recv_node is not None) == 6
    assert nodes_of(result) == run.nodes
    assert msgs_of(result) == run.msgs
    # wall critical-path length: bit-exact vs the merged makespan, and
    # within the recorded skew bound of the measured rank makespan
    path = critical_path(run)
    assert path.length == run.makespan
    assert abs(path.length - run.rank_makespan) <= run.skew
    verify_makespans(tracer)
    # measured runs never leak into the virtual analysis
    assert runs_from_tracer(tracer) == []
    assert analyze(tracer).runs == []


def test_mp_trace_round_trips_through_jsonl(mp_trace):
    tracer, _, path = mp_trace
    head = json.loads(open(path).readline())
    assert head["schema"] == "repro.obs/v9"
    summary = validate_jsonl(path)
    assert "clocks" not in summary  # one clock: no alignment records
    back = read_jsonl(path)
    verify_makespans(back)
    [run] = runs_from_tracer(back, clock="wall")
    [orig] = runs_from_tracer(tracer, clock="wall")
    assert run.makespan == orig.makespan
    assert run.rank_makespan == orig.rank_makespan
    assert run.skew == orig.skew
    assert causal_nodes(back) == causal_nodes(tracer)


def test_mp_trace_renders_wall_critical_path(mp_trace):
    tracer, _, _ = mp_trace
    wall = analyze(tracer, clock="wall")
    assert wall.clock == "wall"
    assert len(wall.runs) == 1
    text = format_critical_path(wall, top=5)
    assert "wall seconds" in text
    assert "mp-ring" in text


def test_mp_wall_metrics_are_labelled(mp_trace):
    """The measured run's per-rank traffic is read from its record: two
    64-word messages out and in per rank, busy and idle tiling the
    makespan; the registry holds no per-rank traffic series."""
    tracer, result, _ = mp_trace
    wall = analyze(tracer, clock="wall")
    [run] = wall.runs
    [stats] = wall.stats.values()
    assert [(st.msgs_sent, st.msgs_recv, st.words_sent, st.words_recv)
            for st in stats] == [(2, 2, 128, 128)] * 3
    assert sum(st.msgs_sent for st in stats) == result.total_messages
    for st in stats:
        assert st.busy + st.idle == pytest.approx(run.makespan)
        assert 0.0 <= st.wait <= st.busy + st.wait
    assert not any(s.name.startswith("repro.vm.")
                   for s in tracer.metrics.samples())


def test_diff_degrades_when_one_side_is_virtual_only(mp_trace):
    tracer, _, _ = mp_trace
    virt = Tracer()
    with virt.phase("mp-ring", kind="compute"):
        create_communicator("virtual", 3, tracer=virt).run(_ring, 2)
    a = analyze(virt, clock="wall")
    b = analyze(tracer, clock="wall")
    assert a.runs == [] and b.runs  # one side genuinely lacks wall runs
    d = diff(a, b)
    assert d.makespan_b > 0.0
    rows = {(phase, kind) for phase, kind, *_ in d.rows}
    assert ("mp-ring", "work") in rows


@pytest.fixture(scope="module")
def shm_trace():
    """One traced 2-rank shm run with zero-copy numpy payloads."""
    tracer = Tracer()
    payload = np.arange(2048, dtype=np.float64)
    with tracer.phase("shm-ring", kind="compute"):
        comm = create_communicator("shm", 2, tracer=tracer)
        result = comm.run(_ring, 2, nwords=2048, payload=payload)
    return tracer, result


def test_shm_run_records_transport_counters(shm_trace):
    tracer, _ = shm_trace
    reg = tracer.metrics
    zc = reg.per_rank(
        "repro.transport.msgs_zero_copy", labels={"backend": "shm"}
    )
    assert set(zc) == {0, 1}
    assert sum(zc.values()) == 4.0  # 2 rounds x 2 ranks, all zero-copy
    spills = reg.per_rank(
        "repro.transport.spills", labels={"backend": "shm"}
    )
    assert sum(spills.values()) == 0.0


def test_shm_run_records_a_wall_run_too(shm_trace):
    tracer, result = shm_trace
    [run] = runs_from_tracer(tracer, clock="wall")
    assert run.phase == "shm-ring"
    verify_makespans(tracer)
    assert nodes_of(result) == run.nodes


def test_untraced_mp_run_keeps_the_plain_wire():
    comm = create_communicator("multiprocessing", 2)
    result = comm.run(_ring, 1)
    assert result.returns == [0, 1]
    assert nodes_of(result) is None and msgs_of(result) is None


def _flow_pairs(chrome_path):
    events = json.load(open(chrome_path))["traceEvents"]
    starts = {e["id"]: e for e in events if e.get("ph") == "s"}
    ends = {e["id"]: e for e in events if e.get("ph") == "f"}
    return events, starts, ends


def test_chrome_flow_events_round_trip_for_measured_runs(mp_trace, tmp_path):
    tracer, _, _ = mp_trace
    out = tmp_path / "mp_chrome.json"
    export_chrome_trace(tracer, out)
    events, starts, ends = _flow_pairs(out)
    [run] = runs_from_tracer(tracer, clock="wall")
    delivered = [m for m in run.msgs if m.recv_node is not None]
    assert len(starts) == len(delivered) == len(ends)
    assert set(starts) == set(ends)
    nodes = {n.id: n for n in run.nodes}
    by_src = sorted(starts.values(), key=lambda e: e["id"])
    for msg, s in zip(sorted(delivered, key=lambda m: m.id), by_src):
        f = ends[s["id"]]
        # measured flows live on the wall process (pid 1), bind the
        # sender's thread to the receiver's, and never run backward
        assert s["pid"] == f["pid"] == 1
        assert s["tid"] != f["tid"] or msg.src == msg.dst
        assert s["ts"] <= f["ts"]
        assert f["args"]["nwords"] == msg.nwords
        assert nodes[msg.recv_node].rank == msg.dst
    # the measured process is announced by metadata
    names = [e["args"]["name"] for e in events
             if e.get("ph") == "M" and e["name"] == "process_name"]
    assert "repro measured wall" in names


def test_recorder_overhead_is_modest():
    # Tracing must not delay work: a traced rank records from the moment
    # its program starts to the moment it ends, with no handshake before
    # or after, so the measured run sits inside the parent's own reads
    # around comm.run and every rank's nodes tile exactly the interval
    # its untraced stats time.  Asserted as orderings, not a wall-time
    # ratio (host speed wanders); the overhead itself is measured by
    # benchmarks/e2e (bench.trace_overhead_frac).
    tracer = Tracer()
    comm = create_communicator("multiprocessing", 3, tracer=tracer)
    t_before = time.perf_counter()
    result = comm.run(_ring, 2)
    t_after = time.perf_counter()

    [marker] = [e for e in tracer.events if e.name == "vm.run"]
    base, makespan = marker.attrs["base"], marker.attrs["makespan"]
    assert t_before <= base
    assert base + makespan <= t_after
    for r in range(3):
        mine = [n for n in causal_nodes(tracer) if n.rank == r]
        covered = sum(n.t_end - n.t_start for n in mine)
        assert covered == pytest.approx(result.clocks[r], abs=1e-9)


def _clock_probe(comm, conns, rounds):
    """Answer ``rounds`` probes on this rank's pipe end with the child's
    own ``perf_counter``."""
    conn = conns[comm.rank]
    for _ in range(rounds):
        conn.recv()
        conn.send(time.perf_counter())
    yield WorkOp(0.0)
    return comm.rank


@pytest.mark.parametrize("backend", ["multiprocessing", "shm"])
def test_forked_ranks_read_the_parents_clock(backend):
    # The assumption measured tracing rests on: a rank forked by either
    # real backend reads the parent's perf_counter (the host's
    # CLOCK_MONOTONIC), so its streams merge with no offset.  A child's
    # reading must fall between two parent reads bracketing the pipe
    # round trip that carried it.
    import multiprocessing

    nranks, rounds = 2, 5
    pipes = [multiprocessing.Pipe() for _ in range(nranks)]
    comm = create_communicator(backend, nranks)
    brackets = {r: [] for r in range(nranks)}

    def probe():
        for r, (parent_end, _) in enumerate(pipes):
            for _ in range(rounds):
                t_send = time.perf_counter()
                parent_end.send(0)
                t_child = parent_end.recv()
                brackets[r].append((t_send, t_child, time.perf_counter()))

    prober = threading.Thread(target=probe)
    prober.start()
    try:
        result = comm.run(_clock_probe, [c for _, c in pipes], rounds)
    finally:
        prober.join(timeout=60.0)
        for parent_end, child_end in pipes:
            parent_end.close()
            child_end.close()
    assert not prober.is_alive()
    assert result.returns == list(range(nranks))
    for r in range(nranks):
        assert len(brackets[r]) == rounds
        for t_send, t_child, t_recv in brackets[r]:
            assert t_send <= t_child <= t_recv


@pytest.mark.parametrize("backend", ["multiprocessing", "shm"])
def test_ranks_start_together_despite_a_slow_fork(backend, monkeypatch):
    # A measured run's skew bound is the spread of its ranks' first
    # perf_counter reads.  With every fork slowed by 50 ms, ranks that
    # started their clocks as soon as they were forked would spread over
    # 150 ms; ranks that start together, once the last one is ready,
    # stay within a few.
    from multiprocessing.context import ForkProcess

    fork = ForkProcess.start

    def slow_start(self):
        fork(self)
        time.sleep(0.05)

    monkeypatch.setattr(ForkProcess, "start", slow_start)
    tracer = Tracer()
    comm = create_communicator(backend, 4, tracer=tracer)
    assert comm.run(_ring, 1).returns == [0, 1, 2, 3]
    [run] = [e for e in tracer.events if e.name == "vm.run"]
    assert run.attrs["skew"] < 0.020


def _pingpong(comm, rounds):
    other = 1 - comm.rank
    for _ in range(rounds):
        yield WorkOp(50.0)
        if comm.rank == 0:
            yield SendOp(other, 3, ("ping",), 8)
            yield RecvOp(other, 4)
        else:
            yield RecvOp(other, 3)
            yield SendOp(other, 4, ("pong",), 8)
    return comm.rank


def _resource_gauges(tracer) -> dict:
    """``{(name, rank, backend): value}`` of the resource gauges."""
    return {
        (s.name.rpartition(".")[2], s.rank, s.labels_dict.get("backend")):
            s.value
        for s in tracer.metrics.samples()
        if s.name.startswith("repro.resource.")
    }


@pytest.mark.parametrize("backend", ["multiprocessing", "shm"])
def test_traced_run_records_per_rank_resources(backend, tmp_path):
    tracer = Tracer()
    with tracer.phase(f"{backend}-pingpong", kind="compute"):
        comm = create_communicator(backend, 2, tracer=tracer)
        comm.run(_pingpong, 2)

    gauges = _resource_gauges(tracer)
    # one reading per forked rank, as backend-labelled per-rank gauges
    assert {(rank, b) for _name, rank, b in gauges} == \
        {(0, backend), (1, backend)}
    for rank in (0, 1):
        assert gauges["peak_rss_bytes", rank, backend] > 0
        assert gauges["cpu_seconds", rank, backend] >= 0.0
        assert gauges["gc_collections", rank, backend] >= 0

    path = tmp_path / "trace.jsonl"
    export_jsonl(tracer, path)
    assert _resource_gauges(read_jsonl(path)) == gauges


def test_untraced_run_records_no_resources():
    ambient = Tracer()
    with use_tracer(ambient):  # a backend records only into its own tracer
        comm = create_communicator("multiprocessing", 2)
        result = comm.run(_pingpong, 1)  # no tracer: plain run, no reading
    assert result.returns == [0, 1] and result.total_messages == 2
    assert _resource_gauges(ambient) == {}
