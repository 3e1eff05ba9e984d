"""Unit tests for the causal-DAG analysis (:mod:`repro.obs.causal`)."""

import pytest

from repro.obs import (
    Tracer,
    analyze,
    critical_path,
    diff,
    format_critical_path,
    format_diff,
    rank_stats,
    runs_from_tracer,
    verify_makespans,
)
from repro.obs import causal
from repro.obs.causal import chain_of, format_chain, node_slack
from repro.parallel import SP2_1997, VirtualMachine
from repro.parallel.ledger import CostLedger

from tests.fixtures import run_from_result


def pingpong(comm):
    if comm.rank == 0:
        yield from comm.compute(100)
        yield from comm.send("ping", dest=1, tag=1, nwords=10)
        _ = yield from comm.recv(source=1, tag=2)
    else:
        yield from comm.compute(10)
        _ = yield from comm.recv(source=0, tag=1)
        yield from comm.compute(50)
        yield from comm.send("pong", dest=0, tag=2, nwords=10)


def traced_pingpong(tracer=None):
    vm = VirtualMachine(2, SP2_1997, trace=tracer is None, tracer=tracer)
    return vm.run(pingpong)


def test_critical_path_length_is_makespan_bit_for_bit():
    res = traced_pingpong()
    run = run_from_result(res)
    path = critical_path(run)
    assert path.length == res.makespan  # exact float equality, not approx
    assert path.steps, "non-trivial program must have path steps"
    # the path walks backward to a source node starting at t == 0
    assert path.steps[0].node.t_start == 0.0


def test_path_steps_tile_the_makespan():
    res = traced_pingpong()
    path = critical_path(run_from_result(res))
    assert sum(s.seconds for s in path.steps) == pytest.approx(res.makespan)
    # message crossings contribute exactly zero seconds
    crossings = [s for s in path.steps if s.seconds == 0.0]
    assert crossings, "rank 1 waits on rank 0's send, so the path crosses"


def test_by_kind_splits_work_and_comm():
    res = traced_pingpong()
    path = critical_path(run_from_result(res))
    kinds: dict[str, float] = {}
    for s in path.steps:
        kinds[s.kind] = kinds.get(s.kind, 0.0) + s.seconds
    assert set(kinds) <= {"work", "comm"}
    assert kinds["work"] > 0.0
    assert kinds["comm"] > 0.0
    assert sum(kinds.values()) == pytest.approx(res.makespan)


def test_sink_and_on_path_nodes_have_zero_slack():
    res = traced_pingpong()
    run = run_from_result(res)
    slack = node_slack(run)
    sink = max(run.nodes, key=lambda n: (n.t_end, n.id))
    assert slack[sink.id] == 0.0
    stats = rank_stats(run)
    # at least one rank is on the critical path with exactly zero slack
    assert any(st.slack == 0.0 for st in stats)
    assert all(st.slack >= 0.0 for st in stats)


def test_rank_stats_decomposition():
    res = traced_pingpong()
    run = run_from_result(res)
    stats = rank_stats(run)
    assert [st.rank for st in stats] == [0, 1]
    for st in stats:
        # work + comm + wait + tail == makespan
        assert st.work + st.comm + st.wait + st.tail == pytest.approx(run.makespan)
    # rank 0 computes 100 units, rank 1 only 60
    assert stats[0].work > stats[1].work
    # rank 1 waits for the ping while rank 0 computes
    assert stats[1].wait > 0.0
    total_on_path = sum(st.on_path for st in stats)
    assert total_on_path == pytest.approx(run.makespan)


def test_chain_of_crosses_message_edges():
    res = traced_pingpong()
    run = run_from_result(res)
    last_r0 = max((n for n in run.nodes if n.rank == 0), key=lambda n: n.id)
    chain = chain_of(run.nodes, run.msgs, last_r0)
    assert chain[-1] is last_r0
    assert {n.rank for n in chain} == {0, 1}  # crossed to rank 1's send
    text = format_chain(chain, run.msgs)
    assert "r0:" in text and "r1:" in text and "->" in text
    assert "recv<-1(tag=2)" in text


def test_chain_respects_limit(monkeypatch):
    res = traced_pingpong()
    run = run_from_result(res)
    start = max(run.nodes, key=lambda n: n.id)
    monkeypatch.setattr(causal, "CHAIN_LIMIT", 2)
    assert len(chain_of(run.nodes, run.msgs, start)) == 2


def _traced_cycle() -> Tracer:
    """A tracer with one VM run under a span plus one ledger superstep."""
    tracer = Tracer()
    tracer.cycle = 0
    with tracer.phase("remap") as sp:
        res = traced_pingpong(tracer)
        tracer.advance(res.makespan)
        sp.attrs["n"] = 1
    with tracer.phase("marking"):
        ledger = CostLedger(2, SP2_1997, tracer=tracer)
        ledger.add_work_all([30.0, 10.0])
        ledger.add_message(0, 1, 20)
        ledger.barrier()
        ledger.close()
        tracer.advance(ledger.elapsed)
    return tracer


def test_runs_from_tracer_sets_base_and_phase():
    tracer = _traced_cycle()
    runs = runs_from_tracer(tracer)
    assert len(runs) == 1
    assert runs[0].phase == "remap"
    assert runs[0].base == 0.0
    assert runs[0].cycle == 0


def test_analyze_segments_cover_the_trace():
    tracer = _traced_cycle()
    analysis = analyze(tracer)
    assert analysis.makespan > 0.0
    segs = analysis.segments
    assert segs[0].t0 == 0.0
    assert segs[-1].t1 == pytest.approx(analysis.makespan)
    for a, b in zip(segs, segs[1:]):
        assert b.t0 == pytest.approx(a.t1)  # contiguous, no gaps/overlaps
    assert sum(analysis.by_phase_kind.values()) == pytest.approx(
        analysis.makespan
    )
    phases = {phase for phase, _ in analysis.by_phase_kind}
    assert "remap" in phases and "marking" in phases


@pytest.mark.parametrize("clock", ["virtual", "wall"])
def test_framework_time_goes_to_each_span_it_falls_in(clock):
    # no VM run and no superstep: the whole makespan is one gap, which
    # must be split at the sibling boundary, not charged to one span
    ticks = iter([0.0, 2.0, 2.0, 5.0])
    tracer = Tracer(wall_clock=lambda: next(ticks))
    with tracer.phase("a"):
        tracer.advance(1.0)
    with tracer.phase("b"):
        tracer.advance(3.0)
    analysis = analyze(tracer, clock=clock)
    want = {"virtual": {"a": 1.0, "b": 3.0}, "wall": {"a": 2.0, "b": 3.0}}
    assert analysis.by_phase_kind == {
        (name, "work"): sec for name, sec in want[clock].items()
    }
    assert [(s.phase, s.t0, s.t1) for s in analysis.segments] == [
        ("a", 0.0, want[clock]["a"]),
        ("b", want[clock]["a"], sum(want[clock].values())),
    ]


def test_analyze_ranks_stragglers():
    tracer = _traced_cycle()
    analysis = analyze(tracer)
    assert 0 in analysis.stragglers
    ranked = analysis.stragglers[0]
    assert ranked == sorted(ranked, key=lambda kv: (-kv[1], kv[0]))
    assert ranked[0][1] > 0.0


def test_verify_makespans_passes_and_counts():
    assert verify_makespans(_traced_cycle()) == 1


def test_verify_makespans_detects_corruption():
    tracer = _traced_cycle()
    for ev in tracer.events:
        if ev.name == "vm.run":
            ev.attrs["makespan"] += 1e-9
    with pytest.raises(AssertionError, match="critical-path length"):
        verify_makespans(tracer)


def test_diff_of_identical_traces_is_zero():
    d = diff(analyze(_traced_cycle()), analyze(_traced_cycle()))
    assert d.delta == 0.0
    assert all(row[4] == 0.0 for row in d.rows)


def test_diff_attributes_the_delta_to_the_changed_phase():
    a = analyze(_traced_cycle())
    tracer_b = _traced_cycle()
    ledger_time = next(
        s for s in tracer_b.spans if s.name == "marking"
    ).v_duration
    b = analyze(tracer_b)
    # fake a slower marking phase in b by scaling its attribution
    b.by_phase_kind[("marking", "work")] += ledger_time
    d = diff(a, b)
    top_phase, top_kind, _, _, top_delta = d.rows[0]
    assert (top_phase, top_kind) == ("marking", "work")
    assert top_delta == pytest.approx(ledger_time)


def test_format_critical_path_mentions_everything():
    text = format_critical_path(analyze(_traced_cycle()), top=5)
    assert "makespan:" in text
    assert "by kind:" in text
    assert "critical-path attribution by (phase, kind):" in text
    assert "path segments:" in text
    assert "stragglers per cycle" in text
    assert "remap" in text and "marking" in text


def test_format_diff_uses_labels():
    d = diff(analyze(_traced_cycle()), analyze(_traced_cycle()))
    text = format_diff(d, label_a="greedy", label_b="mwbg", top=3)
    assert "makespan greedy:" in text
    assert "mwbg:" in text
    assert "delta" in text


def test_empty_run_has_empty_path():
    def idle(comm):
        return None
        yield  # pragma: no cover - makes this a generator function

    res = VirtualMachine(1, SP2_1997, trace=True).run(idle)
    path = critical_path(run_from_result(res))
    assert path.length == 0.0 and path.steps == []
