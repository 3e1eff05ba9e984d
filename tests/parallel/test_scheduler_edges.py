"""Scheduler edge cases the extreme-scale path must get right.

The batched, columnar-recording scheduler earns its keep at 10k+ ranks,
but its invariants are easiest to violate at the margins: a single rank
(the ready calendar never holds a second rank to batch against), programs
that yield nothing at all, and whole cohorts of ranks sharing one
timestamp (tie-breaks must stay deterministic, lowest rank first).  Each
case is checked bit-for-bit against the reference (``reference_kernels()``)
scheduler, and a hypothesis sweep does the same for random op mixes so
the columnar record is exercised against the eager object record.
Programs that charge raw seconds run on :data:`WORK_SECONDS`, whose
``t_work`` of 1.0 makes ``compute(s)`` advance the clock by exactly ``s``.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.causal import CausalRecord
from repro.parallel import ANY, SP2_1997, DeadlockError, VirtualMachine
from repro.parallel.runtime import per_rank
from tests.fixtures import msgs_of, nodes_of
from tests.kernels.oracles import (_EagerRecord, assert_derived_traffic,
                                   reference_kernels)

#: SP2 message costs; one work unit is one second.
WORK_SECONDS = replace(SP2_1997, t_work=1.0)


def _run_both(prog, p, *args, machine=SP2_1997):
    res_fast = VirtualMachine(p, machine, trace=True).run(prog, *args)
    with reference_kernels():
        res_ref = VirtualMachine(p, machine, trace=True).run(prog, *args)
    return res_fast, res_ref


def _assert_identical(a, b):
    assert a.returns == b.returns
    assert a.clocks == b.clocks  # bit-identical virtual clocks
    assert a.makespan == b.makespan
    assert a.total_messages == b.total_messages
    assert a.total_words == b.total_words
    assert nodes_of(a) == nodes_of(b)
    assert msgs_of(a) == msgs_of(b)
    assert_derived_traffic(a, b)


def test_single_rank_machine():
    def prog(comm):
        yield from comm.compute(10e-6)
        yield from comm.compute(0.5)
        yield from comm.send("self", dest=0, tag=1, nwords=2)
        val = yield from comm.recv(source=0, tag=1)
        total = yield from comm.allreduce(3)
        return val, total

    res_fast, res_ref = _run_both(prog, 1, machine=WORK_SECONDS)
    _assert_identical(res_fast, res_ref)
    assert res_fast.returns == [("self", 3)]
    assert res_fast.total_messages == 1


def test_zero_op_programs():
    def prog(comm):
        if False:
            yield  # a generator that never yields an op
        return comm.rank * 2

    res_fast, res_ref = _run_both(prog, 4)
    _assert_identical(res_fast, res_ref)
    assert res_fast.returns == [0, 2, 4, 6]
    assert res_fast.clocks == [0.0] * 4
    assert res_fast.makespan == 0.0
    assert nodes_of(res_fast) == []


def test_zero_op_single_rank():
    def prog(comm):
        return (yield from comm.barrier())

    res_fast, res_ref = _run_both(prog, 1)
    _assert_identical(res_fast, res_ref)
    assert res_fast.makespan == 0.0


def test_simultaneously_ready_tie_break_is_lowest_rank_first():
    """All ranks share every timestamp: identical work, then a send to a
    common sink.  The node record's rank order at each tied time must be
    ascending — the heap's ``(clock, rank)`` order — on both paths."""

    def prog(comm):
        yield from comm.compute(100)  # identical -> same clock on all ranks
        if comm.rank:
            yield from comm.send(comm.rank, dest=0, tag=3, nwords=1)
        else:
            for _ in range(comm.size - 1):
                _ = yield from comm.recv(source=ANY, tag=3)

    res_fast, res_ref = _run_both(prog, 6)
    _assert_identical(res_fast, res_ref)
    work_nodes = [n for n in nodes_of(res_fast) if n.kind == "work"]
    assert [n.rank for n in work_nodes] == list(range(6))
    # tied sends drain lowest-rank-first, so the sink receives in order
    recv_msgs = [m.src for m in msgs_of(res_fast)]
    assert recv_msgs == sorted(recv_msgs)


def test_tie_break_determinism_across_repeats():
    def prog(comm, units):
        yield from comm.compute(units)
        yield from comm.barrier()

    runs = [
        VirtualMachine(8, SP2_1997, trace=True).run(
            prog, per_rank([7.0] * 8)
        )
        for _ in range(3)
    ]
    for other in runs[1:]:
        assert nodes_of(other) == nodes_of(runs[0])
        assert other.clocks == runs[0].clocks


def test_distinct_clock_ring_matches_reference():
    """Every rank at its own clock (random per-rank work around a ring):
    each calendar bucket holds one rank, the shape with nothing to share."""

    def prog(comm, units):
        me, p = comm.rank, comm.size
        got = []
        for _ in range(3):
            yield from comm.compute(units)
            yield from comm.send(me, dest=(me + 1) % p, tag=0, nwords=1)
            got.append((yield from comm.recv(source=(me - 1) % p, tag=0)))
        return got

    p = 64
    units = np.random.default_rng(7).uniform(1.0, 1000.0, p).tolist()
    res_fast, res_ref = _run_both(prog, p, per_rank(units))
    _assert_identical(res_fast, res_ref)
    assert len(set(res_fast.clocks)) == p


def test_shared_timestamps_drain_through_one_wildcard_sink():
    """32 ranks share every timestamp; rank 0 drains them all through
    ``recv(ANY, ANY)``, so the order ranks leave a crowded bucket decides
    which message every wildcard receive matches."""

    def prog(comm):
        got = []
        for rnd in range(3):
            yield from comm.compute(100)
            yield from comm.compute(0)
            if comm.rank:
                yield from comm.send((comm.rank, rnd), dest=0, tag=rnd,
                                     nwords=2)
            else:
                for _ in range(comm.size - 1):
                    got.append((yield from comm.recv(source=ANY, tag=ANY)))
        return got

    res_fast, res_ref = _run_both(prog, 32)
    _assert_identical(res_fast, res_ref)
    sink = res_fast.returns[0]
    assert len(sink) == 3 * 31
    for rnd in range(3):
        assert [s for s, r in sink if r == rnd] == list(range(1, 32))


@st.composite
def _op_scripts(draw):
    """Per-rank op scripts: work of two sizes plus a consistent message
    plan.

    The zero-cost op (``compute(0)``) leaves a rank at the clock it was
    filed under, so it re-enters the minimum calendar bucket, above or
    below that bucket's head; a wake-up by direct delivery can land in
    the same bucket."""
    p = draw(st.integers(2, 12))
    plan = []
    for r in range(p):
        ops = draw(
            st.lists(
                st.sampled_from(["work", "long", "work0"]),
                min_size=0, max_size=6,
            )
        )
        dest = draw(st.integers(0, p - 1))
        nmsg = draw(st.integers(0, 2))
        plan.append((ops, dest, nmsg))
    return p, plan


def script_program(plan):
    """The rank program an :func:`_op_scripts` plan describes."""

    def prog(comm):
        me = comm.rank
        ops, dest, nmsg = plan[me]
        for kind in ops:
            if kind == "work":
                yield from comm.compute(3e-6 * (me + 1))
            elif kind == "long":
                yield from comm.compute(0.001 * (me + 1))
            else:
                yield from comm.compute(0)
        for i in range(nmsg):
            yield from comm.send(
                np.arange(me + i + 1), dest=dest, tag=9, nwords=me + i + 1
            )
        yield from comm.barrier()
        # drain after the barrier, when every send has been posted
        expect = sum(n for _o, d, n in plan if d == me)
        for _ in range(expect):
            _ = yield from comm.recv(source=ANY, tag=9)
        yield from comm.barrier()
        return expect

    return prog


@given(_op_scripts())
@settings(max_examples=40, deadline=None)
def test_columnar_record_matches_object_record(script):
    """Hypothesis parity: the columnar record, derived, must be
    node-for-node, msg-for-msg, event-for-event equal to the reference
    scheduler's eagerly built object record."""
    p, plan = script
    res_fast, res_ref = _run_both(script_program(plan), p,
                                  machine=WORK_SECONDS)
    _assert_identical(res_fast, res_ref)
    assert sum(res_fast.returns) == sum(n for _o, _d, n in plan)


@given(_op_scripts())
@settings(max_examples=40, deadline=None)
def test_derived_rank_traffic_equals_oracle_counters(script):
    """Hypothesis parity on SP2 costs, where receives wait: the per-rank
    messages, words, waits, busy and idle read from a traced run's
    record are the oracle scheduler's own per-rank counters."""
    p, plan = script
    res_fast, res_ref = _run_both(script_program(plan), p)
    assert_derived_traffic(res_fast, res_ref)


@st.composite
def _stuck_scripts(draw):
    """Per-rank scripts that end in a deadlock with messages left over:
    work, sends on tag 9 (and maybe one on tag 8, which nobody
    receives), then wildcard receives on tag 9 that may outnumber the
    messages sent to the rank.  Rank 0 finally waits on tag 99, which
    nobody sends, so every run deadlocks; rank ``p - 1`` always posts a
    tag-8 message, so every run leaves one unconsumed."""
    p = draw(st.integers(2, 10))
    plan = []
    for r in range(p):
        ops = draw(st.lists(st.sampled_from(["work", "long", "work0"]),
                            max_size=4))
        dest = draw(st.integers(0, p - 1))
        nmsg = draw(st.integers(0, 2))
        stray = r == p - 1 or draw(st.booleans())
        want = draw(st.integers(0, 3))
        plan.append((ops, dest, nmsg, stray, want))
    return p, plan


def _deadlocked(vm, prog, monkeypatch):
    """Run ``prog`` to its DeadlockError; returns the error and the
    ``(nodes, msgs)`` lists the scheduler handed to the deadlock
    report."""
    seen = []
    report = VirtualMachine._raise_deadlock

    def spy(self, stuck, nodes, msgs_rec):
        seen.append((nodes, msgs_rec))
        return report(self, stuck, nodes, msgs_rec)

    monkeypatch.setattr(VirtualMachine, "_raise_deadlock", spy)
    with pytest.raises(DeadlockError) as err:
        vm.run(prog)
    [(nodes, msgs)] = seen
    return err.value, nodes, msgs


@given(_stuck_scripts())
@settings(max_examples=40, deadline=None)
def test_record_cut_short_by_deadlock_matches_object_record(script):
    """Hypothesis parity where the record ends early: the derived
    ``t_start``, recv ``wait`` and unconsumed recv node (None) of a run
    that deadlocks must equal the reference scheduler's eager record,
    and so must the causal chains its DeadlockError reports."""
    p, plan = script

    def prog(comm):
        me = comm.rank
        ops, dest, nmsg, stray, want = plan[me]
        for kind in ops:
            if kind == "work":
                yield from comm.compute(3e-6 * (me + 1))
            elif kind == "long":
                yield from comm.compute(0.001 * (me + 1))
            else:
                yield from comm.compute(0)
        for i in range(nmsg):
            yield from comm.send(i, dest=dest, tag=9, nwords=me + i)
        if stray:
            yield from comm.send(me, dest=(me + 1) % p, tag=8, nwords=1)
        for _ in range(want):
            _ = yield from comm.recv(source=ANY, tag=9)
        if me == 0:
            _ = yield from comm.recv(source=ANY, tag=99)

    with pytest.MonkeyPatch.context() as mp:
        fast = _deadlocked(VirtualMachine(p, WORK_SECONDS, trace=True),
                           prog, mp)
    with pytest.MonkeyPatch.context() as mp, reference_kernels():
        ref = _deadlocked(VirtualMachine(p, WORK_SECONDS, trace=True),
                          prog, mp)
    (err_f, nodes_f, msgs_f), (err_r, nodes_r, msgs_r) = fast, ref
    assert nodes_f == nodes_r
    assert msgs_f == msgs_r
    assert any(m.recv_node is None for m in msgs_f)
    assert err_f.chains == err_r.chains
    assert err_f.blocked == err_r.blocked
    assert str(err_f) == str(err_r)


@given(_op_scripts(), st.booleans())
@settings(max_examples=40, deadline=None)
def test_stored_columns_equal_the_oracle_record(script, stuck):
    """The columns the product's record stores — a ``rank, msg`` pair per
    node, whose ``msg`` sign spells the kind, the unboxed ``t_end`` and
    ``dst, tag, nwords`` per message — equal those of the oracle's
    :class:`_EagerRecord`, built from its eager objects, on whole runs
    and on runs a deadlock cuts short (rank 0 then waits on a tag nobody
    sends)."""
    p, plan = script
    prog = script_program(plan)
    if not stuck:
        fast, ref = _run_both(prog, p, machine=WORK_SECONDS)
        assert fast._record.columns() == ref._record.columns()
        return

    def stuck_prog(comm):
        yield from prog(comm)
        if comm.rank == 0:
            _ = yield from comm.recv(source=ANY, tag=99)

    held = []
    objects = CausalRecord.objects
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CausalRecord, "objects",
                   lambda rec: held.append(rec) or objects(rec))
        _deadlocked(VirtualMachine(p, WORK_SECONDS, trace=True),
                    stuck_prog, mp)
    with pytest.MonkeyPatch.context() as mp, reference_kernels():
        _err, nodes, msgs = _deadlocked(
            VirtualMachine(p, WORK_SECONDS, trace=True), stuck_prog, mp)
    [record] = held
    assert record.columns() == _EagerRecord(
        WORK_SECONDS.t_setup, -1, nodes, msgs).columns()
