"""Unit tests for the event-driven virtual machine runtime."""

import pytest

from repro.parallel import (
    ANY,
    IDEAL,
    DeadlockError,
    MachineModel,
    VirtualMachine,
    per_rank,
)
from repro.parallel.runtime import RecvOp


def test_single_rank_returns_value():
    def prog(comm):
        yield from comm.compute(10)
        return comm.rank + 100

    res = VirtualMachine(1).run(prog)
    assert res.returns == [100]
    assert res.makespan == pytest.approx(10 * VirtualMachine(1).machine.t_work)


def test_requires_generator_program():
    def not_a_gen(comm):
        return 1

    with pytest.raises(TypeError, match="generator"):
        VirtualMachine(2).run(not_a_gen)


def test_send_recv_roundtrip():
    def prog(comm):
        if comm.rank == 0:
            yield from comm.send({"x": 42}, dest=1, tag=7)
            return None
        data = yield from comm.recv(source=0, tag=7)
        return data["x"]

    res = VirtualMachine(2).run(prog)
    assert res.returns == [None, 42]
    assert res.total_messages == 1


def test_recv_wildcards():
    def prog(comm):
        if comm.rank == 0:
            got = []
            for _ in range(2):
                payload, src, tag = yield RecvOp(ANY, ANY)
                got.append((payload, src, tag))
            return sorted(got)
        yield from comm.send(comm.rank * 10, dest=0, tag=comm.rank)
        return None

    res = VirtualMachine(3).run(prog)
    assert res.returns[0] == [(10, 1, 1), (20, 2, 2)]


def test_fifo_order_per_source_and_tag():
    def prog(comm):
        if comm.rank == 0:
            for i in range(5):
                yield from comm.send(i, dest=1, tag=3)
            return None
        out = []
        for _ in range(5):
            out.append((yield from comm.recv(source=0, tag=3)))
        return out

    res = VirtualMachine(2).run(prog)
    assert res.returns[1] == [0, 1, 2, 3, 4]


def test_deadlock_detection():
    def prog(comm):
        _ = yield from comm.recv(source=(comm.rank + 1) % comm.size, tag=0)

    with pytest.raises(DeadlockError):
        VirtualMachine(2).run(prog)


def test_send_to_invalid_rank():
    def prog(comm):
        yield from comm.send(1, dest=99, tag=0)

    with pytest.raises(ValueError, match="invalid rank"):
        VirtualMachine(2).run(prog)


def test_user_tag_range_enforced():
    def prog(comm):
        yield from comm.send(1, dest=0, tag=1 << 21)

    with pytest.raises(ValueError, match="user tags"):
        VirtualMachine(1).run(prog)


def test_per_rank_arguments():
    def prog(comm, x, k=0):
        yield from comm.compute(1)
        return x + k

    res = VirtualMachine(3).run(prog, per_rank([1, 2, 3]), k=per_rank([10, 20, 30]))
    assert res.returns == [11, 22, 33]


def test_per_rank_length_must_match_nranks():
    def prog(comm, x, k=0):
        yield from comm.compute(1)
        return x + k

    with pytest.raises(ValueError, match="2 values but the machine has 3"):
        VirtualMachine(3).run(prog, per_rank([1, 2]))
    # keyword per_rank arguments are validated too, before any rank runs
    with pytest.raises(ValueError, match="4 values but the machine has 3"):
        VirtualMachine(3).run(prog, per_rank([1, 2, 3]), k=per_rank([0] * 4))


def test_clock_monotone_and_message_cost():
    m = MachineModel(t_setup=1.0, t_word=0.1, t_work=0.0)

    def prog(comm):
        if comm.rank == 0:
            yield from comm.send(0.0, dest=1, tag=0, nwords=10)
        else:
            _ = yield from comm.recv(source=0, tag=0)

    res = VirtualMachine(2, m).run(prog)
    # sender: t_setup + 10*t_word = 2.0; receiver resumes at arrival >= 2.0
    assert res.clocks[0] == pytest.approx(2.0)
    assert res.clocks[1] >= 2.0
    assert res.total_words == 10


def test_receiver_waits_for_arrival():
    m = MachineModel(t_setup=1.0, t_word=0.0, t_work=1.0)

    def prog(comm):
        if comm.rank == 0:
            yield from comm.compute(5)  # 5 seconds of work before sending
            yield from comm.send("late", dest=1, tag=0, nwords=0)
        else:
            got = yield from comm.recv(source=0, tag=0)
            return got

    res = VirtualMachine(2, m).run(prog)
    # message leaves at t=6; receiver cannot have it earlier
    assert res.clocks[1] >= 6.0
    assert res.returns[1] == "late"


def test_determinism_across_runs():
    def prog(comm):
        acc = comm.rank
        for k in range(3):
            yield from comm.send(acc, dest=(comm.rank + 1) % comm.size, tag=k)
            acc += yield from comm.recv(source=(comm.rank - 1) % comm.size, tag=k)
        return acc

    r1 = VirtualMachine(5, IDEAL).run(prog)
    r2 = VirtualMachine(5, IDEAL).run(prog)
    assert r1.returns == r2.returns
    assert r1.clocks == r2.clocks


# --- deadlock diagnostics ----------------------------------------------------


def test_deadlock_reports_pending_recv_and_mailbox():
    def prog(comm):
        if comm.rank == 0:
            yield from comm.send("stray", dest=1, tag=9, nwords=0)
            _ = yield from comm.recv(source=1, tag=1)  # never satisfied
        else:
            _ = yield from comm.recv(source=0, tag=5)  # wrong tag waiting

    with pytest.raises(DeadlockError) as e:
        VirtualMachine(2).run(prog)
    msg = str(e.value)
    assert "ranks [0, 1] are blocked" in msg
    assert "rank 0: waiting on recv(source=1, tag=1); mailbox empty" in msg
    assert "rank 1: waiting on recv(source=0, tag=5)" in msg
    assert "(source=0, tag=9)×1" in msg  # the stray message is summarised
    # structured diagnostics for tooling
    assert e.value.blocked == [
        (0, (1, 1), []),
        (1, (0, 5), [(0, 9, 1)]),
    ]


def test_deadlock_formats_wildcards_and_counts():
    def prog(comm):
        if comm.rank == 0:
            for _ in range(3):
                yield from comm.send("m", dest=1, tag=7, nwords=0)
            return None
        _ = yield from comm.recv(source=ANY, tag=2)

    with pytest.raises(DeadlockError) as e:
        VirtualMachine(2).run(prog)
    msg = str(e.value)
    assert "rank 1: waiting on recv(source=ANY, tag=2)" in msg
    assert "mailbox holds 3 unmatched: (source=0, tag=7)×3" in msg
    assert e.value.blocked == [(1, (ANY, 2), [(0, 7, 3)])]
