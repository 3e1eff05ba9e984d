"""Makespan identity: the critical path reproduces every run's makespan.

For each representative rank program, the virtual-time critical path
reconstructed from the causal record must equal ``RunResult.makespan``
*bit-for-bit* (no tolerance), and at least one rank must have exactly
zero slack — the defining properties that make the causal record a
faithful explanation of the virtual machine's schedule.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.obs import Tracer, critical_path, rank_stats
from repro.parallel import ANY, DeadlockError, SP2_1997, VirtualMachine
from repro.parallel.runtime import per_rank

from tests.fixtures import run_from_result


def _assert_identity(res, nranks):
    run = run_from_result(res)
    path = critical_path(run)
    assert path.length == res.makespan  # exact, to the last bit
    stats = rank_stats(run, path)
    assert len(stats) == nranks
    assert any(st.slack == 0.0 for st in stats)
    assert all(st.slack >= 0.0 for st in stats)
    # per-rank intervals tile [0, clock]: work+comm+wait+tail == makespan
    for st in stats:
        assert st.work + st.comm + st.wait + st.tail == pytest.approx(res.makespan)


def _run(prog, nranks, *args, machine=SP2_1997):
    res = VirtualMachine(nranks, machine, trace=True).run(prog, *args)
    _assert_identity(res, nranks)
    return res


def test_pingpong():
    def prog(comm):
        if comm.rank == 0:
            yield from comm.compute(100)
            yield from comm.send("ping", dest=1, tag=1, nwords=50)
            _ = yield from comm.recv(source=1, tag=2)
        else:
            _ = yield from comm.recv(source=0, tag=1)
            yield from comm.send("pong", dest=0, tag=2, nwords=50)

    _run(prog, 2)


def test_work_and_elapse_only():
    """Work in units, then an elapse of seconds: ``compute(s)`` on a
    machine with ``t_work=1.0`` charges exactly ``s``."""
    def prog(comm):
        yield from comm.compute(10 * (comm.rank + 1))
        yield from comm.compute(0.001)

    _run(prog, 4, machine=replace(SP2_1997, t_work=1.0))


@pytest.mark.parametrize("p", [1, 2, 3, 8])
def test_collectives(p):
    def prog(comm):
        v = yield from comm.allreduce(comm.rank)
        yield from comm.barrier()
        order = yield from comm.allreduce([comm.rank])
        yield from comm.barrier()
        return (v, order)

    res = _run(prog, p)
    assert res.returns == [(p * (p - 1) // 2, list(range(p)))] * p


@pytest.mark.parametrize("p", [2, 5])
def test_alltoall(p):
    def prog(comm):
        me, size = comm.rank, comm.size
        out = [None] * size
        out[me] = me * 10 + me
        for k in range(1, size):  # pairwise-exchange schedule
            dest, src = (me + k) % size, (me - k) % size
            yield from comm.send(me * 10 + dest, dest=dest, tag=7)
            out[src] = yield from comm.recv(source=src, tag=7)
        return out

    res = _run(prog, p)
    for r in range(p):
        assert res.returns[r] == [s * 10 + r for s in range(p)]


def test_wildcard_receives():
    def prog(comm):
        if comm.rank == 0:
            got = []
            for _ in range(comm.size - 1):
                got.append((yield from comm.recv(source=ANY, tag=ANY)))
            return sorted(got)
        yield from comm.compute(5 * comm.rank)
        yield from comm.send(comm.rank, dest=0, tag=comm.rank, nwords=1)

    res = _run(prog, 4)
    assert res.returns[0] == [1, 2, 3]


def test_random_exchange_identity():
    rng = np.random.default_rng(7)
    p = 6
    dests = [[int(x) for x in rng.integers(0, p, 4)] for _ in range(p)]

    def prog(comm):
        n_in = sum(d.count(comm.rank) for d in dests)
        for dest in dests[comm.rank]:
            yield from comm.send(comm.rank, dest=dest, tag=0,
                                 nwords=int(rng.integers(1, 100)))
        for _ in range(n_in):
            _ = yield from comm.recv(tag=0)
        yield from comm.barrier()

    _run(prog, p)


def test_per_rank_arguments():
    def prog(comm, units):
        yield from comm.compute(units)
        yield from comm.barrier()

    _run(prog, 3, per_rank([10.0, 200.0, 30.0]))


def test_identity_survives_export_roundtrip(tmp_path):
    from repro.obs import export_jsonl, read_jsonl, verify_makespans

    def prog(comm):
        if comm.rank == 0:
            yield from comm.compute(40)
            yield from comm.send("x", dest=1, tag=3, nwords=25)
        else:
            _ = yield from comm.recv(source=0, tag=3)
            yield from comm.compute(15)

    tracer = Tracer()
    with tracer.phase("remap"):
        res = VirtualMachine(2, SP2_1997, tracer=tracer).run(prog)
        tracer.advance(res.makespan)
    path = tmp_path / "t.jsonl"
    export_jsonl(tracer, str(path))
    assert verify_makespans(read_jsonl(str(path))) == 1


# --- DeadlockError causal-chain diagnostics ---------------------------------


def _deadlock_prog(comm):
    if comm.rank == 0:
        yield from comm.compute(20)
        yield from comm.send("a", dest=1, tag=1, nwords=5)
        _ = yield from comm.recv(source=1, tag=2)
        _ = yield from comm.recv(source=1, tag=99)  # never sent
    else:
        _ = yield from comm.recv(source=0, tag=1)
        yield from comm.send("b", dest=0, tag=2, nwords=5)
        _ = yield from comm.recv(source=0, tag=98)  # never sent


def test_traced_deadlock_reports_causal_chains():
    with pytest.raises(DeadlockError) as e:
        VirtualMachine(2, SP2_1997, trace=True).run(_deadlock_prog)
    msg = str(e.value)
    assert "last completed causal chain per blocked rank:" in msg
    assert "rank 0:" in msg and "rank 1:" in msg
    # the chains cross the delivered message edges: both ranks appear
    assert e.value.chains.keys() == {0, 1}
    for rank, chain in e.value.chains.items():
        assert chain, f"rank {rank} completed operations before blocking"
        assert chain[-1].rank == rank
    # rank 1's last completed op (the tag=2 send) causally depends on
    # rank 0's tag=1 send, so its chain spans both ranks
    assert {n.rank for n in e.value.chains[1]} == {0, 1}


def test_untraced_deadlock_hints_at_tracing():
    with pytest.raises(DeadlockError) as e:
        VirtualMachine(2, SP2_1997).run(_deadlock_prog)
    msg = str(e.value)
    assert "run with trace=True or a tracer" in msg
    assert e.value.chains == {}
