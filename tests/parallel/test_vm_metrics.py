"""Per-rank traffic, read from the causal record: the remap against its
move matrix and the cost ledger's exchange rule, idle identity."""

import numpy as np
import pytest

from repro.core.remap import build_move_matrix, execute_remap
from repro.obs import Tracer, analyze, use_tracer
from repro.parallel import MachineModel, VirtualMachine

CHEAP = MachineModel(t_setup=1e-5, t_word=1e-7, t_work=1e-6)

NPROC = 4
STORAGE = 24
OLD = np.array([0, 0, 0, 0, 1, 1, 1, 2, 2, 3])
NEW = np.array([0, 1, 2, 3, 1, 2, 1, 2, 3, 0])
WREMAP = np.array([1, 2, 3, 1, 4, 2, 1, 5, 2, 3])


def data_traffic(stats):
    """``{quantity: per-rank array}`` of one run's payload-bearing traffic
    (zero-word messages left out), from its ``RankStats``."""
    return {
        "words_sent": np.array([st.words_sent for st in stats]),
        "words_recv": np.array([st.words_recv for st in stats]),
        "messages_sent": np.array([st.msgs_sent - st.sync_sent
                                   for st in stats]),
        "messages_recv": np.array([st.msgs_recv - st.sync_recv
                                   for st in stats]),
    }


def traced_remap():
    tracer = Tracer()
    with use_tracer(tracer):
        execu = execute_remap(OLD, NEW, WREMAP, NPROC, storage_words=STORAGE,
                              machine=CHEAP)
    [stats] = analyze(tracer).stats.values()
    assert not any(s.name.startswith("repro.vm.")
                   for s in tracer.metrics.samples())
    return execu, data_traffic(stats)


def ledger_exchange_traffic(volume):
    """The cost ledger's exchange charge, as an oracle: ``volume[i, j]``
    words move from rank ``i`` to rank ``j``, each nonzero off-diagonal
    entry is one message, and both its sender and receiver are charged."""
    off = np.array(volume, dtype=np.int64)
    np.fill_diagonal(off, 0)
    return {
        "words_sent": off.sum(axis=1),
        "words_recv": off.sum(axis=0),
        "messages_sent": (off > 0).sum(axis=1),
        "messages_recv": (off > 0).sum(axis=0),
    }


def test_vm_traffic_agrees_with_cost_ledger_on_remap():
    """The remap charged through the VM migration program carries the
    per-rank data traffic the cost ledger's exchange rule charges for the
    same word volumes — built here straight from the ownership arrays,
    self-moves included, so the VM must drop them as the ledger did."""
    execu, vm = traced_remap()
    volume = np.zeros((NPROC, NPROC), dtype=np.int64)
    np.add.at(volume, (OLD, NEW), WREMAP * STORAGE)
    assert np.trace(volume) > 0  # the data do keep some elements in place

    led = ledger_exchange_traffic(volume)
    for name, per_rank in led.items():
        assert vm[name].tolist() == per_rank.tolist(), name

    # and both agree with the execution record
    assert vm["words_sent"].sum() == execu.words_moved
    assert vm["messages_sent"].sum() == execu.messages
    assert int(led["words_sent"].sum()) == execu.words_moved
    assert int(led["messages_sent"].sum()) == execu.messages


def test_remap_metrics_match_move_matrix_per_rank():
    """The migration program's per-rank data traffic is the move matrix's:
    one message per non-empty set, ``STORAGE`` words per element, on every
    rank (zero included), and its totals are the execution record's."""
    execu, vm = traced_remap()
    move = build_move_matrix(OLD, NEW, WREMAP, NPROC)
    assert vm["words_sent"].tolist() == (move.sum(axis=1) * STORAGE).tolist()
    assert vm["words_recv"].tolist() == (move.sum(axis=0) * STORAGE).tolist()
    assert vm["messages_sent"].tolist() == (move > 0).sum(axis=1).tolist()
    assert vm["messages_recv"].tolist() == (move > 0).sum(axis=0).tolist()
    assert vm["words_sent"].sum() == execu.words_moved
    assert vm["messages_sent"].sum() == execu.messages


def lopsided(comm):
    # rank 0 computes for a long time before sending; every other rank
    # blocks on the receive, so ranks 1..3 accumulate idle virtual time
    if comm.rank == 0:
        yield from comm.compute(5000)
        for dest in range(1, comm.size):
            yield from comm.send("x", dest=dest, tag=0, nwords=16)
    else:
        _ = yield from comm.recv(source=0, tag=0)
    yield from comm.barrier()


def run_lopsided():
    tracer = Tracer()
    res = VirtualMachine(NPROC, CHEAP, tracer=tracer).run(lopsided)
    [stats] = analyze(tracer).stats.values()
    return res, stats


def test_idle_is_makespan_minus_busy_per_rank():
    res, stats = run_lopsided()
    assert [st.rank for st in stats] == list(range(NPROC))
    for r, st in enumerate(stats):
        assert st.busy == res.clocks[r] - st.wait
        assert st.idle == res.makespan - st.busy  # the identity, exactly
        assert st.idle >= 0.0
    # the blocked ranks must actually have waited on rank 0's compute
    assert min(st.idle for st in stats[1:]) > 0.0
    assert stats[0].idle == pytest.approx(0.0)


def test_data_plus_sync_messages_equal_vm_message_totals():
    res, stats = run_lopsided()
    assert sum(st.msgs_sent for st in stats) == res.total_messages
    # barrier traffic is zero-word, so it must all count as sync
    assert sum(st.sync_sent for st in stats) > 0
    assert sum(st.words_sent for st in stats) == res.total_words
    # every sent message was delivered: sent and received totals conserve
    assert sum(st.msgs_recv - st.sync_recv for st in stats) == sum(
        st.msgs_sent - st.sync_sent for st in stats)
    assert sum(st.words_recv for st in stats) == sum(
        st.words_sent for st in stats)
