"""Per-rank traffic metrics: VM vs cost ledger agreement, idle identity."""

import numpy as np
import pytest

from repro.core.remap import build_move_matrix, execute_remap
from repro.obs import Tracer, use_tracer
from repro.parallel import CostLedger, MachineModel, VirtualMachine

CHEAP = MachineModel(t_setup=1e-5, t_word=1e-7, t_work=1e-6)

NPROC = 4
STORAGE = 24
OLD = np.array([0, 0, 0, 0, 1, 1, 1, 2, 2, 3])
NEW = np.array([0, 1, 2, 3, 1, 2, 1, 2, 3, 0])
WREMAP = np.array([1, 2, 3, 1, 4, 2, 1, 5, 2, 3])


def traced_remap():
    tracer = Tracer()
    with use_tracer(tracer):
        execu = execute_remap(OLD, NEW, WREMAP, NPROC, storage_words=STORAGE,
                              machine=CHEAP)
    return execu, tracer.metrics


def test_vm_traffic_agrees_with_cost_ledger_on_remap():
    """The same move matrix, charged through the VM migration program and
    through CostLedger.add_exchange, must report identical per-rank data
    traffic — the dashboard's two traffic tables may not disagree."""
    execu, vm = traced_remap()
    move = build_move_matrix(OLD, NEW, WREMAP, NPROC)

    ledger_tracer = Tracer()
    ledger = CostLedger(NPROC, CHEAP, tracer=ledger_tracer)
    ledger.add_exchange(move * STORAGE)
    led = ledger_tracer.metrics

    pairs = [
        ("repro.vm.words_sent", "repro.ledger.words_sent"),
        ("repro.vm.words_recv", "repro.ledger.words_recv"),
        ("repro.vm.messages_sent", "repro.ledger.messages_sent"),
        ("repro.vm.messages_recv", "repro.ledger.messages_recv"),
    ]
    for vm_name, led_name in pairs:
        vm_per_rank = vm.per_rank(vm_name)
        led_per_rank = led.per_rank(led_name)
        for r in range(NPROC):
            # the ledger skips all-zero ranks; the VM records every rank
            assert vm_per_rank[r] == led_per_rank.get(r, 0.0), (vm_name, r)

    # and both agree with the execution record and the ledger totals
    assert vm.total("repro.vm.words_sent") == execu.words_moved
    assert vm.total("repro.vm.messages_sent") == execu.messages
    assert ledger.total_words == execu.words_moved
    assert ledger.total_messages == execu.messages


def test_remap_metrics_match_move_matrix_per_rank():
    _, vm = traced_remap()
    move = build_move_matrix(OLD, NEW, WREMAP, NPROC)
    assert vm.per_rank("repro.vm.words_sent") == {
        r: float(move[r].sum() * STORAGE) for r in range(NPROC)
    }
    assert vm.per_rank("repro.vm.words_recv") == {
        r: float(move[:, r].sum() * STORAGE) for r in range(NPROC)
    }
    assert vm.per_rank("repro.vm.messages_sent") == {
        r: float((move[r] > 0).sum()) for r in range(NPROC)
    }


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
    return res, tracer.metrics


def test_idle_is_makespan_minus_busy_per_rank():
    res, reg = run_lopsided()
    busy = reg.per_rank("repro.vm.busy_seconds")
    idle = reg.per_rank("repro.vm.idle_seconds")
    assert set(busy) == set(idle) == set(range(NPROC))
    for r in range(NPROC):
        assert busy[r] == res.busy_per_rank[r]
        assert idle[r] == res.idle_per_rank[r]
        assert idle[r] == res.makespan - busy[r]  # the identity, exactly
        assert idle[r] >= 0.0
    # the blocked ranks must actually have waited on rank 0's compute
    assert min(idle[r] for r in range(1, NPROC)) > 0.0
    assert idle[0] == pytest.approx(0.0)


def test_data_plus_sync_messages_equal_vm_message_totals():
    res, reg = run_lopsided()
    data_sent = reg.per_rank("repro.vm.messages_sent")
    sync = reg.per_rank("repro.vm.sync_messages")
    for r in range(NPROC):
        assert data_sent[r] + sync[r] == res.msgs_sent_per_rank[r]
    # barrier traffic is zero-word, so it must all land in sync_messages
    assert reg.total("repro.vm.sync_messages") > 0
    assert reg.total("repro.vm.words_sent") == res.total_words
    # every sent message was delivered: sent and received totals conserve
    assert reg.total("repro.vm.messages_recv") == reg.total(
        "repro.vm.messages_sent"
    )
    assert reg.total("repro.vm.words_recv") == reg.total(
        "repro.vm.words_sent"
    )
