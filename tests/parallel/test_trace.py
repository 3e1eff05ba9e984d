"""Causal recording of virtual machine runs (``trace=True``)."""

from repro.obs import CausalMsg, CausalNode
from repro.parallel import IDEAL, VirtualMachine

from tests.fixtures import msgs_of, nodes_of


def prog(comm):
    yield from comm.compute(5)
    if comm.rank == 0:
        yield from comm.send("hi", dest=1, tag=4)
    else:
        _ = yield from comm.recv(source=0, tag=4)


def test_trace_disabled_by_default():
    res = VirtualMachine(2, IDEAL).run(prog)
    assert nodes_of(res) is None and msgs_of(res) is None


def test_trace_records_ordered_events():
    res = VirtualMachine(2, IDEAL, trace=True).run(prog)
    assert nodes_of(res) is not None
    kinds = [n.kind for n in nodes_of(res)]
    assert kinds.count("work") == 2
    assert kinds.count("send") == 1
    assert kinds.count("recv") == 1
    send = next(n for n in nodes_of(res) if n.kind == "send")
    recv = next(n for n in nodes_of(res) if n.kind == "recv")
    (msg,) = msgs_of(res)
    # the one message carries the peers and the tag, and links both ends
    assert (msg.src, msg.dst, msg.tag) == (0, 1, 4)
    assert send.rank == 0 and send.msg == msg.id == recv.msg
    assert recv.rank == 1
    assert (msg.send_node, msg.recv_node) == (send.id, recv.id)
    assert recv.t_end >= send.t_end
    assert all(isinstance(n, CausalNode) for n in nodes_of(res))
    assert all(isinstance(m, CausalMsg) for m in msgs_of(res))


def test_trace_times_monotone_per_rank():
    def chatty(comm):
        for k in range(3):
            yield from comm.compute(1)
            peer = comm.rank ^ 1
            yield from comm.send(k, dest=peer, tag=k)
            _ = yield from comm.recv(source=peer, tag=k)

    res = VirtualMachine(2, IDEAL, trace=True).run(chatty)
    for r in (0, 1):
        mine = [n for n in nodes_of(res) if n.rank == r]
        ends = [n.t_end for n in mine]
        assert ends == sorted(ends)
        # program order: each op starts where the previous one ended
        assert all(a.t_end == b.t_start for a, b in zip(mine, mine[1:]))
