"""Communicator for rank programs, on every backend.

All methods are generator functions: rank programs invoke them with
``yield from``, e.g.::

    def program(comm, part):
        yield from comm.compute(len(part))
        yield from comm.send(part, dest=(comm.rank + 1) % comm.size, tag=1)
        got = yield from comm.recv(tag=1)
        return (yield from comm.allreduce(len(got)))

The collectives are built from point-to-point sends and receives with the
standard dissemination and binomial-tree schedules, so their virtual cost
scales with :math:`\\log P` exactly as on a real message-passing machine.
They travel on tags above the user range, so user traffic can never be
captured by a collective.  A program that needs the ``(payload, source,
tag)`` of a receive yields :class:`~repro.parallel.runtime.RecvOp` itself.
"""

from __future__ import annotations

import operator
from typing import Any, Callable

from .machine import MachineModel, word_count
from .runtime import ANY, RecvOp, SendOp, WorkOp

__all__ = ["Comm", "ANY"]

# User tags stay below _TAG_BASE.  The collective tags keep the values
# every recorded trace and pinned message digest carries.
_TAG_BASE = 1 << 20
_TAG_BARRIER = _TAG_BASE + 1
_TAG_BCAST = _TAG_BASE + 2
_TAG_REDUCE = _TAG_BASE + 5


class Comm:
    """Communicator bound to one rank of a backend run."""

    __slots__ = ("rank", "size", "machine")

    def __init__(self, rank: int, size: int, machine: MachineModel):
        self.rank = rank
        self.size = size
        self.machine = machine

    def compute(self, units: float):
        """Charge ``units`` of local computation to this rank's clock."""
        yield WorkOp(units)

    def send(self, obj: Any, dest: int, tag: int = 0, nwords: int | None = None):
        """Buffered send; completes after the message is on the wire."""
        if not 0 <= tag < _TAG_BASE:
            raise ValueError(f"user tags must be in [0, {_TAG_BASE}), got {tag}")
        yield SendOp(dest, tag, obj, word_count(obj) if nwords is None else nwords)

    def recv(self, source: int = ANY, tag: int = ANY):
        """Blocking receive; returns the matching payload."""
        payload, _src, _tag = yield RecvOp(source, tag)
        return payload

    def barrier(self):
        """Dissemination barrier: ceil(log2 P) rounds of pairwise sync."""
        k = 1
        while k < self.size:
            yield SendOp((self.rank + k) % self.size, _TAG_BARRIER, None, 0)
            yield RecvOp((self.rank - k) % self.size, _TAG_BARRIER)
            k *= 2

    def allreduce(self, obj: Any, op: Callable = operator.add):
        """Reduction whose result is returned on every rank.

        A binomial-tree reduction to rank 0 followed by a binomial
        broadcast from it, in one generator frame.  ``op`` must be
        associative; the combine order is *rank* order
        (``x_0 ⊕ x_1 ⊕ … ⊕ x_{P-1}``: each rank's tree combines contiguous
        rank blocks left to right), so runs are deterministic even for a
        non-commutative ``op``.
        """
        rank = self.rank
        size = self.size
        acc = obj
        mask = 1
        while mask < size:
            if rank & mask:
                yield SendOp(rank & ~mask, _TAG_REDUCE, acc, word_count(acc))
                break
            child = rank | mask
            if child < size:
                payload, _s, _t = yield RecvOp(child, _TAG_REDUCE)
                acc = op(acc, payload)
            mask *= 2
        # broadcast from rank 0: receive from the rank that differs in the
        # lowest set bit, then forward by setting each lower bit
        mask = 1
        while mask < size:
            if rank & mask:
                acc, _s, _t = yield RecvOp(rank - mask, _TAG_BCAST)
                break
            mask *= 2
        mask //= 2
        while mask > 0:
            child = rank + mask
            if child < size:
                yield SendOp(child, _TAG_BCAST, acc, word_count(acc))
            mask //= 2
        return acc
