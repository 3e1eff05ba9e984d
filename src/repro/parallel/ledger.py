"""Bulk-synchronous cost accounting for vectorized partition-wise phases.

Some phases of the framework (edge-marking propagation, subdivision,
similarity-row construction) are implemented as NumPy-vectorized loops over
partitions rather than as generator rank programs.  Those phases model their
parallel execution time through a :class:`CostLedger`: per-rank virtual
clocks charged with local work and per-message transfer costs, synchronised
at superstep barriers — the BSP view of the same machine model used by
:class:`~repro.parallel.runtime.VirtualMachine`.
"""

from __future__ import annotations

import math

import numpy as np

from .machine import MachineModel, SP2_1997

__all__ = ["CostLedger"]


class CostLedger:
    """Per-rank virtual clocks for a bulk-synchronous phase.

    All ``add_*`` methods accumulate onto rank clocks; :meth:`barrier`
    synchronises every clock to the maximum plus a dissemination-barrier
    term of ``ceil(log2 P)`` message startups.

    With ``tracer`` set to a :class:`repro.obs.Tracer`, per-rank traffic
    is recorded as labelled metrics (``repro.ledger.messages_sent`` /
    ``messages_recv`` / ``words_sent`` / ``words_recv``), so traffic shows
    up in exported traces with the rank dimension intact.

    A traced ledger additionally emits one ``ledger.superstep`` point
    event per barrier-to-barrier superstep, carrying the per-rank
    work/comm second decomposition (ledger-local ``start``/``duration``,
    placed on the trace timeline by the event's ``v_time``) — the
    bulk-synchronous half of the causal record consumed by
    :mod:`repro.obs.causal`.  Call :meth:`close` after the last charge to
    flush the trailing (barrier-less) superstep.
    """

    def __init__(self, nranks: int, machine: MachineModel = SP2_1997,
                 tracer=None):
        if nranks < 1:
            raise ValueError(f"need at least one rank, got {nranks}")
        self.nranks = nranks
        self.machine = machine
        self.tracer = tracer
        self.clocks = np.zeros(nranks, dtype=np.float64)
        self.total_messages = 0
        self.total_words = 0
        self._sstep = 0
        self._step_t0 = 0.0
        self._step_msgs = 0
        self._work = np.zeros(nranks, dtype=np.float64)
        self._comm = np.zeros(nranks, dtype=np.float64)

    def _count_traffic(self, messages: int, words: int) -> None:
        self.total_messages += messages
        self.total_words += words

    def add_work_all(self, units) -> None:
        """Charge per-rank work from a scalar or length-``nranks`` array."""
        units = np.asarray(units, dtype=np.float64)
        if units.ndim == 0:
            units = np.full(self.nranks, float(units))
        if units.shape != (self.nranks,):
            raise ValueError(
                f"expected scalar or shape ({self.nranks},), got {units.shape}"
            )
        if np.any(units < 0):
            raise ValueError("negative work units")
        dt = units * self.machine.t_work
        self.clocks += dt
        self._work += dt

    def add_message(self, src: int, dst: int, nwords: int) -> None:
        """Charge one message: full transfer at the sender, posting at the
        receiver (matching the VirtualMachine's postal model)."""
        if src == dst:
            return  # local data stays in place; no transfer cost
        t = self.machine.msg_time(nwords)
        self.clocks[src] += t
        self.clocks[dst] += self.machine.t_setup
        self._comm[src] += t
        self._comm[dst] += self.machine.t_setup
        self._step_msgs += 1
        self._count_traffic(1, nwords)
        if self.tracer is not None:
            m = self.tracer.metric
            m("repro.ledger.messages_sent", 1, kind="counter", rank=src)
            m("repro.ledger.messages_recv", 1, kind="counter", rank=dst)
            m("repro.ledger.words_sent", nwords, kind="counter", rank=src)
            m("repro.ledger.words_recv", nwords, kind="counter", rank=dst)

    def add_exchange(self, volume: np.ndarray) -> None:
        """Charge a full exchange from a ``(P, P)`` word-volume matrix.

        ``volume[i, j]`` words move from rank ``i`` to rank ``j``; each
        nonzero off-diagonal entry is one message.  Senders and receivers
        proceed concurrently, so each rank is charged the larger of its
        total send time and total receive time (plus per-message startups
        on both sides).
        """
        volume = np.asarray(volume)
        if volume.shape != (self.nranks, self.nranks):
            raise ValueError(
                f"expected ({self.nranks}, {self.nranks}) matrix, got {volume.shape}"
            )
        off = volume.copy()
        np.fill_diagonal(off, 0)
        nmsg_out = (off > 0).sum(axis=1)
        nmsg_in = (off > 0).sum(axis=0)
        send_t = nmsg_out * self.machine.t_setup + off.sum(axis=1) * self.machine.t_word
        recv_t = nmsg_in * self.machine.t_setup + off.sum(axis=0) * self.machine.t_word
        self.clocks += np.maximum(send_t, recv_t)
        self._comm += np.maximum(send_t, recv_t)
        self._step_msgs += int((off > 0).sum())
        self._count_traffic(int((off > 0).sum()), int(off.sum()))
        if self.tracer is not None:
            # bulk per-rank emission; skip_zero preserves the old
            # only-nonzero-rank sampling (words follow messages: a rank
            # with nmsg_out > 0 has words_out >= nmsg_out > 0)
            mpr = self.tracer.metric_per_rank
            mpr("repro.ledger.messages_sent", nmsg_out.tolist(),
                kind="counter", skip_zero=True)
            mpr("repro.ledger.words_sent", off.sum(axis=1).tolist(),
                kind="counter", skip_zero=True)
            mpr("repro.ledger.messages_recv", nmsg_in.tolist(),
                kind="counter", skip_zero=True)
            mpr("repro.ledger.words_recv", off.sum(axis=0).tolist(),
                kind="counter", skip_zero=True)

    def barrier(self) -> None:
        """Synchronise all ranks: max clock plus log2(P) startup rounds."""
        rounds = math.ceil(math.log2(self.nranks)) if self.nranks > 1 else 0
        sync = rounds * self.machine.t_setup
        self._emit_superstep(sync)
        self.clocks[:] = self.clocks.max() + sync

    def close(self) -> None:
        """Flush the trailing (barrier-less) superstep to the tracer.

        Call once after the last charge; further charges open a new
        superstep.  A no-op for untraced or idle ledgers.
        """
        self._emit_superstep(0.0)

    def _emit_superstep(self, sync: float) -> None:
        busy = float(self.clocks.max()) - self._step_t0
        if self.tracer is not None and (busy > 0.0 or self._step_msgs > 0):
            self.tracer.event(
                "ledger.superstep",
                step=self._sstep,
                start=self._step_t0,
                duration=busy + sync,
                work=self._work.tolist(),
                comm=self._comm.tolist(),
                sync=sync,
                messages=self._step_msgs,
                cycle=self.tracer.cycle,
            )
        self._sstep += 1
        self._step_t0 = float(self.clocks.max()) + sync
        self._step_msgs = 0
        self._work[:] = 0.0
        self._comm[:] = 0.0

    @property
    def elapsed(self) -> float:
        """Current makespan (slowest rank's clock)."""
        return float(self.clocks.max())
