"""Weak-scaling sweep of the virtual-machine scheduler itself.

The paper evaluates at SP2 scale (tens of processors); the extreme-scale
AMR line of work (Schornbaum & Rüde, PAPERS.md) runs the same kind of
adapt/balance cycle on 65k+ cores.  To price the cross-matrix experiment
plan at those rank counts, this module runs a fig6-style *execution
phase* — compute, 4-neighbour halo exchange, convergence allreduce, the
exact communication shape of :func:`repro.dist.exec_phase.parallel_mark`
— on synthetic 2D process grids of 1k/4k/16k virtual ranks, and measures
how fast the scheduler chews through it (host wall seconds and scheduler
ops/second).

The workload is synthetic only in its *data* (the halo payloads carry no
mesh); its op stream per rank — ``WorkOp``, tagged sends to each SPL
neighbour, source-wildcard receives, an ``allreduce`` per round — is the
one the marking-propagation loop issues (including its source-wildcard
receives — SPL arrival order is not known in advance), so the measured
throughput is
what the real exec phase would see at that scale.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from repro.obs.tracer import current_tracer
from repro.parallel import SP2_1997, VirtualMachine
from repro.parallel.runtime import ANY, RecvOp, SendOp, WorkOp, per_rank

__all__ = ["DEFAULT_RANKS", "ScalePoint", "halo_cycle", "measure_point"]

#: The sweep the CLI reports by default.
DEFAULT_RANKS = (1024, 4096, 16384)

#: Halo-exchange tag, matching the exec phase's SPL exchange.
_TAG_HALO = 11


@dataclass(frozen=True)
class ScalePoint:
    """One weak-scaling measurement of the scheduler."""

    nranks: int
    wall_seconds: float  #: host wall time of the ``VirtualMachine.run`` call
    makespan: float  #: modelled virtual seconds of the cycle
    total_messages: int
    total_words: int
    ops: int  #: scheduler operations executed (causal nodes recorded)
    rounds: int  #: propagation rounds the cycle ran

    @property
    def ops_per_second(self) -> float:
        return self.ops / self.wall_seconds if self.wall_seconds > 0 else 0.0


def grid_dims(nranks: int) -> tuple[int, int]:
    """Most-square ``(px, py)`` factorisation with ``px * py == nranks``."""
    if nranks < 1:
        raise ValueError(f"need at least one rank, got {nranks}")
    px = int(math.isqrt(nranks))
    while nranks % px:
        px -= 1
    return px, nranks // px


def grid_neighbours(nranks: int) -> list[list[int]]:
    """4-neighbour (non-periodic) adjacency on the :func:`grid_dims` grid —
    the synthetic stand-in for each rank's SPL neighbour list."""
    px, py = grid_dims(nranks)
    nbrs: list[list[int]] = []
    for r in range(nranks):
        x, y = r % px, r // px
        out = []
        if x > 0:
            out.append(r - 1)
        if x + 1 < px:
            out.append(r + 1)
        if y > 0:
            out.append(r - px)
        if y + 1 < py:
            out.append(r + px)
        nbrs.append(out)
    return nbrs


def _work_units(nranks: int, base: float) -> list[float]:
    """Deterministic per-rank load variation (±25% around ``base``), so the
    schedule has real stragglers instead of lock-step rounds."""
    h = (np.arange(nranks, dtype=np.uint64) * np.uint64(2654435761)) % 97
    return (base * (0.75 + 0.5 * (h / 96.0))).tolist()


def _halo_program(comm, nbrs, units, payload, rounds):
    """One rank of the fig6-style execution phase (see module docstring).

    The halo ops are built once per rank and reused across rounds (ops
    are read-only value carriers, so reuse is safe), over the one
    read-only ``payload`` every rank shares: the sweep prices the
    scheduler's dispatch, matching, and recording — not the program's own
    allocation.  The convergence check stays on the
    communicator's ``allreduce`` so collective traffic is represented.
    """
    nw = max(1, payload.shape[0])
    send_ops = [SendOp(d, _TAG_HALO, payload, nw) for d in nbrs]
    # the exec phase receives with a source wildcard (``comm.recv(tag=11)``
    # — SPL arrival order is not known in advance), so the sweep does too
    recv_op = RecvOp(ANY, _TAG_HALO)
    n_in = len(nbrs)
    work_op = WorkOp(units)
    checksum = 0
    it = 0
    while True:
        it += 1
        yield work_op
        for op in send_ops:
            yield op
        for _ in range(n_in):
            data, _src, _tag = yield recv_op
            checksum += data.shape[0]
        more = yield from comm.allreduce(it < rounds, op=lambda a, b: a or b)
        if not more:
            break
    return checksum, it


def halo_cycle(
    nranks: int,
    rounds: int = 3,
    halo_words: int = 64,
    work_units: float = 200.0,
):
    """Run one fig6-style cycle at ``nranks`` on the SP2 model; returns
    the recorded ``RunResult``.

    Under an ambient tracer (:func:`~repro.obs.tracer.use_tracer`) the
    sweep prices the scheduler exactly as the adapt/balance pipeline runs
    it, registering one lazy columnar chunk per run.
    """
    vm = VirtualMachine(nranks, SP2_1997, trace=True, tracer=current_tracer())
    payload = np.arange(halo_words, dtype=np.int64)
    payload.flags.writeable = False  # one halo, shared by every rank
    return vm.run(
        _halo_program,
        per_rank(grid_neighbours(nranks)),
        per_rank(_work_units(nranks, work_units)),
        payload,
        rounds,
    )


def measure_point(
    nranks: int,
    rounds: int = 3,
    halo_words: int = 64,
    work_units: float = 200.0,
) -> ScalePoint:
    """Time one recorded :func:`halo_cycle` and fold it into a
    :class:`ScalePoint` (its ``ops`` are the run's recorded nodes)."""
    t0 = time.perf_counter()
    res = halo_cycle(nranks, rounds=rounds, halo_words=halo_words,
                     work_units=work_units)
    wall = time.perf_counter() - t0
    return ScalePoint(
        nranks=nranks,
        wall_seconds=wall,
        makespan=res.makespan,
        total_messages=res.total_messages,
        total_words=res.total_words,
        ops=res._record.nnodes,
        rounds=max(r for _c, r in res.returns),
    )
