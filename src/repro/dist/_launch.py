"""The one way a phase of the distributed layer starts its rank program."""

from __future__ import annotations

from repro.obs import current_tracer
from repro.parallel.backends import record_backend_run, resolve_backend
from repro.parallel.runtime import per_rank


def launch(program, *rank_args, phase: str, machine, tracer, backend):
    """Run ``program(comm, real_wire, *args_of_rank)`` on every rank.

    Each of ``rank_args`` holds one value per rank (their common length is
    the rank count).  ``backend`` is a registered name or a ready-made
    backend object; ``tracer`` (or, when ``None``, the ambient one) records
    the run's events, its causal message DAG and its clocks under
    ``phase``.  ``real_wire`` tells the program whether payloads really
    cross a wire: measured backends ship the ``nwords``-sized blocks they
    charge, so the wall clocks pay for them (and the zero-copy transport
    can carry them); the virtual machine's clock reads only ``nwords``,
    and skipping the allocation keeps the deterministic path's host wall
    unchanged.  Returns the backend's run result.
    """
    if tracer is None:
        tracer = current_tracer()
    comm = resolve_backend(
        backend, len(rank_args[0]), machine=machine, tracer=tracer
    )
    real_wire = bool(getattr(comm, "measured", False))
    res = comm.run(program, real_wire, *map(per_rank, rank_args))
    record_backend_run(tracer, phase, res)
    return res
