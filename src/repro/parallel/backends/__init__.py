"""Pluggable communicator backends for SPMD rank programs.

A rank program is a generator that yields
:class:`~repro.parallel.runtime.SendOp` / ``RecvOp`` / ``WorkOp``
descriptors (usually through the :class:`~repro.parallel.simcomm.Comm`
API: ``compute``, ``send``, ``recv``, ``barrier``, ``allreduce``).  A *backend* is a driver that
executes the same program on every rank and satisfies the yielded
operations over some transport:

``virtual``
    The deterministic :class:`~repro.parallel.runtime.VirtualMachine`:
    single-process, LogGP-modelled clocks, full causal tracing.  Every
    result is bit-reproducible.
``multiprocessing``
    One OS process per rank (``fork`` start method); sends travel over
    real ``multiprocessing`` queues with ``(source, tag)`` matching and
    wildcard semantics identical to the virtual machine's mailbox.
    Clocks are measured host wall seconds.
``shm``
    The ``multiprocessing`` driver with a zero-copy shared-memory
    transport: numpy payloads cross rank boundaries through a slab pool
    (:mod:`repro.parallel.backends.shm`) as typed wire headers instead
    of pickles; everything else spills to the queue path unchanged.

The registry follows chainermn's ``create_communicator`` idiom: backends
are looked up by name in one literal table, which
:func:`available_backends` lists.

>>> comm = create_communicator("virtual", 4)
>>> result = comm.run(program, per_rank(args))

Backends accept machine/tracer keywords uniformly; keywords a backend
does not understand (e.g. ``timeout`` on ``virtual``) are accepted and
ignored so call sites can stay backend-agnostic.
"""

from __future__ import annotations

from typing import Callable

from ..machine import SP2_1997, MachineModel

__all__ = [
    "available_backends",
    "backend_factory",
    "create_communicator",
    "resolve_backend",
    "record_backend_run",
]

def available_backends() -> tuple[str, ...]:
    """Names of the registered communicator backends, sorted."""
    return tuple(sorted(_REGISTRY))


def backend_factory(name: str) -> Callable:
    """The factory registered under ``name``; ``ValueError`` naming the
    available backends if there is none.  Callers that take a backend
    name long before they run anything on it check it with this."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown communicator backend {name!r}; available: "
            f"{', '.join(available_backends())}"
        ) from None


def create_communicator(
    name: str = "virtual",
    nranks: int = 1,
    machine: MachineModel = SP2_1997,
    **opts,
):
    """Build the named communicator backend for ``nranks`` ranks.

    ``machine`` parameterises the modelled clock (``virtual``) and the
    work/message accounting the measured backends keep for reference.
    Additional keywords are passed to the backend factory (e.g.
    ``tracer=`` for ``virtual``, ``timeout=`` for ``multiprocessing``).
    """
    return backend_factory(name)(nranks, machine=machine, **opts)


def resolve_backend(
    backend,
    nranks: int,
    machine: MachineModel = SP2_1997,
    **opts,
):
    """Coerce a backend name or ready-made backend object to a backend.

    The dist-layer entry points accept either form; an object just needs
    a ``run`` method and is checked for a matching rank count when it
    exposes ``nranks``.
    """
    if isinstance(backend, str):
        return create_communicator(backend, nranks, machine=machine, **opts)
    if not hasattr(backend, "run"):
        raise TypeError(
            f"backend must be a name or an object with .run, got {backend!r}"
        )
    got = getattr(backend, "nranks", nranks)
    if got != nranks:
        raise ValueError(
            f"backend spans {got} ranks but the workload needs {nranks}"
        )
    return backend


def record_backend_run(tracer, phase: str, result) -> None:
    """Record one backend run's clocks into the obs layer.

    Emits labelled counters ``repro.backend.wall_seconds`` (host wall
    time of the run, when the backend measured it) and
    ``repro.backend.makespan_seconds`` (the run's own clock — modelled
    on ``virtual``, measured on the real backends), both labelled with
    the phase and backend name, so a ``repro calibrate`` report can
    compare measured wall seconds against LogGP virtual seconds for the
    same workload.
    """
    if tracer is None:
        return
    name = getattr(result, "backend", "virtual")
    tracer.metric(
        "repro.backend.makespan_seconds", result.makespan,
        kind="counter", phase=phase, backend=name,
    )
    if result.wall_seconds is not None:
        tracer.metric(
            "repro.backend.wall_seconds", result.wall_seconds,
            kind="counter", phase=phase, backend=name,
        )


# --- built-in backends -------------------------------------------------------

from .virtual import VirtualBackend  # noqa: E402
from .mp import MultiprocessingBackend  # noqa: E402
from .shm import SharedMemoryBackend  # noqa: E402

#: name -> factory(nranks, machine, **opts) returning a backend object
#: with ``run(program, *args, **kwargs) -> RunResult``.
_REGISTRY: dict[str, Callable] = {
    "virtual": VirtualBackend,
    "multiprocessing": MultiprocessingBackend,
    "shm": SharedMemoryBackend,
}
