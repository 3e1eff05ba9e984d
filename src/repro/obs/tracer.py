"""Phase-span tracer with separate virtual and wall clocks.

The tracer keeps a single monotonically increasing *virtual* clock (the
modelled machine time; see :mod:`repro.parallel.machine`).  Opening a span
snapshots both clocks; instrumented code charges modelled seconds with
:meth:`Tracer.advance`, which moves the virtual clock forward inside the
innermost open span; closing the span snapshots both clocks again.  Span
nesting is strict (LIFO), so the span tree mirrors the call tree and a
parent's virtual duration is always at least the sum of its children's.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass, field

from .metrics import MetricsRegistry

__all__ = [
    "PointEvent",
    "Span",
    "Tracer",
    "current_tracer",
    "maybe_phase",
    "phase_virtual_times",
    "use_tracer",
]


@dataclass
class Span:
    """One phase of execution, clocked in virtual and wall seconds."""

    name: str
    index: int  #: position in ``Tracer.spans`` (stable id for parent links)
    parent: int | None  #: index of the enclosing span, None for roots
    depth: int  #: nesting depth (0 for roots)
    v_start: float  #: virtual seconds at open
    wall_start: float  #: host ``perf_counter()`` at open
    v_end: float | None = None
    wall_end: float | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def open(self) -> bool:
        return self.wall_end is None

    @property
    def v_duration(self) -> float:
        """Modelled (virtual-machine) seconds spent in this span."""
        return 0.0 if self.v_end is None else self.v_end - self.v_start

    @property
    def wall_duration(self) -> float:
        """Host wall-clock seconds spent in this span."""
        return 0.0 if self.wall_end is None else self.wall_end - self.wall_start


@dataclass(frozen=True)
class PointEvent:
    """An instantaneous marker on the virtual timeline (a ``vm.run``, a
    ``ledger.superstep``, a ``transport.spill``, a decision being taken)."""

    name: str
    v_time: float
    rank: int | None = None
    span: int | None = None  #: index of the span open when it was recorded
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Collects spans, marker events, metrics, and causal records for one run.

    Not thread-safe; each run (or experiment sweep) should own one tracer.
    """

    def __init__(self, wall_clock=time.perf_counter):
        self.spans: list[Span] = []
        self.events: list[PointEvent] = []
        self.metrics = MetricsRegistry()
        #: One :class:`~repro.obs.causal.CausalRecord` per traced VM run,
        #: in run order (see :mod:`repro.obs.causal`); each run's
        #: ``vm.run`` marker event carries its id.
        self.causal_records: list = []
        self.cycle: int | None = None  #: current adaptation cycle id
        self._next_cycle = 0
        self._next_run = 0
        self._stack: list[Span] = []
        self._vclock = 0.0
        self._wall = wall_clock

    # --- clocks ------------------------------------------------------------

    @property
    def virtual_now(self) -> float:
        """Current position of the modelled-time clock (seconds)."""
        return self._vclock

    def advance(self, seconds: float) -> None:
        """Charge ``seconds`` of modelled time to the innermost open span."""
        if seconds < 0:
            raise ValueError(f"cannot advance virtual time by {seconds}")
        self._vclock += seconds

    # --- spans -------------------------------------------------------------

    @contextmanager
    def phase(self, name: str, **attrs):
        """Open a nested phase span for the duration of the ``with`` body."""
        span = Span(
            name=name,
            index=len(self.spans),
            parent=self._stack[-1].index if self._stack else None,
            depth=len(self._stack),
            v_start=self._vclock,
            wall_start=self._wall(),
            attrs=dict(attrs),
        )
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            popped = self._stack.pop()
            assert popped is span, "span stack corrupted (non-LIFO close)"
            span.v_end = self._vclock
            span.wall_end = self._wall()

    # --- marker events ------------------------------------------------------

    def event(
        self,
        name: str,
        v_time: float | None = None,
        rank: int | None = None,
        **attrs,
    ) -> PointEvent:
        """Record a point event; defaults to the current virtual time."""
        ev = PointEvent(
            name=name,
            v_time=self._vclock if v_time is None else v_time,
            rank=rank,
            span=self._stack[-1].index if self._stack else None,
            attrs=dict(attrs),
        )
        self.events.append(ev)
        return ev

    # --- labelled metrics --------------------------------------------------

    def next_causal_run(self) -> int:
        """Allocate the id for the next traced virtual-machine run."""
        run = self._next_run
        self._next_run += 1
        return run

    def begin_cycle(self) -> int:
        """Start the next adaptation cycle; labelled metrics recorded until
        the next call belong to the returned id."""
        self.cycle = self._next_cycle
        self._next_cycle += 1
        return self.cycle

    def metric(
        self,
        name: str,
        value,
        kind: str = "gauge",
        rank: int | None = None,
        **labels,
    ):
        """Record a labelled metric sample (see :mod:`repro.obs.metrics`).

        The sample belongs to the current cycle (:meth:`begin_cycle`) and
        is stamped with the current virtual time.  Label values are
        coerced to strings.
        """
        return self.metrics.record(
            name,
            value,
            kind=kind,
            labels=labels or None,
            cycle=self.cycle,
            rank=rank,
            v_time=self._vclock,
        )

    def metric_per_rank(
        self,
        name: str,
        values,
        kind: str = "counter",
        skip_zero: bool = False,
    ) -> None:
        """Record one unlabelled sample per rank (rank = list index) in a
        single registry call — the bulk form of :meth:`metric` the VM and
        cost ledger use for their per-rank traffic series."""
        self.metrics.record_per_rank(
            name,
            values,
            kind=kind,
            cycle=self.cycle,
            v_time=self._vclock,
            skip_zero=skip_zero,
        )


def phase_virtual_times(spans) -> dict[str, float]:
    """Sum virtual durations by span name over an iterable of spans."""
    out: dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + s.v_duration
    return out


# --- ambient tracer ---------------------------------------------------------

_CURRENT: ContextVar[Tracer | None] = ContextVar("repro_obs_tracer", default=None)


def current_tracer() -> Tracer | None:
    """The ambient tracer installed by :func:`use_tracer`, if any."""
    return _CURRENT.get()


@contextmanager
def use_tracer(tracer: Tracer):
    """Install ``tracer`` as the ambient tracer for the ``with`` body."""
    token = _CURRENT.set(tracer)
    try:
        yield tracer
    finally:
        _CURRENT.reset(token)


def maybe_phase(tracer: Tracer | None, name: str, **attrs):
    """``tracer.phase(...)`` or a no-op context when ``tracer`` is None."""
    if tracer is None:
        return nullcontext()
    return tracer.phase(name, **attrs)
