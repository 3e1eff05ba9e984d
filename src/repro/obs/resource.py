"""Periodic process-resource sampling (``repro.resource.*``).

A run that takes minutes on a real backend — or that blows past its
memory budget at 16k virtual ranks — should explain itself from its
trace, and the trace is the only place the samples go.  This module
samples the *process* the run executes in: resident set size,
accumulated CPU seconds, and garbage-collector collection counts, all
from the standard library (``/proc`` + :mod:`resource` + :mod:`gc`; no
psutil dependency).

:func:`sample_resources`
    One snapshot of (rss_bytes, cpu_seconds, gc_collections) for the
    current process.

:class:`ResourceSampler`
    A daemon thread sampling every ``interval`` seconds into columnar
    lists (timestamps on ``perf_counter``, relative to :meth:`start`).
    The columns pickle cheaply, so a forked rank ships its rows back to
    the parent alongside its :class:`~repro.obs.wallclock.WallRecorder`
    columns.  Sampling runs exactly when a tracer is attached: in every
    rank of a traced real-backend run, and in the host process of every
    traced CLI command.

:func:`record_resource_samples`
    Append one rank's rows to ``Tracer.resource_samples`` (serialised as
    ``resource`` records) and mirror the peaks into labelled
    ``repro.resource.{peak_rss_bytes,cpu_seconds,gc_collections}``
    metrics so reports and the run-history store see them without
    re-reading the raw rows.
"""

from __future__ import annotations

import gc
import os
import threading
import time
from dataclasses import dataclass

__all__ = [
    "DEFAULT_INTERVAL",
    "ResourceSample",
    "ResourceSampler",
    "record_resource_samples",
    "resource_peaks",
    "sample_resources",
]

#: Default seconds between samples; coarse enough that a sampler thread
#: costs well under a percent of one core.
DEFAULT_INTERVAL = 0.05

_PAGE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


@dataclass(frozen=True)
class ResourceSample:
    """One resource snapshot of one process (trace record type ``resource``)."""

    rank: int | None  #: rank whose process was sampled, None for the host
    t: float  #: seconds since that process's sampler started
    rss_bytes: float  #: resident set size at the sample
    cpu_seconds: float  #: process CPU time (user+system) at the sample
    gc_collections: int  #: cumulative GC collections across generations


def _rss_bytes() -> float:
    """Current resident set size in bytes (0.0 when unreadable)."""
    try:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * _PAGE
    except (OSError, ValueError, IndexError):
        pass
    try:  # fallback: peak RSS (ru_maxrss is KiB on Linux, bytes on macOS)
        import resource as _resource

        rss = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
        return float(rss if rss > 1 << 32 else rss * 1024)
    except Exception:
        return 0.0


def _gc_collections() -> int:
    return sum(s["collections"] for s in gc.get_stats())


def sample_resources() -> tuple[float, float, int]:
    """``(rss_bytes, cpu_seconds, gc_collections)`` for this process."""
    return _rss_bytes(), time.process_time(), _gc_collections()


class ResourceSampler:
    """Daemon-thread sampler writing columnar rows for one process."""

    def __init__(self, interval: float = DEFAULT_INTERVAL):
        if interval <= 0:
            raise ValueError(f"sampling interval must be > 0, got {interval}")
        self.interval = interval
        self.times: list[float] = []
        self.rss: list[float] = []
        self.cpu: list[float] = []
        self.gcs: list[int] = []
        self._t0 = 0.0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _take(self) -> None:
        t = time.perf_counter() - self._t0
        rss, cpu, gcs = sample_resources()
        self.times.append(t)
        self.rss.append(rss)
        self.cpu.append(cpu)
        self.gcs.append(gcs)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._take()

    def start(self) -> "ResourceSampler":
        """Take an immediate first sample and begin periodic sampling."""
        self._t0 = time.perf_counter()
        self._take()
        self._thread = threading.Thread(
            target=self._loop, name="repro-resource-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> "ResourceSampler":
        """Stop the thread and take one closing sample."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._take()
        return self

    def __enter__(self) -> "ResourceSampler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def rows(self) -> dict:
        """Plain-data columns for shipping over a result queue."""
        return {
            "times": self.times,
            "rss": self.rss,
            "cpu": self.cpu,
            "gcs": self.gcs,
        }


def record_resource_samples(tracer, rows: dict,
                            rank: int | None = None,
                            backend: str = "host") -> int:
    """Write one process's sampler ``rows`` into ``tracer``.

    Appends one :class:`ResourceSample` per row (record type
    ``resource``) and records the peak RSS, final CPU seconds, and GC
    collection delta as labelled ``repro.resource.*`` metrics for
    ``rank``.  Returns the number of samples recorded.
    """
    if tracer is None or not rows or not rows.get("times"):
        return 0
    times, rss, cpu, gcs = (
        rows["times"], rows["rss"], rows["cpu"], rows["gcs"]
    )
    for t, r, c, g in zip(times, rss, cpu, gcs):
        tracer.resource_samples.append(
            ResourceSample(rank=rank, t=t, rss_bytes=r,
                           cpu_seconds=c, gc_collections=int(g))
        )
    tracer.metric(
        "repro.resource.peak_rss_bytes", max(rss),
        kind="gauge", rank=rank, backend=backend,
    )
    tracer.metric(
        "repro.resource.cpu_seconds", cpu[-1],
        kind="gauge", rank=rank, backend=backend,
    )
    tracer.metric(
        "repro.resource.gc_collections", int(gcs[-1]) - int(gcs[0]),
        kind="gauge", rank=rank, backend=backend,
    )
    return len(times)


def resource_peaks(samples) -> dict[int | None, dict[str, float]]:
    """Per-rank peaks over an iterable of :class:`ResourceSample`.

    Returns ``{rank: {"peak_rss_bytes", "cpu_seconds", "gc_collections",
    "samples"}}``; CPU and GC are the max observed (both are cumulative
    within a process).
    """
    out: dict[int | None, dict[str, float]] = {}
    for s in samples:
        d = out.setdefault(s.rank, {
            "peak_rss_bytes": 0.0, "cpu_seconds": 0.0,
            "gc_collections": 0.0, "samples": 0,
        })
        d["peak_rss_bytes"] = max(d["peak_rss_bytes"], s.rss_bytes)
        d["cpu_seconds"] = max(d["cpu_seconds"], s.cpu_seconds)
        d["gc_collections"] = max(d["gc_collections"], s.gc_collections)
        d["samples"] += 1
    return out
