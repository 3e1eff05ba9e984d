"""One end-of-run resource reading per process (``repro.resource.*``).

A traced run records, for the host process and for every forked rank
of a real backend, three numbers read once when its work is done:

* peak resident set size — ``getrusage(RUSAGE_SELF).ru_maxrss``, the
  kernel's high-water mark (KiB on Linux, bytes on macOS);
* CPU seconds — ``time.process_time()`` (user + system);
* garbage-collector collections since the process or rank started, the
  delta of ``gc.get_stats()`` between a reading at the start and one at
  the end.

:func:`read_resources` takes a reading; :func:`record_resources` writes
one as the labelled ``repro.resource.{peak_rss_bytes,cpu_seconds,
gc_collections}`` gauges, which the report's "Resource usage (per
process)" section and the run-history store read.
"""

from __future__ import annotations

import gc
import resource
import sys
import time

__all__ = ["read_resources", "record_resources"]

#: ``ru_maxrss`` unit: bytes on macOS, KiB everywhere else.
_MAXRSS_BYTES = 1 if sys.platform == "darwin" else 1024


def read_resources(since) -> tuple[float, float, int]:
    """``(peak_rss_bytes, cpu_seconds, gc_collections)`` for this process.

    Peak RSS and CPU seconds are cumulative over the process's life.  GC
    collections count from ``since``, an earlier reading of the same
    process, or from the process's start when ``since`` is None.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * _MAXRSS_BYTES
    collections = sum(s["collections"] for s in gc.get_stats())
    if since is not None:
        collections -= since[2]
    return float(peak), time.process_time(), collections


def record_resources(tracer, usage, rank, backend: str) -> None:
    """Write one process's reading ``usage`` into ``tracer`` as the three
    ``repro.resource.*`` gauges, labelled ``backend`` and keyed by
    ``rank`` (None for the host process)."""
    for name, value in zip(
            ("peak_rss_bytes", "cpu_seconds", "gc_collections"), usage):
        tracer.metric(f"repro.resource.{name}", value,
                      kind="gauge", rank=rank, backend=backend)
