"""Zero-copy shared-memory transport for the real-core backends.

The plain ``multiprocessing`` backend pushes every payload through a
``ctx.Queue``, which pickles it — serializing the very numpy words the
LogGP model charges ``t_word`` for.  This module replaces that wire for
array payloads with a per-run :mod:`multiprocessing.shared_memory` slab
pool:

* :class:`SlabPool` — one shared segment carved into fixed-size slabs,
  with a lock-guarded free-list stack (also in shared memory) so any
  rank process can allocate and any rank process can recycle.
* :class:`ShmTransport` — the wire codec.  A send packs an eligible
  ndarray into a slab with a plain ``memcpy`` and ships only a typed
  header (:class:`ShmRef`: dtype, shape, strides, slab offset) through
  the queue; tuples/lists are encoded shallowly so mixed payloads keep
  their array members zero-copy.  Everything else — oversized arrays
  when no slab fits, tiny arrays below ``min_bytes``, object/void
  dtypes, non-array objects, or any array when the pool is exhausted —
  *spills* to the ordinary pickle path unchanged.
* :class:`SharedMemoryBackend` — the ``shm`` communicator backend: the
  :class:`~repro.parallel.backends.mp.MultiprocessingBackend` driver
  (same forked processes, same ``(source, tag)`` mailbox matching)
  with this transport installed.

Ownership
---------
A slab has exactly one writer (the sender, before the header is
enqueued) and exactly one reader (the rank whose mailbox pop matches
the header), so popping a message *transfers ownership*: the receiver
gets a writable ndarray view directly over the slab — no copy, and
in-place mutation is safe because nobody else can alias the slab.  The
slab returns to the free list when the view (and every view derived
from it) is garbage collected, via a finalizer that defers the actual
free to the next transport operation — finalizers run inside GC, where
taking the pool lock could deadlock against an allocation already
holding it.

Counters
--------
Each rank counts ``bytes_zero_copy`` / ``msgs_zero_copy`` (packed
through slabs), ``bytes_pickled`` / ``msgs_pickled`` (spilled), and
``slab_reuse`` (allocations served by a recycled slab).  The backend
aggregates them onto ``RunResult.transport``, emits them as
``repro.transport.*`` counters into the metrics registry when a tracer
is installed, and accumulates them into a module-level tally that
``repro calibrate`` snapshots around each workload run.
"""

from __future__ import annotations

import time
import weakref
from typing import NamedTuple

import numpy as np

from .mp import MultiprocessingBackend

__all__ = ["SharedMemoryBackend", "reset_transport_totals", "transport_totals"]

#: Slab size: holds the library's typical element blocks; larger arrays
#: spill to pickle.  Kept modest because pool pages are prefaulted at
#: creation and warmed per rank — cost is linear in the pool size.
DEFAULT_SLAB_BYTES = 1 << 20
#: Arrays smaller than this ride the pickle path: a slab round-trip
#: costs two lock acquisitions, which small pickles beat.
DEFAULT_MIN_BYTES = 256
#: Seconds a sender waits for a recycled slab before spilling to pickle.
#: A healthy receiver frees a slab every time it pops a message, so the
#: wait is normally one message-service time; a stuck receiver costs at
#: most this much extra latency per send before the pickle fallback.
DEFAULT_ALLOC_WAIT = 0.02

_COUNTER_KEYS = (
    "bytes_zero_copy", "bytes_pickled", "msgs_zero_copy", "msgs_pickled",
    "slab_reuse", "spills",
)

#: Module-level tally across backend runs (parent process only), so
#: ``repro calibrate`` can report which path the workload's messages
#: took without passing a tracer through every dist entry point.
_RUN_TOTALS = {k: 0 for k in _COUNTER_KEYS}


def reset_transport_totals() -> None:
    """Zero the module-level transport tally (start of a measured run)."""
    for k in _COUNTER_KEYS:
        _RUN_TOTALS[k] = 0


def transport_totals() -> dict[str, int]:
    """Snapshot of the transport counters accumulated since the last reset."""
    return dict(_RUN_TOTALS)


class ShmRef(NamedTuple):
    """Typed wire header for one packed array (crosses the queue instead
    of the array's bytes)."""

    slab: int  #: slab index (for recycling)
    offset: int  #: byte offset of the data in the pool's data segment
    dtype: str  #: ``np.dtype.str`` — reconstructs dtype incl. endianness
    shape: tuple
    strides: tuple  #: strides of the *packed* copy (C or F contiguous)
    nbytes: int


# wire kinds: the first element of every queue payload under this transport
_KIND_PICKLE = 0  #: ``(0, payload)`` — spill: payload pickles as before
_KIND_ARRAY = 1  #: ``(1, ShmRef)`` — one packed ndarray
_KIND_SEQ = 2  #: ``(2, is_tuple, [(kind, item), ...])`` — shallow container


class SlabPool:
    """Fixed-size slab allocator over one shared-memory segment.

    The free list is a LIFO stack of slab indices living in a second
    (small) shared segment, guarded by a fork-inherited lock, so every
    rank process allocates and recycles against the same state.  A
    per-slab ``used`` flag (same segment) distinguishes first use from
    reuse for the ``slab_reuse`` counter.

    Both segments are created by the parent *before* forking; children
    inherit the mappings by memory image and never close or unlink —
    :meth:`dispose` (parent, after the run) is the single cleanup point.
    """

    def __init__(self, nslabs: int, slab_bytes: int, ctx=None):
        if nslabs < 1 or slab_bytes < 8:
            raise ValueError(
                f"need nslabs >= 1 and slab_bytes >= 8, "
                f"got {nslabs} x {slab_bytes}"
            )
        import multiprocessing
        from multiprocessing import shared_memory

        if ctx is None:
            ctx = multiprocessing.get_context("fork")
        self.nslabs = nslabs
        self.slab_bytes = slab_bytes
        self._data = shared_memory.SharedMemory(
            create=True, size=nslabs * slab_bytes
        )
        # Touch one byte per page so tmpfs allocates every slab page *now*,
        # in the parent, off any rank's measured clock — a first-touch
        # fault (allocate + zero) costs ~10x a plain memcpy of the same
        # page on the sender's critical path.
        pages = np.ndarray((nslabs * slab_bytes,), dtype=np.uint8,
                           buffer=self._data.buf)
        pages[::4096] = 0
        del pages
        # meta layout: [0] free-stack top, [1:1+n] stack, [1+n:1+2n] used flags
        self._meta = shared_memory.SharedMemory(
            create=True, size=(1 + 2 * nslabs) * 8
        )
        meta = np.ndarray((1 + 2 * nslabs,), dtype=np.int64,
                          buffer=self._meta.buf)
        meta[0] = nslabs
        meta[1:1 + nslabs] = np.arange(nslabs)
        meta[1 + nslabs:] = 0
        self._meta_arr = meta
        self._lock = ctx.Lock()
        self._disposed = False

    @property
    def data_buf(self) -> memoryview:
        """The data segment's buffer (valid in every inheriting process)."""
        return self._data.buf

    def alloc(self) -> tuple[int, bool] | None:
        """Pop a free slab; returns ``(index, reused)`` or None when empty."""
        with self._lock:
            m = self._meta_arr
            top = int(m[0]) - 1
            if top < 0:
                return None
            m[0] = top
            idx = int(m[1 + top])
            reused = bool(m[1 + self.nslabs + idx])
            m[1 + self.nslabs + idx] = 1
            return idx, reused

    def free_many(self, indices) -> None:
        """Recycle several slabs under a single lock acquisition."""
        with self._lock:
            m = self._meta_arr
            top = int(m[0])
            for idx in indices:
                m[1 + top] = idx
                top += 1
            m[0] = top

    def free_count(self) -> int:
        with self._lock:
            return int(self._meta_arr[0])

    def dispose(self) -> None:
        """Release and unlink both segments (parent, after children exit)."""
        if self._disposed:
            return
        self._disposed = True
        self._meta_arr = None  # drop the numpy export before mmap.close()
        for seg in (self._data, self._meta):
            try:
                seg.close()
            except BufferError:  # pragma: no cover — a live view leaked
                continue
            try:
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass


class ShmTransport:
    """Wire codec installed into the ``multiprocessing`` driver.

    One instance is built parent-side per run and inherited by every
    rank process at fork, so the counters and the pending-free list are
    per-process (each child tallies its own traffic); the pool state is
    genuinely shared.
    """

    def __init__(self, pool: SlabPool, min_bytes: int = DEFAULT_MIN_BYTES,
                 alloc_wait: float = DEFAULT_ALLOC_WAIT):
        self.pool = pool
        self.min_bytes = min_bytes
        self.alloc_wait = alloc_wait
        self.counters = {k: 0 for k in _COUNTER_KEYS}
        # slabs whose receiver-side views were GC'd; finalizers only
        # append (lock-free) — the actual free happens on the next
        # encode/decode, outside any GC context
        self._pending_free: list[int] = []

    # --- sender side --------------------------------------------------------

    def encode(self, payload, nwords: int):
        """Encode one payload for the wire; called at every SendOp."""
        self._drain_pending()
        c = self.counters
        if isinstance(payload, np.ndarray):
            ref = self._pack(payload)
            if ref is not None:
                c["msgs_zero_copy"] += 1
                return (_KIND_ARRAY, ref)
        elif type(payload) in (tuple, list) and any(
            isinstance(x, np.ndarray) and self._eligible(x) for x in payload
        ):
            items = []
            for x in payload:
                ref = self._pack(x) if isinstance(x, np.ndarray) else None
                if ref is not None:
                    items.append((_KIND_ARRAY, ref))
                else:
                    items.append((_KIND_PICKLE, x))
                    if isinstance(x, np.ndarray):
                        c["bytes_pickled"] += x.nbytes
            c["msgs_pickled" if all(
                k == _KIND_PICKLE for k, _ in items
            ) else "msgs_zero_copy"] += 1
            return (_KIND_SEQ, isinstance(payload, tuple), items)
        c["msgs_pickled"] += 1
        c["bytes_pickled"] += 8 * nwords
        return (_KIND_PICKLE, payload)

    def _eligible(self, arr: np.ndarray) -> bool:
        dt = arr.dtype
        return (
            not dt.hasobject
            and dt.kind != "V"
            and self.min_bytes <= arr.nbytes <= self.pool.slab_bytes
        )

    def _pack(self, arr: np.ndarray) -> ShmRef | None:
        """memcpy ``arr`` into a free slab; None means spill to pickle."""
        if not self._eligible(arr):
            return None
        got = self.pool.alloc()
        if got is None and self.alloc_wait > 0:
            # Pool exhausted: a streaming sender outrunning its receiver
            # lands here.  Waiting a bounded moment for a recycled slab
            # beats spilling — the pickle path costs several times a
            # slab round-trip at these sizes — and doubles as
            # backpressure that keeps the slab working set small.
            deadline = time.perf_counter() + self.alloc_wait
            while got is None and time.perf_counter() < deadline:
                time.sleep(2e-4)
                self._drain_pending()
                got = self.pool.alloc()
        if got is None:  # still exhausted: graceful spill
            self.counters["spills"] += 1
            return None
        idx, reused = got
        if reused:
            self.counters["slab_reuse"] += 1
        offset = idx * self.pool.slab_bytes
        # pack preserving F order when the source has it; anything
        # non-contiguous packs C-contiguous (values, shape, dtype kept)
        order = "F" if (arr.flags.f_contiguous
                        and not arr.flags.c_contiguous) else "C"
        dst = np.ndarray(arr.shape, dtype=arr.dtype,
                         buffer=self.pool.data_buf, offset=offset,
                         order=order)
        np.copyto(dst, arr)
        self.counters["bytes_zero_copy"] += arr.nbytes
        return ShmRef(idx, offset, arr.dtype.str, arr.shape, dst.strides,
                      arr.nbytes)

    def warmup(self) -> None:
        """Map the pool's pages into *this* process (off the clock).

        Linux does not copy page-table entries for shared file mappings
        across ``fork``, so each rank's first access to a slab page
        takes a minor fault even after the parent prefaulted the pool.
        The driver calls this once per rank before starting its measured
        clock.  Read-only on purpose: other ranks may already be
        streaming into slabs by the time a late-forked rank warms up.
        """
        pages = np.ndarray((self.pool.nslabs * self.pool.slab_bytes,),
                           dtype=np.uint8, buffer=self.pool.data_buf)
        int(pages[::4096].sum())  # fault every page in
        del pages

    # --- receiver side ------------------------------------------------------

    def decode(self, wire):
        """Decode one popped wire payload; called when a RecvOp takes it."""
        self._drain_pending()
        kind = wire[0]
        if kind == _KIND_PICKLE:
            return wire[1]
        if kind == _KIND_ARRAY:
            return self._unpack(wire[1])
        _, is_tuple, items = wire
        out = [
            self._unpack(v) if k == _KIND_ARRAY else v for k, v in items
        ]
        return tuple(out) if is_tuple else out

    def _unpack(self, ref: ShmRef) -> np.ndarray:
        arr = np.ndarray(ref.shape, dtype=np.dtype(ref.dtype),
                         buffer=self.pool.data_buf, offset=ref.offset,
                         strides=ref.strides)
        # ownership transfer: the receiver is the slab's only aliaser,
        # so the view is writable; recycle when the view is collected
        weakref.finalize(arr, self._pending_free.append, ref.slab)
        return arr

    def _drain_pending(self) -> None:
        if self._pending_free:
            pend, self._pending_free = self._pending_free, []
            self.pool.free_many(pend)

    # --- lifecycle ----------------------------------------------------------

    def note_run_totals(self, totals: dict) -> None:
        """Parent-side hook: fold one run's aggregated counters into the
        module tally ``repro calibrate`` snapshots."""
        for k, v in totals.items():
            if k in _RUN_TOTALS:
                _RUN_TOTALS[k] += int(v)

    def dispose(self) -> None:
        self.pool.dispose()


class SharedMemoryBackend(MultiprocessingBackend):
    """The ``shm`` backend: forked rank processes whose numpy payloads
    cross rank boundaries through the slab pool instead of pickling."""

    name = "shm"

    def _make_transport(self, ctx):
        # Pool sizing: a sender that outruns its receiver holds slabs in
        # flight until the receiver's views are collected, but
        # ``alloc_wait`` backpressure caps the depth at the pool size —
        # and a *small* pool keeps the slab working set cache-warm.
        # 4 slabs/rank-pair handily covers the library's exchange
        # patterns; prefaulting (SlabPool) keeps creation cost linear in
        # this, so don't oversize.
        nslabs = max(16, 4 * self.nranks)
        return ShmTransport(SlabPool(nslabs, DEFAULT_SLAB_BYTES, ctx=ctx))
