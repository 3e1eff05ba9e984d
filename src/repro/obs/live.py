"""In-flight telemetry: hub, rank side channel, and ASCII dashboard.

The rest of the obs stack is post-mortem — a trace exists only once the
run has finished.  This module adds the *live* path:

:class:`TelemetryHub`
    A bounded, thread-safe in-process bus.  The :class:`~repro.obs.tracer.
    Tracer` publishes phase open/close and cycle frames into the ambient
    hub (installed with :func:`use_live`), backends publish per-rank
    progress, and resource samplers publish usage — the hub folds every
    frame into one aggregate ``snapshot()`` dict the dashboard renders
    from.  Publishing is a dict append under a lock plus an O(1) state
    update; the hub never blocks a publisher.

:class:`LiveChannel`
    The side channel for forked ``multiprocessing``/``shm`` ranks: a
    bounded ``multiprocessing`` queue the children write compact frame
    tuples into with ``put_nowait`` — a full queue *drops* the frame, so
    the measured clock path never blocks on telemetry — and the parent
    drains into the hub between dashboard refreshes.

:class:`LiveDisplay`
    A daemon thread that renders :func:`render_dashboard` every
    ``interval`` seconds, refreshing in place on a TTY (ANSI cursor-up)
    and printing plain periodic snapshots otherwise.  It also drains the
    run's :class:`LiveChannel` and — so a second terminal can attach with
    ``repro watch`` — atomically publishes each snapshot to a JSON status
    file under ``.repro_runs/live/``.

Nothing here touches the modelled clocks: a run with no hub installed
pays one ``None`` check per phase open/close.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar

__all__ = [
    "LiveChannel",
    "LiveDisplay",
    "TelemetryHub",
    "current_live",
    "default_status_dir",
    "load_status",
    "render_dashboard",
    "use_live",
]

#: Frames kept in the hub's raw ring buffer (the aggregate state is
#: unbounded in *names* but bounded by rank count and phase vocabulary).
DEFAULT_CAPACITY = 4096

#: Wire frame kinds a :class:`LiveChannel` carries from forked ranks.
_PROG, _RES = 0, 1


class TelemetryHub:
    """Bounded telemetry bus aggregating frames into a renderable state."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY, title: str = ""):
        self._lock = threading.Lock()
        self._frames: deque = deque(maxlen=capacity)
        #: The run's :class:`LiveChannel`, when one exists.  The CLI
        #: creates it before the solver starts; measured backends find it
        #: here (via :func:`current_live`) and hand it to their forked
        #: ranks, and the :class:`LiveDisplay` drains it.
        self.channel: "LiveChannel | None" = None
        self._t0 = time.perf_counter()
        self._state: dict = {
            "title": title,
            "started": time.time(),
            "elapsed": 0.0,
            "cycle": None,
            "phase_stack": [],
            "phases_done": [],  # (name, virtual_s, wall_s), most recent last
            "ranks": {},  # rank -> progress dict
            "resources": {},  # key ("host" or rank) -> usage dict
            "runs": 0,  # vm/backend runs completed
            "status": "running",
            "frames_dropped": 0,
        }

    # -- publishing ---------------------------------------------------------

    def publish(self, kind: str, **fields) -> None:
        """Fold one frame into the aggregate state (never blocks)."""
        now = time.perf_counter() - self._t0
        with self._lock:
            self._frames.append((now, kind, fields))
            st = self._state
            st["elapsed"] = now
            if kind == "phase_begin":
                st["phase_stack"].append(fields.get("name", "?"))
            elif kind == "phase_end":
                stack = st["phase_stack"]
                if stack:
                    stack.pop()
                done = st["phases_done"]
                done.append((
                    fields.get("name", "?"),
                    fields.get("v_seconds", 0.0),
                    fields.get("wall_seconds", 0.0),
                ))
                del done[:-12]
            elif kind == "cycle":
                st["cycle"] = fields.get("cycle")
            elif kind == "run":
                st["runs"] += 1
            elif kind == "rank_time":
                # one frame per recorded per-rank busy/idle series: busy
                # adds to both busy and total, idle only to total, so
                # busy/total is the live busy fraction across runs
                busy = fields.get("name", "").endswith("busy_seconds")
                for r, v in enumerate(fields.get("values", ())):
                    d = st["ranks"].setdefault(r, {})
                    if busy:
                        d["busy"] = d.get("busy", 0.0) + v
                    d["total"] = d.get("total", 0.0) + v
            elif kind == "progress":
                r = fields.get("rank")
                d = st["ranks"].setdefault(r, {})
                for k in ("msgs", "words", "waited", "elapsed"):
                    if k in fields:
                        d[k] = fields[k]
            elif kind == "resource":
                key = fields.get("rank")
                st["resources"][key if key is not None else "host"] = {
                    "rss_bytes": fields.get("rss_bytes", 0.0),
                    "cpu_seconds": fields.get("cpu_seconds", 0.0),
                    "gc_collections": fields.get("gc_collections", 0),
                }
            elif kind == "status":
                st["status"] = fields.get("status", st["status"])
            elif kind == "dropped":
                st["frames_dropped"] += fields.get("count", 1)

    # -- reading ------------------------------------------------------------

    def snapshot(self) -> dict:
        """A JSON-serialisable copy of the aggregate state."""
        with self._lock:
            st = self._state
            return {
                **{k: v for k, v in st.items()
                   if k not in ("phase_stack", "phases_done", "ranks",
                                "resources")},
                "phase_stack": list(st["phase_stack"]),
                "phases_done": [list(p) for p in st["phases_done"]],
                "ranks": {str(r): dict(d) for r, d in st["ranks"].items()},
                "resources": {
                    str(k): dict(d) for k, d in st["resources"].items()
                },
            }

    def frames(self) -> list:
        """The raw frame ring (newest last); mainly for tests."""
        with self._lock:
            return list(self._frames)


# --- ambient hub -------------------------------------------------------------

_CURRENT: ContextVar[TelemetryHub | None] = ContextVar(
    "repro_obs_live_hub", default=None
)


def current_live() -> TelemetryHub | None:
    """The ambient telemetry hub installed by :func:`use_live`, if any."""
    return _CURRENT.get()


@contextmanager
def use_live(hub: TelemetryHub):
    """Install ``hub`` as the ambient telemetry hub for the ``with`` body."""
    token = _CURRENT.set(hub)
    try:
        yield hub
    finally:
        _CURRENT.reset(token)


# --- rank side channel -------------------------------------------------------


class LiveChannel:
    """Bounded mp queue carrying compact frames from forked ranks.

    Children call :meth:`emit_progress` / :meth:`emit_resource` (both
    ``put_nowait``: a full queue drops the frame and bumps a local drop
    counter — telemetry never blocks the measured clock path).  The
    parent calls :meth:`drain` periodically to fold queued frames into a
    hub.  The queue object is fork-inherited, so one channel serves a
    whole run.
    """

    def __init__(self, ctx=None, maxsize: int = 1024):
        if ctx is None:
            import multiprocessing

            ctx = multiprocessing.get_context("fork")
        self._q = ctx.Queue(maxsize)
        self.dropped = 0  # per-process counter (child-side drops stay local)

    def _put(self, frame) -> None:
        try:
            self._q.put_nowait(frame)
        except Exception:
            self.dropped += 1

    def emit_progress(self, rank: int, elapsed: float, msgs: int,
                      words: int, waited: float) -> None:
        self._put((_PROG, rank, elapsed, msgs, words, waited))

    def emit_resource(self, rank: int | None, t: float, rss: float,
                      cpu: float, gcs: int) -> None:
        self._put((_RES, rank, t, rss, cpu, gcs))

    def drain(self, hub: TelemetryHub, limit: int = 10000) -> int:
        """Fold up to ``limit`` queued frames into ``hub``; returns count."""
        import queue as _queue

        n = 0
        while n < limit:
            try:
                frame = self._q.get_nowait()
            except (_queue.Empty, OSError, ValueError):
                break
            n += 1
            kind = frame[0]
            if kind == _PROG:
                _, rank, elapsed, msgs, words, waited = frame
                hub.publish("progress", rank=rank, elapsed=elapsed,
                            msgs=msgs, words=words, waited=waited)
            elif kind == _RES:
                _, rank, t, rss, cpu, gcs = frame
                hub.publish("resource", rank=rank, rss_bytes=rss,
                            cpu_seconds=cpu, gc_collections=gcs)
        return n

    def close(self) -> None:
        try:
            self._q.close()
            self._q.cancel_join_thread()
        except Exception:
            pass


# --- dashboard rendering -----------------------------------------------------


def _fmt_bytes(v: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(v) < 1024 or unit == "GiB":
            return f"{v:.1f}{unit}" if unit != "B" else f"{int(v)}B"
        v /= 1024
    return f"{v:.1f}GiB"  # pragma: no cover - loop always returns


def _bar(frac: float, width: int = 14) -> str:
    frac = min(max(frac, 0.0), 1.0)
    full = int(round(frac * width))
    return "#" * full + "." * (width - full)


def render_dashboard(snapshot: dict, width: int = 78,
                     max_ranks: int = 16) -> str:
    """Render one hub snapshot as a fixed-shape ASCII dashboard.

    Pure function of the snapshot, so ``repro watch`` renders the same
    picture from a published status file that ``repro step --live``
    renders in-process.
    """
    st = snapshot
    lines: list[str] = []
    title = st.get("title") or "repro live"
    status = st.get("status", "running")
    lines.append(
        f"{title}  [{status}]  elapsed {st.get('elapsed', 0.0):.1f}s"
        [:width]
    )
    cycle = st.get("cycle")
    stack = st.get("phase_stack") or []
    phase = " > ".join(stack) if stack else "-"
    lines.append(
        f"cycle {cycle if cycle is not None else '-'} | phase: {phase}"
        [:width]
    )
    done = st.get("phases_done") or []
    if done:
        parts = [f"{name} {v:.3f}s" for name, v, _w in done[-5:]]
        lines.append(("recent phases: " + " | ".join(parts))[:width])
    runs = st.get("runs", 0)
    dropped = st.get("frames_dropped", 0)
    tail = f"vm/backend runs: {runs}"
    if dropped:
        tail += f"  (frames dropped: {dropped})"
    lines.append(tail[:width])

    ranks = st.get("ranks") or {}
    if ranks:
        lines.append("per-rank busy/idle:")
        shown = sorted(ranks, key=lambda r: int(r))[:max_ranks]
        for r in shown:
            d = ranks[r]
            total = d.get("total", 0.0)
            busy = d.get("busy", 0.0)
            if total > 0:
                frac = busy / total
                detail = f"busy {frac * 100:5.1f}%"
            elif d.get("elapsed"):
                elapsed = d["elapsed"]
                waited = d.get("waited", 0.0)
                frac = max(0.0, 1.0 - waited / elapsed) if elapsed else 0.0
                detail = (f"busy {frac * 100:5.1f}%  msgs {d.get('msgs', 0)}"
                          f"  words {d.get('words', 0)}")
            else:
                frac, detail = 0.0, "..."
            lines.append(f"  r{int(r):<4d} {_bar(frac)} {detail}"[:width])
        if len(ranks) > max_ranks:
            lines.append(f"  ... and {len(ranks) - max_ranks} more ranks")

    res = st.get("resources") or {}
    if res:
        lines.append("resources (rss / cpu / gc):")

        def _key(k):
            return (0, 0) if k == "host" else (1, int(k))

        for k in sorted(res, key=_key)[: max_ranks + 1]:
            d = res[k]
            label = "host" if k == "host" else f"r{int(k)}"
            lines.append(
                f"  {label:<5s} {_fmt_bytes(d.get('rss_bytes', 0.0)):>10s}"
                f" / {d.get('cpu_seconds', 0.0):7.2f}s"
                f" / {int(d.get('gc_collections', 0)):d}"[:width]
            )
    return "\n".join(lines)


# --- status files ------------------------------------------------------------


def default_status_dir(root: str | None = None) -> str:
    """Directory live runs publish status files into (``.repro_runs/live``)."""
    from .runs import default_store_dir

    return os.path.join(root or default_store_dir(), "live")


def publish_status(snapshot: dict, path: str) -> None:
    """Atomically write ``snapshot`` as JSON to ``path`` (tmp + rename)."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(snapshot, fh)
    os.replace(tmp, path)


def load_status(path: str) -> dict | None:
    """Read a published status snapshot; None when missing/corrupt."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None


def newest_status(status_dir: str) -> str | None:
    """Path of the most recently touched status file, if any."""
    try:
        names = [n for n in os.listdir(status_dir) if n.endswith(".json")]
    except OSError:
        return None
    paths = [os.path.join(status_dir, n) for n in names]
    paths = [p for p in paths if os.path.isfile(p)]
    return max(paths, key=os.path.getmtime) if paths else None


# --- display loop ------------------------------------------------------------


class LiveDisplay:
    """Background renderer: refreshes the dashboard in place on a TTY.

    Off-TTY (CI, piped output) it prints one plain snapshot per
    ``plain_every`` refresh intervals instead of emitting ANSI control
    sequences.  Each tick drains the run's :class:`LiveChannel` (when
    given) and publishes the snapshot to ``status_path`` (when given)
    for ``repro watch``.
    """

    def __init__(self, hub: TelemetryHub, stream=None, interval: float = 0.2,
                 channel: LiveChannel | None = None,
                 status_path: str | None = None, plain_every: int = 5):
        self.hub = hub
        self.stream = stream if stream is not None else sys.stderr
        self.interval = interval
        self.channel = channel
        self.status_path = status_path
        self.plain_every = max(1, plain_every)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._last_height = 0
        self._ticks = 0
        self._isatty = bool(getattr(self.stream, "isatty", lambda: False)())

    def _render_once(self, final: bool = False) -> None:
        if self.channel is not None:
            self.channel.drain(self.hub)
        snap = self.hub.snapshot()
        if self.status_path:
            try:
                publish_status(snap, self.status_path)
            except OSError:
                pass
        text = render_dashboard(snap)
        self._ticks += 1
        if self._isatty:
            if self._last_height:
                # move up over the previous frame and clear to end of screen
                self.stream.write(f"\x1b[{self._last_height}F\x1b[J")
            self.stream.write(text + "\n")
            self._last_height = text.count("\n") + 1
        elif final or self._ticks % self.plain_every == 1:
            self.stream.write(text + "\n---\n")
        self.stream.flush()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._render_once()

    def start(self) -> "LiveDisplay":
        self._render_once()
        self._thread = threading.Thread(
            target=self._loop, name="repro-live-display", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, status: str = "done") -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.hub.publish("status", status=status)
        self._render_once(final=True)
        if self.status_path:
            try:
                os.unlink(self.status_path)
            except OSError:
                pass

    def __enter__(self) -> "LiveDisplay":
        return self.start()

    def __exit__(self, exc_type, *exc) -> None:
        self.stop(status="done" if exc_type is None else "failed")
