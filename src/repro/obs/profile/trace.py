"""Bounded ring-buffer recording of raw storage-engine access events.

An :class:`AccessTracer` captures two event streams while active:

* **I/O events** — one per :meth:`CountedFile.read_at` call, recording
  ``(file, offset, length, seek)`` exactly as the device metered it, plus
  page-granular reads from :class:`PageDevice` and position resets from
  cold-cache protocols;
* **buffer events** — one per :meth:`BufferPool.get`, recording
  ``(pool, key, kind, hit, pinned)``, plus admissions (with their byte
  costs) and drops — precisely the input the Mattson stack-distance
  analysis (:mod:`repro.obs.profile.stackdist`) replays.

Both streams share one monotonic sequence counter so they can be
interleaved, and both are bounded ring buffers (oldest events dropped,
drop counts kept) so tracing an arbitrarily long workload uses flat
memory.

**Free when disabled.**  Storage code calls the module-level hook
functions (:func:`io_read`, :func:`buffer_access`, ...) unconditionally;
each hook's first statement checks the active-tracer stack and returns
immediately when it is empty, recording and allocating nothing.  The
tests assert that no tracer method runs during an untraced build.
Activation mirrors :mod:`repro.obs.tracing`: ``with activated(tracer):``
installs the tracer for the enclosed block.
"""

from __future__ import annotations

import contextvars
import json
from collections import deque
from contextlib import contextmanager
from typing import Iterator, NamedTuple

#: Default per-stream ring-buffer bound (events).
DEFAULT_EVENT_CAPACITY = 1 << 16


class IOEvent(NamedTuple):
    """One ``CountedFile.read_at`` call, as the device metered it."""

    seq: int
    file: str
    offset: int
    length: int
    seek: bool


class PageEvent(NamedTuple):
    """One ``PageDevice.read_page`` call (page granularity)."""

    seq: int
    file: str
    page: int


class ForgetEvent(NamedTuple):
    """A ``forget_position`` reset: the next read is an unknown-distance seek."""

    seq: int
    file: str


class BufferEvent(NamedTuple):
    """One buffer lookup — a ``BufferPool.get``, or one key of a
    ``replay`` — a hit or miss on ``key`` of ``kind``."""

    seq: int
    pool: int
    key: object
    kind: str | None
    hit: bool
    pinned: bool


class AdmitEvent(NamedTuple):
    """One buffer admission, carrying the entry's byte cost."""

    seq: int
    pool: int
    key: object
    kind: str | None
    cost: int


class DropEvent(NamedTuple):
    """An invalidation: one key, or the whole pool when ``key`` is None."""

    seq: int
    pool: int
    key: object


class AccessTracer:
    """Two bounded ring buffers of storage events with a shared sequence."""

    __slots__ = (
        "capacity",
        "_io",
        "_buffer",
        "dropped_io",
        "dropped_buffer",
        "_seq",
    )

    def __init__(self, capacity: int = DEFAULT_EVENT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError(f"event capacity must be > 0, got {capacity}")
        self.capacity = capacity
        self._io: deque = deque(maxlen=capacity)
        self._buffer: deque = deque(maxlen=capacity)
        self.dropped_io = 0
        self.dropped_buffer = 0
        self._seq = 0

    # -- recording ---------------------------------------------------------

    def _push_io(self, event) -> None:
        if len(self._io) == self.capacity:
            self.dropped_io += 1
        self._io.append(event)

    def _push_buffer(self, event) -> None:
        if len(self._buffer) == self.capacity:
            self.dropped_buffer += 1
        self._buffer.append(event)

    def record_io(self, file: str, offset: int, length: int, seek: bool) -> None:
        """Record one device read."""
        self._seq += 1
        self._push_io(IOEvent(self._seq, file, offset, length, seek))

    def record_page(self, file: str, page: int) -> None:
        """Record one page-granular read."""
        self._seq += 1
        self._push_io(PageEvent(self._seq, file, page))

    def record_forget(self, file: str) -> None:
        """Record a device position reset (cold-cache protocol)."""
        self._seq += 1
        self._push_io(ForgetEvent(self._seq, file))

    def record_buffer(
        self, pool: int, key, kind: str | None, hit: bool, pinned: bool
    ) -> None:
        """Record one buffer-pool lookup."""
        self._seq += 1
        self._push_buffer(BufferEvent(self._seq, pool, key, kind, hit, pinned))

    def record_admit(self, pool: int, key, kind: str | None, cost: int) -> None:
        """Record one buffer admission with its byte cost."""
        self._seq += 1
        self._push_buffer(AdmitEvent(self._seq, pool, key, kind, cost))

    def record_drop(self, pool: int, key=None) -> None:
        """Record an invalidation (``key`` None = the whole pool cleared)."""
        self._seq += 1
        self._push_buffer(DropEvent(self._seq, pool, key))

    # -- views -------------------------------------------------------------

    @property
    def seq(self) -> int:
        """Sequence number of the most recent event (0 when empty).

        Callers mark protocol boundaries (e.g. "warm-up ends here") by
        reading this between workload phases.
        """
        return self._seq

    def io_events(self) -> list:
        """Retained I/O-stream events, oldest first."""
        return list(self._io)

    def buffer_events(self) -> list:
        """Retained buffer-stream events, oldest first."""
        return list(self._buffer)

    def summary(self) -> dict[str, int]:
        """Event counts by type, plus drop counts."""
        counts: dict[str, int] = {
            "io_reads": 0,
            "page_reads": 0,
            "buffer_hits": 0,
            "buffer_misses": 0,
            "admits": 0,
            "drops": 0,
            "dropped_io": self.dropped_io,
            "dropped_buffer": self.dropped_buffer,
        }
        for event in self._io:
            if type(event) is IOEvent:
                counts["io_reads"] += 1
            elif type(event) is PageEvent:
                counts["page_reads"] += 1
        for event in self._buffer:
            if type(event) is BufferEvent:
                counts["buffer_hits" if event.hit else "buffer_misses"] += 1
            elif type(event) is AdmitEvent:
                counts["admits"] += 1
            elif type(event) is DropEvent:
                counts["drops"] += 1
        return counts

    # -- export ------------------------------------------------------------

    @staticmethod
    def _json_key(key):
        return list(key) if isinstance(key, tuple) else key

    def _records(self) -> Iterator[dict]:
        for event in self._io:
            if type(event) is IOEvent:
                yield {
                    "type": "io",
                    "seq": event.seq,
                    "file": event.file,
                    "offset": event.offset,
                    "length": event.length,
                    "seek": event.seek,
                }
            elif type(event) is PageEvent:
                yield {
                    "type": "page",
                    "seq": event.seq,
                    "file": event.file,
                    "page": event.page,
                }
            else:
                yield {"type": "forget", "seq": event.seq, "file": event.file}
        for event in self._buffer:
            if type(event) is BufferEvent:
                yield {
                    "type": "hit" if event.hit else "miss",
                    "seq": event.seq,
                    "pool": event.pool,
                    "key": self._json_key(event.key),
                    "kind": event.kind,
                    "pinned": event.pinned,
                }
            elif type(event) is AdmitEvent:
                yield {
                    "type": "admit",
                    "seq": event.seq,
                    "pool": event.pool,
                    "key": self._json_key(event.key),
                    "kind": event.kind,
                    "cost": event.cost,
                }
            else:
                yield {
                    "type": "drop",
                    "seq": event.seq,
                    "pool": event.pool,
                    "key": self._json_key(event.key),
                }

    def to_jsonl(self) -> str:
        """One JSON object per retained event (I/O stream, then buffer)."""
        return "\n".join(json.dumps(record, sort_keys=True) for record in self._records())

    def write_jsonl(self, path) -> None:
        """Write :meth:`to_jsonl` (plus trailing newline) to ``path``."""
        text = self.to_jsonl()
        with open(path, "w") as handle:
            if text:
                handle.write(text + "\n")


# -- module-level current profiler ------------------------------------------
#
# Like repro.obs.tracing, the active-profiler stack is a ContextVar:
# activation is confined to the current thread / async task, so a
# request-scoped access tracer on one daemon worker thread never records
# another thread's I/O.  An AccessTracer itself is not thread-safe; this
# confinement is what makes per-request tracing sound without locks.

_ACTIVE: contextvars.ContextVar[tuple[AccessTracer, ...]] = (
    contextvars.ContextVar("repro_active_profilers", default=())
)


def current_profiler() -> AccessTracer | None:
    """The access tracer activated innermost in this thread/task, or None."""
    stack = _ACTIVE.get()
    return stack[-1] if stack else None


@contextmanager
def activated(tracer: AccessTracer) -> Iterator[AccessTracer]:
    """Install ``tracer`` as the current profiler for the enclosed block."""
    token = _ACTIVE.set(_ACTIVE.get() + (tracer,))
    try:
        yield tracer
    finally:
        _ACTIVE.reset(token)


# -- storage-engine hooks ----------------------------------------------------
#
# Each hook's first statement is the emptiness check on the contextvar, so
# calling them with no profiler active does no work and allocates nothing.


def io_read(file, offset: int, length: int, seek: bool) -> None:
    """Hook: one ``CountedFile.read_at`` call."""
    stack = _ACTIVE.get()
    if not stack:
        return
    stack[-1].record_io(str(file), offset, length, seek)


def page_read(file, page: int) -> None:
    """Hook: one ``PageDevice.read_page`` call."""
    stack = _ACTIVE.get()
    if not stack:
        return
    stack[-1].record_page(str(file), page)


def position_forgotten(file) -> None:
    """Hook: a ``forget_position`` reset."""
    stack = _ACTIVE.get()
    if not stack:
        return
    stack[-1].record_forget(str(file))


def buffer_access(pool, key, kind: str | None, hit: bool, pinned: bool) -> None:
    """Hook: one ``BufferPool.get`` lookup."""
    stack = _ACTIVE.get()
    if not stack:
        return
    stack[-1].record_buffer(id(pool), key, kind, hit, pinned)


def buffer_admit(pool, key, kind: str | None, cost: int) -> None:
    """Hook: one buffer admission."""
    stack = _ACTIVE.get()
    if not stack:
        return
    stack[-1].record_admit(id(pool), key, kind, cost)


def buffer_drop(pool, key=None) -> None:
    """Hook: an invalidation (``key`` None = whole pool)."""
    stack = _ACTIVE.get()
    if not stack:
        return
    stack[-1].record_drop(id(pool), key)
