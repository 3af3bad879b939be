"""Time-windowed aggregation: decaying histograms, counters and rates.

The cumulative :class:`~repro.obs.histogram.LatencyHistogram` answers
"what was p99 over the whole run" — the right question for a batch
experiment, the wrong one for a live daemon, where a latency spike five
minutes ago must not dominate the percentiles an operator reads *now*.

A :class:`WindowedHistogram` keeps a ring of plain latency histograms,
one per fixed-width time window, rotated on an **injectable clock**:
``snapshot()`` merges the most recent ``windows`` buckets, so
percentiles decay with horizon ``windows * window_seconds`` instead of
averaging over the process lifetime.  A cumulative histogram is
maintained alongside, and the two are *conserved by construction*: every
observation lands in exactly one window bucket and in the cumulative
histogram, so the merge of all window buckets ever produced (closed ones
are handed to ``on_rotate``) equals the cumulative histogram bit for bit
— the property the tests drive with a fake clock.

A windowed histogram can also carry **exemplars**: ``record(value,
exemplar=...)`` remembers, per latency bucket, the id of the most recent
observation that landed there (typically a trace id).  Exemplars age out
with their window, so ``exemplars()`` answers "which *recent* request is
a concrete witness for this p99 bucket" — the link from a percentile an
operator reads in ``repro top`` to a flight-recorder trace.

:class:`WindowedCounter` is the scalar sibling (per-window event counts
-> rates over the live horizon), and :class:`WindowedHistogramSet` the
named-family convenience mirroring
:class:`~repro.obs.histogram.HistogramSet`.

Everything here is thread-safe (one lock per aggregate; windows rotate
under it), so daemon worker threads can record while the event loop
snapshots.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable

from repro.obs.histogram import DEFAULT_GROWTH, DEFAULT_MIN_VALUE, LatencyHistogram

#: Default window width (seconds): percentiles an operator reads refresh
#: on this granularity.
DEFAULT_WINDOW_SECONDS = 10.0
#: Default number of live windows retained (the decay horizon).
DEFAULT_WINDOWS = 6


class _Windows:
    """The ring of fixed-width clock windows a windowed aggregate keeps."""

    def __init__(self, window_seconds: float, windows: int, clock) -> None:
        if window_seconds <= 0:
            raise ValueError(f"window_seconds must be > 0, got {window_seconds}")
        if windows < 1:
            raise ValueError(f"windows must be >= 1, got {windows}")
        self.window_seconds = float(window_seconds)
        self.windows = windows
        self.clock = clock
        self._lock = threading.Lock()
        #: (window_index, window's aggregate), oldest first; at most ``windows``.
        self._ring: deque = deque()

    def _window_index(self, now: float) -> int:
        return int(now // self.window_seconds)


class WindowedHistogram(_Windows):
    """Ring of :class:`LatencyHistogram` buckets rotated on a clock.

    ``clock`` must be monotonic (``time.monotonic`` by default; tests
    inject a fake).  Window ``i`` covers clock times
    ``[i * window_seconds, (i+1) * window_seconds)``; observations are
    bucketed by the clock value at ``record()`` time.  At most
    ``windows`` buckets stay live; older ones are *closed* — passed to
    ``on_rotate(window_index, histogram)`` if given, then dropped.
    """

    def __init__(
        self,
        window_seconds: float = DEFAULT_WINDOW_SECONDS,
        windows: int = DEFAULT_WINDOWS,
        clock: Callable[[], float] = time.monotonic,
        min_value: float = DEFAULT_MIN_VALUE,
        growth: float = DEFAULT_GROWTH,
        on_rotate: Callable[[int, LatencyHistogram], None] | None = None,
    ) -> None:
        super().__init__(window_seconds, windows, clock)
        self.min_value = min_value
        self.growth = growth
        self.on_rotate = on_rotate
        #: Every observation ever recorded (never rotated away).
        self.cumulative = LatencyHistogram(min_value, growth)
        #: latency bucket -> (window_index, value, exemplar id); pruned
        #: with the windows, so an exemplar never outlives its window.
        self._exemplars: dict[int, tuple[int, float, str]] = {}

    def _advance(self, now: float) -> None:
        """Close every live bucket older than the decay horizon (locked)."""
        floor = self._window_index(now) - self.windows + 1
        while self._ring and self._ring[0][0] < floor:
            index, histogram = self._ring.popleft()
            if self.on_rotate is not None:
                self.on_rotate(index, histogram)
        if self._exemplars:
            stale = [
                bucket
                for bucket, (index, _value, _mark) in self._exemplars.items()
                if index < floor
            ]
            for bucket in stale:
                del self._exemplars[bucket]

    def record(self, value: float, exemplar: str | None = None, now=None) -> None:
        """Record one observation into the current window + cumulative.

        When ``exemplar`` is given (a trace/request id), it replaces the
        stored exemplar for the latency bucket ``value`` falls in —
        latest wins, so the exemplar is always a fresh witness.  ``now``
        is the clock as a caller filing several observations read it.
        """
        if now is None:
            now = self.clock()
        index = self._window_index(now)
        recorded = 0.0 if value < 0 else value
        bucket = self.cumulative.bucket_index(recorded)
        with self._lock:
            if not self._ring or self._ring[-1][0] != index:
                # The window moved: only now can a bucket or an exemplar
                # have fallen behind the horizon since the last record.
                self._advance(now)
                self._ring.append(
                    (index, LatencyHistogram(self.min_value, self.growth))
                )
            self._ring[-1][1].record(recorded, bucket)
            self.cumulative.record(recorded, bucket)
            if exemplar is not None:
                self._exemplars[bucket] = (index, value, exemplar)

    def exemplars(self) -> dict[int, dict]:
        """{latency bucket: {"value", "trace"}} over the live windows.

        Buckets are the cumulative histogram's bucket indices; each entry
        names the most recent exemplar-carrying observation that landed
        in that bucket within the decay horizon.
        """
        now = self.clock()
        with self._lock:
            self._advance(now)
            return {
                bucket: {"value": value, "trace": mark}
                for bucket, (_index, value, mark) in sorted(self._exemplars.items())
            }

    def snapshot(self) -> LatencyHistogram:
        """Merged histogram over the live windows (may be empty)."""
        now = self.clock()
        merged = LatencyHistogram(self.min_value, self.growth)
        with self._lock:
            self._advance(now)
            for _index, histogram in self._ring:
                merged.merge(histogram)
        return merged

    def to_dict(self) -> dict:
        """Serializable view: windowed summary + cumulative histogram."""
        snapshot = self.snapshot()
        out = {
            "window_seconds": self.window_seconds,
            "windows": self.windows,
            "windowed": snapshot.to_dict(),
            "cumulative": self.cumulative.to_dict(),
        }
        exemplars = self.exemplars()
        if exemplars:
            out["exemplars"] = {str(bucket): entry for bucket, entry in exemplars.items()}
        return out


class WindowedCounter(_Windows):
    """Per-window event counts with a decaying rate and cumulative total.

    ``add(n)`` charges the current window; ``rate()`` is the live-window
    sum divided by the horizon actually covered (so a counter alive for
    half a window does not report half the true rate).
    """

    def __init__(
        self,
        window_seconds: float = DEFAULT_WINDOW_SECONDS,
        windows: int = DEFAULT_WINDOWS,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        super().__init__(window_seconds, windows, clock)
        self.total = 0
        self._started = self.clock()

    def _advance(self, now: float) -> None:
        floor = self._window_index(now) - self.windows + 1
        while self._ring and self._ring[0][0] < floor:
            self._ring.popleft()

    def add(self, amount: int = 1, now=None) -> None:
        """Count ``amount`` events in the current window (and the total)."""
        if now is None:
            now = self.clock()
        index = self._window_index(now)
        with self._lock:
            self._advance(now)
            if self._ring and self._ring[-1][0] == index:
                self._ring[-1] = (index, self._ring[-1][1] + amount)
            else:
                self._ring.append((index, amount))
            self.total += amount

    def windowed_count(self) -> int:
        """Events counted in the live windows."""
        now = self.clock()
        with self._lock:
            self._advance(now)
            return sum(count for _index, count in self._ring)

    def rate(self) -> float:
        """Events per second over the live horizon (0 when no time passed)."""
        now = self.clock()
        horizon = min(self.windows * self.window_seconds, now - self._started)
        # Anything under one window rounds up: a counter 0.3s old reports
        # over a full window so early rates are not wildly inflated.
        horizon = max(horizon, self.window_seconds)
        return self.windowed_count() / horizon

    def to_dict(self) -> dict:
        """Serializable view: total, windowed count and rate."""
        return {
            "total": self.total,
            "windowed": self.windowed_count(),
            "per_second": self.rate(),
        }


class WindowedHistogramSet:
    """Named family of :class:`WindowedHistogram` (one per operation)."""

    def __init__(
        self,
        window_seconds: float = DEFAULT_WINDOW_SECONDS,
        windows: int = DEFAULT_WINDOWS,
        clock: Callable[[], float] = time.monotonic,
        min_value: float = DEFAULT_MIN_VALUE,
        growth: float = DEFAULT_GROWTH,
    ) -> None:
        self.window_seconds = window_seconds
        self.windows = windows
        self.clock = clock
        self.min_value = min_value
        self.growth = growth
        self._lock = threading.Lock()
        self._histograms: dict[str, WindowedHistogram] = {}

    def get(self, name: str) -> WindowedHistogram:
        """The windowed histogram for ``name`` (made, locked, on first use)."""
        histogram = self._histograms.get(name)
        if histogram is not None:
            return histogram
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = WindowedHistogram(
                    self.window_seconds,
                    self.windows,
                    self.clock,
                    self.min_value,
                    self.growth,
                )
                self._histograms[name] = histogram
            return histogram

    def observe(self, name: str, value: float, exemplar=None, now=None) -> None:
        """Record ``value`` under operation ``name`` (optional exemplar id)."""
        self.get(name).record(value, exemplar, now)

    def names(self) -> list[str]:
        """Recorded operation names, sorted."""
        with self._lock:
            return sorted(self._histograms)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._histograms

    def to_dict(self) -> dict[str, dict]:
        """{operation: windowed_histogram.to_dict()} for every operation."""
        with self._lock:
            items = sorted(self._histograms.items())
        return {name: histogram.to_dict() for name, histogram in items}
