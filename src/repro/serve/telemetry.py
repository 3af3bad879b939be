"""Live serving telemetry: request lifecycle records -> windowed views.

The daemon measures every request as a :class:`RequestRecord` — request
id, op, outcome, per-phase timings and the session counter deltas the
request caused — and feeds it to one shared :class:`ServeTelemetry`,
which maintains:

* **windowed aggregates** (:mod:`repro.obs.windowed`): per-op and
  per-phase latency histograms plus per-outcome counters, all rotated on
  one injectable clock, so ``metrics`` reports p99 *over the last
  windows*, not over the process lifetime;
* **cumulative aggregates**: the same histograms' lifetime view (the two
  are conserved by construction — see ``WindowedHistogram``); an op's
  request count is its histogram's cumulative count;
* **the flight recorder** (:mod:`repro.obs.flightrecorder`): the one
  place the finished request itself is kept — the record as it is,
  recent / slowest / errored, rendered to trace documents when read —
  and the sampled access and slow-query JSONL trails on disk;
* **per-connection counters** for live connections (requests by outcome,
  attributable I/O via the connection's metrics session).

The request lifecycle and its phase spans::

    accept ──▶ decode ──▶ queue-wait ──▶ execute ──▶ encode ──▶ reply
          decode_s     queue_wait_s   execute_s    encode_s   reply_s

``accept`` is the boundary event (the frame's last byte arrived; its
wall-clock time is the record's ``unix`` stamp); each arrow is a
measured span and their sum is the server-side latency ``server_s`` —
which the daemon echoes in every reply, so a client can subtract it from
its own measurement and attribute the difference to the network.

:func:`render_prometheus` turns a snapshot into the Prometheus text
exposition format for scrape-style integration.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable

# PHASES, the measured phase spans in lifecycle order, is defined once
# in obs (the flight recorder renders them) and re-exported here.
from repro.obs.flightrecorder import PHASES, FlightRecorder  # noqa: F401
from repro.obs.tracing import span_records
from repro.obs.windowed import (
    DEFAULT_WINDOW_SECONDS,
    DEFAULT_WINDOWS,
    WindowedCounter,
    WindowedHistogramSet,
)

#: The request outcomes of the serving protocol, in reporting order.
OUTCOMES = (
    "ok",
    "backpressure",
    "bad_request",
    "server_error",
    "degraded",
    "timeout",
)

#: Session counters attributed per request (what the connection's
#: sessions charged its spans as it executed).  This is the complete set
#: of counters sessions accumulate, so summing the per-request deltas
#: over a connection's requests reproduces its session totals exactly —
#: the conservation identity the serve benchmark gates.
DELTA_COUNTERS = (
    "buffer_hits",
    "buffer_pinned_hits",
    "buffer_misses",
    "disk_seeks",
    "bytes_read",
    "loads",
    "intranode_loads",
    "superedge_loads",
    "degraded_reads",
)


@dataclass(slots=True)
class RequestRecord:
    """One measured request, as fed to :meth:`ServeTelemetry.record` —
    and as the flight recorder keeps it, its dict views built only when
    read.  Once recorded it is not written again."""

    rid: str
    client: str
    op: str
    outcome: str
    #: Wall-clock (unix) time of the accept boundary.
    unix: float
    #: Phase name -> seconds; missing phases did not happen (a shed
    #: request has no execute span).
    phases: dict[str, float] = field(default_factory=dict)
    #: Session counter growth caused by this request (its roots' counters).
    counters: dict[str, int] = field(default_factory=dict)
    error: str | None = None
    #: Trace id: the client's propagated id, else daemon-generated.
    trace: str = ""
    #: Client-side parent span id from the trace context (-1 = none).
    parent: int = -1
    #: The request tracer's root spans, one per execution (a memory-only
    #: attempt and the worker run after its miss are two).
    roots: list = field(default_factory=list)

    @property
    def server_s(self) -> float:
        """Server-side latency: the sum of the measured phase spans."""
        return sum(self.phases.values())

    def reply_view(self) -> dict:
        """The ``server`` section echoed to the client in the reply.

        Built *before* the encode/reply spans run (they are measured
        around the reply itself), so it carries the phases known at
        encode time; the full record — including encode/reply — goes to
        the logs and histograms.
        """
        return {
            "rid": self.rid,
            "trace": self.trace,
            "outcome": self.outcome,
            "phases_us": {
                name: round(seconds * 1e6)
                for name, seconds in sorted(self.phases.items())
            },
            "counters": dict(sorted(self.counters.items())),
        }

    def log_view(self) -> dict:
        """The request's fields, as a flight-recorder trail line has them."""
        view = self.reply_view()
        view.update(
            client=self.client, op=self.op, unix=self.unix, server_us=round(self.server_s * 1e6)
        )
        if self.error:
            view["error"] = self.error
        return view

    def trace_view(self) -> dict:
        """The complete trace document: :meth:`log_view` plus the
        trace-context link and the span records — the unit
        :func:`repro.obs.flightrecorder.render_waterfall` renders."""
        doc = self.log_view()
        doc["parent"] = self.parent
        doc["spans"] = span_records(self.roots)
        return doc


class ServeTelemetry:
    """Shared aggregation point for every request the daemon serves."""

    def __init__(
        self,
        window_seconds: float = DEFAULT_WINDOW_SECONDS,
        windows: int = DEFAULT_WINDOWS,
        clock: Callable[[], float] = time.monotonic,
        wall_clock: Callable[[], float] = time.time,
        recorder: FlightRecorder | None = None,
    ) -> None:
        self.clock = clock
        self.wall_clock = wall_clock
        self.started = clock()
        self.started_unix = wall_clock()
        #: Where every finished request is kept (and its access / slow
        #: trail lines written).
        self.recorder = recorder if recorder is not None else FlightRecorder()
        #: Per-op server latency (one histogram per op name) and
        #: per-phase spans (under ``phase:<name>``), windowed + cumulative.
        self.latency = WindowedHistogramSet(
            window_seconds=window_seconds, windows=windows, clock=clock
        )
        #: Per-outcome windowed counters (ok / backpressure / ...).
        self.outcomes = {
            outcome: WindowedCounter(
                window_seconds=window_seconds, windows=windows, clock=clock
            )
            for outcome in OUTCOMES
        }
        self._window_seconds = window_seconds
        self._windows = windows
        self._lock = threading.Lock()
        #: Live connections: label -> {"requests": n, "<outcome>": n, ...}.
        self._connections: dict[str, dict[str, int]] = {}

    # -- connection lifecycle ------------------------------------------------

    def connection_opened(self, client: str) -> None:
        """Register a live connection under its label."""
        with self._lock:
            self._connections[client] = {"requests": 0}

    def connection_closed(self, client: str) -> None:
        """Drop a connection's live entry (its requests stay aggregated)."""
        with self._lock:
            self._connections.pop(client, None)

    # -- recording -----------------------------------------------------------

    def record(self, record: RequestRecord) -> None:
        """Fold one finished request into every aggregate (one clock read
        for all) and keep it — a ``timeout``'s as a copy: its abandoned
        execution may still write phases, counters and roots to it."""
        if record.outcome not in self.outcomes:
            raise ValueError(f"unknown outcome {record.outcome!r}")
        now = self.clock()
        # The trace id rides along as the histogram bucket's exemplar, so
        # a p99 bucket in `repro top` names a concrete witness request.
        exemplar = record.trace or record.rid or None
        latency = self.latency
        latency.observe(record.op, record.server_s, exemplar, now)
        for phase, seconds in record.phases.items():
            latency.observe(f"phase:{phase}", seconds, exemplar, now)
        self.outcomes[record.outcome].add(1, now)
        with self._lock:
            connection = self._connections.get(record.client)
            if connection is not None:
                connection["requests"] = connection.get("requests", 0) + 1
                connection[record.outcome] = connection.get(record.outcome, 0) + 1
        if record.outcome == "timeout":
            record = replace(record, phases=dict(record.phases))
        self.recorder.record(record)

    # -- exposition ----------------------------------------------------------

    @property
    def uptime_seconds(self) -> float:
        """Seconds since this telemetry (the daemon) started."""
        return self.clock() - self.started

    def requests_total(self) -> int:
        """Requests recorded across every outcome (lifetime)."""
        return sum(counter.total for counter in self.outcomes.values())

    def snapshot(
        self, gauges: dict | None = None, storage: dict | None = None
    ) -> dict:
        """The ``metrics`` op's JSON document (windowed + cumulative).

        ``gauges`` carries the daemon's instantaneous values (in-flight,
        queue depth, connections) — they belong to the daemon, not the
        telemetry, and are merged in verbatim.  ``storage`` carries the
        storage-layer resilience counters (``io_retries``, injected
        ``fault_*`` tallies) summed over the shared stores, so transient
        I/O errors absorbed below the request layer stay visible.
        """
        per_op = {
            name: self.latency.get(name).to_dict()
            for name in self.latency.names()
        }
        with self._lock:
            connections = {
                client: dict(counts)
                for client, counts in sorted(self._connections.items())
            }
        recorder = self.recorder
        return {
            "uptime_seconds": self.uptime_seconds,
            "started_unix": self.started_unix,
            "window_seconds": self._window_seconds,
            "windows": self._windows,
            "outcomes": {
                outcome: counter.to_dict()
                for outcome, counter in self.outcomes.items()
            },
            "ops": per_op,
            "connections": connections,
            "gauges": dict(gauges or {}),
            "storage": dict(storage or {}),
            "access_log": {
                "offered": recorder.recorded,
                "logged": recorder.logged,
                "sample_every": recorder.sample_every,
            },
            "slow_queries": {
                "threshold_ms": recorder.slow_threshold_s * 1000.0,
                "observed": recorder.recorded,
                "slow": recorder.slow_seen,
                "top": recorder.slow_entries(),
            },
        }


def _fmt(value: float) -> str:
    """Prometheus sample value: repr keeps full float precision."""
    return repr(float(value))


def render_prometheus(snapshot: dict, prefix: str = "repro") -> str:
    """Prometheus text exposition of a :meth:`ServeTelemetry.snapshot`.

    Windowed percentiles render as summary-style quantile samples (the
    decaying view an alerting rule wants); lifetime counts render as
    counters; daemon gauges as gauges.
    """
    lines: list[str] = []

    def header(name: str, kind: str, help_text: str) -> None:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")

    header(f"{prefix}_uptime_seconds", "gauge", "Daemon uptime.")
    lines.append(
        f"{prefix}_uptime_seconds {_fmt(snapshot['uptime_seconds'])}"
    )

    header(
        f"{prefix}_requests_total",
        "counter",
        "Requests by outcome (lifetime).",
    )
    for outcome, counter in sorted(snapshot["outcomes"].items()):
        lines.append(
            f'{prefix}_requests_total{{outcome="{outcome}"}} '
            f"{_fmt(counter['total'])}"
        )

    header(
        f"{prefix}_request_rate",
        "gauge",
        "Requests per second by outcome (windowed).",
    )
    for outcome, counter in sorted(snapshot["outcomes"].items()):
        lines.append(
            f'{prefix}_request_rate{{outcome="{outcome}"}} '
            f"{_fmt(counter['per_second'])}"
        )

    header(
        f"{prefix}_request_seconds",
        "summary",
        "Server-side request latency by op (windowed quantiles, "
        "lifetime count/sum).",
    )
    for op, data in sorted(snapshot["ops"].items()):
        windowed = data["windowed"]
        cumulative = data["cumulative"]
        for quantile, key in (("0.5", "p50"), ("0.9", "p90"), ("0.99", "p99")):
            lines.append(
                f'{prefix}_request_seconds{{op="{op}",quantile="{quantile}"}} '
                f"{_fmt(windowed[key])}"
            )
        lines.append(
            f'{prefix}_request_seconds_count{{op="{op}"}} '
            f"{_fmt(cumulative['count'])}"
        )
        lines.append(
            f'{prefix}_request_seconds_sum{{op="{op}"}} '
            f"{_fmt(cumulative['sum'])}"
        )

    gauges = snapshot.get("gauges", {})
    if gauges:
        header(f"{prefix}_gauge", "gauge", "Daemon instantaneous values.")
        for name, value in sorted(gauges.items()):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            lines.append(f'{prefix}_gauge{{name="{name}"}} {_fmt(value)}')

    storage = snapshot.get("storage", {})
    if storage:
        header(
            f"{prefix}_storage_total",
            "counter",
            "Storage-layer resilience counters (retries, injected "
            "faults) over the shared stores (lifetime).",
        )
        for name, value in sorted(storage.items()):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            lines.append(
                f'{prefix}_storage_total{{counter="{name}"}} {_fmt(value)}'
            )

    slow = snapshot.get("slow_queries", {})
    if slow:
        header(
            f"{prefix}_slow_queries_total",
            "counter",
            "Requests at or above the slow-query threshold (lifetime).",
        )
        lines.append(f"{prefix}_slow_queries_total {_fmt(slow['slow'])}")

    return "\n".join(lines) + "\n"
