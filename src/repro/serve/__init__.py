"""Concurrent query serving: daemon, wire protocol, load generator.

The serving subsystem turns the single-caller query stack into a
multi-client daemon: one shared S-Node store pair (one LRU buffer pool
per direction, pinned supernode graphs) serves any number of TCP clients, each
with its own metrics session, behind explicit admission control.

* :mod:`repro.serve.protocol` — length-prefixed JSON frames, canonical
  payload encoding, result digests;
* :mod:`repro.serve.daemon` — :class:`~repro.serve.daemon.ServeContext`
  (shared stores + indexes), :class:`~repro.serve.daemon.GraphQueryDaemon`
  (asyncio frontend, worker pool, backpressure) and
  :class:`~repro.serve.daemon.DaemonHandle` (own-thread lifecycle);
* :mod:`repro.serve.loadgen` — :class:`~repro.serve.loadgen.ServeClient`
  and :func:`~repro.serve.loadgen.run_load`, the Figure 11 mix driver
  behind ``repro loadgen`` and the ``serve`` benchmark;
* :mod:`repro.serve.retry` — :class:`~repro.serve.retry.RetryPolicy`,
  the seeded decorrelated-jitter backoff (with shared
  :class:`~repro.serve.retry.RetryBudget` and idempotency gating)
  every daemon client retries through;
* :mod:`repro.serve.telemetry` — per-request lifecycle records
  (:class:`~repro.serve.telemetry.RequestRecord`) aggregated by
  :class:`~repro.serve.telemetry.ServeTelemetry` into windowed
  histograms, outcome rates, access/slow-query logs and the
  ``metrics`` op's JSON + Prometheus expositions.
"""

from repro.serve.daemon import (
    DaemonHandle,
    GraphQueryDaemon,
    ServeContext,
)
from repro.serve.loadgen import LoadResult, ServeClient, run_load
from repro.serve.retry import RetryBudget, RetryPolicy
from repro.serve.telemetry import (
    RequestRecord,
    ServeTelemetry,
    render_prometheus,
)

__all__ = [
    "DaemonHandle",
    "GraphQueryDaemon",
    "LoadResult",
    "RequestRecord",
    "RetryBudget",
    "RetryPolicy",
    "ServeClient",
    "ServeContext",
    "ServeTelemetry",
    "render_prometheus",
    "run_load",
]
