"""Observability layer: tracing spans, latency histograms, progress, reports.

Layered on the storage engine's :class:`~repro.storage.metrics.MetricsRegistry`:

* :mod:`repro.obs.tracing` — bounded nested span trees with counter-delta
  capture and a JSON-lines exporter;
* :mod:`repro.obs.histogram` — log-bucketed latency histograms answering
  p50/p90/p99/max per operation kind;
* :mod:`repro.obs.progress` — throttled phase-aware stderr progress with
  rate and ETA for long builds;
* :mod:`repro.obs.report` — versioned ``BENCH_<experiment>.json`` bench
  reports plus schema validation and regression-flagging diffs;
* :mod:`repro.obs.windowed` — time-windowed histograms/counters rotated
  on an injectable clock (live percentiles that decay instead of
  averaging over the process lifetime);
* :mod:`repro.obs.flightrecorder` — the serving layer's one retention
  point for finished requests: recent / slowest / errored traces, the
  sampled access and slow-query JSONL trails, and debug bundles.
"""

from repro.obs.histogram import HistogramSet, LatencyHistogram
from repro.obs.progress import NULL_PROGRESS, NullProgress, ProgressReporter
from repro.obs.report import (
    SCHEMA_VERSION,
    BenchDiff,
    build_report,
    diff_reports,
    load_report,
    validate_report,
    write_report,
)
from repro.obs.tracing import Span, Tracer, activated, current_tracer, note, span
from repro.obs.windowed import (
    WindowedCounter,
    WindowedHistogram,
    WindowedHistogramSet,
)

__all__ = [
    "WindowedCounter",
    "WindowedHistogram",
    "WindowedHistogramSet",
    "HistogramSet",
    "LatencyHistogram",
    "NULL_PROGRESS",
    "NullProgress",
    "ProgressReporter",
    "SCHEMA_VERSION",
    "BenchDiff",
    "build_report",
    "diff_reports",
    "load_report",
    "validate_report",
    "write_report",
    "Span",
    "Tracer",
    "activated",
    "current_tracer",
    "note",
    "span",
]
