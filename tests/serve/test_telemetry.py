"""Unit tests for the serving telemetry aggregation layer."""

from __future__ import annotations

import pytest

from repro.obs.flightrecorder import FlightRecorder
from repro.obs.histogram import LatencyHistogram
from repro.serve.telemetry import (
    OUTCOMES,
    PHASES,
    RequestRecord,
    ServeTelemetry,
    render_prometheus,
)


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _record(
    rid: str = "r0",
    op: str = "query",
    outcome: str = "ok",
    phases: dict | None = None,
    **kwargs,
) -> RequestRecord:
    return RequestRecord(
        rid=rid,
        client="client-1",
        op=op,
        outcome=outcome,
        unix=1000.0,
        phases=phases if phases is not None else {"execute": 0.010},
        **kwargs,
    )


def _telemetry(clock: FakeClock, **kwargs) -> ServeTelemetry:
    return ServeTelemetry(
        window_seconds=10.0,
        windows=2,
        clock=clock,
        wall_clock=lambda: 1000.0,
        **kwargs,
    )


class TestRequestRecord:
    def test_server_latency_is_the_sum_of_phases(self):
        record = _record(
            phases={"decode": 0.001, "queue_wait": 0.002, "execute": 0.004}
        )
        assert record.server_s == pytest.approx(0.007)

    def test_reply_view_rounds_phases_to_microseconds(self):
        record = _record(phases={"decode": 0.0000015, "execute": 0.01})
        view = record.reply_view()
        assert view["rid"] == "r0"
        assert view["outcome"] == "ok"
        assert view["phases_us"] == {"decode": 2, "execute": 10000}

    def test_log_view_carries_error_only_when_set(self):
        assert "error" not in _record().log_view()
        failed = _record(outcome="server_error", error="boom").log_view()
        assert failed["error"] == "boom"
        assert failed["server_us"] == 10000
        assert failed["client"] == "client-1"


class TestServeTelemetry:
    def test_unknown_outcome_rejected(self):
        telemetry = _telemetry(FakeClock())
        with pytest.raises(ValueError):
            telemetry.record(_record(outcome="weird"))

    def test_outcome_and_op_accounting(self):
        telemetry = _telemetry(FakeClock())
        telemetry.record(_record(rid="r0", outcome="ok"))
        telemetry.record(_record(rid="r1", outcome="backpressure", phases={}))
        telemetry.record(_record(rid="r2", op="stats", outcome="ok"))
        assert telemetry.requests_total() == 3
        assert telemetry.outcomes["ok"].total == 2
        assert telemetry.outcomes["backpressure"].total == 1
        # An op's request count is its latency histogram's count.
        snapshot = telemetry.snapshot()
        assert snapshot["ops"]["query"]["cumulative"]["count"] == 2
        assert snapshot["ops"]["stats"]["cumulative"]["count"] == 1
        assert "requests" not in snapshot["ops"]["query"]

    def test_phase_histograms_recorded_per_phase(self):
        telemetry = _telemetry(FakeClock())
        telemetry.record(
            _record(phases={"decode": 0.001, "execute": 0.010})
        )
        assert "phase:decode" in telemetry.latency
        assert "phase:execute" in telemetry.latency
        assert telemetry.latency.get("phase:decode").cumulative.count == 1

    def test_connection_lifecycle(self):
        telemetry = _telemetry(FakeClock())
        telemetry.connection_opened("client-1")
        telemetry.record(_record())
        connections = telemetry.snapshot()["connections"]
        assert connections["client-1"]["requests"] == 1
        assert connections["client-1"]["ok"] == 1
        telemetry.connection_closed("client-1")
        assert telemetry.snapshot()["connections"] == {}
        # Requests stay aggregated after the connection is gone.
        assert telemetry.requests_total() == 1

    def test_windowed_decays_cumulative_does_not(self):
        clock = FakeClock()
        telemetry = _telemetry(clock)
        telemetry.record(_record())
        clock.advance(25.0)  # beyond the 2 x 10s horizon
        data = telemetry.snapshot()["ops"]["query"]
        assert data["windowed"]["count"] == 0
        assert data["cumulative"]["count"] == 1

    def test_windowed_merge_equals_cumulative_across_rotation(self):
        """Acceptance property: every window merged == cumulative."""
        clock = FakeClock()
        closed: list[LatencyHistogram] = []
        telemetry = _telemetry(clock)
        histogram = telemetry.latency.get("query")
        histogram.on_rotate = lambda _index, hist: closed.append(hist)
        for step in range(10):
            # Powers of two sum exactly whatever the addition order, so
            # the histogram equality below is genuinely bit-for-bit.
            telemetry.record(_record(phases={"execute": 2.0 ** -(step + 1)}))
            clock.advance(7.0)
        live = histogram.snapshot()  # closes stale buckets into ``closed``
        merged = LatencyHistogram(histogram.min_value, histogram.growth)
        for bucket in closed:
            merged.merge(bucket)
        merged.merge(live)
        assert merged.to_dict() == histogram.cumulative.to_dict()

    def test_logs_receive_every_record(self):
        telemetry = _telemetry(
            FakeClock(), recorder=FlightRecorder(slow_threshold_s=0.005)
        )
        telemetry.record(_record(rid="fast", phases={"execute": 0.001}))
        telemetry.record(_record(rid="slow", phases={"execute": 0.010}))
        recorder = telemetry.recorder
        assert [t["rid"] for t in recorder.recent_traces()] == ["fast", "slow"]
        assert [e["rid"] for e in recorder.slow_entries()] == ["slow"]
        snapshot = telemetry.snapshot()
        assert snapshot["access_log"] == {
            "offered": 2,
            "logged": 2,
            "sample_every": 1,
        }
        slow = snapshot["slow_queries"]
        assert (slow["threshold_ms"], slow["observed"], slow["slow"]) == (
            5.0,
            2,
            1,
        )
        assert slow["top"] == recorder.slow_entries()

    def test_uptime_and_snapshot_shape(self):
        clock = FakeClock(now=5.0)
        telemetry = _telemetry(clock)
        clock.advance(3.0)
        snapshot = telemetry.snapshot(gauges={"inflight": 2})
        assert snapshot["uptime_seconds"] == pytest.approx(3.0)
        assert snapshot["started_unix"] == 1000.0
        assert snapshot["window_seconds"] == 10.0
        assert snapshot["windows"] == 2
        assert set(snapshot["outcomes"]) == set(OUTCOMES)
        assert snapshot["gauges"] == {"inflight": 2}
        assert "access_log" in snapshot
        assert "slow_queries" in snapshot


class TestRenderPrometheus:
    def test_exposition_contains_expected_samples(self):
        clock = FakeClock()
        telemetry = _telemetry(clock)
        telemetry.record(_record())
        telemetry.record(_record(rid="r1", outcome="backpressure", phases={}))
        text = render_prometheus(telemetry.snapshot(gauges={"inflight": 1}))
        assert text.endswith("\n")
        assert '# TYPE repro_requests_total counter' in text
        assert 'repro_requests_total{outcome="ok"} 1.0' in text
        assert 'repro_requests_total{outcome="backpressure"} 1.0' in text
        assert '# TYPE repro_request_seconds summary' in text
        assert 'repro_request_seconds{op="query",quantile="0.5"}' in text
        # Both records carry op "query" (the shed one with zero phases).
        assert 'repro_request_seconds_count{op="query"} 2.0' in text
        assert 'repro_gauge{name="inflight"} 1.0' in text
        assert "repro_uptime_seconds" in text
        assert "repro_slow_queries_total" in text

    def test_non_numeric_gauges_are_skipped(self):
        telemetry = _telemetry(FakeClock())
        text = render_prometheus(
            telemetry.snapshot(gauges={"label": "text", "ok": True, "n": 3})
        )
        assert 'repro_gauge{name="n"} 3.0' in text
        assert "label" not in text
        assert 'name="ok"' not in text

    def test_phases_constant_matches_lifecycle_order(self):
        assert PHASES == ("decode", "queue_wait", "execute", "encode", "reply")
