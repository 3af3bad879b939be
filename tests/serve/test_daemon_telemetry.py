"""End-to-end tests for the daemon's serving telemetry.

Request-id echo, per-request phase breakdowns, the ``metrics`` op,
deterministic backpressure accounting and the conservation properties
the observability layer promises.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.serve import protocol
from repro.serve.daemon import DaemonHandle, GraphQueryDaemon
from repro.serve.loadgen import ServeClient, run_load
from repro.serve.telemetry import PHASES


@pytest.fixture
def daemon(serve_context):
    """A running daemon on a free port (per test: telemetry starts clean)."""
    handle = DaemonHandle(
        GraphQueryDaemon(serve_context, port=0, workers=4, queue_limit=16)
    )
    with handle:
        yield handle


class TestRequestIds:
    def test_client_rid_is_echoed(self, daemon):
        with ServeClient("127.0.0.1", daemon.port) as client:
            reply = client.request("query", name="query1", rid="mine-42")
            assert reply["server"]["rid"] == "mine-42"

    def test_numeric_rid_is_echoed_as_string(self, daemon):
        with ServeClient("127.0.0.1", daemon.port) as client:
            reply = client.request("ping", rid=7)
            assert reply["server"]["rid"] == "7"

    def test_missing_rid_gets_a_generated_one(self, daemon):
        with ServeClient("127.0.0.1", daemon.port) as client:
            first = client.request("ping")["server"]["rid"]
            second = client.request("ping")["server"]["rid"]
        assert first.startswith("srv-")
        assert second.startswith("srv-")
        assert first != second

    def test_error_replies_carry_the_rid_too(self, daemon):
        with ServeClient("127.0.0.1", daemon.port) as client:
            reply = client.request("frobnicate", rid="bad-1")
            assert reply["ok"] is False
            assert reply["server"]["rid"] == "bad-1"
            assert reply["server"]["outcome"] == "bad_request"


class TestPhaseBreakdown:
    def test_query_reply_reports_lifecycle_phases(self, daemon):
        with ServeClient("127.0.0.1", daemon.port) as client:
            reply = client.request("query", name="query1", rid="r1")
        server = reply["server"]
        assert server["outcome"] == "ok"
        phases = server["phases_us"]
        # Encode/reply are measured around the reply write itself, so
        # the echoed view carries the phases known at encode time.
        for phase in ("decode", "queue_wait", "execute"):
            assert phase in phases
            assert phases[phase] >= 0
        assert set(phases) <= set(PHASES)

    def test_server_latency_bounded_by_client_latency(self, daemon):
        with ServeClient("127.0.0.1", daemon.port) as client:
            start = time.perf_counter()
            reply = client.request("query", name="query1")
            client_s = time.perf_counter() - start
        server_s = sum(reply["server"]["phases_us"].values()) / 1e6
        assert 0 <= server_s <= client_s

    def test_query_reply_attributes_session_counters(self, daemon):
        with ServeClient("127.0.0.1", daemon.port) as client:
            counters = client.request("query", name="query1")["server"][
                "counters"
            ]
        # The shared pool may already be warm (session-scoped context),
        # so the query may be all hits — but it always touches buffers.
        assert counters["buffer_hits"] + counters["buffer_misses"] > 0
        assert counters["bytes_read"] >= 0
        # Inline ops do no I/O and attribute nothing.
        with ServeClient("127.0.0.1", daemon.port) as client:
            assert client.request("ping")["server"]["counters"] == {}

    def test_full_record_lands_in_the_access_log(self, daemon):
        with ServeClient("127.0.0.1", daemon.port) as client:
            client.request("query", name="query1", rid="logged-1")
        # The record is folded in right after the reply bytes flush, so
        # the client can hold the reply a beat before the entry lands in
        # the flight recorder's recent ring.
        deadline = time.monotonic() + 10
        while True:
            entries = {
                entry["rid"]: entry
                for entry in daemon.daemon.telemetry.recorder.recent_traces()
            }
            if "logged-1" in entries or time.monotonic() > deadline:
                break
            time.sleep(0.01)
        entry = entries["logged-1"]
        assert entry["op"] == "query"
        assert entry["outcome"] == "ok"
        # The logged record includes the phases measured around the
        # reply write, which the echoed view cannot carry.
        assert "encode" in entry["phases_us"]
        assert "reply" in entry["phases_us"]
        # server_us rounds the seconds total; the per-phase values round
        # individually, so the two agree to within one µs per phase.
        assert abs(
            entry["server_us"] - sum(entry["phases_us"].values())
        ) <= len(entry["phases_us"])


class TestMetricsOp:
    def test_json_snapshot(self, daemon):
        with ServeClient("127.0.0.1", daemon.port) as client:
            client.request_ok("query", name="query1")
            snapshot = client.request_ok("metrics")
        assert snapshot["outcomes"]["ok"]["total"] >= 1
        assert snapshot["ops"]["query"]["cumulative"]["count"] == 1
        assert snapshot["uptime_seconds"] >= 0
        gauges = snapshot["gauges"]
        assert gauges["queue_limit"] == 16
        assert gauges["workers"] == 4
        assert "buffer_forward_capacity_bytes" in gauges
        # The metrics request itself is live in the connections view.
        (counts,) = snapshot["connections"].values()
        assert counts["requests"] >= 1

    def test_prometheus_text(self, daemon):
        with ServeClient("127.0.0.1", daemon.port) as client:
            client.request_ok("query", name="query1")
            text = client.request_ok("metrics", format="text")["text"]
        assert '# TYPE repro_requests_total counter' in text
        assert 'repro_request_seconds{op="query",quantile="0.99"}' in text
        assert 'repro_gauge{name="inflight"}' in text

    def test_unknown_format_is_bad_request(self, daemon):
        with ServeClient("127.0.0.1", daemon.port) as client:
            reply = client.request("metrics", format="xml")
            assert reply["ok"] is False
            assert reply["error"]["type"] == protocol.ERROR_BAD_REQUEST

    def test_stats_reports_uptime_and_pool_budget(self, daemon):
        with ServeClient("127.0.0.1", daemon.port) as client:
            stats = client.stats()
        assert stats["daemon"]["uptime_seconds"] >= 0
        assert stats["daemon"]["queue_depth"] == 0
        for direction in ("forward", "backward"):
            pool = stats["buffer"][direction]
            assert pool["capacity_bytes"] > 0
            assert 0 <= pool["pinned_bytes"] <= pool["capacity_bytes"]
            assert "used_bytes" in pool


class TestDeterministicBackpressure:
    def test_saturated_pool_sheds_with_full_accounting(self, serve_context):
        """Satellite: blocked worker pool -> typed sheds, no metric leak."""
        daemon = GraphQueryDaemon(
            serve_context, port=0, workers=1, queue_limit=1
        )
        blocked = threading.Event()
        release = threading.Event()

        def plug() -> None:
            blocked.set()
            release.wait(30)

        with DaemonHandle(daemon) as handle:
            try:
                # Occupy the only worker thread, then fill the only
                # admission slot with a query stuck behind it (one with a
                # deadline is never tried in memory on the loop).
                daemon._executor.submit(plug)
                assert blocked.wait(10)
                stuck = socket.create_connection(
                    ("127.0.0.1", handle.port), timeout=30
                )
                protocol.send_frame(
                    stuck, {"id": 0, "op": "query", "name": "query1",
                            "rid": "stuck-1", "deadline_ms": 60_000}
                )
                deadline = time.monotonic() + 10
                while daemon._inflight < 1:
                    assert time.monotonic() < deadline, "query never admitted"
                    time.sleep(0.01)

                with ServeClient("127.0.0.1", handle.port) as client:
                    reply = client.request("query", name="query1", rid="shed-1")
                    assert reply["ok"] is False
                    assert reply["error"]["type"] == protocol.ERROR_BACKPRESSURE
                    server = reply["server"]
                    assert server["rid"] == "shed-1"
                    assert server["outcome"] == "backpressure"
                    # A shed request never executes: no counters leak
                    # into the client's session or the shared totals.
                    assert server["counters"] == {}
                    stats = client.stats()
                    assert all(
                        value == 0
                        for direction in stats["client"].values()
                        for value in direction.values()
                    )
                    assert stats["daemon"]["backpressure_replies"] == 1

                release.set()
                reply = protocol.recv_frame(stuck)
                assert reply["ok"] is True
                assert reply["server"]["rid"] == "stuck-1"
                stuck.close()
            finally:
                release.set()
        telemetry = daemon.telemetry
        assert telemetry.outcomes["backpressure"].total == 1
        assert daemon.counters.requests_shed == 1
        # Shed + served + inline add up: nothing double- or un-counted.
        snapshot = telemetry.snapshot()
        op_total = sum(
            data["cumulative"]["count"]
            for name, data in snapshot["ops"].items()
            if not name.startswith("phase:")
        )
        assert op_total == telemetry.requests_total()


class TestConservationUnderLoad:
    def test_telemetry_accounts_for_every_frame(self, serve_context):
        """Acceptance: sum(per-op ok + shed + errors) == requests sent."""
        daemon = GraphQueryDaemon(
            serve_context, port=0, workers=2, queue_limit=2
        )
        with DaemonHandle(daemon) as handle:
            load = run_load(
                "127.0.0.1", handle.port, concurrency=4, requests_per_client=6
            )
        assert load.requests_ok == 24
        assert load.requests_failed == 0
        telemetry = daemon.telemetry
        snapshot = telemetry.snapshot()
        query_frames = (
            load.requests_ok + load.shed_retries + load.requests_failed
        )
        assert snapshot["ops"]["query"]["cumulative"]["count"] == query_frames
        assert telemetry.outcomes["backpressure"].total == load.shed_retries
        # One stats frame per client on top of the queries.
        assert telemetry.requests_total() == query_frames + 4
        # Windowed and cumulative views agree while everything is live.
        ok_windowed = snapshot["outcomes"]["ok"]["windowed"]
        assert ok_windowed == snapshot["outcomes"]["ok"]["total"]

    def test_loadgen_collects_server_side_latency(self, serve_context):
        daemon = GraphQueryDaemon(
            serve_context, port=0, workers=4, queue_limit=16
        )
        with DaemonHandle(daemon) as handle:
            load = run_load(
                "127.0.0.1", handle.port, concurrency=2, requests_per_client=4
            )
        assert load.server_latency_histogram().count == 8
        assert load.queue_wait_histogram().count == 8
        # Server-measured latency never exceeds the client measurement
        # (the difference is the network + event-loop turnaround).
        for client in load.clients:
            for client_s, server_s in zip(
                client.latencies_s, client.server_latencies_s
            ):
                assert 0 <= server_s <= client_s
        summary = load.summary()
        assert summary["requests_sent"] == 8
        assert summary["server_latency"]["latency_ms_p99"] >= 0
        assert summary["client_latency"]["latency_ms_p99"] > 0
