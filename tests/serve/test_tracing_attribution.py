"""End-to-end request tracing: propagation, attribution, flight recorder.

These tests gate the tracing layer's central claims over a real daemon:

* trace context propagates client -> daemon -> reply -> flight recorder;
* per-request attributed I/O is *conserved* — the deltas echoed in every
  reply sum, bit-for-bit, to the session totals the daemon reports;
* the flight recorder retains complete traces the ``debug`` op serves;
* the telemetry's flight recorder is the one place a finished request
  is kept: ``debug``, bundles and ``metrics`` read one slow threshold and
  one slow top-K, and a retried trace id keeps every attempt;
* with no tracer active, span entry points are shared no-ops (tracing
  disabled costs no storage-layer work);
* a finished request is kept as its record and rendered when read, and
  what is kept is what the commit before that kept
  (:class:`TestWhatIsKept`, against ``trace_capture.json``).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import socket
import threading
import time
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.obs import flightrecorder, tracing
from repro.serve import protocol
from repro.serve.daemon import DaemonHandle, GraphQueryDaemon, ServeContext
from repro.serve.loadgen import DEFAULT_MIX, ServeClient, run_load
from repro.serve.telemetry import DELTA_COUNTERS, ServeTelemetry
from repro.snode.store import SNodeStore


def wait_for_trace(handle: DaemonHandle, trace_id: str) -> dict:
    """Poll the flight recorder for a trace id.

    Traces are filed *after* the reply is written, so a client can see
    its reply a moment before the recorder does.
    """
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        for trace in handle.daemon.telemetry.recorder.traces():
            if trace.get("trace") == trace_id:
                return trace
        time.sleep(0.01)
    raise AssertionError(f"trace {trace_id!r} never reached the recorder")


@pytest.fixture
def daemon(serve_context):
    """A running daemon with an eager flight recorder (every trace slow)."""
    handle = DaemonHandle(
        GraphQueryDaemon(
            serve_context,
            port=0,
            workers=4,
            queue_limit=16,
            telemetry=ServeTelemetry(
                recorder=flightrecorder.FlightRecorder(slow_threshold_s=0.0)
            ),
        )
    )
    with handle:
        yield handle


class TestTracePropagation:
    def test_client_trace_id_echoed_and_retained(self, daemon):
        with ServeClient("127.0.0.1", daemon.port) as client:
            reply = client.request(
                "query", name="query1", trace={"id": "mytrace", "parent": 7}
            )
        assert reply["server"]["trace"] == "mytrace"
        retained = wait_for_trace(daemon, "mytrace")
        assert retained["parent"] == 7
        assert retained["op"] == "query"

    def test_request_without_context_gets_server_trace_id(self, daemon):
        with ServeClient("127.0.0.1", daemon.port) as client:
            reply = client.request("query", name="query1")
        assert reply["server"]["trace"].startswith("srvtr-")

    def test_malformed_context_never_fails_the_request(self, daemon):
        with ServeClient("127.0.0.1", daemon.port) as client:
            for trace in ("plain-string", 7, ["x"], {"id": True}):
                reply = client.request("query", name="query1", trace=trace)
                assert reply["ok"] is True
                assert reply["server"]["trace"]  # server-assigned

    def test_unknown_context_fields_ignored(self, daemon):
        with ServeClient("127.0.0.1", daemon.port) as client:
            reply = client.request(
                "query",
                name="query1",
                trace={"id": "fwd", "baggage": {"k": "v"}, "version": 99},
            )
        assert reply["ok"] is True
        assert reply["server"]["trace"] == "fwd"

    def test_loadgen_verifies_echo_on_every_request(self, daemon):
        load = run_load("127.0.0.1", daemon.port, concurrency=3,
                        requests_per_client=4)
        assert load.requests_ok == 12
        assert load.traces_propagated() is True


class TestSpanTrees:
    def test_query_trace_carries_request_and_nav_spans(self, daemon):
        with ServeClient("127.0.0.1", daemon.port) as client:
            client.request_ok("query", name="query1", trace={"id": "spans1"})
        trace = wait_for_trace(daemon, "spans1")
        names = [span["name"] for span in trace["spans"]]
        assert "request.query" in names
        assert any(name.startswith("nav.") for name in names)
        root = next(s for s in trace["spans"] if s["name"] == "request.query")
        assert root["parent"] == tracing.ROOT_PARENT
        children = [
            s for s in trace["spans"] if s["parent"] == root["id"]
        ]
        assert children  # the nav spans hang off the request root

    def test_span_counters_sum_to_request_counters(self, daemon):
        # Spans attribute the same session deltas the record reports:
        # the root span's counters are the whole request's I/O.
        with ServeClient("127.0.0.1", daemon.port) as client:
            client.request_ok("query", name="query3", trace={"id": "sums"})
            server = client.request(
                "query", name="query4", trace={"id": "sums2"}
            )["server"]
        trace = wait_for_trace(daemon, "sums2")
        root = next(
            s for s in trace["spans"] if s["name"] == "request.query"
        )
        for counter, value in server["counters"].items():
            if value:
                assert root["counters"].get(counter, 0) == value


class TestAttributionConservation:
    def test_per_request_deltas_sum_to_session_totals(self, daemon):
        load = run_load("127.0.0.1", daemon.port, concurrency=4,
                        requests_per_client=6)
        assert load.requests_ok == 24
        assert not load.requests_failed
        attributed = load.attributed_totals()
        session_sums: dict[str, int] = {}
        for client in load.clients:
            for direction in client.io_stats.values():
                for name in DELTA_COUNTERS:
                    session_sums[name] = (
                        session_sums.get(name, 0) + int(direction.get(name, 0))
                    )
        for name in DELTA_COUNTERS:
            assert attributed.get(name, 0) == session_sums[name]
        # The run must have attributed real work, or the identity above
        # is vacuous.
        assert attributed.get("buffer_hits", 0) > 0

    def test_attribution_split_by_query_name(self, daemon):
        load = run_load("127.0.0.1", daemon.port, concurrency=2,
                        requests_per_client=6)
        attribution = load.attribution()
        assert set(attribution) == set(DEFAULT_MIX)
        for counters in attribution.values():
            assert set(counters) == set(DELTA_COUNTERS)


class TestFlightRecorderIntegration:
    def test_debug_op_serves_retained_traces(self, daemon):
        with ServeClient("127.0.0.1", daemon.port) as client:
            client.request_ok("query", name="query1", trace={"id": "dbg1"})
            wait_for_trace(daemon, "dbg1")
            debug = client.debug()
        assert debug["flight"]["recorded"] >= 1
        assert "dbg1" in {t["trace"] for t in debug["traces"]}
        assert debug["config"]["workers"] == 4
        assert "uptime_seconds" in debug["stats"]

    def test_every_send_path_records_a_trace(self, daemon):
        # Error replies are traces too: the error ring retains them.
        with ServeClient("127.0.0.1", daemon.port) as client:
            reply = client.request("query", name="query99")
            assert reply["ok"] is False
        trace_id = reply["server"]["trace"]
        assert trace_id  # never an empty trace id
        wait_for_trace(daemon, trace_id)
        errors = daemon.daemon.telemetry.recorder.error_traces()
        assert errors[-1]["outcome"] == "bad_request"

    def test_dump_debug_bundle_round_trips(self, daemon, tmp_path):
        with ServeClient("127.0.0.1", daemon.port) as client:
            client.request_ok("query", name="query2", trace={"id": "bdl"})
        wait_for_trace(daemon, "bdl")
        path = daemon.daemon.dump_debug_bundle(tmp_path / "bundle")
        bundle = flightrecorder.read_debug_bundle(path)
        assert "bdl" in {t["trace"] for t in bundle["traces"]}
        assert bundle["config"]["queue_limit"] == 16

    def test_debug_slow_entries_are_the_retained_slow_traces(self, daemon):
        # One slow top-K: the log lines debug (and bundles, and metrics)
        # serve are the traces the recorder retains, in the same order —
        # past the point where the heap has started evicting.
        with ServeClient("127.0.0.1", daemon.port) as client:
            for i in range(40):
                client.request_ok("ping", trace={"id": f"p{i}"})
            client.request_ok("query", name="query3", trace={"id": "q3"})
            debug = client.debug()
        retained = debug["flight"]["retained"]["slow"]
        assert len(retained) == daemon.daemon.telemetry.recorder.slow_top
        assert [entry["trace"] for entry in debug["slow"]] == retained
        assert debug["stats"]["slow_queries"]["top"] == debug["slow"]
        # Log lines, not traces: no span tree, no parent link.
        assert not any("spans" in entry for entry in debug["slow"])

    def test_default_daemon_has_one_slow_threshold(self, serve_context):
        with DaemonHandle(GraphQueryDaemon(serve_context, port=0)) as handle:
            with ServeClient("127.0.0.1", handle.port) as client:
                metrics = client.request_ok("metrics")
                debug = client.debug()
        threshold_ms = metrics["slow_queries"]["threshold_ms"]
        assert threshold_ms == debug["config"]["flight"]["slow_threshold_ms"]
        assert threshold_ms == debug["flight"]["slow_threshold_ms"] == 100.0

    def test_shed_attempt_and_its_served_retry_are_both_kept(
        self, serve_context
    ):
        """A retried trace id keeps both documents, each exactly once."""
        daemon = GraphQueryDaemon(
            serve_context,
            port=0,
            workers=1,
            queue_limit=1,
            # Every document is slow, so the shed one is filed as slow
            # *and* error and must still be dumped once.
            telemetry=ServeTelemetry(
                recorder=flightrecorder.FlightRecorder(slow_threshold_s=0.0)
            ),
        )
        blocked = threading.Event()
        release = threading.Event()

        def plug() -> None:
            blocked.set()
            release.wait(30)

        with DaemonHandle(daemon) as handle:
            try:
                # Occupy the only worker, then the only admission slot
                # with a query stuck behind it (a deadline keeps it off
                # the loop).
                daemon._executor.submit(plug)
                assert blocked.wait(10)
                stuck = socket.create_connection(
                    ("127.0.0.1", handle.port), timeout=30
                )
                protocol.send_frame(
                    stuck, {"id": 0, "op": "query", "name": "query1",
                            "deadline_ms": 60_000}
                )
                deadline = time.monotonic() + 10
                while daemon._inflight < 1:
                    assert time.monotonic() < deadline, "query never admitted"
                    time.sleep(0.01)
                with ServeClient("127.0.0.1", handle.port) as client:
                    context = {"id": "retry-1"}
                    shed = client.request("query", name="query2", trace=context)
                    assert shed["error"]["type"] == protocol.ERROR_BACKPRESSURE
                    release.set()
                    assert protocol.recv_frame(stuck)["ok"] is True
                    stuck.close()
                    served = client.request("query", name="query2", trace=context)
                    assert served["ok"] is True
                    debug = client.debug()
            finally:
                release.set()
        attempts = [t for t in debug["traces"] if t["trace"] == "retry-1"]
        assert [t["outcome"] for t in attempts] == ["backpressure", "ok"]
        assert attempts[0]["spans"] == []
        assert any(s["name"] == "request.query" for s in attempts[1]["spans"])


class TestDisabledTracingCost:
    def test_span_entry_points_are_noops_without_tracer(self):
        assert tracing.current_tracer() is None
        # The no-tracer path returns the shared singleton — no per-call
        # allocation, no tracer work.
        assert tracing.span("anything") is tracing.span("other")
        tracing.note("event")  # must not raise
        tracing.absorb_summary({"spans": []})  # must not raise

    def test_request_tracers_never_leak_across_requests(self, daemon):
        with ServeClient("127.0.0.1", daemon.port) as client:
            client.request_ok("query", name="query1", trace={"id": "one"})
            client.request_ok("query", name="query1", trace={"id": "two"})
        traces = {
            trace_id: wait_for_trace(daemon, trace_id)
            for trace_id in ("one", "two")
        }
        # Each request's span tree is its own: same shape, ids restart
        # from 0 — nothing accumulated from the previous request.
        assert len(traces["one"]["spans"]) == len(traces["two"]["spans"])
        assert traces["one"]["spans"][0]["id"] == 0
        assert traces["two"]["spans"][0]["id"] == 0
        # And nothing leaked into this (main) thread's context.
        assert tracing.current_tracer() is None


# -- what the flight recorder keeps ---------------------------------------------

#: The seeded stream's retained traces, trail lines and ``repro trace
#: --list`` lines as the commit before records were kept as objects
#: (rendered when read) produced them, timings cut (:func:`untimed`).
CAPTURE = Path(__file__).with_name("trace_capture.json")
STREAM_SEED = 26
STREAM_LENGTH = 30


def seeded_stream(num_pages: int) -> list[dict]:
    """Lookups (cold, warm and bad), the six queries with and without
    a deadline, pings, an unknown op, some with a client trace context."""
    rng = random.Random(STREAM_SEED)
    stream = []
    for n in range(STREAM_LENGTH):
        draw = rng.random()
        if draw < 0.4:
            request = {"op": "neighbors", "page": rng.randrange(num_pages)}
        elif draw < 0.75:
            request = {"op": "query", "name": f"query{rng.randint(1, 6)}"}
            if rng.random() < 0.3:
                request["deadline_ms"] = 60_000
        elif draw < 0.85:
            request = {"op": "ping"}
        elif draw < 0.93:
            request = {"op": "neighbors", "page": num_pages + n}
        else:
            request = {"op": "frobnicate"}
        if rng.random() < 0.3:
            request["trace"] = {"id": f"client-{n}", "parent": rng.randrange(10)}
        request["rid"] = f"s{n}"
        stream.append(request)
    return stream


_TIMED = ("unix", "server_us")
_SPAN_TIMED = ("start_s", "duration_s")


def untimed(document: dict) -> dict:
    """A trace document or trail line without its timings: phase names
    stay, their microseconds go; spans keep everything but times."""
    out = {key: value for key, value in document.items() if key not in _TIMED}
    out["phases_us"] = sorted(document["phases_us"])
    if "spans" in document:
        out["spans"] = [
            {key: value for key, value in span.items() if key not in _SPAN_TIMED}
            for span in document["spans"]
        ]
    return out


def wait_for_recorded(recorder, count: int) -> None:
    deadline = time.monotonic() + 10.0
    while recorder.recorded < count:
        assert time.monotonic() < deadline, "requests never reached the recorder"
        time.sleep(0.005)


def capture_retained(repository, refinement, workdir: Path) -> dict:
    """Serve :func:`seeded_stream` from a fresh pair, then read back every
    place the flight recorder keeps it, timings cut."""
    context = ServeContext.build(
        repository, workdir / "pair", buffer_bytes=128 * 1024, refinement=refinement
    )
    recorder = flightrecorder.FlightRecorder(
        slow_threshold_s=0.0,
        slow_top=STREAM_LENGTH + 2,
        sample_every=1,
        access_log=workdir / "access.jsonl",
        slow_log=workdir / "slow.jsonl",
    )
    daemon = GraphQueryDaemon(
        context, port=0, workers=2, queue_limit=8, telemetry=ServeTelemetry(recorder=recorder)
    )
    try:
        with DaemonHandle(daemon) as handle:
            with ServeClient("127.0.0.1", handle.port) as client:
                for request in seeded_stream(repository.num_pages):
                    fields = dict(request)
                    client.request(fields.pop("op"), **fields)
                wait_for_recorded(recorder, STREAM_LENGTH)
                debug = client.debug()
            wait_for_recorded(recorder, STREAM_LENGTH + 1)
            bundle = daemon.dump_debug_bundle(workdir / "bundle")
        recorder.close()
    finally:
        context.close()
    listing = io.StringIO()
    with contextlib.redirect_stdout(listing):
        assert cli_main(["trace", "--bundle", str(bundle), "--list"]) == 0
    saved = flightrecorder.read_debug_bundle(bundle)

    def trail(name: str) -> list[dict]:
        lines = (workdir / name).read_text().splitlines()
        return [untimed(json.loads(line)) for line in lines]

    return {
        "debug_traces": [untimed(trace) for trace in debug["traces"]],
        "bundle_traces": [untimed(trace) for trace in saved["traces"]],
        # Slowest first: the order is the timings', so compare the set.
        "bundle_slow": sorted(
            (untimed(entry) for entry in saved["slow"]), key=lambda entry: entry["rid"]
        ),
        "access_trail": trail("access.jsonl"),
        "slow_trail": trail("slow.jsonl"),
        "trace_list": [
            re.sub(r"server=[0-9.]+ms", "server=-ms", line)
            for line in listing.getvalue().splitlines()
        ],
    }


class TestWhatIsKept:
    def test_retained_traces_are_the_parents(
        self, tiny_repo, test_refinement_config, tmp_path
    ):
        captured = capture_retained(tiny_repo, test_refinement_config, tmp_path)
        expected = json.loads(CAPTURE.read_text())
        assert set(captured) == set(expected)
        for place in expected:
            assert captured[place] == expected[place], place
        # Not vacuous: attempts, retries, nav spans and counters are in it.
        spans = [s for t in expected["debug_traces"] for s in t["spans"]]
        assert any(s["status"] == "error:NotResident" for s in spans)
        assert any(s["name"].startswith("nav.") and s.get("counters") for s in spans)
        assert {t["outcome"] for t in expected["debug_traces"]} >= {"ok", "bad_request"}

    def test_slow_record_renders_its_own_request_after_300_more(
        self, serve_context, monkeypatch
    ):
        """A record retained in the slow heap is rendered long after it was
        filed — the connection, its sessions and its tracer's successors
        have moved on 300 requests — and still reads as its own request.

        The query's first grouped read (lookups read one page) is held
        50 ms, so it is the slowest request by construction: a cold query3
        over a store that has learned its graphs takes a few milliseconds,
        no more than one lookup that a collector pause lands in."""
        real = SNodeStore.out_neighbors_many
        held = threading.Event()

        def first_read_held(store, pages, registry=None, memory_only=False):
            if not held.is_set():
                held.set()
                time.sleep(0.05)
            return real(store, pages, registry, memory_only)

        monkeypatch.setattr(SNodeStore, "out_neighbors_many", first_read_held)
        recorder = flightrecorder.FlightRecorder(slow_threshold_s=0.0, slow_top=1)
        daemon = GraphQueryDaemon(
            serve_context, port=0, workers=2, telemetry=ServeTelemetry(recorder=recorder)
        )
        serve_context.forward.drop_caches()
        serve_context.backward.drop_caches()
        with DaemonHandle(daemon) as handle:
            with ServeClient("127.0.0.1", handle.port) as client:
                slow = client.request(
                    "query", name="query3", deadline_ms=60_000, trace={"id": "kept"}
                )["server"]
                for _ in range(300):
                    client.request("neighbors", page=0)
                wait_for_recorded(recorder, 301)
                debug = client.debug()
        (entry,) = debug["slow"]
        assert entry["trace"] == "kept", "the cold query3 was not the slowest request"
        kept = next(trace for trace in debug["traces"] if trace["trace"] == "kept")
        assert kept["counters"] == slow["counters"] and slow["counters"]["loads"] > 0
        for phase, us in slow["phases_us"].items():
            assert kept["phases_us"][phase] == us
        root = next(span for span in kept["spans"] if span["name"] == "request.query")
        for name, value in slow["counters"].items():
            assert root["counters"].get(name, 0) == value

    def test_a_timed_out_record_keeps_what_its_reply_said(self, serve_context, monkeypatch):
        """The one execution that outlives its reply: a deadline fires while
        the worker is parked, and the worker then finishes, counting its
        reads into the live record.  What is kept is what the reply said."""
        real = SNodeStore.out_neighbors
        parked, release = threading.Event(), threading.Event()

        def parked_read(store, page, registry=None, memory_only=False):
            if not memory_only:
                parked.set()
                assert release.wait(30)
            return real(store, page, registry, memory_only)

        monkeypatch.setattr(SNodeStore, "out_neighbors", parked_read)
        recorder = flightrecorder.FlightRecorder()
        daemon = GraphQueryDaemon(
            serve_context, port=0, workers=2, telemetry=ServeTelemetry(recorder=recorder)
        )
        graph = serve_context.repository.graph
        page = next(p for p in range(graph.num_vertices) if graph.successors_list(p))
        serve_context.forward.drop_caches()
        with DaemonHandle(daemon) as handle:
            with ServeClient("127.0.0.1", handle.port) as client:
                try:
                    reply = client.request("neighbors", page=page, deadline_ms=250, rid="late")
                    assert reply["error"]["type"] == protocol.ERROR_TIMEOUT
                    assert parked.wait(10)
                finally:
                    release.set()
                # The connection's next frame waits for the abandoned worker.
                client.request_ok("ping")
                wait_for_recorded(recorder, 2)
                debug = client.debug()
        kept = next(trace for trace in debug["traces"] if trace["rid"] == "late")
        said = reply["server"]
        assert kept["counters"] == said["counters"]
        assert sorted(kept["phases_us"]) == sorted([*said["phases_us"], "encode", "reply"])
        assert "execute" not in kept["phases_us"]
        roots = [span for span in kept["spans"] if span["parent"] == tracing.ROOT_PARENT]
        assert [root["status"] for root in roots] == ["error:NotResident"]
