"""Tests for the flight recorder, its trails, debug bundles and rendering.

The recorder is the one place a finished request is kept (recent /
slow / error classes in memory, the sampled access and slow JSONL
trails on disk).  Seeded mutations of ``obs/flightrecorder.py``, each
failing the test named:

* sampling off by one (``seq % sample_every == 1``, or counting ``seq``
  after the increment) — ``TestAccessTrail::
  test_sampling_is_deterministic_one_in_n``;
* a trail line carrying ``spans`` (``_append`` writing ``trace_view()``) —
  ``TestTrailLines::test_trail_line_is_the_parents_log_view``;
* the slow heap evicting the slowest (``<`` for ``>`` against the heap
  root) — ``TestSlowTrail::test_top_k_keeps_the_slowest``;
* ``traces()`` deduplicating by trace id again —
  ``TestFlightRecorder::test_a_retry_under_one_trace_id_keeps_both_attempts``.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.flightrecorder import (
    BUNDLE_MANIFEST,
    BUNDLE_SCHEMA,
    BUNDLE_TRACES,
    FlightRecorder,
    TRACE_SCHEMA,
    fold_traces,
    load_traces,
    read_debug_bundle,
    render_waterfall,
    write_debug_bundle,
)
from repro.obs.tracing import Span
from repro.serve.telemetry import RequestRecord


def make_trace(
    trace_id: str,
    server_us: int = 1000,
    outcome: str = "ok",
    op: str = "query",
    spans: list | None = None,
) -> dict:
    """A minimal trace document of the shape the daemon records."""
    return {
        "trace": trace_id,
        "rid": f"rid-{trace_id}",
        "client": "client-0",
        "op": op,
        "outcome": outcome,
        "unix": 0.0,
        "server_us": server_us,
        "phases_us": {"decode": 10, "execute": server_us - 10},
        "counters": {"disk_seeks": 2, "bytes_read": 100},
        "parent": -1,
        "spans": spans or [],
    }


def span_tree(records: list[dict]) -> list[Span]:
    """The root :class:`Span` objects whose span records are ``records``."""
    nodes: dict[int, Span] = {}
    roots: list[Span] = []
    for record in records:
        node = Span(
            record["name"],
            record.get("attrs", {}),
            record["start_s"],
            record["id"],
            record["parent"],
        )
        node.duration_s = record["duration_s"]
        node.status = record["status"]
        node.counters = dict(record.get("counters", {}))
        node.notes = dict(record.get("notes", {}))
        nodes[node.span_id] = node
        siblings = roots if node.parent_id == -1 else nodes[node.parent_id].children
        siblings.append(node)
    return roots


def make_record(
    trace_id: str,
    server_us: int = 1000,
    outcome: str = "ok",
    op: str = "query",
    spans: list | None = None,
) -> RequestRecord:
    """The request whose trace document is ``make_trace(...)``."""
    return RequestRecord(
        rid=f"rid-{trace_id}",
        client="client-0",
        op=op,
        outcome=outcome,
        unix=0.0,
        phases={"decode": 10e-6, "execute": (server_us - 10) * 1e-6},
        counters={"disk_seeks": 2, "bytes_read": 100},
        trace=trace_id,
        roots=span_tree(spans or []),
    )


def test_a_record_reads_as_its_trace_document():
    assert make_record("t1", spans=SPANS).trace_view() == make_trace("t1", spans=SPANS)


def read_trail(path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestFlightRecorder:
    def test_recent_ring_is_bounded_keeps_newest(self):
        recorder = FlightRecorder(recent=3, slow_threshold_s=10.0)
        for i in range(5):
            recorder.record(make_record(f"t{i}"))
        ids = [t["trace"] for t in recorder.recent_traces()]
        assert ids == ["t2", "t3", "t4"]
        assert recorder.recorded == 5

    def test_slow_top_k_keeps_the_k_slowest(self):
        recorder = FlightRecorder(
            recent=2, slow_threshold_s=0.001, slow_top=2
        )
        for i, us in enumerate((5000, 1500, 9000, 2500)):
            recorder.record(make_record(f"t{i}", server_us=us))
        ids = [t["trace"] for t in recorder.slow_traces()]
        assert ids == ["t2", "t0"]  # slowest first
        assert recorder.slow_seen == 4

    def test_fast_requests_never_enter_the_slow_heap(self):
        recorder = FlightRecorder(slow_threshold_s=0.050)
        recorder.record(make_record("fast", server_us=100))
        assert recorder.slow_traces() == []
        assert recorder.slow_seen == 0

    def test_error_ring_captures_non_ok_outcomes(self):
        recorder = FlightRecorder(errors=2, slow_threshold_s=10.0)
        recorder.record(make_record("ok1"))
        for i in range(3):
            recorder.record(make_record(f"e{i}", outcome="bad_request"))
        ids = [t["trace"] for t in recorder.error_traces()]
        assert ids == ["e1", "e2"]

    def test_traces_dedups_across_retention_classes(self):
        # A slow error trace sits in all three structures but must dump
        # once; a slow trace aged out of the recent ring must survive.
        recorder = FlightRecorder(
            recent=1, slow_threshold_s=0.001, slow_top=4
        )
        recorder.record(
            make_record("both", server_us=9000, outcome="server_error")
        )
        recorder.record(make_record("newer", server_us=20))
        ids = [t["trace"] for t in recorder.traces()]
        assert sorted(ids) == ["both", "newer"]

    def test_a_retry_under_one_trace_id_keeps_both_attempts(self):
        # A client keeps its trace id across backpressure retries: the
        # shed attempt and the served one are two documents, and the
        # served one (with its span tree) must not be dropped.
        recorder = FlightRecorder(slow_threshold_s=10.0)
        recorder.record(make_record("lgt0-0", outcome="backpressure"))
        recorder.record(make_record("lgt0-0", spans=SPANS[:1]))
        assert [
            (t["outcome"], len(t["spans"])) for t in recorder.traces()
        ] == [("backpressure", 0), ("ok", 1)]

    def test_snapshot_reports_counts_and_retained_ids(self):
        recorder = FlightRecorder(slow_threshold_s=0.001)
        recorder.record(make_record("a", server_us=5000))
        recorder.record(make_record("b", server_us=10, outcome="bad_request"))
        snapshot = recorder.snapshot()
        assert snapshot["recorded"] == 2
        assert snapshot["slow_seen"] == 1
        assert snapshot["retained"]["recent"] == ["a", "b"]
        assert snapshot["retained"]["slow"] == ["a"]
        assert snapshot["retained"]["errors"] == ["b"]

    def test_invalid_configuration_rejected(self):
        for kwargs in (
            {"recent": 0},
            {"slow_top": 0},
            {"errors": 0},
            {"slow_threshold_s": -1.0},
        ):
            with pytest.raises(ValueError):
                FlightRecorder(**kwargs)

    def test_close_is_idempotent_and_keeps_what_is_retained(self, tmp_path):
        recorder = FlightRecorder(
            slow_threshold_s=0.0,
            access_log=tmp_path / "access.jsonl",
            slow_log=tmp_path / "slow.jsonl",
        )
        recorder.record(make_record("t0"))
        recorder.close()
        recorder.close()
        # Recording after close still retains in memory; no trail grows.
        recorder.record(make_record("t1"))
        assert [t["trace"] for t in recorder.traces()] == ["t0", "t1"]
        assert len(read_trail(tmp_path / "access.jsonl")) == 1
        assert len(read_trail(tmp_path / "slow.jsonl")) == 1


class TestAccessTrail:
    def test_logs_every_request_by_default(self, tmp_path):
        path = tmp_path / "access.jsonl"
        recorder = FlightRecorder(access_log=path)
        recorder.record(make_record("r0"))
        recorder.record(make_record("r1"))
        recorder.close()
        assert [line["trace"] for line in read_trail(path)] == ["r0", "r1"]
        assert recorder.logged == 2

    def test_sampling_is_deterministic_one_in_n(self, tmp_path):
        path = tmp_path / "access.jsonl"
        recorder = FlightRecorder(sample_every=3, access_log=path)
        for i in range(9):
            recorder.record(make_record(f"r{i}"))
        recorder.close()
        assert recorder.recorded == 9
        assert recorder.logged == 3
        assert [line["trace"] for line in read_trail(path)] == ["r0", "r3", "r6"]

    def test_jsonl_sink(self, tmp_path):
        path = tmp_path / "logs" / "access.jsonl"
        recorder = FlightRecorder(sample_every=2, access_log=path)
        for i in range(4):
            recorder.record(make_record(f"r{i}"))
        recorder.close()
        assert [line["rid"] for line in read_trail(path)] == ["rid-r0", "rid-r2"]
        # The trail appends: a second recorder on the same path adds on.
        again = FlightRecorder(access_log=path)
        again.record(make_record("r9"))
        again.close()
        assert len(read_trail(path)) == 3

    def test_summary_figures(self):
        # Sampling is counted with no trail path too.
        recorder = FlightRecorder(sample_every=2)
        for i in range(4):
            recorder.record(make_record(f"r{i}"))
        assert (recorder.recorded, recorder.logged, recorder.sample_every) == (
            4,
            2,
            2,
        )

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            FlightRecorder(sample_every=0)


class TestSlowTrail:
    def test_threshold_splits_fast_from_slow(self):
        recorder = FlightRecorder(slow_threshold_s=0.100)
        recorder.record(make_record("fast", server_us=50_000))
        recorder.record(make_record("at", server_us=100_000))
        recorder.record(make_record("slow", server_us=500_000))
        assert recorder.recorded == 3
        assert recorder.slow_seen == 2
        assert [e["trace"] for e in recorder.slow_entries()] == ["slow", "at"]

    def test_top_k_keeps_the_slowest(self):
        recorder = FlightRecorder(slow_threshold_s=0.0, slow_top=3)
        for i, us in enumerate([100, 500, 200, 900, 300]):
            recorder.record(make_record(f"r{i}", server_us=us))
        # Slowest first; counting is unbounded, retention is not.
        assert [e["trace"] for e in recorder.slow_entries()] == ["r3", "r1", "r4"]
        assert recorder.slow_seen == 5

    def test_every_slow_request_hits_the_sink(self, tmp_path):
        path = tmp_path / "slow.jsonl"
        recorder = FlightRecorder(
            slow_threshold_s=0.1, slow_top=1, slow_log=path
        )
        recorder.record(make_record("r0", server_us=200_000))
        recorder.record(make_record("r1", server_us=300_000))
        recorder.record(make_record("r2", server_us=10_000))
        recorder.close()
        # slow_top bounds memory, not the on-disk trail.
        assert [line["trace"] for line in read_trail(path)] == ["r0", "r1"]
        assert [e["trace"] for e in recorder.slow_entries()] == ["r1"]

    def test_summary_figures(self):
        recorder = FlightRecorder(slow_threshold_s=0.25, slow_top=2)
        recorder.record(make_record("r0", server_us=300_000))
        assert recorder.slow_threshold_s * 1e3 == pytest.approx(250.0)
        assert (recorder.recorded, recorder.slow_seen) == (1, 1)
        assert [e["rid"] for e in recorder.slow_entries()] == ["rid-r0"]

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            FlightRecorder(slow_threshold_s=-1)
        with pytest.raises(ValueError):
            FlightRecorder(slow_top=0)


class TestTrailLines:
    #: ``RequestRecord.log_view()`` of ``_record()`` as the commit before
    #: the recorder took over the trails wrote it to access.jsonl.
    PARENT_LOG_VIEW = {
        "rid": "r7",
        "trace": "tr7",
        "client": "client-3",
        "op": "query",
        "outcome": "server_error",
        "unix": 1000.5,
        "server_us": 12500,
        "phases_us": {"decode": 500, "execute": 12000},
        "counters": {"buffer_hits": 4, "bytes_read": 0},
        "error": "boom",
    }

    @staticmethod
    def _record() -> RequestRecord:
        return RequestRecord(
            rid="r7",
            client="client-3",
            op="query",
            outcome="server_error",
            unix=1000.5,
            phases={"execute": 0.012, "decode": 0.0005},
            counters={"bytes_read": 0, "buffer_hits": 4},
            error="boom",
            trace="tr7",
            parent=5,
            roots=span_tree(SPANS),
        )

    def test_trail_line_is_the_parents_log_view(self, tmp_path):
        record = self._record()
        recorder = FlightRecorder(
            slow_threshold_s=0.0,
            access_log=tmp_path / "access.jsonl",
            slow_log=tmp_path / "slow.jsonl",
        )
        recorder.record(record)
        recorder.close()
        for name in ("access.jsonl", "slow.jsonl"):
            (line,) = read_trail(tmp_path / name)
            assert line == self.PARENT_LOG_VIEW == record.log_view()
        # The same lines in memory (metrics, debug, bundle slow.jsonl);
        # the retained trace keeps its span tree.
        assert recorder.slow_entries() == [self.PARENT_LOG_VIEW]
        (trace,) = recorder.traces()
        assert trace["spans"] == SPANS and trace["parent"] == 5

    def test_trail_line_bytes_are_the_parents(self, tmp_path):
        path = tmp_path / "access.jsonl"
        recorder = FlightRecorder(access_log=path)
        recorder.record(self._record())
        recorder.close()
        assert path.read_text() == (
            '{"client":"client-3","counters":{"buffer_hits":4,"bytes_read":0},'
            '"error":"boom","op":"query","outcome":"server_error",'
            '"phases_us":{"decode":500,"execute":12000},"rid":"r7",'
            '"server_us":12500,"trace":"tr7","unix":1000.5}\n'
        )


class TestDebugBundle:
    def test_round_trip(self, tmp_path):
        traces = [make_trace("t1"), make_trace("t2", server_us=7000)]
        path = write_debug_bundle(
            tmp_path / "bundle",
            traces,
            stats={"uptime_seconds": 4.0},
            config={"workers": 4},
            slow_entries=[{"rid": "rid-t2", "server_us": 7000}],
        )
        bundle = read_debug_bundle(path)
        assert bundle["manifest"]["schema"] == BUNDLE_SCHEMA
        assert bundle["manifest"]["traces"] == 2
        assert bundle["traces"] == traces
        assert bundle["stats"] == {"uptime_seconds": 4.0}
        assert bundle["config"] == {"workers": 4}
        assert bundle["slow"] == [{"rid": "rid-t2", "server_us": 7000}]

    def test_traces_jsonl_has_schema_header(self, tmp_path):
        path = write_debug_bundle(tmp_path / "bundle", [make_trace("t1")])
        lines = (path / BUNDLE_TRACES).read_text().splitlines()
        header = json.loads(lines[0])
        assert header["schema"] == TRACE_SCHEMA
        assert header["traces"] == 1
        assert len(lines) == 2

    def test_empty_bundle_round_trips(self, tmp_path):
        path = write_debug_bundle(tmp_path / "bundle", [])
        bundle = read_debug_bundle(path)
        assert bundle["traces"] == []
        assert bundle["stats"] is None
        assert bundle["slow"] == []

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(ValueError, match=BUNDLE_MANIFEST):
            read_debug_bundle(tmp_path)

    def test_schema_mismatch_rejected(self, tmp_path):
        (tmp_path / BUNDLE_MANIFEST).write_text(
            json.dumps({"schema": "something-else", "version": 1})
        )
        with pytest.raises(ValueError, match="schema"):
            read_debug_bundle(tmp_path)

    def test_load_traces_tolerates_headerless_files(self, tmp_path):
        # A hand-built JSONL file without the header line still loads.
        path = tmp_path / "traces.jsonl"
        path.write_text(json.dumps(make_trace("t9")) + "\n")
        assert [t["trace"] for t in load_traces(path)] == ["t9"]

    def test_load_traces_missing_file_is_empty(self, tmp_path):
        assert load_traces(tmp_path / "absent.jsonl") == []


SPANS = [
    {
        "id": 0,
        "parent": -1,
        "name": "request.query",
        "start_s": 0.0,
        "duration_s": 0.0009,
        "status": "ok",
        "counters": {"disk_seeks": 2},
    },
    {
        "id": 1,
        "parent": 0,
        "name": "nav.query1",
        "start_s": 0.0001,
        "duration_s": 0.0006,
        "status": "ok",
        "counters": {"disk_seeks": 2, "bytes_read": 100},
    },
]


class TestRendering:
    def test_waterfall_shows_phases_spans_and_counters(self):
        trace = make_trace("t1", server_us=1000, spans=SPANS)
        text = render_waterfall(trace, width=20)
        assert "trace=t1" in text
        assert "decode" in text and "execute" in text
        assert "request.query" in text
        assert "nav.query1" in text
        assert "disk_seeks=2" in text
        # Every bar renders at the same width.
        bars = [line for line in text.splitlines() if "|" in line]
        assert bars and all(
            line.split("|")[1] == line.split("|")[1][:20] for line in bars
        )

    def test_waterfall_carries_error_line(self):
        trace = make_trace("t1", outcome="bad_request")
        trace["error"] = "unknown op"
        assert "error: unknown op" in render_waterfall(trace)

    def test_folded_weights_are_self_time(self):
        trace = make_trace("t1", server_us=1000, spans=SPANS)
        folded = dict(
            line.rsplit(" ", 1)
            for line in fold_traces([trace]).splitlines()
        )
        assert folded["query;decode"] == "10"
        # execute (990us) minus the root span (900us).
        assert folded["query;execute"] == "90"
        # root span self time: 900 - 600 child.
        assert folded["query;execute;request.query"] == "300"
        assert folded["query;execute;request.query;nav.query1"] == "600"

    def test_folded_sums_across_traces(self):
        trace = make_trace("t1", server_us=1000)
        folded = fold_traces([trace, trace])
        assert "query;decode 20" in folded.splitlines()
