"""CLI tests for ``repro top`` and ``repro loadgen --json``."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.serve.daemon import DaemonHandle, GraphQueryDaemon


@pytest.fixture
def daemon(serve_context):
    handle = DaemonHandle(
        GraphQueryDaemon(serve_context, port=0, workers=4, queue_limit=16)
    )
    with handle:
        yield handle


class TestTopCommand:
    def test_top_once_renders_dashboard(self, daemon, capsys):
        code = main(
            ["loadgen", "--port", str(daemon.port),
             "--concurrency", "2", "--requests", "3"]
        )
        assert code == 0
        code = main(["top", "--port", str(daemon.port), "--once"])
        captured = capsys.readouterr()
        assert code == 0
        assert "repro top — uptime" in captured.out
        assert "qps" in captured.out
        assert "query" in captured.out  # per-op table row
        assert "queue" in captured.out

    def test_top_prometheus_prints_exposition(self, daemon, capsys):
        code = main(["top", "--port", str(daemon.port), "--prometheus"])
        captured = capsys.readouterr()
        assert code == 0
        assert "# TYPE repro_requests_total counter" in captured.out
        assert "repro_uptime_seconds" in captured.out


class TestLoadgenJson:
    def test_loadgen_writes_summary_report(self, daemon, capsys, tmp_path):
        code = main(
            ["loadgen", "--port", str(daemon.port),
             "--concurrency", "2", "--requests", "3",
             "--json", str(tmp_path)]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "server latency p50" in captured.out
        report = json.loads((tmp_path / "BENCH_loadgen.json").read_text())
        assert report["experiment"] == "loadgen"
        results = report["results"]
        assert results["requests_sent"] == 6
        assert results["requests_ok"] == 6
        assert results["consistent"] is True
        assert results["client_latency"]["latency_ms_p99"] > 0
        assert "queue_wait_ms_p99" in results["server_latency"]
        assert report["histograms"]["client_latency"]["count"] == 6
        assert report["histograms"]["queue_wait"]["count"] == 6

    @pytest.mark.parametrize(
        "flags, deadline_ms, deadline_every, carried",
        [
            ([], 250.0, 3, 2),
            (["--deadline-every", "0"], 250.0, 0, 6),
            (["--deadline-ms", "100"], 100.0, 3, 2),
        ],
    )
    def test_chaos_preset_yields_to_explicit_flags(
        self, daemon, tmp_path, capsys, flags, deadline_ms, deadline_every, carried
    ):
        code = main(
            ["loadgen", "--port", str(daemon.port), "--chaos",
             "--concurrency", "2", "--requests", "3",
             "--json", str(tmp_path), *flags]
        )
        capsys.readouterr()
        assert code == 0
        report = json.loads((tmp_path / "BENCH_loadgen.json").read_text())
        assert report["params"]["deadline_ms"] == deadline_ms
        assert report["params"]["deadline_every"] == deadline_every
        assert report["results"]["deadline_requests"] == carried

    def test_loadgen_report_validates(self, daemon, tmp_path, capsys):
        main(
            ["loadgen", "--port", str(daemon.port),
             "--concurrency", "1", "--requests", "2",
             "--json", str(tmp_path)]
        )
        capsys.readouterr()
        code = main(
            ["bench-validate", str(tmp_path / "BENCH_loadgen.json")]
        )
        assert code == 0


@pytest.fixture
def free_port():
    """A port with nothing listening on it (bound, then released)."""
    import socket

    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


class TestTopConnectFailure:
    def test_top_exits_nonzero_with_clear_message(self, free_port, capsys):
        code = main(["top", "--port", str(free_port), "--once"])
        captured = capsys.readouterr()
        assert code == 2
        assert "cannot connect to daemon" in captured.err
        assert str(free_port) in captured.err
        assert captured.out == ""  # no empty dashboard rendered


@pytest.fixture
def bundle(tmp_path):
    """A written debug bundle with two traces (one slow, with spans)."""
    from repro.obs.flightrecorder import write_debug_bundle

    traces = [
        {
            "trace": "fast", "rid": "r1", "client": "client-0",
            "op": "query", "outcome": "ok", "unix": 0.0, "server_us": 800,
            "phases_us": {"decode": 10, "execute": 790},
            "counters": {}, "parent": -1, "spans": [],
        },
        {
            "trace": "slow", "rid": "r2", "client": "client-1",
            "op": "query", "outcome": "ok", "unix": 0.0, "server_us": 9000,
            "phases_us": {"decode": 15, "execute": 8985},
            "counters": {"disk_seeks": 4},
            "parent": -1,
            "spans": [
                {"id": 0, "parent": -1, "name": "request.query",
                 "start_s": 0.0, "duration_s": 0.008, "status": "ok",
                 "counters": {"disk_seeks": 4}, "notes": {}},
                {"id": 1, "parent": 0, "name": "nav.query2",
                 "start_s": 0.001, "duration_s": 0.006, "status": "ok",
                 "counters": {"disk_seeks": 4}, "notes": {}},
            ],
        },
    ]
    return write_debug_bundle(
        tmp_path / "bundle", traces, config={"workers": 2}
    )


class TestTraceCommand:
    def test_list_renders_every_trace(self, bundle, capsys):
        code = main(["trace", "--bundle", str(bundle), "--list"])
        captured = capsys.readouterr()
        assert code == 0
        assert "trace=fast" in captured.out
        assert "trace=slow" in captured.out

    def test_default_waterfall_is_the_slowest_trace(self, bundle, capsys):
        code = main(["trace", "--bundle", str(bundle)])
        captured = capsys.readouterr()
        assert code == 0
        assert "trace=slow" in captured.out
        assert "trace=fast" not in captured.out
        assert "request.query" in captured.out
        assert "nav.query2" in captured.out
        assert "disk_seeks=4" in captured.out

    def test_select_by_id_and_rid(self, bundle, capsys):
        assert main(["trace", "--bundle", str(bundle), "fast"]) == 0
        assert "trace=fast" in capsys.readouterr().out
        assert main(["trace", "--bundle", str(bundle), "--rid", "r2"]) == 0
        assert "trace=slow" in capsys.readouterr().out

    def test_missing_id_is_an_error(self, bundle, capsys):
        code = main(["trace", "--bundle", str(bundle), "nope"])
        captured = capsys.readouterr()
        assert code == 1
        assert "no retained trace with id(s): nope" in captured.err

    def test_folded_output(self, bundle, capsys):
        code = main(["trace", "--bundle", str(bundle), "--folded"])
        captured = capsys.readouterr()
        assert code == 0
        assert "query;execute;request.query;nav.query2 6000" in captured.out

    def test_connect_failure_suggests_bundle(self, free_port, capsys):
        code = main(["trace", "--port", str(free_port)])
        captured = capsys.readouterr()
        assert code == 1
        assert "cannot connect" in captured.err
        assert "--bundle" in captured.err

    def test_dump_writes_bundle_from_live_daemon(
        self, daemon, tmp_path, capsys
    ):
        code = main(
            ["loadgen", "--port", str(daemon.port),
             "--concurrency", "2", "--requests", "3"]
        )
        assert code == 0
        capsys.readouterr()
        out_dir = tmp_path / "dumped"
        code = main(
            ["trace", "--port", str(daemon.port), "--dump", str(out_dir)]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "debug bundle" in captured.out
        code = main(["trace", "--bundle", str(out_dir), "--list"])
        captured = capsys.readouterr()
        assert code == 0
        assert "trace=lgt" in captured.out  # propagated loadgen trace ids

    def test_dump_conflicts_with_bundle(self, bundle, tmp_path, capsys):
        code = main(
            ["trace", "--bundle", str(bundle), "--dump", str(tmp_path / "x")]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "--dump reads a live daemon" in captured.err

    def test_not_a_bundle_directory_is_an_error(self, tmp_path, capsys):
        code = main(["trace", "--bundle", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "not a debug bundle" in captured.err
