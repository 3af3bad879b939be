"""Resident ``neighbors`` lookups are answered on the event loop.

The daemon asks the forward store a non-mutating residency question
after its admission and deadline checks; a yes runs the same measured
execution inline, anything else takes the worker pool as before.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.serve import protocol
from repro.serve.daemon import DaemonHandle, GraphQueryDaemon, ServeContext
from repro.serve.loadgen import ServeClient
from repro.serve.telemetry import DELTA_COUNTERS


@pytest.fixture
def daemon(serve_context):
    """A running daemon over cold stores (the context is shared)."""
    serve_context.forward.drop_caches()
    serve_context.backward.drop_caches()
    handle = DaemonHandle(
        GraphQueryDaemon(serve_context, port=0, workers=2, queue_limit=8)
    )
    with handle:
        yield handle


@pytest.fixture
def page(tiny_repo) -> int:
    """A page with out-links."""
    return next(
        p for p in range(tiny_repo.num_pages) if tiny_repo.graph.successors_list(p)
    )


def private_context(tiny_repo, test_refinement_config, root) -> ServeContext:
    return ServeContext.build(
        tiny_repo,
        root,
        buffer_bytes=128 * 1024,
        stripes=4,
        refinement=test_refinement_config,
    )


def summed(directions: dict) -> dict:
    """The nine attributable counters summed over forward + backward."""
    return {
        name: sum(int(direction.get(name, 0)) for direction in directions.values())
        for name in DELTA_COUNTERS
    }


class TestInlineRule:
    def test_cold_lookup_takes_a_worker_its_repeat_does_not(self, daemon, page, tiny_repo):
        with ServeClient("127.0.0.1", daemon.port) as client:
            cold = client.request("neighbors", page=page)
            assert client.stats()["daemon"]["inline_replies"] == 0
            warm = client.request("neighbors", page=page)
            assert client.stats()["daemon"]["inline_replies"] == 1
        assert cold["result"]["neighbors"] == tiny_repo.graph.successors_list(page)
        assert warm["result"] == cold["result"]
        cold_server, warm_server = cold["server"], warm["server"]
        assert cold_server["phases_us"]["queue_wait"] > 0
        assert cold_server["counters"]["loads"] > 0
        assert warm_server["outcome"] == "ok"
        # Admission to execution is the probe alone, no thread hand-off.
        assert 0 <= warm_server["phases_us"]["queue_wait"] < 1000
        # Only hit counters move: every graph the cold lookup loaded.
        assert warm_server["counters"] == {
            **dict.fromkeys(DELTA_COUNTERS, 0),
            "buffer_hits": cold_server["counters"]["buffer_misses"],
        }

    def test_inline_request_is_traced_like_any_other(self, daemon, page):
        with ServeClient("127.0.0.1", daemon.port) as client:
            client.request_ok("neighbors", page=page)
            client.request_ok("neighbors", page=page, trace={"id": "inl-1"})
            assert client.stats()["daemon"]["inline_replies"] == 1
            deadline = time.monotonic() + 10
            while True:
                traces = {t["trace"]: t for t in client.debug()["traces"]}
                if "inl-1" in traces or time.monotonic() > deadline:
                    break
                time.sleep(0.01)
        names = [span["name"] for span in traces["inl-1"]["spans"]]
        assert names[0] == "request.neighbors"
        assert "nav.out_neighborhood" in names

    def test_queries_always_take_a_worker(self, daemon):
        with ServeClient("127.0.0.1", daemon.port) as client:
            client.request_ok("query", name="query1")
            warm = client.request("query", name="query1")
            assert warm["server"]["counters"]["loads"] == 0
            assert client.stats()["daemon"]["inline_replies"] == 0

    def test_bad_pages_keep_their_typed_errors(self, daemon):
        with ServeClient("127.0.0.1", daemon.port) as client:
            for bad in (10**9, -1, "seven", True, None):
                reply = client.request("neighbors", page=bad)
                assert reply["error"]["type"] == protocol.ERROR_BAD_REQUEST
            assert client.stats()["daemon"]["inline_replies"] == 0

    def test_graph_dropped_between_probe_and_execution(
        self, daemon, serve_context, page, tiny_repo, monkeypatch
    ):
        """Probe says resident, then the pool is emptied: read on the loop."""
        store = serve_context.forward.store
        real = store.is_resident

        def probe_then_evict(page):
            answer = real(page)
            if answer:
                serve_context.forward.drop_caches()
            return answer

        monkeypatch.setattr(store, "is_resident", probe_then_evict)
        with ServeClient("127.0.0.1", daemon.port) as client:
            shared_before = client.stats()["shared"]
            replies = [client.request("neighbors", page=page) for _ in range(2)]
            stats = client.stats()
        assert stats["daemon"]["inline_replies"] == 1
        inline = replies[1]
        assert inline["result"]["neighbors"] == tiny_repo.graph.successors_list(page)
        assert inline["server"]["counters"] == replies[0]["server"]["counters"]
        assert inline["server"]["counters"]["loads"] > 0
        # request -> session -> store conservation.
        attributed = {
            name: sum(reply["server"]["counters"][name] for reply in replies)
            for name in DELTA_COUNTERS
        }
        assert attributed == summed(stats["client"])
        growth = {
            name: summed(stats["shared"])[name] - summed(shared_before)[name]
            for name in DELTA_COUNTERS
        }
        assert growth == attributed


class TestAdmissionAndDeadlinesComeFirst:
    def test_expired_deadline_still_sheds_a_resident_lookup(self, daemon, page):
        with ServeClient("127.0.0.1", daemon.port) as client:
            client.request_ok("neighbors", page=page)
            reply = client.request("neighbors", page=page, deadline_ms=0)
            assert reply["error"]["type"] == protocol.ERROR_TIMEOUT
            assert reply["server"]["counters"] == {}
            served = client.request("neighbors", page=page, deadline_ms=30_000)
            assert served["ok"] is True
            assert client.stats()["daemon"]["inline_replies"] == 1

    def test_full_queue_still_replies_backpressure(self, serve_context, page):
        daemon = GraphQueryDaemon(serve_context, port=0, workers=1, queue_limit=1)
        blocked = threading.Event()
        release = threading.Event()

        def plug() -> None:
            blocked.set()
            release.wait(30)

        with DaemonHandle(daemon) as handle:
            try:
                with ServeClient("127.0.0.1", handle.port) as client:
                    client.request_ok("neighbors", page=page)  # now resident
                    daemon._executor.submit(plug)
                    assert blocked.wait(10)
                    stuck = socket.create_connection(("127.0.0.1", handle.port), timeout=30)
                    protocol.send_frame(stuck, {"id": 0, "op": "query", "name": "query1"})
                    deadline = time.monotonic() + 10
                    while daemon._inflight < 1:
                        assert time.monotonic() < deadline, "query never admitted"
                        time.sleep(0.01)
                    reply = client.request("neighbors", page=page)
                    assert reply["error"]["type"] == protocol.ERROR_BACKPRESSURE
                    inline_before = client.stats()["daemon"]["inline_replies"]
                    release.set()
                    assert protocol.recv_frame(stuck)["ok"] is True
                    stuck.close()
                    assert client.request("neighbors", page=page)["ok"] is True
                    assert client.stats()["daemon"]["inline_replies"] == inline_before + 1
            finally:
                release.set()
        assert daemon.counters.requests_shed == 1


class TestNewStoresStartCold:
    def test_first_lookup_after_swap_takes_a_worker(
        self, tiny_repo, test_refinement_config, tmp_path, page
    ):
        context = private_context(tiny_repo, test_refinement_config, tmp_path / "primary")
        private_context(tiny_repo, test_refinement_config, tmp_path / "next").close()
        daemon = GraphQueryDaemon(context, port=0, workers=2, queue_limit=8)
        try:
            with DaemonHandle(daemon) as handle:
                with ServeClient("127.0.0.1", handle.port) as client:
                    client.request_ok("neighbors", page=page)
                    client.request_ok("neighbors", page=page)
                    assert client.stats()["daemon"]["inline_replies"] == 1
                    client.swap(str(tmp_path / "next"))
                    first = client.request("neighbors", page=page)
                    assert first["server"]["counters"]["loads"] > 0
                    assert first["server"]["phases_us"]["queue_wait"] > 0
                    assert client.stats()["daemon"]["inline_replies"] == 1
                    client.request_ok("neighbors", page=page)
                    assert client.stats()["daemon"]["inline_replies"] == 2
        finally:
            context.close()

    def test_first_lookup_after_compact_takes_a_worker(
        self, tiny_repo, test_refinement_config, tmp_path, page
    ):
        context = private_context(tiny_repo, test_refinement_config, tmp_path / "primary")
        context.enable_mutation()
        row = tiny_repo.graph.successors_list(page)
        target = next(t for t in range(tiny_repo.num_pages) if t != page and t not in row)
        daemon = GraphQueryDaemon(context, port=0, workers=2, queue_limit=8)
        try:
            with DaemonHandle(daemon) as handle:
                with ServeClient("127.0.0.1", handle.port) as client:
                    client.request_ok("neighbors", page=page)
                    client.add_edges([[page, target]])
                    # Resident base graphs + a pending overlay row: inline.
                    merged = client.request_ok("neighbors", page=page)["neighbors"]
                    assert merged == sorted(row + [target])
                    assert client.stats()["daemon"]["inline_replies"] == 1
                    client.compact(str(tmp_path / "compacted"))
                    first = client.request("neighbors", page=page)
                    assert first["result"]["neighbors"] == merged
                    assert first["server"]["counters"]["loads"] > 0
                    assert client.stats()["daemon"]["inline_replies"] == 1
        finally:
            context.close()
