"""Resident requests are answered on the event loop, from memory.

After its admission and deadline checks the daemon *tries* a
``neighbors`` lookup — and a ``query`` without a deadline on a
connection that is not loading — right on the loop, with the
connection's views forbidden to read a file.  A
:class:`~repro.errors.NotResident` hands the same measured execution to
the worker pool, which keeps what the attempt counted.

Seeded mutations, each of which fails a test named here:

* ``SNodeStore._load`` makes its resident ``BufferPool.replay`` (the one
  with no loads) before it knows every graph was peeked —
  ``test_cold_lookup_takes_a_worker_its_repeat_does_not`` (a cold reply
  reports hits); charging only the graphs peeked before a missing one
  fails
  ``tests/util/test_visit_loader_oracle.py::test_visit_loader_equals_the_per_graph_loader``;
* ``LRUCache.touch`` walks its keys in reverse —
  ``tests/storage/test_bufferpool.py::TestReplay::test_replay_is_get_and_put_of_each_in_order``;
* ``_execute_measured`` reads only the last root span's counters (the
  attempt's are dropped on fallback) —
  ``test_graph_evicted_mid_query_falls_back``;
* ``_serve`` stops catching ``NotResident`` (it reaches the wire as a
  ``server_error``) — every cold request here, first
  ``test_cold_lookup_takes_a_worker_its_repeat_does_not``.
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
from repro.snode.store import SNodeStore
from repro.storage.device import CountedFile
from repro.util.lru import LRUCache
from tests.serve import test_chaos_daemon

HIT_COUNTERS = ("buffer_hits", "buffer_pinned_hits")

#: The fixture: a committed pair with corrupted regions in both stores.
corrupted_pair = test_chaos_daemon.corrupted_pair


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
        refinement=test_refinement_config,
    )


def summed(directions: dict) -> dict:
    """The nine attributable counters summed over forward + backward."""
    return {
        name: sum(int(direction.get(name, 0)) for direction in directions.values())
        for name in DELTA_COUNTERS
    }


def inline_replies(client) -> int:
    return client.stats()["daemon"]["inline_replies"]


def warm_query(client, name: str) -> dict:
    """Run ``name`` until it is answered inline; that reply."""
    for _ in range(4):
        before = inline_replies(client)
        reply = client.request("query", name=name)
        assert reply["ok"] is True
        if inline_replies(client) == before + 1:
            return reply
    raise AssertionError(f"{name} was never answered inline")


def recorded_spans(client, trace_id: str) -> list[dict]:
    """The spans the daemon kept for ``trace_id`` (recorded after the reply)."""
    deadline = time.monotonic() + 10
    while True:
        traces = {t["trace"]: t for t in client.debug()["traces"]}
        if trace_id in traces:
            return traces[trace_id]["spans"]
        assert time.monotonic() < deadline, f"trace {trace_id} never recorded"
        time.sleep(0.01)


def request_roots(client, trace_id: str) -> list[dict]:
    """The ``request.*`` root spans of ``trace_id``: one per execution."""
    return [s for s in recorded_spans(client, trace_id) if s["parent"] == -1]


class TestInlineRule:
    def test_cold_lookup_takes_a_worker_its_repeat_does_not(self, daemon, page, tiny_repo):
        with ServeClient("127.0.0.1", daemon.port) as client:
            cold = client.request("neighbors", page=page)
            assert inline_replies(client) == 0
            warm = client.request("neighbors", page=page)
            assert inline_replies(client) == 1
        assert cold["ok"] is True
        assert cold["result"]["neighbors"] == tiny_repo.graph.successors_list(page)
        assert warm["result"] == cold["result"]
        cold_server, warm_server = cold["server"], warm["server"]
        # The failed attempt and the hop are the cold lookup's queue wait.
        assert cold_server["phases_us"]["queue_wait"] > 0
        assert cold_server["counters"]["loads"] > 0
        # The attempt missed before it counted anything.
        assert cold_server["counters"]["buffer_hits"] == 0
        assert warm_server["outcome"] == "ok"
        # Admission to execution is a function call, no thread hand-off.
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
            assert inline_replies(client) == 1
            names = [span["name"] for span in recorded_spans(client, "inl-1")]
        assert names[0] == "request.neighbors"
        assert "nav.out_neighborhood" in names

    def test_repeated_query_is_answered_inline(self, daemon):
        with ServeClient("127.0.0.1", daemon.port) as client:
            cold = client.request("query", name="query1", trace={"id": "cold-q"})
            assert cold["ok"] is True and cold["server"]["counters"]["loads"] > 0
            assert inline_replies(client) == 0
            # Tried (a fresh connection has loaded nothing) and missed:
            # the attempt's root span is kept beside the worker's.
            roots = request_roots(client, "cold-q")
            assert [root["name"] for root in roots] == ["request.query"] * 2
            assert [root["status"] for root in roots] == ["error:NotResident", "ok"]
            # The connection has just loaded: not tried, though resident.
            second = client.request("query", name="query1", trace={"id": "second-q"})
            assert second["server"]["counters"]["loads"] == 0
            assert inline_replies(client) == 0
            assert len(request_roots(client, "second-q")) == 1
            third = client.request("query", name="query1")
            assert inline_replies(client) == 1
        assert third["result"]["digest"] == cold["result"]["digest"]
        assert third["result"]["payload"] == cold["result"]["payload"]
        counters = third["server"]["counters"]
        assert counters == second["server"]["counters"]
        assert counters["buffer_hits"] > 0
        assert all(counters[name] == 0 for name in DELTA_COUNTERS if name not in HIT_COUNTERS)
        assert 0 <= third["server"]["phases_us"]["queue_wait"] < 1000

    def test_query_with_a_deadline_takes_a_worker(self, daemon):
        with ServeClient("127.0.0.1", daemon.port) as client:
            warm = warm_query(client, "query2")
            before = inline_replies(client)
            hurried = client.request(
                "query", name="query2", deadline_ms=30_000, trace={"id": "hurried"}
            )
            assert hurried["result"]["digest"] == warm["result"]["digest"]
            assert inline_replies(client) == before
            assert len(request_roots(client, "hurried")) == 1
            client.request_ok("query", name="query2")
            assert inline_replies(client) == before + 1

    def test_query_after_a_request_that_loaded_takes_a_worker(self, daemon, page):
        with ServeClient("127.0.0.1", daemon.port) as client:
            loaded = client.request("neighbors", page=page)
            assert loaded["server"]["counters"]["loads"] > 0
            client.request_ok("ping")  # an inline op reads nothing: no say
            client.request_ok("query", name="query3", trace={"id": "after-load"})
            # One root: no attempt was made.
            assert len(request_roots(client, "after-load")) == 1
            assert inline_replies(client) == 0

    def test_bad_pages_keep_their_typed_errors(self, daemon):
        with ServeClient("127.0.0.1", daemon.port) as client:
            for bad in (10**9, -1, "seven", True, None):
                reply = client.request("neighbors", page=bad)
                assert reply["error"]["type"] == protocol.ERROR_BAD_REQUEST
            assert inline_replies(client) == 0

    def test_graph_dropped_between_probe_and_execution(
        self, daemon, page, tiny_repo, monkeypatch
    ):
        """The pool peeks every graph, then loses them before it touches
        them: the lookup was served from memory all the same."""
        real = LRUCache.touch
        dropped = []

        def evict_then_touch(cache, keys):
            if not dropped:
                dropped.extend(keys)
                for key in keys:
                    cache.pop(key)
            real(cache, keys)

        with ServeClient("127.0.0.1", daemon.port) as client:
            cold = client.request("neighbors", page=page)
            monkeypatch.setattr(LRUCache, "touch", evict_then_touch)
            served = client.request("neighbors", page=page)
            assert dropped and inline_replies(client) == 1
            again = client.request("neighbors", page=page)
            assert inline_replies(client) == 1
        assert served["result"]["neighbors"] == tiny_repo.graph.successors_list(page)
        assert served["server"]["counters"] == {
            **dict.fromkeys(DELTA_COUNTERS, 0),
            "buffer_hits": cold["server"]["counters"]["buffer_misses"],
        }
        # What was dropped is loaded again, by a worker.
        assert again["result"] == served["result"]
        assert again["server"]["counters"]["loads"] > 0

    def test_graph_evicted_mid_query_falls_back(self, daemon, serve_context, monkeypatch):
        """The second supernode an inline query visits finds the pools
        emptied: a worker answers, once, and nothing counted is lost."""
        real = SNodeStore._adjacency
        visits = []

        def evicting(store, supernode, locals_, registry, memory_only=False):
            if memory_only:
                visits.append(supernode)
                if len(visits) == 2:
                    serve_context.forward.drop_caches()
                    serve_context.backward.drop_caches()
            return real(store, supernode, locals_, registry, memory_only)

        with ServeClient("127.0.0.1", daemon.port) as client:
            warm = warm_query(client, "query3")
            before = client.stats()
            monkeypatch.setattr(SNodeStore, "_adjacency", evicting)
            reply = client.request("query", name="query3", trace={"id": "evicted"})
            monkeypatch.setattr(SNodeStore, "_adjacency", real)
            after = client.stats()
            roots = request_roots(client, "evicted")
        assert len(visits) == 2
        assert reply["ok"] is True and reply["server"]["outcome"] == "ok"
        assert reply["result"]["digest"] == warm["result"]["digest"]
        assert [root["status"] for root in roots] == ["error:NotResident", "ok"]
        assert after["daemon"]["inline_replies"] == before["daemon"]["inline_replies"]
        # One answer: the stats request in between is the other.
        assert after["daemon"]["requests_ok"] == before["daemon"]["requests_ok"] + 2
        counters = reply["server"]["counters"]
        # The first supernode's hits are the attempt's, the loads the worker's.
        assert counters["buffer_hits"] > 0 and counters["loads"] > 0
        # request -> session -> store conservation.
        for section in ("client", "shared"):
            growth = {
                name: summed(after[section])[name] - summed(before[section])[name]
                for name in DELTA_COUNTERS
            }
            assert growth == counters, section

    def test_corrupt_supernode_is_quarantined_by_a_worker_then_answered_inline(
        self, tiny_repo, corrupted_pair, page
    ):
        context = ServeContext.open(
            tiny_repo,
            corrupted_pair,
            buffer_bytes=128 * 1024,
            on_corruption="degrade",
        )
        daemon = GraphQueryDaemon(context, port=0, workers=2, queue_limit=8)
        try:
            with DaemonHandle(daemon) as handle:
                with ServeClient("127.0.0.1", handle.port) as client:
                    first = client.request("neighbors", page=page)
                    assert inline_replies(client) == 0
                    # Quarantined regions are served empty, from memory.
                    repeat = client.request("neighbors", page=page)
                    assert inline_replies(client) == 1
        finally:
            context.close()
        for reply in (first, repeat):
            assert reply["ok"] is True and reply["server"]["outcome"] == "degraded"
        assert first["server"]["counters"]["bytes_read"] > 0
        assert repeat["result"] == first["result"]
        assert repeat["server"]["counters"] == {
            **dict.fromkeys(DELTA_COUNTERS, 0),
            "degraded_reads": first["server"]["counters"]["degraded_reads"],
            "buffer_hits": first["server"]["counters"]["loads"],
        }


class TestNoFileIsReadOnTheLoop:
    def test_every_read_at_runs_on_a_worker(self, daemon, tiny_repo, monkeypatch):
        """Cold, half-warm or warm, lookup or query: whatever the pools
        hold when a request is tried, the loop thread reads no file."""
        real = CountedFile.read_at
        readers = []

        def recording(device, *args, **kwargs):
            readers.append(threading.current_thread().name)
            return real(device, *args, **kwargs)

        monkeypatch.setattr(CountedFile, "read_at", recording)
        with ServeClient("127.0.0.1", daemon.port) as client:
            for _ in range(2):
                for name in ("query1", "query3", "query5"):
                    client.request_ok("query", name=name)
                for page in range(0, tiny_repo.num_pages, 7):
                    client.request_ok("neighbors", page=page)
            assert inline_replies(client) > 0
        assert readers
        assert all(name.startswith("serve-worker") for name in readers), set(readers)


class TestAdmissionAndDeadlinesComeFirst:
    def test_expired_deadline_still_sheds_a_resident_lookup(self, daemon, page):
        with ServeClient("127.0.0.1", daemon.port) as client:
            client.request_ok("neighbors", page=page)
            reply = client.request("neighbors", page=page, deadline_ms=0)
            assert reply["error"]["type"] == protocol.ERROR_TIMEOUT
            assert reply["server"]["counters"] == {}
            served = client.request("neighbors", page=page, deadline_ms=30_000)
            assert served["ok"] is True
            assert inline_replies(client) == 1

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
                    # A query with a deadline is never tried on the loop.
                    protocol.send_frame(
                        stuck,
                        {"id": 0, "op": "query", "name": "query1", "deadline_ms": 60_000},
                    )
                    deadline = time.monotonic() + 10
                    while daemon._inflight < 1:
                        assert time.monotonic() < deadline, "query never admitted"
                        time.sleep(0.01)
                    reply = client.request("neighbors", page=page)
                    assert reply["error"]["type"] == protocol.ERROR_BACKPRESSURE
                    inline_before = inline_replies(client)
                    release.set()
                    assert protocol.recv_frame(stuck)["ok"] is True
                    stuck.close()
                    assert client.request("neighbors", page=page)["ok"] is True
                    assert inline_replies(client) == inline_before + 1
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
                    assert inline_replies(client) == 1
                    client.swap(str(tmp_path / "next"))
                    first = client.request("neighbors", page=page)
                    assert first["server"]["counters"]["loads"] > 0
                    assert first["server"]["phases_us"]["queue_wait"] > 0
                    assert inline_replies(client) == 1
                    client.request_ok("neighbors", page=page)
                    assert inline_replies(client) == 2
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
                    assert inline_replies(client) == 1
                    client.compact(str(tmp_path / "compacted"))
                    first = client.request("neighbors", page=page)
                    assert first["result"]["neighbors"] == merged
                    assert first["server"]["counters"]["loads"] > 0
                    assert inline_replies(client) == 1
        finally:
            context.close()
