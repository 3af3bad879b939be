"""Daemon write path: add/remove ops, stats, online compaction."""

from __future__ import annotations

import pytest

from repro.serve import protocol
from repro.serve.daemon import DaemonHandle, GraphQueryDaemon, ServeContext
from repro.serve.loadgen import ServeClient
from repro.storage.wal import GraphWal


@pytest.fixture
def mutable_env(tiny_repo, test_refinement_config, tmp_path):
    """A private mutable serving context (writes grow a WAL beside it)."""
    context = ServeContext.build(
        tiny_repo,
        tmp_path / "primary",
        buffer_bytes=128 * 1024,
        refinement=test_refinement_config,
    )
    context.enable_mutation()
    yield context, tmp_path
    context.close()


def _fresh_edge(context):
    """An edge absent from the graph (and its reverse, for clarity)."""
    num_pages = context.repository.num_pages
    for source in range(num_pages):
        row = set(context.forward.out_neighbors(source))
        for target in range(num_pages - 1, -1, -1):
            if target != source and target not in row:
                return source, target
    raise AssertionError("graph is complete?!")


class TestWriteOps:
    def test_add_remove_visible_in_both_directions(self, mutable_env):
        context, _tmp = mutable_env
        source, target = _fresh_edge(context)
        daemon = GraphQueryDaemon(context, port=0, workers=2, queue_limit=8)
        with DaemonHandle(daemon) as handle:
            with ServeClient("127.0.0.1", handle.port) as client:
                before = client.request_ok("neighbors", page=source)["neighbors"]
                assert target not in before
                result = client.add_edges([[source, target]])
                assert result["op"] == "add"
                assert result["edges_applied"] == 1
                assert result["wal_bytes"] > 0
                after = client.request_ok("neighbors", page=source)["neighbors"]
                assert after == sorted(set(before) | {target})
                # The transpose overlay saw the same write flipped.
                assert source in context.backward.out_neighbors(target)

                removed = client.remove_edges([[source, target]])
                assert removed["op"] == "remove"
                assert (
                    client.request_ok("neighbors", page=source)["neighbors"]
                    == before
                )
                assert source not in context.backward.out_neighbors(target)
                stats = client.stats()
        assert stats["daemon"]["writes_applied"] == 2
        assert stats["daemon"]["requests_failed"] == 0

    def test_writes_are_durably_logged_before_ack(self, mutable_env):
        context, _tmp = mutable_env
        source, target = _fresh_edge(context)
        daemon = GraphQueryDaemon(context, port=0, workers=2, queue_limit=8)
        with DaemonHandle(daemon) as handle:
            with ServeClient("127.0.0.1", handle.port) as client:
                client.add_edges([[source, target]])
        # The acknowledged write is on disk, replayable without the
        # daemon: a cold scan of the sidecar log sees the exact batch.
        wal = GraphWal.for_build(context.forward.build.root)
        scan = wal.scan()
        assert not scan.torn
        assert [(r.op, r.edges) for r in scan.records] == [
            ("add", ((source, target),))
        ]

    def test_write_rejected_without_mutation(
        self, tiny_repo, test_refinement_config, tmp_path
    ):
        context = ServeContext.build(
            tiny_repo,
            tmp_path / "immutable",
            buffer_bytes=128 * 1024,
            refinement=test_refinement_config,
        )
        try:
            daemon = GraphQueryDaemon(context, port=0, workers=2, queue_limit=8)
            with DaemonHandle(daemon) as handle:
                with ServeClient("127.0.0.1", handle.port) as client:
                    reply = client.request("add_edges", edges=[[0, 1]])
                    assert reply["ok"] is False
                    assert reply["error"]["type"] == protocol.ERROR_BAD_REQUEST
                    assert "not enabled" in reply["error"]["message"]
                    assert client.stats()["mutation"] == {"enabled": False}
        finally:
            context.close()

    def test_malformed_writes_are_bad_requests(self, mutable_env):
        context, _tmp = mutable_env
        num_pages = context.repository.num_pages
        daemon = GraphQueryDaemon(context, port=0, workers=2, queue_limit=8)
        with DaemonHandle(daemon) as handle:
            with ServeClient("127.0.0.1", handle.port) as client:
                for bad in (
                    None,
                    [],
                    [[0]],
                    [[0, 1, 2]],
                    [[0, "1"]],
                    [[0, True]],
                    [[0, num_pages]],
                    [[-1, 0]],
                ):
                    reply = client.request("add_edges", edges=bad)
                    assert reply["ok"] is False, bad
                    assert (
                        reply["error"]["type"] == protocol.ERROR_BAD_REQUEST
                    ), bad
                # Nothing reached the log or the overlay; reads intact.
                assert client.stats()["mutation"]["wal_bytes"] == 0
                assert client.request_ok("neighbors", page=0)


class TestMutationStats:
    def test_stats_and_gauges_track_the_overlay(self, mutable_env):
        context, _tmp = mutable_env
        source, target = _fresh_edge(context)
        daemon = GraphQueryDaemon(context, port=0, workers=2, queue_limit=8)
        with DaemonHandle(daemon) as handle:
            with ServeClient("127.0.0.1", handle.port) as client:
                client.add_edges([[source, target]])
                mutation = client.stats()["mutation"]
                assert mutation["enabled"] is True
                assert mutation["wal_bytes"] > 0
                assert mutation["wal_records"] == 1
                assert mutation["delta_edges"] == 1
                assert mutation["overlay_rows"] == 1
                assert mutation["compactions"] == 0
                gauges = client.metrics()["gauges"]
                assert gauges["wal_bytes"] == mutation["wal_bytes"]
                assert gauges["delta_edges"] == 1
                text = client.metrics(fmt="text")["text"]
                assert "wal_bytes" in text
                assert "delta_edges" in text


class TestCompactOp:
    def test_compact_folds_wal_and_truncates(self, mutable_env):
        context, tmp_path = mutable_env
        source, target = _fresh_edge(context)
        daemon = GraphQueryDaemon(context, port=0, workers=2, queue_limit=8)
        with DaemonHandle(daemon) as handle:
            with ServeClient("127.0.0.1", handle.port) as client:
                client.add_edges([[source, target]])
                wal_before = client.stats()["mutation"]["wal_bytes"]
                result = client.compact(str(tmp_path / "compacted"))
                assert result["compacted"] is True
                assert result["generation"] == 1
                assert result["absorbed_records"] == 1
                assert result["mutation"]["absorbed_bytes"] == wal_before
                assert result["mutation"]["carried_bytes"] == 0

                mutation = client.stats()["mutation"]
                assert mutation["wal_bytes"] == 0
                assert mutation["delta_edges"] == 0
                assert mutation["compactions"] == 1
                assert mutation["last_compaction_generation"] == 1

                # The absorbed write is now baked into the adopted pair.
                row = client.request_ok("neighbors", page=source)["neighbors"]
                assert target in row
                assert source in context.backward.out_neighbors(target)

                # Writes keep flowing after the flip, logged beside the
                # *new* forward build.
                client.remove_edges([[source, target]])
                assert target not in (
                    client.request_ok("neighbors", page=source)["neighbors"]
                )
                new_wal = GraphWal.for_build(context.forward.build.root)
                assert len(new_wal.scan().records) == 1
        assert context.generation == 1

    def test_compact_rejected_without_mutation(
        self, tiny_repo, test_refinement_config, tmp_path
    ):
        context = ServeContext.build(
            tiny_repo,
            tmp_path / "immutable",
            buffer_bytes=128 * 1024,
            refinement=test_refinement_config,
        )
        try:
            daemon = GraphQueryDaemon(context, port=0, workers=2, queue_limit=8)
            with DaemonHandle(daemon) as handle:
                with ServeClient("127.0.0.1", handle.port) as client:
                    reply = client.request(
                        "compact", workdir=str(tmp_path / "never")
                    )
                    assert reply["ok"] is False
                    assert reply["error"]["type"] == protocol.ERROR_BAD_REQUEST
                    assert "requires mutation" in reply["error"]["message"]
                    assert context.generation == 0
        finally:
            context.close()
