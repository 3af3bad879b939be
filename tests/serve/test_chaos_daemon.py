"""Graceful degradation served through the daemon path.

A corrupt region under ``on_corruption="degrade"`` must surface to a
network client as a typed **degraded** success — quarantined region,
empty rows, honest outcome — never as an error reply or a dropped
connection.
"""

from __future__ import annotations

import shutil
import threading

import pytest

from repro.serve import protocol
from repro.serve.daemon import DaemonHandle, GraphQueryDaemon, ServeContext
from repro.serve.loadgen import ServeClient
from repro.serve.telemetry import DELTA_COUNTERS
from repro.storage import faults


@pytest.fixture
def corrupted_pair(tiny_repo, test_refinement_config, tmp_path):
    """Committed serve_f/serve_b directories with every region flipped."""
    from repro.storage.faults import corrupt_snode_regions

    pristine = ServeContext.build(
        tiny_repo,
        tmp_path / "pristine",
        buffer_bytes=128 * 1024,
        refinement=test_refinement_config,
    )
    pristine.close()
    chaos = tmp_path / "chaos"
    for name in ("serve_f", "serve_b"):
        shutil.copytree(tmp_path / "pristine" / name, chaos / name)
        corrupt_snode_regions(chaos / name, seed=29)
    return chaos


class TestDegradeThroughDaemon:
    def test_corrupt_region_serves_degraded_reply(
        self, tiny_repo, corrupted_pair
    ):
        context = ServeContext.open(
            tiny_repo,
            corrupted_pair,
            buffer_bytes=128 * 1024,
            on_corruption="degrade",
        )
        try:
            daemon = GraphQueryDaemon(
                context, port=0, workers=2, queue_limit=8
            )
            with DaemonHandle(daemon) as handle:
                with ServeClient("127.0.0.1", handle.port) as client:
                    reply = client.request("query", name="query1")
                    # Served, not failed — and honestly marked.
                    assert reply["ok"] is True
                    assert reply["server"]["outcome"] == "degraded"
                    assert reply["server"]["counters"]["degraded_reads"] > 0
                    # The connection survives and the same query answers
                    # again, now off the quarantine list.
                    again = client.request("query", name="query1")
                    assert again["ok"] is True
                    assert again["server"]["outcome"] == "degraded"
                    stats = client.stats()
            shared = stats["shared"]
            quarantined = sum(
                direction.get("regions_quarantined", 0)
                for direction in shared.values()
            )
            degraded = sum(
                direction.get("degraded_reads", 0)
                for direction in shared.values()
            )
            assert quarantined > 0
            assert degraded > 0
            assert stats["daemon"]["requests_failed"] == 0
            # Degraded requests count as served in the daemon totals;
            # telemetry tracks the degraded outcome separately.
            assert stats["daemon"]["requests_ok"] >= 2
            snapshot = daemon.telemetry.snapshot()
            assert snapshot["outcomes"]["degraded"]["total"] >= 2
        finally:
            context.close()

    def test_neighbors_degrades_too(self, tiny_repo, corrupted_pair):
        context = ServeContext.open(
            tiny_repo,
            corrupted_pair,
            buffer_bytes=128 * 1024,
            on_corruption="degrade",
        )
        try:
            daemon = GraphQueryDaemon(
                context, port=0, workers=2, queue_limit=8
            )
            with DaemonHandle(daemon) as handle:
                with ServeClient("127.0.0.1", handle.port) as client:
                    # Pages in supernodes without intranode edges have
                    # no region to corrupt; scan until one degrades.
                    degraded = None
                    for page in range(context.repository.num_pages):
                        reply = client.request("neighbors", page=page)
                        assert reply["ok"] is True
                        if reply["server"]["outcome"] == "degraded":
                            degraded = reply
                            break
                    assert degraded is not None
                    # Intranode rows are quarantined to empty; superedge
                    # regions are untouched, so the row may keep its
                    # cross-supernode edges — degraded, not invented.
                    assert isinstance(degraded["result"]["neighbors"], list)
                    assert client.ping() is True
        finally:
            context.close()

    def test_raise_mode_fails_the_request_not_the_connection(
        self, tiny_repo, corrupted_pair
    ):
        context = ServeContext.open(
            tiny_repo,
            corrupted_pair,
            buffer_bytes=128 * 1024,
            on_corruption="raise",
        )
        try:
            daemon = GraphQueryDaemon(
                context, port=0, workers=2, queue_limit=8
            )
            with DaemonHandle(daemon) as handle:
                with ServeClient("127.0.0.1", handle.port) as client:
                    reply = client.request("query", name="query1")
                    assert reply["ok"] is False
                    assert reply["error"]["type"] == protocol.ERROR_BAD_REQUEST
                    assert "checksum mismatch" in reply["error"]["message"]
                    assert client.ping() is True
        finally:
            context.close()

    def test_engine_construction_preserves_store_policy(
        self, tiny_repo, corrupted_pair
    ):
        # Regression: QueryEngine pushes its own on_corruption default
        # onto the stores it reads; make_engine must thread the serving
        # policy through or every new client silently flips the shared
        # stores back to raise mode.
        context = ServeContext.open(
            tiny_repo,
            corrupted_pair,
            buffer_bytes=128 * 1024,
            on_corruption="degrade",
        )
        try:
            engine = context.make_engine("client-1")
            try:
                assert context.forward.store.on_corruption == "degrade"
                assert context.backward.store.on_corruption == "degrade"
            finally:
                engine.close()
        finally:
            context.close()


class TestInlineRepliesUnderChaos:
    def test_lookups_conserve_and_none_fail(self, tiny_repo, corrupted_pair):
        """Four clients look every page up twice over corrupt regions and
        transient EIO: worker-pool replies, inline replies and degraded
        ones mix, every request answers, and request -> session -> store
        accounting still sums."""
        context = ServeContext.open(
            tiny_repo,
            corrupted_pair,
            buffer_bytes=128 * 1024,
            on_corruption="degrade",
        )
        pages = range(tiny_repo.num_pages)
        attributed = [dict.fromkeys(DELTA_COUNTERS, 0) for _ in range(4)]
        sessions: list = [None] * 4
        outcomes: list = [[] for _ in range(4)]

        def client_loop(index: int, port: int) -> None:
            with ServeClient("127.0.0.1", port) as client:
                for page in list(pages[index::4]) * 2:
                    reply = client.request("neighbors", page=page)
                    outcomes[index].append((reply["ok"], reply["server"]["outcome"]))
                    for name, value in reply["server"]["counters"].items():
                        attributed[index][name] += value
                sessions[index] = client.stats()["client"]

        plan = faults.FaultPlan(seed=11, eio_rate=0.02)
        try:
            daemon = GraphQueryDaemon(context, port=0, workers=2, queue_limit=8)
            with faults.activated(plan), DaemonHandle(daemon) as handle:
                threads = [
                    threading.Thread(target=client_loop, args=(index, handle.port))
                    for index in range(4)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(120)
                assert not any(thread.is_alive() for thread in threads)
                with ServeClient("127.0.0.1", handle.port) as client:
                    stats = client.stats()
        finally:
            context.close()
        flat = [outcome for per_client in outcomes for outcome in per_client]
        assert len(flat) == 2 * tiny_repo.num_pages
        assert all(ok for ok, _outcome in flat)
        assert "degraded" in {outcome for _ok, outcome in flat} <= {"ok", "degraded"}
        assert stats["daemon"]["requests_failed"] == 0
        assert 0 < stats["daemon"]["inline_replies"] <= len(flat)
        for index in range(4):
            assert attributed[index] == {
                name: sum(int(d.get(name, 0)) for d in sessions[index].values())
                for name in DELTA_COUNTERS
            }
        # The four sessions have closed: the store totals are their sum.
        for name in DELTA_COUNTERS:
            assert sum(
                int(direction.get(name, 0)) for direction in stats["shared"].values()
            ) == sum(per_client[name] for per_client in attributed)
