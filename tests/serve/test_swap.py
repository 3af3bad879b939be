"""Hot store swap: validation, atomic adoption, serving continuity."""

from __future__ import annotations

import json
import shutil

import pytest

from repro.serve import protocol
from repro.serve.daemon import DaemonHandle, GraphQueryDaemon, ServeContext
from repro.serve.loadgen import DEFAULT_MIX, ServeClient
from repro.storage import faults


@pytest.fixture
def swap_env(tiny_repo, test_refinement_config, tmp_path):
    """A private serving context plus a byte-identical replacement pair.

    Private because a swap retires the original stores — the shared
    session-scoped context must not be mutated under other tests.
    """
    context = ServeContext.build(
        tiny_repo,
        tmp_path / "primary",
        buffer_bytes=128 * 1024,
        refinement=test_refinement_config,
    )
    replacement = ServeContext.build(
        tiny_repo,
        tmp_path / "replacement",
        buffer_bytes=128 * 1024,
        refinement=test_refinement_config,
    )
    replacement.close()  # only its committed directories are needed
    yield context, tmp_path / "replacement", tmp_path
    context.close()


class TestSwapOp:
    def test_swap_preserves_results_and_connection(self, swap_env):
        context, replacement, _tmp = swap_env
        daemon = GraphQueryDaemon(context, port=0, workers=2, queue_limit=8)
        with DaemonHandle(daemon) as handle:
            with ServeClient("127.0.0.1", handle.port) as client:
                before = {
                    name: client.request_ok("query", name=name)["digest"]
                    for name in DEFAULT_MIX[:3]
                }
                result = client.swap(str(replacement))
                assert result["swapped"] is True
                assert result["generation"] == 1
                # Same connection, sessions rebuilt lazily: answers are
                # digest-identical off the new pair.
                after = {
                    name: client.request_ok("query", name=name)["digest"]
                    for name in DEFAULT_MIX[:3]
                }
                assert after == before
                stats = client.stats()
        assert context.generation == 1
        assert stats["daemon"]["store_swaps"] == 1
        assert stats["daemon"]["requests_failed"] == 0

    def test_swap_rejects_corrupt_candidate(self, swap_env):
        context, replacement, tmp_path = swap_env
        corrupt = tmp_path / "corrupt"
        for name in ("serve_f", "serve_b"):
            shutil.copytree(replacement / name, corrupt / name)
            faults.corrupt_snode_regions(corrupt / name, limit=2, seed=3)
        daemon = GraphQueryDaemon(context, port=0, workers=2, queue_limit=8)
        with DaemonHandle(daemon) as handle:
            with ServeClient("127.0.0.1", handle.port) as client:
                reply = client.request("swap", workdir=str(corrupt))
                assert reply["ok"] is False
                assert reply["error"]["type"] == protocol.ERROR_BAD_REQUEST
                assert "swap rejected" in reply["error"]["message"]
                # The old pair keeps serving, untouched.
                assert context.generation == 0
                assert client.request_ok("query", name="query1")["digest"]

    def test_swap_rejects_partial_build(self, swap_env):
        context, replacement, tmp_path = swap_env
        partial = tmp_path / "partial"
        for name in ("serve_f", "serve_b"):
            shutil.copytree(replacement / name, partial / name)
        manifest = partial / "serve_f" / "manifest.json"
        data = json.loads(manifest.read_text())
        data["digest"] = "0" * 16
        manifest.write_text(json.dumps(data))
        daemon = GraphQueryDaemon(context, port=0, workers=2, queue_limit=8)
        with DaemonHandle(daemon) as handle:
            with ServeClient("127.0.0.1", handle.port) as client:
                reply = client.request("swap", workdir=str(partial))
                assert reply["ok"] is False
                assert reply["error"]["type"] == protocol.ERROR_BAD_REQUEST
                assert context.generation == 0
                assert client.ping() is True

    def test_swap_rejects_missing_directory(self, swap_env):
        context, _replacement, tmp_path = swap_env
        daemon = GraphQueryDaemon(context, port=0, workers=2, queue_limit=8)
        with DaemonHandle(daemon) as handle:
            with ServeClient("127.0.0.1", handle.port) as client:
                reply = client.request(
                    "swap", workdir=str(tmp_path / "nowhere")
                )
                assert reply["ok"] is False
                assert reply["error"]["type"] == protocol.ERROR_BAD_REQUEST
                assert client.ping() is True

    def test_swap_needs_a_workdir(self, swap_env):
        context, _replacement, _tmp = swap_env
        daemon = GraphQueryDaemon(context, port=0, workers=2, queue_limit=8)
        with DaemonHandle(daemon) as handle:
            with ServeClient("127.0.0.1", handle.port) as client:
                for bad in (None, "", 7):
                    reply = client.request("swap", workdir=bad)
                    assert reply["ok"] is False
                    assert reply["error"]["type"] == protocol.ERROR_BAD_REQUEST
