"""Delta overlay: merge semantics, WAL replay, store-level equivalence."""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

from repro.errors import StorageError
from repro.snode.delta import DeltaOverlay, merged_repository
from repro.snode.store import SNodeStore
from repro.storage.metrics import MetricsRegistry
from repro.storage.wal import GraphWal

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "util"))
from oracle_loader import paper_scan  # noqa: E402


class TestOverlaySemantics:
    def test_add_remove_last_op_wins(self):
        overlay = DeltaOverlay()
        overlay.apply("add", [(1, 5), (1, 6)])
        overlay.apply("remove", [(1, 5), (1, 2)])
        overlay.apply("add", [(1, 2)])  # re-added: add wins
        assert overlay.merge(1, [2, 3, 5]) == [2, 3, 6]
        assert overlay.merge(0, [7, 8]) == [7, 8]  # untouched passthrough

    def test_merge_is_base_minus_removed_plus_added(self):
        rng = random.Random(11)
        overlay = DeltaOverlay()
        base = sorted(rng.sample(range(200), 40))
        removed = rng.sample(base, 10)
        added = [t for t in rng.sample(range(200, 300), 12)]
        overlay.apply("remove", [(3, t) for t in removed])
        overlay.apply("add", [(3, t) for t in added])
        expected = sorted((set(base) - set(removed)) | set(added))
        assert overlay.merge(3, base) == expected

    def test_transpose_overlay_flips_edges(self):
        forward = DeltaOverlay()
        backward = DeltaOverlay(transpose=True)
        for overlay in (forward, backward):
            overlay.apply("add", [(4, 9)])
            overlay.apply("remove", [(8, 4)])
        assert forward.merge(4, []) == [9]
        assert forward.merge(8, [4]) == []
        assert backward.merge(9, []) == [4]  # 4->9 seen from the target
        assert backward.merge(4, [8]) == []  # 8->4 removed, flipped

    def test_counters_charged_only_on_real_merges(self):
        overlay = DeltaOverlay()
        overlay.apply("add", [(2, 7)])
        overlay.apply("remove", [(2, 1)])
        registry = MetricsRegistry()
        overlay.merge(0, [1, 2], registry)  # no delta: uncharged
        assert registry.get("delta_merges") == 0
        overlay.merge(2, [1, 3], registry)
        assert registry.get("delta_merges") == 1
        assert registry.get("delta_merge_edges") == 2  # one removed + one added

    def test_introspection_and_bad_op(self):
        overlay = DeltaOverlay()
        assert overlay.row_count == 0
        overlay.apply("add", [(0, 1), (5, 2)])
        assert overlay.edge_count == 2
        assert overlay.row_count == 2
        with pytest.raises(StorageError):
            overlay.apply("merge", [(0, 1)])


class TestWalReplay:
    def test_replay_reproduces_applied_state(self, tmp_path):
        wal = GraphWal(tmp_path / "graph.wal")
        live = DeltaOverlay()
        batches = [
            ("add", [(0, 3), (1, 4)]),
            ("remove", [(0, 3), (2, 2)]),
            ("add", [(2, 2), (2, 9)]),
        ]
        for op, edges in batches:
            wal.append(op, edges)
            live.apply(op, edges)
        replayed, scan = DeltaOverlay.replay(wal)
        assert len(scan.records) == len(batches)
        for source in (0, 1, 2):
            for base in ([], [2, 3, 4], [9]):
                assert replayed.merge(source, base) == live.merge(source, base)

    def test_replay_drops_torn_tail(self, tmp_path):
        wal = GraphWal(tmp_path / "graph.wal")
        wal.append("add", [(0, 1)])
        wal.path.write_bytes(wal.path.read_bytes() + b"\x42phantom")
        overlay, scan = DeltaOverlay.replay(wal)
        assert scan.torn
        assert overlay.merge(0, []) == [1]
        assert overlay.row_count == 1  # nothing resurrected from the tear


class TestStoreEquivalence:
    """Overlay-merged reads equal ground truth through the real store."""

    @pytest.fixture()
    def mutated(self, tiny_repo, small_build, small_repo):
        """Seeded add/remove batches plus the expected adjacency."""
        rng = random.Random(23)
        n = small_repo.num_pages
        removed = []
        for source in rng.sample(range(n), 25):
            row = small_repo.graph.successors_list(source)
            if row:
                removed.append((source, rng.choice(row)))
        added = []
        while len(added) < 30:
            source, target = rng.randrange(n), rng.randrange(n)
            if source != target and not small_repo.graph.has_edge(source, target):
                added.append((source, target))
        expected = {
            page: sorted(
                (set(small_repo.graph.successors_list(page))
                 - {t for s, t in removed if s == page})
                | {t for s, t in added if s == page}
            )
            for page in range(n)
        }
        return removed, added, expected

    def test_representation_and_session_merge(self, small_build, mutated):
        from repro.baselines import SNodeRepresentation

        removed, added, expected = mutated
        representation = SNodeRepresentation(small_build)
        overlay = DeltaOverlay()
        overlay.apply("remove", removed)
        overlay.apply("add", added)
        representation.attach_overlay(overlay)
        try:
            probes = sorted({s for s, _ in removed + added})[:40] + [0, 1]
            for page in probes:
                assert representation.out_neighbors(page) == expected[page]
            many = representation.out_neighbors_many(probes)
            assert many == {page: expected[page] for page in probes}
            # Sessions pick the overlay up dynamically and charge their
            # own registry.
            session = representation.session("delta-test")
            try:
                for page in probes:
                    assert session.out_neighbors(page) == expected[page]
                assert session.metrics.get("delta_merges") > 0
            finally:
                session.close()
            # iterate_all merges too (compaction's input path).
            assert {
                page: row for page, row in representation.iterate_all()
            } == expected
        finally:
            representation.attach_overlay(None)

    def test_merged_repository_matches_expected(
        self, small_repo, small_build, mutated
    ):
        from repro.baselines import SNodeRepresentation

        removed, added, expected = mutated
        overlay = DeltaOverlay()
        overlay.apply("remove", removed)
        overlay.apply("add", added)
        base = SNodeRepresentation(small_build)
        try:
            merged = merged_repository(small_repo, base, overlay)
        finally:
            base.attach_overlay(None)
        assert merged.num_pages == small_repo.num_pages
        for page in range(merged.num_pages):
            assert merged.graph.successors_list(page) == expected[page]

    def test_compaction_input_and_the_global_graph_ride_the_scan(
        self, small_repo, small_build, mutated
    ):
        """Compaction's ``merged_repository`` over a base opened with a
        16 KiB pool, and ``load_digraph``, equal the paper scan's graph;
        both read every payload byte once and move no pool counter."""
        from repro.baselines import SNodeRepresentation

        removed, added, expected = mutated
        overlay = DeltaOverlay()
        overlay.apply("remove", removed)
        overlay.apply("add", added)
        with SNodeStore(small_build.root, buffer_bytes=16 * 1024) as oracle:
            paper = dict(paper_scan(oracle))
            new_to_old = oracle.new_to_old
        assert {
            new_to_old[new]: overlay.merge(new_to_old[new], sorted(new_to_old[t] for t in row))
            for new, row in paper.items()
        } == expected

        base = SNodeRepresentation.open(small_build.root, buffer_bytes=16 * 1024)
        store = base.store
        try:
            merged = merged_repository(small_repo, base, overlay)
            graph = store.load_digraph()
            assert [merged.graph.successors_list(page) for page in range(small_repo.num_pages)] == [
                expected[page] for page in range(small_repo.num_pages)
            ]
            assert [graph.successors_list(page) for page in range(store.num_pages)] == [
                paper[page] for page in range(store.num_pages)
            ]
            assert store.metrics.snapshot() == {
                "bytes_read": 2 * store.manifest["payload_bytes"],
                "disk_seeks": 2 * len(store._layout.index_files),
            }
            assert store.buffer_stats()["entries"] == 0
        finally:
            base.close()
