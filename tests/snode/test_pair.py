"""Tests for the bidirectional SNodePair convenience."""

from __future__ import annotations

from repro.index import PageRankIndex, TextIndex
from repro.snode.pair import SNodePair


class TestSNodePair:
    def test_both_directions_correct(self, tiny_repo, tmp_path):
        with SNodePair.build(tiny_repo, tmp_path) as pair:
            transpose = tiny_repo.graph.transpose()
            for page in range(0, tiny_repo.num_pages, 17):
                assert pair.out_neighbors(page) == tiny_repo.graph.successors_list(
                    page
                )
                assert pair.in_neighbors(page) == [
                    int(t) for t in transpose.successors(page)
                ]

    def test_engine_wiring(self, tiny_repo, tmp_path):
        from repro.query.workload import query3_kleinberg_base_set

        with SNodePair.build(tiny_repo, tmp_path) as pair:
            engine = pair.make_engine(
                tiny_repo, TextIndex(tiny_repo), PageRankIndex(tiny_repo)
            )
            result = query3_kleinberg_base_set(engine)
            assert result.payload["base_set_size"] >= result.payload["roots"]

    def test_bits_per_edge_pair(self, tiny_repo, tmp_path):
        with SNodePair.build(tiny_repo, tmp_path) as pair:
            wg, wgt = pair.total_bits_per_edge()
            assert wg > 0 and wgt > 0

    def test_reset_stats(self, tiny_repo, tmp_path):
        with SNodePair.build(tiny_repo, tmp_path) as pair:
            pair.out_neighbors(0)
            pair.in_neighbors(0)
            assert pair.forward.metrics.get("loads") > 0
            pair.reset_stats()
            assert pair.forward.io_stats() == {}
            assert pair.backward.io_stats() == {}

    def test_directory_layout(self, tiny_repo, tmp_path):
        with SNodePair.build(tiny_repo, tmp_path):
            assert (tmp_path / "wg" / "manifest.json").exists()
            assert (tmp_path / "wgt" / "manifest.json").exists()
