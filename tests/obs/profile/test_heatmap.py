"""Hot-set heatmaps: per-kind rankings, supernode folding, skew, exports."""

from repro.obs.profile.heatmap import AccessHeatmap, _default_node_of
from repro.obs.profile.trace import AccessTracer


def _trace():
    tracer = AccessTracer()
    # Supernode 3 is hot: intranode twice, superedge once.
    tracer.record_buffer(1, ("intra", 3), "intranode", hit=False, pinned=False)
    tracer.record_admit(1, ("intra", 3), "intranode", 64)
    tracer.record_buffer(1, ("intra", 3), "intranode", hit=True, pinned=False)
    tracer.record_buffer(2, ("super", 3, 5), "superedge", hit=False, pinned=False)
    tracer.record_buffer(1, ("intra", 7), "intranode", hit=False, pinned=False)
    tracer.record_buffer(1, "mapping", None, hit=True, pinned=True)
    tracer.record_page("pages.dat", 0)
    tracer.record_page("pages.dat", 0)
    tracer.record_page("pages.dat", 4)
    return tracer


class TestNodeExtraction:
    def test_structured_keys_yield_their_supernode(self):
        assert _default_node_of(("intra", 3)) == 3
        assert _default_node_of(("super", 3, 5)) == 3

    def test_unstructured_keys_yield_none(self):
        assert _default_node_of("mapping") is None
        assert _default_node_of(("page", "file.dat")) is None
        assert _default_node_of((7,)) is None


class TestAccessHeatmap:
    def test_counts_unpinned_accesses_by_kind(self):
        heatmap = AccessHeatmap.from_events(_trace().buffer_events())
        assert heatmap.accesses == 4
        assert heatmap.pinned_accesses == 1
        assert heatmap.by_kind["intranode"][("intra", 3)] == 2
        assert heatmap.by_kind["superedge"][("super", 3, 5)] == 1

    def test_top_per_kind(self):
        heatmap = AccessHeatmap.from_events(_trace().buffer_events())
        assert heatmap.top("intranode", 1) == [(("intra", 3), 2)]
        assert heatmap.top("missing-kind") == []

    def test_hot_supernodes_fold_across_kinds(self):
        heatmap = AccessHeatmap.from_events(_trace().buffer_events())
        assert heatmap.hot_supernodes(2) == [(3, 3), (7, 1)]

    def test_hot_pages_from_io_stream(self):
        tracer = _trace()
        heatmap = AccessHeatmap.from_events(
            tracer.buffer_events(), tracer.io_events()
        )
        hot_pages = heatmap.to_dict(top_k=1)["hot_pages"]
        assert hot_pages == {"pages.dat": [{"page": 0, "reads": 2}]}

    def test_skew_shares(self):
        heatmap = AccessHeatmap.from_events(_trace().buffer_events())
        skew = heatmap.skew()
        assert skew["distinct_keys"] == 3
        assert skew["top1_share"] == 2 / 4
        assert skew["top10pct_share"] == 2 / 4  # top 10% of 3 keys = 1 key

    def test_working_set_curve_is_cumulative(self):
        heatmap = AccessHeatmap.from_events(_trace().buffer_events())
        curve = heatmap.working_set_curve()
        assert curve[0] == {"keys": 1, "fraction": 2 / 4}
        assert curve[-1] == {"keys": 3, "fraction": 1.0}

    def test_empty_heatmap(self):
        heatmap = AccessHeatmap.from_events(())
        assert heatmap.working_set_curve() == []
        assert heatmap.skew()["distinct_keys"] == 0
        assert heatmap.hot_supernodes() == []
        assert heatmap.render() == "(no buffer accesses recorded)"


class TestExport:
    def test_to_dict_shape(self):
        tracer = _trace()
        payload = AccessHeatmap.from_events(
            tracer.buffer_events(), tracer.io_events()
        ).to_dict(top_k=2)
        assert payload["accesses"] == 4
        assert payload["pinned_accesses"] == 1
        assert payload["by_kind"]["intranode"]["top"][0] == {
            "key": ["intra", 3],
            "count": 2,
        }
        assert payload["hot_supernodes"][0] == {"supernode": 3, "accesses": 3}
        assert payload["hot_pages"]["pages.dat"][0] == {"page": 0, "reads": 2}
        assert payload["working_set_curve"][-1]["fraction"] == 1.0

    def test_render_mentions_hot_supernodes(self):
        text = AccessHeatmap.from_events(_trace().buffer_events()).render()
        assert "hot supernodes" in text
        assert "s3x3" in text
