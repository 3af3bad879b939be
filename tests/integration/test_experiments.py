"""Smoke + shape tests for every experiment driver at miniature scale.

These are the integration tests that tie the whole system together: each
paper artifact's ``run()`` must execute end-to-end and produce results of
the right structure (exact magnitudes are the benchmarks' business).
"""

from __future__ import annotations

import pytest

from repro.experiments import (  # noqa: F401  (package import sanity)
    harness,
)
from repro.experiments.harness import format_table
from repro.query.workload import PAPER_QUERIES


class TestHarness:
    def test_sweep_sizes_shape(self):
        sizes = harness.sweep_sizes()
        assert len(sizes) == 5
        assert sizes == sorted(sizes)

    def test_dataset_prefix_property(self):
        small = harness.dataset(500)
        assert small.num_pages == 500

    def test_format_table(self):
        text = format_table(["a", "bb"], [(1, 2.5), (10, 3.0)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "bb" in lines[0]


class TestScalability:
    def test_run_and_report(self):
        from repro.experiments import scalability

        points = scalability.run(sizes=[400, 800, 1200])
        assert [p.num_pages for p in points] == [400, 800, 1200]
        assert all(p.num_supernodes > 0 for p in points)
        assert all(p.supernode_graph_bytes > 0 for p in points)
        # Growth must not exceed input growth (sublinearity, coarse check).
        assert (
            points[-1].num_supernodes / points[0].num_supernodes
            <= 1200 / 400 + 0.5
        )
        text = scalability.report(points)
        assert "supernodes" in text

    def test_largest_policy(self):
        from repro.experiments import scalability

        points = scalability.run(sizes=[400], policy="largest")
        assert points[0].num_supernodes > 0


class TestCompression:
    def test_run_shape(self):
        from repro.experiments import compression

        rows, mean_degree = compression.run(sizes=[600])
        assert {r.scheme for r in rows} == {"plain-huffman", "link3", "s-node"}
        assert mean_degree > 1
        for row in rows:
            assert 0 < row.bits_per_edge_wg < 64
            assert 0 < row.bits_per_edge_wgt < 64
            assert row.max_pages_wg > 0
        by_name = {r.scheme: r for r in rows}
        # Both structured schemes must beat plain Huffman (Table 1 shape).
        assert (
            by_name["s-node"].bits_per_edge_wg
            < by_name["plain-huffman"].bits_per_edge_wg
        )
        assert (
            by_name["link3"].bits_per_edge_wg
            < by_name["plain-huffman"].bits_per_edge_wg
        )
        text = compression.report(rows, mean_degree)
        assert "bits/edge" in text


class TestAccessTime:
    def test_run_shape(self):
        from repro.experiments import access_time

        rows, histograms = access_time.run(size=500)
        # One sequential + one random distribution per scheme, populated.
        assert len(histograms) == 2 * len(rows)
        for histogram in histograms.values():
            assert histogram.count > 0
        assert {r.scheme for r in rows} == {"plain-huffman", "link3", "s-node"}
        for row in rows:
            assert row.sequential_ns_per_edge > 0
            assert row.random_ns_per_edge > 0
        by_name = {r.scheme: r for r in rows}
        # Table 2 shape: the simple Huffman decode is the fastest random
        # access among the compressed schemes.
        assert by_name["plain-huffman"].random_ns_per_edge <= min(
            by_name["link3"].random_ns_per_edge,
            by_name["s-node"].random_ns_per_edge,
        )
        assert "sequential" in access_time.report(rows)


class TestQueries:
    @pytest.fixture(scope="class")
    def experiment(self):
        from repro.experiments import queries

        return queries.run(size=900, trials=1, buffer_bytes=128 * 1024)

    def test_all_cells_measured(self, experiment):
        from repro.experiments.queries import SCHEMES

        for scheme in SCHEMES:
            for query_name, _fn in PAPER_QUERIES:
                timing = experiment.timings[(scheme, query_name)]
                assert timing.simulated_ms >= 0.0

    def test_snode_instrumentation_populated(self, experiment):
        loaded = [
            experiment.timings[("s-node", name)].snode_intranode_loaded
            for name, _fn in PAPER_QUERIES
        ]
        assert any(count > 0 for count in loaded)

    def test_reductions_computable(self, experiment):
        reductions = experiment.reduction_vs_next_best()
        assert set(reductions) == {name for name, _fn in PAPER_QUERIES}

    def test_report_renders(self, experiment):
        from repro.experiments import queries

        text = queries.report(experiment)
        assert "query1" in text and "reduction" in text


class TestBufferSweep:
    def test_run_shape(self):
        from repro.experiments import buffer_sweep

        points = buffer_sweep.run(
            size=900, buffer_sizes_kb=(8, 256), trials=1
        ).points
        # Both default schemes sweep the same grid through the one
        # set_buffer_bytes() protocol: 2 schemes x 2 sizes x 3 queries.
        assert {p.scheme for p in points} == {"s-node", "relational"}
        assert {p.query for p in points} == {"query1", "query5", "query6"}
        assert len(points) == 12
        text = buffer_sweep.report(points)
        assert "buffer" in text
        assert "relational/query1" in text

    def test_single_scheme_selection(self):
        from repro.experiments import buffer_sweep

        points = buffer_sweep.run(
            size=600, buffer_sizes_kb=(8,), trials=1, schemes=("s-node",)
        ).points
        assert {p.scheme for p in points} == {"s-node"}
        assert len(points) == 3

    def test_larger_buffer_never_much_worse(self):
        from repro.experiments import buffer_sweep

        points = buffer_sweep.run(size=900, buffer_sizes_kb=(8, 512), trials=1).points
        by_curve: dict[tuple[str, str], dict[int, float]] = {}
        for point in points:
            by_curve.setdefault((point.scheme, point.query), {})[
                point.buffer_kb
            ] = point.simulated_ms
        # Generous bound: these are single-trial wall-clock-inclusive
        # numbers, so allow scheduling jitter; the real shape claim is
        # checked by the Figure 12 benchmark at full scale.
        for curve in by_curve.values():
            assert curve[512] <= curve[8] * 3.0 + 20.0


class TestAblations:
    def test_run_shape(self):
        from repro.experiments import ablations

        rows, visits = ablations.run(size=600)
        names = [r.configuration for r in rows]
        assert "full S-Node" in names
        by_name = {r.configuration: r for r in rows}
        # Reference encoding must help (its removal may not shrink payload).
        assert (
            by_name["full S-Node"].payload_bytes
            <= by_name["no reference encoding"].payload_bytes
        )
        assert by_name["always-positive superedges"].negative_superedges == 0
        assert "bits/edge" in ablations.report(rows, visits)


class TestServeExperiment:
    def test_run_shape_with_overload_sweep(self):
        from repro.experiments import serve

        outcome = serve.run(
            size=400,
            shape=serve.LoadShape(
                concurrency=3, requests_per_client=6, workers=2, queue_limit=2
            ),
        )
        results = outcome["results"]
        assert results["matches_serial"] is True
        assert results["metrics_conserved"] is True
        assert results["requests_conserved"] is True
        assert results["attribution_conserved"] is True
        assert results["traces_propagated"] is True
        assert results["requests_ok"] == 18
        # Per-op attribution uses marker-free keys mirroring
        # counter_growth, and attributes real work to every query.
        assert set(results["attribution"]) == {
            f"query{i}" for i in range(1, 7)
        }
        for counters in results["attribution"].values():
            assert set(counters) <= {
                "bytes", "seek_count", "hits", "pinned_hits", "misses",
                "loads", "intranode", "superedge", "degraded",
            }
        assert sum(
            counters.get("hits", 0) + counters.get("misses", 0)
            for counters in results["attribution"].values()
        ) > 0
        # Wall-clock serving cost lives in benchmarks/perf, not here.
        assert not {"throughput_qps", "latency", "queue_wait"} & set(results)
        assert results["outcome_totals"]["ok"] >= 18
        # The sweep covers at, past and far past the admission limit.
        levels = results["overload"]
        assert [level["clients"] for level in levels] == [2, 4, 8]
        for level in levels:
            assert level["requests_conserved"] is True
            assert level["completed"] + level["gave_up"] == level["offered"]
            assert level["queue_wait_ms_p99"] >= 0
            assert 0 <= level["shed_rate_pct"] <= 100
        text = serve.report(results)
        assert "overload sweep" in text
        assert "requests conserved" in text
