"""Pure-unit tests for experiment helper logic (no heavy builds)."""

from __future__ import annotations

import pytest

from repro.experiments.queries import (
    SCHEMES,
    QueryExperiment,
    QueryTiming,
)
from repro.query.workload import PAPER_QUERIES


def make_experiment(snode_ms: float, others_ms: float) -> QueryExperiment:
    experiment = QueryExperiment(num_pages=1000, buffer_bytes=1024)
    for scheme in SCHEMES:
        for query_name, _fn in PAPER_QUERIES:
            ms = snode_ms if scheme == "s-node" else others_ms
            experiment.timings[(scheme, query_name)] = QueryTiming(
                wall_ms=ms,
                simulated_ms=ms,
                disk_seeks=1,
                bytes_read=100,
            )
    return experiment


class TestReductionTable:
    def test_uniform_advantage(self):
        experiment = make_experiment(snode_ms=10.0, others_ms=100.0)
        reductions = experiment.reduction_vs_next_best()
        assert all(value == pytest.approx(90.0) for value in reductions.values())

    def test_snode_slower_gives_negative_reduction(self):
        experiment = make_experiment(snode_ms=200.0, others_ms=100.0)
        reductions = experiment.reduction_vs_next_best()
        assert all(value == pytest.approx(-100.0) for value in reductions.values())

    def test_zero_baseline_handled(self):
        experiment = make_experiment(snode_ms=0.0, others_ms=0.0)
        reductions = experiment.reduction_vs_next_best()
        assert all(value == 0.0 for value in reductions.values())

    def test_covers_every_query(self):
        experiment = make_experiment(10.0, 20.0)
        assert set(experiment.reduction_vs_next_best()) == {
            name for name, _fn in PAPER_QUERIES
        }


class TestCompressionArithmetic:
    def test_eight_gb_extrapolation_matches_paper_formula(self):
        # Paper: 15.2 bits/edge at mean degree 14 -> ~323M pages in 8 GB.
        from repro.experiments.compression import MEMORY_BYTES

        bits_per_edge = 15.2
        mean_degree = 14.0
        max_pages = int(MEMORY_BYTES * 8 / (mean_degree * bits_per_edge))
        assert 300_000_000 < max_pages < 340_000_000


class TestHarnessScaling:
    def test_scale_factor_env(self, monkeypatch):
        from repro.experiments import harness

        monkeypatch.setenv("REPRO_SCALE", "2.5")
        assert harness.scale_factor() == 2.5

    def test_invalid_scale_warns_and_names_value(self, monkeypatch):
        from repro.experiments import harness

        monkeypatch.setenv("REPRO_SCALE", "bogus")
        with pytest.warns(RuntimeWarning, match="bogus"):
            assert harness.scale_factor() == 1.0

    @pytest.mark.parametrize("raw", ["0", "-1", "-0.5"])
    def test_nonpositive_scale_rejected(self, monkeypatch, raw):
        from repro.errors import ReproError
        from repro.experiments import harness

        monkeypatch.setenv("REPRO_SCALE", raw)
        with pytest.raises(ReproError, match="positive"):
            harness.scale_factor()

    def test_master_size_floor(self, monkeypatch):
        from repro.experiments import harness

        monkeypatch.setenv("REPRO_SCALE", "0.000001")
        assert harness.master_size() == 1000

    def test_sweep_shape_matches_paper(self, monkeypatch):
        from repro.experiments import harness

        monkeypatch.setenv("REPRO_SCALE", "1")
        sizes = harness.sweep_sizes()
        assert len(sizes) == 5
        # The paper's 25/50/75/100/115M shape: roughly equal increments.
        ratios = [sizes[i + 1] / sizes[i] for i in range(4)]
        assert all(1.1 < r <= 2.1 for r in ratios)


class TestBufferSweepReport:
    def test_skipped_point_renders_as_dash(self):
        """A scheme whose pinned floor exceeds the smallest buffer has no
        point there; the other curve does."""
        from repro.experiments.buffer_sweep import SweepPoint, report

        def point(scheme: str, buffer_kb: int, ms: float) -> SweepPoint:
            return SweepPoint(scheme, "query1", buffer_kb, ms, ms, evictions=0)

        points = [point("relational", kb, ms) for kb, ms in ((16, 9.0), (64, 4.0), (256, 4.0))]
        points += [point("s-node", kb, ms) for kb, ms in ((64, 30.0), (256, 3.0))]
        text = report(points)
        row_16 = next(line for line in text.splitlines() if "16 KiB" in line)
        assert "9.0" in row_16 and "—" in row_16
        assert "relational/query1: flattens" in text
        assert "s-node/query1: still falling" in text
