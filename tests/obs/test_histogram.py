"""Histogram bucket boundaries and percentile correctness."""

from __future__ import annotations

import math
import random

import pytest

from repro.errors import EmptyHistogramError
from repro.obs.histogram import LatencyHistogram, HistogramSet


class TestBucketBoundaries:
    def test_underflow_bucket(self):
        histogram = LatencyHistogram(min_value=1.0, growth=2.0)
        assert histogram.bucket_index(0.0) == 0
        assert histogram.bucket_index(0.5) == 0
        assert histogram.bucket_index(1.0) == 0

    def test_exact_upper_bounds_land_in_own_bucket(self):
        histogram = LatencyHistogram(min_value=1.0, growth=2.0)
        # Bucket i (i >= 1) holds (2**(i-1), 2**i].
        assert histogram.bucket_index(2.0) == 1
        assert histogram.bucket_index(4.0) == 2
        assert histogram.bucket_index(8.0) == 3
        # Just above an upper bound spills into the next bucket.
        assert histogram.bucket_index(2.0000001) == 2
        assert histogram.bucket_index(1.5) == 1
        assert histogram.bucket_index(3.0) == 2

    def test_upper_bound_inverts_index(self):
        histogram = LatencyHistogram()
        for value in (1e-6, 3.7e-4, 0.01, 1.0, 17.0):
            index = histogram.bucket_index(value)
            assert value <= histogram.bucket_upper_bound(index) * (1 + 1e-9)
            if index > 1:
                assert value > histogram.bucket_upper_bound(index - 1) * (1 - 1e-9)

    def test_negative_values_clamp_to_zero(self):
        histogram = LatencyHistogram()
        histogram.record(-5.0)
        assert histogram.count == 1
        assert histogram.min == 0.0
        assert histogram.sum == 0.0

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            LatencyHistogram(min_value=0.0)
        with pytest.raises(ValueError):
            LatencyHistogram(growth=1.0)


class TestPercentiles:
    def test_empty_histogram_raises_typed_error(self):
        histogram = LatencyHistogram()
        with pytest.raises(EmptyHistogramError):
            histogram.percentile(50)
        for accessor in ("p50", "p90", "p99"):
            with pytest.raises(EmptyHistogramError):
                getattr(histogram, accessor)
        assert histogram.mean == 0.0

    def test_empty_histogram_serializes_placeholder(self):
        # to_dict must stay exception-free: empty percentiles are the
        # documented 0.0 placeholder with count disambiguating.
        data = LatencyHistogram().to_dict()
        assert data["count"] == 0
        assert data["p50"] == data["p90"] == data["p99"] == 0.0
        restored = LatencyHistogram.from_dict(data)
        with pytest.raises(EmptyHistogramError):
            restored.percentile(99)

    def test_single_value(self):
        histogram = LatencyHistogram()
        histogram.record(0.125)
        # With one observation every percentile is that value (the bucket
        # bound clamps to the observed max).
        for p in (0, 50, 99, 100):
            assert histogram.percentile(p) == 0.125

    def test_p100_is_exact_max(self):
        histogram = LatencyHistogram()
        values = [0.001 * i for i in range(1, 200)]
        histogram.record_many(values)
        assert histogram.percentile(100) == max(values)
        assert histogram.max == max(values)

    def test_rejects_out_of_range(self):
        histogram = LatencyHistogram()
        with pytest.raises(ValueError):
            histogram.percentile(101)
        with pytest.raises(ValueError):
            histogram.percentile(-1)

    @pytest.mark.parametrize("seed", [7, 42, 2003])
    @pytest.mark.parametrize("p", [50, 90, 99])
    def test_percentile_vs_sorted_reference(self, seed, p):
        """Reported percentile is an upper bound on the true one within
        one bucket's relative resolution (factor ``growth``)."""
        rng = random.Random(seed)
        values = [rng.lognormvariate(mu=-7.0, sigma=2.0) for _ in range(5000)]
        histogram = LatencyHistogram()
        histogram.record_many(values)
        ordered = sorted(values)
        rank = max(1, math.ceil(p / 100.0 * len(ordered)))
        true_value = ordered[rank - 1]
        reported = histogram.percentile(p)
        assert reported >= true_value * (1 - 1e-9)
        assert reported <= true_value * histogram.growth * (1 + 1e-9)

    def test_mean_and_sum_are_exact(self):
        histogram = LatencyHistogram()
        values = [0.5, 1.5, 2.0]
        histogram.record_many(values)
        assert histogram.sum == pytest.approx(4.0)
        assert histogram.mean == pytest.approx(4.0 / 3.0)


class TestMergeAndSerialization:
    def test_merge_matches_combined_recording(self):
        rng = random.Random(11)
        values_a = [rng.random() for _ in range(300)]
        values_b = [rng.random() * 10 for _ in range(200)]
        merged = LatencyHistogram()
        merged.record_many(values_a)
        other = LatencyHistogram()
        other.record_many(values_b)
        merged.merge(other)
        reference = LatencyHistogram()
        reference.record_many(values_a + values_b)
        assert merged.count == reference.count
        assert merged.sum == pytest.approx(reference.sum)
        assert merged.min == reference.min
        assert merged.max == reference.max
        for p in (50, 90, 99):
            assert merged.percentile(p) == reference.percentile(p)

    def test_merge_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            LatencyHistogram(growth=2.0).merge(LatencyHistogram(growth=4.0))

    def test_round_trip(self):
        histogram = LatencyHistogram()
        histogram.record_many([1e-6, 3e-4, 0.02, 0.02, 1.5])
        restored = LatencyHistogram.from_dict(histogram.to_dict())
        assert restored.count == histogram.count
        assert restored.min == histogram.min
        assert restored.max == histogram.max
        assert restored.sum == pytest.approx(histogram.sum)
        for p in (50, 90, 99, 100):
            assert restored.percentile(p) == histogram.percentile(p)

    def test_to_dict_includes_headline_percentiles(self):
        histogram = LatencyHistogram()
        histogram.record(0.25)
        data = histogram.to_dict()
        assert data["p50"] == histogram.p50
        assert data["p99"] == histogram.p99
        assert data["buckets"]  # str keys, JSON-safe
        assert all(isinstance(k, str) for k in data["buckets"])


class TestHistogramSet:
    def test_get_creates_and_reuses(self):
        hset = HistogramSet()
        first = hset.get("out_neighborhood")
        first.record(0.1)
        assert hset.get("out_neighborhood") is first
        assert "out_neighborhood" in hset
        assert len(hset) == 1

    def test_observe_and_names(self):
        hset = HistogramSet()
        hset.observe("b_op", 0.1)
        hset.observe("a_op", 0.2)
        assert hset.names() == ["a_op", "b_op"]

    def test_round_trip(self):
        hset = HistogramSet()
        hset.observe("x", 0.5)
        hset.observe("x", 1.5)
        hset.observe("y", 0.01)
        restored = HistogramSet.from_dict(hset.to_dict())
        assert restored.names() == ["x", "y"]
        assert restored.get("x").count == 2
        assert restored.get("y").max == hset.get("y").max

    def test_clear(self):
        hset = HistogramSet()
        hset.observe("x", 1.0)
        hset.clear()
        assert len(hset) == 0
