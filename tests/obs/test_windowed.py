"""Tests for time-windowed histograms and counters (fake clock)."""

from __future__ import annotations

import pytest

from repro.errors import EmptyHistogramError
from repro.obs.histogram import LatencyHistogram
from repro.obs.windowed import (
    WindowedCounter,
    WindowedHistogram,
    WindowedHistogramSet,
)


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestWindowedHistogram:
    def test_records_land_in_current_window_and_cumulative(self):
        clock = FakeClock()
        windowed = WindowedHistogram(window_seconds=10.0, windows=3, clock=clock)
        windowed.record(0.010)
        windowed.record(0.020)
        assert windowed.snapshot().count == 2
        assert windowed.cumulative.count == 2

    def test_rotation_drops_old_windows_from_snapshot(self):
        clock = FakeClock()
        windowed = WindowedHistogram(window_seconds=10.0, windows=2, clock=clock)
        windowed.record(0.010)
        clock.advance(10.0)
        windowed.record(0.020)
        assert windowed.snapshot().count == 2  # both windows still live
        clock.advance(10.0)
        # Window 0 is now beyond the 2-window horizon.
        assert windowed.snapshot().count == 1
        assert windowed.cumulative.count == 2

    def test_on_rotate_receives_closed_windows(self):
        clock = FakeClock()
        closed: list[tuple[int, LatencyHistogram]] = []
        windowed = WindowedHistogram(
            window_seconds=10.0,
            windows=1,
            clock=clock,
            on_rotate=lambda index, hist: closed.append((index, hist)),
        )
        windowed.record(0.010)
        clock.advance(10.0)
        windowed.record(0.020)
        assert [index for index, _ in closed] == [0]
        assert closed[0][1].count == 1

    def test_windowed_merge_equals_cumulative_bit_for_bit(self):
        """The conservation property: closed + live == cumulative."""
        clock = FakeClock()
        closed: list[LatencyHistogram] = []
        windowed = WindowedHistogram(
            window_seconds=5.0,
            windows=3,
            clock=clock,
            on_rotate=lambda _index, hist: closed.append(hist),
        )
        # Dyadic values sum exactly in any order, so the equality below
        # is genuinely bit-for-bit (including the float sum/mean).
        values = [2.0**-10, 2.0**-8, 2.0**-6, 2.0**-4, 2.0**-2, 1.0, 4.0]
        for step, value in enumerate(values):
            windowed.record(value)
            windowed.record(value * 4)
            clock.advance(5.0 if step % 2 else 7.5)
        # Snapshot first: it closes anything past the horizon (feeding
        # ``closed``), so closed + live covers every observation.
        live = windowed.snapshot()
        merged = LatencyHistogram(windowed.min_value, windowed.growth)
        for histogram in closed:
            merged.merge(histogram)
        merged.merge(live)
        assert merged.to_dict() == windowed.cumulative.to_dict()

    def test_empty_snapshot_raises_on_percentile(self):
        windowed = WindowedHistogram(clock=FakeClock())
        with pytest.raises(EmptyHistogramError):
            windowed.snapshot().percentile(50)

    def test_to_dict_carries_both_views(self):
        clock = FakeClock()
        windowed = WindowedHistogram(window_seconds=10.0, windows=2, clock=clock)
        windowed.record(0.010)
        clock.advance(25.0)  # the only window has rotated out
        data = windowed.to_dict()
        assert data["window_seconds"] == 10.0
        assert data["windows"] == 2
        assert data["windowed"]["count"] == 0
        assert data["cumulative"]["count"] == 1

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            WindowedHistogram(window_seconds=0)
        with pytest.raises(ValueError):
            WindowedHistogram(windows=0)


class TestWindowedCounter:
    def test_total_survives_rotation_windowed_decays(self):
        clock = FakeClock()
        counter = WindowedCounter(window_seconds=10.0, windows=2, clock=clock)
        counter.add()
        counter.add(4)
        clock.advance(10.0)
        counter.add(2)
        assert counter.windowed_count() == 7
        clock.advance(10.0)
        assert counter.windowed_count() == 2  # first window rotated out
        assert counter.total == 7

    def test_rate_uses_covered_horizon(self):
        clock = FakeClock(now=100.0)
        counter = WindowedCounter(window_seconds=10.0, windows=6, clock=clock)
        counter.add(30)
        # Alive 3 seconds: the rate denominator rounds up to one window
        # so a young counter is not wildly inflated.
        clock.advance(3.0)
        assert counter.rate() == pytest.approx(30 / 10.0)
        # Alive 30 seconds: denominator is the covered horizon.
        clock.advance(27.0)
        assert counter.rate() == pytest.approx(30 / 30.0)

    def test_to_dict(self):
        clock = FakeClock()
        counter = WindowedCounter(window_seconds=10.0, windows=2, clock=clock)
        counter.add(5)
        data = counter.to_dict()
        assert data["total"] == 5
        assert data["windowed"] == 5
        assert data["per_second"] == pytest.approx(0.5)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            WindowedCounter(window_seconds=0)
        with pytest.raises(ValueError):
            WindowedCounter(windows=0)


class TestWindowedHistogramSet:
    def test_named_family_created_on_first_use(self):
        clock = FakeClock()
        family = WindowedHistogramSet(window_seconds=10.0, windows=2, clock=clock)
        assert "query" not in family
        family.observe("query", 0.010)
        family.observe("stats", 0.001)
        assert "query" in family
        assert family.names() == ["query", "stats"]
        assert family.get("query").cumulative.count == 1

    def test_shared_clock_rotates_all_members(self):
        clock = FakeClock()
        family = WindowedHistogramSet(window_seconds=10.0, windows=1, clock=clock)
        family.observe("a", 0.010)
        clock.advance(10.0)
        assert family.get("a").snapshot().count == 0
        assert family.get("a").cumulative.count == 1


class TestExemplars:
    def test_exemplar_attached_to_value_bucket(self):
        clock = FakeClock()
        windowed = WindowedHistogram(window_seconds=10.0, windows=2, clock=clock)
        windowed.record(0.010, exemplar="tr-1")
        exemplars = windowed.exemplars()
        bucket = windowed.cumulative.bucket_index(0.010)
        assert exemplars == {bucket: {"value": 0.010, "trace": "tr-1"}}

    def test_latest_exemplar_wins_within_bucket(self):
        clock = FakeClock()
        windowed = WindowedHistogram(window_seconds=10.0, windows=2, clock=clock)
        windowed.record(0.010, exemplar="tr-old")
        windowed.record(0.010, exemplar="tr-new")
        (entry,) = windowed.exemplars().values()
        assert entry["trace"] == "tr-new"

    def test_record_without_exemplar_keeps_previous(self):
        clock = FakeClock()
        windowed = WindowedHistogram(window_seconds=10.0, windows=2, clock=clock)
        windowed.record(0.010, exemplar="tr-1")
        windowed.record(0.010)  # unexemplared observation
        (entry,) = windowed.exemplars().values()
        assert entry["trace"] == "tr-1"

    def test_exemplars_pruned_with_their_window(self):
        clock = FakeClock()
        windowed = WindowedHistogram(window_seconds=10.0, windows=2, clock=clock)
        windowed.record(0.010, exemplar="tr-stale")
        clock.advance(10.0)
        windowed.record(0.080, exemplar="tr-live")
        assert len(windowed.exemplars()) == 2  # both windows still live
        clock.advance(10.0)
        windowed.record(0.080, exemplar="tr-live2")
        traces = {
            entry["trace"] for entry in windowed.exemplars().values()
        }
        assert "tr-stale" not in traces
        assert traces  # the live bucket's exemplar survives

    def test_to_dict_carries_exemplars_only_when_present(self):
        clock = FakeClock()
        windowed = WindowedHistogram(window_seconds=10.0, windows=2, clock=clock)
        windowed.record(0.010)
        assert "exemplars" not in windowed.to_dict()
        windowed.record(0.020, exemplar="tr-2")
        data = windowed.to_dict()
        (entry,) = data["exemplars"].values()
        assert entry["trace"] == "tr-2"
        # JSON-facing keys are strings.
        assert all(isinstance(key, str) for key in data["exemplars"])

    def test_histogram_set_observe_passes_exemplar(self):
        clock = FakeClock()
        family = WindowedHistogramSet(
            window_seconds=10.0, windows=2, clock=clock
        )
        family.observe("query", 0.030, "tr-q")
        (entry,) = family.get("query").exemplars().values()
        assert entry == {"value": 0.030, "trace": "tr-q"}
