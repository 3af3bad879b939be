"""Log-bucketed latency histograms with percentile estimation.

The paper's access-cost story (Table 2, Figures 11/12) is about
*distributions*, not averages: a navigation whose p99 pays a disk seek
looks identical to an all-memory one if only means are reported.  A
:class:`LatencyHistogram` records values into exponentially growing
buckets — constant relative error, unbounded range, O(1) record — and
answers p50/p90/p99/max queries from the bucket counts.

Bucket layout: bucket 0 holds every value ``<= min_value``; bucket ``i``
(i >= 1) holds values in ``(min_value * growth**(i-1), min_value *
growth**i]``.  With the defaults (``min_value=1e-7`` seconds, ``growth=
sqrt(2)``) the buckets span 100 ns to hours at ~19 % relative resolution,
which is tighter than the run-to-run noise of any timing experiment here.

Percentile queries return the *upper bound* of the bucket containing the
requested rank (clamped to the observed max), so a reported p99 is a
guaranteed upper bound on the true p99 up to one bucket's width — the
property the tests verify against a sorted-list reference.
"""

from __future__ import annotations

import math

from repro.errors import EmptyHistogramError

#: Default smallest resolvable value (seconds): 100 ns.
DEFAULT_MIN_VALUE = 1e-7
#: Default bucket growth factor: sqrt(2) per bucket.
DEFAULT_GROWTH = 2.0 ** 0.5


class LatencyHistogram:
    """Fixed-shape log-bucketed histogram over non-negative values."""

    def __init__(
        self,
        min_value: float = DEFAULT_MIN_VALUE,
        growth: float = DEFAULT_GROWTH,
    ) -> None:
        if min_value <= 0:
            raise ValueError(f"min_value must be > 0, got {min_value}")
        if growth <= 1.0:
            raise ValueError(f"growth must be > 1, got {growth}")
        self.min_value = min_value
        self.growth = growth
        self._log_growth = math.log(growth)
        self._buckets: dict[int, int] = {}
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = 0.0

    # -- recording ---------------------------------------------------------

    def bucket_index(self, value: float) -> int:
        """Index of the bucket holding ``value`` (0 = underflow bucket)."""
        if value <= self.min_value:
            return 0
        # ceil of log_growth(value / min_value); nudge for float error so
        # exact bucket upper bounds land in their own bucket.
        raw = math.log(value / self.min_value) / self._log_growth
        index = math.ceil(raw - 1e-9)
        return max(1, index)

    def bucket_upper_bound(self, index: int) -> float:
        """Largest value bucket ``index`` can hold."""
        return self.min_value * self.growth**index if index > 0 else self.min_value

    def record(self, value: float, index: int | None = None) -> None:
        """Record one observation (negative values clamp to zero); ``index``
        is its :meth:`bucket_index`, if the caller has it already."""
        if value < 0:
            value = 0.0
        if index is None:
            index = self.bucket_index(value)
        self._buckets[index] = self._buckets.get(index, 0) + 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def record_many(self, values) -> None:
        """Record every value of an iterable."""
        for value in values:
            self.record(value)

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold ``other``'s observations into this histogram (same shape)."""
        if (other.min_value, other.growth) != (self.min_value, self.growth):
            raise ValueError("cannot merge histograms with different bucket shapes")
        for index, count in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + count
        self.count += other.count
        self.sum += other.sum
        if other.count:
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)

    # -- queries -----------------------------------------------------------

    @property
    def mean(self) -> float:
        """Arithmetic mean of the recorded values (0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Upper bound on the ``p``-th percentile.

        Defined over ranks: the value returned is the upper bound of the
        bucket holding the ``ceil(p/100 * count)``-th smallest
        observation, clamped into ``[min, max]`` so p100 is the exact
        maximum.  An empty histogram has no percentiles: raises
        :class:`~repro.errors.EmptyHistogramError` (callers that want a
        display placeholder catch it — see :meth:`to_dict`).
        """
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if self.count == 0:
            raise EmptyHistogramError(
                f"cannot take p{p:g} of a histogram with no observations"
            )
        rank = max(1, math.ceil(p / 100.0 * self.count))
        cumulative = 0
        for index in sorted(self._buckets):
            cumulative += self._buckets[index]
            if cumulative >= rank:
                bound = self.bucket_upper_bound(index)
                return min(max(bound, self.min), self.max)
        return self.max

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p90(self) -> float:
        return self.percentile(90)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serializable state, including headline percentiles.

        An empty histogram serializes its percentiles as the explicit
        placeholder 0.0 (``count: 0`` disambiguates) — JSON has no NaN,
        and a report consumer must not have to catch exceptions.
        """
        empty = self.count == 0
        return {
            "min_value": self.min_value,
            "growth": self.growth,
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else 0.0,
            "max": self.max,
            "mean": self.mean,
            "p50": 0.0 if empty else self.p50,
            "p90": 0.0 if empty else self.p90,
            "p99": 0.0 if empty else self.p99,
            "buckets": {str(k): v for k, v in sorted(self._buckets.items())},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LatencyHistogram":
        """Rebuild a histogram serialized by :meth:`to_dict`."""
        histogram = cls(min_value=data["min_value"], growth=data["growth"])
        histogram._buckets = {int(k): int(v) for k, v in data["buckets"].items()}
        histogram.count = int(data["count"])
        histogram.sum = float(data["sum"])
        histogram.min = float(data["min"]) if histogram.count else math.inf
        histogram.max = float(data["max"])
        return histogram


class HistogramSet:
    """Named family of histograms (one per operation kind)."""

    def __init__(
        self,
        min_value: float = DEFAULT_MIN_VALUE,
        growth: float = DEFAULT_GROWTH,
    ) -> None:
        self.min_value = min_value
        self.growth = growth
        self._histograms: dict[str, LatencyHistogram] = {}

    def get(self, name: str) -> LatencyHistogram:
        """The histogram for ``name``, created empty on first use."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = LatencyHistogram(self.min_value, self.growth)
            self._histograms[name] = histogram
        return histogram

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` under operation ``name``."""
        self.get(name).record(value)

    def names(self) -> list[str]:
        """Recorded operation names, sorted."""
        return sorted(self._histograms)

    def __len__(self) -> int:
        return len(self._histograms)

    def __contains__(self, name: str) -> bool:
        return name in self._histograms

    def clear(self) -> None:
        """Drop every histogram."""
        self._histograms.clear()

    def to_dict(self) -> dict[str, dict]:
        """{operation: histogram.to_dict()} for every operation."""
        return {
            name: histogram.to_dict()
            for name, histogram in sorted(self._histograms.items())
        }

    @classmethod
    def from_dict(cls, data: dict[str, dict]) -> "HistogramSet":
        """Rebuild a set serialized by :meth:`to_dict`."""
        histogram_set = cls()
        for name, payload in data.items():
            histogram_set._histograms[name] = LatencyHistogram.from_dict(payload)
        return histogram_set
