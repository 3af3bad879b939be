"""Mattson LRU stack-distance analysis: miss-ratio curves in one pass.

The Figure 12 buffer sweep answers "what is the hit ratio at capacity C?"
by re-running the workload once per C.  Mattson's observation (1970): one
pass over the access trace answers it for *every* C simultaneously.
Maintain the LRU stack; for each access to a previously seen key, its
**stack distance** is the total byte cost of the distinct keys touched
since that key's last access, *including the key itself*.  Under byte-
budgeted LRU the access hits at capacity C exactly when its distance is
``<= C`` — entries above the key are never evicted before it (they are
younger), so the distance is both necessary and sufficient.

This matches :class:`repro.util.lru.LRUCache` exactly, with one
documented exception: that cache retains a single entry larger than the
whole budget ("admit oversized alone"), so for traces with entries
bigger than C the prediction is a *lower bound* on measured hits.  The
property tests pin both facts: exact equality for uniform costs (cost
``<= C``), and ``predicted <= measured`` always.

Feed accesses directly (:meth:`StackDistance.access`) or replay a
recorded buffer trace (:func:`analyze_buffer_trace`).  Accesses before a
protocol boundary (e.g. a warm-up execution) can update the stack
without being counted, so predictions line up with measurement windows
that begin warm.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import OrderedDict

from repro.obs.profile.trace import AdmitEvent, BufferEvent, DropEvent

#: Most breakpoints :meth:`MissRatioCurve.to_dict` serializes (the last
#: one is always kept).
CURVE_POINTS = 256


class StackDistance:
    """One-pass byte-weighted LRU stack-distance accumulator.

    Keys are tracked per ``pool`` (separate LRU stacks that each get the
    full capacity — the forward and backward stores of a scheme pair run
    one buffer pool each), and every counted access contributes either a
    finite distance or a compulsory (first-touch) miss.
    """

    def __init__(self) -> None:
        # pool -> OrderedDict[key, cost]; most recently used last.
        self._stacks: dict[object, OrderedDict] = {}
        self.distances: list[int] = []
        self.compulsory = 0
        self.accesses = 0
        self.uncounted = 0

    def access(self, key, cost: int | None = None, pool=0, count: bool = True) -> None:
        """Record one access to ``key``.

        ``cost`` sets (or updates) the key's byte cost; first touches
        with no cost enter the stack at cost 0 until an :meth:`admit`
        supplies it.  ``count=False`` updates the stack without counting
        the access (warm-up phases).
        """
        stack = self._stacks.get(pool)
        if stack is None:
            stack = self._stacks[pool] = OrderedDict()
        if key in stack:
            distance = 0
            for other in reversed(stack):
                distance += stack[other]
                if other == key:
                    break
            stack.move_to_end(key)
            if cost is not None:
                stack[key] = cost
            if count:
                self.distances.append(distance)
                self.accesses += 1
            else:
                self.uncounted += 1
        else:
            stack[key] = cost if cost is not None else 0
            if count:
                self.compulsory += 1
                self.accesses += 1
            else:
                self.uncounted += 1

    def admit(self, key, cost: int, pool=0) -> None:
        """Set the byte cost of ``key`` (typically right after its miss)."""
        stack = self._stacks.get(pool)
        if stack is None:
            stack = self._stacks[pool] = OrderedDict()
        stack[key] = cost

    def drop(self, key=None, pool=0) -> None:
        """Forget ``key`` (or the whole pool when None) — cache cleared."""
        stack = self._stacks.get(pool)
        if stack is None:
            return
        if key is None:
            stack.clear()
        else:
            stack.pop(key, None)

    def curve(self) -> "MissRatioCurve":
        """The miss-ratio curve over every counted access so far."""
        return MissRatioCurve(self.distances, self.compulsory, self.accesses)


class MissRatioCurve:
    """Predicted LRU hit/miss ratio as a function of cache capacity."""

    def __init__(
        self, distances: list[int], compulsory: int, accesses: int
    ) -> None:
        self._sorted = sorted(distances)
        self.compulsory = compulsory
        self.accesses = accesses

    def predicted_hits(self, capacity: int) -> int:
        """Exact predicted LRU hits at byte budget ``capacity``."""
        return bisect_right(self._sorted, capacity)

    def hit_ratio(self, capacity: int) -> float:
        """Predicted hit ratio at ``capacity`` (0 when no accesses)."""
        if not self.accesses:
            return 0.0
        return self.predicted_hits(capacity) / self.accesses

    @property
    def min_useful_capacity(self) -> int:
        """Smallest capacity with any predicted hit (0 when none)."""
        return self._sorted[0] if self._sorted else 0

    @property
    def saturation_capacity(self) -> int:
        """Capacity beyond which more memory cannot help (max distance).

        The byte budget at which every non-compulsory access hits — the
        "further increase in buffer size does not improve performance"
        knee of Figure 12, read off the curve instead of swept for.
        """
        return self._sorted[-1] if self._sorted else 0

    def breakpoints(self) -> list[tuple[int, int]]:
        """(capacity, cumulative hits) at every distinct stack distance.

        The full exact curve: hit count is a step function changing only
        at these capacities.
        """
        points: list[tuple[int, int]] = []
        for index, distance in enumerate(self._sorted):
            if points and points[-1][0] == distance:
                points[-1] = (distance, index + 1)
            else:
                points.append((distance, index + 1))
        return points

    def to_dict(self, capacities: list[int] | None = None) -> dict:
        """Serializable curve: summary, sampled breakpoints, optional spot
        predictions at ``capacities``."""
        points = self.breakpoints()
        if len(points) > CURVE_POINTS:
            step = len(points) / CURVE_POINTS
            sampled = [points[int(i * step)] for i in range(CURVE_POINTS)]
            if sampled[-1] != points[-1]:
                sampled.append(points[-1])
            points = sampled
        out = {
            "accesses": self.accesses,
            "compulsory_misses": self.compulsory,
            "min_useful_capacity": self.min_useful_capacity,
            "saturation_capacity": self.saturation_capacity,
            "curve": [
                {
                    "capacity_bytes": capacity,
                    "hits": hits,
                    "hit_ratio": hits / self.accesses if self.accesses else 0.0,
                }
                for capacity, hits in points
            ],
        }
        if capacities is not None:
            out["at"] = {
                str(capacity): {
                    "predicted_hits": self.predicted_hits(capacity),
                    "hit_ratio": self.hit_ratio(capacity),
                }
                for capacity in capacities
            }
        return out


def analyze_buffer_trace(events, count_from_seq: int = 0) -> MissRatioCurve:
    """Replay a recorded buffer-event stream through Mattson analysis.

    ``events`` is :meth:`AccessTracer.buffer_events` output (access,
    admit and drop events, in order).  Pinned lookups live outside the
    LRU budget and are skipped.  Events with
    ``seq < count_from_seq`` update the stack without being counted —
    pass the tracer's ``seq`` taken after a warm-up phase to predict the
    hit ratio of the measured window only.
    """
    analysis = StackDistance()
    for event in events:
        kind = type(event)
        if kind is BufferEvent:
            if event.pinned:
                continue
            analysis.access(
                event.key, pool=event.pool, count=event.seq >= count_from_seq
            )
        elif kind is AdmitEvent:
            analysis.admit(event.key, event.cost, pool=event.pool)
        elif kind is DropEvent:
            analysis.drop(event.key, pool=event.pool)
    return analysis.curve()
