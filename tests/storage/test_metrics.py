"""Tests for the metrics registry: counters, tallies, sessions, batches."""

from __future__ import annotations

import sys
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "util"))
from oracle_tracing import diff  # noqa: E402

from repro.storage.metrics import CounterBatch, MetricsRegistry  # noqa: E402


class TestMetricsRegistry:
    def test_counters(self):
        registry = MetricsRegistry()
        assert registry.get("bytes_read") == 0
        registry.inc("bytes_read", 100)
        registry.inc("bytes_read", 20)
        registry.inc("disk_seeks")
        assert registry.get("bytes_read") == 120
        assert registry.get("disk_seeks") == 1
        assert registry.io_stats() == {"bytes_read": 120, "disk_seeks": 1}

    def test_distinct_tallies(self):
        registry = MetricsRegistry()
        assert registry.mark("intranode", (3,)) is True
        assert registry.mark("intranode", (3,)) is False
        assert registry.mark("intranode", (4,)) is True
        assert registry.distinct("intranode") == 2
        assert registry.distinct_keys("intranode") == {(3,), (4,)}
        assert registry.distinct("never-marked") == 0

    def test_distinct_tally_is_flat_despite_event_volume(self):
        # The section-4.3 analysis reads tallies, so repeated loads of the
        # same graphs cost no memory growth.
        registry = MetricsRegistry()
        for _ in range(100):
            for graph in range(5):
                registry.mark("intranode", (graph,))
        assert registry.distinct("intranode") == 5
        assert registry.distinct_keys("intranode") == {(graph,) for graph in range(5)}

    def test_snapshot_and_diff(self):
        registry = MetricsRegistry()
        registry.inc("bytes_read", 10)
        before = registry.snapshot()
        registry.inc("bytes_read", 30)
        registry.inc("disk_seeks")
        registry.mark("intranode", (1,))
        after = registry.snapshot()
        delta = diff(before, after)
        assert delta["bytes_read"] == 30
        assert delta["disk_seeks"] == 1
        assert delta["distinct_intranode"] == 1

    def test_reset_clears_everything(self):
        registry = MetricsRegistry()
        registry.inc("bytes_read", 10)
        registry.mark("intranode", (1,))
        registry.reset()
        assert registry.io_stats() == {}
        assert registry.snapshot() == {}
        assert registry.distinct("intranode") == 0


class TestSessions:
    def test_child_starts_empty_and_is_tracked(self):
        parent = MetricsRegistry()
        parent.inc("bytes_read", 10)
        child = parent.child("client-0")
        assert child.label == "client-0"
        assert child.get("bytes_read") == 0
        assert parent.children() == [child]

    def test_totals_aggregate_live_children(self):
        parent = MetricsRegistry()
        parent.inc("bytes_read", 10)
        a = parent.child("a")
        b = parent.child("b")
        a.inc("bytes_read", 5)
        b.inc("bytes_read", 7)
        assert parent.get("bytes_read") == 10  # own view unchanged
        assert parent.get_total("bytes_read") == 22

    def test_merge_detaches_and_conserves(self):
        parent = MetricsRegistry()
        child = parent.child("c")
        child.inc("disk_seeks", 3)
        child.mark("intranode", (9,))
        total_before = parent.get_total("disk_seeks")
        parent.merge(child)
        assert parent.children() == []
        assert parent.get("disk_seeks") == 3 == total_before
        assert parent.distinct_keys("intranode") == {(9,)}

    def test_merge_self_is_noop(self):
        registry = MetricsRegistry()
        registry.inc("x", 1)
        registry.merge(registry)
        assert registry.get("x") == 1

    def test_merged_snapshot_includes_grandchildren(self):
        parent = MetricsRegistry()
        child = parent.child("c")
        grandchild = child.child("g")
        parent.inc("bytes_read", 1)
        child.inc("bytes_read", 2)
        grandchild.inc("bytes_read", 4)
        grandchild.mark("intranode", (1,))
        child.mark("intranode", (1,))  # same key: union, not sum
        snapshot = parent.merged_snapshot()
        assert snapshot["bytes_read"] == 7
        assert snapshot["distinct_intranode"] == 1

    def test_reset_cascades_to_live_children(self):
        parent = MetricsRegistry()
        child = parent.child()
        child.inc("bytes_read", 5)
        parent.reset()
        assert parent.get_total("bytes_read") == 0
        assert parent.children() == [child]  # still attached, just zeroed

    def test_concurrent_children_merge_to_serial_totals(self):
        import threading

        parent = MetricsRegistry()
        children = [parent.child(f"t{i}") for i in range(4)]

        def worker(child: MetricsRegistry) -> None:
            for _ in range(1000):
                child.inc("bytes_read", 2)
                child.inc("disk_seeks")

        threads = [
            threading.Thread(target=worker, args=(child,)) for child in children
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert parent.get_total("bytes_read") == 4 * 1000 * 2
        for child in children:
            parent.merge(child)
        assert parent.get("bytes_read") == 8000
        assert parent.get("disk_seeks") == 4000


#: One step of a read call's accounting: an increment (zero amounts
#: included — they still create the counter) or a tally mark.
_STEPS = st.one_of(
    st.tuples(st.just("inc"), st.sampled_from("abcd"), st.integers(0, 9)),
    st.tuples(st.just("mark"), st.sampled_from("xy"), st.integers(0, 5)),
)


def _apply(face, steps) -> list:
    """Drive ``steps`` through an ``inc``/``mark`` face."""
    firsts = []
    for op, name, value in steps:
        if op == "inc":
            face.inc(name, value)
        else:
            firsts.append(face.mark(name, (value,)))
    return firsts


class TestCounterBatch:
    def test_inc_waits_for_the_flush_mark_and_record_do_not(self):
        registry = MetricsRegistry()
        batch = CounterBatch(registry)
        batch.inc("loads")
        batch.inc("bytes_read", 0)
        assert batch.mark("intranode", (3,)) is True
        assert batch.mark("intranode", (3,)) is False
        assert registry.io_stats() == {}
        assert registry.distinct("intranode") == 1
        batch.flush()
        assert registry.io_stats() == {"loads": 1, "bytes_read": 0}
        batch.flush()  # nothing left: a second flush adds nothing
        assert registry.io_stats() == {"loads": 1, "bytes_read": 0}

    @given(st.lists(st.lists(_STEPS, max_size=12), max_size=6))
    def test_flushed_batches_equal_increments_one_by_one(self, calls):
        """Through a session child, ``get_total`` and ``merge`` too."""
        direct_parent, batched_parent = MetricsRegistry(), MetricsRegistry()
        direct, batched = direct_parent.child("c"), batched_parent.child("c")
        for steps in calls:
            batch = CounterBatch(batched)
            assert _apply(batch, steps) == _apply(direct, steps)
            batch.flush()
            assert batched.io_stats() == direct.io_stats()
        for name in "abcd":
            assert batched_parent.get_total(name) == direct_parent.get_total(name)
        assert batched_parent.merged_snapshot() == direct_parent.merged_snapshot()
        direct_parent.merge(direct)
        batched_parent.merge(batched)
        assert batched_parent.snapshot() == direct_parent.snapshot()
