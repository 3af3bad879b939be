"""Tests for the shared buffer pool: pinning, typed loads, resize."""

from __future__ import annotations

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.obs import profile
from repro.storage.bufferpool import BufferPool
from repro.storage.metrics import CounterBatch, MetricsRegistry
from repro.util.lru import LRUCache


class TestCacheProtocol:
    def test_hit_miss_counting(self):
        pool = BufferPool(100)
        assert pool.get("k") is None
        pool.put("k", b"data", 4)
        assert pool.get("k") == b"data"
        stats = pool.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1

    def test_evictions_counted_and_callback_fired(self):
        pool = BufferPool(10)
        pool.put("a", b"x", 10)
        pool.put("b", b"y", 10)
        assert pool.registry.get("buffer_evictions") == 1
        assert pool.get("a") is None
        assert pool.get("b") == b"y"

    def test_get_or_load_loads_once(self):
        pool = BufferPool(100)
        calls = []

        def loader():
            calls.append(1)
            return b"payload"

        assert pool.get_or_load("k", loader) == b"payload"
        assert pool.get_or_load("k", loader) == b"payload"
        assert len(calls) == 1
        assert pool.registry.get("loads") == 1

    def test_get_or_load_kinds(self):
        pool = BufferPool(1000)
        pool.get_or_load("p1", lambda: b"x" * 8, kind="heap_page")
        pool.get_or_load("p2", lambda: b"x" * 8, kind="heap_page")
        pool.get_or_load("i1", lambda: b"x" * 8, kind="index_page")
        assert pool.registry.get("loads") == 3
        assert pool.registry.get("heap_page_loads") == 2
        assert pool.registry.get("index_page_loads") == 1

    def test_get_or_load_cost_forms(self):
        pool = BufferPool(1000)
        pool.get_or_load("default", lambda: b"abcd")  # len(value)
        assert pool.used_bytes == 4
        pool.get_or_load("explicit", lambda: [1, 2], cost=10)
        assert pool.used_bytes == 14
        pool.get_or_load("callable", lambda: [1, 2, 3], cost=lambda v: 8 * len(v))
        assert pool.used_bytes == 38


class TestPinning:
    def test_pinned_entries_survive_eviction_pressure(self):
        pool = BufferPool(10)
        pool.pin("root", b"meta", 100)
        for i in range(20):
            pool.put(i, b"x", 10)
        assert pool.get("root") == b"meta"
        assert pool.pinned_bytes == 100
        assert pool.used_bytes <= 10

    def test_pins_outside_lru_budget(self):
        # A pin larger than the whole budget is fine: the paper keeps the
        # supernode graph resident regardless of the navigation buffer.
        pool = BufferPool(10)
        pool.pin("root", b"meta", 1_000_000)
        pool.put("a", b"x", 10)
        assert pool.get("a") == b"x"
        assert pool.stats()["pinned_entries"] == 1

    def test_pin_survives_clear_and_resize(self):
        pool = BufferPool(100)
        pool.pin("root", b"meta", 8)
        pool.put("a", b"x", 10)
        pool.clear()
        assert pool.get("root") == b"meta"
        assert pool.get("a") is None
        pool.set_buffer_bytes(50)
        assert pool.get("root") == b"meta"

    def test_unpin_drops_entry(self):
        pool = BufferPool(100)
        pool.pin("root", b"meta", 8)
        pool.unpin("root")
        assert pool.get("root") is None
        assert pool.pinned_bytes == 0

    def test_put_to_pinned_key_updates_pin(self):
        pool = BufferPool(100)
        pool.pin("root", b"old", 8)
        pool.put("root", b"new", 16)
        assert pool.get("root") == b"new"
        assert pool.pinned_bytes == 16
        assert pool.used_bytes == 0


class TestKindCounters:
    def test_per_kind_hits_and_misses(self):
        pool = BufferPool(1000)
        pool.get("k", kind="intranode")  # miss
        pool.put("k", b"x", 8, kind="intranode")
        pool.get("k", kind="intranode")  # hit
        pool.get("s", kind="superedge")  # miss
        assert pool.registry.get("buffer_hits_intranode") == 1
        assert pool.registry.get("buffer_misses_intranode") == 1
        assert pool.registry.get("buffer_misses_superedge") == 1
        assert pool.registry.get("buffer_hits_superedge") == 0
        # The untyped totals still include everything.
        assert pool.registry.get("buffer_hits") == 1
        assert pool.registry.get("buffer_misses") == 2

    def test_get_or_load_attributes_kind(self):
        pool = BufferPool(1000)
        pool.get_or_load("p", lambda: b"x" * 8, kind="heap_page")  # miss+load
        pool.get_or_load("p", lambda: b"x" * 8, kind="heap_page")  # hit
        assert pool.registry.get("buffer_misses_heap_page") == 1
        assert pool.registry.get("buffer_hits_heap_page") == 1

    def test_untyped_gets_count_totals_only(self):
        pool = BufferPool(1000)
        pool.get("k")
        assert pool.registry.get("buffer_misses") == 1
        assert pool.registry.get("buffer_misses_intranode") == 0

    def test_pinned_hits_counted_separately(self):
        pool = BufferPool(1000)
        pool.pin("root", b"meta", 8)
        pool.get("root", kind="mapping")
        pool.get("root")
        stats = pool.stats()
        assert stats["hits"] == 2
        assert stats["pinned_hits"] == 2
        assert pool.registry.get("buffer_hits_mapping") == 1
        # Unpinned hit ratio excludes capacity-independent pinned traffic.
        assert stats["hits"] - stats["pinned_hits"] == 0


class TestProfilerHooks:
    def test_accesses_admits_and_drops_recorded(self):
        from repro.obs.profile import AccessTracer, activated
        from repro.obs.profile.trace import AdmitEvent, BufferEvent, DropEvent

        pool = BufferPool(1000)
        tracer = AccessTracer()
        with activated(tracer):
            pool.get("k", kind="intranode")  # miss
            pool.put("k", b"x", 8, kind="intranode")  # admit
            pool.get("k", kind="intranode")  # hit
            pool.invalidate("k")  # drop (key was cached)
            pool.invalidate("absent")  # no drop: nothing was cached
        events = tracer.buffer_events()
        kinds = [type(e) for e in events]
        assert kinds == [BufferEvent, AdmitEvent, BufferEvent, DropEvent]
        assert [e.hit for e in events if type(e) is BufferEvent] == [False, True]
        assert events[1].cost == 8
        assert events[3].key == "k"

    def test_pinned_access_flagged(self):
        from repro.obs.profile import AccessTracer, activated

        pool = BufferPool(1000)
        pool.pin("root", b"meta", 8)
        tracer = AccessTracer()
        with activated(tracer):
            pool.get("root")
        (event,) = tracer.buffer_events()
        assert event.pinned is True
        assert event.hit is True

    def test_clear_and_resize_record_whole_pool_drops(self):
        from repro.obs.profile import AccessTracer, activated
        from repro.obs.profile.trace import DropEvent

        pool = BufferPool(1000)
        pool.put("a", b"x", 8)
        tracer = AccessTracer()
        with activated(tracer):
            pool.clear()
            pool.set_buffer_bytes(500)
        drops = [e for e in tracer.buffer_events() if type(e) is DropEvent]
        assert len(drops) == 2
        assert all(e.key is None for e in drops)


KINDS = ("intranode", "superedge", None)


def pool_state(pool) -> dict:
    """Everything a lookup could move: order, counters, occupancy."""
    return {
        "order": pool._cache.keys(),
        "counters": pool.registry.snapshot(),
        "stats": pool.stats(),
    }


def filled(contents) -> BufferPool:
    pool = BufferPool(10_000)
    for key in contents:
        pool.put(("g", key), [key], 10, kind=KINDS[key % 3])
    return pool


_CONTENTS = st.lists(st.integers(0, 30), max_size=20, unique=True)


class TestGetResident:
    """One visit for many keys: all of them as ``get`` would, or nothing."""

    @given(contents=_CONTENTS, data=st.data())
    def test_all_resident_is_get_of_each_in_order(self, contents, data):
        asked = data.draw(st.lists(st.sampled_from(contents or [0]), max_size=12))
        assume(set(asked) <= set(contents))
        keys = [("g", key) for key in asked]
        kinds = [KINDS[key % 3] for key in asked]
        batched, one_by_one = filled(contents), filled(contents)
        batched_events, single_events = profile.AccessTracer(), profile.AccessTracer()
        with profile.activated(batched_events):
            values = batched.get_resident(keys, kinds)
        with profile.activated(single_events):
            expected = [one_by_one.get(key, kind=kind) for key, kind in zip(keys, kinds)]
        assert values == expected == [[key] for key in asked]
        assert pool_state(batched) == pool_state(one_by_one)
        assert [
            event._replace(pool=0) for event in batched_events.buffer_events()
        ] == [event._replace(pool=0) for event in single_events.buffer_events()]
        batched.check_invariants()

    @given(
        contents=_CONTENTS,
        asked=st.lists(st.integers(0, 40), min_size=1, max_size=12),
        pinned=st.sets(st.integers(0, 40), max_size=3),
    )
    def test_a_key_missing_or_only_pinned_declines_and_moves_nothing(
        self, contents, asked, pinned
    ):
        pool = filled(contents)
        for key in pinned:
            pool.pin(("g", key), [key], 10)
        cached = set(contents) - pinned
        assume(not set(asked) <= cached)
        before = pool_state(pool)
        session = MetricsRegistry()
        events = profile.AccessTracer()
        with profile.activated(events):
            answer = pool.get_resident(
                [("g", key) for key in asked], [KINDS[key % 3] for key in asked], session
            )
        assert answer is None
        assert pool_state(pool) == before
        assert session.snapshot() == {}
        assert events.buffer_events() == []

    def test_hits_charge_the_registry_handed_in_once(self):
        pool = filled(range(6))
        session = MetricsRegistry()
        batch = CounterBatch(session)
        keys = [("g", key) for key in (0, 1, 2, 3, 3)]
        assert pool.get_resident(keys, [KINDS[key[1] % 3] for key in keys], batch) == [
            [0], [1], [2], [3], [3]
        ]
        assert session.snapshot() == {} and pool.registry.snapshot() == {}
        batch.flush()
        assert session.snapshot() == {
            "buffer_hits": 5,
            "buffer_hits_intranode": 3,
            "buffer_hits_superedge": 1,
        }
        assert pool.registry.snapshot() == {}

    def test_entry_evicted_between_peek_and_touch_is_still_a_hit(self, monkeypatch):
        pool = filled(range(4))
        real = LRUCache.touch

        def evict_then_touch(cache, keys):
            cache.pop(("g", 2))
            real(cache, keys)

        monkeypatch.setattr(LRUCache, "touch", evict_then_touch)
        keys = [("g", key) for key in (1, 2, 3)]
        assert pool.get_resident(keys, ["superedge"] * 3) == [[1], [2], [3]]
        monkeypatch.undo()
        assert pool.registry.snapshot() == {"buffer_hits": 3, "buffer_hits_superedge": 3}
        assert pool.get(("g", 2)) is None
        pool.check_invariants()

    def test_no_keys_is_no_lookup(self):
        pool = filled(range(3))
        before = pool_state(pool)
        assert pool.get_resident([], []) == []
        assert pool_state(pool) == before


class CountingLock:
    """The pool's lock, counting how often it is taken."""

    def __init__(self, lock) -> None:
        self._lock = lock
        self.acquisitions = 0

    def __enter__(self):
        self.acquisitions += 1
        return self._lock.__enter__()

    def __exit__(self, *exc_info):
        return self._lock.__exit__(*exc_info)


class TestOneLock:
    """The pool has one lock, and a lookup or an admission takes it once."""

    def acquisitions(self, pool, operation) -> int:
        lock = CountingLock(pool._lock)
        pool._lock = lock
        try:
            operation()
        finally:
            pool._lock = lock._lock
        return lock.acquisitions

    def test_each_operation_takes_the_lock_once(self):
        pool = filled(range(6))
        pool.pin("root", b"meta", 4)
        keys = [("g", key) for key in range(6)]
        kinds = [KINDS[key % 3] for key in range(6)]
        counts = {
            "get_resident, all resident": lambda: pool.get_resident(keys, kinds),
            "get, hit": lambda: pool.get(("g", 1), kind="superedge"),
            "get, miss": lambda: pool.get(("g", 99)),
            "put, new key": lambda: pool.put(("g", 7), [7], 10, kind="intranode"),
            "put, cached key": lambda: pool.put(("g", 7), [7], 12),
            "put, pinned key": lambda: pool.put("root", b"meta!", 5),
            "pin": lambda: pool.pin(("g", 2), [2], 10),
        }
        assert {name: self.acquisitions(pool, op) for name, op in counts.items()} == {
            name: 1 for name in counts
        }
        # Pinned lookups read the pinned table without the lock.
        assert self.acquisitions(pool, lambda: pool.get("root")) == 0
        assert pool.get_resident(keys[:2], kinds[:2]) == [[0], [1]]
        assert pool.pinned_bytes == 5 + 10
        pool.check_invariants()

    def test_a_pin_cannot_land_inside_an_admission(self, monkeypatch):
        # put checks the pinned table and admits under one acquisition, so
        # a pin from another thread waits for the admission, then drops
        # the cached copy: the key is never both pinned and cached.
        import threading

        from repro.obs.profile import trace

        pool = BufferPool(100)
        pinner = threading.Thread(target=pool.pin, args=("k", b"pinned", 4))
        real_admit = trace.buffer_admit

        def admit_while_pinning(*args):
            pinner.start()
            pinner.join(timeout=0.2)  # blocked on the pool lock
            real_admit(*args)

        monkeypatch.setattr(trace, "buffer_admit", admit_while_pinning)
        pool.put("k", b"cached", 10)
        monkeypatch.undo()
        pinner.join(timeout=10)
        assert not pinner.is_alive()
        pool.check_invariants()
        assert pool.get("k") == b"pinned"
        assert (pool.used_bytes, pool.pinned_bytes) == (0, 4)


class TestMaintenance:
    def test_clear_recorded_counts_evictions(self):
        pool = BufferPool(100)
        pool.put("a", b"x", 10)
        pool.put("b", b"y", 10)
        pool.clear(record=True)
        assert pool.registry.get("buffer_evictions") == 2

    def test_clear_silent_counts_nothing(self):
        pool = BufferPool(100)
        pool.put("a", b"x", 10)
        pool.clear(record=False)
        assert pool.registry.get("buffer_evictions") == 0
        assert pool.get("a") is None

    def test_set_buffer_bytes_is_silent_and_rebounds(self):
        pool = BufferPool(100)
        pool.put("a", b"x", 10)
        pool.set_buffer_bytes(25)
        assert pool.registry.get("buffer_evictions") == 0
        assert pool.capacity_bytes == 25
        assert pool.get("a") is None  # cache dropped by the resize
        pool.put("b", b"x", 10)
        pool.put("c", b"x", 10)
        pool.put("d", b"x", 10)  # 30 > 25: evicts "b"
        assert pool.get("b") is None

    def test_invalidate_is_silent(self):
        pool = BufferPool(100)
        pool.put("a", b"x", 10)
        pool.invalidate("a")
        assert pool.registry.get("buffer_evictions") == 0
        assert pool.get("a") is None

    def test_shared_registry(self):
        registry = MetricsRegistry()
        first = BufferPool(100, registry=registry)
        second = BufferPool(100, registry=registry)
        first.get("miss")
        second.get("miss")
        assert registry.get("buffer_misses") == 2

    def test_stats_shape(self):
        pool = BufferPool(64)
        pool.pin("root", b"m", 4)
        pool.put("a", b"x", 10)
        stats = pool.stats()
        assert stats == {
            "hits": 0,
            "pinned_hits": 0,
            "misses": 0,
            "evictions": 0,
            "entries": 1,
            "used_bytes": 10,
            "capacity_bytes": 64,
            "pinned_entries": 1,
            "pinned_bytes": 4,
        }


class TestStriping:
    """One exact LRU per pool: its order, its budget, its pinned floor."""

    def test_single_stripe_is_exact_lru(self):
        # The pool must reproduce the serial single-LRU eviction order
        # (the committed benchmark baselines depend on it).
        pool = BufferPool(30)
        pool.put("a", b"x", 10)
        pool.put("b", b"x", 10)
        pool.put("c", b"x", 10)
        pool.get("a")  # refresh "a": "b" is now LRU
        pool.put("d", b"x", 10)
        assert pool.get("b") is None
        assert pool.get("a") == b"x"

    def test_striped_capacity_never_exceeded(self):
        pool = BufferPool(100)
        for i in range(200):
            pool.put(("k", i), b"x", 7)
        assert pool.used_bytes <= 100
        pool.check_invariants()

    def test_resize_below_pinned_floor_raises_typed(self):
        from repro.errors import BufferCapacityError, StorageError

        pool = BufferPool(1000)
        pool.pin("root", b"meta", 400)
        pool.put("a", b"x", 10)
        with pytest.raises(BufferCapacityError) as excinfo:
            pool.set_buffer_bytes(399)
        assert isinstance(excinfo.value, StorageError)
        # Failed resize leaves the pool untouched: capacity and cached
        # entries unchanged, invariants intact.
        assert pool.capacity_bytes == 1000
        assert pool.get("a") == b"x"
        pool.check_invariants()

    def test_resize_at_pinned_floor_allowed(self):
        pool = BufferPool(1000)
        pool.pin("root", b"meta", 400)
        pool.set_buffer_bytes(400)
        assert pool.capacity_bytes == 400
        assert pool.get("root") == b"meta"

    def test_check_invariants_catches_accounting_drift(self):
        from repro.errors import StorageError

        pool = BufferPool(100)
        pool.pin("root", b"meta", 10)
        pool.put("a", b"x", 10)
        pool.check_invariants()  # healthy pool passes
        pool._pinned_bytes += 5  # simulate drifted accounting
        with pytest.raises(StorageError):
            pool.check_invariants()


class TestConcurrency:
    def test_concurrent_get_or_load_stays_within_budget(self):
        import threading

        pool = BufferPool(500)
        pool.pin("root", b"meta", 64)
        errors = []

        def worker(seed: int) -> None:
            try:
                for i in range(300):
                    key = ("graph", (seed * 31 + i) % 60)
                    value = pool.get_or_load(key, lambda: b"v" * 25)
                    assert value == b"v" * 25
                    assert pool.get("root") == b"meta"  # pins never evicted
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(seed,)) for seed in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert pool.used_bytes <= 500
        assert pool.pinned_bytes == 64
        pool.check_invariants()

    def test_session_registries_sum_to_shared_totals(self):
        pool = BufferPool(10_000)
        sessions = [pool.registry.child(f"client-{i}") for i in range(3)]
        for index, session in enumerate(sessions):
            for i in range(5):
                pool.get_or_load(
                    ("k", index, i), lambda: b"x" * 8, registry=session
                )
            pool.get(("k", index, 0), registry=session)  # one hit each
        # The base registry saw nothing directly ...
        assert pool.registry.get("loads") == 0
        # ... yet the aggregated view equals the serial accounting.
        assert pool.registry.get_total("loads") == 15
        assert pool.registry.get_total("buffer_hits") == 3
        assert pool.registry.get_total("buffer_misses") == 15
        for session in sessions:
            pool.registry.merge(session)
        assert pool.registry.get("loads") == 15
        assert pool.registry.children() == []

    def test_concurrent_resize_and_reads(self):
        import threading

        pool = BufferPool(400)
        stop = threading.Event()
        errors = []

        def reader() -> None:
            try:
                i = 0
                while not stop.is_set():
                    pool.get_or_load(("r", i % 40), lambda: b"x" * 20)
                    i += 1
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for capacity in (200, 800, 400, 600):
            pool.set_buffer_bytes(capacity)
        stop.set()
        for thread in threads:
            thread.join()
        assert errors == []
        assert pool.capacity_bytes == 600
        pool.check_invariants()

    def test_pins_and_admissions_race_without_losing_bytes(self):
        # put, pin, unpin and resident visits on overlapping keys from more
        # threads than cores, switching often: one lost update of the
        # pinned table or its byte count breaks the final accounting.
        import sys
        import threading

        pool = BufferPool(300)
        errors = []

        def worker(seed: int) -> None:
            try:
                for i in range(400):
                    key = ("k", (seed + i) % 12)
                    step = (seed * 7 + i) % 5
                    if step == 0:
                        pool.pin(key, b"p", 3)
                    elif step == 1:
                        pool.unpin(key)
                    elif step == 2:
                        pool.get_resident([key, ("k", i % 12)], ["intranode", None])
                    else:
                        pool.put(key, b"v", 20 + seed)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        pool.check_invariants()
