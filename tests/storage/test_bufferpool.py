"""Tests for the shared buffer pool: pinning, typed loads, resize."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs import profile
from repro.storage.bufferpool import BufferPool
from repro.storage.metrics import CounterBatch, MetricsRegistry


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

    def test_repinning_a_key_replaces_its_entry_and_bytes(self):
        pool = BufferPool(100)
        pool.pin("root", b"meta", 8)
        pool.pin("root", b"meta!", 5)
        assert pool.get("root") == b"meta!"
        assert pool.pinned_bytes == 5
        pool.check_invariants()

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
            pool.pin("k", b"x", 8)  # drop (key was cached)
            pool.pin("absent", b"x", 8)  # no drop: nothing was cached
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


def filled(contents, capacity: int = 10_000) -> BufferPool:
    pool = BufferPool(capacity)
    for key in contents:
        pool.put(("g", key), [key], 10, kind=KINDS[key % 3])
    return pool


_CONTENTS = st.lists(st.integers(0, 30), max_size=20, unique=True)

#: Loads after a peeked prefix: (key, what happened to it, cost).  Their
#: keys are outside ``_CONTENTS``: the caller found each of them missing.
_LOADS = st.lists(
    st.tuples(
        st.integers(31, 45), st.sampled_from(("fresh", "admitted", "failed")), st.integers(1, 40)
    ),
    max_size=6,
    unique_by=lambda load: load[0],
)


def events_of(tracer) -> list:
    return [event._replace(pool=0) for event in tracer.buffer_events()]


class TestReplay:
    """Peek, then replay: the keys the caller peeked, then what it loaded
    for the keys it found missing, moved and counted as ``get`` of each
    key in order — and ``put`` of each loaded one it missed — would."""

    @given(contents=_CONTENTS, loads=_LOADS, data=st.data())
    def test_replay_is_get_and_put_of_each_in_order(self, contents, loads, data):
        capacity = data.draw(st.sampled_from((60, 150, 10_000)))
        batched, one_by_one = filled(contents, capacity), filled(contents, capacity)
        # Another reader admits these after the caller found them missing,
        # before the caller peeks the rest.
        for pool in (batched, one_by_one):
            for key, how, cost in loads:
                if how == "admitted":
                    pool.put(("g", key), ["other", key], cost, kind=KINDS[key % 3])
        cached = [key for _tag, key in batched._cache.keys() if key <= 30]
        asked = data.draw(st.lists(st.sampled_from(cached), max_size=12)) if cached else []
        keys = [("g", key) for key in asked] + [("g", key) for key, _how, _cost in loads]
        kinds = [KINDS[key[1] % 3] for key in keys]
        held = [
            (None, 0) if how == "failed" else ([key, "mine"], cost) for key, how, cost in loads
        ]

        batched_events, single_events = profile.AccessTracer(), profile.AccessTracer()
        with profile.activated(batched_events):
            peeked = batched.peek(keys[: len(asked)])
            served = batched.replay(keys, kinds, held)
        with profile.activated(single_events):
            expected = [
                one_by_one.get(key, kind=kind) for key, kind in zip(keys[: len(asked)], kinds)
            ]
            expected_served = []
            for key, kind, (_key, how, cost), (value, _cost) in zip(
                keys[len(asked) :], kinds[len(asked) :], loads, held
            ):
                if how == "failed":
                    assert one_by_one.get(key, kind=kind) is None
                    expected_served.append(None)
                    continue
                cached_value = one_by_one.get(key, kind=kind)
                if cached_value is None:
                    one_by_one.put(key, value, cost, kind=kind)
                expected_served.append(value if cached_value is None else cached_value)
        assert peeked == expected == [[key] for key in asked]
        assert served == expected_served
        assert pool_state(batched) == pool_state(one_by_one)
        assert events_of(batched_events) == events_of(single_events)
        batched.check_invariants()

    @given(
        contents=_CONTENTS,
        asked=st.lists(st.integers(0, 40), max_size=12),
        start=st.integers(0, 3),
        pinned=st.sets(st.integers(0, 40), max_size=3),
        skipped=st.sets(st.integers(0, 40), max_size=3),
    )
    def test_peek_stops_at_the_first_key_missing_pinned_or_skipped_and_moves_nothing(
        self, contents, asked, start, pinned, skipped
    ):
        pool = filled(contents)
        for key in pinned:
            pool.pin(("g", key), [key], 10)
        cached = set(contents) - pinned
        before = pool_state(pool)
        events = profile.AccessTracer()
        with profile.activated(events):
            values = pool.peek(
                [("g", key) for key in asked], start, {("g", key) for key in skipped}
            )
        expected = []
        for key in asked[start:]:
            if key not in cached or key in skipped:
                break
            expected.append([key])
        assert values == expected
        assert pool_state(pool) == before
        assert events.buffer_events() == []

    def test_hits_and_misses_charge_the_registry_handed_in_once(self):
        pool = filled(range(6))
        session = MetricsRegistry()
        batch = CounterBatch(session)
        keys = [("g", key) for key in (0, 1, 2, 3, 3, 7, 8)]
        kinds = [KINDS[key[1] % 3] for key in keys]
        assert pool.peek(keys) == [[0], [1], [2], [3], [3]]
        assert pool.replay(keys, kinds, [([7], 10), (None, 0)], batch) == [[7], None]
        assert session.snapshot() == {} and pool.registry.snapshot() == {}
        batch.flush()
        assert session.snapshot() == {
            "buffer_hits": 5,
            "buffer_hits_intranode": 3,
            "buffer_hits_superedge": 1,
            "buffer_misses": 2,
            "buffer_misses_superedge": 1,
        }
        assert pool.registry.snapshot() == {}

    def test_a_peeked_entry_evicted_before_the_replay_is_still_a_hit(self):
        pool = filled(range(4))
        keys = [("g", key) for key in (1, 2, 3, 9)]
        assert pool.peek(keys) == [[1], [2], [3]]
        pool._cache.pop(("g", 2))  # another reader's admission evicts it
        # Served as peeked: never a short list, never a second read.
        assert pool.replay(keys, ["superedge"] * 4, [([9], 10)]) == [[9]]
        assert pool.registry.snapshot() == {
            "buffer_hits": 3,
            "buffer_hits_superedge": 3,
            "buffer_misses": 1,
            "buffer_misses_superedge": 1,
        }
        assert pool._cache.keys() == [("g", 0), ("g", 1), ("g", 3), ("g", 9)]
        pool.check_invariants()

    def test_no_keys_is_no_lookup(self):
        pool = filled(range(3))
        before = pool_state(pool)
        assert pool.peek([]) == []
        assert pool.replay([], [], []) == []
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
    """The pool has one lock, and a lookup, an admission or a replay takes
    it once."""

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
            "replay, all peeked": lambda: pool.replay(keys, kinds, ()),
            "replay, peeked and loaded": lambda: pool.replay(
                [*keys, ("g", 8)], [*kinds, "superedge"], [([8], 10)]
            ),
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
        # Pinned lookups and peeks take no lock.
        assert self.acquisitions(pool, lambda: pool.get("root")) == 0
        assert self.acquisitions(pool, lambda: pool.peek(keys)) == 0
        assert pool.peek(keys[:2]) == [[0], [1]]
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

    def test_pressed_once_an_admission_evicts(self):
        """``pressed``: an admission has evicted since the pool was last
        emptied or resized — not a drop, a pin, or an admission that fit."""
        pool = BufferPool(25)
        assert not pool.pressed
        pool.put("a", b"x", 10)
        pool.put("e", b"x", 10)
        pool.pin("root", b"m", 5)
        pool.pin("e", b"x", 10)  # drops the cached "e"
        assert not pool.pressed
        pool.replay(["c", "d"], [None, None], [(b"x", 10), (b"x", 10)])  # 30 > 25: evicts "a"
        assert pool.pressed
        pool.get("c")
        assert pool.pressed
        pool.clear(record=True)  # counted as evictions, yet no admission evicted
        assert not pool.pressed
        pool.put("a", b"x", 20)
        pool.put("b", b"x", 20)
        assert pool.pressed
        pool.set_buffer_bytes(25)
        assert not pool.pressed
        pool.put("a", b"x", 20)
        pool.put("b", b"x", 20)
        pool.clear(record=False)
        assert not pool.pressed

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
        # put, pin, peek + replay of a resident visit and replays that admit
        # on overlapping keys from more threads than cores, switching often:
        # one lost update of the pinned table, its byte count or the LRU's
        # budget breaks the final accounting.
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
                        # Replayed keys are never pinned: the store's loads
                        # are graphs, its pins roots.
                        loaded = ("r", (seed * 5 + i) % 12)
                        pool.replay([loaded], ["superedge"], [(b"v", 15 + seed)])
                    elif step == 2:
                        visit = [key, ("k", i % 12)]
                        pool.replay(visit[: len(pool.peek(visit))], ["intranode", None], ())
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
