"""Tests for the byte-budgeted LRU cache."""

from __future__ import annotations

import pytest

from repro.util.lru import LRUCache


class TestLRUCache:
    def test_get_miss_returns_none(self):
        cache = LRUCache(100)
        assert cache.get("x") is None

    def test_put_then_get(self):
        cache = LRUCache(100)
        cache.put("x", 42, 10)
        assert cache.get("x") == 42

    def test_eviction_respects_budget(self):
        cache = LRUCache(30)
        cache.put("a", 1, 10)
        cache.put("b", 2, 10)
        cache.put("c", 3, 10)
        cache.put("d", 4, 10)  # evicts "a"
        assert cache.get("a") is None
        assert cache.get("d") == 4
        assert cache.used_bytes <= 30

    def test_lru_order_updated_on_get(self):
        cache = LRUCache(20)
        cache.put("a", 1, 10)
        cache.put("b", 2, 10)
        cache.get("a")  # "a" now most recent
        cache.put("c", 3, 10)  # should evict "b"
        assert cache.get("a") == 1
        assert cache.get("b") is None

    def test_eviction_callback_fires(self):
        evicted = []
        cache = LRUCache(10, on_evict=lambda k, v: evicted.append((k, v)))
        cache.put("a", 1, 10)
        cache.put("b", 2, 10)
        assert evicted == [("a", 1)]

    def test_oversized_entry_admitted_alone(self):
        cache = LRUCache(10)
        cache.put("big", 1, 100)
        assert cache.get("big") == 1  # admitted even though over budget
        cache.put("next", 2, 5)
        assert cache.get("big") is None  # evicted by the next insert

    def test_replace_updates_size(self):
        cache = LRUCache(100)
        cache.put("a", 1, 60)
        cache.put("a", 2, 10)
        assert cache.used_bytes == 10
        assert cache.get("a") == 2

    def test_pop_skips_callback(self):
        evicted = []
        cache = LRUCache(100, on_evict=lambda k, v: evicted.append(k))
        cache.put("a", 1, 10)
        assert cache.pop("a") == 1
        assert evicted == []
        assert cache.pop("missing") is None

    def test_clear_fires_callbacks(self):
        evicted = []
        cache = LRUCache(100, on_evict=lambda k, v: evicted.append(k))
        cache.put("a", 1, 10)
        cache.put("b", 2, 10)
        cache.clear()
        assert sorted(evicted) == ["a", "b"]
        assert len(cache) == 0
        assert cache.used_bytes == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(-1)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(10).put("a", 1, -5)

    def test_keys_in_lru_order(self):
        cache = LRUCache(100)
        cache.put("a", 1, 1)
        cache.put("b", 2, 1)
        cache.get("a")
        assert cache.keys() == ["b", "a"]


class TestEvictionCallbackOrdering:
    def test_multiple_evictions_fire_in_lru_order(self):
        evicted = []
        cache = LRUCache(30, on_evict=lambda k, v: evicted.append(k))
        cache.put("a", 1, 10)
        cache.put("b", 2, 10)
        cache.put("c", 3, 10)
        cache.get("a")  # order now: b, c, a
        cache.put("big", 4, 30)  # must evict all three, LRU first
        assert evicted == ["b", "c", "a"]
        assert cache.keys() == ["big"]

    def test_callback_sees_value_after_removal(self):
        # By the time the callback fires the entry is already out of the
        # cache (re-entrant get must miss), as real unload hooks expect.
        observed = []
        cache = LRUCache(10)
        cache._on_evict = lambda k, v: observed.append((k, v, k in cache))
        cache.put("a", 1, 10)
        cache.put("b", 2, 10)
        assert observed == [("a", 1, False)]


class TestOversizedAdmission:
    def test_oversized_entry_evicts_everything_else(self):
        evicted = []
        cache = LRUCache(30, on_evict=lambda k, v: evicted.append(k))
        cache.put("a", 1, 10)
        cache.put("b", 2, 10)
        cache.put("huge", 3, 1000)
        assert evicted == ["a", "b"]
        assert cache.get("huge") == 3
        assert cache.used_bytes == 1000  # over budget, admitted alone

    def test_oversized_entry_never_self_evicts(self):
        cache = LRUCache(5)
        cache.put("huge", 1, 50)
        assert cache.get("huge") == 1
        assert len(cache) == 1

    def test_zero_capacity_still_admits_alone(self):
        cache = LRUCache(0)
        cache.put("a", 1, 10)
        assert cache.get("a") == 1
        cache.put("b", 2, 10)
        assert cache.get("a") is None
        assert cache.get("b") == 2


class TestReplaceAccounting:
    def test_replace_with_larger_size_can_evict_others(self):
        cache = LRUCache(30)
        cache.put("a", 1, 10)
        cache.put("b", 2, 10)
        cache.put("a", 3, 25)  # grows a: 35 > 30, evicts LRU "b"
        assert cache.get("b") is None
        assert cache.get("a") == 3
        assert cache.used_bytes == 25

    def test_replace_does_not_double_count(self):
        cache = LRUCache(100)
        cache.put("a", 1, 40)
        for _ in range(5):
            cache.put("a", 2, 40)
        assert cache.used_bytes == 40
        assert len(cache) == 1

    def test_replace_marks_most_recent(self):
        cache = LRUCache(100)
        cache.put("a", 1, 10)
        cache.put("b", 2, 10)
        cache.put("a", 3, 10)
        assert cache.keys() == ["b", "a"]


class TestRandomizedWorkload:
    """Seeded random operations cross-checked against a reference model.

    The model is a dict plus an explicit recency list — the obviously
    correct (if slow) implementation of the same policy.
    """

    def _run(self, seed: int, capacity: int, operations: int) -> None:
        import random

        rng = random.Random(seed)
        evicted: list[int] = []
        cache = LRUCache(capacity, on_evict=lambda k, v: evicted.append(k))
        model: dict[int, tuple[int, int]] = {}  # key -> (value, size)
        recency: list[int] = []  # least recent first

        def model_shrink() -> None:
            # The just-inserted key sits at the recency tail, so while more
            # than one entry remains the head is always a valid victim.
            used = sum(size for _value, size in model.values())
            while used > capacity and len(model) > 1:
                victim = recency.pop(0)
                used -= model.pop(victim)[1]

        for step in range(operations):
            key = rng.randrange(12)
            action = rng.random()
            if action < 0.45:
                expected = model.get(key)
                actual = cache.get(key)
                if expected is None:
                    assert actual is None, (seed, step, key)
                else:
                    assert actual == expected[0], (seed, step, key)
                    recency.remove(key)
                    recency.append(key)
            elif action < 0.9:
                value = rng.randrange(1000)
                size = rng.randrange(1, capacity // 2)
                cache.put(key, value, size)
                if key in model:
                    recency.remove(key)
                    del model[key]
                model[key] = (value, size)
                recency.append(key)
                model_shrink()
            else:
                expected = model.pop(key, None)
                if expected is not None:
                    recency.remove(key)
                assert cache.pop(key) == (
                    expected[0] if expected is not None else None
                ), (seed, step, key)
            assert set(cache.keys()) == set(model), (seed, step)
            assert cache.keys() == recency, (seed, step)
            assert cache.used_bytes == sum(
                size for _value, size in model.values()
            ), (seed, step)

    def test_seeded_workloads_match_reference_model(self):
        for seed in range(8):
            self._run(seed=seed, capacity=64, operations=400)

    def test_tiny_capacity_workload(self):
        self._run(seed=99, capacity=8, operations=300)
