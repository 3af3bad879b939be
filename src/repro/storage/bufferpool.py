"""Byte-budgeted buffer manager shared by every disk-backed representation.

Built on :class:`repro.util.lru.LRUCache`, adding the features the paper's
runtime architecture needs:

* **pinning** — root structures (the supernode graph, B+tree meta pages)
  stay resident outside the LRU budget, "akin to the root node of B-tree
  indexes";
* **typed load costs** — entries carry explicit byte costs (raw page,
  encoded payload, decoded-graph cost model) and loads are counted per
  kind (``<kind>_loads``) in the shared metrics registry;
* **uniform resize** — :meth:`set_buffer_bytes` is the single Figure 12
  sweep protocol: every representation resizes through it with identical
  semantics (cache dropped silently, pins kept).  Shrinking the budget
  below the pinned floor raises a typed
  :class:`~repro.errors.BufferCapacityError` — pins are resident for the
  store's lifetime, so a budget that cannot cover them is infeasible and
  sweeps skip the point explicitly instead of getting silently wrong
  accounting;
* **concurrent readers** — the cache is *lock-striped*: keys hash onto
  ``stripes`` independent LRU segments, each with its own lock and an
  equal share of the byte budget, so N sessions hitting different
  stripes never serialize on one mutex.  ``stripes=1`` (the default) is
  a single exact LRU with byte-identical behaviour to the serial pool —
  the configuration every experiment and the Mattson miss-ratio
  validation use; the query daemon opens its shared store with more
  stripes.  Pinned entries and their byte accounting are written behind
  one dedicated lock, so capacity/pinned-byte bookkeeping is atomic
  under contention; lookups read the pinned table without it (see
  :meth:`BufferPool.get`).

Hit/miss/eviction counters live in the owning representation's
:class:`~repro.storage.metrics.MetricsRegistry` (``buffer_hits``,
``buffer_misses``, ``buffer_evictions``), so the sweep experiments read
them uniformly across schemes.  Lookups that name a ``kind`` also count
``buffer_hits_<kind>`` / ``buffer_misses_<kind>``, so per-component hit
ratios (intranode vs. superedge vs. heap page vs. index page) are
recoverable; hits served by pinned entries are additionally counted as
``buffer_pinned_hits`` because they are capacity-independent and must be
excluded when comparing measured ratios against LRU predictions.

Per-session attribution: lookups and loads accept an optional
``registry`` — a session's child registry — charged *instead of* the
pool's own.  Evictions are a shared-pool event (one session's admission
evicts another session's entry) and always charge the pool's base
registry, so per-client counters plus the base sum to the true totals.
"""

from __future__ import annotations

import functools
import threading
from collections import Counter
from collections.abc import Callable, Hashable, Sequence

from repro.errors import BufferCapacityError, StorageError
from repro.obs import tracing
from repro.obs.profile import trace as _profile
from repro.storage.metrics import MetricsRegistry
from repro.util.lru import LRUCache


def _split_budget(capacity_bytes: int, stripes: int) -> list[int]:
    """Per-stripe byte budgets (stripe 0 absorbs the remainder)."""
    share = capacity_bytes // stripes
    budgets = [share] * stripes
    budgets[0] += capacity_bytes - share * stripes
    return budgets


@functools.cache
def _kind_counters(kind: str) -> tuple[str, str]:
    """``(buffer_hits_<kind>, buffer_misses_<kind>)``, formatted once."""
    return f"buffer_hits_{kind}", f"buffer_misses_{kind}"


@functools.lru_cache(maxsize=1024)
def _hit_counters(kinds: tuple) -> tuple[tuple[str, int], ...]:
    """``(buffer_hits_<kind>, how many of kinds are that kind)`` pairs; a
    caller visiting the same graphs again passes the same kinds."""
    return tuple(
        (_kind_counters(kind)[0], count)
        for kind, count in Counter(kinds).items()
        if kind is not None
    )


class BufferPool:
    """LRU buffer manager with pinning and shared-metrics accounting."""

    def __init__(
        self,
        capacity_bytes: int,
        registry: MetricsRegistry | None = None,
        stripes: int = 1,
    ) -> None:
        if stripes < 1:
            raise ValueError(f"stripes must be >= 1, got {stripes}")
        self.registry = registry if registry is not None else MetricsRegistry()
        self._capacity_bytes = capacity_bytes
        self._stripes = stripes
        self._pin_lock = threading.RLock()
        self._pinned: dict[Hashable, tuple[object, int]] = {}
        self._pinned_bytes = 0
        self._locks = [threading.RLock() for _ in range(stripes)]
        self._caches = self._empty_caches(capacity_bytes)

    def _stripe(self, key: Hashable) -> int:
        if self._stripes == 1:
            return 0
        return hash(key) % self._stripes

    # -- eviction accounting -----------------------------------------------

    def _empty_caches(self, capacity_bytes: int) -> list[LRUCache]:
        """One empty LRU per stripe, each counting its evictions."""
        return [
            LRUCache(budget, self._evicted)
            for budget in _split_budget(capacity_bytes, self._stripes)
        ]

    def _evicted(self, key: Hashable, value: object) -> None:
        # Evictions are shared-pool events (session A's admission can push
        # out session B's entry), so they always charge the base registry.
        self.registry.inc("buffer_evictions")

    # -- cache protocol ----------------------------------------------------

    def get(
        self,
        key: Hashable,
        kind: str | None = None,
        registry: MetricsRegistry | None = None,
    ):
        """Cached value for ``key`` or None, counting hit/miss.

        A ``kind`` additionally attributes the lookup to
        ``buffer_hits_<kind>`` / ``buffer_misses_<kind>``; a ``registry``
        (a session's, or a call's
        :class:`~repro.storage.metrics.CounterBatch`) is charged instead
        of the pool's own.
        """
        target = registry if registry is not None else self.registry
        if kind is not None:
            names = _kind_counters(kind)
        # No pin lock: one dict read is atomic, and every writer of
        # ``_pinned`` replaces whole ``(value, cost)`` tuples under the
        # lock, so a reader sees the entry from before or after a pin,
        # never a torn one.
        pinned = self._pinned.get(key)
        if pinned is not None:
            target.inc("buffer_hits")
            target.inc("buffer_pinned_hits")
            if kind is not None:
                target.inc(names[0])
            _profile.buffer_access(self, key, kind, hit=True, pinned=True)
            return pinned[0]
        index = hash(key) % self._stripes if self._stripes > 1 else 0
        with self._locks[index]:
            value = self._caches[index].get(key)
        if value is None:
            target.inc("buffer_misses")
            if kind is not None:
                target.inc(names[1])
            _profile.buffer_access(self, key, kind, hit=False, pinned=False)
            return None
        target.inc("buffer_hits")
        if kind is not None:
            target.inc(names[0])
        _profile.buffer_access(self, key, kind, hit=True, pinned=False)
        return value

    def get_resident(
        self,
        keys: Sequence[Hashable],
        kinds: Sequence[str | None],
        registry: MetricsRegistry | None = None,
    ) -> list | None:
        """Every key's cached value, in order — or None, all or nothing.

        When every key is cached this *is* :meth:`get` of each key in
        order: the same LRU movement within each stripe, the same
        ``buffer_hits`` / ``buffer_hits_<kind>`` charged to ``registry``,
        the same profile events — at one lock round trip per stripe
        touched instead of one per key.  When any key is missing (a
        pinned entry counts as missing: pins are not the LRU's) nothing
        has moved and nothing is counted, so the caller can fall back
        to key-by-key :meth:`get` as if it had never asked.

        The values are peeked without a lock (single atomic dict reads)
        and touched under it afterwards.  An entry evicted in between is
        still returned and still counted as a hit: the caller was served
        it from memory, exactly as a :meth:`get` scheduled just before
        the eviction would have been.
        """
        if not keys:
            return []
        caches = self._caches
        stripes = self._stripes
        values = []
        by_stripe: dict[int, list] = {}
        for key in keys:
            index = hash(key) % stripes if stripes > 1 else 0
            value = caches[index].peek(key)
            if value is None:
                return None
            values.append(value)
            by_stripe.setdefault(index, []).append(key)
        for index, touched in by_stripe.items():
            with self._locks[index]:
                self._caches[index].touch(touched)
        target = registry if registry is not None else self.registry
        target.inc("buffer_hits", len(values))
        for name, count in _hit_counters(tuple(kinds)):
            target.inc(name, count)
        if _profile.current_profiler() is not None:
            for key, kind in zip(keys, kinds):
                _profile.buffer_access(self, key, kind, hit=True, pinned=False)
        return values

    def put(self, key: Hashable, value, cost_bytes: int, kind: str | None = None) -> None:
        """Admit ``value`` under the byte budget (evicting LRU entries)."""
        with self._pin_lock:
            if key in self._pinned:
                self._pinned_bytes += cost_bytes - self._pinned[key][1]
                self._pinned[key] = (value, cost_bytes)
                return
        _profile.buffer_admit(self, key, kind, cost_bytes)
        index = self._stripe(key)
        with self._locks[index]:
            self._caches[index].put(key, value, cost_bytes)

    def get_or_load(
        self,
        key: Hashable,
        loader: Callable[[], object],
        cost: Callable[[object], int] | int | None = None,
        kind: str | None = None,
        registry: MetricsRegistry | None = None,
    ):
        """Return the cached value for ``key``, loading and admitting on miss.

        ``cost`` is either an explicit byte cost, a function of the loaded
        value, or None (``len(value)`` — raw byte payloads).  ``kind``
        names the load in the registry (``<kind>_loads`` plus the total
        ``loads`` counter) — how "loads by graph kind" reach Figure 11's
        instrumentation table.  ``registry`` attributes the lookup and
        the load to a session instead of the pool's base registry.
        """
        target = registry if registry is not None else self.registry
        value = self.get(key, kind=kind, registry=registry)
        if value is not None:
            return value
        value = loader()
        if callable(cost):
            cost_bytes = cost(value)
        elif cost is None:
            cost_bytes = len(value)  # type: ignore[arg-type]
        else:
            cost_bytes = cost
        self.put(key, value, cost_bytes, kind=kind)
        target.inc("loads")
        if kind is not None:
            target.inc(f"{kind}_loads")
        # Span attribution: an active tracer sees which span triggered
        # the load, by kind.
        tracing.note(f"{kind}_loads" if kind is not None else "loads")
        return value

    # -- pinning -----------------------------------------------------------

    def pin(self, key: Hashable, value, cost_bytes: int) -> None:
        """Keep ``value`` resident outside the LRU budget until unpinned."""
        index = self._stripe(key)
        with self._locks[index]:
            dropped = self._caches[index].pop(key) is not None
        if dropped:  # never hold a pinned key twice
            _profile.buffer_drop(self, key)
        with self._pin_lock:
            previous = self._pinned.get(key)
            if previous is not None:
                self._pinned_bytes -= previous[1]
            self._pinned[key] = (value, cost_bytes)
            self._pinned_bytes += cost_bytes

    def unpin(self, key: Hashable) -> None:
        """Release a pinned entry (dropped, not demoted to the LRU)."""
        with self._pin_lock:
            entry = self._pinned.pop(key, None)
            if entry is not None:
                self._pinned_bytes -= entry[1]

    def invalidate(self, key: Hashable) -> None:
        """Drop ``key`` without eviction accounting (after an in-place write)."""
        index = self._stripe(key)
        with self._locks[index]:
            dropped = self._caches[index].pop(key) is not None
        if dropped:
            _profile.buffer_drop(self, key)

    # -- maintenance -------------------------------------------------------

    def _lock_all(self) -> list[threading.RLock]:
        # Whole-pool operations take every stripe lock in index order so
        # two concurrent maintenance calls cannot deadlock.
        for lock in self._locks:
            lock.acquire()
        return self._locks

    def _unlock_all(self) -> None:
        for lock in reversed(self._locks):
            lock.release()

    def clear(self, record: bool = True) -> None:
        """Drop every unpinned entry.

        ``record=True`` (cold-cache resets) counts the drops as
        ``buffer_evictions``, as an actual buffer-pressure eviction is
        counted; ``record=False`` discards silently (resize protocol).
        """
        self._lock_all()
        try:
            if record:
                for cache in self._caches:
                    cache.clear()
            else:
                self._caches = self._empty_caches(self._capacity_bytes)
        finally:
            self._unlock_all()
        _profile.buffer_drop(self)

    def set_buffer_bytes(self, capacity_bytes: int) -> None:
        """Uniform resize protocol: new budget, cache dropped, pins kept.

        Raises :class:`~repro.errors.BufferCapacityError` when the new
        budget is below :attr:`pinned_bytes`: pinned roots are resident
        whatever the budget, so a budget that cannot cover them would
        leave the capacity accounting negative — the Figure 12 sweep
        treats such a point as infeasible rather than measurable.
        """
        with self._pin_lock:
            pinned_bytes = self._pinned_bytes
        if capacity_bytes < pinned_bytes:
            raise BufferCapacityError(
                f"cannot shrink buffer budget to {capacity_bytes} bytes: "
                f"{pinned_bytes} bytes are pinned (supernode graph, root "
                f"pages); the budget must at least cover the pinned floor"
            )
        self._lock_all()
        try:
            self._capacity_bytes = capacity_bytes
            self._caches = self._empty_caches(capacity_bytes)
        finally:
            self._unlock_all()
        _profile.buffer_drop(self)

    # -- introspection -----------------------------------------------------

    @property
    def stripes(self) -> int:
        """Number of independent LRU segments."""
        return self._stripes

    @property
    def capacity_bytes(self) -> int:
        """Configured LRU byte budget (pins live outside it)."""
        return self._capacity_bytes

    @property
    def used_bytes(self) -> int:
        """Bytes held by unpinned entries (summed over stripes)."""
        return sum(cache.used_bytes for cache in self._caches)

    @property
    def pinned_bytes(self) -> int:
        """Bytes held by pinned entries."""
        with self._pin_lock:
            return self._pinned_bytes

    def check_invariants(self) -> None:
        """Verify capacity/pinned accounting; raises ``StorageError``.

        Checked under all locks, so it is safe to call from a watchdog
        thread while readers hammer the pool:

        * each stripe's ``used_bytes`` equals the sum of its entry costs
          and respects its budget (one over-budget entry may sit alone,
          matching :class:`~repro.util.lru.LRUCache` admission);
        * ``pinned_bytes`` equals the sum of pinned entry costs;
        * no key is both pinned and cached.
        """
        self._lock_all()
        try:
            with self._pin_lock:
                pinned_sum = sum(
                    cost for _value, cost in self._pinned.values()
                )
                if pinned_sum != self._pinned_bytes:
                    raise StorageError(
                        f"pinned accounting drifted: tracked "
                        f"{self._pinned_bytes}, actual {pinned_sum}"
                    )
                pinned_keys = set(self._pinned)
            for index, cache in enumerate(self._caches):
                overlap = pinned_keys.intersection(cache.keys())
                if overlap:
                    raise StorageError(
                        f"key(s) both pinned and cached: {sorted(map(str, overlap))}"
                    )
                if cache.used_bytes > cache.capacity_bytes and len(cache) > 1:
                    raise StorageError(
                        f"stripe {index} over budget with multiple entries: "
                        f"{cache.used_bytes} > {cache.capacity_bytes}"
                    )
        finally:
            self._unlock_all()

    def stats(self) -> dict[str, int]:
        """Occupancy plus the registry's hit/miss/eviction counters.

        Counters aggregate over the base registry and any live session
        registries (``get_total``), so the totals stay meaningful whether
        reads went through the pool directly or through sessions.
        """
        return {
            "hits": self.registry.get_total("buffer_hits"),
            "pinned_hits": self.registry.get_total("buffer_pinned_hits"),
            "misses": self.registry.get_total("buffer_misses"),
            "evictions": self.registry.get_total("buffer_evictions"),
            "entries": sum(len(cache) for cache in self._caches),
            "used_bytes": self.used_bytes,
            "capacity_bytes": self._capacity_bytes,
            "pinned_entries": len(self._pinned),
            "pinned_bytes": self.pinned_bytes,
        }
