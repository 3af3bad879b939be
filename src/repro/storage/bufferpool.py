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
* **concurrent readers** — one exact LRU behind one lock, which also
  guards the pinned entries and their byte accounting, so every LRU and
  pin mutation is atomic under contention; lookups read the pinned table
  without it (see :meth:`BufferPool.get`).  Every experiment, the Mattson
  miss-ratio validation and the query daemon use this same single LRU.

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
from collections.abc import Callable, Collection, Hashable, Sequence

from repro.errors import BufferCapacityError, StorageError
from repro.obs import tracing
from repro.obs.profile import trace as _profile
from repro.storage.metrics import MetricsRegistry
from repro.util.lru import LRUCache


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
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._lock = threading.RLock()
        self._pinned: dict[Hashable, tuple[object, int]] = {}
        self._pinned_bytes = 0
        self._cache = LRUCache(capacity_bytes, self._evicted)
        self._pressed = False

    # -- eviction accounting -----------------------------------------------

    def _evicted(self, key: Hashable, value: object) -> None:
        # Evictions are shared-pool events (session A's admission can push
        # out session B's entry), so they always charge the base registry.
        self.registry.inc("buffer_evictions")
        self._pressed = True

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
        # No lock for the pinned table: one dict read is atomic, and every
        # writer of ``_pinned`` replaces whole ``(value, cost)`` tuples
        # under the lock, so a reader sees the entry from before or after
        # a pin, never a torn one.
        pinned = self._pinned.get(key)
        if pinned is not None:
            target.inc("buffer_hits")
            target.inc("buffer_pinned_hits")
            if kind is not None:
                target.inc(names[0])
            _profile.buffer_access(self, key, kind, hit=True, pinned=True)
            return pinned[0]
        with self._lock:
            value = self._cache.get(key)
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

    def peek(
        self,
        keys: Sequence[Hashable],
        start: int = 0,
        skip: Collection[Hashable] = (),
    ) -> list:
        """The cached values of ``keys[start:]``, in order, up to the first
        key that is not in the LRU or is in ``skip`` — observed only: no
        lock (single atomic dict reads), no order change, nothing counted
        or profiled.  A pinned entry is not the LRU's.  The values are
        what :meth:`replay` serves these keys as."""
        peek = self._cache.peek
        values = []
        for key in keys[start:]:
            value = peek(key)
            if value is None or (skip and key in skip):
                break
            values.append(value)
        return values

    def is_cached(self, key: Hashable) -> bool:
        """Whether ``key`` is in the LRU now — observed as :meth:`peek`
        observes it."""
        return key in self._cache

    def replay(
        self,
        keys: Sequence[Hashable],
        kinds: Sequence[str | None],
        loads: Sequence[tuple],
        registry: MetricsRegistry | None = None,
    ) -> list:
        """:meth:`get` of each key in order, each miss followed by the
        :meth:`put` of what the caller loaded for it, under one lock
        round trip; returns what each load is served.

        The first ``len(keys) - len(loads)`` keys are the ones the caller
        peeked (:meth:`peek`): each is marked most recently used and
        counted a hit.  The caller holds their values as peeked, and a
        key evicted since is still served that way and counted a hit —
        a :meth:`get` scheduled just before the eviction would have been.

        ``loads[i]`` is what the caller holds for the key after them:

        * ``(value, cost)`` — it loaded ``value``.  A miss admits it at
          ``cost`` and serves it; a hit (another reader admitted the key
          in the meantime) serves the cached value instead;
        * ``(None, 0)`` — its load failed: a miss is counted, nothing is
          looked up or admitted, and None is served.

        The counters (charged to ``registry``, as :meth:`get` charges
        them), LRU movement, evictions and profile events are those of
        the same calls made one by one.  The keys must not be pinned.
        """
        peeked = len(keys) - len(loads)
        #: (kind, hit) -> lookups of the loads, charged once the lock is released.
        tally: dict[tuple, int] = {}
        profiling = _profile.current_profiler() is not None
        served = []
        with self._lock:
            cache = self._cache
            cache.touch(keys[:peeked])
            if profiling:
                for key, kind in zip(keys[:peeked], kinds):
                    _profile.buffer_access(self, key, kind, hit=True, pinned=False)
            for key, kind, (value, cost) in zip(keys[peeked:], kinds[peeked:], loads):
                cached = None if value is None else cache.get(key)
                hit = cached is not None
                tally[kind, hit] = tally.get((kind, hit), 0) + 1
                if profiling:
                    _profile.buffer_access(self, key, kind, hit=hit, pinned=False)
                if hit:
                    value = cached
                elif value is not None:
                    if profiling:
                        _profile.buffer_admit(self, key, kind, cost)
                    cache.put(key, value, cost)
                served.append(value)
        target = registry if registry is not None else self.registry
        if peeked:
            target.inc("buffer_hits", peeked)
            for name, count in _hit_counters(tuple(kinds[:peeked])):
                target.inc(name, count)
        for (kind, hit), count in tally.items():
            target.inc("buffer_hits" if hit else "buffer_misses", count)
            if kind is not None:
                target.inc(_kind_counters(kind)[0 if hit else 1], count)
        return served

    def put(self, key: Hashable, value, cost_bytes: int, kind: str | None = None) -> None:
        """Admit ``value`` under the byte budget (evicting LRU entries)."""
        with self._lock:
            pinned = self._pinned.get(key)
            if pinned is not None:
                self._pinned_bytes += cost_bytes - pinned[1]
                self._pinned[key] = (value, cost_bytes)
                return
            _profile.buffer_admit(self, key, kind, cost_bytes)
            self._cache.put(key, value, cost_bytes)

    def get_or_load(
        self,
        key: Hashable,
        loader: Callable[[], object],
        cost: int | None = None,
        kind: str | None = None,
        registry: MetricsRegistry | None = None,
    ):
        """Return the cached value for ``key``, loading and admitting on miss.

        ``cost`` is an explicit byte cost, or None (``len(value)`` — raw
        byte payloads).  ``kind`` names the load in the registry
        (``<kind>_loads`` plus the total ``loads`` counter) — how "loads
        by graph kind" reach Figure 11's instrumentation table.  ``registry`` attributes the lookup and
        the load to a session instead of the pool's base registry.
        """
        target = registry if registry is not None else self.registry
        value = self.get(key, kind=kind, registry=registry)
        if value is not None:
            return value
        value = loader()
        if cost is None:
            cost = len(value)  # type: ignore[arg-type]
        self.put(key, value, cost, kind=kind)
        target.inc("loads")
        if kind is not None:
            target.inc(f"{kind}_loads")
        # Span attribution: an active tracer sees which span triggered
        # the load, by kind.
        tracing.note(f"{kind}_loads" if kind is not None else "loads")
        return value

    # -- pinning -----------------------------------------------------------

    def pin(self, key: Hashable, value, cost_bytes: int) -> None:
        """Keep ``value`` resident outside the LRU budget for good."""
        with self._lock:
            # Never hold a pinned key twice: the cached copy goes as the
            # pin is recorded.
            dropped = self._cache.pop(key) is not None
            previous = self._pinned.get(key)
            if previous is not None:
                self._pinned_bytes -= previous[1]
            self._pinned[key] = (value, cost_bytes)
            self._pinned_bytes += cost_bytes
        if dropped:
            _profile.buffer_drop(self, key)

    def invalidate(self, key: Hashable) -> None:
        """Drop ``key`` without eviction accounting (after an in-place write)."""
        with self._lock:
            dropped = self._cache.pop(key) is not None
        if dropped:
            _profile.buffer_drop(self, key)

    # -- maintenance -------------------------------------------------------

    def clear(self, record: bool = True) -> None:
        """Drop every unpinned entry.

        ``record=True`` (cold-cache resets) counts the drops as
        ``buffer_evictions``, as an actual buffer-pressure eviction is
        counted; ``record=False`` discards silently (resize protocol).
        """
        with self._lock:
            if record:
                self._cache.clear()
            else:
                self._cache = LRUCache(self._cache.capacity_bytes, self._evicted)
            self._pressed = False
        _profile.buffer_drop(self)

    def set_buffer_bytes(self, capacity_bytes: int) -> None:
        """Uniform resize protocol: new budget, cache dropped, pins kept.

        Raises :class:`~repro.errors.BufferCapacityError` when the new
        budget is below :attr:`pinned_bytes`: pinned roots are resident
        whatever the budget, so a budget that cannot cover them would
        leave the capacity accounting negative — the Figure 12 sweep
        treats such a point as infeasible rather than measurable.
        """
        with self._lock:
            if capacity_bytes < self._pinned_bytes:
                raise BufferCapacityError(
                    f"cannot shrink buffer budget to {capacity_bytes} bytes: "
                    f"{self._pinned_bytes} bytes are pinned (supernode graph, "
                    f"root pages); the budget must at least cover the pinned "
                    f"floor"
                )
            self._cache = LRUCache(capacity_bytes, self._evicted)
            self._pressed = False
        _profile.buffer_drop(self)

    # -- introspection -----------------------------------------------------

    @property
    def capacity_bytes(self) -> int:
        """Configured LRU byte budget (pins live outside it)."""
        return self._cache.capacity_bytes

    @property
    def used_bytes(self) -> int:
        """Bytes held by unpinned entries."""
        return self._cache.used_bytes

    @property
    def pressed(self) -> bool:
        """Whether the LRU has evicted an entry to admit another since the
        last :meth:`clear` or :meth:`set_buffer_bytes` (read without the
        lock: one attribute read)."""
        return self._pressed

    @property
    def pinned_bytes(self) -> int:
        """Bytes held by pinned entries."""
        with self._lock:
            return self._pinned_bytes

    def check_invariants(self) -> None:
        """Verify capacity/pinned accounting; raises ``StorageError``.

        Checked under the pool lock, so it is safe to call from a watchdog
        thread while readers hammer the pool:

        * ``used_bytes`` respects the budget (one over-budget entry may
          sit alone, matching :class:`~repro.util.lru.LRUCache` admission);
        * ``pinned_bytes`` equals the sum of pinned entry costs;
        * no key is both pinned and cached.
        """
        with self._lock:
            pinned_sum = sum(cost for _value, cost in self._pinned.values())
            if pinned_sum != self._pinned_bytes:
                raise StorageError(
                    f"pinned accounting drifted: tracked "
                    f"{self._pinned_bytes}, actual {pinned_sum}"
                )
            cache = self._cache
            overlap = set(self._pinned).intersection(cache.keys())
            if overlap:
                raise StorageError(
                    f"key(s) both pinned and cached: {sorted(map(str, overlap))}"
                )
            if cache.used_bytes > cache.capacity_bytes and len(cache) > 1:
                raise StorageError(
                    f"over budget with multiple entries: "
                    f"{cache.used_bytes} > {cache.capacity_bytes}"
                )

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
            "entries": len(self._cache),
            "used_bytes": self.used_bytes,
            "capacity_bytes": self.capacity_bytes,
            "pinned_entries": len(self._pinned),
            "pinned_bytes": self.pinned_bytes,
        }
