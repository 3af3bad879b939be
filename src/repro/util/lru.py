"""A byte-budgeted LRU cache.

Shared by the S-Node buffer manager (decoded intranode/superedge graphs)
and the mini relational database's buffer pool (heap/index pages).  Entries
carry an explicit size in bytes; insertion evicts least-recently-used
entries until the budget is respected.  An eviction callback lets the
owner count evictions (the buffer pool's ``buffer_evictions``).
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable, Hashable, Iterable
from typing import Generic, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class LRUCache(Generic[K, V]):
    """LRU cache keyed on hashables with per-entry byte sizes."""

    def __init__(
        self,
        capacity_bytes: int,
        on_evict: Callable[[K, V], None] | None = None,
    ) -> None:
        if capacity_bytes < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity_bytes}")
        self._capacity = capacity_bytes
        self._entries: OrderedDict[K, tuple[V, int]] = OrderedDict()
        self._used = 0
        self._on_evict = on_evict

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: K) -> bool:
        return key in self._entries

    @property
    def capacity_bytes(self) -> int:
        """Configured byte budget."""
        return self._capacity

    @property
    def used_bytes(self) -> int:
        """Bytes currently held."""
        return self._used

    def get(self, key: K) -> V | None:
        """Return the cached value and mark it most-recently-used."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        return entry[0]

    def peek(self, key: K) -> V | None:
        """The cached value, observed only: no order change."""
        entry = self._entries.get(key)
        return None if entry is None else entry[0]

    def touch(self, keys: Iterable[K]) -> None:
        """Mark each of ``keys`` most-recently-used, in order: what
        :meth:`get` of each would do to the order, for a caller that
        already holds the values it peeked.  A key evicted since is
        skipped."""
        entries = self._entries
        for key in keys:
            if key in entries:
                entries.move_to_end(key)

    def put(self, key: K, value: V, size_bytes: int) -> None:
        """Insert/replace ``key``; evicts LRU entries to fit the budget.

        An entry larger than the whole budget is admitted alone (the cache
        would otherwise be useless for it); it is evicted by the next put.
        """
        if size_bytes < 0:
            raise ValueError(f"size must be >= 0, got {size_bytes}")
        if key in self._entries:
            self._used -= self._entries.pop(key)[1]
        self._entries[key] = (value, size_bytes)
        self._used += size_bytes
        self._shrink(keep=key)

    def _shrink(self, keep: K) -> None:
        while self._used > self._capacity and len(self._entries) > 1:
            old_key, (old_value, old_size) = self._entries.popitem(last=False)
            if old_key == keep and self._entries:
                # Never evict the entry we just inserted while others remain.
                self._entries[old_key] = (old_value, old_size)
                self._entries.move_to_end(old_key, last=False)
                old_key, (old_value, old_size) = self._entries.popitem(last=False)
            self._used -= old_size
            if self._on_evict is not None:
                self._on_evict(old_key, old_value)

    def pop(self, key: K) -> V | None:
        """Remove and return ``key`` without firing the eviction callback."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return None
        self._used -= entry[1]
        return entry[0]

    def clear(self) -> None:
        """Drop every entry, firing eviction callbacks."""
        while self._entries:
            key, (value, size) = self._entries.popitem(last=False)
            self._used -= size
            if self._on_evict is not None:
                self._on_evict(key, value)

    def keys(self) -> list[K]:
        """Keys ordered least- to most-recently used."""
        return list(self._entries)
