"""Named counters and distinct-key tallies.

One :class:`MetricsRegistry` instance is owned by each representation (or
shared between a representation and its devices/buffer pool).  Everything
the experiments read — ``bytes_read``, ``disk_seeks``, buffer
hits/misses/evictions, loads by graph kind — flows through it, so
``io_stats()`` has the same meaning for every scheme.

Counters are the registry's only record: the section-4.3 "graphs touched
per query" analysis is served by the distinct-key tallies, which never
grow with the load volume.  An ordered stream of storage events is the
opt-in access profiler's (:mod:`repro.obs.profile.trace`).

**Sessions.** Concurrent readers over one shared store each accumulate
into their own *child* registry (:meth:`MetricsRegistry.child`): the
child is thread-confined, so its hot-path increments are uncontended and
need no coordination, and a client's I/O is attributable to exactly that
client.  :meth:`merge` folds a child back into its parent (done when a
session closes), and :meth:`get_total` / :meth:`merged_snapshot`
aggregate a parent with its still-live children — by construction,
per-client metrics sum to the shared totals.  Mutators on a single
registry take its internal lock, so the rare genuinely shared counters
(buffer evictions, quarantines) stay exact when charged from several
threads.
"""

from __future__ import annotations

import threading

#: Counter names that ``io_stats()`` is expected to expose for any scheme
#: that touches disk (all are zero until the first read).
IO_COUNTERS = ("bytes_read", "disk_seeks")


class CounterBatch:
    """The counter increments of one call, applied to a registry at once.

    Presents the ``inc`` / ``mark`` face the storage layers charge, so a
    read path can hand it down wherever it would hand a registry.
    ``inc`` accumulates in a plain dict — no lock, because a batch is
    confined to the call that opened it — and :meth:`flush` applies the
    sums with one :meth:`MetricsRegistry.add_counts`.  Counter addition
    commutes, so the registry ends where the same increments applied one
    by one would have left it.

    Only counters wait: ``mark`` goes straight through, because its
    first-seen answer is needed at once.  The opener must flush in a
    ``finally`` — work done before an error stays charged.
    """

    __slots__ = ("registry", "counts")

    def __init__(self, registry: "MetricsRegistry") -> None:
        self.registry = registry
        self.counts: dict[str, int] = {}

    def inc(self, name: str, amount: int = 1) -> None:
        """Accumulate ``amount`` for counter ``name`` until the flush."""
        counts = self.counts
        counts[name] = counts.get(name, 0) + amount

    def mark(self, name: str, key) -> bool:
        """See :meth:`MetricsRegistry.mark` (immediate)."""
        return self.registry.mark(name, key)

    def flush(self) -> None:
        """Apply the accumulated increments and start empty again."""
        if self.counts:
            self.registry.add_counts(self.counts)
            self.counts = {}


class MetricsRegistry:
    """Registry of named counters and distinct-key tallies.

    * ``inc(name)`` / ``get(name)`` — integer counters
      (``add_counts(mapping)`` applies a :class:`CounterBatch` at once);
    * ``mark(name, key)`` / ``distinct(name)`` — distinct-key tallies
      (how many *different* intranode graphs were loaded, etc.);
    * ``child()`` / ``merge()`` / ``get_total()`` — session protocol
      (per-client accumulation that sums back to shared totals);
    * ``snapshot()`` / ``reset()`` — experiment protocol.
    """

    def __init__(self, label: str | None = None) -> None:
        self._counters: dict[str, int] = {}
        self._distinct: dict[str, set] = {}
        self.label = label
        self._lock = threading.RLock()
        self._children: list[MetricsRegistry] = []
        #: The tracer whose innermost open span every counter increment is
        #: also charged to (a session's, while one request runs), or None.
        self.tracer = None

    # -- counters ----------------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (created at zero)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount
        if self.tracer is not None:
            self.tracer.charge({name: amount})

    def add_counts(self, counts: dict[str, int]) -> None:
        """Add every ``{name: amount}`` of ``counts`` in one locked update.

        Equal to one :meth:`inc` per entry (a zero amount still creates
        its counter) at the price of a single lock round trip — the
        flush of a :class:`CounterBatch`.
        """
        with self._lock:
            counters = self._counters
            for name, amount in counts.items():
                counters[name] = counters.get(name, 0) + amount
        if self.tracer is not None:
            self.tracer.charge(counts)

    def get(self, name: str) -> int:
        """Current value of counter ``name`` (zero if never incremented)."""
        return self._counters.get(name, 0)

    # -- distinct-key tallies ----------------------------------------------

    def mark(self, name: str, key) -> bool:
        """Note that ``key`` was touched under tally ``name``.

        Returns True the first time ``key`` is seen since the last reset.
        """
        with self._lock:
            seen = self._distinct.setdefault(name, set())
            if key in seen:
                return False
            seen.add(key)
            return True

    def distinct(self, name: str) -> int:
        """Number of distinct keys marked under ``name``."""
        return len(self._distinct.get(name, ()))

    def distinct_keys(self, name: str) -> set:
        """The distinct keys marked under ``name`` (a copy)."""
        return set(self._distinct.get(name, ()))

    # -- sessions ----------------------------------------------------------
    #
    # A child registry is thread-confined to its session, so its hot-path
    # increments never contend; the parent tracks live children for the
    # aggregated ``get_total`` / ``merged_snapshot`` views and absorbs
    # them on merge.

    def child(self, label: str | None = None) -> "MetricsRegistry":
        """A fresh registry whose totals roll up into this one.

        The child starts empty; the parent keeps a reference so the
        ``get_total`` / ``merged_snapshot`` views include it while the
        session is live.  Call :meth:`merge` with the child (normally via
        the owning session's ``close()``) to fold its final numbers into
        the parent and drop the reference.
        """
        child = MetricsRegistry(label=label)
        with self._lock:
            self._children.append(child)
        return child

    def children(self) -> "list[MetricsRegistry]":
        """Live (unmerged) child registries, in creation order."""
        with self._lock:
            return list(self._children)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other``'s counters and tallies into this one.

        If ``other`` is a live child of this registry it is detached
        afterwards, so nothing is double-counted by the aggregated
        views.  Merging preserves conservation: parent totals after the
        merge equal the aggregated totals before it.
        """
        if other is self:
            return
        with other._lock:
            counters = dict(other._counters)
            distinct = {name: set(keys) for name, keys in other._distinct.items()}
        with self._lock:
            for name, amount in counters.items():
                self._counters[name] = self._counters.get(name, 0) + amount
            for name, keys in distinct.items():
                self._distinct.setdefault(name, set()).update(keys)
            if other in self._children:
                self._children.remove(other)

    def get_total(self, name: str) -> int:
        """Counter ``name`` aggregated over this registry + live children."""
        return self.get(name) + sum(
            child.get_total(name) for child in self.children()
        )

    # -- experiment protocol -----------------------------------------------

    def io_stats(self) -> dict[str, int]:
        """All integer counters (the ``GraphRepresentation.io_stats`` view)."""
        return dict(self._counters)

    def snapshot(self) -> dict[str, int]:
        """Flat view: counters and ``distinct_<name>`` tally sizes.

        Tallies are namespaced so a counter and a tally sharing a base
        name cannot silently overwrite each other in the flat dict.
        """
        out = dict(self._counters)
        for name, keys in self._distinct.items():
            out[f"distinct_{name}"] = len(keys)
        return out

    def merged_snapshot(self) -> dict[str, int]:
        """Like :meth:`snapshot`, but aggregated over live children.

        Counters sum; distinct tallies union their key sets — the same
        numbers a serial caller would have accumulated in one registry,
        however the work was spread across sessions.
        """
        counters: dict[str, int] = {}
        distinct: dict[str, set] = {}
        self._collect(counters, distinct)
        for name, keys in distinct.items():
            counters[f"distinct_{name}"] = len(keys)
        return counters

    def _collect(self, counters: dict[str, int], distinct: dict[str, set]) -> None:
        with self._lock:
            own_counters = dict(self._counters)
            own_distinct = {
                name: set(keys) for name, keys in self._distinct.items()
            }
            children = list(self._children)
        for name, amount in own_counters.items():
            counters[name] = counters.get(name, 0) + amount
        for name, keys in own_distinct.items():
            distinct.setdefault(name, set()).update(keys)
        for child in children:
            child._collect(counters, distinct)

    def reset(self) -> None:
        """Zero every counter and tally.

        Live children are reset too: a reset marks the start of a
        measured phase, and a session surviving the boundary must not
        leak pre-reset work into the new totals.
        """
        with self._lock:
            self._counters.clear()
            self._distinct.clear()
            children = list(self._children)
        for child in children:
            child.reset()
