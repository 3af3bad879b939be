"""Snapshot-and-diff span accounting, kept as the test oracle.

Before span counters were pushed, a tracer was bound to a registry — or
to anything with ``snapshot() -> dict``; the daemon bound the
connection's session pair, whose snapshot sums both directions — and
every span took a full snapshot at entry and another at exit, keeping
the nonzero per-name differences.  That is :func:`diff` (what was
``MetricsRegistry.diff``) and :meth:`SnapshotTracer.span` (what
``Tracer.span`` did around its body), moved here.

:class:`SnapshotTracer` is the real tracer doing both: registries bound
to it still push their increments into its spans, and every span it
opens is also diffed, the result filed under the span's id in
:attr:`SnapshotTracer.diffed`.  A test compares the two accountings span
for span; nothing here shares the push path it checks.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.obs.tracing import DEFAULT_MAX_SPANS, Tracer


def diff(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    """Per-name deltas between two ``snapshot()`` results."""
    names = set(before) | set(after)
    return {name: after.get(name, 0) - before.get(name, 0) for name in names}


class SnapshotTracer(Tracer):
    """A :class:`Tracer` that also diffs ``registry`` around every span."""

    def __init__(self, registry, max_spans: int = DEFAULT_MAX_SPANS) -> None:
        super().__init__(max_spans)
        self.registry = registry
        #: span id -> the span's nonzero snapshot differences.
        self.diffed: dict[int, dict[str, float]] = {}

    @contextmanager
    def span(self, name: str, **attrs):
        span_id = self._next_span_id
        entry = self.registry.snapshot()
        try:
            with super().span(name, **attrs) as node:
                yield node
        finally:
            delta = diff(entry, self.registry.snapshot())
            self.diffed[span_id] = {k: v for k, v in delta.items() if v}

    def pushed(self) -> dict[int, dict[str, float]]:
        """span id -> counters, for every span opened (stored or dropped
        spans alike appear in :attr:`diffed`; only stored ones here)."""
        out: dict[int, dict[str, float]] = {}
        stack = list(self.roots)
        while stack:
            node = stack.pop()
            out[node.span_id] = dict(node.counters)
            stack.extend(node.children)
        return out
