"""QueryEngine: one object bundling everything a complex query touches.

The engine owns the repository (page metadata), the text and PageRank
indexes, and a *pair* of graph representations — forward (WG) and
backward (WGT) — because half the paper's queries navigate backlinks.
It also provides the navigation timer: the paper reports only "the
portion of the query execution time spent in accessing and traversing the
Web graph", so query implementations wrap exactly their representation
calls in :meth:`navigation_timer`.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

from repro.baselines.base import GraphRepresentation
from repro.errors import QueryError
from repro.index.pagerank_index import PageRankIndex
from repro.index.textindex import TextIndex
from repro.obs import tracing
from repro.obs.histogram import HistogramSet
from repro.webdata.corpus import Repository


class QueryEngine:
    """Execution context for complex queries over one repository."""

    def __init__(
        self,
        repository: Repository,
        text_index: TextIndex,
        pagerank_index: PageRankIndex,
        forward: GraphRepresentation,
        backward: GraphRepresentation | None = None,
        histograms: HistogramSet | None = None,
        on_corruption: str = "raise",
    ) -> None:
        """``on_corruption="degrade"`` puts both representations in
        graceful-degradation mode: a corrupt region is quarantined and its
        rows served empty instead of failing the whole query (schemes
        without quarantine support keep raising).  The engine-wide tally
        is :attr:`degraded_reads`.
        """
        if forward.num_pages != repository.num_pages:
            raise QueryError("representation does not match repository")
        self.repository = repository
        self.text = text_index
        self.pagerank = pagerank_index
        self.forward = forward
        self.backward = backward
        self.on_corruption = on_corruption
        forward.set_on_corruption(on_corruption)
        if backward is not None:
            backward.set_on_corruption(on_corruption)
        self._navigation_seconds = 0.0
        self._nav_lock = threading.Lock()
        self._nav_state = threading.local()
        #: Per-operation latency distributions: every timed navigation
        #: block records its wall time under its operation kind, so the
        #: experiments can report p50/p90/p99 per operation instead of a
        #: single accumulated mean.
        self.histograms = histograms if histograms is not None else HistogramSet()

    # -- navigation timing ---------------------------------------------------

    @contextmanager
    def navigation_timer(self, op: str = "navigation"):
        """Accumulate wall-clock time of the enclosed navigation block.

        ``op`` names the operation kind (Table 3's rightmost column:
        ``out_neighborhood``, ``in_neighborhood``, ...); the block's wall
        time is recorded into the per-op latency histogram as well as the
        per-query accumulator.

        Timing uses the monotonic ``perf_counter`` clock, the timer is
        *re-entrant* — a timed block calling another timed helper counts
        its wall time once, not twice (only the outermost block of each
        thread reaches the accumulator, while every block still lands in
        its own per-op histogram) — and the accumulator is lock-guarded,
        so concurrent queries on one engine never lose updates.
        """
        depth = getattr(self._nav_state, "depth", 0)
        self._nav_state.depth = depth + 1
        start = time.perf_counter()
        try:
            # When a tracer is active (request-scoped tracing in the
            # daemon), each navigation block is also a span — the storage
            # counters charged to it attribute hits/seeks/bytes to
            # exactly this operation.  Free when no tracer is active.
            with tracing.span(f"nav.{op}"):
                yield
        finally:
            elapsed = time.perf_counter() - start
            self._nav_state.depth = depth
            with self._nav_lock:
                self.histograms.observe(op, elapsed)
                if depth == 0:
                    self._navigation_seconds += elapsed

    def reset_navigation_time(self) -> None:
        """Zero the navigation-time accumulator (per-query runs)."""
        with self._nav_lock:
            self._navigation_seconds = 0.0

    @property
    def navigation_seconds(self) -> float:
        """Navigation time accumulated since the last reset."""
        with self._nav_lock:
            return self._navigation_seconds

    @property
    def degraded_reads(self) -> int:
        """Answers served from quarantined regions, both directions."""
        total = self.forward.degraded_reads
        if self.backward is not None:
            total += self.backward.degraded_reads
        return total

    def require_backward(self) -> GraphRepresentation:
        """The transpose representation; raises if the engine has none."""
        if self.backward is None:
            raise QueryError("this query needs a transpose (backlink) representation")
        return self.backward

    # -- predicate helpers (index side, not timed) -----------------------------

    def pages_in_domain(self, domain: str) -> set[int]:
        """Pages whose registered domain is ``domain``."""
        return set(self.repository.pages_in_domain(domain))

    def phrase_in_domain(self, phrase: str, domain: str | None = None) -> set[int]:
        """Pages containing ``phrase``, optionally restricted to a domain."""
        pages = self.text.pages_with_phrase(phrase.split())
        if domain is None:
            return pages
        return pages & self.pages_in_domain(domain)

    def domain_of(self, page: int) -> str:
        """Registered domain of ``page``."""
        return self.repository.domain_of(page)
