"""Common interface every Web-graph representation implements.

Queries and experiments are written once against
:class:`GraphRepresentation`; each scheme (S-Node, Huffman, Link3,
relational, flat file) plugs in behind it.  All public methods speak
*repository* page ids (crawl order) — schemes with internal renumberings
(S-Node, Link3) translate at the boundary, exactly as their real
counterparts translate through URL<->id maps.
"""

from __future__ import annotations

import abc
from collections.abc import Iterable, Iterator

from repro.storage.metrics import MetricsRegistry


class GraphRepresentation(abc.ABC):
    """Adjacency-list access to one stored Web graph."""

    #: Human-readable scheme name used in experiment tables.
    name: str = "abstract"

    @abc.abstractmethod
    def out_neighbors(self, page: int) -> list[int]:
        """Sorted adjacency list of ``page`` (repository ids)."""

    def out_neighbors_many(self, pages: Iterable[int]) -> dict[int, list[int]]:
        """Adjacency lists of several pages (override to batch I/O)."""
        return {page: self.out_neighbors(page) for page in pages}

    @abc.abstractmethod
    def iterate_all(self) -> Iterator[tuple[int, list[int]]]:
        """Yield (page, adjacency) over all pages in the scheme's natural
        storage order — the sequential-access path of Table 2."""

    @abc.abstractmethod
    def size_bytes(self) -> int:
        """Total bytes of the representation (payload + decode metadata)."""

    @property
    @abc.abstractmethod
    def num_pages(self) -> int:
        """Number of pages represented."""

    @property
    @abc.abstractmethod
    def num_edges(self) -> int:
        """Number of edges represented."""

    def bits_per_edge(self) -> float:
        """Table 1 metric."""
        if self.num_edges == 0:
            return 0.0
        return self.size_bytes() * 8.0 / self.num_edges

    # -- shared storage-engine protocol -------------------------------------
    #
    # Every scheme owns (or shares) a repro.storage.metrics.MetricsRegistry;
    # disk-backed schemes charge their devices and buffer pool against it,
    # purely in-memory schemes simply report an empty one.  Experiments are
    # written against these five methods only — no per-scheme branches.

    @property
    def metrics(self) -> MetricsRegistry:
        """The scheme's metrics registry (created empty on first use)."""
        registry = getattr(self, "_metrics", None)
        if registry is None:
            registry = self._metrics = MetricsRegistry()
        return registry

    def reset_io_stats(self) -> None:
        """Zero I/O counters before a measured run."""
        self.metrics.reset()

    def io_stats(self) -> dict[str, int]:
        """All metered counters since the last reset (``bytes_read``,
        ``disk_seeks``, buffer hits/misses/evictions, loads by kind)."""
        return self.metrics.io_stats()

    def drop_caches(self) -> None:
        """Forget buffered data so the next access is cold."""

    def set_buffer_bytes(self, buffer_bytes: int) -> None:
        """Rebound the scheme's buffer budget (Figure 12 sweep protocol).

        No-op for schemes without a buffer manager (flat file, in-memory
        Huffman): their cost model has nothing to rebound.
        """

    def set_on_corruption(self, mode: str) -> None:
        """Pick the corruption policy (``"raise"`` or ``"degrade"``).

        Only schemes with region-granular checksums and quarantine support
        (S-Node) can degrade; for the rest a corrupt page/block always
        raises, whatever the mode — this default is a no-op.
        """

    @property
    def degraded_reads(self) -> int:
        """Answers served from quarantined regions (0 unless degrading)."""
        return self.metrics.get("degraded_reads")

    def close(self) -> None:
        """Release file handles."""

    def __enter__(self) -> "GraphRepresentation":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class RepresentationPair:
    """Forward (WG) + transpose (WGT) representations of one scheme.

    The paper builds both "using each of the schemes" because half its
    queries walk backlinks; whatever is done to one direction of a
    measured run (cold start, counter reset, buffer rebound, close) is
    done to the other, and every reported counter is the two
    directions' sum.
    """

    def __init__(
        self, forward: GraphRepresentation, backward: GraphRepresentation
    ) -> None:
        self.forward = forward
        self.backward = backward

    @property
    def name(self) -> str:
        return self.forward.name

    def drop_caches(self) -> None:
        self.forward.drop_caches()
        self.backward.drop_caches()

    def reset_io_stats(self) -> None:
        self.forward.reset_io_stats()
        self.backward.reset_io_stats()

    def set_buffer_bytes(self, buffer_bytes: int) -> None:
        self.forward.set_buffer_bytes(buffer_bytes)
        self.backward.set_buffer_bytes(buffer_bytes)

    def io_stats(self) -> dict[str, dict[str, int]]:
        """Each direction's own counters."""
        return {
            "forward": self.forward.io_stats(),
            "backward": self.backward.io_stats(),
        }

    def total(self, name: str) -> int:
        """Counter ``name`` summed over both directions."""
        return self.forward.metrics.get(name) + self.backward.metrics.get(name)

    def snapshot(self) -> dict[str, int]:
        """Every counter summed over both directions."""
        totals = self.forward.io_stats()
        for name, value in self.backward.io_stats().items():
            totals[name] = totals.get(name, 0) + value
        return totals

    def bits_per_edge(self) -> tuple[float, float]:
        """(WG, WGT) bits per edge — the scheme's two Table 1 cells."""
        return self.forward.bits_per_edge(), self.backward.bits_per_edge()

    def make_engine(
        self, repository, text_index, pagerank_index, on_corruption: str = "raise"
    ):
        """A :class:`~repro.query.engine.QueryEngine` reading this pair."""
        from repro.query.engine import QueryEngine

        return QueryEngine(
            repository,
            text_index,
            pagerank_index,
            self.forward,
            self.backward,
            on_corruption=on_corruption,
        )

    def close(self) -> None:
        self.forward.close()
        self.backward.close()

    def __enter__(self) -> "RepresentationPair":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SNodeRepresentation(GraphRepresentation):
    """An :class:`~repro.snode.build.SNodeBuild` behind the common
    interface (new ids translated back to repository ids).

    The one read view of an S-Node store.  The *shared* view, made from
    a build, charges the store's own registry and owns the store's
    lifetime.  :meth:`session` stamps out a *client* view of the same
    class: same store, same buffer pool, same overlay, but reads charge
    a child registry of the store's, so a query daemon can hand each
    connection its own view (and its own
    :class:`~repro.query.engine.QueryEngine`) with exactly attributable
    I/O.  A client view is used from one thread at a time — that is what
    makes its hot-path counting uncontended — and is closed by folding
    its counters into the store's.
    """

    name = "s-node"

    def __init__(self, build) -> None:
        self._build = build
        self._store = build.store
        self._old_to_new = build.numbering.old_to_new
        self._new_to_old = build.numbering.new_to_old
        #: What this view's reads charge: the store's own registry, or on
        #: a client view a child of it.
        self._registry = self._store.metrics
        #: On a client view, the shared view it was stamped out from —
        #: the owner of the store and the overlay; None on that view itself
        #: (not a self-reference: dropping a view must free its store).
        self._parent = None
        #: Optional :class:`~repro.snode.delta.DeltaOverlay` of pending
        #: edge mutations, merged into every row *after* the new->old id
        #: translation (the overlay speaks repository ids).
        self._overlay = None
        #: Set (by whoever owns a client view, for as long as it wants)
        #: to have reads answer from the buffer pool or raise
        #: :class:`~repro.errors.NotResident` without reading a file.
        self.memory_only = False

    @classmethod
    def open(
        cls,
        root,
        buffer_bytes: int | None = None,
        on_corruption: str = "raise",
    ) -> "SNodeRepresentation":
        """Open a committed build directory without rebuilding.

        The serving-side constructor (hot store swap, corrupt-store
        fixtures): everything comes off disk via
        :func:`~repro.snode.build.open_snode`, so the logical model is
        absent and model-dependent accessors (``num_edges``) raise.
        """
        from repro.snode.build import open_snode
        from repro.snode.store import DEFAULT_BUFFER_BYTES

        return cls(
            open_snode(
                root,
                buffer_bytes=(
                    DEFAULT_BUFFER_BYTES if buffer_bytes is None else buffer_bytes
                ),
                on_corruption=on_corruption,
            )
        )

    def session(self, label: str | None = None) -> "SNodeRepresentation":
        """A client view: this store and overlay, its own counters.

        ``metrics`` / ``io_stats()`` of the returned view cover only its
        own reads; the store's ``metrics.merged_snapshot()`` includes it
        while it is open, and :meth:`close` folds it in for good, so
        client numbers plus the base always sum to the shared totals.
        """
        view = SNodeRepresentation(self._build)
        view._registry = self._store.metrics.child(label)
        view._parent = self._parent or self
        return view

    @property
    def store(self):
        """The underlying :class:`~repro.snode.store.SNodeStore`."""
        return self._store

    @property
    def build(self):
        """The underlying :class:`~repro.snode.build.SNodeBuild`."""
        return self._build

    @property
    def overlay(self):
        """The attached delta overlay, if the store is serving mutably."""
        return (self._parent or self)._overlay

    def attach_overlay(self, overlay) -> None:
        """Serve ``overlay``'s pending mutations merged into every row.

        The overlay lives on the shared view and client views look it up
        there on every read, so attaching before (or between) sessions
        is enough — no per-session re-plumbing.  Pass ``None`` to go
        back to serving the committed build verbatim.
        """
        (self._parent or self)._overlay = overlay

    def _repository_row(self, page: int, row: list[int], registry) -> list[int]:
        """A store row of ``page`` in repository ids, overlay merged in;
        the merge is charged to ``registry``."""
        row = sorted(self._new_to_old[t] for t in row)
        overlay = (self._parent or self)._overlay
        if overlay is None:
            return row
        return overlay.merge(page, row, registry)

    def out_neighbors(self, page: int) -> list[int]:
        registry = self._registry
        row = self._store.out_neighbors(
            self._old_to_new[page], registry, self.memory_only
        )
        return self._repository_row(page, row, registry)

    def out_neighbors_many(self, pages) -> dict[int, list[int]]:
        registry = self._registry
        translated = {self._old_to_new[p]: p for p in pages}
        rows = self._store.out_neighbors_many(
            list(translated), registry, self.memory_only
        )
        return {
            translated[new_page]: self._repository_row(
                translated[new_page], row, registry
            )
            for new_page, row in rows.items()
        }

    def iterate_all(self):
        """Every (page, adjacency) in storage order, in repository ids: the
        store's scan, which translates and sorts each row once, with the
        overlay merged in.

        Always charged to the store's base registry, from a client view
        too: a scan is a whole-store job, and conservation sums count on
        a client's registry holding only that client's lookups.
        """
        rows = self._store.iterate_all(self._new_to_old)
        overlay = (self._parent or self)._overlay
        if overlay is None:
            return rows
        base = self._store.metrics
        return ((page, overlay.merge(page, row, base)) for page, row in rows)

    def size_bytes(self) -> int:
        from repro.snode.encode import supernode_graph_size_bytes

        manifest = self._store.manifest
        if self._build.model is None:
            # Opened from disk: the manifest records the encoded
            # supernode-graph size, so no model is needed.
            supernode_bytes = manifest["supernode_graph_bytes"]
        else:
            supernode_bytes = supernode_graph_size_bytes(self._build.model)
        return (
            manifest["payload_bytes"]
            + supernode_bytes
            + manifest["pageid_bytes"]
        )

    @property
    def num_pages(self) -> int:
        return self._store.num_pages

    @property
    def num_edges(self) -> int:
        return self._build.total_edges()

    @property
    def metrics(self) -> MetricsRegistry:
        return self._registry

    def drop_caches(self) -> None:
        # The pool is shared: a client's drop (or rebound) would be
        # another client's surprise cold read, so only the shared view may.
        if self._parent is None:
            self._store.drop_buffers()

    def set_buffer_bytes(self, buffer_bytes: int) -> None:
        if self._parent is None:
            self._store.set_buffer_bytes(buffer_bytes)

    def set_on_corruption(self, mode: str) -> None:
        self._store.set_on_corruption(mode)

    @property
    def degraded_reads(self) -> int:
        """Degraded answers of this view: every client's on the shared
        view, its own on a client view."""
        return self._registry.get_total("degraded_reads")

    def close(self) -> None:
        """Close the store — or, on a client view, fold its counters
        into the store's registry (once) and leave the store open."""
        if self._parent is None:
            self._store.close()
        elif self._registry in self._store.metrics.children():
            self._store.metrics.merge(self._registry)
