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


class SNodeRepresentation(GraphRepresentation):
    """Adapter exposing an :class:`~repro.snode.build.SNodeBuild` through
    the common interface (translating new ids back to repository ids)."""

    name = "s-node"

    def __init__(self, build) -> None:
        self._build = build
        self._store = build.store
        self._old_to_new = build.numbering.old_to_new
        self._new_to_old = build.numbering.new_to_old
        #: Optional :class:`~repro.snode.delta.DeltaOverlay` of pending
        #: edge mutations, merged into every row *after* the new->old id
        #: translation (the overlay speaks repository ids).
        self._overlay = None

    @classmethod
    def open(
        cls,
        root,
        buffer_bytes: int | None = None,
        stripes: int = 1,
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
                stripes=stripes,
                on_corruption=on_corruption,
            )
        )

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
        return self._overlay

    def attach_overlay(self, overlay) -> None:
        """Serve ``overlay``'s pending mutations merged into every row.

        Sessions stamped out by :meth:`session` consult the parent's
        overlay dynamically, so attaching before (or between) sessions
        is enough — no per-session re-plumbing.  Pass ``None`` to go
        back to serving the committed build verbatim.
        """
        self._overlay = overlay

    def _merged(self, page: int, row: list[int], registry) -> list[int]:
        overlay = self._overlay
        if overlay is None:
            return row
        return overlay.merge(page, row, registry)

    def out_neighbors(self, page: int) -> list[int]:
        new_page = self._old_to_new[page]
        row = self._store.out_neighbors(new_page)
        return self._merged(
            page, sorted(self._new_to_old[t] for t in row), self.metrics
        )

    def out_neighbors_many(self, pages) -> dict[int, list[int]]:
        translated = {self._old_to_new[p]: p for p in pages}
        rows = self._store.out_neighbors_many(list(translated))
        return {
            translated[new_page]: self._merged(
                translated[new_page],
                sorted(self._new_to_old[t] for t in row),
                self.metrics,
            )
            for new_page, row in rows.items()
        }

    def iterate_all(self):
        for new_page, row in self._store.iterate_all():
            page = self._new_to_old[new_page]
            yield page, self._merged(
                page, sorted(self._new_to_old[t] for t in row), self.metrics
            )

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
        return self._store.metrics

    def io_stats(self) -> dict[str, int]:
        stats = self._store.stats
        return {
            **self._store.metrics.io_stats(),
            # Historical aliases, derived from the same registry.
            "graphs_loaded": stats.graphs_loaded,
            "graphs_evicted": stats.graphs_evicted,
        }

    def drop_caches(self) -> None:
        self._store.drop_buffers()

    def set_buffer_bytes(self, buffer_bytes: int) -> None:
        self._store.set_buffer_bytes(buffer_bytes)

    def set_on_corruption(self, mode: str) -> None:
        self._store.set_on_corruption(mode)

    @property
    def degraded_reads(self) -> int:
        return self._store.degraded_reads

    def session(self, label: str | None = None) -> "SNodeSessionRepresentation":
        """A per-client view sharing this representation's store.

        The returned representation reads through a
        :class:`~repro.snode.store.ReadSession`: same buffer pool, same
        on-disk files, but its ``metrics`` / ``io_stats()`` cover only
        that client's reads.  Close it to fold the client's numbers back
        into the shared store.
        """
        return SNodeSessionRepresentation(self, self._store.session(label=label))

    def close(self) -> None:
        self._store.close()


class SNodeSessionRepresentation(GraphRepresentation):
    """One client's :class:`SNodeRepresentation` view over a shared store.

    Wraps a :class:`~repro.snode.store.ReadSession`: adjacency reads hit
    the shared buffer pool but charge the session's own registry, so a
    query daemon can hand each connection its own representation (and its
    own :class:`~repro.query.engine.QueryEngine`) while every byte of
    shared cache is reused across clients.  ``close()`` ends the session
    — the shared store stays open.
    """

    name = "s-node"

    def __init__(self, parent: SNodeRepresentation, session) -> None:
        self._parent = parent
        self._session = session
        self._old_to_new = parent._old_to_new
        self._new_to_old = parent._new_to_old

    @property
    def session(self):
        """The underlying :class:`~repro.snode.store.ReadSession`."""
        return self._session

    @property
    def store(self):
        """The shared :class:`~repro.snode.store.SNodeStore`."""
        return self._session.store

    def _merged(self, page: int, row: list[int]) -> list[int]:
        # The overlay is looked up on the parent per call: a mutation
        # enabled after this session opened is still served, and the
        # merge cost lands on *this* session's registry — per-request
        # attribution stays exact in the daemon.
        overlay = self._parent._overlay
        if overlay is None:
            return row
        return overlay.merge(page, row, self._session.registry)

    def out_neighbors(self, page: int) -> list[int]:
        new_page = self._old_to_new[page]
        row = self._session.out_neighbors(new_page)
        return self._merged(page, sorted(self._new_to_old[t] for t in row))

    def is_resident(self, page: int) -> bool:
        """See :meth:`~repro.snode.store.SNodeStore.is_resident` (a
        pending overlay row is already in memory, so it never matters)."""
        return self.store.is_resident(self._old_to_new[page])

    def out_neighbors_many(self, pages) -> dict[int, list[int]]:
        translated = {self._old_to_new[p]: p for p in pages}
        rows = self._session.out_neighbors_many(list(translated))
        return {
            translated[new_page]: self._merged(
                translated[new_page],
                sorted(self._new_to_old[t] for t in row),
            )
            for new_page, row in rows.items()
        }

    def iterate_all(self):
        return self._parent.iterate_all()

    def size_bytes(self) -> int:
        return self._parent.size_bytes()

    @property
    def num_pages(self) -> int:
        return self._parent.num_pages

    @property
    def num_edges(self) -> int:
        return self._parent.num_edges

    @property
    def metrics(self) -> MetricsRegistry:
        return self._session.registry

    def io_stats(self) -> dict[str, int]:
        return self._session.io_stats()

    def drop_caches(self) -> None:
        # The cache is shared; a per-client drop would be another client's
        # surprise cold read.  Sessions therefore never drop buffers.
        pass

    def set_on_corruption(self, mode: str) -> None:
        self.store.set_on_corruption(mode)

    @property
    def degraded_reads(self) -> int:
        return self._session.registry.get("degraded_reads")

    def close(self) -> None:
        self._session.close()
