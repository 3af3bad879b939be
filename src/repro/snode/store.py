"""Query-facing access to a stored S-Node representation.

An :class:`SNodeStore` mirrors the paper's runtime organization:

* the supernode graph, PageID index and domain index are loaded once and
  *pinned* in memory ("akin to the root node of B-tree indexes");
* intranode and superedge graphs are loaded and decoded on demand through
  the shared byte-budgeted buffer manager
  (:class:`repro.storage.bufferpool.BufferPool`);
* loads and evictions are counted in the store's
  :class:`~repro.storage.metrics.MetricsRegistry` — the paper's section
  4.3 analysis ("Query 1 required access to only 8 intranode graphs and
  32 superedge graphs") is reproduced from its distinct-load tallies;
* disk seeks are counted by :class:`repro.storage.device.CountedFile`: a
  read that does not continue exactly where the previous read on the same
  file ended counts as one seek, which is how the benefit of the linear
  ordering (Figure 8) becomes measurable.

**Concurrent readers.** One store may serve many threads at once: every
read method takes an optional ``registry``, and a client that passes a
child of the store's own (``store.metrics.child(label)``, which is what
:meth:`repro.baselines.base.SNodeRepresentation.session` does) has its
hits, misses, seeks and bytes attributed to that child while sharing the
store's buffer pool; ``store.metrics.merge(child)`` folds it back when
the client is done.  Calling the store without one charges the store's
own registry and is byte-identical to the single-threaded behaviour;
shared state changes (evictions, quarantines) always charge the store's
base registry, so per-client numbers plus the base sum to the shared
totals.
"""

from __future__ import annotations

import bisect
import threading
from pathlib import Path

from repro.errors import CorruptionError, NotResident, StorageError
from repro.obs import tracing
from repro.snode.encode import (
    IntranodeRows,
    RowDirectory,
    SuperedgeHeader,
    SuperedgeRows,
    decode_intranode,
    positive_rows_from_payload,
)
from repro.snode.storage import (
    GraphLocation,
    StorageLayout,
    read_layout,
    read_quarantine,
)
from repro.storage import integrity
from repro.storage.bufferpool import BufferPool
from repro.storage.device import CountedFile
from repro.storage.metrics import CounterBatch, MetricsRegistry

#: Default buffer budget, a scaled analogue of the paper's 325 MB bound.
DEFAULT_BUFFER_BYTES = 8 * 1024 * 1024

# Cost model for decoded graphs held in the buffer: 8 bytes per edge entry
# plus 4 bytes per row, approximating compact array storage.  A graph is
# charged for every row and edge, although a re-loaded one holds only the
# rows asked for (a superedge graph: a row per source page, linked or not).
_EDGE_COST = 8
_ROW_COST = 4


def _graph_cost(num_rows: int, rows) -> int:
    """Buffer charge of a decoded graph: ``num_rows`` rows in all, whose
    entries are in ``rows`` (any rows left out of it must be empty)."""
    return _ROW_COST * num_rows + _EDGE_COST * sum(map(len, rows))


class SNodeStore:
    """Random access to adjacency lists of a stored S-Node representation."""

    def __init__(
        self,
        root: Path | str,
        buffer_bytes: int = DEFAULT_BUFFER_BYTES,
        cache_decoded: bool = True,
        on_corruption: str = "raise",
    ) -> None:
        """Open a stored representation.

        ``cache_decoded=True`` (default) buffers decoded graphs — the
        query-serving configuration.  ``cache_decoded=False`` buffers the
        *encoded* payload bytes instead and decodes on every access; this
        is the Table 2 protocol ("time to decode and extract adjacency
        lists assuming the graph representation has already been loaded
        into memory").

        ``on_corruption`` picks the failure policy for payload regions
        whose CRC32 no longer matches their ``pointers.bin`` record:
        ``"raise"`` (default) propagates the
        :class:`~repro.errors.CorruptionError`; ``"degrade"`` quarantines
        the corrupt intranode/superedge graph and keeps serving — affected
        rows come back empty, each such answer counting one
        ``degraded_reads``.  Regions already quarantined on disk by
        ``repro fsck --repair`` are honoured in both modes.
        """
        self.set_on_corruption(on_corruption)
        self._root = Path(root)
        self._layout: StorageLayout = read_layout(self._root)
        self._quarantined: set[tuple] = {
            ("intra", entry[1]) if entry[0] == "intranode" else ("super", *entry[1:])
            for entry in read_quarantine(self._root)
        }
        self._super_adjacency = self._layout.super_adjacency
        self._boundaries = self._layout.boundaries
        self._cache_decoded = cache_decoded
        self.metrics = MetricsRegistry()
        self._pool = BufferPool(buffer_bytes, registry=self.metrics)
        self._devices: dict[int, CountedFile] = {}
        self._devices_lock = threading.Lock()
        #: Buffer key -> (pool charge, parsed facts): what the graph's
        #: first load learned — the charge (the decoded cost, or the
        #: payload's length in a payload-caching store) and an intranode
        #: graph's row directory or a superedge graph's header.  A graph's
        #: bytes never change under an open store, so every later load is
        #: put at this charge and parses nothing: its entry is built from
        #: the facts, with no row decoded until one is asked for.
        self._learned: dict[tuple, tuple[int, RowDirectory | SuperedgeHeader]] = {}
        #: Supernode -> (buffer keys, kinds) of the graphs its adjacency
        #: lists are spread over, intranode graph first, built on first
        #: use (racing threads build equal tuples).
        self._visits: dict[int, tuple[tuple, tuple]] = {}
        self._quarantined_lock = threading.Lock()
        # The paper pins the supernode graph and both indexes for the
        # lifetime of the store; account for them as pinned buffer bytes.
        self._pool.pin(
            ("pinned", "supernode-graph"),
            self._super_adjacency,
            _graph_cost(len(self._super_adjacency), self._super_adjacency),
        )
        self._pool.pin(
            ("pinned", "pageid-index"), self._boundaries, 8 * len(self._boundaries)
        )

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Close open payload file handles."""
        with self._devices_lock:
            devices = list(self._devices.values())
            self._devices.clear()
        for device in devices:
            device.close()

    def __enter__(self) -> "SNodeStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- pinned structures ---------------------------------------------------

    @property
    def num_pages(self) -> int:
        """Total pages represented."""
        return self._layout.manifest["num_pages"]

    @property
    def num_supernodes(self) -> int:
        """Supernode count."""
        return len(self._boundaries) - 1

    @property
    def super_adjacency(self) -> list[list[int]]:
        """The pinned supernode graph (decoded adjacency lists)."""
        return self._super_adjacency

    @property
    def manifest(self) -> dict:
        """Build manifest (sizes, counts)."""
        return self._layout.manifest

    @property
    def new_to_old(self) -> list[int]:
        """Permutation mapping new (stored) page ids to repository ids."""
        return self._layout.new_to_old

    @property
    def boundaries(self) -> list[int]:
        """Supernode page boundaries (first new-id per supernode, + end).

        Exposed so a committed build can be *opened* for serving — the
        :class:`~repro.snode.numbering.Numbering` is fully reconstructible
        from these tables without re-running the build.
        """
        return self._layout.boundaries

    @property
    def domains(self) -> dict[str, list[int]]:
        """Domain name -> supernodes, as stored in ``domain.json``."""
        return self._layout.domains

    def supernode_of(self, page: int) -> int:
        """PageID-index lookup."""
        if not 0 <= page < self.num_pages:
            raise StorageError(f"page {page} out of range")
        return bisect.bisect_right(self._boundaries, page) - 1

    def supernode_range(self, supernode: int) -> tuple[int, int]:
        """(first, past-last) page ids of ``supernode``."""
        return self._boundaries[supernode], self._boundaries[supernode + 1]

    def supernodes_of_domain(self, domain: str) -> list[int]:
        """Domain-index lookup: supernodes holding pages of ``domain``."""
        return list(self._layout.domains.get(domain.lower(), []))

    # -- buffer manager ------------------------------------------------------

    def _device(self, file_index: int) -> CountedFile:
        device = self._devices.get(file_index)
        if device is None:
            with self._devices_lock:
                device = self._devices.get(file_index)
                if device is None:
                    name = self._layout.index_files[file_index]
                    device = CountedFile(self._root / name, registry=self.metrics)
                    self._devices[file_index] = device
        return device

    def _location(self, key: tuple) -> GraphLocation:
        """The pointer-table entry of graph ``key``."""
        if key[0] == "intra":
            return self._layout.intranode[key[1]]
        entry = self._layout.superedge.get(key[1:])
        if entry is None:
            raise StorageError(f"no superedge {key[1]} -> {key[2]}")
        return entry[0]

    def _sizes(self, key: tuple) -> list[int]:
        """Page counts of the supernodes a graph key names, in key order."""
        boundaries = self._boundaries
        return [boundaries[node + 1] - boundaries[node] for node in key[1:]]

    def _degraded(self, key: tuple, registry):
        """Serve a quarantined region: an empty graph of its shape, counted."""
        registry.inc("degraded_reads")
        sizes = self._sizes(key)
        if key[0] == "intra":
            return [[] for _ in range(sizes[0])]
        return SuperedgeRows(sizes[0], SuperedgeHeader(False, (), 0), {})

    def _quarantine(self, key: tuple) -> None:
        # Quarantining is a store-wide state change, so it always charges
        # the base registry regardless of which session hit the bad region.
        with self._quarantined_lock:
            if key in self._quarantined:
                return
            self._quarantined.add(key)
        self.metrics.inc("regions_quarantined")

    def _loaded(self, keys: list[tuple], registry) -> None:
        """Count the loads of the graphs ``keys`` (buffer keys)."""
        registry.inc("loads", len(keys))
        intranode = 0
        for key in keys:
            if key[0] == "intra":
                intranode += 1
                registry.mark("intranode", key[1:])
            else:
                registry.mark("superedge", key[1:])
        # Attribute the loads to the innermost open tracing span (if a
        # tracer is active), so span trees show which phase/operation
        # pulled which graph kind from disk.
        for name, count in (
            ("intranode_loads", intranode),
            ("superedge_loads", len(keys) - intranode),
        ):
            if count:
                registry.inc(name, count)
                tracing.note(name, count)

    def _decode(self, key: tuple, payload: bytes, learned: tuple | None):
        facts = None if learned is None else learned[1]
        if key[0] == "intra":
            return decode_intranode(payload, facts)
        return positive_rows_from_payload(payload, *self._sizes(key), facts)

    def _checked(self, key: tuple, location: GraphLocation, payload: bytes) -> tuple:
        """``(rows, charge)`` of the graph ``key`` read from ``location``:
        the payload's checksum tested, then decoded with what the graph's
        first load learned — or, on that first load, decoded whole and
        the charge and facts learned.

        A decoded graph is put at its full decoded charge whatever it
        holds: its first load decodes every row, learning that charge with
        an intranode graph's row directory or a superedge graph's header;
        a re-load parses nothing and leaves the rows to whoever asks for
        them.  The pool therefore sees the same keys at the same costs
        either way.  A payload-caching store learns the directory or
        header too (a superedge graph's first load parses only its
        header), so every later access, miss or hit, parses nothing.
        """
        actual = integrity.crc32(payload)
        if actual != location.crc:
            if key[0] == "intra":
                region = f"intranode {key[1]}"
            else:
                region = f"superedge {key[1]}->{key[2]}"
            raise CorruptionError(
                f"{region}: payload checksum mismatch in "
                f"{self._layout.index_files[location.file_index]} at offset "
                f"{location.offset} (stored {location.crc:#010x}, "
                f"read {actual:#010x})"
            )
        learned = self._learned.get(key)
        rows = self._decode(key, payload, learned)
        if learned is None:
            if not self._cache_decoded:
                charge = len(payload)
            elif key[0] == "intra":
                charge = _graph_cost(len(rows), rows)
            else:
                charge = _graph_cost(rows.source_size, rows.linked.values())
            facts = rows.directory if key[0] == "intra" else rows.header
            learned = self._learned[key] = (charge, facts)
        return rows, learned[0]

    def _graph(self, key: tuple, registry):
        """One graph by its buffer key — ``("intra", supernode)`` or
        ``("super", source, target)`` — looked up, and on a miss read,
        checked, decoded and admitted (:meth:`_checked`): the one-key
        case of :meth:`_load_visit`."""
        reg = registry if registry is not None else self.metrics
        kind = "intranode" if key[0] == "intra" else "superedge"
        if key in self._quarantined:
            return self._degraded(key, reg)
        cached = self._pool.get(key, kind=kind, registry=reg)
        if cached is not None:
            if self._cache_decoded:
                return cached
            return self._decode(key, cached, self._learned.get(key))
        location = self._location(key)
        payload = self._device(location.file_index).read_at(
            location.offset, location.length, registry=reg
        )
        try:
            rows, charge = self._checked(key, location, payload)
        except CorruptionError:
            if self._on_corruption != "degrade":
                raise
            self._quarantine(key)
            return self._degraded(key, reg)
        self._pool.put(key, rows if self._cache_decoded else payload, charge, kind=kind)
        self._loaded([key], reg)
        return rows

    def intranode_rows(
        self, supernode: int, registry: MetricsRegistry | None = None
    ) -> IntranodeRows | list[list[int]]:
        """Intranode graph of ``supernode`` (local target indices), its rows
        decoded on demand; a quarantined graph is a list of empty rows."""
        return self._graph(("intra", supernode), registry)

    def superedge_rows(
        self,
        source: int,
        target: int,
        registry: MetricsRegistry | None = None,
    ) -> SuperedgeRows:
        """Positive rows of superedge (source, target), decoded on demand."""
        return self._graph(("super", source, target), registry)

    # -- adjacency access ----------------------------------------------------

    def _visit(self, supernode: int) -> tuple[tuple, tuple]:
        """Buffer keys and kinds of every graph ``supernode``'s adjacency
        lists are assembled from, in the order they are read."""
        visit = self._visits.get(supernode)
        if visit is None:
            targets = self._super_adjacency[supernode]
            keys = (("intra", supernode), *(("super", supernode, t) for t in targets))
            kinds = ("intranode", *("superedge" for _ in targets))
            visit = self._visits[supernode] = (keys, kinds)
        return visit

    def _resident(self, supernode: int, batch: CounterBatch) -> list | None:
        """The graphs of :meth:`_visit` when none needs a file — buffered
        decoded, or quarantined and so served empty — else None with
        nothing moved or counted."""
        if not self._cache_decoded:
            return None
        keys, kinds = self._visit(supernode)
        bad = self._quarantined and self._quarantined.intersection(keys)
        if not bad:
            return self._pool.get_resident(keys, kinds, batch)
        sound = [pair for pair in zip(keys, kinds) if pair[0] not in bad]
        cached = self._pool.get_resident(
            [key for key, _kind in sound], [kind for _key, kind in sound], batch
        )
        if cached is None:
            return None
        cached = iter(cached)
        return [
            self._degraded(key, batch) if key in bad else next(cached) for key in keys
        ]

    def _load_visit(self, supernode: int, batch: CounterBatch):
        """The graphs of :meth:`_visit`, a segment at a time.

        A segment starts at the first graph not yet served: the graphs
        buffered from there on are peeked, nothing moved, then the run
        of *missing* graphs after them whose regions follow one another
        in one file is read with one ``read_at``.  Each region's slice
        is checked and decoded on its own (:meth:`_checked`), outside
        the pool lock; then the segment's lookups and admissions are
        replayed in the order of one lookup per graph, under one lock
        round trip (:meth:`~repro.storage.bufferpool.BufferPool.replay`).
        The next segment is peeked only after that, so a graph an
        admission of this visit evicted is a miss of a later segment:
        one thread at a time, the counters, evictions and LRU order are
        those of looking each graph up — and loading it on a miss — in
        turn, and the bytes and seeks too, since the run is the regions
        that lookup would have read one after another.

        Under concurrency, a graph another reader admitted since the
        peek is served as that cached hit (its bytes stay charged to this
        reader), and a peeked graph evicted since ends the replay there:
        the next segment starts at it.

        A quarantined graph is served empty and breaks a run.  A region
        failing its checksum in degrade mode is quarantined alone, its
        lookup counted as a miss, and its run neighbours are served; any
        other failure counts the segment up to and including the failing
        graph's miss, charges the bytes read up to the end of its region
        (the rest were read ahead for graphs never reached) and raises.
        """
        keys, kinds = self._visit(supernode)
        pool = self._pool
        quarantined = self._quarantined
        end = len(keys)
        start = 0
        while start < end:
            if keys[start] in quarantined:
                yield self._degraded(keys[start], batch)
                start += 1
                continue
            split = start
            while split < end and keys[split] not in quarantined and pool.is_cached(keys[split]):
                split += 1
            run = []
            stop = split
            while stop < end and keys[stop] not in quarantined and not pool.is_cached(keys[stop]):
                location = self._location(keys[stop])
                if run and (
                    location.file_index != run[-1].file_index
                    or location.offset != run[-1].offset + run[-1].length
                ):
                    break
                run.append(location)
                stop += 1
            loads: list[tuple | None] = [None] * (split - start)
            fresh, failure = self._read_run(keys[split:stop], run, loads, batch)
            served = pool.replay(
                keys[start : start + len(loads)], kinds[start : start + len(loads)], loads, batch
            )
            # A failing graph ends its segment's loads; only its miss counts.
            failed = failure is not None and len(served) == len(loads)
            graphs = []
            admitted = []
            for index, value in enumerate(served[:-1] if failed else served, start):
                key, load = keys[index], loads[index - start]
                if value is None:
                    rows = self._degraded(key, batch)
                elif load is not None and value is load[0]:
                    rows = fresh[index - split]
                    admitted.append(key)
                elif self._cache_decoded:
                    rows = value
                else:
                    rows = self._decode(key, value, self._learned.get(key))
                graphs.append(rows)
            if admitted:
                self._loaded(admitted, batch)
            if failed:
                raise failure
            start += len(served)
            yield from graphs

    def _read_run(self, keys, run: list, loads: list, batch: CounterBatch):
        """Read the adjacent regions ``run`` of ``keys`` with one
        ``read_at`` and check and decode each slice, appending to
        ``loads`` what :meth:`~repro.storage.bufferpool.BufferPool.replay`
        takes for it; returns ``(decoded graphs, failure or None)``."""
        if not run:
            return [], None
        first, last = run[0], run[-1]
        total = last.offset + last.length - first.offset
        # Any failure is handed back, not raised: the caller counts the
        # segment's lookups up to the failing graph's miss, then raises it.
        try:
            data = self._device(first.file_index).read_at(
                first.offset, total, registry=batch
            )
        except Exception as exc:
            loads.append((None, 0))
            return [], exc
        fresh = []
        for key, location in zip(keys, run):
            begin = location.offset - first.offset
            payload = data[begin : begin + location.length]
            try:
                rows, charge = self._checked(key, location, payload)
            except Exception as exc:
                loads.append((None, 0))
                fresh.append(None)
                if isinstance(exc, CorruptionError) and self._on_corruption == "degrade":
                    self._quarantine(key)
                    continue
                batch.inc("bytes_read", begin + location.length - total)
                return fresh, exc
            loads.append((rows if self._cache_decoded else payload, charge))
            fresh.append(rows)
        return fresh, None

    def _adjacency(
        self,
        supernode: int,
        locals_: list[int],
        registry: MetricsRegistry | None,
        memory_only: bool = False,
    ) -> list[list[int]]:
        """Complete adjacency lists of ``locals_`` of ``supernode``.

        Each list is assembled from the intranode graph plus every
        outgoing superedge graph of the supernode, exactly the paper's
        "adjacency lists are partitioned across multiple smaller graphs";
        every graph is loaded once however many locals are asked for.
        Asked for as many locals as the supernode has pages (a scan), the
        intranode graph is decoded whole in one pass; otherwise each asked
        row is decoded alone, with its reference chain.

        A supernode whose graphs are all buffered decoded is read in one
        visit to the pool
        (:meth:`~repro.storage.bufferpool.BufferPool.get_resident`, which
        moves and counts what one lookup per graph would).  When one is
        missing nothing has moved and the graphs are loaded a segment at
        a time (:meth:`_load_visit`); under ``memory_only`` that raises
        :class:`~repro.errors.NotResident` instead, before any counter
        moves or any file is read.

        The pool, the device and the load bookkeeping charge one
        :class:`~repro.storage.metrics.CounterBatch` for the whole call,
        flushed into ``registry`` (or the store's own) on the way out —
        error or not, so the graphs read before a ``CorruptionError``
        stay counted.
        """
        boundaries = self._boundaries
        first = boundaries[supernode]
        batch = CounterBatch(registry if registry is not None else self.metrics)
        try:
            graphs = self._resident(supernode, batch)
            if graphs is None:
                if memory_only:
                    raise NotResident(
                        f"supernode {supernode} is not wholly buffered"
                    )
                graphs = self._load_visit(supernode, batch)
            graphs = iter(graphs)
            intra = next(graphs)
            if type(intra) is IntranodeRows and len(locals_) >= len(intra):
                # Every row asked for (a scan): one fused decode of the
                # graph, not one per row.  (A quarantined graph is a list.)
                intra = intra.every()
            result = [[first + t for t in intra[local]] for local in locals_]
            #: local -> the rows of ``result`` asked for it, built on the
            #: first graph that links fewer locals than were asked for.
            asked: dict[int, list[list[int]]] | None = None
            for target_super, rows in zip(self._super_adjacency[supernode], graphs):
                base = boundaries[target_super]
                if len(rows.sources) < len(locals_):
                    # A superedge graph links a handful of the supernode's
                    # pages: walk those, not every local asked for — and
                    # leave its rows undecoded when none of them was.
                    if asked is None:
                        asked = {}
                        for local, row in zip(locals_, result):
                            asked.setdefault(local, []).append(row)
                    for local in rows.sources:
                        for row in asked.get(local, ()):
                            row.extend([base + t for t in rows.linked[local]])
                else:
                    for local, row in zip(locals_, result):
                        targets = rows.row(local)
                        if targets:
                            row.extend([base + t for t in targets])
        finally:
            batch.flush()
        for row in result:
            row.sort()
        return result

    def out_neighbors(
        self,
        page: int,
        registry: MetricsRegistry | None = None,
        memory_only: bool = False,
    ) -> list[int]:
        """Complete adjacency list of ``page`` in (new) page-id space.

        ``memory_only`` answers from the buffer pool or raises
        :class:`~repro.errors.NotResident` (see :meth:`_adjacency`).
        """
        supernode = self.supernode_of(page)
        local = page - self._boundaries[supernode]
        return self._adjacency(supernode, [local], registry, memory_only)[0]

    def out_neighbors_many(
        self,
        pages: list[int],
        registry: MetricsRegistry | None = None,
        memory_only: bool = False,
    ) -> dict[int, list[int]]:
        """Adjacency lists for several pages, grouped to reuse loads.

        Pages are processed supernode-by-supernode so each intranode /
        superedge graph is decoded once per group rather than per page.
        Under ``memory_only`` the groups before a
        :class:`~repro.errors.NotResident` one stay read and counted.
        """
        by_super: dict[int, list[int]] = {}
        for page in pages:
            by_super.setdefault(self.supernode_of(page), []).append(page)
        result: dict[int, list[int]] = {}
        for supernode in sorted(by_super):
            group = by_super[supernode]
            first = self._boundaries[supernode]
            rows = self._adjacency(
                supernode, [page - first for page in group], registry, memory_only
            )
            result.update(zip(group, rows))
        return result

    def iterate_all(self):
        """Yield (page, adjacency list) for every page in id order.

        Sequential-access path used by the Table 2 experiment; walks
        supernodes in order so payload reads follow the linear layout.
        """
        for supernode in range(self.num_supernodes):
            first, end = self.supernode_range(supernode)
            rows = self._adjacency(supernode, list(range(end - first)), None)
            yield from zip(range(first, end), rows)

    def load_digraph(self):
        """Decode the entire representation into an in-memory CSR graph.

        This is the paper's *global access* path: the compressed
        representation is small enough to stream into memory wholesale,
        after which PageRank / SCC / trawling run on plain arrays.  Vertex
        ids are the store's (new) page ids; translate through
        :attr:`new_to_old` when repository ids are needed.
        """
        from repro.graph.digraph import GraphBuilder

        builder = GraphBuilder(self.num_pages)
        for page, row in self.iterate_all():
            for target in row:
                builder.add_edge(page, target)
        return builder.build()

    # -- maintenance ---------------------------------------------------------

    def _forget_positions(self) -> None:
        # Copied under the lock ``_device`` inserts under: another
        # thread may be opening a payload file right now.
        with self._devices_lock:
            devices = list(self._devices.values())
        for device in devices:
            device.forget_position()

    def drop_buffers(self) -> None:
        """Empty the buffer manager (cold-cache experiment resets)."""
        self._pool.clear(record=True)
        self._forget_positions()

    def set_buffer_bytes(self, buffer_bytes: int) -> None:
        """Reconfigure the buffer budget (Figure 12 sweep)."""
        self._pool.set_buffer_bytes(buffer_bytes)
        self._forget_positions()

    def buffer_stats(self) -> dict[str, int]:
        """Buffer-manager counters."""
        return self._pool.stats()

    # -- graceful degradation ------------------------------------------------

    @property
    def on_corruption(self) -> str:
        """Current corruption policy (``"raise"`` or ``"degrade"``)."""
        return self._on_corruption

    def set_on_corruption(self, mode: str) -> None:
        """Set the corruption policy; an open store may switch it."""
        if mode not in ("raise", "degrade"):
            raise ValueError(
                f"on_corruption must be 'raise' or 'degrade', got {mode!r}"
            )
        self._on_corruption = mode

    @property
    def quarantined(self) -> list[tuple]:
        """Regions quarantined this session or by ``repro fsck --repair``."""
        with self._quarantined_lock:
            return sorted(self._quarantined)
