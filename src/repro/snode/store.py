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
from array import array
from pathlib import Path
from typing import NamedTuple

from repro.errors import CodecError, CorruptionError, NotResident, StorageError
from repro.obs import tracing
from repro.snode.encode import (
    IntranodeRows,
    RowDirectory,
    SuperedgeHeader,
    SuperedgeRows,
    _superedge_header,
    decode_intranode,
    positive_rows_from_payload,
    scan_intranode,
    scan_superedge,
)
from repro.snode.storage import (
    GraphLocation,
    StorageLayout,
    read_layout,
    read_quarantine,
    read_regions,
)
from repro.storage import integrity
from repro.storage.bufferpool import BufferPool
from repro.storage.device import CountedFile
from repro.storage.metrics import CounterBatch, MetricsRegistry

#: Default buffer budget, a scaled analogue of the paper's 325 MB bound.
DEFAULT_BUFFER_BYTES = 8 * 1024 * 1024

# Cost model for decoded graphs held in the buffer: 8 bytes per edge entry
# plus 4 bytes per row, approximating compact array storage.  A graph is
# charged for every row and edge (a superedge graph: a row per source page,
# linked or not), as its first load decoded them, although a re-loaded one
# of either kind holds only the rows asked for and their reference chains.
_EDGE_COST = 8
_ROW_COST = 4


def _graph_cost(num_rows: int, rows) -> int:
    """Buffer charge of a decoded graph: ``num_rows`` rows in all, whose
    entries are in ``rows`` (any rows left out of it must be empty)."""
    return _ROW_COST * num_rows + _EDGE_COST * sum(map(len, rows))


class _Visit(NamedTuple):
    """Every graph one supernode's adjacency lists are spread over."""

    #: Buffer keys in the order they are read: the intranode graph, then
    #: one superedge graph per target supernode.
    keys: tuple
    kinds: tuple
    #: Where each source local's link record starts in ``records``, and
    #: where the last one ends.  Emptied, every local is read from the
    #: whole visit.
    starts: array
    #: The link records back to back: each local's ascending positions in
    #: ``keys`` of the graphs its row is in — the intranode graph, each
    #: superedge graph whose header lists it, and each one whose header
    #: is unknown.
    records: array

    def links(self, local: int) -> array:
        """``local``'s link record."""
        return self.records[self.starts[local] : self.starts[local + 1]]


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
        if on_corruption not in ("raise", "degrade"):
            raise ValueError(
                f"on_corruption must be 'raise' or 'degrade', got {on_corruption!r}"
            )
        self._on_corruption = on_corruption
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
        #: Buffer key -> (pool charge, *facts): what the graph's first
        #: whole decode (a load or a scan) learned — the charge (the
        #: decoded cost, or the payload's length in a payload-caching
        #: store), then an intranode graph's row directory, or a superedge
        #: graph's header and its body's row directory.  A graph's bytes
        #: never change under an open store, so every later load is put at
        #: this charge and parses nothing: its entry is built from the
        #: facts, with no row decoded until one is asked for.
        self._learned: dict[
            tuple,
            tuple[int, RowDirectory] | tuple[int, SuperedgeHeader, RowDirectory],
        ] = {}
        self._quarantined_lock = threading.Lock()
        #: Supernode -> its visit, with the links every superedge header
        #: read at open gives (:meth:`_read_visits`).
        self._visits: list[_Visit] = self._read_visits()
        #: Every graph in pointer-table order and where it is: what a scan
        #: walks (:meth:`_scanned`).
        self._scan_keys = tuple(key for visit in self._visits for key in visit.keys)
        self._scan_regions = [self._location(key) for key in self._scan_keys]
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

    def _read_visits(self) -> list[_Visit]:
        """Every supernode's visit, each superedge header read once.

        The payload files are read by :func:`read_regions` (whole, one
        at a time, uncounted).  A superedge region's header is known if
        its bytes match the checksum of its pointer record and parse; a
        region quarantined, failing its checksum or its parse, or in a
        file that cannot be read has an unknown header and is in every
        local's visit.
        """
        regions = [
            (key, location)
            for key, (location, _kind) in self._layout.superedge.items()
            if ("super", *key) not in self._quarantined
        ]
        sources: dict[tuple, list[int]] = {}
        for key, location, payload in read_regions(
            self._root, self._layout.index_files, regions
        ):
            if payload is not None and integrity.crc32(payload) == location.crc:
                try:
                    sources[key] = _superedge_header(payload)[2]
                except CodecError:
                    pass
        visits = []
        boundaries = self._boundaries
        for supernode, targets in enumerate(self._super_adjacency):
            always = [0]
            linked: dict[int, list[int]] = {}
            for position, target in enumerate(targets, 1):
                known = sources.get((supernode, target))
                if known is None:
                    always.append(position)
                    continue
                for local in known:
                    linked.setdefault(local, []).append(position)
            starts, records = array("I", [0]), array("I")
            for local in range(boundaries[supernode + 1] - boundaries[supernode]):
                positions = linked.get(local)
                records.extend(always if positions is None else sorted(always + positions))
                starts.append(len(records))
            keys = (("intra", supernode), *[("super", supernode, t) for t in targets])
            kinds = ("intranode", *["superedge"] * len(targets))
            visits.append(_Visit(keys, kinds, starts, records))
        return visits

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

    def superedge_graphs_per_lookup(self) -> tuple[float, float]:
        """Superedge graphs a one-page lookup loads, averaged over every
        page: the paper's visit (every graph of its supernode) and the
        visit of a pressed pool (the graphs its link record names)."""
        paper = linked = 0
        for visit in self._visits:
            size = len(visit.starts) - 1
            paper += (len(visit.keys) - 1) * size
            linked += len(visit.records) - size
        return paper / self.num_pages, linked / self.num_pages

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
        facts = () if learned is None else learned[1:]
        if key[0] == "intra":
            return decode_intranode(payload, *facts)
        return positive_rows_from_payload(payload, *self._sizes(key), *facts)

    def _checked(self, key: tuple, location: GraphLocation, payload: bytes) -> tuple:
        """``(rows, charge)`` of the graph ``key`` read from ``location``:
        the payload's checksum tested, then decoded with what the graph's
        first whole decode learned — or, on the first, decoded whole and
        the charge and facts learned.

        A decoded graph is put at its full decoded charge whatever it
        holds: its first load decodes every row in one pass, learning
        that charge with an intranode graph's row directory, or a
        superedge graph's header and its body's row directory; a re-load
        parses nothing and leaves the rows to whoever asks for them, each
        decoded with its reference chain.  The pool therefore sees the
        same keys at the same costs either way.  A payload-caching store
        learns the same facts the same way, so every later access, miss
        or hit, parses nothing either.
        """
        self._verify(key, location, payload)
        learned = self._learned.get(key)
        rows = self._decode(key, payload, learned)
        if learned is None:
            if key[0] == "intra":
                learned = self._learn(key, payload, rows, rows.directory)
            else:
                linked = rows.linked
                learned = self._learn(key, payload, linked, rows.header, rows.directory)
        return rows, learned[0]

    def _verify(self, key: tuple, location: GraphLocation, payload: bytes) -> None:
        """Raise :class:`~repro.errors.CorruptionError` unless ``payload``
        matches the checksum of graph ``key``'s pointer record."""
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

    def _learn(self, key: tuple, payload: bytes, rows, *facts) -> tuple:
        """Record and return what graph ``key``'s first whole decode
        learns: ``(charge, *facts)``, ``facts`` its row directory, or its
        header and body's row directory.  The charge is the payload's
        length in a payload-caching store, else the decoded cost of
        ``rows`` — an intranode graph's rows, a superedge graph's ``source
        local -> row`` dict."""
        if not self._cache_decoded:
            charge = len(payload)
        elif key[0] == "intra":
            charge = _graph_cost(len(rows), rows)
        else:
            charge = _graph_cost(self._sizes(key)[0], rows.values())
        learned = self._learned[key] = (charge, *facts)
        return learned

    def intranode_rows(
        self, supernode: int, registry: MetricsRegistry | None = None
    ) -> IntranodeRows | list[list[int]]:
        """Intranode graph of ``supernode`` (local target indices), its rows
        decoded on demand; a quarantined graph is a list of empty rows."""
        reg = registry if registry is not None else self.metrics
        (rows,) = self._load((("intra", supernode),), ("intranode",), reg)
        return rows

    def superedge_rows(
        self,
        source: int,
        target: int,
        registry: MetricsRegistry | None = None,
    ) -> SuperedgeRows:
        """Positive rows of superedge (source, target), decoded on demand."""
        reg = registry if registry is not None else self.metrics
        (rows,) = self._load((("super", source, target),), ("superedge",), reg)
        return rows

    # -- adjacency access ----------------------------------------------------

    def _positions(self, supernode: int, locals_: list[int]) -> array | list | None:
        """Positions in ``supernode``'s visit of the graphs the rows of
        ``locals_`` are in, or None for the whole visit: the paper's
        visit while the pool is not pressed, for every page of the
        supernode, or with the link records emptied."""
        visit = self._visits[supernode]
        first, end = self.supernode_range(supernode)
        if not self._pool.pressed or not visit.starts or len(locals_) >= end - first:
            return None
        if len(locals_) == 1:
            positions = visit.links(locals_[0])
        else:
            union: set[int] = set()
            for local in locals_:
                union.update(visit.links(local))
            positions = sorted(union)
        if len(positions) == len(visit.keys):
            return None
        return positions

    def _load(
        self,
        keys: tuple,
        kinds: tuple,
        batch,
        memory_only: bool = False,
        positions: array | list | None = None,
    ):
        """The graphs ``keys`` (buffer keys, ``("intra", supernode)`` or
        ``("super", source, target)``, of ``kinds``) in order: a visit, or
        one graph — or the graphs at ``positions`` of their supernode's
        visit (:meth:`_positions`), which :meth:`_segments` reads through
        the rest of.

        The graphs buffered from the first one on are peeked
        (:meth:`~repro.storage.bufferpool.BufferPool.peek`: no lock,
        nothing moved).  When that is every graph and the pool holds them
        decoded, one :meth:`~repro.storage.bufferpool.BufferPool.replay`
        with no loads moves and counts what one lookup per graph would,
        and the list peeked is the answer.  Otherwise the graphs are
        loaded a segment at a time (:meth:`_segments`), the first segment
        starting from the graphs already peeked, and as they are consumed:
        the graphs after one that fails as its rows are read are not
        read.

        ``memory_only`` raises :class:`~repro.errors.NotResident`, before
        anything moves, unless every graph is buffered decoded or
        quarantined.
        """
        pool = self._pool
        quarantined = self._quarantined
        peeked = pool.peek(keys, 0, quarantined)
        if len(peeked) == len(keys) and self._cache_decoded:
            pool.replay(keys, kinds, (), batch)
            return peeked
        if memory_only and not (
            self._cache_decoded
            and all(key in quarantined or pool.is_cached(key) for key in keys)
        ):
            raise NotResident(f"supernode {keys[0][1]} is not wholly buffered")
        return self._segments(keys, kinds, peeked, batch, memory_only, positions)

    def _segments(
        self,
        keys: tuple,
        kinds: tuple,
        peeked: list,
        batch,
        memory_only: bool,
        positions,
    ):
        """:meth:`_load`'s graphs, a segment at a time.

        A segment starts at the first graph not yet served: the graphs
        buffered from there on are peeked (``peeked``, the first time),
        then the run of *missing* graphs after them whose regions follow
        one another in one file is read with one ``read_at``.  Each
        region's slice is checked and decoded on its own
        (:meth:`_checked`), outside the pool lock; then the segment's
        lookups and admissions are replayed in the order of one lookup
        per graph, under one lock round trip.  The next segment is peeked
        only after that, so a graph an admission of this visit evicted is
        a miss of a later segment: one thread at a time, the counters,
        evictions and LRU order are those of looking each graph up — and
        loading it on a miss — in turn, and the bytes and seeks too,
        since the run is the regions that lookup would have read one
        after another.

        Given ``positions``, a run also reads through the regions of the
        visit left out between two of its graphs, if those regions
        follow one another from the end of the first graph's to the start
        of the second's: their bytes are read and counted, but not
        checked, decoded or buffered, and the read seeks where the whole
        visit's would.

        Under concurrency a peeked graph is served as peeked, and counted
        a hit, even if another reader evicted it since; a graph another
        reader admitted since the peek is served as that cached hit (its
        bytes stay charged to this reader).  Under ``memory_only`` a run
        to read (a graph evicted since :meth:`_load` looked) raises
        :class:`~repro.errors.NotResident` instead.

        A quarantined graph is served empty and breaks a run.  A region
        failing its checksum in degrade mode is quarantined alone, its
        lookup counted as a miss, and its run neighbours are served; any
        other failure counts the segment up to and including the failing
        graph's miss, charges the bytes read up to the end of its region
        (the rest were read ahead for graphs never reached) and raises.
        """
        pool = self._pool
        quarantined = self._quarantined
        if positions is not None:
            visit = self._visits[keys[0][1]].keys
        end = len(keys)
        start = 0
        while start < end:
            if keys[start] in quarantined:
                yield self._degraded(keys[start], batch)
                start += 1
                continue
            if start:
                peeked = pool.peek(keys, start, quarantined)
            split = start + len(peeked)
            run = []
            stop = split
            while stop < end and keys[stop] not in quarantined and not pool.is_cached(keys[stop]):
                location = self._location(keys[stop])
                if run:
                    previous = run[-1]
                    reach = previous.offset + previous.length
                    if positions is not None:
                        for key in visit[positions[stop - 1] + 1 : positions[stop]]:
                            skipped = self._location(key)
                            if skipped.file_index != previous.file_index or skipped.offset != reach:
                                reach = -1
                                break
                            reach += skipped.length
                    if location.file_index != previous.file_index or location.offset != reach:
                        break
                run.append(location)
                stop += 1
            if run and memory_only:
                raise NotResident(f"supernode {keys[0][1]} is not wholly buffered")
            loads: list[tuple] = []
            fresh, failure = self._read_run(keys[split:stop], run, loads, batch)
            stop = split + len(loads)
            served = pool.replay(keys[start:stop], kinds[start:stop], loads, batch)
            if failure is not None:
                served.pop()  # the failing graph: only its miss counts
            if self._cache_decoded:
                graphs = peeked
            else:
                graphs = [
                    self._decode(key, payload, self._learned.get(key))
                    for key, payload in zip(keys[start:split], peeked)
                ]
            admitted = []
            for index, value in enumerate(served, split):
                key, load = keys[index], loads[index - split]
                if value is None:
                    rows = self._degraded(key, batch)
                elif value is load[0]:
                    rows = fresh[index - split]
                    admitted.append(key)
                elif self._cache_decoded:
                    rows = value
                else:
                    rows = self._decode(key, value, self._learned.get(key))
                graphs.append(rows)
            if admitted:
                self._loaded(admitted, batch)
            if failure is not None:
                raise failure
            start = stop
            yield from graphs

    def _read_run(self, keys, run: list, loads: list, batch: CounterBatch):
        """Read the regions ``run`` of ``keys``, adjacent or with only
        skipped regions between them, with one ``read_at`` and check and
        decode each slice, appending to
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

        Each list is assembled from the intranode graph plus the outgoing
        superedge graphs of the supernode, the paper's "adjacency lists
        are partitioned across multiple smaller graphs"; every graph is
        loaded once however many locals are asked for.  While the pool is
        pressed (:attr:`~repro.storage.bufferpool.BufferPool.pressed`: it
        has evicted to admit since it was last emptied) those are only
        the superedge graphs whose headers, read at open, list an asked
        local, and those whose headers are unknown
        (:meth:`_positions`); otherwise, and for every page of the
        supernode, every one — the paper's visit, which with room to
        spare buffers the rest of the supernode for the lookups that
        follow.  Asked for as many locals as the supernode has pages, the
        intranode graph is decoded whole in one pass, and so is a
        superedge graph every linked source of which was asked for;
        otherwise each asked row is decoded alone, with its reference
        chain.

        The graphs are loaded by :meth:`_load`: a supernode whose graphs
        are all buffered decoded in one visit to the pool, else a segment
        at a time.  Under ``memory_only`` a supernode one of whose graphs
        is missing raises :class:`~repro.errors.NotResident` instead,
        before any counter moves or any file is read.

        The pool, the device and the load bookkeeping charge one
        :class:`~repro.storage.metrics.CounterBatch` for the whole call,
        flushed into ``registry`` (or the store's own) on the way out —
        error or not, so the graphs read before a ``CorruptionError``
        stay counted.
        """
        boundaries = self._boundaries
        first = boundaries[supernode]
        keys, kinds = self._visits[supernode][:2]
        positions = self._positions(supernode, locals_)
        if positions is not None:
            keys = tuple([keys[position] for position in positions])
            kinds = tuple([kinds[position] for position in positions])
        batch = CounterBatch(registry if registry is not None else self.metrics)
        try:
            graphs = iter(self._load(keys, kinds, batch, memory_only, positions))
            intra = next(graphs)
            if type(intra) is IntranodeRows and len(locals_) >= len(intra):
                # Every row asked for: one fused decode of the graph, not
                # one per row.  (A quarantined graph is a list.)
                intra = intra.every()
            result = [[first + t for t in intra[local]] for local in locals_]
            #: local -> the rows of ``result`` asked for it, built on the
            #: first graph that links fewer locals than were asked for.
            asked: dict[int, list[list[int]]] | None = None
            for key, rows in zip(keys[1:], graphs):
                base = boundaries[key[2]]
                if len(rows.sources) < len(locals_):
                    # A superedge graph links a handful of the supernode's
                    # pages: walk those, not every local asked for — and
                    # decode only the rows of those that were.
                    if asked is None:
                        asked = {}
                        for local, row in zip(locals_, result):
                            asked.setdefault(local, []).append(row)
                    linked = [local for local in rows.sources if local in asked]
                    if not linked:
                        continue
                    # Every linked row asked for: one fused decode of the
                    # body, not one per row.
                    read = rows.linked.get if len(linked) == len(rows.sources) else rows.row
                    for local in linked:
                        targets = [base + t for t in read(local)]
                        for row in asked[local]:
                            row.extend(targets)
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

    def iterate_all(self, new_to_old=None):
        """Yield ``(page, adjacency list)`` for every page, supernode by
        supernode in pointer-table order (Figure 8's linear layout): the
        sequential path of Table 2, :meth:`load_digraph` and compaction.

        Given ``new_to_old``, pages and targets are yielded in the ids it
        maps store ids to (an adapter's repository ids); either way each
        row is sorted once, in the ids it is yielded in.

        The graphs come from :meth:`_scanned`, past the buffer pool: a
        scan admits and touches nothing, and moves no pool counter.
        """
        boundaries = self._boundaries
        nodes = range(self.num_supernodes)
        if new_to_old is None:
            ids = [range(boundaries[node], boundaries[node + 1]) for node in nodes]
        else:
            ids = [new_to_old[boundaries[node] : boundaries[node + 1]] for node in nodes]
        graphs = self._scanned()
        for supernode, targets in enumerate(self._super_adjacency):
            pages = ids[supernode]
            get = pages.__getitem__
            result = [list(map(get, row)) for row in next(graphs)]
            for target in targets:
                linked = next(graphs)
                if linked:
                    get = ids[target].__getitem__
                    for local, row in linked.items():
                        result[local].extend(map(get, row))
            for row in result:
                row.sort()
            yield from zip(pages, result)

    def _scanned(self):
        """Every graph of the store in pointer-table order, decoded whole:
        an intranode graph as its rows, a superedge graph as its ``source
        local -> row`` dict of linked sources.

        A graph the pool holds is peeked and used as held.  Each maximal
        run of adjacent regions the pool does not hold is read with one
        ``read_at``, its device bytes and seek charged to the store's own
        registry; each region's slice is checked against its pointer
        record and decoded straight from the bytes read, with what the
        graph's first load learned (and, the first time, learning it as a
        load would).  A quarantined graph is served empty, counting one
        ``degraded_reads``; a region failing its checksum raises — after
        the graphs before it were served — or, in degrade mode, is
        quarantined and served empty.
        """
        pool = self._pool
        quarantined = self._quarantined
        keys, regions = self._scan_keys, self._scan_regions
        end = len(keys)
        index = 0
        while index < end:
            for value in pool.peek(keys, index, quarantined):
                yield self._scan_held(keys[index], value)
                index += 1
            if index == end:
                break
            if keys[index] in quarantined:
                yield self._degraded_scan(keys[index])
                index += 1
                continue
            first = regions[index]
            reach = first.offset + first.length
            stop = index + 1
            while stop < end:
                region = regions[stop]
                if region.file_index != first.file_index or region.offset != reach:
                    break
                key = keys[stop]
                if key in quarantined or pool.is_cached(key):
                    break
                reach += region.length
                stop += 1
            data = self._device(first.file_index).read_at(
                first.offset, reach - first.offset
            )
            for key, region in zip(keys[index:stop], regions[index:stop]):
                begin = region.offset - first.offset
                yield self._scan_read(key, region, data[begin : begin + region.length])
            index = stop

    def _scan_held(self, key: tuple, value):
        """A held graph's rows as :meth:`_scanned` serves them."""
        if self._cache_decoded:
            return value.every() if key[0] == "intra" else value.linked
        return self._scan_decode(key, value, self._learned[key][1:])[0]

    def _scan_read(self, key: tuple, location: GraphLocation, payload: bytes):
        """A read graph's rows as :meth:`_scanned` serves them."""
        if integrity.crc32(payload) != location.crc:
            if self._on_corruption != "degrade":
                self._verify(key, location, payload)  # raises CorruptionError
            self._quarantine(key)
            return self._degraded_scan(key)
        learned = self._learned.get(key)
        rows, *facts = self._scan_decode(key, payload, () if learned is None else learned[1:])
        if learned is None:
            self._learn(key, payload, rows, *facts)
        return rows

    def _scan_decode(self, key: tuple, payload: bytes, facts: tuple):
        """``(rows, *facts)`` of graph ``key`` decoded whole from
        ``payload`` with ``facts``, or learning them if there are none."""
        if key[0] == "intra":
            return scan_intranode(payload, *facts)
        boundaries = self._boundaries
        return scan_superedge(payload, boundaries[key[2] + 1] - boundaries[key[2]], *facts)

    def _degraded_scan(self, key: tuple):
        """A quarantined graph as :meth:`_scanned` serves it, counted."""
        graph = self._degraded(key, self.metrics)
        return graph if key[0] == "intra" else graph.linked

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
        """The corruption policy (``"raise"`` or ``"degrade"``), fixed at open."""
        return self._on_corruption

    @property
    def quarantined(self) -> list[tuple]:
        """Regions quarantined this session or by ``repro fsck --repair``."""
        with self._quarantined_lock:
            return sorted(self._quarantined)
