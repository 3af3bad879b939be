"""The per-graph loader, as ``SNodeStore`` had it before graphs were read a
segment at a time through one peek-and-replay protocol with the pool: each
graph looked up with ``BufferPool.get`` — and on a miss read, checked,
decoded and admitted with ``BufferPool.put`` — on its own, in turn.

``per_graph(store)`` installs it over one store instance's ``_load``, so
the same ``_adjacency``, ``intranode_rows`` and ``superedge_rows`` drive
either loader: cold and resident visits and single graphs alike.

``paper_visit(store)`` makes one store read the paper's visit — the
intranode graph and every superedge graph of the supernode — whatever
the pool's pressure, as if no superedge header had been read at open.

``paper_scan(store)`` is the scan as ``SNodeStore.iterate_all`` had it
before a scan read past the pool: one ``_adjacency`` lookup of every
page of each supernode in turn, loading, admitting and counting every
graph through the pool.  Tests that fill, press or learn a pool with a
scan, or pin the counters of one, use it.
"""

from __future__ import annotations

import functools

from repro.errors import CorruptionError, NotResident
from repro.obs.profile import trace as profile


def load_one(store, key: tuple, kind: str, registry):
    """One graph by its buffer key — ``("intra", supernode)`` or
    ``("super", source, target)`` — looked up, and on a miss read, checked,
    decoded and admitted."""
    if key in store._quarantined:
        return store._degraded(key, registry)
    cached = store._pool.get(key, kind=kind, registry=registry)
    if cached is not None:
        if store._cache_decoded:
            return cached
        return store._decode(key, cached, store._learned.get(key))
    location = store._location(key)
    payload = store._device(location.file_index).read_at(
        location.offset, location.length, registry=registry
    )
    try:
        rows, charge = store._checked(key, location, payload)
    except CorruptionError:
        if store.on_corruption != "degrade":
            raise
        store._quarantine(key)
        return store._degraded(key, registry)
    store._pool.put(key, rows if store._cache_decoded else payload, charge, kind=kind)
    store._loaded([key], registry)
    return rows


def load_each(store, keys, kinds, batch, memory_only: bool = False, positions=None):
    """The graphs ``keys``, one keyed load each as the caller asks for the
    next; under ``memory_only``, NotResident before anything moves unless
    every graph is buffered decoded or quarantined.  ``positions`` (where
    ``keys`` sit in their visit) serves the store's read-through, which
    loading graph by graph has no use for."""
    if memory_only and not (
        store._cache_decoded
        and all(key in store._quarantined or store._pool.is_cached(key) for key in keys)
    ):
        raise NotResident(f"supernode {keys[0][1]} is not wholly buffered")
    for key, kind in zip(keys, kinds):
        yield load_one(store, key, kind, batch)


def per_graph(store):
    """``store``, every graph it reads loaded graph by graph from now on."""
    store._load = functools.partial(load_each, store)
    return store


def paper_scan(store):
    """Yield ``(page, row)`` for every page of ``store`` in id order, each
    supernode's rows one ``_adjacency`` lookup through the pool."""
    for supernode in range(store.num_supernodes):
        first, end = store.supernode_range(supernode)
        rows = store._adjacency(supernode, list(range(end - first)), None)
        yield from zip(range(first, end), rows)


def paper_visit(store):
    """``store``, its link records cleared: every superedge header is
    unknown, so every visit is the whole supernode's."""
    for visit in store._visits:
        del visit.starts[:]
    return store


def read_through(store, io_events, buffer_events) -> int:
    """The bytes ``io_events`` — the reads of one step through ``store``,
    whose buffer lookups were ``buffer_events`` — read for graphs that
    step did not look up, each read checked to be one run: regions of one
    supernode's visit, each starting where the last ended, first and last
    looked up and missed, and none looked up and hit in between."""
    layout = store._layout
    starts = {}
    for key in (
        *(("intra", node) for node in range(len(layout.intranode))),
        *(("super", *pair) for pair in layout.superedge),
    ):
        location = store._location(key)
        if location.length:
            path = str(store._root / layout.index_files[location.file_index])
            starts[path, location.offset] = key, location.length
    lookups = {
        event.key: event.hit
        for event in buffer_events
        if type(event) is profile.BufferEvent and not event.pinned
    }
    skipped = 0
    for event in io_events:
        if type(event) is not profile.IOEvent or not event.length:
            continue
        chain = []
        reach = event.offset
        while reach < event.offset + event.length:
            key, length = starts[event.file, reach]
            chain.append((key, length))
            reach += length
        assert reach == event.offset + event.length
        assert len({key[1] for key, _length in chain}) == 1, chain
        assert lookups.get(chain[0][0]) is False and lookups.get(chain[-1][0]) is False
        for key, length in chain[1:-1]:
            assert lookups.get(key) is not True, key
            skipped += length if key not in lookups else 0
    return skipped
