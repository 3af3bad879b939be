"""The per-graph loader, as ``SNodeStore`` had it before graphs were read a
segment at a time through one peek-and-replay protocol with the pool: each
graph looked up with ``BufferPool.get`` — and on a miss read, checked,
decoded and admitted with ``BufferPool.put`` — on its own, in turn.

``per_graph(store)`` installs it over one store instance's ``_load``, so
the same ``_adjacency``, ``intranode_rows`` and ``superedge_rows`` drive
either loader: cold and resident visits and single graphs alike.
"""

from __future__ import annotations

import functools

from repro.errors import CorruptionError, NotResident


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


def load_each(store, keys, kinds, batch, memory_only: bool = False):
    """The graphs ``keys``, one keyed load each as the caller asks for the
    next; under ``memory_only``, NotResident before anything moves unless
    every graph is buffered decoded or quarantined."""
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
