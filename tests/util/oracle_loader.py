"""The per-graph visit loader, as ``SNodeStore`` had it before visits were
read a segment at a time: each graph of a supernode's visit looked up —
and on a miss read, checked, decoded and admitted — on its own, as the
caller asks for the next.

``per_graph(store)`` installs it on one store instance, so the same
``_adjacency`` drives either loader.
"""

from __future__ import annotations

import functools


def load_each(store, supernode: int, batch):
    """The graphs of ``store._visit(supernode)``, one keyed load each."""
    yield store.intranode_rows(supernode, registry=batch)
    for target_super in store.super_adjacency[supernode]:
        yield store.superedge_rows(supernode, target_super, registry=batch)


def per_graph(store):
    """``store``, its visits loaded graph by graph from now on."""
    store._load_visit = functools.partial(load_each, store)
    return store
