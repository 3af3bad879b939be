"""The segment visit loader against the per-graph one.

``SNodeStore._load_visit`` reads a supernode's missing graphs a segment at
a time: the buffered graphs from the next unserved one on are peeked,
the run of missing graphs with adjacent regions after them is read with
one ``read_at``, and the segment's lookups and admissions are replayed
under one pool lock (``BufferPool.replay``).  Its oracle is the loader it
replaced, kept in ``oracle_loader.py``: every graph looked up, and on a
miss read, checked, decoded and admitted, on its own.

Hypothesis drives both over the same build with the same generated
sequence of probes, ``out_neighbors_many`` groups, scans, single graphs
read out of visit order and cold resets — a pool from far below one visit's working set to one that holds
everything, both ``cache_decoded`` modes, a build whose payload files
are small enough that visits cross file boundaries, and a copy with
regions quarantined on disk.  After every step the rows, every registry
counter and tally, the pool's LRU key order and the access profiler's
buffer-event stream must be equal; a step whose visits were all cold
must have made exactly one ``read_at`` per maximal run of adjacent
missing regions.

Seeded mutations, each failing the test named:

* a run extended across a non-adjacent region (the offset / file test
  in ``_load_visit``'s run loop deleted) —
  ``test_a_cold_visit_reads_once_per_adjacent_miss_run`` and
  ``test_visit_loader_equals_the_per_graph_loader``;
* puts replayed before the segment's hits (``BufferPool.replay``
  admits every loaded key first, then looks up the peeked ones) —
  ``test_visit_loader_equals_the_per_graph_loader``;
* the next segment's residency peeked before this segment's puts (every
  key of the visit peeked once, up front) —
  ``test_visit_loader_equals_the_per_graph_loader``.
"""

from __future__ import annotations

import shutil

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from oracle_loader import per_graph

from repro.obs.profile import trace as profile
from repro.snode.build import BuildOptions, build_snode
from repro.snode.storage import read_layout
from repro.snode.store import SNodeStore
from repro.storage import faults
from repro.storage.fsck import fsck

PAGES = 300
#: Payload files this small rotate every few supernodes, so some visits
#: cross a file boundary and their regions are not all adjacent.
MAX_FILE_BYTES = 256


@pytest.fixture(scope="module")
def roots(tiny_repo, test_refinement_config, tmp_path_factory):
    """A build with small payload files, and a copy of it with intranode
    and superedge regions corrupted and quarantined by ``fsck --repair``."""
    base = tmp_path_factory.mktemp("visit_loader")
    build_snode(
        tiny_repo,
        base / "clean",
        BuildOptions(refinement=test_refinement_config, max_file_bytes=MAX_FILE_BYTES),
    )
    shutil.copytree(base / "clean", base / "quarantined")
    faults.corrupt_snode_regions(base / "quarantined", stride=4, seed=2)
    layout = read_layout(base / "quarantined")
    for location, _negative in list(layout.superedge.values())[3::9]:
        path = base / "quarantined" / layout.index_files[location.file_index]
        with open(path, "r+b") as handle:
            handle.seek(location.offset)
            byte = handle.read(1)[0]
            handle.seek(location.offset)
            handle.write(bytes([byte ^ 0x40]))
    report = fsck(base / "quarantined", repair=True)
    assert len(report.repaired) > 10
    assert len(read_layout(base / "clean").index_files) > 5
    return {"clean": base / "clean", "quarantined": base / "quarantined"}


def buffer_stream(profiler) -> list[tuple]:
    """The profiler's buffer events, without the sequence numbers (shared
    with I/O events, which differ) and the pool's id."""
    out = []
    for event in profiler.buffer_events():
        if type(event) is profile.BufferEvent:
            out.append(("get", event.key, event.kind, event.hit, event.pinned))
        elif type(event) is profile.AdmitEvent:
            out.append(("admit", event.key, event.kind, event.cost))
        else:
            out.append(("drop", event.key))
    return out


def reads(profiler) -> int:
    return sum(type(event) is profile.IOEvent for event in profiler.io_events())


def visited(store, op) -> list[int]:
    """The supernodes ``op`` visits, in the order it visits them."""
    if op[0] == "probe":
        return [store.supernode_of(op[1])]
    return sorted({store.supernode_of(page) for page in pages_of(store, op)})


def pages_of(store, op) -> list[int]:
    if op[0] == "many":
        return op[1]
    first = op[1] % store.num_supernodes
    last = min(first + op[2], store.num_supernodes)
    return list(range(store.supernode_range(first)[0], store.supernode_range(last - 1)[1]))


def cold_runs(store, supernodes) -> int | None:
    """How many maximal runs of adjacent missing regions the visits to
    ``supernodes`` read, if none of their graphs is buffered; else None."""
    runs = 0
    for supernode in supernodes:
        keys, _kinds = store._visit(supernode)
        if any(store._pool.is_cached(key) for key in keys):
            return None
        previous = None
        for key in keys:
            if key in store._quarantined:
                previous = None
                continue
            location = store._location(key)
            if (
                previous is None
                or location.file_index != previous.file_index
                or location.offset != previous.offset + previous.length
            ):
                runs += 1
            previous = location
    return runs


def apply(store, op):
    if op[0] == "drop":
        store.drop_buffers()
        return None
    if op[0] == "graph":
        # One graph on its own, out of visit order: the LRU then holds
        # visits partly, with buffered graphs before missing ones.
        supernode = store.supernode_of(op[1])
        targets = store.super_adjacency[supernode]
        if not targets or op[2] % (len(targets) + 1) == 0:
            rows = store.intranode_rows(supernode)
            return [rows[local] for local in range(len(rows))]
        rows = store.superedge_rows(supernode, targets[op[2] % (len(targets) + 1) - 1])
        return {local: rows.row(local) for local in rows.sources}
    if op[0] == "probe":
        return store.out_neighbors(op[1])
    return store.out_neighbors_many(pages_of(store, op))


def same_state(reference, store) -> None:
    assert store.metrics.snapshot() == reference.metrics.snapshot()
    for kind in ("intranode", "superedge"):
        assert store.metrics.distinct_keys(kind) == reference.metrics.distinct_keys(kind)
    assert store._pool._cache.keys() == reference._pool._cache.keys()
    assert store._pool.used_bytes == reference._pool.used_bytes


steps = st.lists(
    st.one_of(
        st.tuples(st.just("probe"), st.integers(0, PAGES - 1)),
        st.tuples(st.just("many"), st.lists(st.integers(0, PAGES - 1), min_size=1, max_size=10)),
        st.tuples(st.just("scan"), st.integers(0, 1 << 10), st.integers(1, 4)),
        st.tuples(st.just("graph"), st.integers(0, PAGES - 1), st.integers(0, 1 << 10)),
        st.just(("drop",)),
    ),
    min_size=1,
    max_size=24,
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    steps,
    st.sampled_from((768, 3 * 1024, 12 * 1024, 1 << 22)),
    st.booleans(),
    st.sampled_from(("clean", "quarantined")),
)
# A visit crossing a file boundary, read cold.
@example([("probe", 228)], 768, False, "clean")
# A buffered graph before missing ones in one segment.
@example([("graph", 0, 1), ("probe", 0)], 768, True, "clean")
# A segment's puts evict a graph a later segment would have peeked buffered.
@example([("graph", 54, 1), ("many", [54])], 768, True, "clean")
def test_visit_loader_equals_the_per_graph_loader(roots, program, budget, decoded, root):
    reference = per_graph(SNodeStore(roots[root], buffer_bytes=budget, cache_decoded=decoded))
    store = SNodeStore(roots[root], buffer_bytes=budget, cache_decoded=decoded)
    traces = profile.AccessTracer(), profile.AccessTracer()
    try:
        for op in program:
            runs = None if op[0] in ("drop", "graph") else cold_runs(store, visited(store, op))
            before = reads(traces[1])
            with profile.activated(traces[0]):
                want = apply(reference, op)
            with profile.activated(traces[1]):
                got = apply(store, op)
            assert got == want
            same_state(reference, store)
            assert buffer_stream(traces[1]) == buffer_stream(traces[0])
            if runs is not None:
                assert reads(traces[1]) - before == runs
    finally:
        reference.close()
        store.close()


@pytest.mark.parametrize("decoded", [True, False], ids=["decoded", "encoded"])
@pytest.mark.parametrize("root", ["clean", "quarantined"])
def test_a_cold_visit_reads_once_per_adjacent_miss_run(roots, root, decoded):
    """Every supernode scanned cold, in both loaders: the rows and every
    counter agree, and the segment loader reads each run once — fewer
    reads than graphs, more than one read where a visit crosses files."""
    reference = per_graph(SNodeStore(roots[root], cache_decoded=decoded))
    store = SNodeStore(roots[root], cache_decoded=decoded)
    crossing = total = 0
    try:
        for supernode in range(store.num_supernodes):
            for each in (reference, store):
                each.drop_buffers()
            op = ("scan", supernode, 1)
            runs = cold_runs(store, [supernode])
            tracer = profile.AccessTracer()
            with profile.activated(tracer):
                got = apply(store, op)
            assert got == apply(reference, op)
            assert reads(tracer) == runs
            crossing += runs > 1
            total += runs
        same_state(reference, store)
        assert crossing > 0 and total < store.metrics.get("loads") / 2
    finally:
        reference.close()
        store.close()
