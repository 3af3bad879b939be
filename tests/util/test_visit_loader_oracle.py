"""The store's loader against the per-graph one.

``SNodeStore._load`` reads every graph the store serves — a supernode's
visit or one graph — through one protocol with the pool: the graphs
buffered from the first one on are peeked; when that is all of them,
one ``BufferPool.replay`` with no loads serves them.  Otherwise they are
read a segment at a time: the buffered graphs from the next unserved one
on are peeked, the run of missing graphs with adjacent regions after them
is read with one ``read_at``, and the segment's lookups and admissions
are replayed under one pool lock.  Its oracle is the loader it replaced,
kept in ``oracle_loader.py`` and installed over ``_load``: every graph
looked up with ``BufferPool.get``, and on a miss read, checked, decoded
and admitted with ``BufferPool.put``, on its own.

Hypothesis drives both over the same build with the same generated
sequence of probes, ``out_neighbors_many`` groups, scans, single graphs
read out of visit order, ``memory_only`` probes and cold resets — a pool
from far below one visit's working set to one that holds everything,
both ``cache_decoded`` modes, a build whose payload files are small
enough that visits cross file boundaries, and a copy with regions
quarantined on disk.  After every step the rows (or the ``NotResident``
refusal), every registry counter and tally, the pool's LRU key order and
the access profiler's buffer-event stream must be equal; a step whose
visits were all cold must have made exactly one ``read_at`` per maximal
run of adjacent missing regions.

Both stores are held to the paper's visit (``paper_visit``), so every
count above is the per-graph loader's.  A second pair runs alongside:
a store left to load, once its pool is pressed, only the graphs that
link the asked pages, against the per-graph loader of such a store —
the same graphs, equal in every count but the bytes its runs read
through between two of them (each read checked to be one run of one
visit) and the seeks that saves.

Seeded mutations, each failing the test named:

* a run extended across a non-adjacent region (the offset / file test
  in ``_segments``' run loop deleted) —
  ``test_a_cold_visit_reads_once_per_adjacent_miss_run`` and
  ``test_visit_loader_equals_the_per_graph_loader``;
* puts replayed before the segment's hits (``BufferPool.replay``
  admits every loaded key first, then touches the peeked ones) —
  ``test_visit_loader_equals_the_per_graph_loader``;
* the next segment's residency peeked before this segment's puts (every
  key of the visit peeked once, up front) —
  ``test_visit_loader_equals_the_per_graph_loader``;
* the resident replay touching its keys in reverse —
  ``test_visit_loader_equals_the_per_graph_loader`` (the LRU order).
"""

from __future__ import annotations

import shutil

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from oracle_loader import paper_visit, per_graph, read_through

from repro.errors import NotResident
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
    if op[0] in ("probe", "inline"):
        return [store.supernode_of(op[1])]
    return sorted({store.supernode_of(page) for page in pages_of(store, op)})


def pages_of(store, op) -> list[int]:
    if op[0] == "many":
        return op[1]
    first = op[1] % store.num_supernodes
    last = min(first + op[2], store.num_supernodes)
    return list(range(store.supernode_range(first)[0], store.supernode_range(last - 1)[1]))


def locals_in(store, op, supernode: int) -> list[int]:
    """The locals of ``supernode`` whose rows ``op`` asks for."""
    first, end = store.supernode_range(supernode)
    if op[0] in ("probe", "inline"):
        return [op[1] - first]
    return [page - first for page in pages_of(store, op) if first <= page < end]


def cold_runs(store, op) -> int | None:
    """How many maximal runs of missing regions the visits of ``op`` read
    — each run a region after another, or after the regions of its visit
    the store leaves out between them — if none of their graphs is
    buffered and which graphs they visit is known before ``op``; else
    None."""
    supernodes = visited(store, op)
    if (
        len(supernodes) > 1
        and not store._pool.pressed
        and any(visit.starts for visit in store._visits)
    ):
        return None  # the first visit's admissions may press the pool
    runs = 0
    for supernode in supernodes:
        keys = store._visits[supernode].keys
        if any(store._pool.is_cached(key) for key in keys):
            return None
        positions = store._positions(supernode, locals_in(store, op, supernode))
        previous = None
        for position in range(len(keys)) if positions is None else positions:
            key = keys[position]
            if key in store._quarantined:
                previous = None
                continue
            location = store._location(key)
            if previous is not None:
                reach = previous.offset + previous.length
                for skipped in keys[last + 1 : position]:
                    gap = store._location(skipped)
                    follows = gap.file_index == previous.file_index and gap.offset == reach
                    reach = reach + gap.length if follows else -1
            if (
                previous is None
                or location.file_index != previous.file_index
                or location.offset != reach
            ):
                runs += 1
            previous, last = location, position
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
    if op[0] == "inline":
        try:
            return store.out_neighbors(op[1], memory_only=True)
        except NotResident:
            return NotResident
    return store.out_neighbors_many(pages_of(store, op))


def same_state(reference, store, skipped: int = 0) -> None:
    """``store`` left as ``reference``; given the bytes its reads
    read through (``skipped``), but for those bytes and the seeks they
    saved."""
    want = reference.metrics.snapshot()
    got = store.metrics.snapshot()
    if skipped:
        assert got.pop("bytes_read") == want.pop("bytes_read") + skipped
        assert got.pop("disk_seeks", 0) <= want.pop("disk_seeks")
    assert got == want
    for kind in ("intranode", "superedge"):
        assert store.metrics.distinct_keys(kind) == reference.metrics.distinct_keys(kind)
    assert store._pool._cache.keys() == reference._pool._cache.keys()
    assert store._pool.used_bytes == reference._pool.used_bytes


steps = st.lists(
    st.one_of(
        st.tuples(st.just("probe"), st.integers(0, PAGES - 1)),
        st.tuples(st.just("inline"), st.integers(0, PAGES - 1)),
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
# A resident visit, refused cold and served warm from memory.
@example([("inline", 54), ("probe", 54), ("inline", 54), ("probe", 54)], 1 << 22, True, "clean")
# A visit refused with its intranode graph peeked: nothing moves.
@example([("graph", 54, 0), ("inline", 54)], 1 << 22, True, "clean")
# Cold groups over an unpressed pool: one read per run, in both pairs.
@example([("scan", 3, 4), ("many", [10, 150, 290])], 1 << 22, True, "clean")
# Pressed by the first probe: the later ones look up only linked graphs.
@example([("probe", 0), ("probe", 1), ("probe", 2), ("probe", 120)], 768, True, "clean")
def test_visit_loader_equals_the_per_graph_loader(roots, program, budget, decoded, root):
    """Through the paper's visit, the two loaders are equal in every
    count.  A store that loads only the graphs that link its pages under
    pressure looks up, for a probe, only the graphs its link record
    names, and hands the per-graph loader the same graphs; against it,
    the store's runs also read the regions it leaves out between two of
    them (one run each: :func:`read_through`), and nothing else
    differs."""

    def opened(oracle):
        store = SNodeStore(roots[root], buffer_bytes=budget, cache_decoded=decoded)
        return per_graph(store) if oracle else store

    reference, store = paper_visit(opened(True)), paper_visit(opened(False))
    linked_reference, linked = opened(True), opened(False)
    traces = [profile.AccessTracer() for _ in range(4)]
    skipped = 0
    try:
        for op in program:
            counted = op[0] not in ("drop", "graph", "inline")
            runs = cold_runs(store, op) if counted else None
            linked_runs = cold_runs(linked, op) if counted else None
            if op[0] == "probe":
                supernode = linked.supernode_of(op[1])
                keys = linked._visits[supernode].keys
                positions = linked._positions(supernode, locals_in(linked, op, supernode))
                lookups = sum(
                    keys[position] not in linked._quarantined
                    for position in (range(len(keys)) if positions is None else positions)
                )
                lookups += linked.metrics.get("buffer_hits") + linked.metrics.get("buffer_misses")
            before = reads(traces[1]), reads(traces[3])
            marks = len(traces[3].io_events()), len(traces[3].buffer_events())
            with profile.activated(traces[0]):
                want = apply(reference, op)
            with profile.activated(traces[1]):
                got = apply(store, op)
            assert got == want
            same_state(reference, store)
            assert buffer_stream(traces[1]) == buffer_stream(traces[0])
            if runs is not None:
                assert reads(traces[1]) - before[0] == runs

            with profile.activated(traces[2]):
                linked_want = apply(linked_reference, op)
            with profile.activated(traces[3]):
                linked_got = apply(linked, op)
            assert linked_got == linked_want
            if NotResident not in (got, linked_got):
                assert linked_got == want
            if op[0] == "probe":
                assert (
                    linked.metrics.get("buffer_hits") + linked.metrics.get("buffer_misses")
                    == lookups
                )
            io_mark, buffer_mark = marks
            skipped += read_through(
                linked,
                traces[3].io_events()[io_mark:],
                traces[3].buffer_events()[buffer_mark:],
            )
            same_state(linked_reference, linked, skipped)
            assert buffer_stream(traces[3]) == buffer_stream(traces[2])
            if linked_runs is not None:
                assert reads(traces[3]) - before[1] == linked_runs
    finally:
        for each in (reference, store, linked_reference, linked):
            each.close()


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
            runs = cold_runs(store, op)
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
