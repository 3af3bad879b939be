"""The store's scan against the paper's.

``SNodeStore.iterate_all`` walks every graph in pointer-table order past
the buffer pool: a graph the pool holds is peeked and used as held, each
maximal run of adjacent regions it does not hold is read with one
``read_at``, and every region read is checked and decoded once, straight
from the bytes read.  Its oracle is the scan it replaced, kept in
``oracle_loader.py`` as ``paper_scan``: one ``_adjacency`` lookup of
every page of each supernode in turn, through the pool.

Hypothesis drives both over the same build, opened twice with the same
settings and left by the same lookups: pools from 768 B to 4 MiB, cold,
partly and fully buffered, both ``cache_decoded`` modes, a clean copy, a
copy whose corrupt regions ``fsck --repair`` quarantined and a copy
corrupted before the store opens, in raise and degrade mode, read in
store ids and through ``SNodeRepresentation`` with and without an
attached overlay.  The rows (and the error a scan ends in) must be the
paper scan's, and on the clean copy the crawl graph's.  The scan moves
no pool counter and leaves the LRU order as it was; it reads each region
the pool did not hold once, one ``read_at`` per maximal run of them; and
it leaves the store's ``_learned`` table as the paper scan leaves it.

Seeded mutations, each failing the test named:

* a held graph served through ``BufferPool.replay`` (counted and
  touched) instead of as peeked —
  ``test_a_scan_equals_the_paper_scan``;
* a run extended over a held region (its ``is_cached`` test deleted) —
  ``test_a_scan_equals_the_paper_scan``;
* a region read decoded without recording what its first load learns —
  ``test_a_scan_equals_the_paper_scan``;
* each region read with a ``read_at`` of its own —
  ``test_a_cold_scan_reads_each_payload_file_once``.
"""

from __future__ import annotations

import shutil
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from oracle_loader import paper_scan

from repro.baselines.base import SNodeRepresentation
from repro.errors import StorageError
from repro.obs.profile import trace as profile
from repro.snode.build import BuildOptions, build_snode
from repro.snode.delta import DeltaOverlay
from repro.snode.storage import read_layout
from repro.snode.store import SNodeStore
from repro.storage import faults
from repro.storage.fsck import fsck

PAGES = 300
#: Small payload files, so a cold scan reads several.
MAX_FILE_BYTES = 512

#: What a scan may move in its store's registry: device bytes and seeks,
#: degraded answers and quarantines, and an overlay's merges.
SCAN_COUNTERS = {
    "bytes_read",
    "disk_seeks",
    "degraded_reads",
    "regions_quarantined",
    "delta_merges",
    "delta_merge_edges",
}


@pytest.fixture(scope="module")
def built(tiny_repo, test_refinement_config, tmp_path_factory):
    """A build with small payload files, a copy of it with corrupt regions
    quarantined by ``fsck --repair`` and one corrupted, not repaired."""
    base = tmp_path_factory.mktemp("scan_oracle")
    build = build_snode(
        tiny_repo,
        base / "clean",
        BuildOptions(refinement=test_refinement_config, max_file_bytes=MAX_FILE_BYTES),
    )
    build.store.close()
    for name in ("quarantined", "corrupted"):
        shutil.copytree(base / "clean", base / name)
        assert faults.corrupt_snode_regions(base / name, stride=5, seed=4) > 3
        layout = read_layout(base / name)
        for location, _negative in list(layout.superedge.values())[2::11]:
            path = base / name / layout.index_files[location.file_index]
            with open(path, "r+b") as handle:
                handle.seek(location.offset + location.length // 2)
                byte = handle.read(1)[0]
                handle.seek(location.offset + location.length // 2)
                handle.write(bytes([byte ^ 0x20]))
    assert len(fsck(base / "quarantined", repair=True).repaired) > 5
    assert len(read_layout(base / "clean").index_files) > 3
    roots = {name: base / name for name in ("clean", "quarantined", "corrupted")}
    return SimpleNamespace(roots=roots, numbering=build.numbering, repository=tiny_repo)


def overlay_of(repository) -> DeltaOverlay:
    """Pending mutations on every 7th page: its first edge removed, one added."""
    overlay = DeltaOverlay()
    for page in range(0, repository.num_pages, 7):
        row = repository.graph.successors_list(page)
        overlay.apply("remove", [(page, target) for target in row[:1]])
        overlay.apply("add", [(page, (page * 5 + 2) % repository.num_pages)])
    return overlay


def outcome(rows) -> tuple[list, type | None]:
    """What ``rows`` yields, and the type of the error it ends in."""
    got = []
    try:
        for item in rows:
            got.append(item)
    except StorageError as error:
        return got, type(error)
    return got, None


def fill(store, lookups) -> None:
    """Leave ``store``'s pool as ``lookups`` leave it: None for a paper
    scan, else ``out_neighbors_many`` of each group in turn."""
    groups = [None] if lookups is None else lookups
    for group in groups:
        try:
            if group is None:
                for _item in paper_scan(store):
                    pass
            else:
                store.out_neighbors_many(group)
        except StorageError:
            pass


def regions_read(store, tracer) -> list[list[tuple]]:
    """The keys each ``read_at`` of ``tracer`` read, each read checked to
    be whole regions, one after another."""
    at = {}
    for key, region in zip(store._scan_keys, store._scan_regions):
        path = str(store._root / store._layout.index_files[region.file_index])
        at[path, region.offset] = key, region.length
    runs = []
    for event in tracer.io_events():
        assert type(event) is profile.IOEvent
        run, reach = [], event.offset
        while reach < event.offset + event.length:
            key, length = at[event.file, reach]
            run.append(key)
            reach += length
        assert reach == event.offset + event.length
        runs.append(run)
    return runs


def maximal_runs(store, unread: list[tuple]) -> int:
    """How many maximal runs of adjacent regions ``unread`` (keys in scan
    order) makes."""
    runs, previous = 0, None
    for key in unread:
        region = store._location(key)
        if (
            previous is None
            or region.file_index != previous.file_index
            or region.offset != previous.offset + previous.length
        ):
            runs += 1
        previous = region
    return runs


pages = st.integers(0, PAGES - 1)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.sampled_from(("clean", "quarantined", "corrupted")),
    st.sampled_from(("raise", "degrade")),
    st.sampled_from((768, 3 * 1024, 12 * 1024, 1 << 22)),
    st.booleans(),
    st.one_of(st.none(), st.lists(st.lists(pages, min_size=1, max_size=40), max_size=4)),
    st.sampled_from(("store", "view", "overlay")),
)
# Cold: one read per payload file.
@example("clean", "raise", 768, True, [], "store")
# Fully buffered: nothing read.
@example("clean", "raise", 1 << 22, False, None, "view")
# Partly buffered: runs broken by held graphs.
@example("clean", "raise", 1 << 22, True, [[0, 40, 41, 120, 299]], "overlay")
# Corrupted before open: the scan raises where the paper scan does ...
@example("corrupted", "raise", 3 * 1024, True, [], "store")
# ... or quarantines and serves the rest.
@example("corrupted", "degrade", 12 * 1024, False, [[5, 77]], "overlay")
@example("quarantined", "raise", 768, True, None, "view")
def test_a_scan_equals_the_paper_scan(built, root, mode, budget, decoded, lookups, face):
    def opened():
        return SNodeStore(
            built.roots[root], buffer_bytes=budget, cache_decoded=decoded, on_corruption=mode
        )

    store, reference = opened(), opened()
    try:
        for each in (store, reference):
            fill(each, lookups)
        assert store._learned == reference._learned
        numbering = built.numbering
        overlay = overlay_of(built.repository) if face == "overlay" else None
        if face == "store":
            scan, want_rows = store.iterate_all(), paper_scan(reference)
        else:
            view = SNodeRepresentation(SimpleNamespace(store=store, numbering=numbering))
            view.attach_overlay(overlay)
            scan = view.iterate_all()
            new_to_old = numbering.new_to_old

            def repository_rows():
                for new_page, row in paper_scan(reference):
                    page, row = new_to_old[new_page], sorted(new_to_old[t] for t in row)
                    yield page, row if overlay is None else overlay.merge(
                        page, row, reference.metrics
                    )

            want_rows = repository_rows()

        before = store.metrics.snapshot()
        reference_before = reference.metrics.snapshot()
        lru = store._pool._cache.keys()
        used = store._pool.used_bytes
        quarantined = set(store._quarantined)
        unread = [
            key
            for key in store._scan_keys
            if key not in quarantined and not store._pool.is_cached(key)
        ]
        tracer = profile.AccessTracer()
        with profile.activated(tracer):
            got, error = outcome(scan)
        want, want_error = outcome(want_rows)
        assert (got, error) == (want, want_error)

        if root == "clean":
            graph = built.repository.graph
            if face == "store":
                old_to_new = numbering.old_to_new
                crawl = [
                    (new, sorted(old_to_new[t] for t in graph.successors_list(new_to_old)))
                    for new, new_to_old in enumerate(numbering.new_to_old)
                ]
            else:
                crawl = [
                    (page, graph.successors_list(page) if overlay is None else overlay.merge(
                        page, graph.successors_list(page)
                    ))
                    for page in numbering.new_to_old
                ]
            assert got == crawl

        # No pool counter moved, nothing touched or admitted.
        after = store.metrics.snapshot()
        moved = {name for name in {*before, *after} if before.get(name) != after.get(name)}
        assert moved <= SCAN_COUNTERS
        assert store._pool._cache.keys() == lru
        assert store._pool.used_bytes == used
        reference_after = reference.metrics.snapshot()
        for name in ("degraded_reads", "regions_quarantined", "delta_merges"):
            assert after.get(name, 0) - before.get(name, 0) == reference_after.get(
                name, 0
            ) - reference_before.get(name, 0)
        assert store.quarantined == reference.quarantined

        # Each region the pool did not hold read once, a run at a time.
        runs = regions_read(store, tracer)
        read = [key for run in runs for key in run]
        assert len(read) == len(set(read))
        assert set(read) <= set(unread)
        assert after.get("bytes_read", 0) - before.get("bytes_read", 0) == sum(
            store._location(key).length for key in read
        )
        if error is None:
            assert read == unread
            assert len(runs) == maximal_runs(store, unread)

        assert store._learned == reference._learned
    finally:
        store.close()
        reference.close()


@pytest.mark.parametrize("decoded", [True, False], ids=["decoded", "encoded"])
def test_a_cold_scan_reads_each_payload_file_once(built, decoded):
    """A cold scan makes one ``read_at`` per payload file and reads the
    payload bytes exactly; once a paper scan has buffered every graph, a
    scan reads nothing."""
    store = SNodeStore(built.roots["clean"], buffer_bytes=1 << 22, cache_decoded=decoded)
    try:
        files = len(store._layout.index_files)
        for expected_reads, expected_bytes in (
            (files, store.manifest["payload_bytes"]),
            (0, 0),
        ):
            store.metrics.reset()
            tracer = profile.AccessTracer()
            with profile.activated(tracer):
                rows = list(store.iterate_all())
            assert len(tracer.io_events()) == expected_reads
            assert store.metrics.snapshot() == (
                {"bytes_read": expected_bytes, "disk_seeks": files} if expected_reads else {}
            )
            assert rows == list(paper_scan(store))  # buffers every graph
    finally:
        store.close()
