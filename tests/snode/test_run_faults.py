"""Faults inside a run: one ``read_at`` serves several adjacent regions.

A cold visit reads each run of adjacent missing regions at once and
checks every region's slice on its own, so a fault inside a run must
land where it would have landed had each graph been read by itself (the
per-graph loader of ``tests/util/oracle_loader.py``):

* a bit flip in the middle region of a three-region run — in raise mode
  the graph before it stays admitted and counted, its own miss is
  counted, the bytes charged end with its region, and nothing after it
  is touched; in degrade mode only it is quarantined and both its run
  neighbours are served;
* a transient ``EIO`` and a short read of a run are retried inside the
  one ``read_at``;
* two sessions racing on one cold supernode both read its run, one
  admits every graph and the other is served them as hits, and request
  → session → store conservation is exact;
* a graph peeked buffered and evicted by another reader before the
  replay is served as peeked and counted a hit, not read again;
* six sessions probing through a pool far smaller than their working
  set, preempted every 10 µs, get the crawl's rows, and every lookup is
  one hit or one miss and every miss one load — through the paper's
  visit, and through a pressed pool's visit of only the linked graphs.

A scan reads each run of adjacent unbuffered regions — a cold store's
whole payload file — with one ``read_at``, past the pool:

* a bit flip in a region in the middle of the run raises in raise mode
  once every supernode before its own was yielded, and in degrade mode
  quarantines that region alone, counts its degraded read and serves
  every other row;
* a transient ``EIO`` is retried inside the one read, and a persistent
  short read raises ``StorageError``;
* a session probing while the store is scanned over and over gets the
  crawl's rows, the scans too, with request → session → store
  conservation exact and the store's own registry charged only device
  bytes, seeks and the session's evictions.

Seeded mutations of the scan, each failing the test named:

* the checksum of a region read not checked —
  ``test_a_bit_flip_in_the_middle_of_a_scan_run``;
* each region read with a ``read_at`` of its own —
  ``test_a_transient_eio_on_a_scan_read_is_retried``;
* a failed run read served as degraded graphs —
  ``test_a_persistent_short_read_of_a_scan_raises_storage_error``;
* each graph read admitted to the pool (a replayed miss) —
  ``test_a_lookup_thread_during_scans``.
"""

from __future__ import annotations

import shutil
import sys
import threading
from pathlib import Path

import pytest

from repro.errors import CorruptionError, StorageError
from repro.obs.profile import trace as profile
from repro.snode.store import SNodeStore
from repro.storage import faults
from repro.storage.bufferpool import BufferPool
from repro.storage.device import CountedFile

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "util"))
from oracle_loader import paper_scan, paper_visit, per_graph  # noqa: E402


def three_region_visit(store) -> int:
    """A supernode whose visit is one run of three adjacent regions: its
    intranode graph and two superedge graphs, none of them empty."""
    for supernode, targets in enumerate(store.super_adjacency):
        if len(targets) != 2:
            continue
        regions = [store._location(key) for key in store._visits[supernode].keys]
        if all(region.length for region in regions) and all(
            later.file_index == earlier.file_index
            and later.offset == earlier.offset + earlier.length
            for earlier, later in zip(regions, regions[1:])
        ):
            return supernode
    raise AssertionError("no supernode whose visit is three adjacent regions")


def regions(store, supernode: int) -> list:
    return [store._location(key) for key in store._visits[supernode].keys]


def outcome(store, page: int):
    try:
        return store.out_neighbors(page)
    except CorruptionError as error:
        return type(error)


def reads(profiler) -> int:
    return sum(type(event) is profile.IOEvent for event in profiler.io_events())


@pytest.mark.parametrize("decoded", [True, False], ids=["decoded", "encoded"])
@pytest.mark.parametrize("mode", ["raise", "degrade"])
def test_bit_flip_in_the_middle_of_a_three_region_run(small_build, tmp_path, mode, decoded):
    root = tmp_path / "build"
    shutil.copytree(small_build.root, root)
    with SNodeStore(root) as clean:
        supernode = three_region_visit(clean)
        bad_target = clean.super_adjacency[supernode][0]
        linked = clean.superedge_rows(supernode, bad_target).sources[0]
        page = clean.supernode_range(supernode)[0] + linked  # links into bad_target
        answer = clean.out_neighbors(page)
        first, middle, last = regions(clean, supernode)
        path = root / clean._layout.index_files[middle.file_index]
    with open(path, "r+b") as handle:
        handle.seek(middle.offset + middle.length // 2)
        byte = handle.read(1)[0]
        handle.seek(middle.offset + middle.length // 2)
        handle.write(bytes([byte ^ 0x08]))

    reference = per_graph(SNodeStore(root, on_corruption=mode, cache_decoded=decoded))
    store = SNodeStore(root, on_corruption=mode, cache_decoded=decoded)
    tracer = profile.AccessTracer()
    with profile.activated(tracer):
        got = outcome(store, page)
    assert got == outcome(reference, page)
    assert store.metrics.snapshot() == reference.metrics.snapshot()
    assert store.quarantined == reference.quarantined
    assert store._pool._cache.keys() == reference._pool._cache.keys()
    assert reads(tracer) == 1
    charged = store.metrics.snapshot()
    if mode == "raise":
        assert got is CorruptionError
        assert charged["buffer_misses"] == 2 and charged["loads"] == 1
        assert charged["intranode_loads"] == 1
        assert charged["bytes_read"] == first.length + middle.length
        assert store._pool._cache.keys() == [("intra", supernode)]
    else:
        assert got == [t for t in answer if store.supernode_of(t) != bad_target]
        assert got != answer
        assert store.quarantined == [("super", supernode, bad_target)]
        assert charged["buffer_misses"] == 3 and charged["loads"] == 2
        assert charged["degraded_reads"] == 1 and charged["regions_quarantined"] == 1
        assert charged["bytes_read"] == first.length + middle.length + last.length
    reference.close()
    store.close()


class SpoilFirstRead(faults.FaultPlan):
    """A plan that spoils the first read attempt once — an ``EIO`` or a
    read cut in half — and lets every later attempt through."""

    def __init__(self, fault: str) -> None:
        super().__init__(seed=0)
        self.fault = fault
        self.spoiled = False

    def on_read(self, path, offset, data, registry=None):
        if self.spoiled:
            return data
        self.spoiled = True
        if self.fault == "eio":
            registry.inc("fault_eio")
            raise faults.TransientIOError(path)
        registry.inc("fault_short_reads")
        return data[: len(data) // 2]


@pytest.mark.parametrize("fault", ["eio", "short"])
def test_a_transient_fault_on_a_run_read_is_retried(small_build, fault):
    reference = per_graph(SNodeStore(small_build.root))
    store = SNodeStore(small_build.root)
    supernode = three_region_visit(store)
    page = store.supernode_range(supernode)[0]
    with faults.activated(SpoilFirstRead(fault)):
        want = reference.out_neighbors(page)
    tracer = profile.AccessTracer()
    with faults.activated(SpoilFirstRead(fault)), profile.activated(tracer):
        got = store.out_neighbors(page)
    assert got == want == SNodeStore(small_build.root).out_neighbors(page)
    assert reads(tracer) == 1
    charged = store.metrics.snapshot()
    assert charged == reference.metrics.snapshot()
    assert charged["io_retries"] == 1
    assert charged["fault_eio" if fault == "eio" else "fault_short_reads"] == 1
    assert charged["loads"] == 3
    assert charged["bytes_read"] == sum(region.length for region in regions(store, supernode))
    reference.close()
    store.close()


def test_two_sessions_racing_on_one_cold_supernode(small_build, monkeypatch):
    """Both sessions peek the supernode's graphs missing and read its run
    before either replays: whichever replays first admits every graph,
    the other is served them as hits, and both are charged their read."""
    store = SNodeStore(small_build.root, buffer_bytes=1 << 26)
    supernode = three_region_visit(store)
    keys = store._visits[supernode].keys
    run_bytes = sum(region.length for region in regions(store, supernode))
    first, end = store.supernode_range(supernode)
    pages = [first + (index % (end - first)) for index in range(3)]
    with SNodeStore(small_build.root) as clean:
        answers = [clean.out_neighbors(page) for page in pages]

    both_peeked = threading.Barrier(2, timeout=30)
    local = threading.local()
    real = CountedFile.read_at

    def read_at(device, offset, length, registry=None):
        if not getattr(local, "waited", False):
            local.waited = True
            both_peeked.wait()
        return real(device, offset, length, registry)

    monkeypatch.setattr(CountedFile, "read_at", read_at)
    sessions = [store.metrics.child(f"client-{index}") for index in range(2)]
    requests: list[list[dict]] = [[], []]
    got: list[list] = [[], []]

    def serve(index: int) -> None:
        session = sessions[index]
        for page in pages:
            before = session.io_stats()
            got[index].append(store.out_neighbors(page, session))
            after = session.io_stats()
            requests[index].append(
                {name: after[name] - before.get(name, 0) for name in after if after[name] != before.get(name, 0)}
            )

    threads = [threading.Thread(target=serve, args=(index,)) for index in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [answers, answers]

    # request -> session
    for index, session in enumerate(sessions):
        summed: dict[str, int] = {}
        for counts in requests[index]:
            for name, amount in counts.items():
                summed[name] = summed.get(name, 0) + amount
        assert summed == session.io_stats()
    # session -> store
    totals: dict[str, int] = dict(store.metrics.io_stats())
    for session in sessions:
        for name, amount in session.io_stats().items():
            totals[name] = totals.get(name, 0) + amount
    assert {k: v for k, v in store.metrics.merged_snapshot().items() if not k.startswith("distinct_")} == totals
    for session in sessions:
        store.metrics.merge(session)
    assert store.metrics.io_stats() == totals

    # The race itself: one read each, every graph admitted once.
    cold = sorted((requests[0][0], requests[1][0]), key=lambda counts: counts.get("loads", 0))
    graphs = len(keys)
    assert cold[1]["loads"] == cold[1]["buffer_misses"] == graphs
    assert "loads" not in cold[0] and "buffer_misses" not in cold[0]
    assert cold[0]["buffer_hits"] == graphs
    assert cold[0]["bytes_read"] == cold[1]["bytes_read"] == run_bytes
    assert cold[0]["disk_seeks"] == cold[1]["disk_seeks"] == 1
    assert totals["loads"] == totals["buffer_misses"] == graphs
    assert totals["buffer_hits"] == 2 * len(pages) * graphs - graphs
    assert store._pool._cache.keys() == list(keys)
    store._pool.check_invariants()
    store.close()


def test_a_peeked_graph_evicted_before_the_replay_is_served_from_the_peek(
    small_build, monkeypatch
):
    """A visit whose intranode graph is buffered and whose superedge
    graphs are one cold run: the replay evicts the peeked intranode graph
    first, as another reader's admission could.  The visit is still one
    hit, two misses, two loads and one ``read_at`` of the run — the graph
    is not read again — and request → session → store conservation is
    exact."""
    store = SNodeStore(small_build.root, buffer_bytes=1 << 26)
    supernode = three_region_visit(store)
    keys = store._visits[supernode].keys
    _first, *run = regions(store, supernode)
    page = store.supernode_range(supernode)[0]
    with SNodeStore(small_build.root) as clean:
        answer = clean.out_neighbors(page)
    store.intranode_rows(supernode)
    base = store.metrics.io_stats()

    real = BufferPool.replay
    evicted = []

    def evicting_replay(pool, *args, **kwargs):
        if not evicted:
            evicted.append(pool._cache.pop(keys[0]))
        return real(pool, *args, **kwargs)

    monkeypatch.setattr(BufferPool, "replay", evicting_replay)
    session = store.metrics.child("client")
    tracer = profile.AccessTracer()
    with profile.activated(tracer):
        got = store.out_neighbors(page, session)
    monkeypatch.undo()
    assert got == answer
    assert evicted[0] is not None
    request = session.io_stats()
    assert {name: request.get(name) for name in (
        "buffer_hits", "buffer_hits_intranode", "buffer_misses",
        "buffer_misses_superedge", "loads", "superedge_loads", "intranode_loads",
    )} == {
        "buffer_hits": 1, "buffer_hits_intranode": 1, "buffer_misses": 2,
        "buffer_misses_superedge": 2, "loads": 2, "superedge_loads": 2, "intranode_loads": None,
    }
    assert request["bytes_read"] == sum(region.length for region in run)
    assert reads(tracer) == 1
    assert keys[0] not in store._pool._cache.keys()
    # request -> session -> store
    assert store.metrics.io_stats() == base
    merged = {name: base.get(name, 0) + request.get(name, 0) for name in {*base, *request}}
    store.metrics.merge(session)
    assert store.metrics.io_stats() == merged
    store._pool.check_invariants()
    store.close()


def race_six(store, expected: dict, visit_length) -> list[int]:
    """Six sessions probing every page of ``expected`` through ``store``,
    each from its own starting point, preempted every 10 µs: every row
    is the crawl's, every lookup one hit or one miss and every miss one
    load.  ``visit_length(supernode, local)`` is how many graphs a
    lookup visits; returns each session's lookups."""
    pages = list(expected)
    sessions = [store.metrics.child(f"client-{index}") for index in range(6)]
    lookups = [0] * 6
    wrong: list[int] = []

    def read(index: int) -> None:
        # Every session probes every page, each from its own starting
        # point, so they meet on cold supernodes at different times.
        start = index * len(pages) // 6
        for page in pages[start:] + pages[:start]:
            supernode = store.supernode_of(page)
            lookups[index] += visit_length(supernode, page - store.supernode_range(supernode)[0])
            if store.out_neighbors(page, sessions[index]) != expected[page]:
                wrong.append(page)

    threads = [threading.Thread(target=read, args=(index,)) for index in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    for index, session in enumerate(sessions):
        charged = session.io_stats()
        assert charged["buffer_hits"] + charged["buffer_misses"] == lookups[index]
        assert charged["buffer_misses"] == charged["loads"] > 0
    store._pool.check_invariants()
    totals = {name: store.metrics.get(name) for name in ("loads", "buffer_evictions")}
    merged = store.metrics.merged_snapshot()
    for session in sessions:
        store.metrics.merge(session)
    assert store.metrics.snapshot() == merged
    assert totals["loads"] == 0 and totals["buffer_evictions"] > 0
    return lookups


def test_six_sessions_over_a_churning_pool(small_build):
    """Through the paper's visit, and through a pool pressed before the
    race starts, so that every lookup visits only the graphs that link
    its page — fewer than the paper's visit."""
    store = paper_visit(SNodeStore(small_build.root, buffer_bytes=16 * 1024))
    pages = list(range(0, store.num_pages, 5))
    with SNodeStore(small_build.root) as clean:
        expected = {page: clean.out_neighbors(page) for page in pages}
    paper = race_six(
        store, expected, lambda supernode, _local: len(store._visits[supernode].keys)
    )
    store.close()

    linked = SNodeStore(small_build.root, buffer_bytes=16 * 1024)
    for _page, _row in paper_scan(linked):
        pass
    assert linked._pool.pressed
    linked.metrics.reset()

    def visit_length(supernode: int, local: int) -> int:
        positions = linked._positions(supernode, [local])
        return len(linked._visits[supernode].keys if positions is None else positions)

    assert sum(race_six(linked, expected, visit_length)) < sum(paper)
    linked.close()


# -- a scan's runs ------------------------------------------------------------


def scanned(store) -> tuple[list, type | None]:
    """What a scan of ``store`` yields, and the type of the error it ends in."""
    rows = []
    try:
        for item in store.iterate_all():
            rows.append(item)
    except StorageError as error:
        return rows, type(error)
    return rows, None


@pytest.mark.parametrize("decoded", [True, False], ids=["decoded", "encoded"])
@pytest.mark.parametrize("mode", ["raise", "degrade"])
def test_a_bit_flip_in_the_middle_of_a_scan_run(small_build, tmp_path, mode, decoded):
    """A cold scan reads the payload file in one run.  In raise mode the
    region failing its checksum raises once every supernode before its
    own was yielded; in degrade mode only it is quarantined, its degraded
    read counted, and every other row served.  No pool counter moves."""
    root = tmp_path / "build"
    shutil.copytree(small_build.root, root)
    with SNodeStore(root) as clean:
        want = list(clean.iterate_all())
        supernode = three_region_visit(clean)
        bad_target = clean.super_adjacency[supernode][0]
        _first, middle, _last = regions(clean, supernode)
        path = root / clean._layout.index_files[middle.file_index]
        assert len(clean._layout.index_files) == 1
    with open(path, "r+b") as handle:
        handle.seek(middle.offset + middle.length // 2)
        byte = handle.read(1)[0]
        handle.seek(middle.offset + middle.length // 2)
        handle.write(bytes([byte ^ 0x08]))

    store = SNodeStore(root, on_corruption=mode, cache_decoded=decoded)
    tracer = profile.AccessTracer()
    with profile.activated(tracer):
        rows, error = scanned(store)
    assert reads(tracer) == 1
    charged = store.metrics.snapshot()
    payload = store.manifest["payload_bytes"]
    if mode == "raise":
        assert error is CorruptionError
        assert rows == want[: store.supernode_range(supernode)[0]]
        assert store.quarantined == []
        assert charged == {"bytes_read": payload, "disk_seeks": 1}
    else:
        low, high = store.supernode_range(bad_target)
        assert error is None
        assert rows == [
            (page, row if store.supernode_of(page) != supernode else [
                target for target in row if not low <= target < high
            ])
            for page, row in want
        ]
        assert rows != want
        assert store.quarantined == [("super", supernode, bad_target)]
        assert charged == {
            "bytes_read": payload,
            "disk_seeks": 1,
            "degraded_reads": 1,
            "regions_quarantined": 1,
        }
    assert store._pool._cache.keys() == []
    store.close()


def test_a_transient_eio_on_a_scan_read_is_retried(small_build):
    with SNodeStore(small_build.root) as clean:
        want = list(clean.iterate_all())
    store = SNodeStore(small_build.root)
    tracer = profile.AccessTracer()
    with faults.activated(SpoilFirstRead("eio")), profile.activated(tracer):
        rows, error = scanned(store)
    assert (error, rows == want) == (None, True)
    assert reads(tracer) == 1
    assert store.metrics.snapshot() == {
        "bytes_read": store.manifest["payload_bytes"],
        "disk_seeks": 1,
        "fault_eio": 1,
        "io_retries": 1,
    }
    store.close()


class CutEveryRead(faults.FaultPlan):
    """A plan that cuts every read attempt in half."""

    def on_read(self, path, offset, data, registry=None):
        registry.inc("fault_short_reads")
        return data[: len(data) // 2]


def test_a_persistent_short_read_of_a_scan_raises_storage_error(small_build, monkeypatch):
    monkeypatch.setattr(faults, "READ_RETRY_BACKOFF_S", 0.0)
    store = SNodeStore(small_build.root)
    with faults.activated(CutEveryRead(seed=0)):
        rows, error = scanned(store)
    assert (error, rows) == (StorageError, [])
    assert store.metrics.snapshot() == {
        "disk_seeks": 1,
        "fault_short_reads": faults.READ_RETRY_LIMIT + 1,
        "io_retries": faults.READ_RETRY_LIMIT,
    }
    store.close()


def test_a_lookup_thread_during_scans(small_build):
    """A session probing every page while the store is scanned over and
    over, preempted every 10 µs, through a pool far smaller than the
    working set: both get the crawl's rows, every lookup is one hit or
    one miss and every miss one load, request → session → store
    conservation is exact, and the scans charge the store's own registry
    with device bytes and seeks only."""
    store = SNodeStore(small_build.root, buffer_bytes=16 * 1024)
    with SNodeStore(small_build.root) as clean:
        want = list(clean.iterate_all())
    expected = dict(want)
    session = store.metrics.child("client")
    requests: list[dict] = []
    got: dict[int, list[int]] = {}

    def probe() -> None:
        for page in range(store.num_pages):
            before = session.io_stats()
            got[page] = store.out_neighbors(page, session)
            after = session.io_stats()
            requests.append(
                {name: after[name] - before.get(name, 0) for name in after if after[name] != before.get(name, 0)}
            )

    thread = threading.Thread(target=probe)
    scans = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        thread.start()
        while thread.is_alive() or not scans:
            scans.append(scanned(store))
        thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not thread.is_alive()
    assert all(scan == (want, None) for scan in scans)
    assert got == expected

    # request -> session
    summed: dict[str, int] = {}
    for counts in requests:
        for name, amount in counts.items():
            summed[name] = summed.get(name, 0) + amount
    charged = session.io_stats()
    assert summed == charged
    assert all(counts.get("buffer_hits", 0) + counts.get("buffer_misses", 0) for counts in requests)
    assert charged["buffer_misses"] == charged["loads"] > 0
    # session -> store: the scans charged the base bytes and seeks, and
    # the session's admissions its evictions.
    base = store.metrics.io_stats()
    assert set(base) <= {"bytes_read", "disk_seeks", "buffer_evictions"}
    assert base["bytes_read"] <= len(scans) * store.manifest["payload_bytes"]
    merged = store.metrics.merged_snapshot()
    store.metrics.merge(session)
    assert store.metrics.snapshot() == merged
    store._pool.check_invariants()
    store.close()
