"""Tests for SNodeStore: adjacency access, buffer manager, instrumentation."""

from __future__ import annotations

import gc
import hashlib
import random
import shutil
import sys
import threading
import weakref
from contextlib import contextmanager, nullcontext
from pathlib import Path

import pytest

from repro.baselines.base import SNodeRepresentation
from repro.errors import CorruptionError, NotResident, StorageError
from repro.snode import encode
from repro.snode.delta import DeltaOverlay
from repro.snode.reference import decode_row
from repro.snode.storage import read_layout
from repro.snode.store import SNodeStore
from repro.storage.device import CountedFile
from repro.util.bitio import BitReader

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "util"))
import oracle_codecs  # noqa: E402
from oracle_loader import paper_scan, paper_visit  # noqa: E402


@contextmanager
def client(store, label=None):
    """One client's child registry over ``store``, folded back on exit
    (what ``SNodeRepresentation.session()`` / ``close()`` do)."""
    registry = store.metrics.child(label)
    try:
        yield registry
    finally:
        store.metrics.merge(registry)


class TestAdjacency:
    def test_out_neighbors_match_ground_truth(self, small_repo, small_build):
        store = small_build.store
        numbering = small_build.numbering
        rng = random.Random(0)
        for old in rng.sample(range(small_repo.num_pages), 150):
            new = numbering.old_to_new[old]
            got = sorted(numbering.new_to_old[t] for t in store.out_neighbors(new))
            assert got == small_repo.graph.successors_list(old)

    def test_out_neighbors_many_matches_single(self, small_repo, small_build):
        store = small_build.store
        pages = list(range(0, small_repo.num_pages, 37))
        bulk = store.out_neighbors_many(pages)
        for page in pages:
            assert bulk[page] == store.out_neighbors(page)

    def test_more_locals_asked_than_a_graph_links(self, small_build):
        """The walk over ``rows.linked``: whole supernodes asked for, with
        a repeated and (in most graphs) many unlinked locals among them."""
        store = small_build.store
        busiest = sorted(
            range(store.num_supernodes), key=lambda s: -len(store.super_adjacency[s])
        )[:5]
        for supernode in busiest:
            first, end = store.supernode_range(supernode)
            locals_ = [*range(end - first), 0, end - first - 1]
            rows = store._adjacency(supernode, locals_, None)
            assert rows == [store.out_neighbors(first + local) for local in locals_]
            assert rows[0] is not rows[-2]

    def test_iterate_all_covers_every_page(self, small_repo, small_build):
        store = small_build.store
        seen = {}
        for page, row in store.iterate_all():
            seen[page] = row
        assert len(seen) == small_repo.num_pages
        sample = random.Random(1).sample(range(small_repo.num_pages), 50)
        for page in sample:
            assert seen[page] == store.out_neighbors(page)

    def test_page_out_of_range(self, small_build):
        with pytest.raises(StorageError):
            small_build.store.out_neighbors(10**9)

    def test_missing_superedge_rejected(self, small_build):
        store = small_build.store
        source = 0
        missing = next(
            t
            for t in range(store.num_supernodes)
            if t not in store.super_adjacency[source] and t != source
        )
        with pytest.raises(StorageError):
            store.superedge_rows(source, missing)


class TestIndexes:
    def test_pageid_index(self, small_build):
        store = small_build.store
        for supernode in range(store.num_supernodes):
            first, last = store.supernode_range(supernode)
            assert store.supernode_of(first) == supernode
            assert store.supernode_of(last - 1) == supernode

    def test_domain_index(self, small_repo, small_build):
        store = small_build.store
        numbering = small_build.numbering
        domain = small_repo.page(0).domain
        supernodes = store.domains[domain]
        assert supernodes
        for supernode in supernodes:
            assert numbering.supernode_domains[supernode] == domain

    def test_open_decodes_the_supernode_graph_once(self, small_build, monkeypatch):
        """``read_layout`` decodes the supernode graph to walk the pointer
        table; the store keeps that decode instead of repeating it."""
        calls = []
        decode = encode.decode_supernode_graph

        def counted(data):
            calls.append(len(data))
            return decode(data)

        monkeypatch.setattr(encode, "decode_supernode_graph", counted)
        # A name the store module bound at import would dodge the patch.
        monkeypatch.setattr(
            "repro.snode.store.decode_supernode_graph", counted, raising=False
        )
        store = SNodeStore(small_build.root)
        try:
            assert len(calls) == 1
            assert store.super_adjacency == small_build.store.super_adjacency
            assert store.super_adjacency == small_build.model.super_adjacency
        finally:
            store.close()


class TestBufferManager:
    def test_small_buffer_causes_evictions(self, small_repo, small_build, tmp_path):
        store = SNodeStore(small_build.root, buffer_bytes=2048)
        for page in range(0, small_repo.num_pages, 11):
            store.out_neighbors(page)
        assert store.metrics.get("buffer_evictions") > 0
        assert store.buffer_stats()["used_bytes"] <= 2048 * 4  # oversize slack
        store.close()

    def test_warm_buffer_hits(self, small_build):
        store = SNodeStore(small_build.root, buffer_bytes=1 << 26)
        store.out_neighbors(0)
        loaded_before = store.metrics.get("loads")
        store.out_neighbors(0)
        assert store.metrics.get("loads") == loaded_before
        assert store.metrics.get("buffer_hits") > 0
        store.close()

    def test_drop_buffers_forces_reload(self, small_build):
        store = SNodeStore(small_build.root, buffer_bytes=1 << 26)
        store.out_neighbors(0)
        store.drop_buffers()
        before = store.metrics.get("loads")
        store.out_neighbors(0)
        assert store.metrics.get("loads") > before
        store.close()

    def test_set_buffer_bytes_resets(self, small_build):
        store = SNodeStore(small_build.root, buffer_bytes=1 << 26)
        store.out_neighbors(0)
        store.set_buffer_bytes(16384)
        assert store.buffer_stats()["capacity_bytes"] == 16384
        store.close()

    def test_set_buffer_bytes_below_pinned_floor_raises(self, small_build):
        from repro.errors import BufferCapacityError

        store = SNodeStore(small_build.root, buffer_bytes=1 << 26)
        pinned = store.buffer_stats()["pinned_bytes"]
        assert pinned > 0
        with pytest.raises(BufferCapacityError):
            store.set_buffer_bytes(pinned - 1)
        # The failed resize must leave the pool untouched.
        assert store.buffer_stats()["capacity_bytes"] == 1 << 26
        store.out_neighbors(0)
        store.close()


def superedge_keys(store):
    """Every (source, target) superedge of ``store``, in supernode order."""
    return [
        (source, target)
        for source, targets in enumerate(store.super_adjacency)
        for target in targets
    ]


def dense(rows):
    """The dense form the store cached before rows went sparse."""
    return [rows.row(local) for local in range(rows.source_size)]


def reads_less(linked: dict, paper: dict) -> None:
    """A store that, once its pool is pressed, loads only the graphs that
    link the pages asked for, against the paper's visit over the same
    lookups: fewer loads and fewer bytes.  (Not fewer seeks: these
    lookups walk the pages in layout order, and a paper visit's read
    ends where the next supernode's begins.)"""
    assert linked["superedge_loads"] < paper["superedge_loads"]
    assert linked["loads"] < paper["loads"]
    assert linked["bytes_read"] < paper["bytes_read"]


class TestSparseSuperedgeRows:
    #: ``io_stats()`` of the probe list below, captured at the parent
    #: commit (dense superedge entries, per-bit reader) on this fixture:
    #: the paper's visit, every graph of the supernode, on every lookup.
    PINNED_IO_STATS = {
        "buffer_evictions": 1041,
        "buffer_hits": 876,
        "buffer_hits_intranode": 117,
        "buffer_hits_superedge": 759,
        "buffer_misses": 1133,
        "buffer_misses_intranode": 181,
        "buffer_misses_superedge": 952,
        "bytes_read": 31355,
        "disk_seeks": 54,
        "intranode_loads": 181,
        "loads": 1133,
        "superedge_loads": 952,
    }

    def test_pool_charge_is_the_dense_cost(self, small_build):
        """4 bytes per source page + 8 per edge, although only linked rows are held."""
        store = SNodeStore(small_build.root, buffer_bytes=1 << 26)
        keys = superedge_keys(store)
        assert len(keys) > 100
        for source, target in keys:
            before = store.buffer_stats()["used_bytes"]
            rows = store.superedge_rows(source, target)
            charged = store.buffer_stats()["used_bytes"] - before
            as_dense = dense(rows)
            first, last = store.supernode_range(source)
            assert len(as_dense) == last - first
            assert charged == 4 * len(as_dense) + 8 * sum(len(row) for row in as_dense)
            assert len(rows.linked) < len(as_dense) or all(as_dense)
        store.close()

    @staticmethod
    def bounded_probe(store) -> list:
        """Point lookups, a grouped lookup, a session and a full scan; the
        rows of each."""
        rows = [store.out_neighbors(page) for page in range(0, 1200, 7)]
        rows.append(store.out_neighbors_many(list(range(5, 1200, 53))))
        with client(store, "pinned") as registry:
            rows += [store.out_neighbors(page, registry) for page in range(3, 1200, 101)]
        rows.append(list(paper_scan(store)))
        return rows

    def test_bounded_buffer_counters_match_parent_commit(self, small_repo, small_build):
        assert small_repo.num_pages == 1200
        store = paper_visit(SNodeStore(small_build.root, buffer_bytes=24 * 1024))
        rows = self.bounded_probe(store)
        assert sum(len(row) for _page, row in rows[-1]) == small_repo.graph.num_edges
        assert store.metrics.io_stats() == self.PINNED_IO_STATS
        store.close()
        linked = SNodeStore(small_build.root, buffer_bytes=24 * 1024)
        assert self.bounded_probe(linked) == rows
        reads_less(linked.metrics.io_stats(), self.PINNED_IO_STATS)
        linked.close()

    def test_link_records_equal_the_loaded_headers(self, small_build):
        """The headers read at open name, for each page, exactly the
        superedge graphs whose loaded rows list it."""
        store = SNodeStore(small_build.root, buffer_bytes=1 << 26)
        linked = 0
        for supernode, targets in enumerate(store.super_adjacency):
            visit = store._visits[supernode]
            assert visit.keys == (
                ("intra", supernode), *(("super", supernode, t) for t in targets)
            )
            graphs = [store.superedge_rows(supernode, target) for target in targets]
            first, end = store.supernode_range(supernode)
            assert len(visit.starts) == end - first + 1
            for local in range(end - first):
                want = [p for p, rows in enumerate(graphs, 1) if local in rows.linked]
                assert tuple(visit.links(local)) == (0, *want)
                linked += len(want)
        paper = sum(
            len(targets) * (end - first)
            for targets, (first, end) in zip(
                store.super_adjacency, map(store.supernode_range, range(store.num_supernodes))
            )
        )
        assert store.superedge_graphs_per_lookup() == (
            paper / store.num_pages,
            linked / store.num_pages,
        )
        store.close()

    def test_unlinked_rows_are_empty_and_private(self, small_build):
        store = SNodeStore(small_build.root, buffer_bytes=1 << 26)
        source, target = next(
            key
            for key in superedge_keys(store)
            if len(store.superedge_rows(*key).linked) < store.superedge_rows(*key).source_size
        )
        rows = store.superedge_rows(source, target)
        unlinked = next(
            local for local in range(rows.source_size) if local not in rows.linked
        )
        first, _last = store.supernode_range(source)
        expected = store.out_neighbors(first + unlinked)
        row = rows.row(unlinked)
        assert row == []
        row.append(10**6)  # a caller scribbling on what it was handed
        with client(store) as registry:
            again = store.superedge_rows(source, target, registry)
            assert again is rows  # the cached entry, shared
            assert again.row(unlinked) == []
            assert store.out_neighbors(first + unlinked, registry) == expected
        assert unlinked not in rows.linked
        assert all(rows.linked.values())  # linked rows are never empty
        store.close()

    def test_encoded_payload_cache_returns_identical_rows(self, small_repo, small_build):
        """``cache_decoded=False`` (Table 2) decodes on every access."""
        decoded = SNodeStore(small_build.root, buffer_bytes=1 << 26)
        encoded = SNodeStore(small_build.root, buffer_bytes=1 << 26, cache_decoded=False)
        for source, target in superedge_keys(decoded):
            for _ in range(2):  # the miss, then the hit that decodes the cached bytes
                assert dense(encoded.superedge_rows(source, target)) == dense(
                    decoded.superedge_rows(source, target)
                )
        pages = list(range(0, small_repo.num_pages, 29))
        assert encoded.out_neighbors_many(pages) == decoded.out_neighbors_many(pages)
        assert list(paper_scan(encoded)) == list(paper_scan(decoded))
        # Encoded entries are charged their payload bytes, not the row model.
        assert encoded.buffer_stats()["used_bytes"] == decoded.metrics.get("bytes_read")
        decoded.close()
        encoded.close()


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def accounting(registry, pool=None) -> dict:
    """Everything a registry accounts for, in a form small enough to pin.

    ``snapshot`` is every counter plus the ``distinct_*`` tally sizes;
    the tallies' keys are digested.  Given the store's ``pool``, the
    ``lru`` leg digests the pool's keys, least- to most-recently used,
    which pins the order of the loads and evictions that left them (the
    keys are digested as a one-element list, the form the pinned digests
    were recorded in).
    """
    tallies = sorted(
        (name[len("distinct_"):], sorted(registry.distinct_keys(name[len("distinct_"):])))
        for name in registry.snapshot()
        if name.startswith("distinct_")
    )
    legs = {"snapshot": registry.snapshot(), "tallies": digest(tallies)}
    if pool is not None:
        legs["lru"] = digest([pool._cache.keys()])
    return legs


def flip_byte(root, location) -> None:
    """Corrupt the payload region ``location`` of the build under ``root``."""
    path = root / read_layout(root).index_files[location.file_index]
    with open(path, "r+b") as handle:
        handle.seek(location.offset + location.length // 2)
        original = handle.read(1)[0]
        handle.seek(location.offset + location.length // 2)
        handle.write(bytes([original ^ 0x10]))


@pytest.fixture(scope="module")
def corrupted_root(small_build, tmp_path_factory):
    """A copy of the build with every 5th intranode region and every 7th
    superedge region corrupted."""
    root = tmp_path_factory.mktemp("snode_corrupt") / "build"
    shutil.copytree(small_build.root, root)
    layout = read_layout(root)
    for index, location in enumerate(layout.intranode):
        if index % 5 == 2 and location.length:
            flip_byte(root, location)
    for index, key in enumerate(sorted(layout.superedge)):
        if index % 7 == 3 and layout.superedge[key][0].length:
            flip_byte(root, layout.superedge[key][0])
    return root


def run_six(read) -> None:
    """``read(0)`` .. ``read(5)`` on six threads at a 10 µs switch interval:
    a thread is preempted mid-call, so a lost update would show."""
    threads = [threading.Thread(target=read, args=(index,)) for index in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


class TestBatchedAccounting:
    """One counter batch per ``_adjacency`` call changes no number.

    The pinned dicts are :func:`accounting` of the same scenarios run at
    the parent commit, where every increment took the registry lock on
    its own.  The ``lru`` legs of the single-threaded scenarios were
    captured while the registry still logged every load and unload.  The
    bounded-pool scenarios hold them through :func:`paper_visit`, the
    visit they were captured with; a store left to load only the graphs
    that link its pages under pressure reads less.
    """

    BOUNDED = {
        "snapshot": {
            "buffer_evictions": 1041,
            "buffer_hits": 876,
            "buffer_hits_intranode": 117,
            "buffer_hits_superedge": 759,
            "buffer_misses": 1133,
            "buffer_misses_intranode": 181,
            "buffer_misses_superedge": 952,
            "bytes_read": 31355,
            "disk_seeks": 54,
            "distinct_intranode": 95,
            "distinct_superedge": 468,
            "intranode_loads": 181,
            "loads": 1133,
            "superedge_loads": 952,
        },
        "tallies": "fa1eed5351fa5d94",
        "lru": "7a86b53e056ea20f",
    }
    ENCODED = {
        "snapshot": {
            "buffer_evictions": 763,
            "buffer_hits": 876,
            "buffer_hits_intranode": 117,
            "buffer_hits_superedge": 759,
            "buffer_misses": 1133,
            "buffer_misses_intranode": 181,
            "buffer_misses_superedge": 952,
            "bytes_read": 31355,
            "disk_seeks": 54,
            "distinct_intranode": 95,
            "distinct_superedge": 468,
            "intranode_loads": 181,
            "loads": 1133,
            "superedge_loads": 952,
        },
        "tallies": "fa1eed5351fa5d94",
        "lru": "7d7f91b2db98ddf9",
    }
    DEGRADED = {
        "snapshot": {
            "buffer_evictions": 760,
            "buffer_hits": 751,
            "buffer_hits_intranode": 94,
            "buffer_hits_superedge": 657,
            "buffer_misses": 1040,
            "buffer_misses_intranode": 161,
            "buffer_misses_superedge": 879,
            "bytes_read": 28442,
            "degraded_reads": 304,
            "disk_seeks": 138,
            "distinct_intranode": 76,
            "distinct_superedge": 401,
            "intranode_loads": 142,
            "loads": 954,
            "regions_quarantined": 86,
            "superedge_loads": 812,
        },
        "tallies": "5b6d681c4eba1688",
        "lru": "05bc849feab3a7b6",
    }
    DEGRADED_QUARANTINED = 86
    SESSIONS_EACH = [
        {"buffer_hits": 744, "buffer_hits_intranode": 105, "buffer_hits_superedge": 639},
        {"buffer_hits": 758, "buffer_hits_intranode": 105, "buffer_hits_superedge": 653},
        {"buffer_hits": 756, "buffer_hits_intranode": 105, "buffer_hits_superedge": 651},
        {"buffer_hits": 754, "buffer_hits_intranode": 105, "buffer_hits_superedge": 649},
        {"buffer_hits": 747, "buffer_hits_intranode": 104, "buffer_hits_superedge": 643},
        {"buffer_hits": 743, "buffer_hits_intranode": 104, "buffer_hits_superedge": 639},
    ]
    SESSIONS_MERGED = {
        "buffer_hits": 12472,
        "buffer_hits_intranode": 1733,
        "buffer_hits_superedge": 10739,
        "buffer_misses": 563,
        "buffer_misses_intranode": 95,
        "buffer_misses_superedge": 468,
        "bytes_read": 10290,
        "disk_seeks": 1,
        "distinct_intranode": 95,
        "distinct_superedge": 468,
        "intranode_loads": 95,
        "loads": 563,
        "superedge_loads": 468,
    }
    SESSIONS_CLOSED = {
        "snapshot": {
            "buffer_hits": 12472,
            "buffer_hits_intranode": 1733,
            "buffer_hits_superedge": 10739,
            "buffer_misses": 563,
            "buffer_misses_intranode": 95,
            "buffer_misses_superedge": 468,
            "bytes_read": 10290,
            "disk_seeks": 1,
            "distinct_intranode": 95,
            "distinct_superedge": 468,
            "intranode_loads": 95,
            "loads": 563,
            "superedge_loads": 468,
        },
        "tallies": "fa1eed5351fa5d94",
    }

    #: One cold pass of :meth:`probe` over a 64 KiB pool at the parent
    #: commit, where every load decoded every row of its graph.
    COLD_PASS = {
        "buffer": {
            "capacity_bytes": 65536,
            "entries": 432,
            "evictions": 701,
            "hits": 876,
            "misses": 1133,
            "pinned_bytes": 4892,
            "pinned_entries": 2,
            "pinned_hits": 0,
            "used_bytes": 65528,
        },
        "snapshot": {
            "buffer_evictions": 701,
            "buffer_hits": 876,
            "buffer_hits_intranode": 117,
            "buffer_hits_superedge": 759,
            "buffer_misses": 1133,
            "buffer_misses_intranode": 181,
            "buffer_misses_superedge": 952,
            "bytes_read": 31355,
            "disk_seeks": 54,
            "distinct_intranode": 95,
            "distinct_superedge": 468,
            "intranode_loads": 181,
            "loads": 1133,
            "superedge_loads": 952,
        },
        "tallies": "fa1eed5351fa5d94",
        "lru": "196d7bd9c718eb57",
    }

    @staticmethod
    def probe(store) -> None:
        """Point lookups, a grouped lookup, a session and a full scan."""
        for page in range(0, 1200, 7):
            store.out_neighbors(page)
        store.out_neighbors_many(list(range(5, 1200, 53)))
        with client(store, "pinned") as registry:
            for page in range(3, 1200, 101):
                store.out_neighbors(page, registry)
        for _page, _row in paper_scan(store):
            pass

    def test_bounded_buffer(self, small_build):
        store = paper_visit(SNodeStore(small_build.root, buffer_bytes=24 * 1024))
        self.probe(store)
        assert accounting(store.metrics, store._pool) == self.BOUNDED
        assert store.metrics.io_stats() == {
            name: value
            for name, value in self.BOUNDED["snapshot"].items()
            if not name.startswith("distinct_")
        }
        store.close()
        linked = SNodeStore(small_build.root, buffer_bytes=24 * 1024)
        self.probe(linked)
        reads_less(linked.metrics.snapshot(), self.BOUNDED["snapshot"])
        linked.close()

    def test_second_cold_pass_counts_like_the_first(self, small_build, monkeypatch):
        """The first pass decodes every graph it loads whole, learning its
        charge with an intranode graph's row directory or a superedge
        graph's header; the later passes put them at the charge learned
        and parse nothing — no row decoded until one is asked for.  The
        third runs with every directory and header learned and reads rows
        one at a time.  Same counters, same occupancy, same tallies, same
        LRU order — the parent's, through the paper's visit.  A store that
        loads only the graphs that link its pages under pressure also
        counts every cold pass alike, and reads less."""
        store = paper_visit(SNodeStore(small_build.root, buffer_bytes=64 * 1024))
        single_rows = []

        def counted(data, starts, local, *rest):
            single_rows.append(local)
            return decode_row(data, starts, local, *rest)

        monkeypatch.setattr(encode, "decode_row", counted)
        passes = []
        for index in range(3):
            if index == 2:
                assert all(
                    store._learned[("intra", supernode)][1] is not None
                    for supernode in range(store.num_supernodes)
                )
                assert all(
                    type(store._learned[("super", *key)][1]) is encode.SuperedgeHeader
                    for key in superedge_keys(store)
                )
                single_rows.clear()
            store.drop_buffers()
            store.metrics.reset()
            self.probe(store)
            passes.append(
                {"buffer": store.buffer_stats(), **accounting(store.metrics, store._pool)}
            )
            assert store.metrics.io_stats() == {
                name: value
                for name, value in self.COLD_PASS["snapshot"].items()
                if not name.startswith("distinct_")
            }
        assert passes[2] == passes[1] == passes[0] == self.COLD_PASS
        assert len(single_rows) > 100
        store.close()
        linked = SNodeStore(small_build.root, buffer_bytes=64 * 1024)
        passes = []
        for _ in range(3):
            linked.drop_buffers()
            linked.metrics.reset()
            self.probe(linked)
            passes.append(
                {"buffer": linked.buffer_stats(), **accounting(linked.metrics, linked._pool)}
            )
        assert passes[2] == passes[1] == passes[0]
        reads_less(passes[0]["snapshot"], self.COLD_PASS["snapshot"])
        linked.close()

    def test_encoded_payload_cache(self, small_build):
        """A payload-caching store learns every header and directory on
        its first pass; the second, which parses none of them, counts
        the same."""
        store = paper_visit(
            SNodeStore(small_build.root, buffer_bytes=4 * 1024, cache_decoded=False)
        )
        self.probe(store)
        assert accounting(store.metrics, store._pool) == self.ENCODED
        assert all(
            type(store._learned[("super", *key)][1]) is encode.SuperedgeHeader
            for key in superedge_keys(store)
        )
        store.drop_buffers()
        store.metrics.reset()
        self.probe(store)
        assert accounting(store.metrics, store._pool) == self.ENCODED
        store.close()
        linked = SNodeStore(small_build.root, buffer_bytes=4 * 1024, cache_decoded=False)
        self.probe(linked)
        first = accounting(linked.metrics, linked._pool)
        linked.drop_buffers()
        linked.metrics.reset()
        self.probe(linked)
        assert accounting(linked.metrics, linked._pool) == first
        reads_less(first["snapshot"], self.ENCODED["snapshot"])
        linked.close()

    def test_degrade_mode_over_corrupted_regions(self, corrupted_root):
        """The regions were corrupted before the store opened, so their
        headers are unknown: a store that loads only the graphs that link
        its pages still loads them on every visit, and quarantines and
        serves them degraded exactly as the paper's visit does."""
        store = paper_visit(
            SNodeStore(corrupted_root, buffer_bytes=24 * 1024, on_corruption="degrade")
        )
        self.probe(store)
        assert accounting(store.metrics, store._pool) == self.DEGRADED
        assert len(store.quarantined) == self.DEGRADED_QUARANTINED
        linked = SNodeStore(corrupted_root, buffer_bytes=24 * 1024, on_corruption="degrade")
        self.probe(linked)
        assert linked.quarantined == store.quarantined
        charged = linked.metrics.snapshot()
        for name in ("degraded_reads", "regions_quarantined"):
            assert charged[name] == self.DEGRADED["snapshot"][name]
        reads_less(charged, self.DEGRADED["snapshot"])
        store.close()
        linked.close()

    def test_six_concurrent_sessions(self, small_build):
        store = SNodeStore(small_build.root, buffer_bytes=1 << 26)
        for page in range(1200):  # everything resident: threads only hit
            store.out_neighbors(page)
        sessions = [store.metrics.child(f"client-{index}") for index in range(6)]

        def read(index: int) -> None:
            for page in range(index, 1200, 13):
                store.out_neighbors(page, sessions[index])
            store.out_neighbors_many(list(range(index, 1200, 97)), sessions[index])

        run_six(read)
        assert [session.io_stats() for session in sessions] == self.SESSIONS_EACH
        assert store.metrics.merged_snapshot() == self.SESSIONS_MERGED
        for session in sessions:
            store.metrics.merge(session)
        assert accounting(store.metrics) == self.SESSIONS_CLOSED
        store.close()

    def test_six_sessions_race_to_decode_header_resident_entries(
        self, small_repo, small_build
    ):
        """After a cold reset every graph is re-loaded at its learned
        charge with its rows undecoded; six sessions then read every page
        at once, so every row of each entry, intranode or superedge, is
        decoded in a race.  Whoever wins, the rows are the crawl's, each
        session is charged its own hits and nothing else moves."""
        store = SNodeStore(small_build.root, buffer_bytes=1 << 26)
        numbering = small_build.numbering
        expected = {
            numbering.old_to_new[page]: sorted(
                numbering.old_to_new[t] for t in small_repo.graph.successors_list(page)
            )
            for page in range(1200)
        }
        for _page, _row in paper_scan(store):  # every charge learned
            pass
        store.drop_buffers()
        keys = superedge_keys(store)
        entries = [store.superedge_rows(*key) for key in keys]
        intranode = [store.intranode_rows(supernode) for supernode in range(store.num_supernodes)]
        linking = [rows for rows in entries if rows.sources]
        assert len(linking) > 400
        assert all(type(rows._rows) is tuple for rows in linking)  # header-resident
        assert all(rows._rows == {} for rows in intranode)  # no row decoded
        base = store.metrics.snapshot()

        sessions = [store.metrics.child(f"client-{index}") for index in range(6)]
        got: list[dict] = [{} for _ in sessions]

        def read(index: int) -> None:
            for page in range(1200):  # the same entries, all six at once
                got[index][page] = store.out_neighbors(page, sessions[index])

        run_six(read)
        assert all(rows == expected for rows in got)
        lookups = sum(
            1 + len(store.super_adjacency[store.supernode_of(page)]) for page in range(1200)
        )
        for session in sessions:
            assert session.io_stats() == {
                "buffer_hits": lookups,
                "buffer_hits_intranode": 1200,
                "buffer_hits_superedge": lookups - 1200,
            }
        assert store.metrics.snapshot() == base  # every graph was resident
        merged = store.metrics.merged_snapshot()
        assert merged["buffer_hits"] == base.get("buffer_hits", 0) + 6 * lookups
        for session in sessions:
            store.metrics.merge(session)
        assert store.metrics.snapshot() == merged
        # Each entry decoded once for good, and kept nothing that reads bits.
        assert [store.superedge_rows(*key) for key in keys] == entries
        for rows in linking:
            # Every stored row, read alone into the one entry: a negative
            # graph's absent targets, never their complement.
            payload, _target_size, stored = rows._rows
            assert stored == dict(enumerate(oracle_codecs.decode_superedge_payload(payload)[2]))
            assert not any(
                isinstance(getattr(rows, slot), BitReader) for slot in rows.__slots__
            )
        for supernode, rows in enumerate(intranode):
            assert store.intranode_rows(supernode) is rows
            assert len(rows._rows) == len(rows)  # every row, each decoded into the one entry
            assert not any(
                isinstance(getattr(rows, slot), BitReader) for slot in rows.__slots__
            )
        store.close()

    @pytest.mark.parametrize("through_session", [False, True])
    def test_corruption_error_leaves_earlier_graphs_charged(
        self, small_build, tmp_path, through_session
    ):
        """Raise mode: the flush is in a ``finally``."""
        root = tmp_path / "build"
        shutil.copytree(small_build.root, root)
        layout = read_layout(root)
        probe = SNodeStore(root)
        source = next(
            s for s, targets in enumerate(probe.super_adjacency) if len(targets) >= 4
        )
        targets = probe.super_adjacency[source]
        page = probe.supernode_range(source)[0]
        probe.close()
        k = 3  # the graph whose read fails: intranode + superedges 0, 1 came before
        read = [layout.intranode[source]] + [
            layout.superedge[(source, target)][0] for target in targets[:k]
        ]
        flip_byte(root, read[-1])

        store = SNodeStore(root, buffer_bytes=1 << 26)
        session = store.metrics.child("s") if through_session else None
        with pytest.raises(CorruptionError):
            store.out_neighbors(page, session)
        charged = (session or store.metrics).io_stats()
        assert charged["buffer_misses"] == k + 1
        assert charged["buffer_misses_intranode"] == 1
        assert charged["buffer_misses_superedge"] == k
        assert charged["loads"] == k
        assert charged["superedge_loads"] == k - 1
        assert charged["bytes_read"] == sum(location.length for location in read)
        assert "buffer_hits" not in charged
        if session is not None:
            assert store.metrics.io_stats() == {}
            store.metrics.merge(session)
            assert store.metrics.io_stats() == charged
        store.close()


class TestResidentVisit:
    """A warm pass reads each supernode in one pool visit, and counts as
    one lookup per graph did: the dicts are :func:`accounting` (and a
    session's ``io_stats``) of these scenarios at the parent commit,
    where every hit was a ``BufferPool.get`` of its own."""

    WARM_PASS = {
        "snapshot": {
            "buffer_hits": 2009,
            "buffer_hits_intranode": 298,
            "buffer_hits_superedge": 1711,
        },
        "tallies": "4f53cda18c2baa0c",
    }
    WARM_SESSION = {
        "buffer_hits": 1363,
        "buffer_hits_intranode": 191,
        "buffer_hits_superedge": 1172,
    }

    @staticmethod
    def lookups(store, registry) -> None:
        for page in range(0, 1200, 7):
            store.out_neighbors(page, registry)
        store.out_neighbors_many(list(range(5, 1200, 53)), registry)

    @pytest.fixture
    def warm_store(self, small_build):
        store = SNodeStore(small_build.root, buffer_bytes=16 << 20)
        TestBatchedAccounting.probe(store)
        store.metrics.reset()
        yield store
        store.close()

    def test_warm_second_pass(self, warm_store):
        TestBatchedAccounting.probe(warm_store)
        assert accounting(warm_store.metrics) == self.WARM_PASS

    def test_warm_pass_through_a_session(self, warm_store):
        with client(warm_store, "warm") as registry:
            self.lookups(warm_store, registry)
            assert registry.io_stats() == self.WARM_SESSION
            assert warm_store.metrics.io_stats() == {}
        assert warm_store.metrics.io_stats() == self.WARM_SESSION

    def test_warm_pass_under_six_concurrent_sessions(self, small_build):
        store = SNodeStore(small_build.root, buffer_bytes=16 << 20)
        TestBatchedAccounting.probe(store)
        store.metrics.reset()
        sessions = [store.metrics.child(f"client-{index}") for index in range(6)]
        run_six(lambda index: self.lookups(store, sessions[index]))
        assert [session.io_stats() for session in sessions] == [self.WARM_SESSION] * 6
        assert store.metrics.io_stats() == {}
        store._pool.check_invariants()
        store.close()

    @pytest.mark.parametrize("buffer_bytes", [0, 24 * 1024, 16 << 20])
    def test_memory_only_reads_no_file_whatever_the_pool_holds(
        self, small_repo, small_build, monkeypatch, buffer_bytes
    ):
        """Served from the pool or refused before anything moved."""
        store = SNodeStore(small_build.root, buffer_bytes=buffer_bytes)
        for page in range(1200):  # leaves the pool empty, part-full or full
            store.out_neighbors(page)
        reads = []
        monkeypatch.setattr(CountedFile, "read_at", lambda *args, **kwargs: reads.append(args))

        def state():
            return store.metrics.snapshot(), store.buffer_stats(), store._pool._cache.keys()

        numbering = small_build.numbering
        served = refused = 0
        for page in range(1200):
            before = state()
            try:
                row = store.out_neighbors(page, memory_only=True)
            except NotResident:
                refused += 1
                assert state() == before
            else:
                served += 1
                assert sorted(numbering.new_to_old[t] for t in row) == (
                    small_repo.graph.successors_list(numbering.new_to_old[page])
                )
        with pytest.raises(NotResident) if refused else nullcontext():
            store.out_neighbors_many(list(range(1200)), memory_only=True)
        assert reads == []
        assert (served > 0, refused > 0) == {
            0: (False, True), 24 * 1024: (True, True), 16 << 20: (True, False)
        }[buffer_bytes]
        store.close()


class TestDevicesOpenedMidMaintenance:
    @pytest.mark.parametrize("maintain", ["drop_buffers", "set_buffer_bytes"])
    def test_a_device_opened_while_positions_are_forgotten(
        self, small_build, tmp_path, monkeypatch, maintain
    ):
        """Another thread's first read of a payload file inserts into the
        device table while maintenance walks it."""
        store = SNodeStore(small_build.root)
        store.out_neighbors(0)
        assert len(store._devices) == 1
        real = CountedFile.forget_position
        opened = []

        def open_another_then_forget(device):
            if not opened:
                (tmp_path / "another.dat").write_bytes(b"")
                opened.append(CountedFile(tmp_path / "another.dat", registry=store.metrics))
                with store._devices_lock:
                    store._devices[len(store._layout.index_files)] = opened[0]
            real(device)

        monkeypatch.setattr(CountedFile, "forget_position", open_another_then_forget)
        try:
            if maintain == "drop_buffers":
                store.drop_buffers()
            else:
                store.set_buffer_bytes(1 << 20)
        finally:
            monkeypatch.undo()
            store.close()
        assert opened


class TestLoadDigraph:
    def test_reconstructs_whole_graph(self, small_repo, small_build):
        graph = small_build.store.load_digraph()
        numbering = small_build.numbering
        expected = {
            (numbering.old_to_new[s], numbering.old_to_new[t])
            for s, t in small_repo.graph.edges()
        }
        assert set(graph.edges()) == expected

    def test_global_algorithms_run_on_loaded_graph(self, small_build):
        from repro.graph.algorithms import pagerank

        graph = small_build.store.load_digraph()
        scores = pagerank(graph)
        assert abs(scores.sum() - 1.0) < 1e-6


class TestInstrumentation:
    def test_distinct_loaded_counts(self, small_build):
        store = SNodeStore(small_build.root, buffer_bytes=1 << 26)
        store.metrics.reset()
        first, last = store.supernode_range(0)
        for page in range(first, last):
            store.out_neighbors(page)
        assert store.metrics.distinct("intranode") == 1
        assert store.metrics.distinct("superedge") == len(store.super_adjacency[0])
        store.close()

    def test_seeks_counted(self, small_build):
        store = SNodeStore(small_build.root, buffer_bytes=1 << 26)
        store.metrics.reset()
        store.out_neighbors(0)
        last_page = store.num_pages - 1
        store.out_neighbors(last_page)
        assert store.metrics.get("disk_seeks") >= 1
        assert store.metrics.get("bytes_read") > 0
        store.close()

    def test_reset_clears_counters(self, small_build):
        store = SNodeStore(small_build.root, buffer_bytes=1 << 26)
        store.out_neighbors(0)
        store.metrics.reset()
        assert store.metrics.get("loads") == 0
        store.close()


class TestReadSessions:
    """A client view is :meth:`SNodeRepresentation.session`: same class,
    same store and pool, a child registry of the store's."""

    @pytest.fixture
    def shared(self, small_build):
        with SNodeRepresentation.open(small_build.root, buffer_bytes=1 << 26) as shared:
            yield shared

    def test_session_results_match_store(self, small_repo, shared):
        with shared.session(label="client-0") as session:
            assert type(session) is type(shared)
            for page in range(0, small_repo.num_pages, 53):
                assert session.out_neighbors(page) == shared.out_neighbors(page)
            pages = list(range(0, small_repo.num_pages, 71))
            assert session.out_neighbors_many(pages) == {
                page: shared.out_neighbors(page) for page in pages
            }

    def test_session_io_attributed_not_global(self, shared):
        base = shared.metrics
        base_before = base.get("bytes_read")
        session = shared.session(label="c")
        assert session.metrics.label == "c"
        session.out_neighbors(0)
        assert session.io_stats()["bytes_read"] > 0
        assert session.metrics.get("loads") > 0
        # The store's own registry was not charged for session reads ...
        assert base.get("bytes_read") == base_before
        # ... but the merged view includes the live session.
        assert (
            base.get_total("bytes_read")
            == base_before + session.io_stats()["bytes_read"]
        )
        session.close()

    def test_close_merges_and_conserves_totals(self, shared):
        session = shared.session()
        session.out_neighbors(0)
        total_before = shared.metrics.get_total("bytes_read")
        session.close()
        assert shared.metrics.get("bytes_read") == total_before
        assert shared.metrics.children() == []
        session.close()  # idempotent
        assert shared.metrics.get("bytes_read") == total_before

    def test_sessions_share_the_buffer_pool(self, shared):
        first = shared.session(label="warm")
        second = shared.session(label="cold")
        first.out_neighbors(0)
        loads_before = second.metrics.get("loads")
        second.out_neighbors(0)  # cached by the first session's read
        assert second.metrics.get("loads") == loads_before
        assert second.metrics.get("buffer_hits") > 0
        row = first.out_neighbors(0)
        second.memory_only = True
        assert second.out_neighbors(0) == row
        second.drop_caches()  # the pool is shared: a client may not empty it
        second.set_buffer_bytes(1)
        assert second.out_neighbors(0) == row  # still in memory
        first.close()
        second.close()

    def test_distinct_loaded_aggregates_across_sessions(self, small_build, shared):
        shared.reset_io_stats()
        first, last = shared.store.supernode_range(0)
        new_to_old = small_build.numbering.new_to_old
        with shared.session() as a, shared.session() as b:
            a.out_neighbors(new_to_old[first])
            b.out_neighbors(new_to_old[last - 1])
        intranode = shared.metrics.distinct("intranode")
        assert intranode == 1  # same supernode, merged as one distinct graph

    def test_views_are_freed_without_the_cycle_collector(self, small_build):
        """A view that referred to itself would keep its build, store and
        pool alive until the next collection (1.5 MB of peak RSS on the
        benchmark's rebuilt pairs)."""
        shared = SNodeRepresentation.open(small_build.root)
        view = shared.session()
        alive = [weakref.ref(shared), weakref.ref(view)]
        gc.disable()
        try:
            view.close()
            shared.close()
            del view, shared
            assert [ref() for ref in alive] == [None, None]
        finally:
            gc.enable()

    def test_iterate_all_charges_the_shared_base(self, small_repo, shared):
        with shared.session() as session:
            edges = sum(len(row) for _page, row in session.iterate_all())
            assert edges == small_repo.graph.num_edges
            assert session.io_stats() == {}
        # A scan reads past the pool: device bytes, no loads.
        assert shared.metrics.get("bytes_read") == shared.store.manifest["payload_bytes"]
        assert shared.metrics.get("loads") == 0


def recrawl_overlay(repository) -> tuple[DeltaOverlay, dict[int, list[int]]]:
    """Pending mutations on every 9th page — its first edge removed, one
    edge added — and the rows those pages must then read as."""
    overlay, rows = DeltaOverlay(), {}
    for page in range(0, repository.num_pages, 9):
        row = repository.graph.successors_list(page)
        added = (page * 7 + 3) % repository.num_pages
        overlay.apply("remove", [(page, target) for target in row[:1]])
        overlay.apply("add", [(page, added)])
        rows[page] = sorted({*row[1:], added})
    return overlay, rows


@pytest.mark.parametrize("with_overlay", [False, True])
def test_shared_and_client_views_read_alike(small_repo, small_build, with_overlay):
    """The one read view, repository-id space: a client view returns the
    shared view's rows, its counters plus the base are the merged totals
    (overlay merges included), and closing it twice folds it in once."""
    pages = list(range(0, small_repo.num_pages, 3))
    expected = {page: small_repo.graph.successors_list(page) for page in pages}
    with SNodeRepresentation.open(small_build.root, buffer_bytes=24 * 1024) as shared:
        if with_overlay:
            overlay, pending = recrawl_overlay(small_repo)
            shared.attach_overlay(overlay)
            expected.update((page, pending[page]) for page in pages if page in pending)
        assert {page: shared.out_neighbors(page) for page in pages} == expected
        assert shared.out_neighbors_many(pages) == expected
        base = shared.metrics.snapshot()

        view = shared.session("client")
        assert view.overlay is shared.overlay
        assert {page: view.out_neighbors(page) for page in pages} == expected
        assert view.out_neighbors_many(pages) == expected
        own = view.metrics.snapshot()
        assert own["buffer_misses"] > 0  # a bounded pool: the client read files
        merges = 2 * sum(page % 9 == 0 for page in pages) if with_overlay else 0
        assert own.get("delta_merges", 0) == merges
        # Only shared events (evictions) moved the base under the client.
        now = shared.metrics.snapshot()
        assert {name for name in now if now[name] != base[name]} <= {"buffer_evictions"}
        merged = shared.metrics.merged_snapshot()
        for name in own:
            if not name.startswith("distinct_"):
                assert merged[name] == now.get(name, 0) + own[name], name

        view.close()
        assert shared.metrics.children() == []
        assert shared.metrics.snapshot() == merged
        view.close()  # idempotent: nothing is folded in twice
        assert shared.metrics.snapshot() == merged
