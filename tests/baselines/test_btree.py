"""Tests for the disk-backed B+tree."""

from __future__ import annotations

import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.btree import PAGE_SIZE, BPlusTree, MAX_VALUE_BYTES
from repro.errors import StorageError


def build_tree(tmp_path, pairs):
    return BPlusTree.bulk_build(tmp_path / "tree.bt", iter(pairs))


def height(tmp_path) -> int:
    """The tree's height as its meta page records it (1 = root is a leaf)."""
    return struct.unpack_from("<I", (tmp_path / "tree.bt").read_bytes(), 8)[0]


class TestBulkBuild:
    def test_empty_tree(self, tmp_path):
        tree = build_tree(tmp_path, [])
        assert tree.get(5) is None
        assert list(tree.scan()) == []

    def test_single_entry(self, tmp_path):
        tree = build_tree(tmp_path, [(7, b"seven")])
        assert tree.get(7) == b"seven"
        assert tree.get(8) is None

    def test_many_entries_lookup(self, tmp_path):
        pairs = [(i * 3, str(i).encode()) for i in range(5000)]
        tree = build_tree(tmp_path, pairs)
        assert height(tmp_path) >= 2
        rng = random.Random(0)
        for key, value in rng.sample(pairs, 200):
            assert tree.get(key) == value
        assert tree.get(1) is None  # between keys

    def test_unsorted_input_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            build_tree(tmp_path, [(2, b"a"), (1, b"b")])

    def test_duplicate_keys_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            build_tree(tmp_path, [(1, b"a"), (1, b"b")])

    def test_oversized_value_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            build_tree(tmp_path, [(1, b"x" * (MAX_VALUE_BYTES + 1))])

    def test_file_is_page_aligned(self, tmp_path):
        tree = build_tree(tmp_path, [(i, b"v") for i in range(100)])
        assert tree.size_bytes() % PAGE_SIZE == 0


class TestScan:
    def test_full_scan_sorted(self, tmp_path):
        pairs = [(i, str(i).encode()) for i in range(0, 2000, 2)]
        tree = build_tree(tmp_path, pairs)
        assert list(tree.scan()) == pairs

    def test_range_scan(self, tmp_path):
        pairs = [(i, b"v") for i in range(100)]
        tree = build_tree(tmp_path, pairs)
        result = [k for k, _ in tree.scan(10, 20)]
        assert result == list(range(10, 21))

    def test_range_scan_between_keys(self, tmp_path):
        pairs = [(i * 10, b"v") for i in range(50)]
        tree = build_tree(tmp_path, pairs)
        result = [k for k, _ in tree.scan(15, 35)]
        assert result == [20, 30]


class TestFileFormat:
    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bt"
        path.write_bytes(b"\x00" * PAGE_SIZE)
        with pytest.raises(StorageError):
            BPlusTree(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            BPlusTree(tmp_path / "absent.bt")

    def test_custom_page_reader_used(self, tmp_path):
        pairs = [(i, b"v") for i in range(500)]
        build_tree(tmp_path, pairs)
        reads = []

        def reader(page_number):
            reads.append(page_number)
            with open(tmp_path / "tree.bt", "rb") as handle:
                handle.seek(page_number * PAGE_SIZE)
                return handle.read(PAGE_SIZE)

        tree = BPlusTree(tmp_path / "tree.bt", page_reader=reader)
        tree.get(100)
        assert reads  # all I/O went through the injected reader


class TestPageReadAccounting:
    """Regression: index probes must be metered I/O, not invisible seeks.

    Before the shared storage engine, B+tree page reads went through raw
    ``open``/``seek`` and a standalone index probe reported zero I/O.
    """

    def test_cold_probe_counts_seeks_and_bytes(self, tmp_path):
        pairs = [(i * 3, str(i).encode()) for i in range(5000)]
        build_tree(tmp_path, pairs)
        tree = BPlusTree(tmp_path / "tree.bt")
        assert tree.get(300) == b"100"
        stats = tree.io_stats()
        assert stats["disk_seeks"] > 0
        assert stats["bytes_read"] >= PAGE_SIZE  # at least one full page
        assert stats["bytes_read"] % PAGE_SIZE == 0
        assert stats["index_page_loads"] >= height(tmp_path)

    def test_descent_reads_height_pages(self, tmp_path):
        pairs = [(i * 3, str(i).encode()) for i in range(5000)]
        build_tree(tmp_path, pairs)
        tree = BPlusTree(tmp_path / "tree.bt")
        assert height(tmp_path) >= 2
        tree.metrics.reset()
        tree.get(300)
        # One counted page read per level (meta page is pinned at open).
        assert tree.io_stats()["bytes_read"] == height(tmp_path) * PAGE_SIZE

    def test_cached_probe_is_free(self, tmp_path):
        pairs = [(i, b"v") for i in range(2000)]
        build_tree(tmp_path, pairs)
        tree = BPlusTree(tmp_path / "tree.bt")
        tree.get(100)
        tree.metrics.reset()
        tree.get(100)  # same root-to-leaf path, now buffered
        stats = tree.io_stats()
        assert stats.get("bytes_read", 0) == 0
        assert stats.get("disk_seeks", 0) == 0
        assert stats["buffer_hits"] >= height(tmp_path)


@settings(deadline=None, max_examples=20)
@given(
    st.lists(
        st.tuples(st.integers(0, 10**6), st.binary(max_size=40)),
        max_size=300,
        unique_by=lambda kv: kv[0],
    )
)
def test_property_bulk_build_then_get(tmp_path_factory, pairs):
    pairs = sorted(pairs)
    tree = BPlusTree.bulk_build(
        tmp_path_factory.mktemp("prop") / "t.bt", iter(pairs)
    )
    for key, value in pairs:
        assert tree.get(key) == value
    assert list(tree.scan()) == pairs
