"""Tests for the slotted-page heap file."""

from __future__ import annotations

import pytest

from repro.baselines.heapfile import PAGE_SIZE, HeapFile, HeapPage
from repro.errors import StorageError


class TestHeapPage:
    def test_insert_and_read(self):
        page = HeapPage()
        slot = page.insert(b"hello")
        assert page.read(slot) == b"hello"

    def test_multiple_records(self):
        page = HeapPage()
        slots = [page.insert(f"record-{i}".encode()) for i in range(20)]
        for i, slot in enumerate(slots):
            assert page.read(slot) == f"record-{i}".encode()

    def test_free_space_decreases(self):
        page = HeapPage()
        before = page.free_space()
        page.insert(b"x" * 100)
        assert page.free_space() < before - 100

    def test_overflow_rejected(self):
        page = HeapPage()
        with pytest.raises(StorageError):
            page.insert(b"x" * PAGE_SIZE)

    def test_fill_to_capacity(self):
        page = HeapPage()
        count = 0
        while page.free_space() >= 10:
            page.insert(b"0123456789")
            count += 1
        assert count > 100

    def test_invalid_slot(self):
        page = HeapPage()
        with pytest.raises(StorageError):
            page.read(0)

    def test_serialization_roundtrip(self):
        page = HeapPage()
        page.insert(b"alpha")
        page.insert(b"beta")
        restored = HeapPage(bytearray(page.to_bytes()))
        assert restored.read(0) == b"alpha"
        assert restored.read(1) == b"beta"

    def test_wrong_size_rejected(self):
        with pytest.raises(StorageError):
            HeapPage(bytearray(100))

    def test_usable_space(self):
        assert 0 < HeapPage.usable_space() < PAGE_SIZE


class TestHeapFile:
    def test_create_empty(self, tmp_path):
        heap = HeapFile(tmp_path / "h.heap")
        assert heap.num_pages == 0
        assert heap.size_bytes() == 0

    def test_append_and_read(self, tmp_path):
        heap = HeapFile(tmp_path / "h.heap")
        page = HeapPage()
        page.insert(b"data")
        number = heap.append_page(page)
        assert heap.num_pages == 1
        assert heap.read_page(number).read(0) == b"data"

    def test_write_back(self, tmp_path):
        heap = HeapFile(tmp_path / "h.heap")
        number = heap.append_page(HeapPage())
        page = heap.read_page(number)
        page.insert(b"late")
        heap.write_page(number, page)
        assert heap.read_page(number).read(0) == b"late"

    def test_out_of_range(self, tmp_path):
        heap = HeapFile(tmp_path / "h.heap")
        with pytest.raises(StorageError):
            heap.read_page(0)
        with pytest.raises(StorageError):
            heap.write_page(3, HeapPage())

    def test_reopen_preserves_pages(self, tmp_path):
        heap = HeapFile(tmp_path / "h.heap")
        page = HeapPage()
        page.insert(b"persist")
        heap.append_page(page)
        reopened = HeapFile(tmp_path / "h.heap")
        assert reopened.num_pages == 1
        assert reopened.read_page(0).read(0) == b"persist"

    def test_unaligned_file_rejected(self, tmp_path):
        path = tmp_path / "bad.heap"
        path.write_bytes(b"x" * 100)
        with pytest.raises(StorageError):
            HeapFile(path)
