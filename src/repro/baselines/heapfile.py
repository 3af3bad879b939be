"""Slotted-page heap file — the storage layer of the mini relational DB.

Classic textbook layout.  Each fixed-size page::

    [u16 slot_count][u16 free_space_offset] [slot dir: (u16 off, u16 len)*]
    ... free space ...                        [records packed from the end]

Records are opaque byte strings addressed by RID = (page_number, slot).
Records larger than a page's usable space are rejected; the relational
layer chunks oversized adjacency lists across several records instead.
"""

from __future__ import annotations

import struct
from pathlib import Path

from repro.errors import StorageError
from repro.storage.device import PageDevice

PAGE_SIZE = 4096
_HEADER = struct.Struct("<HH")
_SLOT = struct.Struct("<HH")
_HEADER_SIZE = _HEADER.size


class HeapPage:
    """One in-memory slotted page."""

    def __init__(self, data: bytearray | None = None) -> None:
        if data is None:
            self._data = bytearray(PAGE_SIZE)
            self._set_header(0, PAGE_SIZE)
        else:
            if len(data) != PAGE_SIZE:
                raise StorageError(f"heap page must be {PAGE_SIZE} bytes")
            self._data = bytearray(data)

    def _header(self) -> tuple[int, int]:
        return _HEADER.unpack_from(self._data, 0)

    def _set_header(self, slots: int, free_offset: int) -> None:
        _HEADER.pack_into(self._data, 0, slots, free_offset)

    def _slot(self, index: int) -> tuple[int, int]:
        return _SLOT.unpack_from(self._data, _HEADER_SIZE + index * _SLOT.size)

    def _set_slot(self, index: int, offset: int, length: int) -> None:
        _SLOT.pack_into(self._data, _HEADER_SIZE + index * _SLOT.size, offset, length)

    def free_space(self) -> int:
        """Bytes available for one more record (incl. its slot entry)."""
        slots, free_offset = self._header()
        directory_end = _HEADER_SIZE + slots * _SLOT.size
        return max(0, free_offset - directory_end - _SLOT.size)

    def insert(self, record: bytes) -> int:
        """Insert ``record``; returns its slot number."""
        if len(record) > self.free_space():
            raise StorageError("record does not fit in heap page")
        slots, free_offset = self._header()
        new_offset = free_offset - len(record)
        self._data[new_offset:free_offset] = record
        self._set_slot(slots, new_offset, len(record))
        self._set_header(slots + 1, new_offset)
        return slots

    def read(self, slot: int) -> bytes:
        """Record bytes at ``slot``."""
        slots, _ = self._header()
        if not 0 <= slot < slots:
            raise StorageError(f"slot {slot} out of range")
        offset, length = self._slot(slot)
        if offset == 0 and length == 0:
            raise StorageError(f"slot {slot} is deleted")
        return bytes(self._data[offset : offset + length])

    def to_bytes(self) -> bytes:
        """Serialized page image."""
        return bytes(self._data)

    @classmethod
    def usable_space(cls) -> int:
        """Largest record a fresh page can hold."""
        return PAGE_SIZE - _HEADER_SIZE - _SLOT.size


class HeapFile:
    """Append-oriented heap file of slotted pages.

    Page I/O flows through a :class:`~repro.storage.device.PageDevice`
    (supply one sharing a metrics registry/buffer pool, as the relational
    layer does, or let the file create a private device); this class only
    tracks the page count and the current fill frontier.
    """

    def __init__(self, path: Path | str, device: PageDevice | None = None) -> None:
        self._path = Path(path)
        if not self._path.exists():
            self._path.write_bytes(b"")
        self._device = (
            device if device is not None else PageDevice(self._path, PAGE_SIZE)
        )
        size = self._path.stat().st_size
        if size % PAGE_SIZE:
            raise StorageError("heap file size is not page-aligned")
        self._num_pages = size // PAGE_SIZE

    @property
    def path(self) -> Path:
        """Backing file path."""
        return self._path

    @property
    def device(self) -> PageDevice:
        """The counted page device carrying this file's I/O."""
        return self._device

    @property
    def num_pages(self) -> int:
        """Pages currently in the file."""
        return self._num_pages

    def read_page(self, page_number: int) -> HeapPage:
        """Read one page image from disk."""
        if not 0 <= page_number < self._num_pages:
            raise StorageError(f"heap page {page_number} out of range")
        return HeapPage(bytearray(self._device.read_page(page_number)))

    def write_page(self, page_number: int, page: HeapPage) -> None:
        """Write one page image back to disk."""
        if not 0 <= page_number < self._num_pages:
            raise StorageError(f"heap page {page_number} out of range")
        self._device.write_page(page_number, page.to_bytes())

    def append_page(self, page: HeapPage) -> int:
        """Append a fresh page; returns its number."""
        self._device.append_page(page.to_bytes())
        self._num_pages += 1
        return self._num_pages - 1

    def size_bytes(self) -> int:
        """Total file size."""
        return self._num_pages * PAGE_SIZE

    def close(self) -> None:
        """Close the page device."""
        self._device.close()
