"""Disk-backed B+tree with fixed-size pages.

Keys are unsigned 64-bit integers; values are small byte strings (at most
:data:`MAX_VALUE_BYTES`).  The tree supports bulk building from sorted
pairs (how the relational baseline creates its indexes), point lookups
and ascending range scans; a built tree is read-only.  Pages are read
through a :class:`repro.storage.device.PageDevice`
(optionally behind a shared :class:`repro.storage.bufferpool.BufferPool`),
so index I/O is metered by the same counted-seek rule as every other
access path — a standalone probe shows up in ``io_stats()`` instead of
being an invisible raw ``seek()``.  The meta page is pinned in the pool,
"akin to the root node of B-tree indexes".

Page layout (4096 bytes)::

    meta page (page 0):  [magic u32][root u32][height u32][num_pages u32]
    internal page:       [type u8=0][count u16] [child u32]
                         ([key u64][child u32]) * count
    leaf page:           [type u8=1][count u16][next u32]
                         ([key u64][vlen u16][value]) * count   (packed)
"""

from __future__ import annotations

import struct
from collections.abc import Iterable, Iterator
from pathlib import Path

from repro.errors import StorageError
from repro.storage import atomic, integrity
from repro.storage.bufferpool import BufferPool
from repro.storage.device import PageDevice
from repro.storage.metrics import MetricsRegistry

PAGE_SIZE = 4096
MAX_VALUE_BYTES = 1024
#: Page-cache budget of a standalone tree (one not sharing an owner's pool).
DEFAULT_STANDALONE_POOL_BYTES = 64 * PAGE_SIZE

_META = struct.Struct("<IIII")
_MAGIC = 0xB7EE0001
_LEAF_HEADER = struct.Struct("<BHI")
_INTERNAL_HEADER = struct.Struct("<BH")
_KEY = struct.Struct("<Q")
_CHILD = struct.Struct("<I")
_VLEN = struct.Struct("<H")

_LEAF_ENTRY_OVERHEAD = _KEY.size + _VLEN.size
_INTERNAL_ENTRY = _KEY.size + _CHILD.size
_NO_PAGE = 0xFFFFFFFF


class _Leaf:
    """Parsed leaf node."""

    __slots__ = ("keys", "values", "next_leaf")

    def __init__(self, keys: list[int], values: list[bytes], next_leaf: int) -> None:
        self.keys = keys
        self.values = values
        self.next_leaf = next_leaf

    def to_bytes(self) -> bytes:
        out = bytearray(PAGE_SIZE)
        _LEAF_HEADER.pack_into(out, 0, 1, len(self.keys), self.next_leaf)
        position = _LEAF_HEADER.size
        for key, value in zip(self.keys, self.values):
            _KEY.pack_into(out, position, key)
            position += _KEY.size
            _VLEN.pack_into(out, position, len(value))
            position += _VLEN.size
            out[position : position + len(value)] = value
            position += len(value)
        if position > PAGE_SIZE:
            raise StorageError("leaf node overflow")
        return bytes(out)

    def bytes_used(self) -> int:
        return _LEAF_HEADER.size + sum(
            _LEAF_ENTRY_OVERHEAD + len(v) for v in self.values
        )


class _Internal:
    """Parsed internal node: children[i] covers keys < keys[i]; the last
    child covers the rest (children has len(keys)+1 entries)."""

    __slots__ = ("keys", "children")

    def __init__(self, keys: list[int], children: list[int]) -> None:
        self.keys = keys
        self.children = children

    def to_bytes(self) -> bytes:
        out = bytearray(PAGE_SIZE)
        _INTERNAL_HEADER.pack_into(out, 0, 0, len(self.keys))
        position = _INTERNAL_HEADER.size
        _CHILD.pack_into(out, position, self.children[0])
        position += _CHILD.size
        for key, child in zip(self.keys, self.children[1:]):
            _KEY.pack_into(out, position, key)
            position += _KEY.size
            _CHILD.pack_into(out, position, child)
            position += _CHILD.size
        if position > PAGE_SIZE:
            raise StorageError("internal node overflow")
        return bytes(out)


def _parse(data: bytes) -> _Leaf | _Internal:
    if data[0] == 1:
        _, count, next_leaf = _LEAF_HEADER.unpack_from(data, 0)
        position = _LEAF_HEADER.size
        keys: list[int] = []
        values: list[bytes] = []
        for _ in range(count):
            (key,) = _KEY.unpack_from(data, position)
            position += _KEY.size
            (vlen,) = _VLEN.unpack_from(data, position)
            position += _VLEN.size
            values.append(bytes(data[position : position + vlen]))
            position += vlen
            keys.append(key)
        return _Leaf(keys, values, next_leaf)
    _, count = _INTERNAL_HEADER.unpack_from(data, 0)
    position = _INTERNAL_HEADER.size
    (first_child,) = _CHILD.unpack_from(data, position)
    position += _CHILD.size
    keys = []
    children = [first_child]
    for _ in range(count):
        (key,) = _KEY.unpack_from(data, position)
        position += _KEY.size
        (child,) = _CHILD.unpack_from(data, position)
        position += _CHILD.size
        keys.append(key)
        children.append(child)
    return _Internal(keys, children)


class BPlusTree:
    """A single-file B+tree.  Open an existing file or bulk-build a new one.

    ``device`` supplies counted page I/O (a private
    :class:`~repro.storage.device.PageDevice` is created when omitted, so
    even a standalone tree meters its reads); ``pool`` optionally caches
    pages in a shared buffer pool, as the relational baseline does for its
    heap and both indexes.  ``page_reader`` injects a raw read function
    and bypasses both (test hook).
    """

    def __init__(
        self,
        path: Path | str,
        page_reader=None,
        device: PageDevice | None = None,
        pool: BufferPool | None = None,
    ) -> None:
        path = Path(path)
        if not path.exists():
            raise StorageError(f"no B+tree file at {path}")
        if page_reader is None and device is None:
            device = PageDevice(path, PAGE_SIZE, MetricsRegistry())
        if page_reader is None and pool is None:
            # Standalone trees get a private page cache charged against the
            # device registry, so repeated descents over the same hot path
            # are buffer hits, exactly as under the relational baseline's
            # shared pool.
            pool = BufferPool(
                DEFAULT_STANDALONE_POOL_BYTES, registry=device.registry
            )
        self._device = device
        self._pool = pool
        self._page_reader = page_reader
        self._cache_tag = ("btree", str(path))
        meta_page = self._read_page_raw(0)
        if self._pool is not None:
            # Keep the meta page resident: it is re-read on every reopen
            # and anchors every descent.
            self._pool.pin((*self._cache_tag, 0), meta_page, PAGE_SIZE)
        meta = self._parse_meta(meta_page)
        self._root = meta[1]
        self._num_pages = meta[3]

    # -- construction ------------------------------------------------------

    @classmethod
    def bulk_build(
        cls, path: Path | str, pairs: Iterable[tuple[int, bytes]]
    ) -> "BPlusTree":
        """Create a balanced tree from key-sorted (key, value) pairs.

        Writes a ``<file>.crc`` page-checksum sidecar alongside the tree,
        so every subsequent page read is CRC-verified.
        """
        path = Path(path)
        pages: list[bytes] = [b"\x00" * PAGE_SIZE]  # meta placeholder
        # The 256-byte leaf slack and the fanout - 8 below fix the page
        # layout of every relational index, and so the seeks counted in
        # the committed benchmarks/baselines/ reports: they must not move.
        leaf_fill = PAGE_SIZE - 256
        current = _Leaf([], [], _NO_PAGE)
        leaf_entries: list[tuple[int, int]] = []  # (first key, page number)
        previous_key: int | None = None

        def flush_leaf() -> None:
            nonlocal current
            if not current.keys:
                return
            page_number = len(pages)
            if leaf_entries:
                # Fix previous leaf's next pointer.
                prior = _parse(pages[leaf_entries[-1][1]])
                assert isinstance(prior, _Leaf)
                prior.next_leaf = page_number
                pages[leaf_entries[-1][1]] = prior.to_bytes()
            leaf_entries.append((current.keys[0], page_number))
            pages.append(current.to_bytes())
            current = _Leaf([], [], _NO_PAGE)

        for key, value in pairs:
            if len(value) > MAX_VALUE_BYTES:
                raise StorageError(f"value of {len(value)} bytes exceeds limit")
            if previous_key is not None and key <= previous_key:
                raise StorageError("bulk build requires strictly ascending keys")
            previous_key = key
            if current.bytes_used() + _LEAF_ENTRY_OVERHEAD + len(value) > leaf_fill:
                flush_leaf()
            current.keys.append(key)
            current.values.append(value)
        flush_leaf()

        if not leaf_entries:
            # Empty tree: a single empty leaf as root.
            pages.append(_Leaf([], [], _NO_PAGE).to_bytes())
            leaf_entries.append((0, len(pages) - 1))

        # Build internal levels bottom-up.
        level = leaf_entries
        height = 1
        fanout = (PAGE_SIZE - _INTERNAL_HEADER.size - _CHILD.size) // _INTERNAL_ENTRY
        fanout = max(2, fanout - 8)
        while len(level) > 1:
            next_level: list[tuple[int, int]] = []
            for start in range(0, len(level), fanout):
                group = level[start : start + fanout]
                node = _Internal(
                    keys=[key for key, _ in group[1:]],
                    children=[page for _, page in group],
                )
                page_number = len(pages)
                pages.append(node.to_bytes())
                next_level.append((group[0][0], page_number))
            level = next_level
            height += 1
        root = level[0][1]
        meta = bytearray(PAGE_SIZE)
        _META.pack_into(meta, 0, _MAGIC, root, height, len(pages))
        pages[0] = bytes(meta)
        atomic.write_file(path, b"".join(pages))
        atomic.write_file(
            integrity.sidecar_path(path),
            integrity.encode_page_checksums(
                [integrity.crc32(page) for page in pages]
            ),
        )
        return cls(path)

    # -- page I/O ----------------------------------------------------------

    def _read_page_raw(self, page_number: int) -> bytes:
        if self._page_reader is not None:
            return self._page_reader(page_number)
        if self._pool is not None:
            return self._pool.get_or_load(
                (*self._cache_tag, page_number),
                lambda: self._device.read_page(page_number),
                cost=PAGE_SIZE,
                kind="index_page",
            )
        return self._device.read_page(page_number)

    @staticmethod
    def _parse_meta(data: bytes) -> tuple[int, int, int, int]:
        meta = _META.unpack_from(data, 0)
        if meta[0] != _MAGIC:
            raise StorageError("not a B+tree file (bad magic)")
        return meta

    def _node(self, page_number: int) -> _Leaf | _Internal:
        return _parse(self._read_page_raw(page_number))

    @property
    def device(self) -> PageDevice | None:
        """The counted page device (None with an injected ``page_reader``)."""
        return self._device

    @property
    def metrics(self) -> MetricsRegistry | None:
        """The registry charged for this tree's page I/O (None when an
        injected ``page_reader`` bypasses the device layer)."""
        return self._device.registry if self._device is not None else None

    def io_stats(self) -> dict[str, int]:
        """Bytes read / seeks performed through the tree's device."""
        return self.metrics.io_stats() if self.metrics is not None else {}

    # -- queries ----------------------------------------------------------

    def get(self, key: int) -> bytes | None:
        """Value for ``key`` or None."""
        node = self._node(self._root)
        while isinstance(node, _Internal):
            node = self._node(self._descend(node, key))
        index = _lower_bound(node.keys, key)
        if index < len(node.keys) and node.keys[index] == key:
            return node.values[index]
        return None

    def _descend(self, node: _Internal, key: int) -> int:
        index = _upper_bound(node.keys, key)
        return node.children[index]

    def scan(
        self, low: int | None = None, high: int | None = None
    ) -> Iterator[tuple[int, bytes]]:
        """Yield (key, value) ascending for low <= key <= high."""
        start = 0 if low is None else low
        node = self._node(self._root)
        while isinstance(node, _Internal):
            node = self._node(self._descend(node, start))
        index = _lower_bound(node.keys, start)
        while True:
            while index < len(node.keys):
                key = node.keys[index]
                if high is not None and key > high:
                    return
                yield key, node.values[index]
                index += 1
            if node.next_leaf == _NO_PAGE:
                return
            node = self._node(node.next_leaf)
            if not isinstance(node, _Leaf):
                raise StorageError("leaf chain points at an internal page")
            index = 0

    @property
    def num_pages(self) -> int:
        """Pages in the file, including the meta page."""
        return self._num_pages

    def size_bytes(self) -> int:
        """Total file size."""
        return self._num_pages * PAGE_SIZE

    def close(self) -> None:
        """Close the tree's page device (no-op with an injected reader)."""
        if self._device is not None:
            self._device.close()


def _lower_bound(keys: list[int], key: int) -> int:
    low, high = 0, len(keys)
    while low < high:
        middle = (low + high) // 2
        if keys[middle] < key:
            low = middle + 1
        else:
            high = middle
    return low


def _upper_bound(keys: list[int], key: int) -> int:
    low, high = 0, len(keys)
    while low < high:
        middle = (low + high) // 2
        if keys[middle] <= key:
            low = middle + 1
        else:
            high = middle
    return low
