"""Mini relational database baseline (the paper's PostgreSQL stand-in).

Adjacency lists are rows of a table ``links(page_id, targets)`` stored in
a slotted-page heap file; a B+tree on ``page_id`` and a B+tree domain
index provide the access paths, and all page I/O (heap and index alike)
flows through one shared :class:`repro.storage.bufferpool.BufferPool` —
the same architecture the paper exercises through PostgreSQL with a
bounded shared-buffer setting.  Every seek and byte is metered by the
storage layer's counted devices, so the relational baseline's Table 2 /
Figure 11 numbers use the identical cost model as S-Node's.

Rows larger than a heap page are chunked across several records; the
page-id index stores the full RID list for each page.
"""

from __future__ import annotations

import json
import struct
from collections.abc import Iterator
from pathlib import Path

from repro.baselines.base import GraphRepresentation
from repro.baselines.btree import PAGE_SIZE, BPlusTree
from repro.baselines.heapfile import HeapFile, HeapPage
from repro.errors import GraphError, StorageError
from repro.graph.digraph import Digraph
from repro.storage import integrity
from repro.storage.atomic import BuildTransaction
from repro.storage.bufferpool import BufferPool
from repro.storage.device import PageDevice
from repro.storage.metrics import MetricsRegistry
from repro.webdata.corpus import Repository

DEFAULT_BUFFER_BYTES = 8 * 1024 * 1024

_RID = struct.Struct("<IH")
_RECORD_HEADER = struct.Struct("<IH")  # (page_id, chunk_sequence)

# Leave room for the record header and the slot entry.
_MAX_TARGETS_PER_CHUNK = (HeapPage.usable_space() - _RECORD_HEADER.size - 64) // 4


class RelationalRepresentation(GraphRepresentation):
    """Adjacency lists behind a heap file + B+tree indexes + buffer pool."""

    name = "relational"

    def __init__(
        self,
        repository: Repository,
        root: Path | str,
        graph: Digraph | None = None,
        buffer_bytes: int = DEFAULT_BUFFER_BYTES,
    ) -> None:
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)
        graph = graph if graph is not None else repository.graph
        self._num_pages = graph.num_vertices
        self._num_edges = graph.num_edges
        self._metrics = MetricsRegistry()
        self._pool = BufferPool(buffer_bytes, registry=self._metrics)
        self._build(repository, graph)
        self._heap_device = PageDevice(
            self._heap_path, PAGE_SIZE, self._metrics
        )
        self._heap = HeapFile(self._heap_path, device=self._heap_device)
        self._page_index = BPlusTree(
            self._page_index_path,
            device=PageDevice(self._page_index_path, PAGE_SIZE, self._metrics),
            pool=self._pool,
        )
        self._domain_index = BPlusTree(
            self._domain_index_path,
            device=PageDevice(self._domain_index_path, PAGE_SIZE, self._metrics),
            pool=self._pool,
        )
        self._domain_ids = json.loads(self._domain_map_path.read_text())

    # -- paths ---------------------------------------------------------------

    @property
    def _heap_path(self) -> Path:
        return self._root / "links.heap"

    @property
    def _page_index_path(self) -> Path:
        return self._root / "page_id.btree"

    @property
    def _domain_index_path(self) -> Path:
        return self._root / "domain.btree"

    @property
    def _domain_map_path(self) -> Path:
        return self._root / "domains.json"

    # -- build -----------------------------------------------------------------

    def _build(self, repository: Repository, graph: Digraph) -> None:
        """Build heap + indexes atomically (tmp dir, manifest last, rename)."""
        with BuildTransaction(self._root) as transaction:
            self._build_into(transaction, repository, graph)
            transaction.write_manifest(
                {
                    "scheme": self.name,
                    "num_pages": self._num_pages,
                    "num_edges": self._num_edges,
                }
            )
            transaction.commit()

    def _build_into(
        self, transaction: BuildTransaction, repository: Repository, graph: Digraph
    ) -> None:
        heap_path = transaction.path(self._heap_path.name)
        heap = HeapFile(heap_path)
        current = HeapPage()
        current_number: int | None = None
        rid_lists: list[list[tuple[int, int]]] = [[] for _ in range(self._num_pages)]

        def emit(record: bytes) -> tuple[int, int]:
            nonlocal current, current_number
            if len(record) > current.free_space():
                if current_number is None:
                    current_number = heap.append_page(current)
                else:
                    heap.write_page(current_number, current)
                current = HeapPage()
                current_number = heap.append_page(current)
                slot = current.insert(record)
                return current_number, slot
            if current_number is None:
                current_number = heap.append_page(current)
            slot = current.insert(record)
            return current_number, slot

        for page in range(self._num_pages):
            row = [int(t) for t in graph.successors(page)]
            chunks = [
                row[i : i + _MAX_TARGETS_PER_CHUNK]
                for i in range(0, max(len(row), 1), _MAX_TARGETS_PER_CHUNK)
            ]
            for sequence, chunk in enumerate(chunks):
                record = _RECORD_HEADER.pack(page, sequence) + struct.pack(
                    f"<{len(chunk)}I", *chunk
                )
                rid_lists[page].append(emit(record))
        if current_number is not None:
            heap.write_page(current_number, current)
        heap.close()
        transaction.write_file(
            integrity.sidecar_path(heap_path).name,
            integrity.encode_page_checksums(
                integrity.page_checksums_of_file(heap_path, PAGE_SIZE)
            ),
        )
        transaction.register(heap_path.name)

        BPlusTree.bulk_build(
            transaction.path(self._page_index_path.name),
            (
                (page, b"".join(_RID.pack(*rid) for rid in rids))
                for page, rids in enumerate(rid_lists)
            ),
        ).close()

        # Domain index: domain id -> chunked page-id lists.
        domain_pages: dict[str, list[int]] = {}
        for page_object in repository.pages[: self._num_pages]:
            domain_pages.setdefault(page_object.domain, []).append(
                page_object.page_id
            )
        domain_ids = {
            domain: index for index, domain in enumerate(sorted(domain_pages))
        }
        entries: list[tuple[int, bytes]] = []
        chunk_capacity = 200
        for domain, pages in domain_pages.items():
            base = domain_ids[domain] << 16
            for sequence, start in enumerate(range(0, len(pages), chunk_capacity)):
                chunk = pages[start : start + chunk_capacity]
                entries.append(
                    (base | sequence, struct.pack(f"<{len(chunk)}I", *chunk))
                )
        entries.sort(key=lambda kv: kv[0])
        BPlusTree.bulk_build(
            transaction.path(self._domain_index_path.name), iter(entries)
        ).close()
        for index_path in (self._page_index_path, self._domain_index_path):
            transaction.register(index_path.name)
            transaction.register(integrity.sidecar_path(index_path).name)
        transaction.write_file(
            self._domain_map_path.name,
            json.dumps(domain_ids, sort_keys=True).encode(),
        )

    # -- access ------------------------------------------------------------------

    def _read_record(self, rid: tuple[int, int]) -> bytes:
        page_number, slot = rid
        data = self._pool.get_or_load(
            ("heap", page_number),
            lambda: self._heap_device.read_page(page_number),
            cost=PAGE_SIZE,
            kind="heap_page",
        )
        return HeapPage(bytearray(data)).read(slot)

    def out_neighbors(self, page: int) -> list[int]:
        if not 0 <= page < self._num_pages:
            raise GraphError(f"page {page} out of range")
        rid_blob = self._page_index.get(page)
        if rid_blob is None:
            raise StorageError(f"page {page} missing from page-id index")
        row: list[int] = []
        for position in range(0, len(rid_blob), _RID.size):
            rid = _RID.unpack_from(rid_blob, position)
            record = self._read_record(rid)
            count = (len(record) - _RECORD_HEADER.size) // 4
            row.extend(
                struct.unpack_from(f"<{count}I", record, _RECORD_HEADER.size)
            )
        row.sort()
        return row

    def pages_in_domain(self, domain: str) -> list[int]:
        """Domain-index lookup (B+tree range scan over the chunk keys)."""
        domain_id = self._domain_ids.get(domain.lower())
        if domain_id is None:
            return []
        base = domain_id << 16
        pages: list[int] = []
        for _key, blob in self._domain_index.scan(base, base | 0xFFFF):
            pages.extend(struct.unpack(f"<{len(blob) // 4}I", blob))
        return pages

    def iterate_all(self) -> Iterator[tuple[int, list[int]]]:
        for page, rid_blob in self._page_index.scan():
            row: list[int] = []
            for position in range(0, len(rid_blob), _RID.size):
                rid = _RID.unpack_from(rid_blob, position)
                record = self._read_record(rid)
                count = (len(record) - _RECORD_HEADER.size) // 4
                row.extend(
                    struct.unpack_from(f"<{count}I", record, _RECORD_HEADER.size)
                )
            row.sort()
            yield page, row

    # -- accounting -----------------------------------------------------------

    def size_bytes(self) -> int:
        total = (
            self._heap.size_bytes()
            + self._page_index.size_bytes()
            + self._domain_index.size_bytes()
        )
        # Page-checksum sidecars are part of the stored representation.
        for path in (self._heap_path, self._page_index_path, self._domain_index_path):
            sidecar = integrity.sidecar_path(path)
            if sidecar.exists():
                total += sidecar.stat().st_size
        return total

    @property
    def num_pages(self) -> int:
        return self._num_pages

    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def metrics(self) -> MetricsRegistry:
        """Shared registry metering heap and index I/O alike."""
        return self._metrics

    def _devices(self) -> tuple[PageDevice, ...]:
        return (
            self._heap_device,
            self._page_index.device,
            self._domain_index.device,
        )

    def drop_caches(self) -> None:
        self._pool.clear(record=False)
        for device in self._devices():
            device.forget_position()

    def set_buffer_bytes(self, buffer_bytes: int) -> None:
        """Resize the buffer pool (memory-bound experiments)."""
        self._pool.set_buffer_bytes(buffer_bytes)
        for device in self._devices():
            device.forget_position()

    def close(self) -> None:
        for device in self._devices():
            device.close()
