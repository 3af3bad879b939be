"""The Connectivity Server "Link3" scheme (Randall et al., DCC 2002).

Reimplemented from the published description:

* pages are renumbered in **URL-lexicographic order**, so most links point
  to nearby ids (locality) and consecutive pages have similar lists;
* an adjacency list may be **delta-encoded against one of the previous
  eight lists**: the row header stores the reference offset (0 = none),
  followed by a deletion bit vector over the referenced list and the added
  entries;
* added entries / plain rows are stored as **nybble-coded gaps**, the
  first relative to the source id (zig-zag signed), the rest ascending;
* rows are grouped into fixed-count **blocks**; each block restarts the
  reference window, carries a byte offset in a directory, and is the unit
  of disk transfer and of buffer-manager caching.

The block directory and id maps are held in memory (they are small); block
payloads live in a single file read through the shared storage engine (a
counted device behind a :class:`repro.storage.bufferpool.BufferPool` of
raw blocks), so the scheme runs both fully in-memory (Table 2) and under
a bounded buffer against disk (Figure 11) with the same metered cost
model as every other representation.
"""

from __future__ import annotations

from collections.abc import Iterator
from pathlib import Path

from repro.baselines.base import GraphRepresentation
from repro.errors import CorruptionError, GraphError
from repro.graph.digraph import Digraph
from repro.storage import integrity
from repro.storage.atomic import BuildTransaction
from repro.storage.bufferpool import BufferPool
from repro.storage.device import CountedFile
from repro.util.bitio import BitReader, BitWriter
from repro.util.deltacodec import (
    apply_delta,
    decode_delta_row,
    decode_gap_row,
    delta_against,
    encode_delta_row,
    encode_gap_row,
)
from repro.util.varint import decode_nibble, encode_nibble
from repro.webdata.corpus import Repository
from repro.webdata.urls import lexicographic_key

DEFAULT_ROWS_PER_BLOCK = 256
DEFAULT_WINDOW = 8
#: The Link Database bounds how many references may chain before a plain
#: row is forced, keeping random access fast; 4 is in the range Randall et
#: al. discuss.
DEFAULT_MAX_CHAIN = 4
DEFAULT_BUFFER_BYTES = 8 * 1024 * 1024

_ROW_COST = 4
_EDGE_COST = 8

# The row codecs moved to repro.util.deltacodec (the WAL and delta
# overlay reuse them); the output here is byte-identical.
_encode_plain = encode_gap_row
_decode_plain = decode_gap_row


class Link3Representation(GraphRepresentation):
    """Block-structured Link3 adjacency storage over one Web graph."""

    name = "link3"

    def __init__(
        self,
        repository: Repository,
        root: Path | str,
        graph: Digraph | None = None,
        rows_per_block: int = DEFAULT_ROWS_PER_BLOCK,
        window: int = DEFAULT_WINDOW,
        max_chain: int = DEFAULT_MAX_CHAIN,
        buffer_bytes: int = DEFAULT_BUFFER_BYTES,
    ) -> None:
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)
        self._rows_per_block = rows_per_block
        self._window = window
        self._max_chain = max_chain
        graph = graph if graph is not None else repository.graph
        n = graph.num_vertices
        if n != repository.num_pages:
            raise GraphError("graph and repository disagree on page count")
        # URL-lexicographic renumbering.
        order = sorted(
            range(n), key=lambda p: lexicographic_key(repository.page(p).url)
        )
        self._new_to_old = order
        self._old_to_new = [0] * n
        for new, old in enumerate(order):
            self._old_to_new[old] = new
        self._num_pages = n
        self._num_edges = graph.num_edges
        self._block_offsets: list[int] = []
        # Per-node bit offset of each row inside its block's bit stream —
        # the "starts" structure of the real Link Database, which makes
        # random access decode only the row and its reference chain rather
        # than a whole block.  Its (delta-compressed) size is part of the
        # published bits/link figures, and of ours.
        self._row_bit_offsets: list[int] = []
        self._block_checksums: list[int] = []
        self._write_blocks(graph)
        self._file = CountedFile(self._payload_path, registry=self.metrics)
        self._pool = BufferPool(buffer_bytes, registry=self.metrics)

    @property
    def _payload_path(self) -> Path:
        return self._root / "link3.dat"

    @property
    def _sidecar_path(self) -> Path:
        return integrity.sidecar_path(self._payload_path)

    # -- build ----------------------------------------------------------------

    def _write_blocks(self, graph: Digraph) -> None:
        payload = bytearray()
        self._block_offsets = []
        block_rows: list[list[int]] = []
        block_depths: list[int] = []  # reference-chain depth of each row
        writer = BitWriter()

        def flush() -> None:
            nonlocal writer
            if not block_rows:
                return
            self._block_offsets.append(len(payload))
            payload.extend(writer.to_bytes())
            block_rows.clear()
            block_depths.clear()
            writer = BitWriter()

        for new_page in range(self._num_pages):
            old_page = self._new_to_old[new_page]
            row = sorted(
                self._old_to_new[int(t)] for t in graph.successors(old_page)
            )
            self._row_bit_offsets.append(len(writer))
            used_offset = self._encode_row(writer, new_page, row, block_rows, block_depths)
            block_rows.append(row)
            block_depths.append(
                0 if used_offset == 0 else block_depths[len(block_rows) - 1 - used_offset] + 1
            )
            if len(block_rows) == self._rows_per_block:
                flush()
        flush()
        self._block_offsets.append(len(payload))
        # One CRC32 per block — the unit of disk transfer is the unit of
        # verification, checked every time a block misses the cache.
        self._block_checksums = [
            integrity.crc32(bytes(payload[start:end]))
            for start, end in zip(self._block_offsets, self._block_offsets[1:])
        ]
        with BuildTransaction(self._root) as transaction:
            transaction.write_file(self._payload_path.name, bytes(payload))
            transaction.write_file(
                self._sidecar_path.name,
                integrity.encode_page_checksums(self._block_checksums),
            )
            transaction.write_manifest(
                {
                    "scheme": self.name,
                    "num_pages": self._num_pages,
                    "num_edges": self._num_edges,
                    "rows_per_block": self._rows_per_block,
                }
            )
            transaction.commit()

    def _encode_row(
        self,
        writer: BitWriter,
        source: int,
        row: list[int],
        block_rows: list[list[int]],
        block_depths: list[int],
    ) -> int:
        """Pick the cheapest of plain or window-referenced encodings.

        Returns the reference offset used (0 = plain) so the caller can
        track chain depths; rows whose chain would exceed the configured
        maximum are not eligible as references.
        """
        best_cost = None
        best_choice: tuple[int, list[int], list[int]] | None = None
        probe = BitWriter()
        _encode_plain(probe, source, row)
        best_cost = len(probe)
        start = max(0, len(block_rows) - self._window)
        for index in range(start, len(block_rows)):
            reference = block_rows[index]
            if not reference:
                continue
            if block_depths[index] + 1 > self._max_chain:
                continue
            offset = len(block_rows) - index  # 1..window
            deletions, additions = delta_against(reference, row)
            probe = BitWriter()
            encode_nibble(probe, offset)
            encode_delta_row(probe, source, deletions, additions)
            cost = len(probe)
            if cost < best_cost:
                best_cost = cost
                best_choice = (offset, deletions, additions)
        if best_choice is None:
            encode_nibble(writer, 0)
            _encode_plain(writer, source, row)
            return 0
        offset, deletions, additions = best_choice
        encode_nibble(writer, offset)
        encode_delta_row(writer, source, deletions, additions)
        return offset

    # -- block decode ------------------------------------------------------------

    def _load_block_bytes(self, block: int) -> bytes:
        """Raw block payload via the buffer cache (unit of disk transfer)."""
        start = self._block_offsets[block]
        end = self._block_offsets[block + 1]

        def load() -> bytes:
            data = self._file.read_at(start, end - start)
            actual = integrity.crc32(data)
            if actual != self._block_checksums[block]:
                raise CorruptionError(
                    f"{self._payload_path.name}: block {block} checksum "
                    f"mismatch (stored {self._block_checksums[block]:#010x}, "
                    f"read {actual:#010x})"
                )
            return data

        return self._pool.get_or_load(block, load, kind="block")

    # -- public access ------------------------------------------------------------

    def _decode_row_chain(
        self, block: int, data: bytes, position: int, memo: dict[int, list[int]]
    ) -> list[int]:
        """Decode row ``position`` of a block, resolving references via the
        per-node start offsets (no whole-block decode)."""
        cached = memo.get(position)
        if cached is not None:
            return cached
        source = block * self._rows_per_block + position
        reader = BitReader(data, start_bit=self._row_bit_offsets[source])
        offset = decode_nibble(reader)
        if offset == 0:
            row = _decode_plain(reader, source)
        else:
            reference = self._decode_row_chain(block, data, position - offset, memo)
            deletions, additions = decode_delta_row(reader, source, reference)
            row = apply_delta(reference, deletions, additions)
        memo[position] = row
        return row

    def out_neighbors(self, page: int) -> list[int]:
        if not 0 <= page < self._num_pages:
            raise GraphError(f"page {page} out of range")
        new_page = self._old_to_new[page]
        block, position = divmod(new_page, self._rows_per_block)
        row = self._decode_row_chain(block, self._load_block_bytes(block), position, {})
        return sorted(self._new_to_old[t] for t in row)

    def iterate_all(self) -> Iterator[tuple[int, list[int]]]:
        for block in range(len(self._block_offsets) - 1):
            data = self._load_block_bytes(block)
            first_page = block * self._rows_per_block
            count = min(self._rows_per_block, self._num_pages - first_page)
            memo: dict[int, list[int]] = {}
            for position in range(count):
                row = self._decode_row_chain(block, data, position, memo)
                old = self._new_to_old[first_page + position]
                yield old, sorted(self._new_to_old[t] for t in row)

    def size_bytes(self) -> int:
        """Payload + block directory + per-node starts + block checksums.

        The starts array is what the Link Database's published bits/link
        figures include for random access, so we include ours too; the
        per-block CRC sidecar is part of the stored representation.
        """
        from repro.util.varint import delta_cost

        payload = self._payload_path.stat().st_size
        payload += self._sidecar_path.stat().st_size
        directory = 8 * len(self._block_offsets)
        starts_bits = 0
        previous_offset = 0
        previous_block = 0
        for source, offset in enumerate(self._row_bit_offsets):
            block = source // self._rows_per_block
            if block != previous_block:
                previous_offset = 0
                previous_block = block
            starts_bits += delta_cost(offset - previous_offset)
            previous_offset = offset
        return payload + directory + (starts_bits + 7) // 8

    @property
    def num_pages(self) -> int:
        return self._num_pages

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def drop_caches(self) -> None:
        self._pool.clear(record=False)
        self._file.forget_position()

    def set_buffer_bytes(self, buffer_bytes: int) -> None:
        """Reconfigure the block cache budget."""
        self._pool.set_buffer_bytes(buffer_bytes)
        self._file.forget_position()

    def close(self) -> None:
        self._file.close()
