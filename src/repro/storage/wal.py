"""Write-ahead log of edge mutations over an immutable graph build.

The S-Node build is write-once (the paper's representation is static),
but real web graphs churn.  The mutable write path keeps the committed
build untouched and journals every edge addition/deletion here, in a
sidecar ``graph.wal`` next to the forward build's manifest:

* one **record** per write op: an opcode (add/remove) plus the edges,
  grouped by source and encoded with the Link3 gap codec
  (:mod:`repro.util.deltacodec`) — the same nybble-coded rows the
  compressed baselines use, so a churn-heavy log stays small;
* each record is wrapped in the storage layer's CRC32 **frame**
  (:func:`repro.storage.integrity.encode_frame`), so a torn tail —
  the bytes a crash mid-append leaves behind — fails to decode and is
  cleanly distinguishable from a good prefix;
* appends flow through :func:`repro.storage.faults.guarded_write` and
  fsync before the caller is acknowledged.  The crash-point sweep in the
  fault tests kills the writer at every single write op and checks the
  contract this buys: **an acknowledged write is never lost, and a write
  that was never acknowledged never resurrects** (its torn frame is
  dropped by :meth:`GraphWal.scan`).

Compaction replays base + WAL into a fresh build and atomically adopts
it; :meth:`GraphWal.carry_suffix_to` then moves the unabsorbed suffix
into the new build's log and empties the old one, each through the same
staged-rename idiom as every other atomic replace in the repo
(``graph.wal.new`` then ``os.replace``), so a crash mid-rewrite leaves
either the old or the new log, never a half one.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from repro.errors import CorruptionError, StorageError
from repro.storage import faults, integrity
from repro.storage.atomic import fsync_dir, fsync_file
from repro.util.bitio import BitReader, BitWriter
from repro.util.deltacodec import decode_gap_row, encode_gap_row
from repro.util.varint import decode_nibble, encode_nibble

#: File name of the WAL sidecar inside a (forward) build directory.
WAL_NAME = "graph.wal"
#: Staging name used for atomic rewrites (``graph.wal.new`` -> rename).
WAL_STAGING_SUFFIX = ".new"

#: Record opcodes.  The WAL is last-op-wins per edge, so these two are
#: the whole vocabulary.
OP_ADD = "add"
OP_REMOVE = "remove"
_OPCODES = {OP_ADD: 1, OP_REMOVE: 2}
_OPNAMES = {code: name for name, code in _OPCODES.items()}


@dataclass(frozen=True)
class WalRecord:
    """One acknowledged write: an opcode and its edges."""

    op: str
    edges: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class WalScan:
    """Result of decoding a WAL file front to back.

    ``good_bytes`` is the offset just past the last intact frame;
    ``torn_bytes`` counts trailing bytes that failed to decode (a crash
    mid-append).  ``good_bytes + torn_bytes == file size`` always.
    """

    records: tuple[WalRecord, ...]
    good_bytes: int
    torn_bytes: int

    @property
    def torn(self) -> bool:
        return self.torn_bytes > 0


def encode_record(op: str, edges) -> bytes:
    """Encode one mutation record's payload (before framing).

    Edges are grouped by source; each group is a nybble-coded gap row —
    exactly the Link3 "plain row" encoding, anchored at the source id.
    """
    code = _OPCODES.get(op)
    if code is None:
        raise StorageError(f"unknown WAL opcode {op!r}")
    rows: dict[int, set[int]] = {}
    for source, target in edges:
        rows.setdefault(int(source), set()).add(int(target))
    if not rows:
        raise StorageError("refusing to log an empty edge batch")
    writer = BitWriter()
    encode_nibble(writer, code)
    encode_nibble(writer, len(rows))
    for source in sorted(rows):
        if source < 0:
            raise StorageError(f"negative source id {source}")
        encode_nibble(writer, source)
        row = sorted(rows[source])
        if row[0] < 0:
            raise StorageError(f"negative target id {row[0]}")
        encode_gap_row(writer, source, row)
    return writer.to_bytes()


def decode_record(payload: bytes) -> WalRecord:
    """Decode a record payload written by :func:`encode_record`."""
    reader = BitReader(payload)
    code = decode_nibble(reader)
    name = _OPNAMES.get(code)
    if name is None:
        raise CorruptionError(f"unknown WAL opcode {code}")
    groups = decode_nibble(reader)
    edges: list[tuple[int, int]] = []
    for _ in range(groups):
        source = decode_nibble(reader)
        for target in decode_gap_row(reader, source):
            edges.append((source, target))
    return WalRecord(op=name, edges=tuple(edges))


class GraphWal:
    """Append-only, CRC-framed, fsync'd log of edge mutations."""

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)

    @classmethod
    def for_build(cls, root: Path | str) -> "GraphWal":
        """The WAL sidecar of a build directory (lives next to the manifest)."""
        return cls(Path(root) / WAL_NAME)

    @property
    def staging_path(self) -> Path:
        return self.path.parent / (self.path.name + WAL_STAGING_SUFFIX)

    def size_bytes(self) -> int:
        """Current log length (0 when the file does not exist)."""
        try:
            return self.path.stat().st_size
        except FileNotFoundError:
            return 0

    # -- write path --------------------------------------------------------

    def append(self, op: str, edges) -> int:
        """Durably append one record; returns the new log length.

        The frame goes through the fault-injection choke point and is
        fsync'd before this returns — returning is the acknowledgement
        the crash-safety contract is stated in terms of.  An injected
        crash may leave a torn frame; :meth:`scan` drops it.
        """
        frame = integrity.encode_frame(encode_record(op, edges))

        def _append(chunk: bytes) -> None:
            with open(self.path, "ab") as handle:
                handle.write(chunk)
                handle.flush()
                os.fsync(handle.fileno())

        faults.guarded_write(self.path, frame, _append)
        return self.size_bytes()

    # -- read path ---------------------------------------------------------

    def scan(self) -> WalScan:
        """Decode the log front to back, stopping at the first bad frame.

        Every complete frame before the tear is returned; the torn tail
        (truncated header, short payload, or CRC mismatch) is measured
        but never interpreted — a write that was never acknowledged must
        not resurrect as a phantom record.
        """
        try:
            blob = self.path.read_bytes()
        except FileNotFoundError:
            return WalScan(records=(), good_bytes=0, torn_bytes=0)
        records: list[WalRecord] = []
        position = 0
        while position < len(blob):
            try:
                payload, next_position = integrity.decode_frame(blob, position)
                records.append(decode_record(payload))
            except CorruptionError:
                break
            position = next_position
        return WalScan(
            records=tuple(records),
            good_bytes=position,
            torn_bytes=len(blob) - position,
        )

    # -- maintenance -------------------------------------------------------

    def _replace_with(self, data: bytes) -> None:
        """Atomically replace the log body via the staging file."""

        def _stage(chunk: bytes) -> None:
            with open(self.staging_path, "wb") as handle:
                handle.write(chunk)
                handle.flush()
                os.fsync(handle.fileno())

        faults.guarded_write(self.staging_path, data, _stage)
        os.replace(self.staging_path, self.path)
        fsync_file(self.path)
        fsync_dir(self.path.parent)

    def repair_tail(self) -> int:
        """Truncate a torn tail; returns the number of bytes removed.

        Keeps exactly the good prefix :meth:`scan` would replay, so a
        repaired log and an unrepaired one produce the same overlay —
        repair only makes the tear invisible to byte-level checks.
        """
        scan = self.scan()
        if not scan.torn:
            return 0
        blob = self.path.read_bytes()
        self._replace_with(blob[: scan.good_bytes])
        return scan.torn_bytes

    def carry_suffix_to(self, other: "GraphWal", offset: int) -> int:
        """Move the unabsorbed suffix ``[offset:]`` into ``other``'s log.

        The swap/compaction hand-off: the adopted build already contains
        the prefix, so the suffix becomes the *entire* log of the new
        store directory and this log is emptied (everything here is now
        either durable in the new build or carried forward).  Returns
        the number of suffix bytes carried.
        """
        blob = self.path.read_bytes() if self.path.exists() else b""
        if not 0 <= offset <= len(blob):
            raise StorageError(
                f"WAL carry offset {offset} outside [0, {len(blob)}]"
            )
        suffix = blob[offset:]
        other._replace_with(suffix)
        if other.path != self.path and self.path.exists():
            self._replace_with(b"")
        return len(suffix)
