"""Payloads whose header is sound and whose body is cut short.

Superedge payloads keep their polarity bit and linked-source list;
intranode payloads keep their dictionary.  Either is served from a region
appended to the index file with its checksum recomputed, so any cut bit
offset reaches the decoder.  Built from the pointer table and the
bit-by-bit oracle decoders only, so the same cut can be served by any
commit of ``snode.encode`` / ``snode.store`` — which is how the error a
cut surfaces as was captured before cached superedge graphs went
header-resident.  :func:`write_pointer_table` puts an edited pointer
table on disk, for the offline check to read.
"""

from __future__ import annotations

import dataclasses
import json

import oracle_codecs

from repro.errors import CodecError
from repro.snode.storage import MANIFEST_NAME, POINTERS_NAME, GraphLocation
from repro.storage import integrity
from repro.util.varint import encode_vbyte


def outcome(function, *args):
    """``("ok", value)`` or ``("error", exception type)`` of a decode."""
    try:
        return "ok", function(*args)
    except CodecError as error:  # BitStreamError is one
        return "error", type(error)


def cut_at(payload: bytes, bit: int) -> bytes:
    """``payload`` up to ``bit`` bits, the last byte zero-padded."""
    whole, used = divmod(bit, 8)
    if not used:
        return payload[:whole]
    return payload[:whole] + bytes([payload[whole] & (0xFF00 >> used) & 0xFF])


def body_bit(payload: bytes) -> int:
    """Bit offset at which a superedge payload's header ends."""
    reader = oracle_codecs.BitReader(payload)
    reader.read_bit()
    oracle_codecs._decode_locals(reader)
    return reader.position


def region(store, location) -> bytes:
    """The payload bytes at ``location``, read past the store's counters."""
    path = store._root / store._layout.index_files[location.file_index]
    with open(path, "rb") as handle:
        handle.seek(location.offset)
        return handle.read(location.length)


def breakable_superedge(store) -> tuple[tuple[int, int], int, int]:
    """The first superedge graph of ``store`` with a byte length that keeps
    its header and breaks its body: ((source, target), that length, a
    linked source local)."""
    layout = store._layout
    for key, (location, _negative) in layout.superedge.items():
        payload = region(store, location)
        for keep in range(-(-body_bit(payload) // 8), location.length):
            if outcome(oracle_codecs.decode_superedge_payload, payload[:keep])[0] == "error":
                return key, keep, oracle_codecs.decode_superedge_payload(payload)[1][0]
    raise AssertionError("no superedge graph with a breakable body")


def truncate_region(store, key: tuple[int, int], keep: int) -> None:
    """Point ``store`` at the first ``keep`` bytes of superedge ``key``'s
    payload, checksum recomputed: the read passes, the decode cannot."""
    location, negative = store._layout.superedge[key]
    crc = integrity.crc32(region(store, location)[:keep])
    store._layout.superedge[key] = (
        dataclasses.replace(location, length=keep, crc=crc),
        negative,
    )


def richest_intranode(store, max_bytes: int = 128) -> int:
    """The intranode graph of ``store`` with the most reference records
    among those of at most ``max_bytes`` bytes: the one whose reference
    chains a cut breaks in the most places."""

    def references(location) -> int:
        records = oracle_codecs.intranode_records(region(store, location))[3]
        return sum(isinstance(record, tuple) for record in records)

    counts = {
        supernode: references(location)
        for supernode, location in enumerate(store._layout.intranode)
        if location.length <= max_bytes
    }
    return max(counts, key=counts.get)


def richest_superedge(store, negative: bool, max_bytes: int = 48) -> tuple[int, int]:
    """The superedge graph of ``store`` stored ``negative`` (or positive)
    that links the most sources among those of at most ``max_bytes``
    bytes: the one whose cut body breaks the most linked rows."""
    counts = {
        key: len(oracle_codecs.decode_superedge_payload(region(store, location))[1])
        for key, (location, stored_negative) in store._layout.superedge.items()
        if stored_negative == negative and location.length <= max_bytes
    }
    return max(counts, key=counts.get)


def append_region(store, file_index: int, data: bytes):
    """Append ``data`` to index file ``file_index`` of ``store``'s build;
    its location, checksum included."""
    path = store._root / store._layout.index_files[file_index]
    with open(path, "ab") as handle:
        offset = handle.tell()
        handle.write(data)
    return GraphLocation(file_index, offset, len(data), integrity.crc32(data))


def write_pointer_table(root, layout) -> None:
    """Reframe ``root``'s ``pointers.bin`` from ``layout``'s locations and
    re-record it in the manifest's file table and build digest, so only
    the S-Node checks can tell the edited table from a built one."""
    records = [(location, None) for location in layout.intranode]
    records.extend(
        layout.superedge[(source, target)]
        for source, targets in enumerate(layout.super_adjacency)
        for target in targets
    )
    blob = bytearray()
    for location, negative in records:
        fields = [location.file_index, location.offset, location.length, location.crc]
        for value in fields if negative is None else [*fields, int(negative)]:
            blob.extend(encode_vbyte(value))
    path = root / POINTERS_NAME
    path.write_bytes(integrity.encode_frame(bytes(blob)))
    manifest = json.loads((root / MANIFEST_NAME).read_text())
    manifest["files"][POINTERS_NAME] = {
        "bytes": path.stat().st_size,
        "crc32": integrity.file_crc(path),
    }
    manifest["digest"] = integrity.build_digest(manifest["files"])
    (root / MANIFEST_NAME).write_text(json.dumps(manifest))
