"""On-disk organization of an S-Node representation (paper section 3.3).

Directory layout::

    <root>/
      manifest.json     build metadata + file table (size+CRC32 per file)
                        + whole-build digest; always written last
      supernode.bin     Huffman-coded supernode graph (CRC frame)
      pointers.bin      per-intranode and per-superedge
                        (file, offset, len, crc32) records (CRC frame)
      pageid.bin        PageID index: supernode boundary array (CRC frame)
      newid.bin         new-id -> old-id permutation, 4-byte LE (CRC frame)
      domain.json       domain -> sorted list of supernode ids
      index_000.dat ... payload files, each at most ``max_file_bytes``
      quarantine.json   (optional) regions quarantined by ``repro fsck
                        --repair``; honoured by degrade-mode stores

Payloads follow the paper's **linear ordering** (Figure 8): the intranode
graph of supernode i is immediately followed by every superedge graph
``(i, j)`` in ascending j, so a query touching supernode i reads one
contiguous region.  A graph never straddles two index files ("we ensured
that a given intranode or superedge graph was completely located within a
single file").

Durability (format version 2): payload bytes are untouched — the paper's
byte offsets and the linear layout stay exact — but every graph region's
CRC32 rides in its ``pointers.bin`` record and is verified on read, the
auxiliary tables are stored as CRC frames, and the whole build is written
through the :class:`repro.storage.atomic.BuildTransaction` protocol
(tmp directory, fsync, manifest last, rename), so a crash at any write op
leaves either the previous build or a cleanly reported partial build —
never a silently corrupt one.
"""

from __future__ import annotations

import json
import struct
from contextlib import closing
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

from repro.errors import CorruptionError, StorageError
from repro.obs import tracing
from repro.snode.encode import (
    encode_intranode,
    encode_superedge,
    encode_supernode_graph,
    freeze_supernode_codec,
    supernode_frequencies,
)
from repro.snode.model import SNodeModel
from repro.snode.reference import DEFAULT_FULL_AFFINITY_LIMIT, DEFAULT_WINDOW
from repro.storage import integrity
from repro.storage.atomic import MANIFEST_NAME, BuildTransaction, require_build
from repro.util.varint import decode_vbytes, encode_vbyte

SUPERNODE_NAME = "supernode.bin"
POINTERS_NAME = "pointers.bin"
PAGEID_NAME = "pageid.bin"
NEWID_NAME = "newid.bin"
DOMAIN_NAME = "domain.json"
QUARANTINE_NAME = "quarantine.json"
#: Version 2 = checksummed storage (region CRCs, framed tables, digest).
FORMAT_VERSION = 2

#: Scaled-down analogue of the paper's 500 MB index-file cap.
DEFAULT_MAX_FILE_BYTES = 4 * 1024 * 1024


@dataclass(frozen=True)
class GraphLocation:
    """Where one encoded graph lives, plus its payload checksum."""

    file_index: int
    offset: int
    length: int
    crc: int = 0


@dataclass
class StorageLayout:
    """Deserialized pointer tables of a stored representation."""

    intranode: list[GraphLocation]
    superedge: dict[tuple[int, int], tuple[GraphLocation, bool]]  # +polarity
    boundaries: list[int]
    new_to_old: list[int]
    domains: dict[str, list[int]]
    #: The supernode graph, decoded once (to walk ``pointers.bin``).
    super_adjacency: list[list[int]]
    index_files: list[str]
    manifest: dict


class PayloadWriter:
    """Appends byte-aligned payloads across size-capped index files.

    Files are written through the enclosing
    :class:`~repro.storage.atomic.BuildTransaction`, so each rotation is
    one fault-injectable write op and lands in the manifest's file table.
    """

    def __init__(self, transaction: BuildTransaction, max_file_bytes: int) -> None:
        self._transaction = transaction
        self._max = max_file_bytes
        self._files: list[str] = []
        self._current: bytearray = bytearray()

    def _rotate(self) -> None:
        name = f"index_{len(self._files):03d}.dat"
        self._transaction.write_file(name, bytes(self._current))
        self._files.append(name)
        self._current = bytearray()

    def append(self, payload: bytes) -> GraphLocation:
        crc = integrity.crc32(payload)
        if len(payload) > self._max:
            # A single graph larger than the cap still gets its own file.
            if self._current:
                self._rotate()
            location = GraphLocation(len(self._files), 0, len(payload), crc)
            self._current.extend(payload)
            self._rotate()
            return location
        if len(self._current) + len(payload) > self._max and self._current:
            self._rotate()
        location = GraphLocation(
            len(self._files), len(self._current), len(payload), crc
        )
        self._current.extend(payload)
        return location

    def finish(self) -> list[str]:
        if self._current or not self._files:
            self._rotate()
        return self._files


@dataclass
class EncodedPayloads:
    """Outcome of the encode stage: payload locations and byte accounting.

    Produced by :func:`encode_payloads`, consumed by :func:`write_tables`.
    """

    intranode: list[GraphLocation]
    superedge: dict[tuple[int, int], tuple[GraphLocation, bool]]
    index_files: list[str]
    payload_bytes: int
    intranode_bytes: int
    superedge_bytes: int
    supernode_payload: bytes


def _encode_supernode(
    model: SNodeModel,
    supernode: int,
    window: int,
    full_affinity_limit: int,
    use_dictionary: bool,
) -> tuple[bytes, list[tuple[int, bytes, bool]]]:
    """One supernode's intranode payload and ``(target, payload, negative)``
    per superedge, in ascending target order (the linear layout)."""
    intranode = encode_intranode(
        model.intranode[supernode],
        window=window,
        full_affinity_limit=full_affinity_limit,
        use_dictionary=use_dictionary,
    )
    superedges = []
    for target in model.super_adjacency[supernode]:
        graph = model.superedges[(supernode, target)]
        payload = encode_superedge(
            graph,
            window=window,
            full_affinity_limit=full_affinity_limit,
            use_dictionary=use_dictionary,
        )
        superedges.append((target, payload, graph.negative))
    return intranode, superedges


def supernode_ranges(count: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous ``[first, last)`` ranges tiling ``0..count`` in order.

    About four per worker, so one huge supernode cannot straggle the
    pool; the boundaries never change a byte, only load balance.
    """
    parts = min(count, workers * 4)
    return [
        (index * count // parts, (index + 1) * count // parts)
        for index in range(parts)
    ]


#: ``(model, knobs)`` of an encode worker, set by the pool initializer
#: (inherited over fork, pickled once per worker under spawn).
_WORKER: tuple | None = None


def _install_worker(model: SNodeModel, knobs: tuple) -> None:
    global _WORKER
    _WORKER = (model, knobs)


def _encode_range(bounds: tuple[int, int]) -> tuple[list, dict]:
    """Pool task: encode one supernode range on a private tracer.

    The tracer's per-name summary rides back with the payloads, so the
    parent accounts for time spent in the child process.
    """
    model, knobs = _WORKER
    tracer = tracing.Tracer(max_spans=1)
    results = []
    with tracing.activated(tracer):
        for supernode in range(*bounds):
            with tracing.span("encode.supernode"):
                results.append(_encode_supernode(model, supernode, *knobs))
    return results, tracer.summary()


def _encode_in_pool(model: SNodeModel, knobs: tuple, workers: int):
    """Per-supernode results from a process pool, in supernode order.

    ``imap`` hands ranges back in task order whatever order the workers
    finish in; worker spans are absorbed under ``worker.``.
    """
    import multiprocessing

    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platform without fork
        context = multiprocessing.get_context("spawn")
    ranges = supernode_ranges(model.num_supernodes, workers)
    with context.Pool(
        processes=min(workers, len(ranges)),
        initializer=_install_worker,
        initargs=(model, knobs),
    ) as pool:
        for results, spans in pool.imap(_encode_range, ranges):
            tracing.absorb_summary(spans, prefix="worker.")
            yield from results


def encode_payloads(
    model: SNodeModel,
    transaction: BuildTransaction,
    max_file_bytes: int = DEFAULT_MAX_FILE_BYTES,
    window: int = DEFAULT_WINDOW,
    full_affinity_limit: int = DEFAULT_FULL_AFFINITY_LIMIT,
    use_dictionary: bool = True,
    workers: int = 1,
    progress=None,
) -> EncodedPayloads:
    """Encode every payload into the transaction's index files.

    The supernode-graph Huffman table — the format's only global code
    table — is frozen first.  Every intranode and superedge graph then
    encodes independently: inline for ``workers == 1``, across a
    ``multiprocessing`` pool otherwise.  Either way this one loop appends
    the results to the :class:`PayloadWriter` in supernode order (the
    paper's linear layout), so the index files are byte-identical for
    every worker count.  ``progress`` gets one update per supernode.
    """
    from repro.obs import progress as obs_progress

    progress = obs_progress.ensure(progress)
    codec = freeze_supernode_codec(supernode_frequencies(model.super_adjacency))
    supernode_payload = encode_supernode_graph(model.super_adjacency, codec)
    writer = PayloadWriter(transaction, max_file_bytes)
    progress.start_phase("encode", total=model.num_supernodes, unit="supernodes")

    knobs = (window, full_affinity_limit, use_dictionary)
    if workers > 1 and model.num_supernodes > 1:
        results = _encode_in_pool(model, knobs, workers)
    else:
        results = (
            _encode_supernode(model, supernode, *knobs)
            for supernode in range(model.num_supernodes)
        )
    intranode_locations: list[GraphLocation] = []
    superedge_locations: dict[tuple[int, int], tuple[GraphLocation, bool]] = {}
    intranode_bytes = 0
    superedge_bytes = 0
    # closing(): a failed append stops the pool now, not at garbage
    # collection of the traceback that holds this frame.
    with closing(results):
        for supernode, (intranode, superedges) in enumerate(results):
            intranode_locations.append(writer.append(intranode))
            intranode_bytes += len(intranode)
            for target, payload, negative in superedges:
                superedge_locations[(supernode, target)] = (
                    writer.append(payload),
                    negative,
                )
                superedge_bytes += len(payload)
            progress.update()

    index_files = writer.finish()
    progress.finish_phase()
    return EncodedPayloads(
        intranode=intranode_locations,
        superedge=superedge_locations,
        index_files=index_files,
        payload_bytes=intranode_bytes + superedge_bytes,
        intranode_bytes=intranode_bytes,
        superedge_bytes=superedge_bytes,
        supernode_payload=supernode_payload,
    )


def write_tables(
    model: SNodeModel,
    transaction: BuildTransaction,
    encoded: EncodedPayloads,
    window: int = DEFAULT_WINDOW,
    full_affinity_limit: int = DEFAULT_FULL_AFFINITY_LIMIT,
) -> dict:
    """Assemble stage: auxiliary tables + manifest (written last).

    Does **not** commit — the caller owns the transaction.
    """
    numbering = model.numbering
    transaction.write_file(
        SUPERNODE_NAME, integrity.encode_frame(encoded.supernode_payload)
    )

    pointer_blob = _encode_pointers(model, encoded.intranode, encoded.superedge)
    transaction.write_file(POINTERS_NAME, integrity.encode_frame(pointer_blob))

    boundary_blob = bytearray()
    previous = 0
    for boundary in numbering.boundaries:
        boundary_blob.extend(encode_vbyte(boundary - previous))
        previous = boundary
    pageid_frame = integrity.encode_frame(bytes(boundary_blob))
    transaction.write_file(PAGEID_NAME, pageid_frame)

    transaction.write_file(
        NEWID_NAME,
        integrity.encode_frame(
            struct.pack(f"<{numbering.num_pages}I", *numbering.new_to_old)
        ),
    )

    domains: dict[str, list[int]] = {}
    for supernode, domain in enumerate(numbering.supernode_domains):
        domains.setdefault(domain, []).append(supernode)
    transaction.write_file(
        DOMAIN_NAME, json.dumps(domains, sort_keys=True).encode()
    )

    return transaction.write_manifest(
        {
            "version": FORMAT_VERSION,
            "num_pages": numbering.num_pages,
            "num_supernodes": model.num_supernodes,
            "num_superedges": model.num_superedges,
            "positive_superedges": model.positive_count,
            "negative_superedges": model.negative_count,
            "index_files": encoded.index_files,
            "payload_bytes": encoded.payload_bytes,
            "intranode_bytes": encoded.intranode_bytes,
            "superedge_bytes": encoded.superedge_bytes,
            "supernode_graph_bytes": len(encoded.supernode_payload),
            "pointer_bytes": len(pointer_blob),
            "pageid_bytes": len(pageid_frame),
            "window": window,
            "full_affinity_limit": full_affinity_limit,
        }
    )


def write_snode(
    model: SNodeModel,
    root: Path | str,
    max_file_bytes: int = DEFAULT_MAX_FILE_BYTES,
    window: int = DEFAULT_WINDOW,
    full_affinity_limit: int = DEFAULT_FULL_AFFINITY_LIMIT,
    use_dictionary: bool = True,
    progress=None,
) -> dict:
    """Serialize ``model`` under directory ``root``; returns the manifest.

    The build is atomic: everything is written under ``<root>.tmp`` and
    published by a final rename, with the manifest (carrying per-file
    CRCs and the whole-build digest) written last.
    :func:`repro.snode.build.build_snode` makes the same calls around its
    refine, number and model stages, so the bytes and the write ops are
    identical either way.
    """
    root = Path(root)
    transaction = BuildTransaction(root)
    encoded = encode_payloads(
        model,
        transaction,
        max_file_bytes=max_file_bytes,
        window=window,
        full_affinity_limit=full_affinity_limit,
        use_dictionary=use_dictionary,
        progress=progress,
    )
    manifest = write_tables(
        model,
        transaction,
        encoded,
        window=window,
        full_affinity_limit=full_affinity_limit,
    )
    transaction.commit()
    return manifest


def _encode_pointers(
    model: SNodeModel,
    intranode: list[GraphLocation],
    superedge: dict[tuple[int, int], tuple[GraphLocation, bool]],
) -> bytes:
    blob = bytearray()
    for location in intranode:
        blob.extend(encode_vbyte(location.file_index))
        blob.extend(encode_vbyte(location.offset))
        blob.extend(encode_vbyte(location.length))
        blob.extend(encode_vbyte(location.crc))
    for source in range(model.num_supernodes):
        for target in model.super_adjacency[source]:
            location, negative = superedge[(source, target)]
            blob.extend(encode_vbyte(location.file_index))
            blob.extend(encode_vbyte(location.offset))
            blob.extend(encode_vbyte(location.length))
            blob.extend(encode_vbyte(location.crc))
            blob.extend(encode_vbyte(1 if negative else 0))
    return bytes(blob)


def _read_manifest(root: Path) -> dict:
    """Load and sanity-check ``manifest.json`` (clean errors only)."""
    require_build(root, what="S-Node build")
    manifest_path = root / MANIFEST_NAME
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise StorageError(
            f"manifest {manifest_path} is truncated or not valid JSON "
            f"(line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    version = manifest.get("version")
    if version != FORMAT_VERSION:
        raise StorageError(
            f"unsupported S-Node format version {version!r} under {root} "
            f"(this build of repro reads version {FORMAT_VERSION}); "
            "rebuild the representation"
        )
    files = manifest.get("files")
    if not isinstance(files, dict) or manifest.get("digest") != (
        integrity.build_digest(files) if isinstance(files, dict) else None
    ):
        raise StorageError(
            f"manifest under {root} has a missing or inconsistent build "
            "digest — the build did not complete its commit"
        )
    return manifest


def _read_framed_table(root: Path, name: str, manifest: dict) -> bytes:
    """Read an auxiliary CRC-framed table, checking its manifest entry."""
    path = root / name
    if not path.exists():
        raise StorageError(f"missing auxiliary file {name} under {root}")
    entry = manifest["files"].get(name)
    if entry is not None and path.stat().st_size != entry["bytes"]:
        raise CorruptionError(
            f"{name}: file holds {path.stat().st_size} bytes, manifest "
            f"recorded {entry['bytes']}"
        )
    return integrity.read_framed(path)


def read_layout(root: Path | str) -> StorageLayout:
    """Load manifest, pointer tables and indexes (not the payloads).

    Distinguishes "no build", "partial build" (interrupted before the
    atomic rename) and a valid build; every auxiliary table's CRC frame
    is verified, so a flipped bit in an index surfaces here as a
    :class:`~repro.errors.CorruptionError` rather than as garbage
    adjacency later.
    """
    root = Path(root)
    manifest = _read_manifest(root)

    boundary_blob = _read_framed_table(root, PAGEID_NAME, manifest)
    boundaries = list(accumulate(decode_vbytes(boundary_blob)))
    num_supernodes = manifest["num_supernodes"]
    if len(boundaries) != num_supernodes + 1:
        raise StorageError("PageID index does not match supernode count")

    newid_blob = _read_framed_table(root, NEWID_NAME, manifest)
    num_pages = manifest["num_pages"]
    if len(newid_blob) != 4 * num_pages:
        raise StorageError(
            f"new-id map holds {len(newid_blob)} bytes, expected "
            f"{4 * num_pages} for {num_pages} pages"
        )
    new_to_old = list(struct.unpack(f"<{num_pages}I", newid_blob))

    domain_blob = (root / DOMAIN_NAME).read_bytes()
    domain_entry = manifest["files"].get(DOMAIN_NAME)
    if domain_entry is not None and integrity.crc32(domain_blob) != domain_entry["crc32"]:
        raise CorruptionError(f"{DOMAIN_NAME}: checksum mismatch")
    domains = {
        domain: list(supernodes)
        for domain, supernodes in json.loads(domain_blob).items()
    }

    from repro.snode.encode import decode_supernode_graph

    adjacency = decode_supernode_graph(
        _read_framed_table(root, SUPERNODE_NAME, manifest)
    )
    # Four fields per intranode record, then five per superedge record.
    fields = decode_vbytes(_read_framed_table(root, POINTERS_NAME, manifest))
    position = 4 * num_supernodes
    if len(fields) != position + 5 * sum(map(len, adjacency)):
        raise StorageError("pointer table does not match the supernode graph")
    intranode = [GraphLocation(*fields[at : at + 4]) for at in range(0, position, 4)]
    superedge: dict[tuple[int, int], tuple[GraphLocation, bool]] = {}
    for source in range(num_supernodes):
        for target in adjacency[source]:
            superedge[(source, target)] = (
                GraphLocation(*fields[position : position + 4]),
                bool(fields[position + 4]),
            )
            position += 5

    return StorageLayout(
        intranode=intranode,
        superedge=superedge,
        boundaries=boundaries,
        new_to_old=new_to_old,
        domains=domains,
        super_adjacency=adjacency,
        index_files=manifest["index_files"],
        manifest=manifest,
    )


def read_regions(root: Path, index_files: list[str], regions):
    """Each ``(key, location)`` of ``regions`` with its payload bytes.

    Yields ``(key, location, payload)`` in the order given.  A payload
    file is read whole, past the devices' counters and any fault plan
    (as the pinned tables are), when the first region in it comes up,
    and is let go at the next file: regions in the linear order read
    each file once.  A region that runs past the end of its file comes
    back cut short; one whose file is missing or cannot be read comes
    back as ``None``.
    """
    current, data = None, None
    for key, location in regions:
        if location.file_index != current:
            current, data = location.file_index, None
            try:
                data = (root / index_files[current]).read_bytes()
            except (OSError, IndexError):
                pass
        end = location.offset + location.length
        yield key, location, None if data is None else data[location.offset : end]


def read_quarantine(root: Path | str) -> set[tuple]:
    """Regions quarantined by ``repro fsck --repair`` (empty when none).

    Entries are ``("intranode", supernode)`` and
    ``("superedge", source, target)`` tuples.
    """
    path = Path(root) / QUARANTINE_NAME
    if not path.exists():
        return set()
    try:
        entries = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise StorageError(f"quarantine list {path} is not valid JSON: {exc}") from exc
    return {tuple(entry) for entry in entries}


def write_quarantine(root: Path | str, regions: set[tuple]) -> None:
    """Persist the quarantine list (sorted, stable)."""
    path = Path(root) / QUARANTINE_NAME
    entries = sorted([list(region) for region in regions])
    path.write_text(json.dumps(entries, indent=2))
