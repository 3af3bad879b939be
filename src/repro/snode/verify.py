"""The offline check of a stored S-Node representation.

``verify_snode`` checks everything short of re-deriving the original Web
graph, over one read of the payload files:

1. **structure** — the PageID index starts at 0, never decreases and
   covers the manifest's pages; the new-id map is a permutation of the
   page ids; the index files exist and hold ``payload_bytes`` between
   them;
2. **regions**, walked in visit order (the intranode graph of supernode
   s, then its superedge graphs by target) — each region lies where the
   Figure-8 linear order puts it: where the previous one ended in the
   same file, or at offset 0 of the next file.  It is present and
   matches the CRC32 of its ``pointers.bin`` record and, when it does,
   decodes to the shape its supernodes give it: one row per page of an
   intranode graph, and a superedge graph's polarity and linked sources
   as the pointer table and its source supernode allow.

It is ``repro fsck``'s S-Node pass, run after the build-state and
file-table passes into fsck's own :class:`FsckReport`; ``repair``
quarantines the regions that failed their checksum or were cut short.
A region that decodes wrongly under a sound checksum is reported but
not quarantined: its bytes are the ones the build wrote.
"""

from __future__ import annotations

from pathlib import Path
from struct import error as struct_error

from repro.errors import ReproError
from repro.snode.encode import decode_intranode, decode_superedge_payload
from repro.snode.storage import (
    MANIFEST_NAME,
    NEWID_NAME,
    PAGEID_NAME,
    POINTERS_NAME,
    StorageLayout,
    read_layout,
    read_quarantine,
    read_regions,
    write_quarantine,
)
from repro.storage import integrity
from repro.storage.atomic import classify_build
from repro.storage.fsck import FsckReport


def verify_snode(
    root: Path | str, report: FsckReport | None = None, repair: bool = False
) -> FsckReport:
    """Check the representation stored under ``root``.

    Findings go to ``report`` (fsck's, when this is its S-Node pass) or
    to a new report of ``root``'s build state.  ``repair`` adds the
    regions that failed their checksum or were cut short to
    ``quarantine.json``.
    """
    root = Path(root)
    if report is None:
        report = FsckReport(str(root), scheme="s-node", state=classify_build(root))
    try:
        layout = read_layout(root)
    except (ReproError, OSError, ValueError, KeyError, struct_error) as exc:
        report.add("", f"layout unreadable: {exc}")
        return report

    _check_boundaries(layout, report)
    _check_files(root, layout, report)
    corrupt = _check_regions(root, layout, report)
    if repair and corrupt:
        write_quarantine(root, read_quarantine(root) | corrupt)
        report.repaired = sorted(list(region) for region in corrupt)
    return report


def _linear_regions(layout: StorageLayout):
    """Every ``(region, location)`` in visit order: the intranode graph of
    supernode s, then its superedge graphs by target."""
    for source, targets in enumerate(layout.super_adjacency):
        yield ("intranode", source), layout.intranode[source]
        for target in targets:
            yield ("superedge", source, target), layout.superedge[(source, target)][0]


def _check_boundaries(layout: StorageLayout, report: FsckReport) -> None:
    boundaries = layout.boundaries
    if boundaries[0] != 0:
        report.add(PAGEID_NAME, "PageID index does not start at 0")
    if any(b > a for a, b in zip(boundaries[1:], boundaries)):
        report.add(PAGEID_NAME, "PageID index is not non-decreasing")
    if boundaries[-1] != layout.manifest["num_pages"]:
        report.add(
            PAGEID_NAME,
            f"PageID index covers {boundaries[-1]} pages, manifest says "
            f"{layout.manifest['num_pages']}",
        )
    if sorted(layout.new_to_old) != list(range(layout.manifest["num_pages"])):
        report.add(NEWID_NAME, "new-id map is not a permutation of the page ids")


def _check_files(root: Path, layout: StorageLayout, report: FsckReport) -> None:
    """Every index file present, and ``payload_bytes`` between them.

    A file that already has a finding — fsck's file-table pass reports a
    missing or resized file first — is not reported again, and neither is
    the byte total it throws off.
    """
    reported = {finding.file for finding in report.findings}
    total = 0
    for name in layout.index_files:
        path = root / name
        if path.exists():
            total += path.stat().st_size
        elif name not in reported:
            report.add(name, "missing index file")
    if total != layout.manifest["payload_bytes"] and reported.isdisjoint(
        layout.index_files
    ):
        report.add(
            MANIFEST_NAME,
            f"index files hold {total} bytes, manifest says "
            f"{layout.manifest['payload_bytes']}",
        )


def _check_regions(root: Path, layout: StorageLayout, report: FsckReport) -> set[tuple]:
    """Walk every region in visit order: where Figure 8 puts it (where the
    previous one ended, in the same file or at offset 0 of the next one),
    present, matching its checksum and, when it does, decoding to a sound
    shape.  Returns the regions cut short or failing their checksum."""
    corrupt: set[tuple] = set()
    file_index, end = 0, 0
    regions = _linear_regions(layout)
    for region, location, payload in read_regions(root, layout.index_files, regions):
        where = (location.file_index, location.offset)
        if where != (file_index, end) and where != (file_index + 1, 0):
            report.add(
                POINTERS_NAME,
                f"{_label(region)} starts at file {where[0]} offset {where[1]}, "
                f"out of the linear order (file {file_index} offset {end})",
            )
        file_index, end = location.file_index, location.offset + location.length
        if payload is None:
            if location.file_index >= len(layout.index_files):
                report.add(
                    POINTERS_NAME,
                    f"{_label(region)} points at missing file {location.file_index}",
                )
            continue  # else its file is missing: a structure finding
        name = layout.index_files[location.file_index]
        report.regions_checked += 1
        if len(payload) != location.length:
            report.add(
                name, f"region truncated at offset {location.offset}", list(region)
            )
            corrupt.add(region)
            continue
        if integrity.crc32(payload) != location.crc:
            report.add(name, "payload CRC mismatch", list(region))
            corrupt.add(region)
            continue
        try:
            problem = _misshapen(layout, region, payload)
        except Exception as exc:  # noqa: BLE001 - a finding, not a crash
            problem = f"does not decode: {exc}"
        else:
            report.graphs_checked += 1
        if problem:
            report.add(name, problem, list(region))
    return corrupt


def _misshapen(layout: StorageLayout, region: tuple, payload: bytes) -> str | None:
    """Decode one region; what its shape gets wrong, if anything."""
    boundaries = layout.boundaries
    source = region[1]
    size = boundaries[source + 1] - boundaries[source]
    if region[0] == "intranode":
        rows = len(decode_intranode(payload))
        if rows != size:
            return f"has {rows} rows, supernode holds {size} pages"
        return None
    negative, linked, _rows = decode_superedge_payload(payload)
    if negative != layout.superedge[source, region[2]][1]:
        return "polarity flag disagrees with pointer table"
    if linked and linked[-1] >= size:
        return f"lists source local {linked[-1]} beyond supernode size {size}"
    return None


def _label(region: tuple) -> str:
    return f"{region[0]} {'->'.join(str(part) for part in region[1:])}"
