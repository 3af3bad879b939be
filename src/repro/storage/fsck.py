"""Offline verification (and repair) of any stored representation.

``repro fsck <root>`` inspects a build directory the way a filesystem
checker inspects a volume, without opening it for queries:

1. **build state** — :func:`repro.storage.atomic.classify_build`
   distinguishes a committed build from a leftover partial build or an
   empty directory;
2. **manifest** — the JSON must parse, its ``files`` table must match the
   directory (existence, size, whole-file CRC32) and the table must hash
   to the recorded build digest;
3. **mutation sidecars** — a build serving mutably carries a
   ``graph.wal`` write-ahead log beside its manifest
   (:mod:`repro.storage.wal`); the log is frame-scanned so a torn tail
   (crash mid-append) or a leftover truncation staging file is reported
   — and with ``--repair`` truncated/removed — while a build that
   merely *has* a delta layer stays ``valid``;
4. **region pass** — scheme-specific granular checks: for S-Node,
   :func:`repro.snode.verify.verify_snode` (the layout, then every
   intranode/superedge payload region against its ``pointers.bin`` CRC
   and, where that holds, decoded and shape-checked); every heap/B+tree
   page against its ``.crc`` sidecar; the Link3 block sidecar's frame
   integrity;
5. **repair** (opt-in) — ``--repair`` writes the S-Node regions that
   failed their CRC or were cut short to ``quarantine.json`` (a store
   opened with ``on_corruption="degrade"`` then serves every *other*
   region normally) and truncates torn WAL tails to the last intact
   record.

Findings are per file and per region, so an operator knows exactly what
was lost — and what was not.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ReproError
from repro.storage import atomic, integrity

#: Page size shared by the heap file and B+tree index files.
_PAGE_SIZE = 4096


@dataclass
class Finding:
    """One verified defect: which file, which region inside it, what."""

    file: str
    problem: str
    region: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"file": self.file, "region": self.region, "problem": self.problem}

    def render(self) -> str:
        where = self.file or "<build>"
        if self.region:
            where += f" [{' '.join(str(part) for part in self.region)}]"
        return f"{where}: {self.problem}"


@dataclass
class FsckReport:
    """Everything one fsck pass learned about a build directory."""

    root: str
    scheme: str = "unknown"
    state: str = "missing"
    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    regions_checked: int = 0
    #: S-Node graphs decoded by the region pass.
    graphs_checked: int = 0
    repaired: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when the build is committed and nothing failed a check."""
        return self.state == "valid" and not self.findings

    def add(self, file: str, problem: str, region: list | None = None) -> None:
        """Record one finding."""
        self.findings.append(Finding(file, problem, region or []))

    def to_dict(self) -> dict:
        return {
            "root": self.root,
            "scheme": self.scheme,
            "state": self.state,
            "ok": self.ok,
            "files_checked": self.files_checked,
            "regions_checked": self.regions_checked,
            "graphs_checked": self.graphs_checked,
            "findings": [finding.to_dict() for finding in self.findings],
            "repaired": self.repaired,
        }

    def render(self) -> str:
        lines = [
            f"fsck {self.root}: scheme={self.scheme} state={self.state} "
            f"files={self.files_checked} regions={self.regions_checked} "
            f"graphs={self.graphs_checked}"
        ]
        for finding in self.findings:
            lines.append(f"  PROBLEM {finding.render()}")
        for region in self.repaired:
            lines.append(f"  QUARANTINED {' '.join(str(p) for p in region)}")
        lines.append("clean" if self.ok else f"{len(self.findings)} problem(s) found")
        return "\n".join(lines)


def fsck(root: Path | str, repair: bool = False, quick: bool = False) -> FsckReport:
    """Verify the build under ``root``; optionally quarantine (S-Node).

    ``quick=True`` stops after the build-state, manifest and file-table
    passes (existence, size, whole-file CRC, build digest) and skips the
    per-region pass.  Whole-file CRCs already cover every payload byte,
    so quick mode proves integrity without region granularity — it is
    the validation the hot-swap protocol runs against a freshly built
    store directory before opening it, where a full region walk would
    stretch the swap window for no extra safety.
    """
    root = Path(root)
    report = FsckReport(root=str(root))
    report.state = atomic.classify_build(root)
    if report.state == "partial":
        report.add(
            "",
            f"interrupted build: {atomic.tmp_root(root).name} left behind, "
            "no manifest committed",
        )
        return report
    if report.state == "missing":
        report.add("", "no build here: no manifest and no in-progress directory")
        return report

    manifest_path = root / atomic.MANIFEST_NAME
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        report.add(atomic.MANIFEST_NAME, f"not valid JSON: {exc.msg}")
        return report

    report.scheme = (
        "s-node" if "index_files" in manifest else manifest.get("scheme", "unknown")
    )
    _check_file_table(root, manifest, report)
    # The WAL scan runs in quick mode too: it is one small sequential
    # read, and the hot-swap validation must reject a directory whose
    # log tail would silently swallow post-adoption appends.
    _check_wal_sidecar(root, report, repair)
    if quick:
        return report
    if report.scheme == "s-node":
        from repro.snode.verify import verify_snode

        verify_snode(root, report, repair)
    elif report.scheme == "relational":
        _check_page_sidecars(root, manifest, report)
    elif report.scheme == "link3":
        _check_link3_sidecar(root, report)
    return report


def _check_file_table(root: Path, manifest: dict, report: FsckReport) -> None:
    files = manifest.get("files")
    if not isinstance(files, dict):
        report.add(atomic.MANIFEST_NAME, "manifest has no files table")
        return
    if manifest.get("digest") != integrity.build_digest(files):
        report.add(
            atomic.MANIFEST_NAME,
            "build digest mismatch: manifest does not describe these files",
        )
    for name, entry in sorted(files.items()):
        path = root / name
        report.files_checked += 1
        if not path.exists():
            report.add(name, "missing")
            continue
        size = path.stat().st_size
        if size != entry["bytes"]:
            report.add(
                name, f"holds {size} bytes, manifest recorded {entry['bytes']}"
            )
            continue
        actual = integrity.file_crc(path)
        if actual != entry["crc32"]:
            report.add(
                name,
                f"whole-file CRC mismatch (recorded {entry['crc32']:#010x}, "
                f"computed {actual:#010x})",
            )


def _check_wal_sidecar(root: Path, report: FsckReport, repair: bool) -> None:
    """Frame-scan the mutation sidecars (``graph.wal`` + staging file).

    The WAL is *not* in the manifest's files table — it mutates after
    commit by design — so this pass is its only offline verification.
    Intact frames count as regions; a torn tail is a finding (and a
    ``--repair`` truncates it to the last intact record, exactly what
    replay would have ignored anyway).
    """
    from repro.storage.wal import GraphWal

    wal = GraphWal.for_build(root)
    staging = wal.staging_path
    if staging.exists():
        report.add(
            staging.name,
            "interrupted WAL truncation: staging file left behind "
            "(the main log is intact; safe to remove)",
        )
        if repair:
            staging.unlink()
            report.repaired.append([staging.name, "removed"])
    if not wal.path.exists():
        return
    report.files_checked += 1
    scan = wal.scan()
    report.regions_checked += len(scan.records)
    if scan.torn:
        report.add(
            wal.path.name,
            f"torn tail: {scan.torn_bytes} undecodable byte(s) after "
            f"{len(scan.records)} intact record(s) ({scan.good_bytes} bytes)",
            ["tail", scan.good_bytes],
        )
        if repair:
            removed = wal.repair_tail()
            report.repaired.append([wal.path.name, "tail", removed])


def _check_page_sidecars(root: Path, manifest: dict, report: FsckReport) -> None:
    files = manifest.get("files") or {}
    for name in sorted(files):
        if name.endswith(integrity.SIDECAR_SUFFIX) or not (
            name.endswith(".heap") or name.endswith(".btree")
        ):
            continue
        path = root / name
        if not path.exists():
            continue  # already reported
        try:
            stored = integrity.read_page_checksums(path)
        except ReproError as exc:
            report.add(name + integrity.SIDECAR_SUFFIX, str(exc))
            continue
        if stored is None:
            report.add(name, "page-checksum sidecar is missing")
            continue
        actual = integrity.page_checksums_of_file(path, _PAGE_SIZE)
        for page, (expected, computed) in enumerate(zip(stored, actual)):
            report.regions_checked += 1
            if expected != computed:
                report.add(name, "page CRC mismatch", ["page", page])
        if len(stored) != len(actual):
            report.add(
                name,
                f"sidecar covers {len(stored)} pages, file holds {len(actual)}",
            )


def _check_link3_sidecar(root: Path, report: FsckReport) -> None:
    payload_path = root / "link3.dat"
    sidecar = integrity.sidecar_path(payload_path)
    if not sidecar.exists():
        report.add(sidecar.name, "block-checksum sidecar is missing")
        return
    try:
        checksums = integrity.decode_page_checksums(sidecar.read_bytes())
    except ReproError as exc:
        report.add(sidecar.name, str(exc))
        return
    # Block offsets live only in the representation object, so the block
    # CRCs are re-verified online at load time; here the sidecar's own
    # frame plus the whole-file CRC (file-table pass) cover the payload.
    report.regions_checked += len(checksums)
