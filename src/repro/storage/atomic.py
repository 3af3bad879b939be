"""Atomic build protocol: tmp directory, fsync, manifest-last, rename.

Every builder (S-Node and all baselines) creates its on-disk layout
through a :class:`BuildTransaction`:

1. all files are written under ``<root>.tmp`` (each write flows through
   the fault-injection layer, so a crash-point sweep can kill the build
   at any write op);
2. the manifest is written **last**, carrying a ``files`` table (size +
   CRC32 per file) and a whole-build SHA-256 digest over that table;
3. commit fsyncs every payload file, fsyncs the tmp directory, renames
   ``<root>.tmp`` -> ``<root>`` and fsyncs the parent directory.

A crash therefore leaves one of three states, which
:func:`classify_build` distinguishes on reopen:

* ``"valid"``   — the rename happened; the manifest describes the build;
* ``"partial"`` — ``<root>.tmp`` exists but ``<root>`` has no manifest:
  the build died before its commit finished;
* ``"missing"`` — neither exists: nothing was ever built here.

A previously committed build at ``<root>`` survives every crash up to
and including the commit's fault-layer op.  After that op, commit
removes ``<root>`` and then renames ``<root>.tmp`` over it; a kill in
that window leaves only the complete ``<root>.tmp`` (manifest included),
which :func:`classify_build` reports as ``"partial"`` — the old build is
gone and the new one was never published.

**Mutation sidecars.**  A committed build served mutably grows a
``graph.wal`` write-ahead log (and transiently a ``graph.wal.new``
truncation staging file) *beside* its manifest — see
:mod:`repro.storage.wal`.  These are deliberately outside the manifest's
``files`` table (they mutate after commit, the table is immutable), so
:func:`classify_build` still reports ``"valid"``: validity is defined by
the manifest's presence, never by the absence of extra files.  Their
integrity is frame-checked by ``repro fsck``'s WAL pass instead.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

from repro.errors import StorageError
from repro.storage import faults, integrity

MANIFEST_NAME = "manifest.json"
TMP_SUFFIX = ".tmp"


def tmp_root(root: Path | str) -> Path:
    """The in-progress build directory for ``root``."""
    root = Path(root)
    return root.parent / (root.name + TMP_SUFFIX)


def fsync_file(path: Path | str) -> None:
    """fsync one file by path."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def fsync_dir(path: Path | str) -> None:
    """fsync a directory entry (durable renames/creates)."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_file(path: Path | str, data: bytes) -> int:
    """Write one whole file through the fault layer; returns its CRC32.

    The single choke point for builder file writes — torn writes and
    simulated crashes are injected here, and the returned CRC feeds the
    manifest's ``files`` table.
    """
    path = Path(path)

    def writer(chunk: bytes) -> None:
        with open(path, "wb") as handle:
            handle.write(chunk)
            handle.flush()

    faults.guarded_write(path, data, writer)
    return integrity.crc32(data)


def classify_build(root: Path | str) -> str:
    """``"valid"`` / ``"partial"`` / ``"missing"`` (see module docstring)."""
    root = Path(root)
    if (root / MANIFEST_NAME).exists():
        return "valid"
    if tmp_root(root).exists():
        return "partial"
    return "missing"


def require_build(root: Path | str, what: str = "build") -> None:
    """Raise a precise :class:`StorageError` unless ``root`` holds a build."""
    state = classify_build(root)
    if state == "partial":
        raise StorageError(
            f"partial {what} under {root}: an interrupted build left "
            f"{tmp_root(root).name} behind and no manifest was committed "
            "(rebuild, or remove the leftover directory)"
        )
    if state == "missing":
        raise StorageError(f"no {what} under {root}")


class BuildTransaction:
    """Write a build into ``<root>.tmp``, then atomically publish it.

    Files written through :meth:`write_file` are checksummed on the way
    down; files produced by page devices (heap, B+tree) are declared with
    :meth:`register` and checksummed from disk when the manifest is
    written.  :meth:`write_manifest` must be the last write, and
    :meth:`commit` publishes the directory.  On failure the tmp directory
    is deliberately left behind as the "partial build" marker.
    """

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        self.dir = tmp_root(self.root)
        self.files: dict[str, dict] = {}
        if self.dir.exists():
            shutil.rmtree(self.dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self._manifest_written = False
        self._committed = False

    def path(self, name: str) -> Path:
        """Absolute tmp path for relative file ``name``."""
        return self.dir / name

    def write_file(self, name: str, data: bytes) -> int:
        """Write ``name`` under the tmp root; returns and records its CRC."""
        crc = write_file(self.path(name), data)
        self.files[name] = {"bytes": len(data), "crc32": crc}
        return crc

    def register(self, name: str) -> None:
        """Declare a file written externally (e.g. through a page device).

        Its size and CRC are computed from disk at manifest time, after
        the device has finished writing.
        """
        self.files[name] = {}  # placeholder, filled by write_manifest

    def write_manifest(self, manifest: dict, name: str = MANIFEST_NAME) -> dict:
        """Write the manifest (last!), adding the files table and digest."""
        for file_name, entry in self.files.items():
            if not entry:
                path = self.path(file_name)
                entry["bytes"] = path.stat().st_size
                entry["crc32"] = integrity.file_crc(path)
        manifest = {
            **manifest,
            "files": self.files,
            "digest": integrity.build_digest(self.files),
        }
        write_file(self.path(name), json.dumps(manifest, indent=2).encode())
        self._manifest_written = True
        return manifest

    def commit(self) -> None:
        """fsync everything, then rename ``<root>.tmp`` -> ``<root>``.

        Counts as one write op in the fault layer's crash schedule — a
        crash "at the commit" happens before any destructive step, so an
        existing build at ``root`` survives it.  A kill between the
        ``rmtree`` of that build and the rename leaves only ``<root>.tmp``
        (see the module docstring).
        """
        if not self._manifest_written:
            raise StorageError("commit before manifest: write_manifest() first")
        faults.commit(self.root)
        for path in sorted(self.dir.iterdir()):
            fsync_file(path)
        fsync_dir(self.dir)
        if self.root.exists():
            shutil.rmtree(self.root)
        os.rename(self.dir, self.root)
        fsync_dir(self.root.parent)
        self._committed = True

    def __enter__(self) -> "BuildTransaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # On failure the tmp directory stays behind on purpose: it is the
        # evidence classify_build() reports as a partial build.
        if exc_type is None and not self._committed:
            raise StorageError("build transaction exited without commit()")
