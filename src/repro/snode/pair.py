"""Both directions of one S-Node store, and everything done to both.

The paper builds representations "of the Web graph and its transpose
using each of the schemes" because half the complex queries navigate
backlinks.  :class:`SNodePair` is that idea for S-Node, once: it builds
or opens the forward (WG) and transpose (WGT) directories — both, or
neither — stamps out the per-client view pair, and owns the mutable
wiring: one :class:`~repro.storage.wal.GraphWal` beside the forward
build feeding one :class:`~repro.snode.delta.DeltaOverlay` per
direction, the transpose one seeing every edge flipped.  Directory
names are the only thing that differs between callers (``wg``/``wgt``
here, ``serve_f``/``serve_b`` under a daemon), so they are the only
parameter.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from repro.baselines.base import RepresentationPair, SNodeRepresentation
from repro.errors import ServeError
from repro.snode.build import BuildOptions, SNodeBuild, build_snode, open_snode
from repro.snode.delta import DeltaOverlay, merged_repository
from repro.snode.store import DEFAULT_BUFFER_BYTES
from repro.storage.wal import GraphWal, WalScan
from repro.webdata.corpus import Repository

#: Forward and transpose directory names under a pair's root.
DEFAULT_NAMES = ("wg", "wgt")

_WRONG_SIZE = "store under {0.parent} holds {1} pages but the repository has {2}"


def _build_side(repository, directory: Path, options, transposed: bool) -> SNodeBuild:
    """One direction of a pair: ``options`` with the direction set."""
    options = replace(options or BuildOptions(), transpose=transposed)
    return build_snode(repository, directory, options)


class SNodePair(RepresentationPair):
    """Forward (WG) + transpose (WGT) S-Node builds over one repository."""

    def __init__(self, forward: SNodeBuild, backward: SNodeBuild) -> None:
        super().__init__(SNodeRepresentation(forward), SNodeRepresentation(backward))
        self.forward_build = forward
        self.backward_build = backward
        #: The log both overlays are fed from (None while immutable).
        self.wal: GraphWal | None = None

    # -- lifecycle: both sides, or neither -------------------------------------

    @classmethod
    def _both(cls, side, root: Path | str, names) -> "SNodePair":
        """``side(directory, transposed)`` for the forward then the
        transpose directory; whatever fails on the second closes the first."""
        forward = side(Path(root) / names[0], False)
        try:
            backward = side(Path(root) / names[1], True)
        except BaseException:
            forward.store.close()
            raise
        return cls(forward, backward)

    @classmethod
    def build(
        cls,
        repository: Repository,
        root: Path | str,
        options: BuildOptions | None = None,
        names: tuple[str, str] = DEFAULT_NAMES,
    ) -> "SNodePair":
        """Build and commit both directions under ``root``, forward first.

        The same partition configuration drives both builds, matching the
        paper's protocol.
        """

        def side(directory: Path, transposed: bool) -> SNodeBuild:
            return _build_side(repository, directory, options, transposed)

        return cls._both(side, root, names)

    @classmethod
    def commit(
        cls,
        repository: Repository,
        root: Path | str,
        options: BuildOptions | None = None,
        names: tuple[str, str] = DEFAULT_NAMES,
    ) -> None:
        """:meth:`build` for whoever opens the pair its own way (a daemon's
        buffer budget, a compaction's swap): each side is closed as soon as
        it is committed, so the forward build — model, store, buffers — is
        not held while the transpose is built."""
        for name, transposed in zip(names, (False, True)):
            _build_side(repository, Path(root) / name, options, transposed).store.close()

    @classmethod
    def open(
        cls,
        root: Path | str,
        names: tuple[str, str] = DEFAULT_NAMES,
        buffer_bytes: int = DEFAULT_BUFFER_BYTES,
        on_corruption: str = "raise",
        num_pages: int | None = None,
        wrong_size: str = _WRONG_SIZE,
    ) -> "SNodePair":
        """Open two committed directories without rebuilding.

        With ``num_pages`` each side must hold exactly that many pages,
        or the ``ServeError`` is ``wrong_size.format(its directory, its
        pages, num_pages)``.
        """

        def side(directory: Path, transposed: bool) -> SNodeBuild:
            build = open_snode(
                directory, buffer_bytes=buffer_bytes, on_corruption=on_corruption
            )
            if num_pages is not None and build.store.num_pages != num_pages:
                build.store.close()
                raise ServeError(
                    wrong_size.format(directory, build.store.num_pages, num_pages)
                )
            return build

        return cls._both(side, root, names)

    def session(self, label: str) -> RepresentationPair:
        """One client's views of both stores
        (:meth:`~repro.baselines.base.SNodeRepresentation.session`)."""
        return RepresentationPair(
            self.forward.session(label=f"{label}/forward"),
            self.backward.session(label=f"{label}/backward"),
        )

    # -- reads and shared accounting -------------------------------------------

    def out_neighbors(self, page: int) -> list[int]:
        """Forward adjacency (repository ids)."""
        return self.forward.out_neighbors(page)

    def in_neighbors(self, page: int) -> list[int]:
        """Backlinks (repository ids)."""
        return self.backward.out_neighbors(page)

    def shared_totals(self) -> dict[str, dict[str, float]]:
        """Merged metrics (base + live sessions), per direction."""
        return {
            "forward": self.forward.store.metrics.merged_snapshot(),
            "backward": self.backward.store.metrics.merged_snapshot(),
        }

    def buffer_stats(self) -> dict[str, dict[str, int]]:
        """Shared buffer-pool occupancy and hit counters, per direction."""
        return {
            "forward": self.forward.store.buffer_stats(),
            "backward": self.backward.store.buffer_stats(),
        }

    # -- mutable serving: one log, two overlays --------------------------------

    def serve_log(self, wal: GraphWal) -> WalScan:
        """Scan ``wal`` once into a fresh overlay per direction, attach
        both, make the log this pair's write target; returns the scan.

        Torn tails are dropped by the scan and never become overlay
        state; client views pick the overlays up dynamically.
        """
        scan = wal.scan()
        overlays = DeltaOverlay(), DeltaOverlay(transpose=True)
        for record in scan.records:
            for overlay in overlays:
                overlay.apply_record(record)
        self.forward.attach_overlay(overlays[0])
        self.backward.attach_overlay(overlays[1])
        self.wal = wal
        return scan

    def open_log(self) -> dict:
        """Open (or create) the log beside the forward build and replay it.

        A torn tail — the residue of a crash mid-append — is repaired
        *before* anything else, so subsequent appends land on a clean
        frame boundary and every acknowledged write stays replayable.
        """
        wal = GraphWal.for_build(self.forward_build.root)
        repaired = wal.repair_tail()
        scan = self.serve_log(wal)
        return {
            "wal_bytes": scan.good_bytes,
            "wal_records": len(scan.records),
            "repaired_bytes": repaired,
        }

    def apply(self, op: str, edges) -> dict:
        """Durably log one edge batch, then fold it into both overlays.

        The WAL append (CRC frame + fsync) happens *first*; only after
        it returns are the overlays touched — returning from here is the
        acknowledgement the crash-safety contract covers.  One writer at
        a time (the daemon's event loop).
        """
        wal_bytes = self.wal.append(op, edges)
        applied = self.forward.overlay.apply(op, edges)
        self.backward.overlay.apply(op, edges)
        return {
            "op": op,
            "edges_applied": applied,
            "wal_bytes": wal_bytes,
            "delta_edges": self.forward.overlay.edge_count,
        }

    def take_over_log(self, old: "SNodePair", absorbed_offset: int | None) -> dict:
        """Continue ``old``'s log on this pair, which replaces it.

        The first ``absorbed_offset`` bytes of the old log are what this
        build already contains; the suffix behind them is carried into a
        fresh log beside this forward build (a restart on this directory
        replays exactly the writes the build lacks) and replayed into
        fresh overlays.  ``None`` — a pair built independently of the
        log — supersedes the whole of it.
        """
        if absorbed_offset is None:
            absorbed_offset = old.wal.scan().good_bytes
        wal = GraphWal.for_build(self.forward_build.root)
        carried_bytes = old.wal.carry_suffix_to(wal, absorbed_offset)
        scan = self.serve_log(wal)
        return {
            "absorbed_bytes": absorbed_offset,
            "carried_bytes": carried_bytes,
            "carried_records": len(scan.records),
        }

    def compact(
        self,
        repository: Repository,
        overlay: DeltaOverlay,
        root: Path | str,
        options: BuildOptions,
        names: tuple[str, str] = DEFAULT_NAMES,
    ) -> None:
        """Commit this pair's base + ``overlay`` as a fresh pair under ``root``.

        The base rows come from a *separate, overlay-free* open of the
        committed forward store — never from ``repository.graph``, which
        after one compaction lags the store — so chained compactions
        stay correct and the log remains the only non-durable truth.  A
        quarantined region reads as empty rows: rebuilding from them
        would commit the loss as a clean store, so a base that served
        any degraded row is refused before anything is built.
        """
        base = SNodeRepresentation.open(
            self.forward_build.root, buffer_bytes=options.buffer_bytes
        )
        try:
            merged = merged_repository(repository, base, overlay)
            degraded = base.degraded_reads
        finally:
            base.close()
        if degraded:
            raise ServeError(
                f"compaction refused: {degraded} reads of "
                f"{self.forward_build.root} were answered from quarantined "
                "regions, whose rows would be committed as empty"
            )
        self.commit(merged, root, options, names)
