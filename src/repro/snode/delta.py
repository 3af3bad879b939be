"""In-memory delta overlay making an immutable S-Node build mutable.

The committed build stays exactly as the paper describes it — write-once
regions, pinned supernode graph, CRC'd pages.  Mutations live beside it:
every acknowledged edge addition/deletion from the
:class:`~repro.storage.wal.GraphWal` is folded into a ``DeltaOverlay``,
and the read path (:class:`~repro.baselines.base.SNodeRepresentation`
and its per-client sessions) merges the overlay into each adjacency row
*after* the store's new->old id translation, so queries, sessions and
the daemon all see one logical graph in repository ids.

Structure (the Link3 delta idiom, promoted to the whole store): per
source, a set of **removed** targets and a set of **added** targets,
last-op-wins.  A merge is ``sorted((base - removed) | added)`` — the
same combine :func:`repro.util.deltacodec.apply_delta` performs for
Link3 reference rows.

Concurrency: writes are serialized by the daemon's event loop; readers
(worker threads) never lock.  Each write rebuilds the affected source's
frozen row pair and swaps the dict entry in one bytecode-atomic
assignment, so a concurrent reader sees either the old pair or the new
pair, never a half-built one.

Honest accounting: every merge that actually consults the overlay
charges ``delta_merges`` / ``delta_merge_edges`` to the *reading*
registry (the session's, for daemon connections), so BENCH numbers and
per-request attribution include the cost of mutability.  The counters
are deliberately not part of the serve conservation set — a base build
without an overlay must keep producing byte-identical reports.
"""

from __future__ import annotations

from repro.errors import StorageError
from repro.storage.wal import OP_ADD, OP_REMOVE, GraphWal, WalRecord, WalScan


class DeltaOverlay:
    """Pending edge mutations over one direction of a graph store.

    ``transpose=True`` flips every logged edge, so one WAL drives both
    the forward overlay and the transpose store's overlay.
    """

    def __init__(self, transpose: bool = False) -> None:
        self.transpose = transpose
        #: Writer-side truth: source -> {target: True(added)/False(removed)},
        #: last op wins.  Only ever touched under the writer's serialization
        #: (the daemon event loop).
        self._ops: dict[int, dict[int, bool]] = {}
        #: Reader-side rows: source -> (removed, added) frozen pairs.  Each
        #: write rebuilds one source's pair and swaps the entry atomically.
        self._rows: dict[int, tuple[frozenset, frozenset]] = {}
        self.records_applied = 0

    # -- write path (serialized by the caller) -------------------------------

    def apply(self, op: str, edges) -> int:
        """Fold one add/remove batch in; returns the edge count applied."""
        if op not in (OP_ADD, OP_REMOVE):
            raise StorageError(f"unknown overlay op {op!r}")
        added = op == OP_ADD
        count = 0
        touched: set[int] = set()
        for source, target in edges:
            if self.transpose:
                source, target = target, source
            self._ops.setdefault(int(source), {})[int(target)] = added
            touched.add(int(source))
            count += 1
        for source in touched:
            ops = self._ops[source]
            pair = (
                frozenset(t for t, was_add in ops.items() if not was_add),
                frozenset(t for t, was_add in ops.items() if was_add),
            )
            # One-assignment swap: readers see old or new, never a mix.
            self._rows[source] = pair
        self.records_applied += 1
        return count

    def apply_record(self, record: WalRecord) -> int:
        return self.apply(record.op, record.edges)

    @classmethod
    def replay(
        cls, wal: GraphWal, transpose: bool = False
    ) -> tuple["DeltaOverlay", WalScan]:
        """Rebuild an overlay from a log's intact prefix.

        Torn tails (unacknowledged writes) are dropped by the scan and
        never become overlay state — the phantom-free half of the WAL's
        crash contract.
        """
        overlay = cls(transpose=transpose)
        scan = wal.scan()
        for record in scan.records:
            overlay.apply_record(record)
        return overlay, scan

    # -- read path (lock-free) ----------------------------------------------

    def merge(self, source: int, row: list[int], registry=None) -> list[int]:
        """This source's logical row: base ``row`` with the delta folded in.

        Rows without pending mutations pass through untouched (and
        uncharged) — an overlay that exists but is empty costs a dict
        probe, nothing more.
        """
        pair = self._rows.get(source)
        if pair is None:
            return row
        removed, added = pair
        if registry is not None:
            registry.inc("delta_merges")
            registry.inc("delta_merge_edges", len(removed) + len(added))
        return sorted((set(row) - removed) | added)

    # -- introspection -------------------------------------------------------

    @property
    def edge_count(self) -> int:
        """Pending per-edge deltas (adds + removes, after last-op-wins)."""
        return sum(len(removed) + len(added) for removed, added in self._rows.values())

    @property
    def row_count(self) -> int:
        """Sources with at least one pending delta."""
        return len(self._rows)


def merged_repository(repository, base, overlay: DeltaOverlay):
    """A repository whose graph is ``base`` (a forward
    :class:`~repro.baselines.base.GraphRepresentation`) with ``overlay``
    folded in — the input compaction feeds back through the build
    pipeline.

    Reads the *stored* base rows, not ``repository.graph``: after one
    compaction the committed store is ahead of the original crawl graph,
    and chaining compactions from the store keeps the WAL the only
    source of truth for what is not yet durable.
    """
    from repro.graph.digraph import Digraph
    from repro.webdata.corpus import Repository

    rows: list[list[int]] = [[] for _ in range(base.num_pages)]
    for page, row in base.iterate_all():
        rows[page] = overlay.merge(page, row)
    return Repository(
        pages=repository.pages, graph=Digraph.from_adjacency(rows)
    )
