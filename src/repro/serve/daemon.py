"""The graph query daemon: concurrent Figure 11 queries over one store.

Architecture (the paper's runtime organization, made multi-client):

* **one shared store pair** — forward and transpose S-Node stores with
  their pinned supernode graphs and one byte-budgeted buffer pool each
  (lock-striped for concurrent readers);
* **per-client sessions** — every connection gets its own
  :class:`~repro.snode.store.ReadSession` pair wrapped in a
  :class:`~repro.query.engine.QueryEngine`, so its hits, misses, seeks
  and navigation timers are attributable to exactly that client while
  the cached graphs are shared by everyone;
* **asyncio frontend, thread-pool backend** — the event loop owns
  accept/read/write; query execution (decode-heavy, disk-touching) runs
  on a bounded worker pool;
* **admission control** — at most ``queue_limit`` requests may be in
  flight (running + queued).  Excess requests are not queued without
  bound and not errored: they receive an immediate typed
  ``backpressure`` reply, and well-behaved clients (the load generator)
  retry with backoff.  Overload therefore degrades throughput, never
  correctness.

``ping``, ``stats`` and ``metrics`` are served inline on the event loop
— they touch no disk and must stay responsive under query overload
(``stats``/``metrics`` are how an operator sees the overload).  A
``neighbors`` lookup joins them when the forward store says every graph
it reads is already buffered (a non-mutating residency probe, after the
usual admission and deadline checks): a worker hop costs several times
such an answer.  Anything not resident — a cold start, the first
lookups after a swap or compaction, a buffer smaller than the working
set — and every ``query`` takes the worker pool.

**Deadlines.**  A query/neighbors request may carry ``deadline_ms``
(:func:`repro.serve.protocol.parse_deadline_ms`), a budget measured
from frame acceptance and enforced at three points: already-expired
work is shed *before* admission (it never occupies a worker slot), a
worker sheds a request whose deadline passed while it sat in the queue,
and a request still executing at its deadline gets a typed ``timeout``
reply sent *at the deadline* while the abandoned execution drains in
the background (the connection's next frame is not read until it does,
preserving the strictly-sequential per-connection invariant that
per-request counter attribution depends on).

**Hot store swap.**  The ``swap`` admin op (also reachable via SIGHUP
in ``repro serve``) points the daemon at a freshly built store
directory pair: the directories are validated off-loop (committed
build, manifest digest, whole-file CRCs via quick fsck, matching page
count), opened cold, then the context flips atomically on the event
loop and in-flight requests drain against the old stores before they
close.  Requests admitted before the flip finish on the old store,
requests after it run on the new one; none fail.  Connections lazily
rebuild their sessions when they observe the context generation moved.

**Telemetry.**  Every frame becomes a
:class:`~repro.serve.telemetry.RequestRecord`: a request id (the
client's ``rid`` or a daemon-generated one), per-phase timings along
``accept -> decode -> queue-wait -> execute -> encode -> reply``, an
outcome (``ok | backpressure | bad_request | server_error | degraded |
timeout``)
and the session counter deltas the request caused.  Records feed the
shared :class:`~repro.serve.telemetry.ServeTelemetry` (windowed
histograms, outcome rates, access + slow-query logs) and are echoed to
the client in the reply's ``server`` section.

**Request tracing.**  Every request carries a trace id — the client's
propagated ``trace`` context (:func:`repro.serve.protocol.
parse_trace_context`), else a daemon-generated one — and every executed
request runs under a *request-scoped*
:class:`~repro.obs.tracing.Tracer` bound to the connection's session
pair: activation is contextvar-confined to the worker thread, the root
span is ``request.<op>``, navigation blocks open ``nav.<op>`` child
spans, and each span captures the session counter deltas it caused —
so "this request did 12 seeks" decomposes into *which* navigation did
them.  Finished traces (lifecycle record + span tree) go to the
:class:`~repro.obs.flightrecorder.FlightRecorder`, dumpable live via
the inline ``debug`` op or at shutdown via :meth:`GraphQueryDaemon.
dump_debug_bundle`.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import (
    DeadlineError,
    QueryError,
    ReproError,
    ServeError,
    StorageError,
)
from repro.obs import tracing
from repro.obs.flightrecorder import FlightRecorder, write_debug_bundle
from repro.obs.tracing import Tracer
from repro.query.engine import QueryEngine
from repro.query.workload import PAPER_QUERIES, run_query
from repro.serve import protocol
from repro.serve.telemetry import (
    DELTA_COUNTERS,
    RequestRecord,
    ServeTelemetry,
    render_prometheus,
)

#: Worker threads executing queries (each owns no state; engines are
#: per-connection, stores are shared).
DEFAULT_WORKERS = 8
#: Maximum requests in flight (running + queued) before shedding.
DEFAULT_QUEUE_LIMIT = 32
#: Buffer-pool lock stripes for the shared stores in serving mode.
DEFAULT_STRIPES = 8
#: Shared buffer budget per direction (matches the Figure 11 bound).
DEFAULT_BUFFER_BYTES = 512 * 1024

_QUERY_NAMES = tuple(name for name, _fn in PAPER_QUERIES)


@dataclass
class ClientEngine:
    """One connection's engine plus the sessions it reads through."""

    engine: QueryEngine
    forward: object  # SNodeSessionRepresentation
    backward: object
    #: The context generation the sessions were opened against; a hot
    #: store swap bumps the context's counter and connections rebuild
    #: their engine when the two disagree.
    generation: int = 0

    def io_stats(self) -> dict[str, dict[str, int]]:
        """This client's own counters, per direction."""
        return {
            "forward": self.forward.io_stats(),
            "backward": self.backward.io_stats(),
        }

    def snapshot(self) -> dict[str, float]:
        """Merged counters over both directions' sessions.

        This is the duck-typed registry face a request-scoped
        :class:`~repro.obs.tracing.Tracer` binds to — the tracer only
        snapshots and diffs, so span counter deltas attribute the
        connection's combined forward+backward I/O to each span.
        """
        totals: dict[str, float] = {}
        for stats in self.io_stats().values():
            for name, value in stats.items():
                totals[name] = totals.get(name, 0) + value
        return totals

    def close(self) -> None:
        """Fold both sessions' metrics back into the shared stores."""
        self.forward.close()
        self.backward.close()


class ServeContext:
    """Everything the daemon serves from: stores, indexes, repository.

    Owns the *shared* side (one forward + one transpose
    :class:`~repro.baselines.base.SNodeRepresentation`, the text and
    PageRank indexes); :meth:`make_engine` stamps out the per-client
    side.
    """

    def __init__(
        self,
        repository,
        text_index,
        pagerank_index,
        forward,
        backward,
        buffer_bytes: int = DEFAULT_BUFFER_BYTES,
        stripes: int = DEFAULT_STRIPES,
        on_corruption: str = "raise",
    ) -> None:
        self.repository = repository
        self.text_index = text_index
        self.pagerank_index = pagerank_index
        self.forward = forward
        self.backward = backward
        # Store-opening configuration, remembered so a hot swap opens
        # the replacement pair exactly the way the originals were.
        self.buffer_bytes = buffer_bytes
        self.stripes = stripes
        self.on_corruption = on_corruption
        #: Bumped by every adopted store swap; connections compare it
        #: against their engine's generation and rebuild lazily.
        self.generation = 0
        #: Refinement config the stores were built with; compaction
        #: rebuilds with the same one (None -> the experiment default).
        self.refinement = None
        # Mutable-serving state (enable_mutation): the WAL plus one
        # overlay per direction, both fed from the same log.
        self.wal = None
        self.overlay_forward = None
        self.overlay_backward = None
        self.mutation_enabled = False
        self.compactions = 0
        self.last_compaction_generation = 0

    @classmethod
    def build(
        cls,
        repository,
        workdir: Path | str,
        buffer_bytes: int = DEFAULT_BUFFER_BYTES,
        stripes: int = DEFAULT_STRIPES,
        refinement=None,
        on_corruption: str = "raise",
    ) -> "ServeContext":
        """Build forward + transpose S-Node stores and the indexes.

        The stores are reopened with ``stripes`` buffer-pool segments —
        the serving configuration; experiments that need the exact
        single-LRU eviction order open their own stores with the default
        ``stripes=1``.
        """
        from repro.baselines import SNodeRepresentation
        from repro.experiments.harness import experiment_refinement_config
        from repro.index.pagerank_index import PageRankIndex
        from repro.index.textindex import TextIndex
        from repro.snode.build import BuildOptions, build_snode
        from repro.snode.store import SNodeStore

        workdir = Path(workdir)
        refinement = (
            refinement if refinement is not None else experiment_refinement_config()
        )
        forward_build = build_snode(
            repository,
            workdir / "serve_f",
            BuildOptions(refinement=refinement, buffer_bytes=buffer_bytes),
        )
        backward_build = build_snode(
            repository,
            workdir / "serve_b",
            BuildOptions(
                refinement=refinement, buffer_bytes=buffer_bytes, transpose=True
            ),
        )
        if stripes != 1 or on_corruption != "raise":
            for build in (forward_build, backward_build):
                build.store.close()
                build.store = SNodeStore(
                    build.root,
                    buffer_bytes=buffer_bytes,
                    stripes=stripes,
                    on_corruption=on_corruption,
                )
        context = cls(
            repository,
            TextIndex(repository),
            PageRankIndex(repository),
            SNodeRepresentation(forward_build),
            SNodeRepresentation(backward_build),
            buffer_bytes=buffer_bytes,
            stripes=stripes,
            on_corruption=on_corruption,
        )
        context.refinement = refinement
        return context

    @classmethod
    def open(
        cls,
        repository,
        workdir: Path | str,
        buffer_bytes: int = DEFAULT_BUFFER_BYTES,
        stripes: int = DEFAULT_STRIPES,
        on_corruption: str = "raise",
    ) -> "ServeContext":
        """Open committed ``serve_f``/``serve_b`` directories, no rebuild.

        The disk-only twin of :meth:`build`: stores come off the
        committed directories via
        :meth:`~repro.baselines.base.SNodeRepresentation.open`, indexes
        are derived from the repository as usual.  Used by chaos
        fixtures (reopen a deliberately corrupted copy with
        ``on_corruption="degrade"``) and anywhere a store exists but the
        build-time state does not.
        """
        from repro.baselines import SNodeRepresentation
        from repro.index.pagerank_index import PageRankIndex
        from repro.index.textindex import TextIndex

        workdir = Path(workdir)
        forward = SNodeRepresentation.open(
            workdir / "serve_f",
            buffer_bytes=buffer_bytes,
            stripes=stripes,
            on_corruption=on_corruption,
        )
        backward = SNodeRepresentation.open(
            workdir / "serve_b",
            buffer_bytes=buffer_bytes,
            stripes=stripes,
            on_corruption=on_corruption,
        )
        context = cls(
            repository,
            TextIndex(repository),
            PageRankIndex(repository),
            forward,
            backward,
            buffer_bytes=buffer_bytes,
            stripes=stripes,
            on_corruption=on_corruption,
        )
        for representation in (forward, backward):
            if representation.num_pages != repository.num_pages:
                context.close()
                raise ServeError(
                    f"store under {workdir} holds "
                    f"{representation.num_pages} pages but the repository "
                    f"has {repository.num_pages}"
                )
        return context

    # -- mutable serving (WAL + delta overlay) -------------------------------

    def enable_mutation(self) -> dict:
        """Start serving mutably: open (or create) the WAL, replay it.

        The log lives beside the forward build's manifest
        (``serve_f/graph.wal``).  A torn tail — the residue of a crash
        mid-append — is repaired *before* anything else, so subsequent
        appends land on a clean frame boundary and every acknowledged
        write stays replayable.  The intact records rebuild one overlay
        per direction (the transpose overlay sees every edge flipped),
        and both attach to the live representations; sessions pick the
        overlay up dynamically.
        """
        from repro.snode.delta import DeltaOverlay
        from repro.storage.wal import GraphWal

        wal = GraphWal.for_build(self.forward.build.root)
        repaired = wal.repair_tail()
        scan = wal.scan()
        forward_overlay = DeltaOverlay()
        backward_overlay = DeltaOverlay(transpose=True)
        for record in scan.records:
            forward_overlay.apply_record(record)
            backward_overlay.apply_record(record)
        self.forward.attach_overlay(forward_overlay)
        self.backward.attach_overlay(backward_overlay)
        self.wal = wal
        self.overlay_forward = forward_overlay
        self.overlay_backward = backward_overlay
        self.mutation_enabled = True
        return {
            "wal_bytes": scan.good_bytes,
            "wal_records": len(scan.records),
            "repaired_bytes": repaired,
        }

    def apply_mutation(self, op: str, edges) -> dict:
        """Durably log one edge batch, then fold it into both overlays.

        The WAL append (CRC frame + fsync) happens *first*; only after
        it returns is the overlay touched and the caller answered —
        returning from here is the acknowledgement the crash-safety
        contract covers.  Must be called from the daemon's event loop
        (or any single writer): writes are serialized by construction.
        """
        if not self.mutation_enabled:
            raise ServeError(
                "mutation is not enabled on this daemon "
                "(start it with --mutable / enable_mutation())"
            )
        if not isinstance(edges, (list, tuple)) or not edges:
            raise ServeError(f"{op} needs a non-empty list of [source, target] pairs")
        checked: list[tuple[int, int]] = []
        for pair in edges:
            if (
                not isinstance(pair, (list, tuple))
                or len(pair) != 2
                or any(not isinstance(v, int) or isinstance(v, bool) for v in pair)
            ):
                raise ServeError(f"bad edge {pair!r}: expected [source, target]")
            source, target = pair
            for page in (source, target):
                if not 0 <= page < self.repository.num_pages:
                    raise ServeError(f"page {page} out of range")
            checked.append((source, target))
        wal_bytes = self.wal.append(op, checked)
        applied = self.overlay_forward.apply(op, checked)
        self.overlay_backward.apply(op, checked)
        return {
            "op": op,
            "edges_applied": applied,
            "wal_bytes": wal_bytes,
            "delta_edges": self.overlay_forward.edge_count,
        }

    def mutation_stats(self) -> dict:
        """The ``mutation`` section of stats replies and gauge exports."""
        if not self.mutation_enabled:
            return {"enabled": False}
        return {
            "enabled": True,
            "wal_bytes": self.wal.size_bytes(),
            "wal_records": self.overlay_forward.records_applied,
            "delta_edges": self.overlay_forward.edge_count,
            "overlay_rows": self.overlay_forward.row_count,
            "compactions": self.compactions,
            "last_compaction_generation": self.last_compaction_generation,
        }

    def compact_build(self, overlay, workdir: Path | str) -> None:
        """Materialize base + ``overlay`` and build a fresh pair.

        The base rows come from a *separate, overlay-free* open of the
        committed forward store — never from ``repository.graph``, which
        after one compaction lags the store — so chained compactions
        stay correct and the WAL remains the only non-durable truth.
        Runs off the event loop (heavy build I/O); the snapshot
        ``overlay`` must be frozen by the caller before new writes can
        interleave.
        """
        from repro.baselines import SNodeRepresentation
        from repro.experiments.harness import experiment_refinement_config
        from repro.snode.build import BuildOptions, build_snode
        from repro.snode.delta import merged_repository

        base = SNodeRepresentation.open(
            self.forward.build.root, buffer_bytes=self.buffer_bytes
        )
        try:
            repository = merged_repository(self.repository, base, overlay)
        finally:
            base.close()
        workdir = Path(workdir)
        refinement = (
            self.refinement
            if self.refinement is not None
            else experiment_refinement_config()
        )
        for name, transpose in (("serve_f", False), ("serve_b", True)):
            build = build_snode(
                repository,
                workdir / name,
                BuildOptions(
                    refinement=refinement,
                    buffer_bytes=self.buffer_bytes,
                    transpose=transpose,
                ),
            )
            build.store.close()

    def absorb_wal(self, absorbed_offset, forward, backward) -> dict:
        """Truncate the absorbed WAL prefix as part of a generation bump.

        Runs synchronously on the event loop right after :meth:`adopt`
        (between two awaits), so from every other coroutine's point of
        view the store flip and the log truncation are one atomic step.
        The unabsorbed suffix is carried into a fresh ``graph.wal``
        beside the adopted forward build (a restart on the new directory
        replays exactly the writes the new build lacks), replayed into
        fresh overlays, and attached to the new pair.  With
        ``absorbed_offset=None`` — an operator-initiated swap onto an
        independently rebuilt store — the whole log is treated as
        superseded.
        """
        from repro.snode.delta import DeltaOverlay
        from repro.storage.wal import GraphWal

        old_wal = self.wal
        if absorbed_offset is None:
            absorbed_offset = old_wal.scan().good_bytes
        new_wal = GraphWal.for_build(forward.build.root)
        carried_bytes = old_wal.carry_suffix_to(new_wal, absorbed_offset)
        forward_overlay, scan = DeltaOverlay.replay(new_wal)
        backward_overlay, _ = DeltaOverlay.replay(new_wal, transpose=True)
        forward.attach_overlay(forward_overlay)
        backward.attach_overlay(backward_overlay)
        self.wal = new_wal
        self.overlay_forward = forward_overlay
        self.overlay_backward = backward_overlay
        return {
            "absorbed_bytes": absorbed_offset,
            "carried_bytes": carried_bytes,
            "carried_records": len(scan.records),
        }

    # -- hot store swap ------------------------------------------------------

    def validate_store_dir(self, root: Path) -> None:
        """Reject ``root`` unless it is a committed, intact, matching build.

        The pre-open validation of the swap protocol: build digest and
        whole-file CRCs via quick :func:`~repro.storage.fsck.fsck`
        (region CRCs are still verified lazily on every read), page
        count against the serving repository.
        """
        from repro.storage.fsck import fsck

        report = fsck(root, quick=True)
        if not report.ok:
            problems = "; ".join(f.render() for f in report.findings[:3])
            raise ServeError(
                f"swap rejected: {root} failed validation "
                f"(state={report.state}) {problems}"
            )
        if report.scheme != "s-node":
            raise ServeError(
                f"swap rejected: {root} holds a {report.scheme} build, "
                "not an s-node store"
            )

    def open_pair(self, workdir: Path | str):
        """Validate and open a fresh ``serve_f``/``serve_b`` pair.

        Runs off the event loop (blocking I/O); returns the opened
        representations without touching the serving state — adoption
        is a separate, event-loop-confined step (:meth:`adopt`).
        """
        from repro.baselines import SNodeRepresentation

        workdir = Path(workdir)
        for name in ("serve_f", "serve_b"):
            self.validate_store_dir(workdir / name)
        opened = []
        try:
            for name in ("serve_f", "serve_b"):
                representation = SNodeRepresentation.open(
                    workdir / name,
                    buffer_bytes=self.buffer_bytes,
                    stripes=self.stripes,
                    on_corruption=self.on_corruption,
                )
                opened.append(representation)
                if representation.num_pages != self.repository.num_pages:
                    raise ServeError(
                        f"swap rejected: {workdir / name} holds "
                        f"{representation.num_pages} pages, serving "
                        f"repository has {self.repository.num_pages}"
                    )
        except BaseException:
            for representation in opened:
                representation.close()
            raise
        return opened[0], opened[1]

    def adopt(self, forward, backward):
        """Switch to a new store pair; returns the old pair, still open.

        Must run on the daemon's event loop: the reference flip plus the
        generation bump are one atomic step from every coroutine's point
        of view, so a dispatch either sees the old pair or the new pair,
        never a mix.  The caller drains in-flight work before closing
        the returned old pair.
        """
        old = (self.forward, self.backward)
        self.forward = forward
        self.backward = backward
        self.generation += 1
        return old

    def make_engine(self, label: str) -> ClientEngine:
        """A per-client engine reading through fresh sessions."""
        forward = self.forward.session(label=f"{label}/forward")
        backward = self.backward.session(label=f"{label}/backward")
        engine = QueryEngine(
            self.repository,
            self.text_index,
            self.pagerank_index,
            forward,
            backward,
            # The engine pushes its corruption policy down onto the
            # stores it reads; defaulting here would silently flip a
            # degrade-mode serving store back to raise.
            on_corruption=self.on_corruption,
        )
        return ClientEngine(
            engine=engine,
            forward=forward,
            backward=backward,
            generation=self.generation,
        )

    def serial_engine(self) -> QueryEngine:
        """An engine on the shared (root) path — the serial baseline."""
        return QueryEngine(
            self.repository,
            self.text_index,
            self.pagerank_index,
            self.forward,
            self.backward,
            on_corruption=self.on_corruption,
        )

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

    def close(self) -> None:
        """Close both shared stores."""
        self.forward.close()
        self.backward.close()


@dataclass
class DaemonCounters:
    """Daemon-level request accounting (event-loop confined)."""

    connections: int = 0
    requests_ok: int = 0
    requests_shed: int = 0
    requests_failed: int = 0
    requests_timeout: int = 0
    store_swaps: int = 0
    writes: int = 0
    #: Lookups answered on the event loop because every graph they read
    #: was buffered (see ``_dispatch``); the rest went through a worker.
    inline_replies: int = 0

    def as_dict(self) -> dict[str, int]:
        # "backpressure_replies", not "requests_shed": the count varies
        # with thread interleaving, and a key containing "_s" would be
        # threshold-compared as a cost by bench-diff.
        return {
            "connections": self.connections,
            "requests_ok": self.requests_ok,
            "backpressure_replies": self.requests_shed,
            "requests_failed": self.requests_failed,
            "requests_timeout": self.requests_timeout,
            "store_swaps": self.store_swaps,
            "writes_applied": self.writes,
            "inline_replies": self.inline_replies,
        }


@dataclass
class GraphQueryDaemon:
    """Asyncio TCP daemon serving the Figure 11 workload."""

    context: ServeContext
    host: str = "127.0.0.1"
    port: int = 0
    workers: int = DEFAULT_WORKERS
    queue_limit: int = DEFAULT_QUEUE_LIMIT
    counters: DaemonCounters = field(default_factory=DaemonCounters)
    #: Shared telemetry sink; pass one with a fake clock / log sinks to
    #: control windows and capture JSONL logs.
    telemetry: ServeTelemetry = field(default_factory=ServeTelemetry)
    #: Always-on retention of complete request traces (recent ring +
    #: slow top-K + errors); dumped by the ``debug`` op / debug bundles.
    flight: FlightRecorder = field(default_factory=FlightRecorder)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ServeError(f"workers must be >= 1, got {self.workers}")
        if self.queue_limit < 1:
            raise ServeError(
                f"queue_limit must be >= 1, got {self.queue_limit}"
            )
        self._server: asyncio.AbstractServer | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._inflight = 0
        self._next_client = 0
        self._next_rid = 0
        self._next_trace = 0
        # In-flight executor futures (event-loop confined); a store swap
        # snapshots this set to drain pre-swap work before closing the
        # old stores.
        self._active: set = set()
        self._swap_lock: asyncio.Lock | None = None

    @property
    def bound_port(self) -> int:
        """The actual listening port (after binding port 0)."""
        if self._server is None:
            raise ServeError("daemon is not started")
        return self._server.sockets[0].getsockname()[1]

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="serve-worker"
        )
        self._swap_lock = asyncio.Lock()
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )

    async def stop(self) -> None:
        """Stop accepting, drain workers, release the port."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    async def serve_forever(self) -> None:
        """Start (if needed) and serve until cancelled."""
        if self._server is None:
            await self.start()
        try:
            await self._server.serve_forever()
        finally:
            await self.stop()

    # -- connection handling ---------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        client_id = self._next_client
        self._next_client += 1
        self.counters.connections += 1
        label = f"client-{client_id}"
        engine = self.context.make_engine(label)
        self.telemetry.connection_opened(label)
        clock = self.telemetry.clock
        try:
            while True:
                try:
                    raw = await protocol.read_frame_raw(reader)
                except ServeError as exc:
                    with contextlib.suppress(Exception):
                        await protocol.write_frame(
                            writer,
                            protocol.error_reply(
                                None, protocol.ERROR_BAD_REQUEST, str(exc)
                            ),
                        )
                    break
                if raw is None:
                    break
                # Accept boundary: the frame's last byte has arrived.
                accepted = clock()
                record = RequestRecord(
                    rid="",
                    client=label,
                    op="invalid",
                    outcome="bad_request",
                    unix=self.telemetry.wall_clock(),
                )
                try:
                    request = protocol.decode_payload(raw)
                except ServeError as exc:
                    record.phases["decode"] = clock() - accepted
                    record.rid = self._generate_rid()
                    record.trace = self._generate_trace()
                    record.error = str(exc)
                    self.counters.requests_failed += 1
                    reply = protocol.error_reply(
                        None,
                        protocol.ERROR_BAD_REQUEST,
                        str(exc),
                        server=record.reply_view(),
                    )
                    await self._send(writer, reply, record)
                    break
                record.phases["decode"] = clock() - accepted
                # A hot swap moved the context generation: rebuild the
                # engine on fresh sessions (between requests — never
                # mid-flight, dispatches are strictly sequential here).
                if engine.generation != self.context.generation:
                    engine.close()
                    engine = self.context.make_engine(label)
                reply, pending = await self._dispatch(
                    engine, request, record, accepted
                )
                await self._send(writer, reply, record)
                if pending is not None:
                    # A deadline fired mid-execution: the timeout reply
                    # is out, but the abandoned work still occupies a
                    # worker slot and this connection's sessions.  Wait
                    # for it before reading the next frame — the
                    # strictly-sequential invariant per connection is
                    # what makes counter attribution exact.
                    with contextlib.suppress(Exception):
                        await pending
                    self._inflight -= 1
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self.telemetry.connection_closed(label)
            engine.close()
            writer.close()
            # CancelledError is a BaseException on 3.11: suppress it too,
            # or a shutdown mid-close logs a spurious task traceback.
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await writer.wait_closed()

    def _generate_rid(self) -> str:
        """A daemon-assigned request id (event-loop confined counter)."""
        rid = f"srv-{self._next_rid}"
        self._next_rid += 1
        return rid

    def _generate_trace(self) -> str:
        """A daemon-assigned trace id (event-loop confined counter)."""
        trace = f"srvtr-{self._next_trace}"
        self._next_trace += 1
        return trace

    async def _send(
        self, writer: asyncio.StreamWriter, reply: dict, record: RequestRecord
    ) -> None:
        """Encode and write one reply, measuring the last two phases.

        The record is folded into the telemetry whatever happens to the
        socket — a request the peer never read still ran.
        """
        clock = self.telemetry.clock
        try:
            start = clock()
            data = protocol.encode_frame(reply)
            encoded = clock()
            record.phases["encode"] = encoded - start
            writer.write(data)
            await writer.drain()
            record.phases["reply"] = clock() - encoded
        finally:
            self.telemetry.record(record)
            self.flight.record(record.trace_view())

    async def _dispatch(
        self,
        engine: ClientEngine,
        request,
        record: RequestRecord,
        accepted: float,
    ) -> tuple[dict, asyncio.Future | None]:
        """Route one decoded frame; returns (reply, still-draining future).

        The second element is non-None only when a deadline fired while
        the request was executing: the typed ``timeout`` reply goes out
        immediately, and the caller must await the abandoned future (and
        release its admission slot) before reading the connection's next
        frame.
        """
        clock = self.telemetry.clock
        if not isinstance(request, dict):
            record.rid = self._generate_rid()
            record.trace = self._generate_trace()
            record.error = "request frame must be an object"
            self.counters.requests_failed += 1
            return protocol.error_reply(
                None,
                protocol.ERROR_BAD_REQUEST,
                record.error,
                server=record.reply_view(),
            ), None
        rid = request.get("rid")
        if isinstance(rid, (str, int)) and not isinstance(rid, bool):
            record.rid = str(rid)
        else:
            record.rid = self._generate_rid()
        # Trace context: propagate the client's trace id when present
        # (lenient parse — unknown/malformed sections never fail the
        # request), else assign a server-side one.
        context = protocol.parse_trace_context(request)
        record.trace = context.trace_id or self._generate_trace()
        record.parent = context.parent
        request_id = request.get("id")
        op = request.get("op")
        if isinstance(op, str):
            record.op = op
        if op in ("ping", "stats", "metrics", "debug"):
            # Inline ops: no disk, no queue — measured as pure execute.
            start = clock()
            try:
                if op == "ping":
                    result = {"pong": True}
                elif op == "stats":
                    result = self._stats(engine)
                elif op == "debug":
                    result = self._debug()
                else:
                    result = self._metrics(request.get("format"))
            except QueryError as exc:
                record.phases["execute"] = clock() - start
                record.error = str(exc)
                self.counters.requests_failed += 1
                return protocol.error_reply(
                    request_id,
                    protocol.ERROR_BAD_REQUEST,
                    str(exc),
                    server=record.reply_view(),
                ), None
            record.phases["execute"] = clock() - start
            record.outcome = "ok"
            self.counters.requests_ok += 1
            return protocol.ok_reply(
                request_id, result, server=record.reply_view()
            ), None
        if op in ("add_edges", "remove_edges"):
            # Write ops run inline on the event loop: the WAL append +
            # overlay fold must serialize with each other and with the
            # swap/compaction flip, and the fsync *is* the op's cost.
            # Deliberately absent from IDEMPOTENT_OPS: a lost reply
            # retried blindly would double-apply a non-idempotent write.
            start = clock()
            try:
                result = self.context.apply_mutation(
                    "add" if op == "add_edges" else "remove",
                    request.get("edges"),
                )
            except (ServeError, StorageError) as exc:
                record.phases["execute"] = clock() - start
                record.error = str(exc)
                self.counters.requests_failed += 1
                return protocol.error_reply(
                    request_id,
                    protocol.ERROR_BAD_REQUEST,
                    str(exc),
                    server=record.reply_view(),
                ), None
            record.phases["execute"] = clock() - start
            record.outcome = "ok"
            self.counters.requests_ok += 1
            self.counters.writes += 1
            return protocol.ok_reply(
                request_id, result, server=record.reply_view()
            ), None
        if op == "swap":
            return await self._swap_op(request, record, request_id), None
        if op == "compact":
            return await self._compact_op(request, record, request_id), None
        if op not in ("query", "neighbors"):
            record.error = f"unknown op {op!r}"
            self.counters.requests_failed += 1
            return protocol.error_reply(
                request_id,
                protocol.ERROR_BAD_REQUEST,
                record.error,
                server=record.reply_view(),
            ), None
        try:
            deadline_ms = protocol.parse_deadline_ms(request)
        except ServeError as exc:
            record.error = str(exc)
            self.counters.requests_failed += 1
            return protocol.error_reply(
                request_id,
                protocol.ERROR_BAD_REQUEST,
                str(exc),
                server=record.reply_view(),
            ), None
        deadline = (
            None if deadline_ms is None else accepted + deadline_ms / 1000.0
        )
        # Shed already-expired work before it ever takes a worker slot.
        if deadline is not None and clock() >= deadline:
            return self._timeout_reply(request_id, record, deadline_ms), None
        # Admission control: _inflight is only touched on the event loop,
        # so the check-then-increment is race-free without a lock.
        if self._inflight >= self.queue_limit:
            self.counters.requests_shed += 1
            record.outcome = "backpressure"
            record.error = (
                f"{self._inflight} requests in flight (limit "
                f"{self.queue_limit}); retry later"
            )
            return protocol.error_reply(
                request_id,
                protocol.ERROR_BACKPRESSURE,
                record.error,
                server=record.reply_view(),
            ), None
        self._inflight += 1
        submitted = clock()
        future = None
        try:
            if op == "neighbors" and self._resident(engine, request):
                # Every graph the lookup reads is buffered: the executor
                # hop would cost more than the answer, so execute right
                # here — same tracer, same counter delta, queue wait ~0.
                # Nothing else runs on the loop meanwhile, so no swap or
                # timer can interleave; a graph evicted since the probe
                # is simply read here (one supernode's graphs at most).
                self.counters.inline_replies += 1
                result = self._execute_measured(
                    engine, op, request, record, submitted, deadline
                )
            else:
                future = asyncio.get_running_loop().run_in_executor(
                    self._executor,
                    self._execute_measured,
                    engine,
                    op,
                    request,
                    record,
                    submitted,
                    deadline,
                )
                self._active.add(future)
                future.add_done_callback(self._active.discard)
                if deadline is None:
                    result = await future
                else:
                    # The shield keeps the executor future alive past the
                    # timer: threads cannot be cancelled, only abandoned.
                    result = await asyncio.wait_for(
                        asyncio.shield(future), max(0.0, deadline - clock())
                    )
        except asyncio.TimeoutError:
            # Deadline fired mid-queue or mid-execute: the typed reply
            # goes out *now* (deadline + one scheduling quantum is the
            # contract); the caller drains the abandoned future and then
            # releases its admission slot.
            return self._timeout_reply(request_id, record, deadline_ms), future
        except DeadlineError as exc:
            # The worker shed it at queue exit — never executed.
            self._inflight -= 1
            return self._timeout_reply(
                request_id, record, deadline_ms, message=str(exc)
            ), None
        except (QueryError, ServeError, StorageError, ValueError) as exc:
            self._inflight -= 1
            record.outcome = "bad_request"
            record.error = str(exc)
            self.counters.requests_failed += 1
            return protocol.error_reply(
                request_id,
                protocol.ERROR_BAD_REQUEST,
                str(exc),
                server=record.reply_view(),
            ), None
        except ReproError as exc:
            self._inflight -= 1
            record.outcome = "server_error"
            record.error = str(exc)
            self.counters.requests_failed += 1
            return protocol.error_reply(
                request_id,
                protocol.ERROR_SERVER,
                str(exc),
                server=record.reply_view(),
            ), None
        except Exception as exc:  # noqa: BLE001 — a query bug must not kill the daemon
            self._inflight -= 1
            record.outcome = "server_error"
            record.error = f"{type(exc).__name__}: {exc}"
            self.counters.requests_failed += 1
            return protocol.error_reply(
                request_id,
                protocol.ERROR_SERVER,
                record.error,
                server=record.reply_view(),
            ), None
        self._inflight -= 1
        # A request served from quarantined regions answered, but an
        # operator must see it was not served whole.
        record.outcome = (
            "degraded" if record.counters.get("degraded_reads", 0) else "ok"
        )
        self.counters.requests_ok += 1
        return protocol.ok_reply(
            request_id, result, server=record.reply_view()
        ), None

    def _timeout_reply(
        self,
        request_id,
        record: RequestRecord,
        deadline_ms,
        message: str | None = None,
    ) -> dict:
        """Account and build one typed ``timeout`` reply."""
        record.outcome = "timeout"
        record.error = message or (
            f"deadline of {deadline_ms:g} ms expired; request abandoned"
        )
        self.counters.requests_timeout += 1
        return protocol.error_reply(
            request_id,
            protocol.ERROR_TIMEOUT,
            record.error,
            server=record.reply_view(),
        )

    # -- hot store swap ---------------------------------------------------------

    async def _swap_op(
        self, request: dict, record: RequestRecord, request_id
    ) -> dict:
        """The ``swap`` admin op: hot-swap onto a freshly built pair."""
        clock = self.telemetry.clock
        start = clock()
        workdir = request.get("workdir")
        try:
            if not isinstance(workdir, str) or not workdir:
                raise ServeError("swap op needs a 'workdir' string")
            result = await self.swap_stores(workdir)
        except (ServeError, StorageError) as exc:
            record.phases["execute"] = clock() - start
            record.error = str(exc)
            self.counters.requests_failed += 1
            return protocol.error_reply(
                request_id,
                protocol.ERROR_BAD_REQUEST,
                str(exc),
                server=record.reply_view(),
            )
        record.phases["execute"] = clock() - start
        record.outcome = "ok"
        self.counters.requests_ok += 1
        return protocol.ok_reply(request_id, result, server=record.reply_view())

    async def _compact_op(
        self, request: dict, record: RequestRecord, request_id
    ) -> dict:
        """The ``compact`` admin op: fold the WAL into a fresh build."""
        clock = self.telemetry.clock
        start = clock()
        workdir = request.get("workdir")
        try:
            if not isinstance(workdir, str) or not workdir:
                raise ServeError("compact op needs a 'workdir' string")
            result = await self.compact_stores(workdir)
        except (ServeError, StorageError) as exc:
            record.phases["execute"] = clock() - start
            record.error = str(exc)
            self.counters.requests_failed += 1
            return protocol.error_reply(
                request_id,
                protocol.ERROR_BAD_REQUEST,
                str(exc),
                server=record.reply_view(),
            )
        record.phases["execute"] = clock() - start
        record.outcome = "ok"
        self.counters.requests_ok += 1
        return protocol.ok_reply(request_id, result, server=record.reply_view())

    async def swap_stores(self, workdir) -> dict:
        """Hot-swap the serving stores onto the pair under ``workdir``.

        The protocol, in order: **validate** the candidate directories
        off-loop (committed build, manifest digest + whole-file CRCs via
        quick fsck, matching page count) and open them cold; **flip**
        the context references and bump the generation — one atomic
        event-loop step, so every dispatch sees either the old pair or
        the new pair; **drain** the executor futures that were in flight
        at the flip (they run against the old stores); **close** the old
        pair.  Requests never fail because of a swap: pre-flip
        admissions complete on the old store, post-flip admissions run
        on the new one, and connections rebuild their sessions lazily on
        their next request.
        """
        if self._swap_lock is None:
            raise ServeError("daemon is not started")
        if self._swap_lock.locked():
            raise ServeError("a store swap is already in progress")
        async with self._swap_lock:
            return await self._adopt_pair(workdir, absorbed_offset=None)

    async def compact_stores(self, workdir) -> dict:
        """Online compaction: fold the WAL into a fresh pair, then swap.

        The sequence: **snapshot** the log on the event loop (no awaits
        between observing the offset and copying the records, so the
        snapshot is a frame-exact prefix even while writes keep
        arriving); **build** base + snapshot-overlay through the normal
        build pipeline off-loop under ``workdir``; **adopt** via the
        same validate/flip/drain/close protocol as a hot swap, extended
        to truncate the absorbed WAL prefix and replay the unabsorbed
        suffix into fresh overlays inside the same generation bump.
        Writes logged during the build are exactly that suffix — none
        are lost, none are double-applied.
        """
        if self._swap_lock is None:
            raise ServeError("daemon is not started")
        if self._swap_lock.locked():
            raise ServeError("a store swap is already in progress")
        async with self._swap_lock:
            context = self.context
            if not context.mutation_enabled:
                raise ServeError(
                    "compact requires mutation to be enabled on this daemon"
                )
            from repro.snode.delta import DeltaOverlay

            scan = context.wal.scan()
            snapshot = DeltaOverlay()
            for entry in scan.records:
                snapshot.apply_record(entry)
            await asyncio.to_thread(context.compact_build, snapshot, workdir)
            result = await self._adopt_pair(
                workdir, absorbed_offset=scan.good_bytes
            )
            context.compactions += 1
            context.last_compaction_generation = context.generation
            result.update(
                {
                    "compacted": True,
                    "absorbed_records": len(scan.records),
                    "absorbed_bytes": scan.good_bytes,
                }
            )
            return result

    async def _adopt_pair(self, workdir, absorbed_offset) -> dict:
        """Validate, open, flip, drain, close — the shared adoption tail.

        Caller holds the swap lock.  When mutation is enabled, the WAL
        hand-off (:meth:`ServeContext.absorb_wal`) runs synchronously
        between the flip and the first await, so the generation bump,
        the prefix truncation and the overlay re-attachment are one
        atomic step for every coroutine.
        """
        forward, backward = await asyncio.to_thread(
            self.context.open_pair, workdir
        )
        # Snapshot-then-flip with no await between: the snapshot is
        # exactly the set of requests running against the old pair.
        pending = list(self._active)
        old_forward, old_backward = self.context.adopt(forward, backward)
        mutation = None
        if self.context.mutation_enabled:
            mutation = self.context.absorb_wal(
                absorbed_offset, forward, backward
            )
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        await asyncio.to_thread(old_forward.close)
        await asyncio.to_thread(old_backward.close)
        self.counters.store_swaps += 1
        result = {
            "swapped": True,
            "generation": self.context.generation,
            "drained": len(pending),
            "workdir": str(workdir),
        }
        if mutation is not None:
            result["mutation"] = mutation
        return result

    # -- request execution (worker threads) ------------------------------------

    def _session_counters(self, engine: ClientEngine) -> dict[str, int]:
        """Attributable session counters summed over both directions.

        Requests on one connection are strictly sequential (the read
        loop awaits each dispatch), so before/after differences of the
        connection's sessions are exactly this request's I/O.
        """
        forward = engine.forward.metrics.get
        backward = engine.backward.metrics.get
        return {name: forward(name) + backward(name) for name in DELTA_COUNTERS}

    def _resident(self, engine: ClientEngine, request: dict) -> bool:
        """Would this ``neighbors`` request be answered from the buffer?

        A non-mutating probe of the forward store (no LRU movement, no
        counter).  A malformed or out-of-range page answers False: the
        executor path owns validation and its typed errors.
        """
        page = request.get("page")
        if not isinstance(page, int) or isinstance(page, bool):
            return False
        if not 0 <= page < self.context.repository.num_pages:
            return False
        return engine.forward.is_resident(page)

    def _execute_measured(
        self,
        engine: ClientEngine,
        op: str,
        request: dict,
        record: RequestRecord,
        submitted: float,
        deadline: float | None = None,
    ):
        """Worker-thread wrapper: queue-wait + execute spans, counter deltas.

        Opens a *request-scoped* tracer bound to the connection's
        session pair and activates it for this worker thread only
        (contextvar confinement): the root span is ``request.<op>``,
        navigation helpers add ``nav.*`` children, and every span's
        counter delta is this connection's I/O — another worker's
        request can never leak into it.  The resulting span records ride
        on the request record into the flight recorder.

        A request whose ``deadline`` passed while it waited in the queue
        is shed here, at queue exit, without executing — the second
        enforcement point after the pre-admission check (the event-loop
        timer covers the third, mid-execution, case).
        """
        clock = self.telemetry.clock
        begin = clock()
        record.phases["queue_wait"] = begin - submitted
        if deadline is not None and begin >= deadline:
            raise DeadlineError(
                f"deadline expired after {record.phases['queue_wait'] * 1e3:.1f} "
                "ms of queue wait; request shed unexecuted"
            )
        before = self._session_counters(engine)
        tracer = Tracer(registry=engine)
        try:
            with tracing.activated(tracer):
                with tracer.span(f"request.{op}", rid=record.rid):
                    return self._execute(engine, op, request)
        finally:
            record.phases["execute"] = clock() - begin
            after = self._session_counters(engine)
            record.counters = {
                name: after[name] - before[name] for name in DELTA_COUNTERS
            }
            record.spans = tracer.span_records()

    def _execute(self, engine: ClientEngine, op: str, request: dict):
        if op == "query":
            name = request.get("name")
            if name not in _QUERY_NAMES:
                raise QueryError(
                    f"unknown paper query {name!r}; choose from {_QUERY_NAMES}"
                )
            result = run_query(engine.engine, name)
            payload = protocol.canonicalize(result.payload)
            return {
                "name": name,
                "payload": payload,
                "digest": protocol.payload_digest(result.payload),
                "navigation_seconds": result.navigation_seconds,
            }
        if op == "neighbors":
            page = request.get("page")
            if not isinstance(page, int) or isinstance(page, bool):
                raise QueryError("neighbors op needs an integer 'page'")
            if not 0 <= page < self.context.repository.num_pages:
                raise QueryError(f"page {page} out of range")
            with engine.engine.navigation_timer("out_neighborhood"):
                row = engine.engine.forward.out_neighbors(page)
            return {"page": page, "neighbors": row}
        raise ServeError(f"unhandled op {op!r}")  # pragma: no cover

    # -- stats / metrics (event loop; registries are internally locked) --------

    @property
    def queue_depth(self) -> int:
        """Admitted requests waiting for a worker (in flight - running)."""
        return max(0, self._inflight - self.workers)

    def io_resilience(self) -> dict[str, int]:
        """Storage-level retry and injected-fault counters, both stores.

        ``io_retries`` counts transient read errors
        (:class:`~repro.storage.faults.TransientIOError`) absorbed by
        the device layer's bounded retry loop; ``fault_*`` counters
        appear when a chaos :class:`~repro.storage.faults.FaultPlan` is
        active.  Summed over base + live-session registries of both
        shared stores, so retries are visible even though requests that
        needed one still succeeded.
        """
        totals: dict[str, int] = {"io_retries": 0}
        for direction in self.context.shared_totals().values():
            for name, value in direction.items():
                if name == "io_retries" or name.startswith("fault_"):
                    totals[name] = totals.get(name, 0) + int(value)
        return totals

    def _stats(self, engine: ClientEngine) -> dict:
        return {
            "client": engine.io_stats(),
            "shared": self.context.shared_totals(),
            # Per-direction pool pressure: capacity_bytes is the byte
            # budget, pinned_bytes the resident floor, used_bytes the
            # LRU occupancy (see BufferPool.stats()).
            "buffer": self.context.buffer_stats(),
            # Storage-layer resilience: absorbed retries + injected
            # faults (see io_resilience).
            "storage": self.io_resilience(),
            # Mutable-serving state: WAL size, pending delta, compaction
            # progress ({"enabled": False} on an immutable daemon).
            "mutation": self.context.mutation_stats(),
            "daemon": {
                **self.counters.as_dict(),
                "inflight": self._inflight,
                "queue_depth": self.queue_depth,
                "workers": self.workers,
                "queue_limit": self.queue_limit,
                "uptime_seconds": self.telemetry.uptime_seconds,
            },
        }

    def _gauges(self) -> dict:
        """Instantaneous daemon values merged into metrics snapshots."""
        gauges = {
            "inflight": self._inflight,
            "queue_depth": self.queue_depth,
            "queue_limit": self.queue_limit,
            "workers": self.workers,
            "connections_total": self.counters.connections,
            "inline_replies": self.counters.inline_replies,
        }
        for direction, stats in self.context.buffer_stats().items():
            for key in ("capacity_bytes", "used_bytes", "pinned_bytes"):
                gauges[f"buffer_{direction}_{key}"] = stats[key]
        if self.context.mutation_enabled:
            mutation = self.context.mutation_stats()
            for key in (
                "wal_bytes",
                "delta_edges",
                "overlay_rows",
                "compactions",
                "last_compaction_generation",
            ):
                gauges[key] = mutation[key]
        return gauges

    def _metrics(self, fmt) -> dict:
        """The ``metrics`` inline op: JSON snapshot or Prometheus text."""
        if fmt not in (None, "json", "text"):
            raise QueryError(
                f"metrics format must be 'json' or 'text', got {fmt!r}"
            )
        snapshot = self.telemetry.snapshot(
            gauges=self._gauges(), storage=self.io_resilience()
        )
        if fmt == "text":
            return {"text": render_prometheus(snapshot)}
        return snapshot

    # -- flight recorder / debug bundles ---------------------------------------

    def config_view(self) -> dict:
        """The serving configuration, as recorded in debug bundles."""
        return {
            "host": self.host,
            "port": self.port,
            "workers": self.workers,
            "queue_limit": self.queue_limit,
            "flight": {
                "slow_threshold_ms": self.flight.slow_threshold_s * 1e3,
                "slow_top": self.flight.slow_top,
            },
        }

    def _debug(self) -> dict:
        """The ``debug`` inline op: every retained trace plus context.

        Returns the same material a shutdown debug bundle holds, so a
        client (``repro trace --dump``) can write a bundle from a live
        daemon without stopping it.
        """
        return {
            "flight": self.flight.snapshot(),
            "traces": self.flight.traces(),
            "slow": self.telemetry.slow_log.top(),
            "config": self.config_view(),
            "stats": self.telemetry.snapshot(
                gauges=self._gauges(), storage=self.io_resilience()
            ),
        }

    def dump_debug_bundle(self, directory) -> Path:
        """Write the flight recorder + stats/config/slow log as a bundle."""
        return write_debug_bundle(
            directory,
            self.flight.traces(),
            stats=self.telemetry.snapshot(
                gauges=self._gauges(), storage=self.io_resilience()
            ),
            config=self.config_view(),
            slow_entries=self.telemetry.slow_log.top(),
        )


class DaemonHandle:
    """A daemon running on its own event-loop thread (tests, benchmarks)."""

    def __init__(self, daemon: GraphQueryDaemon) -> None:
        self.daemon = daemon
        self._started = threading.Event()
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._failure: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run, name="serve-daemon", daemon=True
        )

    def _run(self) -> None:
        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            try:
                await self.daemon.start()
            finally:
                self._started.set()
            try:
                await self._stop.wait()
            finally:
                await self.daemon.stop()

        try:
            asyncio.run(main())
        except BaseException as exc:  # noqa: BLE001 — surfaced by start()/stop()
            self._failure = exc
            self._started.set()

    def start(self, timeout: float = 30.0) -> "DaemonHandle":
        """Start the thread; returns once the daemon is listening."""
        self._thread.start()
        if not self._started.wait(timeout):
            raise ServeError("daemon did not start in time")
        if self._failure is not None:
            raise ServeError(f"daemon failed to start: {self._failure}")
        return self

    @property
    def port(self) -> int:
        """The daemon's bound port."""
        return self.daemon.bound_port

    def stop(self, timeout: float = 30.0) -> None:
        """Shut the daemon down and join its thread."""
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise ServeError("daemon did not shut down in time")
        if self._failure is not None:
            raise ServeError(f"daemon thread failed: {self._failure}")

    def __enter__(self) -> "DaemonHandle":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
