"""The graph query daemon: concurrent Figure 11 queries over one store.

Architecture (the paper's runtime organization, made multi-client):

* **one shared store pair** — forward and transpose S-Node stores with
  their pinned supernode graphs and one byte-budgeted LRU buffer pool
  each, behind one lock, shared by every reader;
* **per-client sessions** — every connection gets its own pair of
  client views (:meth:`~repro.baselines.base.SNodeRepresentation.session`)
  wrapped in a :class:`~repro.query.engine.QueryEngine`, so its hits,
  misses, seeks and navigation timers are attributable to exactly that
  client while the cached graphs are shared by everyone;
* **asyncio frontend, thread-pool backend** — the event loop owns
  accept/read/write; query execution (decode-heavy, disk-touching) runs
  on a bounded worker pool;
* **admission control** — at most ``queue_limit`` requests may be in
  flight (running + queued).  Excess requests are not queued without
  bound and not errored: they receive an immediate typed
  ``backpressure`` reply, and well-behaved clients (the load generator)
  retry with backoff.  Overload therefore degrades throughput, never
  correctness.

**The inline rule.**  ``ping``, ``stats``, ``metrics`` and ``debug`` are
served on the event loop — they touch no disk and must stay responsive
under query overload (``stats``/``metrics`` are how an operator sees the
overload).  A ``neighbors`` lookup or a ``query`` is *tried in memory*
there, after the usual admission and deadline checks: the connection's
views answer from the buffer pools or raise
:class:`~repro.errors.NotResident` without reading a file, and a worker
hop costs several times a resident lookup.  A miss — a cold start, the
first requests after a swap or compaction, a buffer smaller than the
working set — hands the same execution to the worker pool, which keeps
what the attempt counted.  A lookup always tries (its miss comes at the
first graph, ~0.05 ms of opened spans against a read that costs twenty
times that); a query only when it carries no ``deadline_ms`` (the
deadline timer cannot fire while the loop executes) and its
connection's previous lookup or query loaded nothing (a connection
that is still loading would pay for most of a query before the miss).

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

**Hot store swap and compaction.**  ``swap`` (also SIGHUP in ``repro
serve``) and ``compact`` move the daemon onto a new store directory
pair without failing a request (:meth:`GraphQueryDaemon.swap_stores`);
connections rebuild their sessions lazily when they see the context
generation moved.

**Telemetry and tracing.**  Every frame becomes a
:class:`~repro.serve.telemetry.RequestRecord` (request id, phase
timings, outcome, session counter deltas) fed to the shared
:class:`~repro.serve.telemetry.ServeTelemetry` and echoed in the reply's
``server`` section; every executed request also runs under a
request-scoped tracer (:meth:`GraphQueryDaemon._execute_measured`) whose
span tree rides on the record into the telemetry's
:class:`~repro.obs.flightrecorder.FlightRecorder`, dumpable live via the
``debug`` op or at shutdown.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.baselines.base import RepresentationPair
from repro.errors import (
    BackpressureError,
    DeadlineError,
    NotResident,
    QueryError,
    ReproError,
    ServeError,
    StorageError,
)
from repro.experiments.harness import experiment_refinement_config
from repro.index.pagerank_index import PageRankIndex
from repro.index.textindex import TextIndex
from repro.obs import tracing
from repro.obs.flightrecorder import write_debug_bundle
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
from repro.snode.build import BuildOptions
from repro.snode.delta import DeltaOverlay
from repro.snode.pair import SNodePair
from repro.storage.fsck import fsck

#: Worker threads executing queries (each owns no state; engines are
#: per-connection, stores are shared).
DEFAULT_WORKERS = 8
#: Maximum requests in flight (running + queued) before shedding.
DEFAULT_QUEUE_LIMIT = 32
#: Shared buffer budget per direction (matches the Figure 11 bound).
DEFAULT_BUFFER_BYTES = 512 * 1024

_QUERY_NAMES = tuple(name for name, _fn in PAPER_QUERIES)

#: Forward and transpose directory names of a served pair; the WAL is
#: ``graph.wal`` beside the forward build.
SERVE_NAMES = ("serve_f", "serve_b")

_SWAP_WRONG_SIZE = "swap rejected: {0} holds {1} pages, serving repository has {2}"

#: How :meth:`GraphQueryDaemon._serve` runs an op (see ``_OPS``).
_INLINE, _ADMIN, _QUEUED = "inline", "admin", "queued"

#: What a failed request is answered and counted as, first match wins:
#: (exception types, wire error type, record outcome, DaemonCounters
#: field).  A deadline miss and a shed are the protocol working, not
#: failures; a malformed request and unreadable storage are the
#: request's fault; anything else is the server's.
_REQUEST_FAULTS = (QueryError, ServeError, StorageError, ValueError)
_FAILURES = (
    ((DeadlineError,), protocol.ERROR_TIMEOUT, "timeout", "requests_timeout"),
    ((BackpressureError,), protocol.ERROR_BACKPRESSURE, "backpressure", "requests_shed"),
    (_REQUEST_FAULTS, protocol.ERROR_BAD_REQUEST, "bad_request", "requests_failed"),
    ((Exception,), protocol.ERROR_SERVER, "server_error", "requests_failed"),
)


def store_options(buffer_bytes: int, refinement=None) -> BuildOptions:
    """How a served pair is built; ``refinement=None`` is the experiment default."""
    if refinement is None:
        refinement = experiment_refinement_config()
    return BuildOptions(refinement=refinement, buffer_bytes=buffer_bytes)


def _always(engine, deadline_ms) -> bool:
    """A lookup visits one supernode, so its miss comes first thing."""
    return True


def _when_unhurried_and_warm(engine, deadline_ms) -> bool:
    """The loop cannot time a deadline out while it executes, and a
    connection that is still loading would miss late, most of a query in."""
    return deadline_ms is None and not engine.loaded


def _expired(deadline_ms: float) -> DeadlineError:
    """The deadline miss the event loop itself detects (pre-admission, timer)."""
    return DeadlineError(f"deadline of {deadline_ms:g} ms expired; request abandoned")


class ClientEngine(RepresentationPair):
    """One connection's client views plus the engine reading through them."""

    def __init__(self, engine: QueryEngine, forward, backward, generation: int = 0) -> None:
        super().__init__(forward, backward)
        self.engine = engine
        #: The context generation the sessions were opened against; a hot
        #: store swap bumps the context's counter and connections rebuild
        #: their engine when the two disagree.
        self.generation = generation
        #: Whether the connection's previous lookup or query loaded a graph.
        self.loaded = False

    def bind(self, tracer: Tracer | None = None, memory_only: bool = False) -> None:
        """Both views, for one execution: their sessions charge ``tracer``'s
        open span (the stores' registries never: theirs is nobody's request),
        and ``memory_only`` reads raise :class:`~repro.errors.NotResident`
        instead of reading a file.  No argument undoes both."""
        for view in (self.forward, self.backward):
            view.metrics.tracer, view.memory_only = tracer, memory_only


class ServeContext:
    """Everything the daemon serves from: stores, indexes, repository.

    Holds the *shared* :class:`~repro.snode.pair.SNodePair` — which owns
    the store-pair lifecycle, the log and the overlays — next to what
    only serving knows: the text and PageRank indexes, how the stores
    were opened, whether writes are accepted, the swap generation and
    request validation.  :meth:`make_engine` stamps out the per-client
    side.
    """

    def __init__(
        self,
        repository,
        text_index,
        pagerank_index,
        pair: SNodePair,
        buffer_bytes: int = DEFAULT_BUFFER_BYTES,
        on_corruption: str = "raise",
    ) -> None:
        self.repository = repository
        self.text_index = text_index
        self.pagerank_index = pagerank_index
        self.pair = pair
        # Store-opening configuration, remembered so a hot swap opens
        # the replacement pair exactly the way the originals were.
        self.buffer_bytes = buffer_bytes
        self.on_corruption = on_corruption
        #: Bumped by every adopted store swap; connections compare it
        #: against their engine's generation and rebuild lazily.
        self.generation = 0
        #: Refinement config the stores were built with; compaction
        #: rebuilds with the same one (None -> the experiment default).
        self.refinement = None
        self.mutation_enabled = False
        self.compactions = 0
        self.last_compaction_generation = 0

    @property
    def forward(self):
        return self.pair.forward

    @property
    def backward(self):
        return self.pair.backward

    @classmethod
    def build(
        cls,
        repository,
        workdir: Path | str,
        buffer_bytes: int = DEFAULT_BUFFER_BYTES,
        refinement=None,
        on_corruption: str = "raise",
    ) -> "ServeContext":
        """Build forward + transpose S-Node stores and the indexes.

        ``refinement=None`` is the experiment default.  The builder's
        stores are closed as each is committed and the pair is reopened
        by :meth:`open` with ``buffer_bytes`` per direction.
        """
        options = store_options(buffer_bytes, refinement)
        SNodePair.commit(repository, workdir, options, SERVE_NAMES)
        context = cls.open(repository, workdir, buffer_bytes, on_corruption)
        context.refinement = refinement
        return context

    @classmethod
    def open(
        cls,
        repository,
        workdir: Path | str,
        buffer_bytes: int = DEFAULT_BUFFER_BYTES,
        on_corruption: str = "raise",
    ) -> "ServeContext":
        """Open committed ``serve_f``/``serve_b`` directories, no rebuild.

        The disk-only twin of :meth:`build`: each side must hold exactly
        the repository's pages; indexes are derived from the repository
        as usual.  Used by chaos fixtures (reopen a deliberately
        corrupted copy with ``on_corruption="degrade"``) and anywhere a
        store exists but the build-time state does not.
        """
        pair = SNodePair.open(
            workdir,
            SERVE_NAMES,
            buffer_bytes,
            on_corruption,
            num_pages=repository.num_pages,
        )
        return cls(
            repository,
            TextIndex(repository),
            PageRankIndex(repository),
            pair,
            buffer_bytes=buffer_bytes,
            on_corruption=on_corruption,
        )

    # -- mutable serving (WAL + delta overlay) -------------------------------

    def enable_mutation(self) -> dict:
        """Start serving mutably: open (or create) ``serve_f/graph.wal``,
        repair a torn tail, replay it
        (:meth:`~repro.snode.pair.SNodePair.open_log`)."""
        opened = self.pair.open_log()
        self.mutation_enabled = True
        return opened

    def apply_mutation(self, op: str, edges) -> dict:
        """Validate one edge batch, then log and fold it
        (:meth:`~repro.snode.pair.SNodePair.apply`).

        Must be called from the daemon's event loop (or any single
        writer): writes are serialized by construction.
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
        return self.pair.apply(op, checked)

    def mutation_stats(self) -> dict:
        """The ``mutation`` section of stats replies and gauge exports."""
        if not self.mutation_enabled:
            return {"enabled": False}
        overlay = self.forward.overlay
        return {
            "enabled": True,
            "wal_bytes": self.pair.wal.size_bytes(),
            "wal_records": overlay.records_applied,
            "delta_edges": overlay.edge_count,
            "overlay_rows": overlay.row_count,
            "compactions": self.compactions,
            "last_compaction_generation": self.last_compaction_generation,
        }

    def compact_build(self, overlay, workdir: Path | str) -> None:
        """Materialize base + ``overlay`` and build a fresh pair
        (:meth:`~repro.snode.pair.SNodePair.compact`).

        Runs off the event loop (heavy build I/O); the snapshot
        ``overlay`` must be frozen by the caller before new writes can
        interleave.
        """
        options = store_options(self.buffer_bytes, self.refinement)
        self.pair.compact(self.repository, overlay, workdir, options, SERVE_NAMES)

    # -- hot store swap ------------------------------------------------------

    def open_pair(self, workdir: Path | str) -> SNodePair:
        """Validate and open a fresh ``serve_f``/``serve_b`` pair.

        The pre-open validation of the swap protocol: each directory
        must be a committed, intact s-node build — build digest and
        whole-file CRCs via quick :func:`~repro.storage.fsck.fsck`
        (region CRCs are still verified lazily on every read) — holding
        the serving repository's page count.  Runs off the event loop
        (blocking I/O); returns the opened pair without touching the
        serving state — adoption is a separate, event-loop-confined
        step (:meth:`adopt`).
        """
        for name in SERVE_NAMES:
            root = Path(workdir) / name
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
        return SNodePair.open(
            workdir,
            SERVE_NAMES,
            self.buffer_bytes,
            self.on_corruption,
            num_pages=self.repository.num_pages,
            wrong_size=_SWAP_WRONG_SIZE,
        )

    def adopt(self, pair: SNodePair, absorbed_offset=None):
        """Switch to a new store pair; returns the old pair, still open,
        and what happened to the log (None on an immutable context).

        Must run on the daemon's event loop, between two awaits: the
        reference flip, the generation bump and — when mutation is
        enabled — the log hand-off
        (:meth:`~repro.snode.pair.SNodePair.take_over_log`) are then one
        atomic step for every coroutine, so a request sees the old pair
        with the old overlays or the new pair with the new ones, never a
        mix.  The caller drains in-flight work before closing the
        returned old pair.
        """
        old, self.pair = self.pair, pair
        self.generation += 1
        if not self.mutation_enabled:
            return old, None
        return old, pair.take_over_log(old, absorbed_offset)

    def make_engine(self, label: str) -> ClientEngine:
        """A per-client engine reading through fresh client views."""
        views = self.pair.session(label)
        return ClientEngine(
            self._engine(views), views.forward, views.backward, self.generation
        )

    def serial_engine(self) -> QueryEngine:
        """An engine on the shared (root) path — the serial baseline."""
        return self._engine(self.pair)

    def _engine(self, pair) -> QueryEngine:
        return pair.make_engine(self.repository, self.text_index, self.pagerank_index)

    def shared_totals(self) -> dict[str, dict[str, float]]:
        """Merged metrics (base + live sessions), per direction."""
        return self.pair.shared_totals()

    def buffer_stats(self) -> dict[str, dict[str, int]]:
        """Shared buffer-pool occupancy and hit counters, per direction."""
        return self.pair.buffer_stats()

    def close(self) -> None:
        """Close both shared stores."""
        self.pair.close()


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
    #: Lookups and queries answered on the event loop, from memory (see
    #: ``_serve``); the rest went through a worker.
    inline_replies: int = 0

    def as_dict(self) -> dict[str, int]:
        counts = asdict(self)
        # "backpressure_replies", not "requests_shed": the count varies
        # with thread interleaving, and a key containing "_s" would be
        # threshold-compared as a cost by bench-diff.
        counts["backpressure_replies"] = counts.pop("requests_shed")
        counts["writes_applied"] = counts.pop("writes")
        return counts


@dataclass
class GraphQueryDaemon:
    """Asyncio TCP daemon serving the Figure 11 workload."""

    context: ServeContext
    host: str = "127.0.0.1"
    port: int = 0
    workers: int = DEFAULT_WORKERS
    queue_limit: int = DEFAULT_QUEUE_LIMIT
    counters: DaemonCounters = field(default_factory=DaemonCounters)
    #: Shared telemetry sink; pass one with a fake clock to control
    #: windows, or with a flight recorder of your own (thresholds, JSONL
    #: trails) — its recorder is what the ``debug`` op and debug bundles
    #: dump.
    telemetry: ServeTelemetry = field(default_factory=ServeTelemetry)

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
        # Labels and ids the daemon hands out (event-loop confined).
        self._clients = (f"client-{n}" for n in itertools.count())
        self._rids = (f"srv-{n}" for n in itertools.count())
        self._traces = (f"srvtr-{n}" for n in itertools.count())
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
        self.counters.connections += 1
        label = next(self._clients)
        engine = self.context.make_engine(label)
        self.telemetry.connection_opened(label)
        clock = self.telemetry.clock
        try:
            while True:
                try:
                    raw = await protocol.read_frame_raw(reader)
                except ServeError as exc:
                    # No frame was accepted, so there is no request to
                    # record or count: say why and hang up.
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
                    request, undecodable = protocol.decode_payload(raw), None
                except ServeError as exc:
                    request, undecodable = None, exc
                record.phases["decode"] = clock() - accepted
                # A hot swap moved the context generation: rebuild the
                # engine on fresh sessions (between requests — never
                # mid-flight, requests are strictly sequential here).
                if engine.generation != self.context.generation:
                    engine.close()
                    engine = self.context.make_engine(label)
                await self._serve(
                    engine, request, record, accepted, writer, undecodable
                )
                if undecodable is not None:
                    break
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

    # -- the request pipeline ----------------------------------------------------

    async def _serve(
        self,
        engine: ClientEngine,
        request,
        record: RequestRecord,
        accepted: float,
        writer: asyncio.StreamWriter,
        undecodable: ServeError | None,
    ) -> None:
        """One accepted frame through the pipeline, reply included.

        Envelope, op table, handler; whatever goes wrong on the way is
        an exception, and result or exception meet in :meth:`_complete`.
        An admission slot is given back in the ``finally`` and nowhere
        else, once the execution is over — so before the reply says so.
        The exception is a deadline that fired mid-execution: the
        ``timeout`` reply leaves at once (or cannot — the peer may be
        gone), but the worker still runs, and neither the slot, nor the
        connection's next frame, nor its ``engine.close()`` may overtake
        it: strictly sequential requests per connection are what make
        counter attribution exact.
        """
        clock = self.telemetry.clock
        result = future = reply = failure = None
        # Read before anything can refuse the frame: every reply echoes it.
        request_id = request.get("id") if isinstance(request, dict) else None
        admitted = False
        try:
            try:
                kind, handler, tries = self._envelope(request, record, undecodable)
                if kind is _QUEUED:
                    deadline_ms = protocol.parse_deadline_ms(request)
                    deadline = self._admit(accepted, deadline_ms)
                    admitted = True
                    # One tracer per request, however often it executes.
                    tracer = Tracer()
                    call = (engine, handler, request, record, tracer, clock(), deadline)
                    answered = False
                    if tries(engine, deadline_ms):
                        # The executor hop costs more than a resident
                        # answer, so execute right here — same tracer,
                        # same counters, queue wait ~0 — with file
                        # reads forbidden.  Nothing else runs on the
                        # loop meanwhile, so no swap or timer can
                        # interleave.
                        try:
                            result = self._execute_measured(*call, memory_only=True)
                            answered = True
                            self.counters.inline_replies += 1
                        except NotResident:
                            # A worker starts over; what the attempt hit
                            # stays counted, but nothing has executed yet.
                            del record.phases["execute"]
                    if not answered:
                        future = asyncio.get_running_loop().run_in_executor(
                            self._executor, self._execute_measured, *call
                        )
                        self._active.add(future)
                        future.add_done_callback(self._active.discard)
                        result = await self._by_deadline(future, deadline, deadline_ms)
                else:
                    # No disk, no queue: measured as pure execute.
                    start = clock()
                    try:
                        result = handler(self, engine, request)
                        if kind is _ADMIN:
                            result = await result
                    finally:
                        record.phases["execute"] = clock() - start
            except Exception as exc:  # noqa: BLE001 — a bug must not kill the daemon
                failure = exc
            reply = self._complete(record, request_id, result, failure)
            if future is not None and not future.done():
                try:
                    await self._send(writer, reply, record)
                finally:
                    reply = None
                    with contextlib.suppress(Exception):
                        await future
        finally:
            if admitted:
                self._inflight -= 1
                engine.loaded = bool(record.counters.get("loads"))
        if reply is not None:
            await self._send(writer, reply, record)

    def _envelope(self, request, record: RequestRecord, undecodable):
        """Read rid, trace context and op off a frame; its op-table row.

        A frame that is not JSON (``undecodable`` is what the decoder
        said) or not an object still gets a request id and a trace id.
        """
        if not isinstance(request, dict):
            record.rid = next(self._rids)
            record.trace = next(self._traces)
            raise undecodable or ServeError("request frame must be an object")
        rid = request.get("rid")
        if isinstance(rid, (str, int)) and not isinstance(rid, bool):
            record.rid = str(rid)
        else:
            record.rid = next(self._rids)
        # Trace context: propagate the client's trace id when present
        # (lenient parse — unknown/malformed sections never fail the
        # request), else assign a server-side one.
        context = protocol.parse_trace_context(request)
        record.trace = context.trace_id or next(self._traces)
        record.parent = context.parent
        op = request.get("op")
        if isinstance(op, str):
            record.op = op
            if op in self._OPS:
                return self._OPS[op]
        raise ServeError(f"unknown op {op!r}")

    def _admit(self, accepted: float, deadline_ms: float | None) -> float | None:
        """Take an admission slot or raise; the absolute deadline, if any."""
        deadline = None
        if deadline_ms is not None:
            deadline = accepted + deadline_ms / 1000.0
            # Shed already-expired work before it ever takes a worker slot.
            if self.telemetry.clock() >= deadline:
                raise _expired(deadline_ms)
        # _inflight is only touched on the event loop, so the
        # check-then-increment is race-free without a lock.
        if self._inflight >= self.queue_limit:
            raise BackpressureError(
                f"{self._inflight} requests in flight (limit "
                f"{self.queue_limit}); retry later"
            )
        self._inflight += 1
        return deadline

    async def _by_deadline(self, future, deadline, deadline_ms):
        """The worker's answer, or a ``DeadlineError`` *at* the deadline.

        Deadline + one scheduling quantum is the contract.  The shield
        keeps the executor future alive past the timer: threads cannot
        be cancelled, only abandoned (:meth:`_serve` drains them).
        """
        if deadline is None:
            return await future
        try:
            return await asyncio.wait_for(
                asyncio.shield(future), max(0.0, deadline - self.telemetry.clock())
            )
        except asyncio.TimeoutError:
            raise _expired(deadline_ms) from None

    def _complete(self, record: RequestRecord, request_id, result, failure) -> dict:
        """The one place a request is answered, recorded and counted."""
        if failure is None:
            # A request served from quarantined regions answered, but an
            # operator must see it was not served whole.
            record.outcome = (
                "degraded" if record.counters.get("degraded_reads", 0) else "ok"
            )
            self.counters.requests_ok += 1
            return protocol.ok_reply(request_id, result, server=record.reply_view())
        for types, error_type, outcome, counter in _FAILURES:
            if isinstance(failure, types):
                break
        record.outcome = outcome
        record.error = str(failure)
        if not isinstance(failure, (ReproError, ValueError)):
            # Not an error this library raises on purpose: name the type,
            # the message alone ("0", "'page'") may say nothing.
            record.error = f"{type(failure).__name__}: {failure}"
        setattr(self.counters, counter, getattr(self.counters, counter) + 1)
        return protocol.error_reply(
            request_id, error_type, record.error, server=record.reply_view()
        )

    async def swap_stores(self, workdir, compact: bool = False) -> dict:
        """Move serving onto the store pair under ``workdir``; no request fails.

        The protocol, in order: **validate** the candidate directories
        off-loop (committed build, manifest digest + whole-file CRCs via
        quick fsck, matching page count) and open them cold; **flip**
        the context references and bump the generation — one atomic
        event-loop step (:meth:`ServeContext.adopt`), so every request
        sees either the old pair or the new pair; **drain** the executor
        futures that were in flight at the flip (they run against the
        old stores); **close** the old pair.  Pre-flip admissions
        complete on the old store, post-flip admissions run on the new
        one, and connections rebuild their sessions lazily on their next
        request.

        ``compact=True`` is online compaction — the pair is this
        daemon's own log folded into a fresh build first: **snapshot**
        the log on the event loop (no awaits between observing the
        offset and copying the records, so the snapshot is a frame-exact
        prefix even while writes keep arriving); **build** base +
        snapshot-overlay through the normal build pipeline off-loop
        under ``workdir``; then the protocol above, whose flip also
        moves the unabsorbed WAL suffix into the new build's log and
        replays it into fresh overlays.  Writes logged during the build are
        exactly that suffix — none are lost, none are double-applied.
        One swap at a time: a second one is refused, not queued.
        """
        if self._swap_lock is None:
            raise ServeError("daemon is not started")
        if self._swap_lock.locked():
            raise ServeError("a store swap is already in progress")
        async with self._swap_lock:
            context = self.context
            absorbed_offset = None
            if compact:
                if not context.mutation_enabled:
                    raise ServeError(
                        "compact requires mutation to be enabled on this daemon"
                    )
                snapshot, scan = DeltaOverlay.replay(context.pair.wal)
                await asyncio.to_thread(context.compact_build, snapshot, workdir)
                absorbed_offset = scan.good_bytes
            pair = await asyncio.to_thread(context.open_pair, workdir)
            # Snapshot-then-flip with no await between: the snapshot is
            # exactly the set of requests running against the old pair.
            pending = list(self._active)
            old_pair, mutation = context.adopt(pair, absorbed_offset)
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
            await asyncio.to_thread(old_pair.close)
            self.counters.store_swaps += 1
            result = {
                "swapped": True,
                "generation": context.generation,
                "drained": len(pending),
                "workdir": str(workdir),
            }
            if mutation is not None:
                result["mutation"] = mutation
            if compact:
                context.compactions += 1
                context.last_compaction_generation = context.generation
                result["compacted"] = True
                result["absorbed_records"] = len(scan.records)
                result["absorbed_bytes"] = scan.good_bytes
            return result

    # -- execution and op handlers (worker threads, or the loop when resident) --

    def _page(self, request: dict) -> int:
        """The request's ``page``, or the typed error for a bad one."""
        page = request.get("page")
        if not isinstance(page, int) or isinstance(page, bool):
            raise QueryError("neighbors op needs an integer 'page'")
        if not 0 <= page < self.context.repository.num_pages:
            raise QueryError(f"page {page} out of range")
        return page

    def _execute_measured(
        self,
        engine: ClientEngine,
        handler,
        request: dict,
        record: RequestRecord,
        tracer: Tracer,
        submitted: float,
        deadline: float | None = None,
        memory_only: bool = False,
    ):
        """Run a queued op's handler: queue-wait + execute spans, counters.

        ``tracer`` is the *request-scoped* tracer, charged by the
        connection's sessions and activated for this thread only: the
        root span is ``request.<op>``, navigation helpers add ``nav.*``
        children, and every span's counters are this connection's I/O —
        another worker's request can never leak into it.  The root spans
        ride on the request record into the flight recorder.
        ``memory_only`` is the loop's attempt (:meth:`ClientEngine.bind`).

        A request whose ``deadline`` passed while it waited in the queue
        is shed here, at queue exit, without executing — the second
        enforcement point after the pre-admission check (the event-loop
        timer covers the third, mid-execution, case).

        Run again after a memory-only miss, the phases are this run's
        (the attempt and the hop were queue wait), the attempt's
        ``request.<op>`` root span stays beside the new one, and the
        counters are what both moved.
        """
        clock = self.telemetry.clock
        begin = clock()
        record.phases["queue_wait"] = begin - submitted
        if deadline is not None and begin >= deadline:
            raise DeadlineError(
                f"deadline expired after {record.phases['queue_wait'] * 1e3:.1f} "
                "ms of queue wait; request shed unexecuted"
            )
        tracer.restart()
        engine.bind(tracer, memory_only)
        try:
            with tracing.activated(tracer):
                with tracer.span(f"request.{record.op}", rid=record.rid):
                    return handler(self, engine, request)
        finally:
            engine.bind()
            record.phases["execute"] = clock() - begin
            # Requests on one connection are strictly sequential, so
            # what its sessions counted while a root span was open is
            # exactly this request's I/O.  A copy of the roots: a worker
            # run after a miss adds its own to the tracer's list.
            record.roots = roots = tracer.roots[:]
            counters = dict.fromkeys(DELTA_COUNTERS, 0)
            for root in roots:
                for name, amount in root.counters.items():
                    if name in counters:
                        counters[name] += amount
            record.counters = counters

    def _ping(self, engine: ClientEngine, request: dict) -> dict:
        return {"pong": True}

    def _write(self, engine: ClientEngine, request: dict) -> dict:
        """``add_edges`` / ``remove_edges``.  Inline on the event loop: the
        WAL append + overlay fold must serialize with each other and
        with the swap/compaction flip, and the fsync *is* the op's cost.
        Deliberately absent from IDEMPOTENT_OPS: a lost reply retried
        blindly would double-apply a non-idempotent write.
        """
        result = self.context.apply_mutation(
            "add" if request["op"] == "add_edges" else "remove",
            request.get("edges"),
        )
        self.counters.writes += 1
        return result

    async def _swap(self, engine: ClientEngine, request: dict) -> dict:
        """The ``swap`` and ``compact`` admin ops (:meth:`swap_stores`)."""
        op, workdir = request["op"], request.get("workdir")
        if not isinstance(workdir, str) or not workdir:
            raise ServeError(f"{op} op needs a 'workdir' string")
        return await self.swap_stores(workdir, compact=op == "compact")

    def _query(self, engine: ClientEngine, request: dict) -> dict:
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
            "digest": protocol.canonical_digest(payload),
            "navigation_seconds": result.navigation_seconds,
        }

    def _neighbors(self, engine: ClientEngine, request: dict) -> dict:
        page = self._page(request)
        with engine.engine.navigation_timer("out_neighborhood"):
            row = engine.engine.forward.out_neighbors(page)
        return {"page": page, "neighbors": row}

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

    def _stats(self, engine: ClientEngine, request: dict) -> dict:
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

    def _snapshot(self) -> dict:
        """The telemetry snapshot with this daemon's gauges and storage."""
        return self.telemetry.snapshot(
            gauges=self._gauges(), storage=self.io_resilience()
        )

    def _metrics(self, engine: ClientEngine, request: dict) -> dict:
        """The ``metrics`` inline op: JSON snapshot or Prometheus text."""
        fmt = request.get("format")
        if fmt not in (None, "json", "text"):
            raise QueryError(
                f"metrics format must be 'json' or 'text', got {fmt!r}"
            )
        snapshot = self._snapshot()
        if fmt == "text":
            return {"text": render_prometheus(snapshot)}
        return snapshot

    # -- flight recorder / debug bundles ---------------------------------------

    def config_view(self) -> dict:
        """The serving configuration, as recorded in debug bundles."""
        recorder = self.telemetry.recorder
        return {
            "host": self.host,
            "port": self.port,
            "workers": self.workers,
            "queue_limit": self.queue_limit,
            "flight": {
                "slow_threshold_ms": recorder.slow_threshold_s * 1e3,
                "slow_top": recorder.slow_top,
            },
        }

    def _debug(self, engine: ClientEngine, request: dict) -> dict:
        """The ``debug`` inline op: every retained trace plus context.

        Returns the same material a shutdown debug bundle holds, so a
        client (``repro trace --dump``) can write a bundle from a live
        daemon without stopping it.
        """
        recorder = self.telemetry.recorder
        return {
            "flight": recorder.snapshot(),
            "traces": recorder.traces(),
            "slow": recorder.slow_entries(),
            "config": self.config_view(),
            "stats": self._snapshot(),
        }

    def dump_debug_bundle(self, directory) -> Path:
        """Write the flight recorder + stats/config as a debug bundle."""
        recorder = self.telemetry.recorder
        return write_debug_bundle(
            directory,
            recorder.traces(),
            stats=self._snapshot(),
            config=self.config_view(),
            slow_entries=recorder.slow_entries(),
        )

    #: The op table: op -> (kind, handler, when to try in memory).
    #: Every handler is ``handler(self, engine, request) -> result``; the
    #: kind is how :meth:`_serve` runs it.  ``_INLINE`` ops run on the
    #: event loop even under overload; ``_ADMIN`` handlers are coroutines
    #: awaited in place, one at a time under the swap lock; ``_QUEUED``
    #: ops sit behind deadline and admission and run on a worker — after
    #: a memory-only attempt on the loop when the third column,
    #: ``tries(engine, deadline_ms)``, says one is worth making.
    _OPS = {
        "ping": (_INLINE, _ping, None),
        "stats": (_INLINE, _stats, None),
        "metrics": (_INLINE, _metrics, None),
        "debug": (_INLINE, _debug, None),
        "add_edges": (_INLINE, _write, None),
        "remove_edges": (_INLINE, _write, None),
        "swap": (_ADMIN, _swap, None),
        "compact": (_ADMIN, _swap, None),
        "query": (_QUEUED, _query, _when_unhurried_and_warm),
        "neighbors": (_QUEUED, _neighbors, _always),
    }


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
