"""The daemon's reply contract, as one table.

Every branch of the request path, driven over the wire against a real
daemon: what the client reads (``ok``, ``error.type``, ``error.message``,
``server.outcome``, which phases were measured, whose ``id``, request id
and trace id the reply carries), what the daemon counted
(:class:`~repro.serve.daemon.DaemonCounters` keys that moved) and what
telemetry recorded.  ``benchmarks/perf``, ``repro top`` and the
``--exact`` baselines read these values, so the expected rows are
literals: they were captured from the request path as it stood before it
became one pipeline, and only the ``compact_unwritable_workdir`` row —
a request that used to kill its connection without a reply — was written
by hand.
"""

from __future__ import annotations

import asyncio
import re
import shutil
import socket
import struct
import sys
import threading
import time
from contextlib import ExitStack
from pathlib import Path
from typing import NamedTuple

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "util"))
import cut_body  # noqa: E402

from repro.errors import GraphError, ServeError  # noqa: E402
from repro.serve import protocol  # noqa: E402
from repro.serve.daemon import DaemonHandle, GraphQueryDaemon, ServeContext  # noqa: E402
from repro.serve.loadgen import ServeClient  # noqa: E402
from repro.serve.telemetry import DELTA_COUNTERS, ServeTelemetry  # noqa: E402
from repro.snode.store import SNodeStore  # noqa: E402
from repro.storage import faults  # noqa: E402
from repro.storage.fsck import fsck  # noqa: E402
from repro.webdata.generator import GeneratorConfig, generate_web  # noqa: E402

QUEUE_LIMIT = 8


class Observed(NamedTuple):
    """One request, as the client, the counters and telemetry saw it."""

    ok: bool
    error_type: str | None
    #: A literal, or a pattern where the text carries a path or a timing.
    message: str | re.Pattern | None
    outcome: str
    phases: tuple[str, ...]
    #: DaemonCounters keys (``as_dict`` names) that moved, by how much.
    counters: dict[str, int]
    #: (op, outcome) of the RequestRecord telemetry folded in.
    recorded: tuple[str, str]
    #: (``id``, ``server.rid``, ``server.trace``), daemon-made numbers cut.
    ids: tuple


class RecordingTelemetry(ServeTelemetry):
    """Telemetry that also keeps the records, in arrival order."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.seen: list = []

    def record(self, record) -> None:
        super().record(record)
        self.seen.append(record)

    def wait_for(self, predicate, timeout: float = 10.0):
        """The first kept record satisfying ``predicate`` (polling)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            for record in list(self.seen):
                if predicate(record):
                    return record
            time.sleep(0.002)
        raise AssertionError("telemetry never recorded the request")


class Env:
    """One running daemon plus what a scenario needs to corner it."""

    def __init__(self, context, tmp_path, monkeypatch, stack, refinement, clock) -> None:
        self.context = context
        self.tmp_path = tmp_path
        self.monkeypatch = monkeypatch
        self.stack = stack
        self.refinement = refinement
        self.telemetry = RecordingTelemetry(**({"clock": clock} if clock else {}))
        self.daemon = GraphQueryDaemon(
            context,
            port=0,
            workers=2,
            queue_limit=QUEUE_LIMIT,
            telemetry=self.telemetry,
        )
        self.handle = stack.enter_context(DaemonHandle(self.daemon))
        self.client = stack.enter_context(ServeClient("127.0.0.1", self.handle.port))

    def _settle(self) -> None:
        """Order every set-up request before the snapshots of the next one."""
        self.client.request_ok("ping", rid="settle")
        self.telemetry.wait_for(lambda record: record.rid == "settle")
        self.telemetry.seen.clear()
        self.before = self.daemon.counters.as_dict()

    def send(self, op, **fields) -> dict:
        """The request under test (whatever came before it was set-up)."""
        self._settle()
        return self.client.request(op, **{"id": "echo-me", **fields})

    def send_raw(self, payload: bytes) -> dict:
        """The frame under test, as raw payload bytes on a fresh socket."""
        self._settle()
        with socket.create_connection(("127.0.0.1", self.handle.port), timeout=10) as sock:
            sock.sendall(struct.pack(">I", len(payload)) + payload)
            return protocol.recv_frame(sock)

    def on_loop(self, function):
        """Run ``function`` on the daemon's event loop, return its result."""

        async def call():
            return function()

        return asyncio.run_coroutine_threadsafe(call(), self.handle._loop).result(10)

    def cold_page(self) -> int:
        """A page with out-links, its graphs dropped from both pools."""
        self.context.forward.drop_caches()
        self.context.backward.drop_caches()
        graph = self.context.repository.graph
        return next(p for p in range(graph.num_vertices) if graph.successors_list(p))

    def fresh_edge(self) -> list[int]:
        """An edge the served graph does not hold."""
        pages = self.context.repository.num_pages
        row = set(self.context.forward.out_neighbors(0))
        return [0, next(t for t in range(pages - 1, 0, -1) if t not in row)]

    def path(self, name: str) -> str:
        return str(self.tmp_path / name)

    def patch_store_reads(self, replacement) -> None:
        """Route every store-level ``out_neighbors`` that may read a file
        through ``replacement`` (a memory-only attempt passes untouched)."""
        real = SNodeStore.out_neighbors

        def patched(store, page, registry=None, memory_only=False):
            if memory_only:
                return real(store, page, registry, memory_only)
            return replacement(lambda: real(store, page, registry=registry))

        self.monkeypatch.setattr(SNodeStore, "out_neighbors", patched)

    def park_workers(self) -> tuple[threading.Event, threading.Event]:
        """Workers stop before their first read: ``(parked, release)``.

        Released at the latest when the scenario's stack unwinds.
        """
        parked, release = threading.Event(), threading.Event()

        def wait_then_read(read):
            parked.set()
            assert release.wait(30)
            return read()

        self.patch_store_reads(wait_then_read)
        self.stack.callback(release.set)
        return parked, release


# -- scenarios that need more than one line -----------------------------------


def queue_full(env):
    def set_inflight(value):
        env.daemon._inflight = value

    env.on_loop(lambda: set_inflight(QUEUE_LIMIT))
    env.stack.callback(env.on_loop, lambda: set_inflight(0))
    return env.send("query", name="query1")


def worker_clock_runs_ahead():
    """A clock that is far in the future on worker threads only.

    The event loop admits the request with its budget intact; the worker
    that dequeues it reads a time past the deadline — the queue-exit
    shed, without racing the loop's own deadline timer.
    """

    def clock():
        on_worker = threading.current_thread().name.startswith("serve-worker")
        return time.monotonic() + (1000.0 if on_worker else 0.0)

    return clock


def shed_at_queue_exit(env):
    return env.send("query", name="query1", deadline_ms=60_000)


#: The test builds this scenario's daemon on that clock.
shed_at_queue_exit.clock = worker_clock_runs_ahead()


def mid_execution_timeout(env):
    """The worker is parked before its first read until the reply is in."""
    page = env.cold_page()
    parked, _release = env.park_workers()
    env.stack.callback(parked.wait, 10)
    return env.send("neighbors", page=page, deadline_ms=250)


def swap_while_swapping(env, op="swap"):
    lock = env.daemon._swap_lock
    asyncio.run_coroutine_threadsafe(lock.acquire(), env.handle._loop).result(10)
    env.stack.callback(env.on_loop, lock.release)
    return env.send(op, workdir=env.path("pair"))


def compact_unwritable_workdir(env):
    blocker = env.tmp_path / "a-file"
    blocker.write_text("not a directory")
    return env.send("compact", workdir=str(blocker / "pair"))


def worker_raises(env, error):
    page = env.cold_page()

    def boom(read):
        raise error

    env.patch_store_reads(boom)
    return env.send("neighbors", page=page)


def body_cut_short_under_a_sound_header(env):
    """The read and its checksum pass, the header parses, the rows do not."""
    store = env.context.forward.store
    (source, target), keep, local = cut_body.breakable_superedge(store)
    cut_body.truncate_region(store, (source, target), keep)
    env.context.forward.drop_caches()
    page = store.new_to_old[store.supernode_range(source)[0] + local]
    return env.send("neighbors", page=page)


def swap_ok(env):
    ServeContext.build(
        env.context.repository,
        env.tmp_path / "replacement",
        buffer_bytes=128 * 1024,
        refinement=env.refinement,
    ).close()
    return env.send("swap", workdir=env.path("replacement"))


def smaller_pair(tmp_path, refinement) -> str:
    """A committed, intact pair — of a repository 180 pages smaller."""
    smaller = generate_web(GeneratorConfig(num_pages=120, seed=17))
    ServeContext.build(smaller, tmp_path / "smaller", refinement=refinement).close()
    return str(tmp_path / "smaller")


def compact_ok(env):
    env.client.add_edges([env.fresh_edge()])
    return env.send("compact", workdir=env.path("compacted"))


def compact_over_quarantine(env):
    """Nothing is built, flipped or truncated; the old pair keeps serving."""
    edge = env.fresh_edge()
    env.client.add_edges([edge])
    wal_bytes = env.context.pair.wal.size_bytes()
    reply = env.send("compact", workdir=env.path("compacted"))
    assert not Path(env.path("compacted")).exists()
    assert (env.context.generation, env.context.compactions) == (0, 0)
    assert env.context.pair.wal.size_bytes() == wal_bytes
    assert edge[1] in env.context.forward.out_neighbors(edge[0])
    return reply


def neighbors_answered_inline(env):
    page = env.cold_page()
    env.client.request_ok("neighbors", page=page)
    return env.send("neighbors", page=page)


def query_through_a_worker(env):
    env.cold_page()
    return env.send("query", name="query1")


def warmed_query(env, name):
    """``name`` is resident and the connection's last read loaded nothing."""
    env.cold_page()
    for _ in range(2):
        env.client.request_ok("query", name=name)
    return name


def memory_only_miss_falls_back(env):
    """query3 walks out-links, then in-links: the attempt is served the
    forward graphs and misses on the first backward one."""
    name = warmed_query(env, "query3")
    env.context.backward.drop_caches()
    reply = env.send("query", name=name)
    assert reply["server"]["counters"]["loads"] > 0
    return reply


# -- the table ---------------------------------------------------------------

#: Where a scenario runs: the module's shared read-only context, or a
#: private one it may write to, swap or open over corrupted regions.
SHARED, PRIVATE, MUTABLE, CORRUPT_RAISE, CORRUPT_DEGRADE, QUARANTINED = range(6)

#: Which phases a reply's ``server.phases_us`` carries: every frame is
#: decoded; inline and admin ops add ``execute``; a queued op adds
#: ``queue_wait`` once a worker (or the inline rule) picks it up and
#: ``execute`` once it ran.
PARSED = ("decode",)
INLINE = ("decode", "execute")
UNEXECUTED = ("decode", "queue_wait")
QUEUED = ("decode", "execute", "queue_wait")


#: The ids of a reply: ``Env.send``'s own ``id`` echoed — a frame that is
#: not an object has none — beside a rid and a trace id made by the daemon.
SENT = ("echo-me", "srv-", "srvtr-")
RAW = (None, "srv-", "srvtr-")


def failure(kind, op, message, phases, counter="requests_failed", ids=SENT) -> Observed:
    """An error reply: wire type, outcome and recorded outcome are ``kind``."""
    return Observed(False, kind, message, kind, phases, {counter: 1}, (op, kind), ids)


def success(op, phases, outcome="ok", ids=SENT, **moved) -> Observed:
    """An answered request; ``moved`` are the counters beside ``requests_ok``."""
    counters = {"requests_ok": 1, **moved}
    return Observed(True, None, None, outcome, phases, counters, (op, outcome), ids)


# fmt: off
CONTRACT = [
    # -- the frame and its envelope
    ("non_object_frame", SHARED, lambda env: env.send_raw(b"[1, 2]"),
     failure("bad_request", "invalid", "request frame must be an object", PARSED,
             ids=RAW)),
    ("undecodable_frame", SHARED, lambda env: env.send_raw(b"{broken"),
     failure("bad_request", "invalid", re.compile(r"malformed frame payload: .+"), PARSED,
             ids=RAW)),
    ("unknown_op", SHARED, lambda env: env.send("frobnicate"),
     failure("bad_request", "frobnicate", "unknown op 'frobnicate'", PARSED)),
    ("op_not_a_string", SHARED, lambda env: env.send(7),
     failure("bad_request", "invalid", "unknown op 7", PARSED)),
    ("ids_from_the_client", SHARED,
     lambda env: env.send("ping", id=41, rid=7, trace={"id": "t-9", "parent": 3}),
     success("ping", INLINE, ids=(41, "7", "t-9"))),
    ("ids_the_daemon_cannot_use", SHARED,
     lambda env: env.send("frobnicate", id=[4], rid=True, trace={"id": 1.5}),
     failure("bad_request", "frobnicate", "unknown op 'frobnicate'", PARSED,
             ids=([4], "srv-", "srvtr-"))),
    # -- deadline and admission, in front of query / neighbors
    ("bad_deadline", SHARED,
     lambda env: env.send("query", name="query1", deadline_ms="soon"),
     failure("bad_request", "query",
             "deadline_ms must be a number of milliseconds, got 'soon'", PARSED)),
    ("negative_deadline", SHARED,
     lambda env: env.send("neighbors", page=0, deadline_ms=-1),
     failure("bad_request", "neighbors", "deadline_ms must be >= 0, got -1", PARSED)),
    ("expired_deadline", SHARED,
     lambda env: env.send("query", name="query1", deadline_ms=0),
     failure("timeout", "query", "deadline of 0 ms expired; request abandoned",
             PARSED, "requests_timeout")),
    ("queue_full", SHARED, queue_full,
     failure("backpressure", "query", "8 requests in flight (limit 8); retry later",
             PARSED, "backpressure_replies")),
    ("shed_at_queue_exit", SHARED, shed_at_queue_exit,
     failure("timeout", "query",
             re.compile(r"deadline expired after \d+\.\d ms of queue wait; "
                        r"request shed unexecuted"),
             UNEXECUTED, "requests_timeout")),
    ("mid_execution_timeout", SHARED, mid_execution_timeout,
     failure("timeout", "neighbors", "deadline of 250 ms expired; request abandoned",
             UNEXECUTED, "requests_timeout")),
    # -- what execution rejects or breaks on
    ("page_not_an_integer", SHARED, lambda env: env.send("neighbors", page="zero"),
     failure("bad_request", "neighbors", "neighbors op needs an integer 'page'", QUEUED)),
    ("page_is_a_bool", SHARED, lambda env: env.send("neighbors", page=True),
     failure("bad_request", "neighbors", "neighbors op needs an integer 'page'", QUEUED)),
    ("page_out_of_range", SHARED, lambda env: env.send("neighbors", page=10**9),
     failure("bad_request", "neighbors", "page 1000000000 out of range", QUEUED)),
    ("unknown_query_name", SHARED, lambda env: env.send("query", name="query99"),
     failure("bad_request", "query",
             "unknown paper query 'query99'; choose from "
             "('query1', 'query2', 'query3', 'query4', 'query5', 'query6')", QUEUED)),
    ("worker_raises_unexpectedly", SHARED,
     lambda env: worker_raises(env, RuntimeError("boom")),
     failure("server_error", "neighbors", "RuntimeError: boom", QUEUED)),
    ("worker_raises_library_error", SHARED,
     lambda env: worker_raises(env, GraphError("vertex out of range")),
     failure("server_error", "neighbors", "vertex out of range", QUEUED)),
    ("corrupt_region_under_raise", CORRUPT_RAISE,
     lambda env: env.send("query", name="query1"),
     failure("bad_request", "query",
             re.compile(r"intranode \d+: payload checksum mismatch in index_\d+\.dat at "
                        r"offset \d+ \(stored 0x[0-9a-f]{8}, read 0x[0-9a-f]{8}\)"),
             QUEUED)),
    # Captured like the rest, when the rows were decoded as the graph loaded.
    ("body_cut_short_under_a_sound_header", PRIVATE, body_cut_short_under_a_sound_header,
     failure("server_error", "neighbors", "read past end of bit stream", QUEUED)),
    ("corrupt_region_under_degrade", CORRUPT_DEGRADE,
     lambda env: env.send("query", name="query1"),
     success("query", QUEUED, outcome="degraded")),
    # -- inline, write and admin ops
    ("bad_metrics_format", SHARED, lambda env: env.send("metrics", format="xml"),
     failure("bad_request", "metrics",
             "metrics format must be 'json' or 'text', got 'xml'", INLINE)),
    ("write_on_immutable_daemon", SHARED,
     lambda env: env.send("add_edges", edges=[[0, 1]]),
     failure("bad_request", "add_edges",
             "mutation is not enabled on this daemon "
             "(start it with --mutable / enable_mutation())", INLINE)),
    ("edges_not_a_list", MUTABLE, lambda env: env.send("add_edges", edges="nope"),
     failure("bad_request", "add_edges",
             "add needs a non-empty list of [source, target] pairs", INLINE)),
    ("edge_not_a_pair", MUTABLE, lambda env: env.send("remove_edges", edges=[[1]]),
     failure("bad_request", "remove_edges",
             "bad edge [1]: expected [source, target]", INLINE)),
    ("edge_out_of_range", MUTABLE,
     lambda env: env.send("add_edges", edges=[[0, 10**9]]),
     failure("bad_request", "add_edges", "page 1000000000 out of range", INLINE)),
    ("swap_without_workdir", SHARED, lambda env: env.send("swap"),
     failure("bad_request", "swap", "swap op needs a 'workdir' string", INLINE)),
    ("compact_without_workdir", SHARED, lambda env: env.send("compact", workdir=7),
     failure("bad_request", "compact", "compact op needs a 'workdir' string", INLINE)),
    ("compact_without_mutation", SHARED,
     lambda env: env.send("compact", workdir=env.path("compacted")),
     failure("bad_request", "compact",
             "compact requires mutation to be enabled on this daemon", INLINE)),
    ("swap_while_swapping", SHARED, swap_while_swapping,
     failure("bad_request", "swap", "a store swap is already in progress", INLINE)),
    ("compact_while_swapping", SHARED, lambda env: swap_while_swapping(env, "compact"),
     failure("bad_request", "compact", "a store swap is already in progress", INLINE)),
    ("swap_onto_missing_directory", SHARED,
     lambda env: env.send("swap", workdir=env.path("nowhere")),
     failure("bad_request", "swap",
             re.compile(r"swap rejected: \S+/nowhere/serve_f failed validation "
                        r"\(state=missing\) <build>: no build here: no manifest and "
                        r"no in-progress directory"),
             INLINE)),
    ("swap_onto_wrong_sized_pair", SHARED,
     lambda env: env.send("swap", workdir=smaller_pair(env.tmp_path, env.refinement)),
     failure("bad_request", "swap",
             re.compile(r"swap rejected: \S+/smaller/serve_f holds 120 pages, "
                        r"serving repository has 300"),
             INLINE)),
    # The one row not captured: before the pipeline this request killed
    # its connection with no reply, no record and no counter.
    ("compact_unwritable_workdir", MUTABLE, compact_unwritable_workdir,
     failure("server_error", "compact",
             re.compile(r"NotADirectoryError: \[Errno 20\] Not a directory: "
                        r"'\S+/a-file/pair/serve_f\.tmp'"),
             INLINE)),
    # Added with the rule: rows read from quarantined regions are empty,
    # and a rebuild from them would commit the loss as a clean store.
    ("compact_over_quarantined_regions", QUARANTINED, compact_over_quarantine,
     failure("bad_request", "compact",
             re.compile(r"compaction refused: \d+ reads of \S+/chaos/serve_f were "
                        r"answered from quarantined regions, whose rows would be "
                        r"committed as empty"),
             INLINE)),
    # -- every op, answered
    ("ping_ok", SHARED, lambda env: env.send("ping"), success("ping", INLINE)),
    ("stats_ok", SHARED, lambda env: env.send("stats"), success("stats", INLINE)),
    ("metrics_json_ok", SHARED, lambda env: env.send("metrics"),
     success("metrics", INLINE)),
    ("metrics_text_ok", SHARED, lambda env: env.send("metrics", format="text"),
     success("metrics", INLINE)),
    ("debug_ok", SHARED, lambda env: env.send("debug"), success("debug", INLINE)),
    ("add_edges_ok", MUTABLE,
     lambda env: env.send("add_edges", edges=[env.fresh_edge()]),
     success("add_edges", INLINE, writes_applied=1)),
    ("remove_edges_ok", MUTABLE,
     lambda env: env.send("remove_edges", edges=[env.fresh_edge()]),
     success("remove_edges", INLINE, writes_applied=1)),
    ("swap_ok", PRIVATE, swap_ok, success("swap", INLINE, store_swaps=1)),
    ("compact_ok", MUTABLE, compact_ok, success("compact", INLINE, store_swaps=1)),
    ("query_ok", SHARED, query_through_a_worker, success("query", QUEUED)),
    ("query_answered_inline", SHARED,
     lambda env: env.send("query", name=warmed_query(env, "query1")),
     success("query", QUEUED, inline_replies=1)),
    # The reply a worker gave before requests were tried in memory.
    ("memory_only_miss_falls_back", SHARED, memory_only_miss_falls_back,
     success("query", QUEUED)),
    ("neighbors_through_a_worker", SHARED,
     lambda env: env.send("neighbors", page=env.cold_page()),
     success("neighbors", QUEUED)),
    ("neighbors_answered_inline", SHARED, neighbors_answered_inline,
     success("neighbors", QUEUED, inline_replies=1)),
]
# fmt: on


@pytest.fixture
def open_context(serve_context, tiny_repo, test_refinement_config, tmp_path):
    """``open_context(where)``: the context a scenario asked for."""
    with ExitStack() as stack:

        def build(root):
            return ServeContext.build(
                tiny_repo,
                root,
                buffer_bytes=128 * 1024,
                refinement=test_refinement_config,
            )

        def make(where):
            if where == SHARED:
                return serve_context
            if where in (PRIVATE, MUTABLE):
                context = build(tmp_path / "private")
                if where == MUTABLE:
                    context.enable_mutation()
            else:
                build(tmp_path / "pristine").close()
                for name in ("serve_f", "serve_b"):
                    shutil.copytree(tmp_path / "pristine" / name, tmp_path / "chaos" / name)
                    faults.corrupt_snode_regions(tmp_path / "chaos" / name, seed=29)
                    if where == QUARANTINED:
                        assert fsck(tmp_path / "chaos" / name, repair=True).repaired
                context = ServeContext.open(
                    tiny_repo,
                    tmp_path / "chaos",
                    buffer_bytes=128 * 1024,
                    on_corruption="raise" if where == CORRUPT_RAISE else "degrade",
                )
                if where == QUARANTINED:
                    context.enable_mutation()
            stack.callback(context.close)
            return context

        yield make


@pytest.mark.parametrize(
    "where, scenario, expected",
    [row[1:] for row in CONTRACT],
    ids=[row[0] for row in CONTRACT],
)
def test_reply_contract(
    where, scenario, expected, open_context, tmp_path, monkeypatch, test_refinement_config
):
    with ExitStack() as stack:
        env = Env(
            open_context(where),
            tmp_path,
            monkeypatch,
            stack,
            test_refinement_config,
            clock=getattr(scenario, "clock", None),
        )
        reply = scenario(env)
        record = env.telemetry.wait_for(lambda record: True)
        after = env.daemon.counters.as_dict()
    error = reply.get("error") or {}
    observed = Observed(
        ok=reply["ok"],
        error_type=error.get("type"),
        message=error.get("message"),
        outcome=reply["server"]["outcome"],
        phases=tuple(sorted(reply["server"]["phases_us"])),
        counters={
            key: after[key] - env.before[key]
            for key in after
            if key != "connections" and after[key] != env.before[key]
        },
        recorded=(record.op, record.outcome),
        ids=(
            reply["id"],
            re.sub(r"^(srv-)\d+$", r"\1", reply["server"]["rid"]),
            re.sub(r"^(srvtr-)\d+$", r"\1", reply["server"]["trace"]),
        ),
    )
    assert record.error == observed.message
    assert (record.rid, record.trace) == (reply["server"]["rid"], reply["server"]["trace"])
    if isinstance(expected.message, re.Pattern):
        assert expected.message.fullmatch(observed.message), observed.message
        expected = expected._replace(message=observed.message)
    assert observed == expected


def test_open_refuses_a_pair_of_the_wrong_size(tiny_repo, tmp_path, test_refinement_config):
    """Off the wire the refusal is worded for whoever opens a directory."""
    workdir = smaller_pair(tmp_path, test_refinement_config)
    with pytest.raises(ServeError) as refused:
        ServeContext.open(tiny_repo, workdir)
    assert str(refused.value) == (
        f"store under {tmp_path}/smaller holds 120 pages but the repository has 300"
    )


def test_timeout_reply_nobody_reads(serve_context, tmp_path, monkeypatch):
    """A deadline fires mid-execution and the peer is already gone.

    The reply cannot be written, but the abandoned execution still holds
    an admission slot and reads through the connection's sessions: the
    slot must come back and the sessions must stay open until the worker
    is done, or its reads vanish from the shared totals.
    """

    def attributable(directions) -> dict:
        return {
            name: sum(int(stats.get(name, 0)) for stats in directions.values())
            for name in DELTA_COUNTERS
        }

    with ExitStack() as stack:
        env = Env(serve_context, tmp_path, monkeypatch, stack, None, None)
        before = attributable(serve_context.shared_totals())
        victim = socket.create_connection(("127.0.0.1", env.handle.port), timeout=10)
        stack.callback(victim.close)
        protocol.send_frame(victim, {"op": "query", "name": "query1", "rid": "warm-up"})
        assert protocol.recv_frame(victim)["ok"] is True

        page = env.cold_page()
        parked, release = env.park_workers()
        protocol.send_frame(
            victim, {"op": "neighbors", "page": page, "deadline_ms": 200, "rid": "victim"}
        )
        assert parked.wait(10)
        # SO_LINGER 0: close() sends a reset, so the daemon's write of
        # the timeout reply fails instead of sitting in a socket buffer.
        victim.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        victim.close()
        abandoned = env.telemetry.wait_for(lambda record: record.rid == "victim")
        assert abandoned.outcome == "timeout"
        assert env.on_loop(lambda: env.daemon._inflight) == 1
        release.set()

        deadline = time.monotonic() + 10
        while env.on_loop(lambda: env.daemon._inflight) and time.monotonic() < deadline:
            time.sleep(0.005)
        assert env.client.stats()["daemon"]["inflight"] == 0
        warm_up = env.telemetry.wait_for(lambda record: record.rid == "warm-up")
        assert abandoned.counters["loads"] > 0  # it did read, after the reply
        after = attributable(serve_context.shared_totals())
        assert {name: after[name] - before[name] for name in DELTA_COUNTERS} == {
            name: warm_up.counters[name] + abandoned.counters[name]
            for name in DELTA_COUNTERS
        }
