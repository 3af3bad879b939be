"""Concurrent serving benchmark: the Figure 11 mix over one shared store.

Boots the graph query daemon in-process (real TCP sockets, its own event
loop thread), drives it with the load generator at a configurable
concurrency, and checks three properties the serving refactor promises:

* **serial equivalence** — every concurrently-served query returns a
  payload whose canonical digest equals the serial baseline's, whatever
  the thread interleaving (``matches_serial``);
* **metric conservation** — the per-client session counters reported by
  each connection, summed, equal the growth of the shared stores' totals
  over the run (``metrics_conserved``) — nothing is lost or
  double-counted by session accounting;
* **graceful overload** — the default configuration offers more
  concurrency than the admission queue admits, so a healthy run *sheds*
  requests with typed backpressure replies (retried by the generator)
  and still answers every request (``requests_ok`` is exact);
* **request conservation** — the daemon's telemetry accounts for every
  frame the generator sent: per-op totals equal the client's
  ok + shed + failed counts, and the backpressure outcome count equals
  the client's retry count exactly (``requests_conserved``);
* **attribution conservation** — every reply echoes the request's exact
  session counter delta; summed per query name over the whole run, those
  per-request attributions must reproduce the session totals bit-for-bit
  (``attribution_conserved``) — so the tracing layer's "this request did
  those seeks" claims add up to the truth, with nothing lost or
  double-counted.  The per-op split is reported as the ``attribution``
  section (values vary with cache interleaving; only the conservation
  flag is deterministic).  Every reply must also echo the propagated
  trace id (``traces_propagated``).

After the reference run, an **overload sweep** drives the same daemon
configuration at an offered-concurrency ladder (at, past and far past
the admission limit) and emits per-level shed-rate and server-measured
queue-wait columns — the ``results.overload`` rows in
``BENCH_serve.json`` that plot saturation behaviour.

Then two resilience phases:

* **chaos sweep** — a corrupted *copy* of the store pair (one flipped
  byte in every intranode region) is served with
  ``on_corruption="degrade"`` under an activated
  :class:`~repro.storage.faults.FaultPlan` (transient EIOs + seeded
  slow reads) while the load generator attaches deadlines to every
  third request.  Gates: no request lost (``chaos_conserved``,
  ``chaos_zero_failed``), corruption answered as typed ``degraded``
  replies with quarantine counters moving (``chaos_degraded_served``,
  ``chaos_degraded_accounted``), deadlines honored under slow I/O
  (``chaos_deadline_honored``).
* **hot swap** — a second, freshly built store pair is swapped in via
  the ``swap`` admin op *while the load generator is mid-run*.  Gates:
  zero failed or dropped requests across the swap
  (``swap_zero_failed``, ``swap_conserved``), the swap actually
  happened (``swap_applied``) and every reply — before and after the
  flip — carries the serial baseline's digest
  (``swap_matches_serial``).

Wall-clock serving cost is ``benchmarks/perf``'s ``serve-warm`` and
``serve-mutate`` workloads, not this run: here only the overload ladder
reports (server-measured) queue waits.  Shed/timeout counts, hit rates
and the ``chaos_detail``/``swap_detail`` sections are
interleaving-dependent (CI ignores them); the digests,
``matches_serial``, ``metrics_conserved``, ``requests_conserved``,
``attribution_conserved``, ``traces_propagated``, ``requests_ok`` and
every ``chaos_*``/``swap_*`` boolean gate are deterministic and
CI-gated exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import shutil
import tempfile
import threading
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Iterable

from repro.errors import ServeError
from repro.experiments.harness import (
    add_report_arguments,
    add_trace_arguments,
    dataset,
    format_table,
    gate_and_report,
    sweep_sizes,
    trace_session,
)
from repro.obs import tracing
from repro.serve import protocol
from repro.serve.daemon import (
    DEFAULT_BUFFER_BYTES,
    SERVE_NAMES,
    DaemonHandle,
    GraphQueryDaemon,
    ServeContext,
    store_options,
)
from repro.serve.loadgen import DEFAULT_MIX, ServeClient, run_load
from repro.serve.telemetry import DELTA_COUNTERS
from repro.query.workload import run_query
from repro.snode.pair import SNodePair
from repro.storage import faults

DEFAULT_CONCURRENCY = 8
DEFAULT_REQUESTS_PER_CLIENT = 12
DEFAULT_WORKERS = 4
#: Below the default concurrency on purpose: a standard run exercises
#: admission control (sheds + retries) rather than only the happy path.
DEFAULT_QUEUE_LIMIT = 4


@dataclass(frozen=True)
class LoadShape:
    """How a serving benchmark loads its daemons, named once per run.

    Every phase reads it from its :func:`daemon_phase`: the daemon's
    workers and admission queue, the load generator's clients and
    requests per client, and the stores' buffer budget.
    """

    concurrency: int = DEFAULT_CONCURRENCY
    requests_per_client: int = DEFAULT_REQUESTS_PER_CLIENT
    workers: int = DEFAULT_WORKERS
    queue_limit: int = DEFAULT_QUEUE_LIMIT
    buffer_bytes: int = DEFAULT_BUFFER_BYTES


def add_load_arguments(parser, shape: LoadShape, requests_help: str) -> None:
    """A serving driver's load-shape flags, defaulting to ``shape``
    (read back by :func:`parsed_shape`)."""
    parser.add_argument("--buffer-kb", type=int, default=shape.buffer_bytes // 1024)
    parser.add_argument("--concurrency", type=int, default=shape.concurrency)
    parser.add_argument(
        "--requests", type=int, default=shape.requests_per_client,
        help=requests_help,
    )
    parser.add_argument("--workers", type=int, default=shape.workers)
    parser.add_argument("--queue-limit", type=int, default=shape.queue_limit)


def parsed_shape(arguments) -> LoadShape:
    """The shape :func:`add_load_arguments`' flags name."""
    return LoadShape(
        concurrency=arguments.concurrency,
        requests_per_client=arguments.requests,
        workers=arguments.workers,
        queue_limit=arguments.queue_limit,
        buffer_bytes=arguments.buffer_kb * 1024,
    )


#: Counters that sessions accumulate (everything else — evictions,
#: quarantines — charges the shared base registry by design).  The same
#: set the daemon attributes per request, so the per-request attribution
#: echoes can be conservation-checked against the session totals.
_ATTRIBUTABLE = DELTA_COUNTERS

#: Raw session counter -> report key for the ``attribution`` section.
#: Mirrors the ``counter_growth`` convention: the names carry no
#: bench-diff cost markers, because per-op splits vary with cache
#: interleaving and must never be threshold-compared as costs.
_ATTRIBUTION_KEYS = {
    "bytes_read": "bytes",
    "disk_seeks": "seek_count",
    "buffer_hits": "hits",
    "buffer_pinned_hits": "pinned_hits",
    "buffer_misses": "misses",
    "loads": "loads",
    "intranode_loads": "intranode",
    "superedge_loads": "superedge",
    "degraded_reads": "degraded",
}


def _report_keys(counters: dict) -> dict:
    """``counters`` under their :data:`_ATTRIBUTION_KEYS` report names."""
    return {
        _ATTRIBUTION_KEYS[name]: value
        for name, value in sorted(counters.items())
        if name in _ATTRIBUTION_KEYS
    }


def _counter_sums(directions: Iterable[dict]) -> dict[str, int]:
    """Attributable counters summed over per-direction counter dicts."""
    totals = {name: 0 for name in _ATTRIBUTABLE}
    for direction in directions:
        for name in _ATTRIBUTABLE:
            totals[name] += int(direction.get(name, 0))
    return totals


def _conservation(daemon: GraphQueryDaemon, load) -> tuple[bool, dict]:
    """Check the daemon's telemetry accounts for every frame sent.

    Five identities must hold whatever the thread interleaving:

    * telemetry's ``query`` op total equals the client-side frame count
      ok + degraded + shed + timeout + failed (every retry is its own
      frame);
    * the ``backpressure`` outcome total equals the client's retry count;
    * the ``degraded`` outcome total equals the client's count of
      answers served from quarantined regions;
    * the ``timeout`` outcome total equals the client's typed timeout
      replies;
    * whole (``ok``) outcomes equal the client's successful queries plus
      its non-query frames (the per-client ``stats`` call, a ``swap``).
    """
    snapshot = daemon.telemetry.snapshot()
    op_totals = {
        name: data["cumulative"]["count"]
        for name, data in snapshot["ops"].items()
        if not name.startswith("phase:")
    }
    outcome_totals = {
        name: data["total"] for name, data in snapshot["outcomes"].items()
    }
    query_frames = (
        load.requests_ok
        + load.requests_degraded
        + load.shed_retries
        + load.requests_timeout
        + load.requests_failed
    )
    other_frames = sum(
        total for name, total in op_totals.items() if name != "query"
    )
    conserved = (
        op_totals.get("query", 0) == query_frames
        and outcome_totals["backpressure"] == load.shed_retries
        and outcome_totals.get("degraded", 0) == load.requests_degraded
        and outcome_totals.get("timeout", 0) == load.requests_timeout
        and outcome_totals["ok"] == load.requests_ok + other_frames
    )
    return conserved, outcome_totals


def serial_digests(engine) -> dict[str, str]:
    """The Figure 11 mix's payload digests through ``engine``, in process."""
    return {
        name: protocol.payload_digest(run_query(engine, name).payload)
        for name in DEFAULT_MIX
    }


#: How long a phase's load runs before its mid-run admin op lands — long
#: enough that requests are in flight, short enough that plenty follow.
_MIDWAY_DELAY_S = 0.05


class _DaemonPhase:
    """One daemon's lifetime in a benchmark phase: admin ops and one load."""

    def __init__(self, daemon: GraphQueryDaemon, port: int, shape: LoadShape) -> None:
        self.daemon = daemon
        self.port = port
        self.shape = shape
        self.load = None

    def admin(self, call):
        """``call(client)`` on a connection of its own."""
        with ServeClient("127.0.0.1", self.port) as client:
            return call(client)

    def run_load(self, midway=None, **options):
        """Drive the Figure 11 mix at the phase's shape; with ``midway``,
        on a thread while that admin call lands mid-run — its result is
        returned."""

        def drive() -> None:
            self.load = run_load(
                "127.0.0.1",
                self.port,
                concurrency=self.shape.concurrency,
                requests_per_client=self.shape.requests_per_client,
                **options,
            )

        if midway is None:
            return drive()
        thread = threading.Thread(target=drive, name="phase-load")
        thread.start()
        try:
            time.sleep(_MIDWAY_DELAY_S)
            return self.admin(midway)
        finally:
            thread.join()

    def matches(self, digests: dict[str, str]) -> bool:
        """Did every reply of the load carry its query's serial digest?"""
        observed = self.load.digests()
        return self.load.consistent() and all(
            observed.get(name) == {digest} for name, digest in digests.items()
        )


@contextlib.contextmanager
def daemon_phase(context: ServeContext, shape: LoadShape):
    """A fresh daemon over ``context`` for one phase, loaded at ``shape``.

    Once it has stopped — every request record is folded in by then —
    the phase also carries ``conserved`` / ``outcome_totals``
    (:func:`_conservation`) and the load's ``client_errors``.
    """
    daemon = GraphQueryDaemon(
        context, workers=shape.workers, queue_limit=shape.queue_limit
    )
    with DaemonHandle(daemon) as handle:
        phase = _DaemonPhase(daemon, handle.port, shape)
        yield phase
    phase.conserved, phase.outcome_totals = _conservation(phase.daemon, phase.load)
    phase.client_errors = [c.error for c in phase.load.clients if c.error]


def _overload_levels(shape: LoadShape) -> tuple[int, ...]:
    """Offered-concurrency ladder: at, past and far past admission."""
    limit = shape.queue_limit
    return tuple(sorted({limit, max(2 * limit, shape.concurrency), 4 * limit}))


def _overload_level(context: ServeContext, shape: LoadShape, clients: int) -> dict:
    """One sweep level: fresh daemon, ``clients`` offered concurrency."""
    with daemon_phase(context, replace(shape, concurrency=clients)) as phase:
        phase.run_load()
    load = phase.load
    queue_hist = load.queue_wait_histogram()
    server_hist = load.server_latency_histogram()
    attempts = load.requests_ok + load.shed_retries + load.requests_failed
    # Key names deliberately avoid both bench-diff cost markers and the
    # exact-pinned names of the reference run (shed counts and latencies
    # vary with interleaving; only the conservation flag is pinned).
    return {
        "clients": clients,
        "offered": clients * shape.requests_per_client,
        "completed": load.requests_ok,
        "shed": load.shed_retries,
        "gave_up": load.requests_failed,
        "shed_rate_pct": 100.0 * load.shed_retries / attempts if attempts else 0.0,
        "queue_wait_ms_p50": (queue_hist.p50 if queue_hist.count else 0.0) * 1000.0,
        "queue_wait_ms_p99": (queue_hist.p99 if queue_hist.count else 0.0) * 1000.0,
        "server_ms_p50": (server_hist.p50 if server_hist.count else 0.0) * 1000.0,
        "server_ms_p99": (server_hist.p99 if server_hist.count else 0.0) * 1000.0,
        "requests_conserved": phase.conserved,
    }


#: Seed of the chaos fixture's byte flips (which byte of each region).
_CHAOS_CORRUPT_SEED = 29
#: Seeded fault schedule of the chaos sweep: transient EIOs well under
#: the storage layer's bounded-retry coverage, slow reads frequent
#: enough to stress the deadline path without starving it.
_CHAOS_FAULT_SEED = 31
_CHAOS_EIO_RATE = 0.02
_CHAOS_SLOW_RATE = 0.05
_CHAOS_SLOW_SECONDS = 0.004
#: Deadline budget of the chaos sweep, attached to every third request.
_CHAOS_DEADLINE_MS = 250.0
_CHAOS_DEADLINE_EVERY = 3


def _chaos_phase(repository, base: Path, shape: LoadShape) -> dict:
    """Serve a corrupted store copy under injected faults and deadlines.

    Copies the committed pair, flips one byte in *every* intranode
    region (so any adjacency read is guaranteed to hit a CRC mismatch),
    reopens the copy cold with ``on_corruption="degrade"`` and drives
    the Figure 11 mix through a fresh daemon while a seeded
    :class:`~repro.storage.faults.FaultPlan` injects transient EIOs and
    slow reads.  Returns the flat ``chaos_*`` gate booleans plus the
    interleaving-dependent counts under ``chaos_detail``.
    """
    chaos_dir = base / "chaos"
    corrupted = 0
    for name in SERVE_NAMES:
        shutil.copytree(base / name, chaos_dir / name)
        corrupted += faults.corrupt_snode_regions(
            chaos_dir / name, seed=_CHAOS_CORRUPT_SEED
        )
    context = ServeContext.open(
        repository,
        chaos_dir,
        buffer_bytes=shape.buffer_bytes,
        on_corruption="degrade",
    )
    try:
        before = _counter_sums(context.shared_totals().values())
        plan = faults.FaultPlan(
            seed=_CHAOS_FAULT_SEED,
            eio_rate=_CHAOS_EIO_RATE,
            slow_read_rate=_CHAOS_SLOW_RATE,
            slow_read_seconds=_CHAOS_SLOW_SECONDS,
        )
        with faults.activated(plan), daemon_phase(context, shape) as phase:
            phase.run_load(
                deadline_ms=_CHAOS_DEADLINE_MS,
                deadline_every=_CHAOS_DEADLINE_EVERY,
            )
        load = phase.load
        after = _counter_sums(context.shared_totals().values())
        degraded_read_growth = (
            after["degraded_reads"] - before["degraded_reads"]
        )
        storage = phase.daemon.io_resilience()
        return {
            # Deterministic gates (CI exact-pins these):
            "chaos_conserved": phase.conserved,
            "chaos_zero_failed": load.requests_failed == 0
            and not phase.client_errors,
            "chaos_degraded_served": load.requests_degraded > 0
            and degraded_read_growth > 0,
            "chaos_degraded_accounted": phase.outcome_totals.get("degraded", 0)
            == load.requests_degraded,
            "chaos_deadline_honored": load.deadline_honored(),
            # Interleaving-/timing-dependent observability (CI ignores):
            "chaos_detail": {
                "regions_corrupted": corrupted,
                "degraded": load.requests_degraded,
                "whole": load.requests_ok,
                "timeouts": load.requests_timeout,
                "shed": load.shed_retries,
                "deadline_carried": load.deadline_requests,
                "deadline_violations": load.deadline_violations,
                "degraded_reads": degraded_read_growth,
                "io_retries": storage.get("io_retries", 0),
                "fault_eio": storage.get("fault_eio", 0),
                "slow_reads": storage.get("fault_slow_reads", 0),
                "errors": phase.client_errors,
            },
        }
    finally:
        context.close()


def _swap_phase(
    repository,
    context: ServeContext,
    base: Path,
    digests: dict[str, str],
    shape: LoadShape,
) -> dict:
    """Hot-swap onto a freshly built pair while the load generator runs.

    Builds a second, byte-identical store pair under ``base/swap_store``
    (same repository, same refinement — so replies must carry the same
    digests), starts the Figure 11 load in a background thread, sends
    the ``swap`` admin op mid-run, and checks nothing failed, nothing
    was lost and every digest still matches the serial baseline.

    Mutates ``context``: on return it serves from the swapped-in pair
    (the original stores are closed).
    """
    swap_dir = base / "swap_store"
    SNodePair.commit(
        repository, swap_dir, store_options(shape.buffer_bytes), SERVE_NAMES
    )
    with daemon_phase(context, shape) as phase:
        swap_outcome = phase.run_load(
            midway=lambda admin: admin.swap(str(swap_dir))
        )
    load = phase.load
    return {
        # Deterministic gates (CI exact-pins these):
        "swap_applied": bool(swap_outcome.get("swapped"))
        and phase.daemon.counters.store_swaps == 1
        and context.generation == 1,
        "swap_matches_serial": phase.matches(digests),
        "swap_zero_failed": load.requests_failed == 0
        and load.requests_timeout == 0
        and not phase.client_errors,
        "swap_conserved": phase.conserved,
        # Timing-dependent observability (CI ignores):
        "swap_detail": {
            "drained_in_flight": swap_outcome.get("drained", 0),
            "generation": swap_outcome.get("generation", 0),
            "completed": load.requests_ok,
            "shed": load.shed_retries,
            "errors": phase.client_errors,
        },
    }


def run(
    size: int | None = None,
    shape: LoadShape = LoadShape(),
    workdir: str | None = None,
) -> dict:
    """Run the serving benchmark end-to-end; returns the results dict."""
    size = size or sweep_sizes()[3]
    repository = dataset(size)
    own_tmp = tempfile.TemporaryDirectory() if workdir is None else None
    base = Path(workdir or own_tmp.name)
    try:
        with tracing.span("serve.build"):
            context = ServeContext.build(
                repository, base, buffer_bytes=shape.buffer_bytes
            )
        try:
            # Serial baseline: the six queries through the root (shared)
            # path, establishing the reference digests.  This also warms
            # the shared cache, so serial and concurrent runs read the
            # same warmed pool.
            with tracing.span("serve.serial"):
                serial = serial_digests(context.serial_engine())
            before = _counter_sums(context.shared_totals().values())
            with tracing.span("serve.load"):
                with daemon_phase(context, shape) as phase:
                    phase.run_load()
            load = phase.load
            after = _counter_sums(context.shared_totals().values())
            if phase.client_errors:
                raise ServeError(
                    f"load generator reported errors: {phase.client_errors[:3]}"
                )
            session_sums = _counter_sums(
                direction
                for client in load.clients
                for direction in client.io_stats.values()
            )
            growth = {
                name: after[name] - before[name] for name in _ATTRIBUTABLE
            }
            metrics_conserved = growth == session_sums
            # Attribution conservation: the per-request session deltas
            # echoed in every ok reply, summed over the run, must equal
            # the session totals the clients read back — bit-for-bit.
            attributed = load.attributed_totals()
            attribution_conserved = all(
                attributed.get(name, 0) == session_sums[name]
                for name in _ATTRIBUTABLE
            )
            with tracing.span("serve.overload"):
                overload = [
                    _overload_level(context, shape, clients)
                    for clients in _overload_levels(shape)
                ]
            with tracing.span("serve.chaos"):
                chaos = _chaos_phase(repository, base, shape)
            # The swap phase runs last: it retires the original stores
            # and leaves the context serving from the swapped-in pair.
            with tracing.span("serve.swap"):
                swap = _swap_phase(repository, context, base, serial, shape)
            results = {
                "num_pages": repository.num_pages,
                **asdict(shape),
                "requests_total": shape.concurrency * shape.requests_per_client,
                "requests_ok": load.requests_ok,
                "requests_failed": load.requests_failed,
                "shed_retries": load.shed_retries,
                "matches_serial": phase.matches(serial),
                "metrics_conserved": metrics_conserved,
                "requests_conserved": phase.conserved,
                "attribution_conserved": attribution_conserved,
                "traces_propagated": load.traces_propagated(),
                # Per-query-name share of the run's I/O, from the
                # server-echoed per-request deltas.  Interleaving-
                # dependent (cache state decides hits vs misses), so CI
                # ignores the values and exact-gates only the flag.
                "attribution": {
                    name: _report_keys(counters)
                    for name, counters in sorted(load.attribution().items())
                },
                # Per-outcome telemetry totals; backpressure varies with
                # interleaving, so these are reported, not gated.
                "outcome_totals": phase.outcome_totals,
                "overload": overload,
                "per_query_digests": {
                    name: sorted(digests)[0]
                    for name, digests in sorted(load.digests().items())
                    if digests
                },
                "digest": protocol.payload_digest({"per_query": serial}),
                # Concurrency-dependent (duplicate loads under races);
                # reported for observability.  Key names deliberately
                # avoid bench-diff cost markers so runs are not gated on
                # interleaving-dependent counts.
                "counter_growth": _report_keys(growth),
                "daemon": phase.daemon.counters.as_dict(),
            }
            results.update(chaos)
            results.update(swap)
            hits = growth["buffer_hits"] - growth["buffer_pinned_hits"]
            lookups = hits + growth["buffer_misses"]
            results["hit_rate_pct"] = (
                100.0 * hits / lookups if lookups else 0.0
            )
            return {"results": results}
        finally:
            context.close()
    finally:
        if own_tmp is not None:
            own_tmp.cleanup()


def report(results: dict) -> str:
    """Human-readable summary table."""
    chaos = results["chaos_detail"]
    rows = [
        ("pages", results["num_pages"]),
        ("concurrency", results["concurrency"]),
        ("workers / queue limit", f"{results['workers']} / {results['queue_limit']}"),
        ("requests ok / total", f"{results['requests_ok']} / {results['requests_total']}"),
        ("backpressure retries", results["shed_retries"]),
        ("buffer hit rate", f"{results['hit_rate_pct']:.1f}%"),
        ("matches serial", results["matches_serial"]),
        ("metrics conserved", results["metrics_conserved"]),
        ("requests conserved", results["requests_conserved"]),
        ("attribution conserved", results["attribution_conserved"]),
        ("traces propagated", results["traces_propagated"]),
        ("chaos: conserved / zero failed",
         f"{results['chaos_conserved']} / {results['chaos_zero_failed']}"),
        ("chaos: degraded served / accounted",
         f"{results['chaos_degraded_served']} / "
         f"{results['chaos_degraded_accounted']}"),
        ("chaos: deadlines honored", results["chaos_deadline_honored"]),
        ("chaos: degraded / timeouts / retries",
         f"{chaos['degraded']} / {chaos['timeouts']} / {chaos['io_retries']}"),
        ("swap: applied / matches serial",
         f"{results['swap_applied']} / {results['swap_matches_serial']}"),
        ("swap: zero failed / conserved",
         f"{results['swap_zero_failed']} / {results['swap_conserved']}"),
        ("swap: drained in flight", results["swap_detail"]["drained_in_flight"]),
    ]
    table = format_table(["metric", "value"], rows)
    attribution_rows = [
        (
            name,
            counters.get("bytes", 0),
            counters.get("seek_count", 0),
            counters.get("hits", 0),
            counters.get("misses", 0),
            counters.get("loads", 0),
        )
        for name, counters in sorted(results["attribution"].items())
    ]
    if attribution_rows:
        table += "\n\nper-query attributed I/O:\n" + format_table(
            ["query", "bytes", "seeks", "hits", "misses", "loads"],
            attribution_rows,
        )
    table += "\n\noverload sweep:\n" + format_table(
        ["clients", "offered", "completed", "shed", "shed rate",
         "qwait p50ms", "qwait p99ms", "conserved"],
        [
            (
                level["clients"],
                level["offered"],
                level["completed"],
                level["shed"],
                f"{level['shed_rate_pct']:.1f}%",
                f"{level['queue_wait_ms_p50']:.1f}",
                f"{level['queue_wait_ms_p99']:.1f}",
                level["requests_conserved"],
            )
            for level in results["overload"]
        ],
    )
    return table


#: Result flag -> the failure it names: every one must hold.
GATES = {
    "matches_serial": "concurrent results diverged from the serial baseline",
    "metrics_conserved": "per-client metrics do not sum to the shared totals",
    "requests_conserved": "telemetry did not account for every request sent",
    "attribution_conserved":
        "per-request attributed I/O does not sum to the session totals",
    "traces_propagated": "a reply failed to echo its propagated trace id",
    "chaos_conserved": "chaos sweep lost requests",
    "chaos_zero_failed": "chaos sweep failed requests hard",
    "chaos_degraded_served":
        "chaos sweep never answered from quarantined regions",
    "chaos_degraded_accounted":
        "degraded replies do not match the degraded outcome total",
    "chaos_deadline_honored":
        "a deadline request answered later than deadline + grace",
    "swap_applied": "the hot store swap did not happen",
    "swap_matches_serial":
        "replies across the swap diverged from the serial baseline",
    "swap_zero_failed": "requests failed during the hot swap",
    "swap_conserved": "telemetry lost requests across the hot swap",
}


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=None)
    add_load_arguments(parser, LoadShape(), "query requests per client")
    add_report_arguments(parser)
    add_trace_arguments(parser)
    arguments = parser.parse_args(argv)
    shape = parsed_shape(arguments)
    with trace_session(arguments, "serve") as tracer:
        results = run(size=arguments.size, shape=shape)["results"]
    unconserved = [
        level["clients"]
        for level in results["overload"]
        if not level["requests_conserved"]
    ]
    gates = {message: results[flag] for flag, message in GATES.items()}
    gates[f"overload sweep lost requests at concurrency {unconserved}"] = (
        not unconserved
    )
    gate_and_report(
        arguments,
        "serve",
        results,
        f"[serve] concurrent Figure 11 mix (pages={results['num_pages']}, "
        f"concurrency={shape.concurrency})\n{report(results)}",
        gates,
        params=asdict(shape),
        tracer=tracer,
    )


if __name__ == "__main__":
    main()
